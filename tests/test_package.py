"""The package namespace is its modules.

iglab/__init__.py holds only the docstring and __version__, so no
re-exported function can shadow the module of the same name: iglab.<name>
is always the module iglab/<name>.py, and each name is imported from the
module that defines it.
"""

import ast
import importlib
import pathlib
import types

import iglab

SRC = pathlib.Path(iglab.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def test_every_module_is_the_package_attribute_of_its_name():
    assert {"classify", "cli", "graphs"} <= set(MODULES)
    for name in MODULES:
        assert importlib.import_module(f"iglab.{name}") is \
            getattr(iglab, name), name
    import iglab.classify as m
    assert isinstance(m, types.ModuleType) and callable(m.classify)


def test_the_package_exports_only_its_version():
    body = ast.parse((SRC / "__init__.py").read_text()).body
    assert isinstance(body[0].value, ast.Constant)      # the docstring
    assert [ast.unparse(stmt) for stmt in body[1:]] == \
        ["__version__ = '0.1.0'"]


def _definitions(tree):
    """The names a module's top level binds by def, class or assignment."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            names.update(node.id for node in ast.walk(stmt)
                         if isinstance(node, ast.Name)
                         and isinstance(node.ctx, ast.Store))
    return names


def test_every_name_is_imported_from_the_module_that_defines_it():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    defined = {stem: _definitions(tree) for stem, tree in trees.items()}
    imports = [(stem, node.module or "__init__", alias.name)
               for stem, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names]
    assert len(imports) > 30                # the walk found the imports
    assert [(stem, module, name) for stem, module, name in imports
            if name not in defined[module]] == []
