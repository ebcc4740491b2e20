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
