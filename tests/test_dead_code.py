"""Every private function, method and class of the package has a reader.

A name is referenced when it appears in src/iglab as a name, an attribute
or an imported name, outside the definition's own body. Matching is by
name, so two private methods of one name share their references.
"""

import ast
import collections
import pathlib

import iglab

SRC = pathlib.Path(iglab.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _references(tree):
    out = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name] += 1
    return out


def _private_definitions():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = sum((_references(t) for t in trees.values()), collections.Counter())
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, DEFS) and _is_private(node.name):
                inside = _references(node)[node.name]
                yield f"{module}:{node.lineno} {node.name}", \
                    refs[node.name] - inside


def test_every_private_definition_is_referenced():
    defs = list(_private_definitions())
    assert len(defs) > 50                 # the walk found the package
    unread = [where for where, n in defs if n == 0]
    assert unread == []
