"""Every function, method and class of the package has a reader.

A name is referenced when it appears in src/iglab as a name, an attribute
or an imported name, outside the definition's own body. Matching is by
name, so two methods of one name share their references. A private name
needs a reference. A public one (a module-level function or class, or a
method of such a class) needs a reference in src/iglab, demos/, perfbench/
or tools/, or must appear in a code span of README.md.

Every parameter of a function or method is read in its body, apart from
a method's self or cls and the signatures a protocol fixes (PROTOCOL).
"""

import ast
import collections
import pathlib
import re

import iglab
from iglab.gallery import GOLDEN_RUNS

SRC = pathlib.Path(iglab.__file__).parent
ROOT = SRC.parent.parent
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


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, DEFS) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, DEFS) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_every_public_definition_has_a_reader():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = sum((_references(t) for t in trees.values()),
               collections.Counter())
    for folder in ("demos", "perfbench", "tools"):
        for path in sorted((ROOT / folder).glob("*.py")):
            refs += _references(ast.parse(path.read_text()))
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    documented = {word for span in spans for word in re.findall(r"\w+", span)}
    defs = [(f"{module}:{node.lineno} {qualname}", node)
            for module, tree in trees.items()
            for qualname, node in _public_definitions(tree)]
    assert len(defs) > 100                # the walk found the package
    unread = [where for where, node in defs
              if refs[node.name] == _references(node)[node.name]
              and node.name not in documented]
    assert unread == []


# parameters a shared signature makes a function take without reading
# them: qualified name -> (parameters, why)
CLAIMS = {claim.__name__ for *_, golden in GOLDEN_RUNS
          for claim in golden.claims}
PROTOCOL = {
    **{name: ({"fam", "rep"}, "Golden calls every claim as claim(fam, rep)")
       for name in CLAIMS},
    "LinearFamily.root_id": ({"window"}, "LineFamily.root_id reads it"),
    "_build_unsupported.build": ({"params"}, "build_family calls every "
                                             "builder as build(**params)"),
}


def _functions(node, prefix=""):
    """(qualified name, function node, is a method) for every def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, DEFS):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                yield name, child, isinstance(node, ast.ClassDef)
            yield from _functions(child, name + ".")


def _unread_parameters(fn, is_method):
    args = fn.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    params += [a.arg for a in (args.vararg, args.kwarg) if a]
    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                 for d in fn.decorator_list)
    if is_method and not static:
        params = params[1:]
    read = {node.id for stmt in fn.body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return {p for p in params if p not in read}


def test_every_parameter_is_read():
    names, unread = set(), []
    for path in sorted(SRC.glob("*.py")):
        for name, fn, is_method in _functions(ast.parse(path.read_text())):
            names.add(name)
            allowed = PROTOCOL.get(name, (set(), ""))[0]
            extra = _unread_parameters(fn, is_method) - allowed
            if extra:
                unread.append(f"{path.name}:{fn.lineno} {name} {sorted(extra)}")
    assert len(names) > 200               # the walk found the package
    assert len(CLAIMS) == 12 and set(PROTOCOL) <= names
    assert unread == []
