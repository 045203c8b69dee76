"""Source checks on the package modules, and the package's exports."""

import ast
import pathlib
import re
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "linkvol"


def imported_names(tree):
    """(bound name, line) for every name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    """The names listed in a module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= exported_names(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in imported_names(tree) if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_are_numpy_or_standard_library(path):
    # pyproject.toml declares numpy as the only dependency: every import
    # comes from the standard library, numpy or linkvol itself
    allowed = sys.stdlib_module_names | {"numpy", "linkvol"}
    foreign = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        foreign += [f"{path.name}:{node.lineno}: {name}" for name in modules
                    if name.split(".")[0] not in allowed]
    assert not foreign, "imports outside numpy and the standard library: " \
        + ", ".join(foreign)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    # every module imports at its top, so its dependencies show there;
    # the package has no import cycle that would need a deferred import
    inner = [f"{path.name}:{node.lineno}: {func.name}"
             for func in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(func)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not inner, "imports inside functions: " + ", ".join(inner)


def test_every_export_exists():
    import linkvol

    missing = [name for name in linkvol.__all__
               if not hasattr(linkvol, name)]
    assert not missing, "listed in __all__ but not defined: " + \
        ", ".join(missing)


def test_every_private_name_is_used():
    # a module-level _name is internal to the package, so a definition
    # that nothing in src/linkvol reads is dead code left behind
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                defined = [n.id for t in targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)]
            else:
                continue
            unused += [f"{name}:{node.lineno}: {d}" for d in defined
                       if d.startswith("_") and not d.startswith("__")
                       and d not in used]
    assert not unused, "private but never used: " + ", ".join(unused)


def test_no_unreferenced_definitions():
    # a function, method or class that nothing in the program, its tests
    # or its benchmark refers to by name, and that the README's code does
    # not name, is dead code. A string that is a (dotted) name counts, for
    # getattr- and monkeypatch-style use.
    root = SRC.parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    referenced = {word for code in re.findall(r"```.*?```|`[^`\n]+`",
                                              readme, re.S)
                  for word in re.findall(r"\w+", code)}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((root / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    referenced.add(node.id)
                elif isinstance(node, ast.Attribute):
                    referenced.add(node.attr)
                elif isinstance(node, ast.Constant) and \
                        isinstance(node.value, str) and \
                        re.fullmatch(r"[\w.]+", node.value):
                    referenced.update(node.value.split("."))
    unreferenced = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in referenced]
    assert not unreferenced, "defined but never referenced: " + \
        ", ".join(unreferenced)


def test_oracles_import_nothing_from_the_package():
    # the oracles are independent references only while they share no
    # code with what they check
    path = pathlib.Path(__file__).resolve().parent / "oracles.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [f"oracles.py:{node.lineno}: {name}" for name in modules
                  if name.split(".")[0] in ("linkvol", "")]
    assert not found, "oracles.py imports from linkvol: " + ", ".join(found)
