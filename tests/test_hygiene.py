"""Source hygiene, checked with ``ast`` alone: no module of the package
imports a name it never uses, and no module-level private function goes
unreferenced.  Both catch what a deletion leaves behind."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ringgraph"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}


def referenced_names(node) -> set:
    """Every name read under ``node``: bare names, attribute names, and
    the names inside string annotations such as ``-> "PrimeGraph"``."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        for ann in (getattr(sub, "annotation", None), getattr(sub, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= referenced_names(ast.parse(ann.value, mode="eval"))
    return names


def imported_names(tree) -> list:
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
    return out


def test_no_unused_imports():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__.py":
            continue  # imports there are the public re-exports
        body = [n for n in tree.body if not isinstance(n, (ast.Import, ast.ImportFrom))]
        used = set().union(*(referenced_names(n) for n in body))
        unused += [f"{name}: {imp}" for imp in imported_names(tree) if imp not in used]
    assert unused == []


def test_no_unreferenced_private_functions():
    defined, used = [], set()
    for name, tree in MODULES.items():
        for node in tree.body:
            refs = referenced_names(node)
            if isinstance(node, ast.ImportFrom):
                refs = {a.name for a in node.names}
            if isinstance(node, ast.FunctionDef):
                refs.discard(node.name)  # recursion is not a use
                if node.name.startswith("_"):
                    defined.append((name, node.name))
            used |= refs
    assert [f"{m}: {f}" for m, f in defined if f not in used] == []
