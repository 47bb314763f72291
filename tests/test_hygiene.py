"""Source hygiene, checked with ``ast`` alone: no module of the package
imports a name it never uses, and no module-level private function goes
unreferenced, and no module-level constant goes unread.  These catch
what a deletion leaves behind, as does the one check that imports: every
function the benchmark traces still exists.  Every source of randomness
is seeded, the standard-library modules loaded at import are pinned,
one function adjoins variables to a ring, four present one, and four
write a ring's flags."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ringgraph"
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


# The standard-library modules the package's modules import at the top.
# Loading and compiling them is paid by every cold start, so a new one
# must show up as an edit here.
IMPORT_TIME_STDLIB = {
    "__future__", "dataclasses", "fractions", "functools", "heapq", "importlib", "itertools", "json",
    "math", "operator", "pathlib", "random", "re", "sys", "time", "typing",
}


def test_import_time_stdlib_is_pinned():
    loaded = set()
    for tree in MODULES.values():
        for node in tree.body:
            if isinstance(node, ast.Import):
                loaded |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                loaded.add(node.module.split(".")[0])
    assert loaded <= sys.stdlib_module_names
    assert loaded == IMPORT_TIME_STDLIB


def test_no_unused_imports():
    unused = []
    for name, tree in MODULES.items():
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
                # a dunder, such as a module's ``__getattr__``, is called by Python
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((name, node.name))
            used |= refs
    assert [f"{m}: {f}" for m, f in defined if f not in used] == []


def test_no_unread_constants():
    """Every module-level UPPER_CASE constant in the package is read
    somewhere in the package or its tests."""
    trees = list(MODULES.values()) + [ast.parse(p.read_text(encoding="utf-8")) for p in (ROOT / "tests").glob("*.py")]
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                read.add(node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
    unread = []
    for name, tree in MODULES.items():
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            for target in targets:
                if isinstance(target, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", target.id) and target.id not in read:
                    unread.append(f"{name}:{node.lineno}: {target.id}")
    assert unread == []


def test_one_place_adjoins_variables():
    """Only one function, in ``ideals.py``, calls ``fresh_names`` or
    ``PolyRing.extended``: every elimination in the package adjoins its
    variables the same way."""
    callers = set()
    for name, tree in MODULES.items():
        for node in tree.body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    called = getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)
                    if called in ("fresh_names", "extended"):
                        callers.add((name, getattr(node, "name", node.lineno)))
    assert callers == {("ideals.py", "_adjoined")}


def test_no_verdict_builds_a_hidden_ring():
    """``PresentedRing`` is called only where a ring is presented: the
    polynomial ring, a kernel's quotient, a face ring and a session's
    ring.  No verdict builds a second ring to read the first one."""
    callers = set()
    for name, tree in MODULES.items():
        for node in tree.body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    called = getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)
                    if called == "PresentedRing":
                        callers.add((name, getattr(node, "name", node.lineno)))
    assert callers == {
        ("ideals.py", "polynomial_quotient"),
        ("minprimes.py", "kernel_domain_presentation"),
        ("complexes.py", "face_ring"),
        ("session.py", "_parse_ring"),
    }


def test_one_writer_per_ring_flag():
    """``PresentedRing.claim`` is called only where a flag is first known:
    the monomial reducedness of a new ring, the certified computation, a
    kernel's domain presentation and a session's assertion."""
    callers = set()
    for name, tree in MODULES.items():
        for node in tree.body:
            owner, scopes = (node.name + ".", node.body) if isinstance(node, ast.ClassDef) else ("", [node])
            for scope in scopes:
                for sub in ast.walk(scope):
                    if isinstance(sub, ast.Call) and getattr(sub.func, "attr", None) == "claim":
                        callers.add((name, owner + getattr(scope, "name", str(scope.lineno))))
    assert callers == {
        ("ideals.py", "PresentedRing.__init__"),
        ("minprimes.py", "certify_flag"),
        ("minprimes.py", "kernel_domain_presentation"),
        ("session.py", "_parse_assert"),
    }


def _is_int_expression(node) -> bool:
    """A constant integer expression such as ``4096`` or ``1 << 16``."""
    if isinstance(node, ast.Constant):
        return type(node.value) is int
    if isinstance(node, ast.BinOp):
        return _is_int_expression(node.left) and _is_int_expression(node.right)
    return isinstance(node, ast.UnaryOp) and _is_int_expression(node.operand)


def test_caches_are_bounded():
    """Every ``lru_cache`` is called with an integer maxsize; nothing uses
    the unbounded ``functools.cache``."""
    unbounded = []
    for name, tree in MODULES.items():
        bounded_refs = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                maxsize = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
                if maxsize and _is_int_expression(maxsize[0]):
                    bounded_refs.add(id(node.func))
        for node in ast.walk(tree):
            ref = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                unbounded += [f"{name}: import {a.name}" for a in node.names if a.name == "cache"]
            elif ref == "cache" and getattr(node, "value", None) and getattr(node.value, "id", None) == "functools":
                unbounded.append(f"{name}:{node.lineno}: functools.cache")
            elif ref == "lru_cache" and id(node) not in bounded_refs:
                unbounded.append(f"{name}:{node.lineno}: lru_cache without an integer maxsize")
    assert unbounded == []


def test_randomness_is_seeded():
    """Every ``random.Random(...)`` is given a seed, and no module-level
    ``random`` function is called or imported: the same input gives the
    same report on every run."""
    unseeded = []
    for name, tree in MODULES.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                unseeded.append(f"{name}:{node.lineno}: from random import")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                owner, attr = getattr(node.func.value, "id", None), node.func.attr
                if owner == "random" and (attr != "Random" or not (node.args or node.keywords)):
                    unseeded.append(f"{name}:{node.lineno}: random.{attr}({len(node.args)} args)")
    assert unseeded == []


def test_traced_names_resolve():
    """Every function the benchmark's layer tracer wraps still exists
    under the module and qualified name it lists."""
    spec = importlib.util.spec_from_file_location("layertrace", ROOT / "perfbench" / "layertrace.py")
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    import ringgraph.cli  # noqa: F401  (loads every module a traced name lives in)

    missing = []
    for metric, (module, qualname) in layertrace.TRACED.items():
        try:
            layertrace._resolve(module, qualname)
        except (KeyError, AttributeError):
            missing.append(f"{metric}: {module}.{qualname}")
    assert missing == []
