"""Source hygiene: invariants raise named errors, and the public names are sound."""

import ast
import pathlib

import hahn_paths

SRC = pathlib.Path(hahn_paths.__file__).resolve().parent
ORACLES = pathlib.Path(__file__).resolve().parent / "oracles.py"


def test_no_assert_statements_in_sources():
    # `python -O` strips assert statements, so an invariant must raise instead.
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_public_names_resolve_once():
    names = hahn_paths.__all__
    assert len(set(names)) == len(names)
    missing = [name for name in names if not hasattr(hahn_paths, name)]
    assert missing == []


def _defined_names(tree: ast.Module) -> set[str]:
    """Names bound at the top level of a module by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_oracles_live_only_in_the_tests():
    # A reference implementation has one home, tests/oracles.py, so the
    # package never ships a second way to compute what it computes.
    oracle_names = _defined_names(ast.parse(ORACLES.read_text()))
    assert oracle_names
    package_names = set(hahn_paths.__all__)
    for path in SRC.rglob("*.py"):
        package_names |= _defined_names(ast.parse(path.read_text()))
    assert sorted(oracle_names & package_names) == []


def _cache_decorator_faults(tree: ast.AST) -> list[tuple[int, str]]:
    """Every lru_cache use that lacks an explicit integer maxsize, and every functools.cache."""
    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            size = [kw.value for kw in node.keywords if kw.arg == "maxsize"] or node.args[:1]
            if (
                len(size) == 1
                and isinstance(size[0], ast.Constant)
                and type(size[0].value) is int
            ):
                bounded.add(id(node.func))
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            faults += [(node.lineno, "cache") for alias in node.names if alias.name == "cache"]
        name = (
            node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute)
            else None
        )
        if name == "lru_cache" and id(node) not in bounded:
            faults.append((node.lineno, "lru_cache without an integer maxsize"))
        if name == "cache" and isinstance(node, ast.Attribute):
            faults.append((node.lineno, "functools.cache"))
    return faults


def test_every_cache_has_an_explicit_integer_bound():
    # An unbounded cache grows for the life of the process.
    found = [
        f"{path.relative_to(SRC)}:{line}: {what}"
        for path in sorted(SRC.rglob("*.py"))
        for line, what in _cache_decorator_faults(ast.parse(path.read_text()))
    ]
    assert found == []


def test_cache_check_flags_unbounded_caches():
    source = """
import functools
from functools import cache, lru_cache

@lru_cache
def a(): pass

@lru_cache()
def b(): pass

@lru_cache(maxsize=None)
def c(): pass

@functools.cache
def d(): pass

@functools.lru_cache(maxsize=True)
def e(): pass

@lru_cache(maxsize=64)
def ok(): pass

@functools.lru_cache(128)
def ok2(): pass
"""
    faults = _cache_decorator_faults(ast.parse(source))
    assert sorted(line for line, _ in faults) == [3, 5, 8, 11, 14, 17]


def _raised_names(tree: ast.AST) -> set[str]:
    """The class names in every `raise X(...)`, `raise X` and `raise mod.X` of a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_exported_error_is_raised():
    # An exported error that nothing raises names a failure that cannot
    # happen, and its exit code documents nothing.  A base class is exempt:
    # it is raised through its subclasses.
    errors = [
        obj
        for obj in (getattr(hahn_paths, name) for name in hahn_paths.__all__)
        if isinstance(obj, type) and issubclass(obj, hahn_paths.HahnPathsError)
    ]
    bases = {base for cls in errors for base in cls.__mro__[1:]}
    raised = set()
    for path in SRC.rglob("*.py"):
        raised |= _raised_names(ast.parse(path.read_text()))
    assert errors
    assert sorted(c.__name__ for c in errors if c not in bases and c.__name__ not in raised) == []


def test_raise_scan_reads_every_raise_form():
    source = """
raise A("boom")
raise B
raise errors.C("boom") from None
try:
    pass
except D:
    raise
"""
    assert _raised_names(ast.parse(source)) == {"A", "B", "C"}
