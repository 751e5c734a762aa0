"""Source hygiene: invariants raise named errors, and the public names are sound."""

import ast
import pathlib

import hahn_paths

SRC = pathlib.Path(hahn_paths.__file__).resolve().parent


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
