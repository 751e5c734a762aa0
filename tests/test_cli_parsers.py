"""Property tests of the CLI's flag parsers: valid text round-trips, malformed text exits 2."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

import hahn_paths
from hahn_paths import ModelParams, cli

INTS = st.integers(-(10**6), 10**6)
PAIRS = st.lists(st.tuples(INTS, INTS), min_size=1, max_size=5)
# Tokens that int() refuses.
BAD_INTS = st.sampled_from(["", "x", "1.5", "1e3", "0x1f", "+-1", "one", "1 2", "1:2"])
# Chunks that are not an integer pair a:b.
BAD_PAIRS = st.sampled_from(["1", "1:", ":1", "a:b", "1:2:3", "1.5:2", "0x1:2", "1;2"])


def exit_code(*argv: str) -> int:
    with redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def ints_text(values) -> str:
    return ",".join(map(str, values))


def pairs_text(pairs) -> str:
    return ",".join(f"{a}:{b}" for a, b in pairs)


@settings(max_examples=100, deadline=None)
@given(st.lists(INTS, min_size=1, max_size=6))
def test_parse_ints_round_trips(values):
    assert cli._parse_ints(ints_text(values), len(values), "--model") == tuple(values)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10**4), st.integers(0, 10**4), st.integers(0, 10**4))
def test_resolve_model_round_trips(n, s, extra):
    model = cli._resolve_model(SimpleNamespace(model=ints_text((n, s, s + extra)), hexagon=None))
    assert model == ModelParams(n, s, s + extra)
    hexagon = cli._resolve_model(SimpleNamespace(model=None, hexagon=ints_text((n, s, extra))))
    assert hexagon == ModelParams(n, s, s + extra)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(INTS, INTS), max_size=5))
def test_parse_pairs_round_trips(pairs):
    assert cli._parse_pairs(pairs_text(pairs), "--query") == pairs


@st.composite
def malformed_triples(draw) -> str:
    values = [str(v) for v in draw(st.lists(INTS, min_size=3, max_size=3))]
    if draw(st.booleans()):
        values[draw(st.integers(0, 2))] = draw(BAD_INTS)
    elif draw(st.booleans()):
        values.append(str(draw(INTS)))
    else:
        values.pop(draw(st.integers(0, 2)))
    return ",".join(values)


@settings(max_examples=100, deadline=None)
@given(malformed_triples(), st.sampled_from(["--model", "--hexagon"]))
def test_malformed_model_exits_2(text, flag):
    assert exit_code("enumerate", f"{flag}={text}") == 2
    assert exit_code("kernel", f"{flag}={text}", "--query", "0:0") == 2


@st.composite
def malformed_pairs(draw) -> str:
    chunks = [f"{a}:{b}" for a, b in draw(PAIRS)]
    chunks[draw(st.integers(0, len(chunks) - 1))] = draw(BAD_PAIRS)
    return ",".join(chunks)


@settings(max_examples=100, deadline=None)
@given(malformed_pairs())
def test_malformed_pairs_exit_2(text):
    assert exit_code("kernel", "--model", "2,1,3", f"--query={text}") == 2
    assert exit_code("enumerate", "--model", "2,1,3", f"--query={text}") == 2
    assert exit_code("limit", "--regime", "1,1,2,1,1", "--rhos", "20", f"--offsets={text}") == 2


def test_module_runs_as_a_program():
    src = os.path.dirname(os.path.dirname(os.path.abspath(hahn_paths.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "hahn_paths", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: hahn-paths")
