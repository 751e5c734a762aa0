"""Property tests of the CLI: valid flag text round-trips, malformed text exits 2, and
any argv built from the five subcommands' flags exits 0, 2, 3 or 4 without a traceback."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hahn_paths
from hahn_paths import ModelParams, cli, combinatorics, process

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


# Caps low enough that every command the fuzz test builds finishes in milliseconds.
LOW_CAPS = [
    (combinatorics, "ENUMERATION_MAX_WORK", 2_000),
    (cli, "KERNEL_MAX_SIDE", 8),
    (cli, "KERNEL_MAX_STATIC_WORK", 400),
    (cli, "LIMIT_MAX_DMAX", 20),
    (cli, "LIMIT_MAX_SIDE", 30),
    (process, "SAMPLER_MAX_PATHS", 3),
]
# The regime whose duality residual overflowed the float range.
OVERFLOWING_REGIME = "1e-300,9.959867505377773e-07,897830.0883425387,605097.7673561512,1e-300"
SIZES = st.sampled_from([1e-300, 1e-12, 0.3, 1.0, 2.0, 7.5, 1e6, 1e300])
SHARES = st.sampled_from([0.0, 1e-300, 1e-9, 0.25, 0.5, 1.0 - 1e-12, 1.0])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A directory holding a sampled trajectory file, with LOW_CAPS in place."""
    path = tmp_path_factory.mktemp("fuzz")
    with pytest.MonkeyPatch.context() as patch:
        for module, name, value in LOW_CAPS:
            patch.setattr(module, name, value)
        assert exit_code("sample", "--model", "2,2,4", "--samples", "3",
                         "--out", str(path / "s.json")) == 0
        yield path


@st.composite
def regimes(draw) -> str:
    """N,S,T,t,x: inside its box from tiny or huge sides, or any float at all."""
    if draw(st.integers(0, 3)) == 0:
        values = draw(st.lists(st.one_of(SIZES, st.floats()), min_size=5, max_size=5))
        return ",".join(map(repr, values))
    n, s = draw(SIZES), draw(SIZES)
    big_t = s + draw(SIZES)
    t = big_t * draw(SHARES)
    lo, hi = max(0.0, t + s - big_t), min(t, s) + n
    return ",".join(map(repr, (n, s, big_t, t, lo + (hi - lo) * draw(SHARES))))


@st.composite
def cli_argvs(draw, directory: str) -> list[str]:
    small = st.integers(-1, 7)
    valid = st.tuples(st.integers(1, 4), st.integers(0, 4), st.integers(0, 4)).map(
        lambda nsd: (nsd[0], nsd[1], nsd[1] + nsd[2])
    )
    triple = st.one_of(valid, valid, st.tuples(st.integers(0, 4), small, small)).map(ints_text)
    points = st.lists(st.tuples(small, small), max_size=3).map(pairs_text)
    command = draw(st.sampled_from(["enumerate", "kernel", "sample", "limit", "render"]))
    argv = [command]
    if command in ("enumerate", "kernel", "sample"):
        argv += [draw(st.sampled_from(["--model", "--hexagon"])), draw(triple)]
    if command in ("enumerate", "kernel"):
        argv += ["--mode", draw(st.sampled_from(["exact", "float"]))]
        if draw(st.booleans()):
            argv += ["--query", draw(points)]
    if command == "kernel":
        argv += ["--format", draw(st.sampled_from(["json", "csv"]))]
        if draw(st.booleans()):
            argv += ["--static-t", str(draw(small))]
    if command == "sample":
        argv += ["--samples", str(draw(st.integers(-1, 3))), "--seed", str(draw(st.integers(0, 99)))]
        if draw(st.integers(0, 3)):
            argv += ["--out", os.path.join(directory, "fuzz.json")]
    if command == "limit":
        argv += ["--regime", draw(regimes()), "--dmax", str(draw(st.integers(-1, 22)))]
        if draw(st.booleans()):
            argv += ["--rhos", ints_text(draw(st.lists(st.integers(1, 12), min_size=1, max_size=2)))]
            if draw(st.booleans()):
                argv += ["--offsets", draw(points)]
    if command == "render":
        argv += ["--trajectory", os.path.join(directory, "s.json.trajectories.json"),
                 "--index", str(draw(st.integers(-1, 3))),
                 "--style", draw(st.sampled_from(["paths", "surface", "rhombi"]))]
    return argv


def test_fuzz_argv_exits_with_a_documented_code(fuzz_dir):
    @settings(max_examples=400, deadline=None)
    @given(cli_argvs(str(fuzz_dir)))
    @example(["limit", "--regime", OVERFLOWING_REGIME, "--dmax", "2"])
    def exits_cleanly(argv):
        # An exception out of main is a traceback; argparse exits 2 through SystemExit.
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 4), argv

    exits_cleanly()
