"""Workload generators and output checks.

Each workload turns ``(seed, i)`` into the i-th operation: the argv lists
handed to ``hahn_paths.cli.main``, the number of work units it performs and a
check of the files it wrote.  Inputs depend only on the seed and the index,
so two runs with one seed send identical argv lists in identical order.
The checks re-derive what they can without the package (support formulas,
path validity, tiling counts); a failed check raises ``CheckError``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class CheckError(Exception):
    """An operation's output is wrong or malformed."""


@dataclass(frozen=True)
class Op:
    argvs: tuple[tuple[str, ...], ...]
    units: int
    entries: int
    check: Callable[[], None]


def _rng(workload: str, seed: int, i: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}")


def support(n: int, s: int, t_max: int, t: int) -> tuple[int, int]:
    """Occupiable positions of the time-t slice of the (N, S, T) model."""
    return max(0, t + s - t_max), min(t, s) + n - 1


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{path}: {exc}") from exc


# -- sampling ----------------------------------------------------------------


@functools.lru_cache(maxsize=4096)
def _decode_path(text: str) -> tuple[int, ...]:
    """Per-step moves (1 = up) of one run-length code such as "2F1U"."""
    _require(re.fullmatch(r"(\d+[FU])*", text) is not None, f"bad run code {text!r}")
    moves: list[int] = []
    for count, letter in re.findall(r"(\d+)([FU])", text):
        moves.extend([1 if letter == "U" else 0] * int(count))
    return tuple(moves)


def check_trajectory(model: tuple[int, int, int], runs: list[str]) -> list[tuple[int, ...]]:
    """Validate one family of paths; return its configuration at each time.

    Path i starts at i and must rise exactly S times; paths that never meet
    then stay inside the hexagon's support at every time.
    """
    n, s, t_max = model
    _require(len(runs) == n, f"family has {len(runs)} paths, expected {n}")
    heights = []
    for i, text in enumerate(runs):
        moves = _decode_path(text)
        _require(len(moves) == t_max, f"path {i} has {len(moves)} steps, expected {t_max}")
        _require(sum(moves) == s, f"path {i} rises {sum(moves)} times, expected {s}")
        heights.append(list(itertools.accumulate(moves, initial=i)))
    configs = list(zip(*heights))
    for t, conf in enumerate(configs):
        _require(all(a < b for a, b in zip(conf, conf[1:])), f"paths collide at t={t}: {conf}")
    return configs


def check_sample(path: str, model: tuple[int, int, int], samples: int, seed: int) -> None:
    n, _, t_max = model
    summary = _load_json(path)
    _require(summary.get("seed") == seed and summary.get("samples") == samples, "echo mismatch")
    trajectories = _load_json(path + ".trajectories.json")
    records = trajectories.get("trajectories")
    _require(isinstance(records, list) and len(records) == samples, "trajectory count")
    counts: list[dict[int, int]] = [{} for _ in range(t_max + 1)]
    for record in records:
        for t, conf in enumerate(check_trajectory(model, record["paths"])):
            for x in conf:
                counts[t][x] = counts[t].get(x, 0) + 1
    density = summary.get("empirical_density", {})
    for t in range(t_max + 1):
        row = density.get(str(t))
        _require(isinstance(row, dict), f"no density row at t={t}")
        _require(abs(sum(row.values()) - n) < 1e-9, f"density at t={t} does not sum to {n}")
        want = {str(x): c / samples for x, c in counts[t].items()}
        _require(row == want, f"density at t={t} disagrees with the trajectories")


def check_svg(path: str, model: tuple[int, int, int]) -> None:
    """A rhombus tiling of the (a, b, c) hexagon has ab, ac and bc rhombi per type."""
    n, s, t_max = model
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        raise CheckError(f"{path}: {exc}") from exc
    kinds: dict[str, int] = {}
    for node in root.iter("{http://www.w3.org/2000/svg}polygon"):
        kinds[node.get("class")] = kinds.get(node.get("class"), 0) + 1
    want = {"up": n * s, "flat": n * (t_max - s), "gap": s * (t_max - s)}
    _require(kinds == want, f"tiling has {kinds}, expected {want}")


class SampleHot:
    """README pipeline: sample K trajectories, then render one as rhombi."""

    name = "sample-hot"
    model = (4, 4, 8)
    samples = 100

    def op(self, seed: int, i: int) -> Op:
        first = (seed % 2**32) * 2**20 + i * self.samples
        index = _rng(self.name, seed, i).randrange(self.samples)
        model_arg = ",".join(map(str, self.model))
        sample = ("sample", "--model", model_arg, "--samples", str(self.samples),
                  "--seed", str(first), "--out", "s.json")
        render = ("render", "--trajectory", "s.json.trajectories.json",
                  "--index", str(index), "--style", "rhombi", "--out", "t.svg")

        def check() -> None:
            check_sample("s.json", self.model, self.samples, first)
            check_svg("t.svg", self.model)

        return Op((sample, render), self.samples, 0, check)


class SampleCold:
    """Large model: nearly every sampler step misses the transition-table cache."""

    name = "sample-cold"
    model = (10, 10, 20)
    samples = 1

    def op(self, seed: int, i: int) -> Op:
        first = (seed % 2**32) * 2**20 + i * self.samples
        model_arg = ",".join(map(str, self.model))
        sample = ("sample", "--model", model_arg, "--samples", str(self.samples),
                  "--seed", str(first), "--out", "s.json")

        def check() -> None:
            check_sample("s.json", self.model, self.samples, first)

        return Op((sample,), self.samples, 0, check)


# -- exact correlations --------------------------------------------------------


def kernel_query(rng: random.Random, model: tuple[int, int, int], k: int) -> list[tuple[int, int]]:
    """k points at distinct random times, each uniform on its slice's support."""
    n, s, t_max = model
    points = []
    for t in sorted(rng.sample(range(t_max + 1), k)):
        lo, hi = support(n, s, t_max, t)
        points.append((rng.randint(lo, hi), t))
    return points


def kernel_argv(model: tuple[int, int, int], points: list[tuple[int, int]]) -> tuple[str, ...]:
    return ("kernel", "--model", ",".join(map(str, model)), "--mode", "exact",
            "--query", ",".join(f"{x}:{t}" for x, t in points), "--out", "k.json")


def read_correlation(path: str, points: list[tuple[int, int]]) -> Fraction:
    doc = _load_json(path)
    _require(doc.get("query") == [{"x": x, "t": t} for x, t in points], "query echo mismatch")
    corr = doc.get("correlation")
    _require(isinstance(corr, dict), "no exact correlation")
    match = re.fullmatch(r"(-?\d+)/(\d+)", str(corr.get("rational")))
    _require(match is not None and int(match.group(2)) > 0,
             f"bad rational {corr.get('rational')!r}")
    value = Fraction(int(match.group(1)), int(match.group(2)))
    _require(float(value) == corr.get("decimal"), "rational and decimal disagree")
    _require(0 <= value <= 1, f"correlation {value} outside [0, 1]")
    return value


class KernelExact:
    """Exact correlation determinants of 1-4 points on a mid-size model."""

    name = "kernel-exact"
    model = (20, 20, 40)
    oracle_model = (3, 3, 6)
    oracle_queries = 16

    def op(self, seed: int, i: int) -> Op:
        k = 1 + i % 4
        points = kernel_query(_rng(self.name, seed, i), self.model, k)
        return Op((kernel_argv(self.model, points),), 1, k * k,
                  lambda: read_correlation("k.json", points))

    def oracle_ops(self, seed: int):
        """The same generator on a model small enough for the enumeration oracle."""
        for i in range(self.oracle_queries):
            rng = _rng(self.name + ":oracle", seed, i)
            points = kernel_query(rng, self.oracle_model, 1 + i % 4)
            yield kernel_argv(self.oracle_model, points), points


# -- bulk limit ----------------------------------------------------------------

SHAPE = (1, 1, 2)
RHOS = (20, 40, 80)
OFFSETS = [(dx, dt) for dx in range(-3, 4) for dt in range(-2, 3)]
# Regime coordinates are multiples of 1/GRID, so rho*t and rho*x are integers at
# every scale and the probe compares the kernels at exactly scaled points.
GRID = 20
# Deep bulk only: near the box edges or the arctic ellipse the finite-size error
# at rho = 20..80 need not shrink monotonically (seen at 3 of 87 grid points with
# |D| <= 0.8 and no edge margin), which the output check would count as a failure.
EDGE_MARGIN = 0.25
LIQUID_MARGIN = 0.6
# Op i draws t from band BAND_ORDER[i % T_STRATA]: bit-reversed, so that the
# dozen or so ops of one run spread evenly over the bulk whatever the seed.
T_STRATA = 16
BAND_ORDER = [int(f"{k:04b}"[::-1], 2) for k in range(T_STRATA)]


def arccos_argument(n: float, s: float, t_max: float, t: float, x: float) -> float | None:
    """D with |D| < 1 exactly inside the arctic ellipse; None on the box boundary."""
    dist = (x, s + n - x, t + n - x, x + t_max - s - t)
    if min(dist) <= 0:
        return None
    num = -n * (n + t_max) + (s + n - x) * (t + n - x) + x * (t_max + x - s - t)
    return num / (2.0 * math.sqrt(dist[0] * dist[1] * dist[2] * dist[3]))


@functools.cache
def bulk_points() -> tuple[tuple[tuple[int, int], ...], ...]:
    """Grid points (GRID*t, GRID*x) of the deep bulk, split into T_STRATA bands of t."""
    n, s, t_max = SHAPE
    columns = []
    for a in range(t_max * GRID + 1):
        t = a / GRID
        column = []
        for b in range((s + n) * GRID + 1):
            x = b / GRID
            dist = (t, t_max - t, x, s + n - x, t + n - x, x + t_max - s - t)
            if min(dist) < EDGE_MARGIN:
                continue
            if abs(arccos_argument(n, s, t_max, t, x)) <= LIQUID_MARGIN:
                column.append((a, b))
        if column:
            columns.append(column)
    bands = [[] for _ in range(T_STRATA)]
    for k, column in enumerate(columns):
        bands[k * T_STRATA // len(columns)].extend(column)
    return tuple(tuple(band) for band in bands)


def check_limit(path: str) -> None:
    doc = _load_json(path)
    _require(doc.get("region") == "inside", f"region {doc.get('region')!r}, expected inside")
    _require(0 < doc.get("density", -1) < 1, "density outside (0, 1)")
    for key, residual in doc.get("duality_residuals", {}).items():
        _require(residual is None or abs(residual) < 1e-10, f"duality residual {key} = {residual}")
    rows = doc.get("convergence", [])
    _require([row["rho"] for row in rows] == [float(r) for r in RHOS], "convergence rows")
    errors = [row["max_error"] for row in rows]
    _require(all(a >= b for a, b in zip(errors, errors[1:])), f"max_error grows with rho: {errors}")
    for row in rows:
        _require(len(row["cells"]) == len(OFFSETS), f"rho={row['rho']}: {len(row['cells'])} cells")
        for cell in row["cells"].values():
            _require(math.isfinite(cell["prelimit"]) and math.isfinite(cell["limit"]),
                     "non-finite cell")


class LimitProbe:
    """Convergence of the finite kernel to the sine-kernel limit at scales 20, 40, 80."""

    name = "limit-probe"

    def op(self, seed: int, i: int) -> Op:
        a, b = _rng(self.name, seed, i).choice(bulk_points()[BAND_ORDER[i % T_STRATA]])
        regime = ",".join(map(str, SHAPE)) + f",{a / GRID:g},{b / GRID:g}"
        argv = ("limit", "--regime", regime, "--rhos", ",".join(map(str, RHOS)), "--out", "l.json")
        cells = len(RHOS) * len(OFFSETS)
        return Op((argv,), cells, cells, lambda: check_limit("l.json"))


WORKLOADS = {w.name: w for w in (SampleHot(), SampleCold(), KernelExact(), LimitProbe())}
