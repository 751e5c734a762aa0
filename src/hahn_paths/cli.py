"""Batch command-line interface: enumerate, kernel, sample, limit, render.

Outputs are machine-readable (JSON/CSV/SVG), deterministic for a fixed
(config, seed), and written atomically.  Exit codes: 0 ok, 2 input or
feasibility problem, 3 resource limit, 4 mathematical boundary signal or
failed invariant; each package error carries its code as ``exit_code``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from operator import sub

from .bulk import (
    LimitRegime,
    convergence_probe,
    ellipse_classify,
    limit_params,
    particle_hole_duality_residual,
    sine_kernel_static,
)
from .combinatorics import ModelParams, Trajectory, check_query, family_counts
from .errors import (
    FloatRangeError,
    HahnPathsError,
    PoleOnContourError,
    ResourceLimitError,
)
from .hahn import slice_params
from .kernels import CorrelationQuery, KernelMatrix, static_kernel
from .process import sample_trajectory
from .render import STYLES, render_svg

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT = 2

# Cost caps of `limit`: the sine-kernel table has 2 dmax + 1 entries, and a
# convergence-probe row costs about its model side rho max(N~, T~) squared, to
# within 12%: 2.6 s at side 2200 (regime 1,1,2,1,1, rho = 1100, fresh process) and
# 0.44 s at side 960 (2-vCPU VM, CPython 3.11).  The hypot of the rows' sides is capped.
LIMIT_MAX_DMAX = 10_000
LIMIT_MAX_SIDE = 2200

# Cost caps of `kernel`.  The side cap max(N, T) bounds the slice supports,
# and with them the time of a query: four points at four times near the
# centre of (n, n, 2n) take 0.7 s on (800, 800, 1600) and 2.6 s on
# (1600, 800, 1600).  Printing does not bound it: the report is formatted
# without Python's limit on int-to-string digits.  A --static-t matrix has
# support^2 entries, each about 1.4 us times N + T^2/10^4 (an N-term dot
# product, then rationals whose size grows with T); the work cap puts it near
# 22 s: (150, 150, 300) at t = 150, work 1.43e7, takes 17-20 s (fresh
# processes, 2-vCPU VM, CPython 3.11).
KERNEL_MAX_SIDE = 1600
KERNEL_MAX_STATIC_WORK = 16_000_000


def _atomic_write(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hahn-paths-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _atomic_write(out, text)


@contextmanager
def _unlimited_int_digits():
    """Lift Python's int-to-string digit limit (3.10.7+) while exact output is formatted."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda limit: None)
    set_limit(0)
    try:
        yield
    finally:
        set_limit(limit)


def _number(value, exact: bool) -> object:
    """Numeric JSON field; exact mode carries decimal and rational strings."""
    if exact and isinstance(value, (Fraction, int)):
        frac = Fraction(value)
        return {"decimal": float(frac), "rational": f"{frac.numerator}/{frac.denominator}"}
    return float(value)


def _float_or_null(value) -> float | None:
    """float(value), or None where it lies beyond the float range."""
    try:
        return float(value)
    except FloatRangeError:
        return None


def _parse_ints(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise ValueError(f"{what} needs {n} comma-separated values, got {text!r}")
    return tuple(int(p) for p in parts)


def _parse_pairs(text: str | None, what: str) -> list[tuple[int, int]]:
    """Comma-separated integer pairs "a:b,a:b,..."; none for an empty or absent flag."""
    if not text:
        return []
    pairs = []
    for chunk in text.split(","):
        a, _, b = chunk.partition(":")
        try:
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ValueError(f"{what} needs integer pairs a:b, got {chunk!r}") from None
    return pairs


def _resolve_model(args) -> ModelParams:
    if (args.model is None) == (args.hexagon is None):
        raise ValueError("exactly one of --model N,S,T or --hexagon a,b,c is required")
    if args.model is not None:
        n, s, t = _parse_ints(args.model, 3, "--model")
        return ModelParams(n, s, t)
    a, b, c = _parse_ints(args.hexagon, 3, "--hexagon")
    if a < 1 or b < 0 or c < 0:
        raise ValueError(f"hexagon sides out of range: {a},{b},{c}")
    return ModelParams(a, b, b + c)


def _model_json(model: ModelParams) -> dict:
    return {"N": model.N, "S": model.S, "T": model.T}


def _trajectory_to_runs(traj: Trajectory) -> list[str]:
    return list(map(_run_code, traj.paths))


# One entry per distinct path: the (4, 4, 8) model has at most 4 C(8, 4) = 280.
@lru_cache(maxsize=1024)
def _run_code(heights: tuple[int, ...]) -> str:
    """The path code of one path's heights: <count>F or <count>U per run of equal steps."""
    moves = tuple(map(sub, heights[1:], heights))
    encoded = []
    pos = 0
    while pos < len(moves):
        end = pos
        while end < len(moves) and moves[end] == moves[pos]:
            end += 1
        encoded.append(f"{end - pos}{'U' if moves[pos] else 'F'}")
        pos = end
    return "".join(encoded)


def _runs_to_trajectory(model: ModelParams, runs: list[str]) -> Trajectory:
    moves = []
    for text in runs:
        if not isinstance(text, str) or not re.fullmatch(r"(\d+[FU])*", text):
            raise ValueError(f"path code {text!r} is not a run of <count>F/<count>U")
        seq: list[int] = []
        for count, letter in re.findall(r"(\d+)([FU])", text):
            if len(seq) + int(count) > model.T:
                raise ValueError(f"path code {text!r} has more than T={model.T} steps")
            seq.extend([1 if letter == "U" else 0] * int(count))
        moves.append(tuple(seq))
    return Trajectory.from_moves(model, moves)


def cmd_enumerate(args) -> int:
    model = _resolve_model(args)
    exact = args.mode == "exact"
    query = _parse_pairs(args.query, "--query")
    check_query(model, query)
    total, occupation, hits = family_counts(model, query)
    marginals = {
        str(t): {str(x): _number(Fraction(c, total), exact) for x, c in counts.items()}
        for t, counts in enumerate(occupation)
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "enumerate",
        "model": _model_json(model),
        "mode": args.mode,
        "family_count": total,
        "slice_marginals": marginals,
    }
    if query:
        report["query"] = [{"x": x, "t": t} for x, t in query]
        report["oracle_correlation"] = _number(Fraction(hits, total), exact)
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_kernel(args) -> int:
    if args.format == "csv":
        # CSV holds only the static matrix: refuse before doing any work.
        if args.static_t is None:
            raise ValueError("csv output needs --static-t")
        if args.query is not None:
            raise ValueError("csv output holds only the static matrix; drop --query")
    model = _resolve_model(args)
    query = _parse_pairs(args.query, "--query")
    side = max(model.N, model.T)
    if side > KERNEL_MAX_SIDE:
        raise ResourceLimitError(
            f"model side max(N, T) = {side} exceeds the cap {KERNEL_MAX_SIDE}"
        )
    exact = args.mode == "exact"
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "kernel",
        "model": _model_json(model),
        "mode": args.mode,
    }
    csv_lines: list[str] = []
    if args.static_t is not None:
        t = args.static_t
        support = list(slice_params(model, t).support)
        work = len(support) ** 2 * (model.N + model.T**2 / 10_000)
        if work > KERNEL_MAX_STATIC_WORK:
            raise ResourceLimitError(
                f"--static-t work support^2 (N + T^2/10^4) = {work:.4g}"
                f" exceeds the cap {KERNEL_MAX_STATIC_WORK:.4g}"
            )
        floats = [[float(static_kernel(model, t, x, y)) for y in support] for x in support]
        report["static_t"] = t
        report["static_support"] = support
        report["static_kernel"] = floats
        # K is the projection onto N orthonormal functions, so its trace is N;
        # test_kernels checks the diagonal sum on every slice of small models.
        report["static_trace"] = _number(Fraction(model.N), exact)
        csv_lines.append("x\\y," + ",".join(str(y) for y in support))
        for x, row in zip(support, floats):
            csv_lines.append(f"{x}," + ",".join(map(repr, row)))
    if query:
        kmatrix = KernelMatrix.build(model, CorrelationQuery(tuple(query)))
        report["query"] = [{"x": x, "t": t} for x, t in query]
        # JSON has no infinity: an entry beyond the float range prints null.
        report["kernel_matrix"] = [[_float_or_null(v) for v in row] for row in kmatrix.entries]
        if exact:
            det = kmatrix.determinant()
            with _unlimited_int_digits():
                report["kernel_matrix_exact"] = [
                    [{"coeff": str(v.coeff), "radicand": str(v.radicand)} for v in row]
                    for row in kmatrix.entries
                ]
                report["correlation"] = _number(det, exact)
        else:
            rep = kmatrix.determinant_report()
            report["correlation"] = rep.value
            report["conditioning"] = {
                "min_pivot": rep.min_pivot,
                "max_pivot": rep.max_pivot,
                # JSON has no infinity: a zero pivot prints null.
                "condition_hint": rep.condition_hint if rep.min_pivot else None,
            }
    elif args.query is not None:
        report["correlation"] = _number(Fraction(1), exact)
    if args.format == "csv":
        _emit("\n".join(csv_lines) + "\n", args.out)
    else:
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    model = _resolve_model(args)
    if args.out is None:
        raise ValueError("--out is required for sample (it writes two files)")
    n = args.samples
    if n < 1:
        raise ValueError(f"--samples must be at least 1, got {n}")
    paths: Counter[tuple[int, ...]] = Counter()
    records = []
    for k in range(n):
        traj = sample_trajectory(model, seed=args.seed + k)
        records.append({"paths": _trajectory_to_runs(traj)})
        paths.update(traj.paths)
    counts: dict[int, dict[int, int]] = {t: {} for t in range(model.T + 1)}
    for heights, c in paths.items():
        for t, x in enumerate(heights):
            counts[t][x] = counts[t].get(x, 0) + c
    traj_path = args.out + ".trajectories.json"
    traj_doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "sample",
        "model": _model_json(model),
        "seed": args.seed,
        "count": n,
        "trajectories": records,
    }
    _atomic_write(traj_path, json.dumps(traj_doc, indent=2, sort_keys=True) + "\n")
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "sample",
        "model": _model_json(model),
        "mode": "exact",
        "seed": args.seed,
        "samples": n,
        "trajectory_file": traj_path,
        "empirical_density": {
            str(t): {str(x): c / n for x, c in sorted(cs.items())}
            for t, cs in counts.items()
        },
    }
    _emit(json.dumps(summary, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def cmd_limit(args) -> int:
    if args.dmax < 0:
        raise ValueError(f"--dmax must be at least 0, got {args.dmax}")
    values = [float(v) for v in args.regime.split(",")]
    if len(values) != 5:
        raise ValueError(f"--regime needs N,S,T,t,x, got {args.regime!r}")
    regime = LimitRegime(*values)
    rhos = [float(r) for r in args.rhos.split(",")] if args.rhos else []
    for rho in rhos:
        if not (math.isfinite(rho) and rho > 0):
            raise ValueError(f"--rhos scales must be finite and positive, got {rho}")
    if args.offsets is not None and not rhos:
        raise ValueError("--offsets needs --rhos, whose convergence table it sets")
    offsets = _parse_pairs(args.offsets, "--offsets") or [
        (dx, dt) for dx in range(-3, 4) for dt in range(-2, 3)
    ]
    if args.dmax > LIMIT_MAX_DMAX:
        raise ResourceLimitError(f"--dmax {args.dmax} exceeds the cap {LIMIT_MAX_DMAX}")
    side = math.hypot(*(rho * max(regime.Ntilde, regime.Ttilde) for rho in rhos))
    if side > LIMIT_MAX_SIDE:
        raise ResourceLimitError(f"--rhos sides combine to {side:g} over the cap {LIMIT_MAX_SIDE}")
    params = limit_params(regime)
    region = ellipse_classify(regime)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "limit",
        "regime": {
            "N": regime.Ntilde,
            "S": regime.Stilde,
            "T": regime.Ttilde,
            "t": regime.ttilde,
            "x": regime.xtilde,
        },
        "c": params.c,
        "phi": params.phi,
        "density": params.density,
        "region": region.value,
        "sine_kernel": {
            str(d): sine_kernel_static(params.phi, d)
            for d in range(-args.dmax, args.dmax + 1)
        },
    }
    residuals = {}
    for dx in range(-2, 3):
        for dt in (-2, 0, 2):
            try:
                residuals[f"{dx}:{dt}"] = particle_hole_duality_residual(params, dx, dt)
            except PoleOnContourError:
                residuals[f"{dx}:{dt}"] = None
    report["duality_residuals"] = residuals
    if rhos:
        table = convergence_probe(regime, offsets, rhos)
        report["convergence"] = [
            {
                "rho": row.rho,
                "model": _model_json(row.model),
                "t": row.t_base,
                "x": row.x_base,
                "x_repair": row.x_repair,
                "max_error": row.max_error,
                "cells": {
                    f"{dx}:{dt}": {"prelimit": cell.prelimit, "limit": cell.limit}
                    for (dx, dt), cell in ((c.offset, c) for c in row.cells)
                },
            }
            for row in table.rows
        ]
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _json_int(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def cmd_render(args) -> int:
    with open(args.trajectory) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or not isinstance(doc.get("model"), dict):
        raise ValueError('the trajectory document needs a "model" object')
    model = ModelParams(*(_json_int(doc["model"].get(k), f"model.{k}") for k in "NST"))
    records = doc.get("trajectories")
    if not isinstance(records, list):
        raise ValueError(f'"trajectories" must be a list, got {type(records).__name__}')
    if not 0 <= args.index < len(records):
        raise ValueError(f"trajectory index {args.index} outside 0..{len(records) - 1}")
    record = records[args.index]
    if not isinstance(record, dict) or not isinstance(record.get("paths"), list):
        raise ValueError(f'trajectory {args.index} needs a "paths" list')
    traj = _runs_to_trajectory(model, record["paths"])
    _emit(render_svg(traj, args.style), args.out)
    return EXIT_OK


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser; built once per process, as parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="hahn-paths",
        description="Non-intersecting lattice paths in a hexagon: exact laws, kernels, limits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, help_text: str, model: bool = False, mode: bool = False):
        # Abbreviations are off so that a removed flag such as `sample --mode`
        # is an error instead of a prefix of `--model`.
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if model:
            p.add_argument("--model", help="N,S,T path-model parameters")
            p.add_argument("--hexagon", help="a,b,c hexagon sides (maps to N=a, S=b, T=b+c)")
        if mode:
            p.add_argument("--mode", choices=("exact", "float"), default="exact")
        p.add_argument("--out", help="output path (default stdout)")
        return p

    p = add_command("enumerate", "exact counts, marginals, oracle correlations",
                    model=True, mode=True)
    p.add_argument("--query", help='space-time points "x:t,x:t,..."')

    p = add_command("kernel", "kernel values and correlation determinants",
                    model=True, mode=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--query", help='space-time points "x:t,x:t,..."')
    p.add_argument("--static-t", type=int, help="emit the static kernel matrix at this time")

    p = add_command("sample", "draw trajectories and empirical densities", model=True)
    p.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
    p.add_argument("--samples", type=int, default=1)

    p = add_command("limit", "bulk-limit kernel, frozen regions, convergence")
    p.add_argument("--regime", required=True, help='macroscopic "N,S,T,t,x"')
    p.add_argument("--rhos", help='scales "20,40,80" for the convergence table')
    p.add_argument("--offsets", help='offsets "dx:dt,..." (default |dx|<=3, |dt|<=2)')
    p.add_argument("--dmax", type=int, default=5, help="sine-kernel table half-width")

    p = add_command("render", "SVG picture of one sampled trajectory")
    p.add_argument("--trajectory", required=True, help="trajectory file from `sample`")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--style", choices=STYLES, default="rhombi")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so the handler is the module's current cmd_<name>.
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except HahnPathsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
