"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run, workloads  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _result(args: list[str]) -> dict:
    proc = subprocess.run([sys.executable, RUN, *args], capture_output=True, text=True,
                          cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_reports(result: dict, kind: str) -> None:
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert set(NAMES) == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + NAMES
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_emits_every_end_to_end_metric(name):
    result = _result(["--workload", name, "--seed", "5", "--seconds", "1", "--trace", "0",
                      "--max-ops", "2"])
    _assert_reports(result, "end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_emits_every_per_layer_metric(name):
    result = _result(["--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1",
                      "--max-ops", "2"])
    _assert_reports(result, "per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["combinatorics.enumerate_path_families.calls"] == 0
    assert metrics["combinatorics.det_bareiss.calls"] == 0
    assert metrics["trace.overhead_ratio"] > 0
    assert metrics["cli.self_s"] <= metrics["cli.main.busy_s"]
    if name == "kernel-exact":
        assert metrics["kernels.entry_evals_per_entry"] > 0


def test_runs_with_one_seed_do_identical_work():
    for name, workload in workloads.WORKLOADS.items():
        first = [workload.op(7, i).argvs for i in range(6)]
        assert first == [workload.op(7, i).argvs for i in range(6)]
        assert first != [workload.op(8, i).argvs for i in range(6)], name


def test_generated_inputs_stay_inside_their_domains():
    n, s, t_max = workloads.KernelExact.model
    for i in range(40):
        points = workloads.kernel_query(workloads._rng("t", 1, i), (n, s, t_max), 1 + i % 4)
        assert len({t for _, t in points}) == len(points)
        for x, t in points:
            lo, hi = workloads.support(n, s, t_max, t)
            assert lo <= x <= hi
    shape = workloads.SHAPE
    bands = workloads.bulk_points()
    assert len(bands) == workloads.T_STRATA and all(bands)
    for a, b in (p for band in bands for p in band):
        d_value = workloads.arccos_argument(*shape, a / workloads.GRID, b / workloads.GRID)
        assert abs(d_value) <= workloads.LIQUID_MARGIN
        for rho in workloads.RHOS:
            model = tuple(rho * v for v in shape)
            t0, x0 = a * rho // workloads.GRID, b * rho // workloads.GRID
            for dx, dt in workloads.OFFSETS:
                lo, hi = workloads.support(*model, t0)
                assert lo <= x0 + dx <= hi
                lo, hi = workloads.support(*model, t0 + dt)
                assert 0 <= t0 + dt <= model[2] and lo <= x0 <= hi


def test_trajectory_check_rejects_collisions():
    model = (2, 1, 2)
    workloads.check_trajectory(model, ["1F1U", "1U1F"])
    with pytest.raises(workloads.CheckError):
        workloads.check_trajectory(model, ["1U1F", "1F1U"])  # path 0 catches path 1
    with pytest.raises(workloads.CheckError):
        workloads.check_trajectory(model, ["2U", "2F"])


def _corrupt_number(value, exact):
    return {"decimal": 0.25, "rational": "1/3"}


def _corrupt_runs(traj):
    return ["1U" * traj.model.T] * traj.model.N


@pytest.mark.parametrize("name, attr, fake", [
    ("kernel-exact", "_number", _corrupt_number),
    ("sample-hot", "_trajectory_to_runs", _corrupt_runs),
    ("sample-cold", "_trajectory_to_runs", _corrupt_runs),
])
def test_corrupted_output_counts_as_failure(monkeypatch, name, attr, fake):
    cli = run.load_package()
    monkeypatch.setattr(cli, attr, fake)
    ran = run.run_ops(workloads.WORKLOADS[name], 3, 2, 60.0)
    assert ran["failed"] == len(ran["times"]) == 2
    assert ran["units"] == 0


def test_oracle_check_counts_wrong_correlations(monkeypatch):
    cli = run.load_package()
    monkeypatch.setattr(cli, "_number", lambda value, exact: {"decimal": 0.0, "rational": "0/1"})
    attempted, failed, _ = run.verify_oracle(workloads.WORKLOADS["kernel-exact"], 3)
    assert attempted == workloads.KernelExact.oracle_queries
    assert 0 < failed <= attempted


def test_limit_check_rejects_growing_error(tmp_path):
    doc = {"region": "inside", "density": 0.5, "duality_residuals": {"0:0": 0.0},
           "convergence": [{"rho": float(r), "max_error": e, "cells": {}}
                           for r, e in zip(workloads.RHOS, (0.1, 0.2, 0.05))]}
    path = tmp_path / "l.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(workloads.CheckError, match="grows"):
        workloads.check_limit(str(path))


def test_tracer_restores_originals_and_counts_recursion_once():
    run.load_package()
    from hahn_paths import bulk, kernels, radicals

    originals = (kernels.sqrt_fraction, radicals.sqrt_fraction, radicals.SignedSqrt.__add__,
                 bulk.particle_hole_duality_residual)
    tracer = Tracer()
    tracer.install()
    try:
        assert kernels.sqrt_fraction is radicals.sqrt_fraction is not originals[0]
        # c > 1 recurses once through the inversion transform.
        bulk.particle_hole_duality_residual(bulk.LimitKernelParams(2.0, 1.0), 1, 0)
    finally:
        tracer.uninstall()
    assert (kernels.sqrt_fraction, radicals.sqrt_fraction, radicals.SignedSqrt.__add__,
            bulk.particle_hole_duality_residual) == originals
    stat = tracer.stats["bulk.particle_hole_duality_residual"]
    spans = [s for s in tracer.spans if s[0] == "bulk.particle_hole_duality_residual"]
    assert stat.calls == 2 and len(spans) == 2
    outer = max(spans, key=lambda s: s[2] - s[1])
    assert stat.busy == pytest.approx(outer[2] - outer[1])
    inner = min(spans, key=lambda s: s[2] - s[1])
    assert inner[3] == tracer.spans.index(outer)
    assert 0 <= stat.self_time <= stat.busy


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sample-hot",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
