#!/usr/bin/env python3
"""Benchmark of the hahn-paths CLI, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kernel-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Load shape: a closed loop with one client and one thread.  The process that
runs this script is a fresh interpreter, so the package's module-level caches
start cold, as they do for a CLI user; within a run the ops share the process,
as a batch job would.  An op is one request of the workload: one or two
``hahn_paths.cli.main(argv)`` calls with argv generated from ``--seed``,
followed by a check of what they wrote.  Only the time inside ``cli.main`` is
timed.  A run does a fixed number of ops, ``--seconds`` times the workload's
rate in OPS_PER_SECOND, so one seed always does identical work (the record's
argv digest shows it) and the caches reach the same state whatever the
machine's speed.  A run whose op time exceeds three times ``--seconds`` stops
early; its record shows how many ops it did.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` instead runs the first 30% of those ops with every public
layer wrapped by ``perfbench.tracing``, replays them untraced in a fresh
interpreter to get the tracing overhead, runs the per-N layer sweep
(``perfbench.sweep``) in another fresh interpreter, and reports the per-layer
metrics.  Spans go to ``.perfbench/`` in the checkout.

The last line of standard output is the JSON result; the line before it is
the run's reproducibility record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 21
CHILD_TIMEOUT_S = 170

# Ops per second of --seconds, so that a run's op time is about --seconds on a
# 2-core x86-64 VM with CPython 3.11.  limit-probe's 16 ops per 20 s visit each
# of its 16 bands of t once.
OPS_PER_SECOND = {
    "sample-hot": 55.0,
    "sample-cold": 8.0,
    "kernel-exact": 36.0,
    "limit-probe": 0.8,
}
TRACED_SHARE = 0.3
TIME_CAP = 3.0


def declared_units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed child)."""


def load_package():
    """Import the CLI from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hahn_paths", "cli.py")):
        raise BenchError(f"no hahn_paths sources under {SRC}")
    sys.path[:0] = [p for p in (SRC, ROOT) if p not in sys.path]
    import hahn_paths
    from hahn_paths import cli

    if os.path.dirname(os.path.abspath(hahn_paths.__file__)) != os.path.join(SRC, "hahn_paths"):
        raise BenchError(f"hahn_paths imported from {hahn_paths.__file__}, not {SRC}")
    return cli


def commit_id() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


@contextlib.contextmanager
def work_dir():
    """Run the enclosed ops inside a fresh directory under .perfbench/, then delete it."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)


def op_count(workload, seconds: int, max_ops: int | None, share: float = 1.0) -> int:
    count = max(1, round(seconds * OPS_PER_SECOND[workload.name] * share))
    return count if max_ops is None else min(count, max_ops)


def run_ops(workload, seed: int, n_ops: int, time_cap: float, tracer=None) -> dict:
    """Closed loop over the workload's first ops; returns timings, units and failures."""
    from hahn_paths import cli

    from perfbench.workloads import CheckError

    times: list[float] = []
    units = entries = failed = 0
    messages: list[str] = []
    digest = hashlib.sha256()
    stream = hashlib.sha256()
    busy = 0.0
    with work_dir():
        while len(times) < n_ops and busy < time_cap:
            i = len(times)
            op = workload.op(seed, i)
            encoded = json.dumps(op.argvs).encode()
            digest.update(encoded)
            if i < 16:
                stream.update(encoded)
            if tracer is not None:
                tracer.op = i
            elapsed = 0.0
            error = None
            for argv in op.argvs:
                start = perf_counter()
                try:
                    code = cli.main(list(argv))
                except (Exception, SystemExit) as exc:  # any escape is a failed op
                    code = f"{type(exc).__name__}: {exc}"
                elapsed += perf_counter() - start
                if code != 0:
                    error = f"{argv[0]} returned {code}"
                    break
            if error is None:
                try:
                    op.check()
                except CheckError as exc:
                    error = f"check: {exc}"
            times.append(elapsed)
            busy += elapsed
            if error is None:
                units += op.units
                entries += op.entries
            else:
                failed += 1
                if len(messages) < 5:
                    messages.append(f"op {i} {op.argvs}: {error}")
    return {
        "times": times,
        "busy": busy,
        "units": units,
        "entries": entries,
        "failed": failed,
        "messages": messages,
        "argv_digest": digest.hexdigest(),
        "stream_digest": stream.hexdigest(),
    }


def verify_oracle(workload, seed: int) -> tuple[int, int, list[str]]:
    """Untimed: small-model kernel queries through the CLI against the oracle."""
    if not hasattr(workload, "oracle_ops"):
        return 0, 0, []
    from hahn_paths import cli
    from hahn_paths.combinatorics import ModelParams, oracle_correlation

    from perfbench.workloads import CheckError, read_correlation

    attempted = failed = 0
    messages = []
    model = ModelParams(*workload.oracle_model)
    with work_dir():
        for argv, points in workload.oracle_ops(seed):
            attempted += 1
            try:
                if cli.main(list(argv)) != 0:
                    raise CheckError("nonzero exit")
                got = read_correlation("k.json", points)
                want = oracle_correlation(model, points)
                if got != want:
                    raise CheckError(f"{got} != oracle {want}")
            except (Exception, SystemExit) as exc:  # CheckError or any escape
                failed += 1
                messages.append(f"oracle {points}: {exc}")
    return attempted, failed, messages


def measure_setup(workload: str, seed: int) -> float:
    """Median time from spawning a fresh interpreter to its first op being ready."""
    probe = os.path.join(ROOT, "perfbench", "setup_probe.py")
    times = []
    for repeat in range(SETUP_REPEATS + 1):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, probe, workload, str(seed)],
            stdout=subprocess.PIPE, cwd=ROOT, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=CHILD_TIMEOUT_S)
        if line != "ready\n" or code != 0:
            raise BenchError(f"set-up probe failed with exit code {code}")
        if repeat:  # the first spawn only warms the page cache and bytecode files
            times.append(ready - start)
    return statistics.median(times)


def run_child(args: list[str]) -> dict:
    """Run this script in a fresh interpreter and return its last JSON line."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, seed: int, seconds: float, max_ops: int | None) -> tuple[dict, dict]:
    load_package()
    setup = measure_setup(workload.name, seed)
    ran = run_ops(workload, seed, op_count(workload, seconds, max_ops), TIME_CAP * seconds)
    rss = peak_rss_mb()
    times = ran["times"]
    values = {
        "throughput": ran["units"] / ran["busy"] if ran["busy"] > 0 else 0.0,
        "op_p50_s": statistics.median(times),
        "op_p90_s": percentile(times, 90),
        "setup_s": setup,
        "peak_rss_mb": rss,
    }
    return values, ran


def layer_metrics(tracer, ran: dict, untraced_busy: float, sweep: dict) -> dict:
    from hahn_paths import hahn, process

    stats = tracer.stats
    values: dict[str, float] = {}

    def put(prefix: str, *fields: str) -> None:
        stat = stats[prefix]
        for field in fields:
            values[f"{prefix}.{field}"] = {
                "calls": stat.calls, "busy_s": stat.busy, "self_s": stat.self_time,
            }[field]

    put("cli.main", "calls", "busy_s")
    values["cli.self_s"] = stats["cli.main"].self_time
    put("render.render_svg", "calls", "busy_s")
    put("process.sample_trajectory", "calls", "busy_s")
    table = getattr(process, "_transition_table", None)
    info = table.cache_info() if hasattr(table, "cache_info") else None
    hits, misses = (info.hits, info.misses) if info else (0, 0)
    values["process.transition_table.hits"] = hits
    values["process.transition_table.misses"] = misses
    values["process.transition_table.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["process.transition_table.entries"] = info.currsize if info else 0
    put("process.transition_probability", "calls", "busy_s")
    put("process.coupling_coefficient_sq", "calls", "busy_s")
    basis = stats["hahn.slice_basis"]
    cached = hasattr(hahn.slice_basis, "cache_info")
    values["hahn.slice_basis.calls"] = basis.calls
    values["hahn.slice_basis.misses"] = basis.misses if cached else basis.calls
    values["hahn.slice_basis.build_s"] = basis.build if cached else basis.busy
    put("hahn.hahn_q", "calls", "busy_s")
    put("radicals.SignedSqrt.add", "calls", "busy_s")
    put("radicals.sqrt_fraction", "calls", "busy_s")
    put("kernels.extended_kernel", "calls", "busy_s", "self_s")
    put("kernels.KernelMatrix.build", "busy_s")
    put("kernels.KernelMatrix.determinant", "calls", "busy_s")
    put("kernels.gauged_extended_kernel", "calls")
    evals = stats["kernels.extended_kernel"].calls
    values["kernels.entry_evals_per_entry"] = evals / ran["entries"] if ran["entries"] else 0.0
    put("bulk.convergence_probe", "busy_s")
    put("bulk.extended_sine_kernel", "calls", "busy_s")
    put("bulk.particle_hole_duality_residual", "busy_s")
    put("combinatorics.det_bareiss", "calls")
    put("combinatorics.enumerate_path_families", "calls")
    values["trace.overhead_ratio"] = ran["busy"] / untraced_busy if untraced_busy > 0 else 0.0
    values.update(sweep)
    return values


def per_layer(workload, seed: int, seconds: float, max_ops: int | None,
              tracer) -> tuple[dict, dict]:
    """A fixed number of traced ops, their untraced replay, and the layer sweep."""
    load_package()
    n_ops = op_count(workload, seconds, max_ops, TRACED_SHARE)
    tracer.install()
    try:
        ran = run_ops(workload, seed, n_ops, TIME_CAP * seconds, tracer)
    finally:
        tracer.uninstall()
    replay = run_child(["--workload", workload.name, "--seed", str(seed), "--seconds",
                        str(seconds), "--max-ops", str(len(ran["times"])), "--child", "replay"])
    sweep = run_child(["--child", "sweep"])
    return layer_metrics(tracer, ran, replay["busy"], sweep), ran


def write_trace(record: dict, tracer) -> None:
    """All spans and per-function totals of a traced run, with its record."""
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{record['workload']}-seed{record['seed']}.json")
    doc = {
        "record": record,
        "spans": {"fields": ["name", "start", "end", "parent", "op"], "rows": tracer.spans},
        "stats": {name: {"calls": s.calls, "busy_s": s.busy, "self_s": s.self_time}
                  for name, s in tracer.stats.items()},
    }
    with open(path, "w") as handle:
        json.dump(doc, handle)


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload, each in its own fresh interpreter, printed as a table."""
    from perfbench.workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        result = run_child(["--workload", name, "--seed", str(seed), "--seconds",
                            str(seconds), "--trace", str(trace)])
        for key in ("attempted", "failed"):
            combined[key] += result[key]
        combined["correct"] = combined["correct"] and result["correct"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
            print(f"{name:14} {metric:42} {entry['value']:>14.6g} {entry['unit']}")
        print(f"{name:14} {'fail_ratio':42} {result['failed'] / result['attempted']:>14.6g} ratio")
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=False)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, help="stop after this many ops (tiny runs)")
    parser.add_argument("--child", choices=("replay", "sweep"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    loadavg = os.getloadavg()
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS

    if args.child == "sweep":
        load_package()
        from perfbench.sweep import run_sweep

        print(json.dumps(run_sweep()))
        return 0
    if args.workload == "all":
        load_package()
        return run_all(args.seed, args.seconds, args.trace)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    workload = WORKLOADS[args.workload]
    if args.child == "replay":
        load_package()
        ran = run_ops(workload, args.seed, args.max_ops, TIME_CAP * args.seconds)
        print(json.dumps({"busy": ran["busy"], "failed": ran["failed"], "ops": len(ran["times"])}))
        return 0

    if args.trace:
        from perfbench.tracing import Tracer

        tracer = Tracer()
        values, ran = per_layer(workload, args.seed, args.seconds, args.max_ops, tracer)
    else:
        values, ran = end_to_end(workload, args.seed, args.seconds, args.max_ops)
    checked, wrong, oracle_messages = verify_oracle(workload, args.seed)
    attempted = len(ran["times"]) + checked
    failed = ran["failed"] + wrong
    values["fail_ratio"] = failed / attempted
    for message in ran["messages"] + oracle_messages:
        print(message, file=sys.stderr)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ran["times"]),
        "argv_digest": ran["argv_digest"],
        "first16_argv_digest": ran["stream_digest"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "loadavg_start": loadavg,
    }
    if args.trace:
        write_trace(record, tracer)
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
