"""Per-N timings of single layers on (N, N, 2N) models.

``run.py`` calls ``run_sweep`` in a fresh interpreter.  Each figure is the
median of a few repeats of one call through the public API:

- ``sampler_step_cold``: one trajectory drawn with the slice-basis and
  sampler caches cleared, so every step misses, divided by its T steps;
- ``slice_basis_build``: one uncached slice-basis build at t = N;
- ``extended_kernel_entry``: one exact kernel entry between t = N and
  t = N+2, after a first call has built and memoized what it needs;
- ``gauge_determinant``: gauge plus exact determinant of a 3-point query
  whose kernel matrix is already built;
- ``convergence_probe_row``: one probe row at rho = N for the regime
  (1, 1, 2, 1, 1), with the slice-basis and sampler caches cleared first.

``extended_sine_kernel`` does not depend on N and is timed once.
"""

from __future__ import annotations

import statistics
from time import perf_counter

SWEEP_N = (5, 10, 20, 40)
SAMPLER_N = (4, 8, 12)
REPEATS = 5


def _median_time(fn, repeats: int = REPEATS, before=None) -> float:
    times = []
    for _ in range(repeats):
        if before is not None:
            before()
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def _clear_caches(*modules) -> None:
    for module in modules:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


def run_sweep() -> dict[str, float]:
    from hahn_paths import bulk, hahn, kernels, process
    from hahn_paths.combinatorics import ModelParams

    out: dict[str, float] = {}
    for n in SAMPLER_N:
        model = ModelParams(n, n, 2 * n)
        out[f"sweep.sampler_step_cold.N{n}"] = _median_time(
            lambda: process.sample_trajectory(model, seed=n),
            repeats=3, before=lambda: _clear_caches(hahn, process)) / model.T

    build = getattr(hahn.slice_basis, "__wrapped__", hahn.slice_basis)
    regime = bulk.LimitRegime(1.0, 1.0, 2.0, 1.0, 1.0)
    offsets = [(dx, dt) for dx in range(-3, 4) for dt in range(-2, 3)]
    for n in SWEEP_N:
        model = ModelParams(n, n, 2 * n)
        out[f"sweep.slice_basis_build.N{n}"] = _median_time(lambda: build(model, n))
        p, q = (n, n + 2), (n - 1, n)
        kernels.extended_kernel(model, p, q)
        out[f"sweep.extended_kernel_entry.N{n}"] = _median_time(
            lambda: kernels.extended_kernel(model, p, q))
        query = kernels.CorrelationQuery(((n - 2, n - 2), (n, n), (n + 1, n + 3)))
        matrix = kernels.KernelMatrix.build(model, query)
        out[f"sweep.gauge_determinant.N{n}"] = _median_time(matrix.determinant)
        out[f"sweep.convergence_probe_row.N{n}"] = _median_time(
            lambda: bulk.convergence_probe(regime, offsets, [float(n)]),
            repeats=3, before=lambda: _clear_caches(hahn, process))
    params = bulk.limit_params(regime)
    out["sweep.extended_sine_kernel"] = _median_time(
        lambda: bulk.extended_sine_kernel(params, 1, 1), repeats=15)
    return out
