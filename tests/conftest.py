from __future__ import annotations

import os

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from hahn_paths import ModelParams

# Every run draws the same examples and keeps no example database, so a
# failure reproduces from the test alone.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
# Hypothesis also caches the constants it reads from the package's sources in
# its home directory.  A home that cannot hold a directory turns that cache
# off, so a run writes no .hypothesis/ directory.
set_hypothesis_home_dir(os.devnull)


def sweep_models(n_max: int = 3, t_max: int = 6) -> list[ModelParams]:
    """All models with N <= n_max, S <= T <= t_max."""
    return [
        ModelParams(n, s, t)
        for t in range(1, t_max + 1)
        for s in range(t + 1)
        for n in range(1, n_max + 1)
    ]


def small_sweep() -> list[ModelParams]:
    """A fast sweep used by unit tests; the acceptance suite runs the full one."""
    return sweep_models(2, 4)
