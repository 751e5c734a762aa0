"""Exact counting and brute-force enumeration of non-intersecting path families.

The model: N monotone lattice paths on the (t, x) grid, path i running from
(0, i-1) to (T, S+i-1) with unit time steps that either stay level or rise
by one, never intersecting.  All counting is done in exact integer
arithmetic; the enumeration doubles as the probabilistic oracle every other
module is tested against.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb

from .errors import EnumerationCapExceeded

DEFAULT_ENUMERATION_CAP = 10**6
CAP_ENV_VAR = "HAHN_PATHS_CAP"


def binomial(n: int, k: int) -> int:
    """C(n, k), defined as 0 outside 0 <= k <= n."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


def det_bareiss(matrix: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class ModelParams:
    """The integer triple (N, S, T): N paths, S rises per path, T time steps."""

    N: int
    S: int
    T: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")
        if not 0 <= self.S <= self.T:
            raise ValueError(f"need 0 <= S <= T, got S={self.S}, T={self.T}")

    @property
    def hexagon_sides(self) -> tuple[int, int, int]:
        """(a, b, c) sides of the hexagon tiled by the path family."""
        return (self.N, self.S, self.T - self.S)

    def family_count(self) -> int:
        starts = list(range(self.N))
        ends = [self.S + i for i in range(self.N)]
        return count_path_families(0, starts, self.T, ends)


@dataclass(frozen=True)
class Configuration:
    """Positions of the N particles at a single time."""

    t: int
    positions: tuple[int, ...]

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError(f"positions must be strictly increasing: {self.positions}")


@dataclass(frozen=True)
class PathFamily:
    """One realization of all N paths, as per-path move sequences (0=flat, 1=up)."""

    model: ModelParams
    moves: tuple[tuple[int, ...], ...]

    def height(self, i: int, t: int) -> int:
        """Height of path i (0-based) after t steps."""
        return i + sum(self.moves[i][:t])

    def configuration(self, t: int) -> Configuration:
        return Configuration(t, tuple(self.height(i, t) for i in range(self.model.N)))

    def validate(self) -> None:
        model = self.model
        if len(self.moves) != model.N:
            raise ValueError("wrong number of paths")
        for i, seq in enumerate(self.moves):
            if len(seq) != model.T:
                raise ValueError(f"path {i} has {len(seq)} steps, expected {model.T}")
            if any(step not in (0, 1) for step in seq):
                raise ValueError(f"path {i} has a step outside {{0, 1}}")
            if sum(seq) != model.S:
                raise ValueError(f"path {i} makes {sum(seq)} rises, expected {model.S}")
        for t in range(model.T + 1):
            heights = [self.height(i, t) for i in range(model.N)]
            if any(b <= a for a, b in zip(heights, heights[1:])):
                raise ValueError(f"paths intersect at t={t}")


def count_path_families(t1: int, a: list[int], t2: int, b: list[int]) -> int:
    """Number of non-intersecting families from heights a at t1 to b at t2.

    Computed as the determinant of binomial step counts, exactly.
    """
    if len(a) != len(b):
        raise ValueError(f"endpoint lists differ in length: {len(a)} vs {len(b)}")
    if t2 <= t1:
        raise ValueError(f"need t2 > t1, got t1={t1}, t2={t2}")
    steps = t2 - t1
    matrix = [[binomial(steps, bi - aj) for aj in a] for bi in b]
    return det_bareiss(matrix)


def _resolve_cap(cap: int | None) -> int:
    if cap is not None:
        return cap
    env = os.environ.get(CAP_ENV_VAR)
    if env is not None:
        return int(env)
    return DEFAULT_ENUMERATION_CAP


def enumerate_path_families(model: ModelParams, cap: int | None = None) -> list[PathFamily]:
    """Every valid PathFamily, in lexicographic order over move sequences.

    The family's key is the time-major tuple of per-step move vectors; DFS
    over admissible move subsets visits keys in ascending order.  Raises
    EnumerationCapExceeded when the exact count is larger than the cap.
    """
    cap = _resolve_cap(cap)
    total = model.family_count()
    if total > cap:
        raise EnumerationCapExceeded(f"{total} families exceeds cap {cap}")

    from .hahn import slice_params  # not at the top: hahn imports ModelParams from here

    N, T = model.N, model.T
    families: list[PathFamily] = []
    move_vectors = list(product((0, 1), repeat=N))
    params = (slice_params(model, t) for t in range(T + 1))
    bounds = [(p.support_lo, p.support_hi) for p in params]

    def admissible(positions: tuple[int, ...], mv: tuple[int, ...], t_next: int) -> bool:
        lo, hi = bounds[t_next]
        prev = lo - 1
        for i in range(N):
            x = positions[i] + mv[i]
            if not prev < x <= hi:
                return False
            prev = x
        return True

    def dfs(t: int, positions: tuple[int, ...], history: list[tuple[int, ...]]) -> None:
        if t == T:
            per_path = tuple(tuple(step[i] for step in history) for i in range(N))
            families.append(PathFamily(model, per_path))
            return
        for mv in move_vectors:
            if admissible(positions, mv, t + 1):
                history.append(mv)
                dfs(t + 1, tuple(p + m for p, m in zip(positions, mv)), history)
                history.pop()

    dfs(0, tuple(range(N)), [])
    return families


def oracle_correlation(
    model: ModelParams, query: list[tuple[int, int]], cap: int | None = None
) -> Fraction:
    """Exact probability that the random family passes through all (x, t) points.

    Brute force over the full enumeration; the ground truth for every
    kernel-based computation on small instances.
    """
    if len(set(query)) != len(query):
        raise ValueError(f"query points must be distinct: {query}")
    for x, t in query:
        if not 0 <= t <= model.T:
            raise ValueError(f"query time {t} outside 0..{model.T}")
    families = enumerate_path_families(model, cap=cap)
    if not query:
        return Fraction(1)
    hits = 0
    by_time: dict[int, list[int]] = {}
    for x, t in query:
        by_time.setdefault(t, []).append(x)
    for fam in families:
        ok = True
        for t, xs in by_time.items():
            positions = fam.configuration(t).positions
            if any(x not in positions for x in xs):
                ok = False
                break
        if ok:
            hits += 1
    return Fraction(hits, len(families))


def oracle_tables(
    model: ModelParams, cap: int | None = None
) -> tuple[int, Counter, Counter]:
    """One enumeration pass giving all 1-point and 2-point occupation counts.

    Returns (family_count, singles, pairs) where singles[(x, t)] counts the
    families through (x, t) and pairs[frozenset-free ordered pair] counts
    families through both points of each unordered pair (keyed by the sorted
    pair of (x, t) tuples).
    """
    families = enumerate_path_families(model, cap=cap)
    singles: Counter = Counter()
    pairs: Counter = Counter()
    for fam in families:
        points = [
            (x, t)
            for t in range(model.T + 1)
            for x in fam.configuration(t).positions
        ]
        singles.update(points)
        pairs.update(combinations(sorted(points), 2))
    return len(families), singles, pairs
