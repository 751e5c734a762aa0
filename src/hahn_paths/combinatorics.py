"""Exact counting and brute-force enumeration of non-intersecting path families.

The model: N monotone lattice paths on the (t, x) grid, path i running from
(0, i-1) to (T, S+i-1) with unit time steps that either stay level or rise
by one, never intersecting.  All counting is done in exact integer
arithmetic; the enumeration doubles as the probabilistic oracle every other
module is tested against.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
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
class Trajectory:
    """One family of N non-intersecting paths: positions[t] holds the N heights at time t."""

    model: ModelParams
    positions: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        model = self.model
        if len(self.positions) != model.T + 1:
            raise ValueError(
                f"trajectory has {len(self.positions)} times, expected t = 0..{model.T}"
            )
        for t, now in enumerate(self.positions):
            if len(now) != model.N:
                raise ValueError(f"{len(now)} positions at t={t}, expected N={model.N}")
            if any(b <= a for a, b in zip(now, now[1:])):
                raise ValueError(f"positions at t={t} must be strictly increasing: {now}")
        start = tuple(range(model.N))
        if self.positions[0] != start:
            raise ValueError(f"trajectory must start at {start}")
        for t in range(model.T):
            steps = zip(self.positions[t], self.positions[t + 1])
            if any(y - x not in (0, 1) for x, y in steps):
                raise ValueError(f"illegal step between t={t} and t={t + 1}")
        end = tuple(model.S + i for i in range(model.N))
        if self.positions[-1] != end:
            raise ValueError(f"trajectory must end at {end}")

    @classmethod
    def from_moves(cls, model: ModelParams, moves: Sequence[Sequence[int]]) -> Trajectory:
        """The family whose path i (0-based) starts at height i and takes moves[i]."""
        if len(moves) != model.N:
            raise ValueError(f"{len(moves)} paths, expected N={model.N}")
        for i, seq in enumerate(moves):
            if len(seq) != model.T:
                raise ValueError(f"path {i} has {len(seq)} steps, expected T={model.T}")
        heights = [accumulate(seq, initial=i) for i, seq in enumerate(moves)]
        return cls(model, tuple(zip(*heights)))

    def moves(self, i: int) -> tuple[int, ...]:
        """Per-step increments (0 = flat, 1 = up) of path i."""
        return tuple(b[i] - a[i] for a, b in zip(self.positions, self.positions[1:]))


def count_path_families(t1: int, a: list[int], t2: int, b: list[int]) -> int:
    """Number of non-intersecting families from heights a at t1 to b at t2.

    Computed as the determinant of binomial step counts, exactly; with zero
    steps the matrix is the identity exactly when a == b.
    """
    if len(a) != len(b):
        raise ValueError(f"endpoint lists differ in length: {len(a)} vs {len(b)}")
    if t2 < t1:
        raise ValueError(f"need t2 >= t1, got t1={t1}, t2={t2}")
    steps = t2 - t1
    matrix = [[binomial(steps, bi - aj) for aj in a] for bi in b]
    return det_bareiss(matrix)


def enumerate_path_families(model: ModelParams) -> list[Trajectory]:
    """Every path family, in lexicographic order over move sequences.

    The family's key is the time-major tuple of per-step move vectors; DFS
    over admissible move subsets visits keys in ascending order.  Raises
    EnumerationCapExceeded when the exact count is larger than the cap.
    """
    cap = int(os.environ.get(CAP_ENV_VAR, DEFAULT_ENUMERATION_CAP))
    total = model.family_count()
    if total > cap:
        raise EnumerationCapExceeded(f"{total} families exceeds cap {cap}")

    from .hahn import slice_params  # not at the top: hahn imports ModelParams from here

    N, T = model.N, model.T
    families: list[Trajectory] = []
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

    def dfs(t: int, history: list[tuple[int, ...]]) -> None:
        positions = history[-1]
        if t == T:
            families.append(Trajectory(model, tuple(history)))
            return
        for mv in move_vectors:
            if admissible(positions, mv, t + 1):
                history.append(tuple(p + m for p, m in zip(positions, mv)))
                dfs(t + 1, history)
                history.pop()

    dfs(0, [tuple(range(N))])
    return families


def check_query(model: ModelParams, query: list[tuple[int, int]]) -> None:
    """Raise ValueError unless the (x, t) points are distinct with t in 0..T."""
    if len(set(query)) != len(query):
        raise ValueError(f"query points must be distinct: {query}")
    for x, t in query:
        if not 0 <= t <= model.T:
            raise ValueError(f"query time {t} outside 0..{model.T}")


def share_through(families: list[Trajectory], query: list[tuple[int, int]]) -> Fraction:
    """Exact share of the families that pass through all (x, t) points."""
    if not query:
        return Fraction(1)
    hits = sum(all(x in fam.positions[t] for x, t in query) for fam in families)
    return Fraction(hits, len(families))


def oracle_correlation(model: ModelParams, query: list[tuple[int, int]]) -> Fraction:
    """Exact probability that the random family passes through all (x, t) points.

    Brute force over the full enumeration; the ground truth for every
    kernel-based computation on small instances.
    """
    check_query(model, query)
    return share_through(enumerate_path_families(model), query)
