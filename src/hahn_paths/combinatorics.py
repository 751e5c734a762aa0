"""Exact counting of non-intersecting path families.

The model: N monotone lattice paths on the (t, x) grid, path i running from
(0, i-1) to (T, S+i-1) with unit time steps that either stay level or rise
by one, never intersecting.  All counting is done in exact integer
arithmetic.  A slice configuration splits into maximal runs of adjacent
particles, and each successor leaves one hole per run (``run_holes``); the
sampler weights these successors, and families are counted forward over
them, which is the probabilistic oracle every other module is tested against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, product
from math import comb, factorial, prod
from operator import lt, sub

from .errors import EnumerationCapExceeded

# Cost cap of the forward count, whose work is N T C(N + m, N) (see
# _forward).  A unit of work took 1.5-12.4 us over shapes with N from 1 to
# 100; with a query at t = 0 and t = T, whose pass repeats the whole count,
# (16, 4, 20), work 1.55e6, takes 19-26 s, and (8, 8, 16), work 1.65e6,
# 3.9-5.2 s (fresh processes, 2-vCPU VM, CPython 3.11).
ENUMERATION_MAX_WORK = 1_700_000


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

    def family_count(self) -> int:
        """MacMahon's box product for the (a, b, c) = (N, S, T - S) hexagon:
        prod_(i<a) i! (i+b+c)! / ((i+b)! (i+c)!)."""
        a, b, c = self.N, self.S, self.T - self.S
        num = den = 1
        for i in range(a):
            num *= factorial(i) * factorial(i + b + c)
            den *= factorial(i + b) * factorial(i + c)
        return num // den


@dataclass(frozen=True)
class Trajectory:
    """One family of N non-intersecting paths: positions[t] holds the N heights at time t.

    ``paths[i]`` holds the heights of path i at t = 0..T, the transpose of
    ``positions``; the checks run over these columns, and walk the times only
    to name the first t at which a failed check fails.
    """

    model: ModelParams
    positions: tuple[tuple[int, ...], ...]
    paths: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        model, positions = self.model, self.positions
        if len(positions) != model.T + 1:
            raise ValueError(
                f"trajectory has {len(positions)} times, expected t = 0..{model.T}"
            )
        paths = tuple(zip(*positions))
        if set(map(len, positions)) != {model.N} or not all(
            all(map(lt, lower, upper)) for lower, upper in zip(paths, paths[1:])
        ):
            for t, now in enumerate(positions):
                if len(now) != model.N:
                    raise ValueError(f"{len(now)} positions at t={t}, expected N={model.N}")
                if any(b <= a for a, b in zip(now, now[1:])):
                    raise ValueError(f"positions at t={t} must be strictly increasing: {now}")
        start = tuple(range(model.N))
        if positions[0] != start:
            raise ValueError(f"trajectory must start at {start}")
        if not all({0, 1}.issuperset(map(sub, path[1:], path)) for path in paths):
            for t in range(model.T):
                steps = zip(positions[t], positions[t + 1])
                if any(y - x not in (0, 1) for x, y in steps):
                    raise ValueError(f"illegal step between t={t} and t={t + 1}")
        end = tuple(model.S + i for i in range(model.N))
        if positions[-1] != end:
            raise ValueError(f"trajectory must end at {end}")
        object.__setattr__(self, "paths", paths)

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
        path = self.paths[i]
        return tuple(map(sub, path[1:], path))


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


def run_holes(positions: tuple[int, ...], lo: int, hi: int) -> tuple[tuple, tuple]:
    """The maximal runs p..q-1 of strictly increasing ``positions`` as intervals [p, q].

    With them, each run's holes h, from q down to p, such that [p, q] minus h,
    where the run's particles move, lies in the next support lo..hi.
    """
    runs = []
    p = prev = positions[0]
    for x in positions[1:]:
        if x <= prev:
            raise ValueError(f"configuration must be strictly increasing: {positions}")
        if x != prev + 1:
            runs.append((p, prev + 1))
            p = x
        prev = x
    runs.append((p, prev + 1))
    holes = tuple(
        tuple(h for h in range(q, p - 1, -1) if p + (h == p) >= lo and q - (h == q) <= hi)
        for p, q in runs
    )
    return tuple(runs), holes


class Successors(Sequence):
    """The successors y of a configuration, one hole per run, decoded on demand.

    Index i is the mixed-radix number whose digits pick one hole per run, the
    first run most significant; each decoded y is kept in ``memo``, so a
    sampler step that finds it there makes no Python call.
    """

    __slots__ = ("memo", "_runs", "_holes")

    def __init__(self, runs: tuple[tuple[int, int], ...], holes: tuple[tuple[int, ...], ...]):
        self._runs = runs
        self._holes = holes
        self.memo: list[tuple[int, ...] | None] = [None] * prod(len(h) for h in holes)

    def __len__(self) -> int:
        return len(self.memo)

    def __getitem__(self, i: int) -> tuple[int, ...]:
        y = self.memo[i]
        if y is None:
            i %= len(self.memo)
            rest, chosen = i, []
            for hs in reversed(self._holes):
                rest, d = divmod(rest, len(hs))
                chosen.append(hs[d])
            pieces = map(_run_rest, self._runs, reversed(chosen))
            y = self.memo[i] = tuple(chain.from_iterable(pieces))
        return y

    def __iter__(self):
        pieces = [[_run_rest(run, h) for h in hs] for run, hs in zip(self._runs, self._holes)]
        return map(tuple, map(chain.from_iterable, product(*pieces)))


def _run_rest(run: tuple[int, int], h: int) -> tuple[int, ...]:
    """The interval [p, q] of a run without its hole h."""
    p, q = run
    return (*range(p, h), *range(h + 1, q + 1))


def check_query(model: ModelParams, query: list[tuple[int, int]]) -> None:
    """Raise ValueError unless the (x, t) points are distinct with t in 0..T."""
    if len(set(query)) != len(query):
        raise ValueError(f"query points must be distinct: {query}")
    for x, t in query:
        if not 0 <= t <= model.T:
            raise ValueError(f"query time {t} outside 0..{model.T}")


def _forward(
    model: ModelParams, query=(), t0: int = 0, layer=None, t1: int | None = None
) -> list[dict]:
    """F_t0..F_t1, where F_t(z) counts the families from the start to z at time t.

    Only families through every query point at times up to t are counted.
    The pass starts from the start configuration at t0 = 0, or resumes from a
    given ``layer`` F_t0 that an earlier pass counted, and stops at t1 (by
    default T).  Raises
    EnumerationCapExceeded before any work when N T C(N + m, N), with
    m = min(S, T - S), is above the cap: the largest slice has N + m points,
    and C(N + m, k) >= 2^k for k = min(N, m).
    """
    m = min(model.S, model.T - model.S)
    k = min(model.N, m)
    cap = ENUMERATION_MAX_WORK
    if k > cap.bit_length() or model.N * model.T * comb(model.N + m, k) > cap:
        raise EnumerationCapExceeded(f"counting work N T C(N + {m}, N) exceeds the cap {cap}")

    from .hahn import slice_params  # not at the top: hahn imports ModelParams from here

    if layer is None:
        layer = {tuple(range(model.N)): 1}
    layers = []
    for t in range(t0, (model.T if t1 is None else t1) + 1):
        if t > t0:
            p = slice_params(model, t)
            counts: dict[tuple[int, ...], int] = {}
            for x, n in layer.items():
                for y in Successors(*run_holes(x, p.support_lo, p.support_hi)):
                    counts[y] = counts.get(y, 0) + n
            layer = counts
        need = {x for x, s in query if s == t}
        layer = {z: n for z, n in layer.items() if need.issubset(z)}
        layers.append(layer)
    return layers


def family_counts(model: ModelParams, query=()) -> tuple[int, list[dict[int, int]], int]:
    """(total, occupation, hits): all families, those through each (x, t), and through the query.

    ``occupation[t]`` maps each visited x, ascending, to its count.  The half
    turn (t, x) -> (T - t, S + N - 1 - x) maps the model to itself, so
    F_T-t(turned z) counts the families from z at time t to the end.  The
    query pass runs from the layer at its first time t0 to its last time t1,
    and the families through the query are the sum over z of its F_t1(z)
    times F_T-t1(turned z).  Raises ValueError for a query ``check_query``
    refuses, and EnumerationCapExceeded, before any work.
    """
    check_query(model, query)
    forward = _forward(model)
    total = sum(forward[-1].values())
    top = model.S + model.N - 1

    def onward(t: int, z: tuple[int, ...]) -> int:
        """The families from z at time t to the end."""
        return forward[model.T - t].get(tuple(top - x for x in reversed(z)), 0)

    occupation = []
    for t, layer in enumerate(forward):
        counts: dict[int, int] = {}
        for z, n in layer.items():
            n *= onward(t, z)
            if n:
                for x in z:
                    counts[x] = counts.get(x, 0) + n
        occupation.append(dict(sorted(counts.items())))
    if not query:
        return total, occupation, total
    times = [t for _, t in query]
    t0, t1 = min(times), max(times)
    last = _forward(model, query, t0, forward[t0], t1)[-1]
    return total, occupation, sum(n * onward(t1, z) for z, n in last.items())


def oracle_correlation(model: ModelParams, query: list[tuple[int, int]]) -> Fraction:
    """Exact probability that the random family passes through all (x, t) points.

    Counted forward; the ground truth for kernel computations on small models.
    """
    check_query(model, query)
    return Fraction(sum(_forward(model, query)[-1].values()), model.family_count())
