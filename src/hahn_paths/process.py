"""The Markov process of particle configurations: slice laws, transitions, sampling.

Slice distributions are squared-Vandermonde ensembles with the slice weight;
one-step transitions have an exact product form, and the transfer matrix
between consecutive slices a closed bidiagonal form.  The sampler's
transition table from x is the product of one admissible hole per run of x,
from ``combinatorics.run_holes``, the successor rule the family counts also
use: at most prod_b |J_b| entries (a hole that puts a particle outside the
next support is left out; a step of weight <= 0 always does).  Each entry
carries the integer weight Delta(y) prod_i a_i(eps_i), built from one
factor per run and hole and the Vandermonde of the holes, and one 64-bit
draw selects a move by an integer comparison against the cumulative weights.
Built tables are kept in one store bounded by the number of weights it
holds, which drops its largest tables first when a new one takes it over
the budget; a step that finds its table there is one dict lookup, one
``bisect`` and one list index.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from math import gcd, perm, prod
from operator import floordiv, mul, sub

from .combinatorics import ModelParams, Successors, Trajectory, run_holes
from .errors import SamplerSizeError, TransitionRowSumError
from .hahn import slice_basis, slice_params
from .radicals import SignedSqrt

SAMPLER_MAX_PATHS = 20


def _vandermonde(z: tuple[int, ...]) -> int:
    """Delta(z), the product of z_j - z_i over i < j."""
    v = 1
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            v *= z[j] - z[i]
    return v


@lru_cache(maxsize=1024)
def _normalization(model: ModelParams, t: int) -> Fraction:
    """Partition function of the slice-t ensemble, prod_(k<N) n_k / kappa_k^2.

    Q_k's leading coefficient is kappa_k = (k+alpha+beta+1)_k / ((-M)_k (alpha+1)_k)
    in rising factorials; with s = T + 2N, a = -alpha-1 and the falling factorial
    u_(k) = u! / (u-k)!, kappa_k^2 = ((s-k-1)_(k) / (M_(k) a_(k)))^2.
    """
    basis = slice_basis(model, t)
    M, a, s = basis.params.M, -basis.params.alpha - 1, model.T + 2 * model.N
    z = Fraction(1)
    for k in range(model.N):
        kappa = Fraction(perm(s - k - 1, k), perm(M, k) * perm(a, k))
        z *= basis.norm2(k) / (kappa * kappa)
    return z


def _inside(model: ModelParams, t: int, z: tuple[int, ...]) -> bool:
    """Whether z lies in the time-t support; ValueError unless it is N increasing positions."""
    if len(z) != model.N:
        raise ValueError(f"configuration has {len(z)} points, expected {model.N}")
    if any(b <= a for a, b in zip(z, z[1:])):
        raise ValueError(f"configuration must be strictly increasing: {z}")
    support = slice_params(model, t).support
    return all(x in support for x in z)


def slice_distribution(model: ModelParams, t: int, z: tuple[int, ...]) -> Fraction:
    """Probability of the configuration z at time t, exactly."""
    z = tuple(z)
    if not _inside(model, t, z):
        return Fraction(0)
    basis = slice_basis(model, t)
    w_prod = Fraction(1)
    for x in z:
        w_prod *= basis.weight(x)
    return _vandermonde(z) ** 2 * w_prod / _normalization(model, t)


def _validate_config(model: ModelParams, t: int, z: tuple[int, ...]) -> None:
    if not _inside(model, t, z):
        raise ValueError(f"configuration {z} not inside the time-{t} support")


def transition_probability(
    model: ModelParams, t: int, x: tuple[int, ...], y: tuple[int, ...]
) -> Fraction:
    """One-step law P(H_{t+1} = y | H_t = x) in exact product form."""
    x, y = tuple(x), tuple(y)
    _validate_config(model, t, x)
    _validate_config(model, t + 1, y)
    N, S, T = model.N, model.S, model.T
    if any(d not in (0, 1) for d in (yi - xi for xi, yi in zip(x, y))):
        return Fraction(0)
    num = _vandermonde(y)
    for xi, yi in zip(x, y):
        if yi == xi + 1:
            num *= N + S - xi - 1
        else:
            num *= xi + T - t - S
    return Fraction(num, _vandermonde(x) * perm(T - t + N - 1, N))


def transfer_matrix(model: ModelParams, t: int, x: int, y: int) -> SignedSqrt:
    """Bidiagonal transfer-matrix entry v_{t,t+1}(x, y) in closed form."""
    N, S, T = model.N, model.S, model.T
    if not 0 <= t <= T - 1:
        raise ValueError(f"t={t} outside 0..{T - 1}")
    if x not in slice_params(model, t).support or y not in slice_params(model, t + 1).support:
        return SignedSqrt.zero()
    den = (t + N) * (T + N - t - 1)
    if y == x + 1:
        num = (S + N - x - 1) * (x + 1)
    elif y == x:
        num = (T - t - S + x) * (t + N - x)
    else:
        return SignedSqrt.zero()
    return SignedSqrt.sqrt(Fraction(num, den))


def _repeat_each(items, n: int):
    """Each item of ``items`` n times in a row."""
    return chain.from_iterable(zip(*[items] * n))


def _build_transition_table(
    model: ModelParams, t: int, positions: tuple[int, ...]
) -> tuple[Successors, tuple[int, ...]]:
    """Admissible successors of ``positions`` and their cumulative integer weights.

    Successors come in eps-lexicographic order (eps_1 most significant, 0
    before 1).  The weight of y = x + eps is Delta(y) prod_i a_i(eps_i), with
    a_i(1) = N+S-x_i-1 and a_i(0) = x_i+T-t-S, so P(y | x) is the weight over
    the row total Delta(x) (T-t)_N, which the last cumulative weight must equal.

    A run p..q-1 of x has the interval J = [p, q], and y meets J in J minus one
    hole h: the particles below h stay, the rest rise.  A hole is admissible
    when J minus h lies in the next support, so the table is the product of the
    runs' admissible holes, run by run from the bottom and, within a run, from
    h = q down to h = p.  Let U be the union of the J, H the chosen holes, Tops
    the q of the runs and Q(h) the product of |u - h| over u in U - {h}.  Then
    Delta(y) = Delta(U) Delta(H) / prod_H Q(h), and x itself has the holes
    Tops, so Delta(y) = Delta(x) Delta(H) / Delta(Tops) prod_b Q(q_b) / Q(h_b).
    Moving a hole from g to g + 1 multiplies Q by |bot(g)| / |top(g)|, with
    bot(g) = prod_c (g + 1 - p_c) and top(g) = prod_c (g - q_c), so the weight
    is Delta(x) / (Delta(Tops) prod_x |top(g)|) Delta(H) prod_b psi_b(h_b),
    where the integer psi_b(h) is the product over the run's particles g of
    a_g(0) |top(g)| below h and a_g(1) |bot(g)| from h on.
    """
    N, S, T = model.N, model.S, model.T
    nxt = slice_params(model, t + 1)
    runs, holes = run_holes(positions, nxt.support_lo, nxt.support_hi)
    starts = [p for p, _ in runs]
    tops = [q for _, q in runs]
    top = [abs(prod(map(sub, repeat(g), tops))) for g in positions]
    bot = [abs(prod(map(sub, repeat(g + 1), starts))) for g in positions]
    stay = [(g + T - t - S) * f for g, f in zip(positions, top)]
    rise = [(N + S - 1 - g) * f for g, f in zip(positions, bot)]
    spread = delta_x = _vandermonde(positions)
    scale = _vandermonde(tops) * prod(top)
    factors = []
    i = 0
    for (p, q), hs in zip(runs, holes):
        below = list(accumulate(stay[i : i + q - p], mul, initial=1))
        above = list(accumulate(reversed(rise[i : i + q - p]), mul, initial=1))
        i += q - p
        psi = [below[h - p] * above[q - h] for h in hs]
        g = gcd(*psi)
        if g > 1:
            psi = [f // g for f in psi]
            spread *= g
        factors.append(psi)
    g = gcd(spread, scale)
    spread //= g
    scale //= g

    # Breadth first over the runs: weights[k] for each choice k of holes in
    # the runs so far (mixed radix, the first run most significant) and, for
    # every later run c, tails[c][k n_c + j] = psi_c(h_j) times the product
    # of h_j - h over the holes h of k.
    weights = [spread]
    tails = factors
    for b, hs in enumerate(holes):
        weights = list(map(mul, _repeat_each(weights, len(hs)), tails[b]))
        for c in range(b + 1, len(holes)):
            us = holes[c]
            rows = list(zip(*[iter(tails[c])] * len(us)))
            gaps = [u - h for h in hs for u in us]
            tails[c] = list(
                map(mul, chain.from_iterable(_repeat_each(rows, len(hs))), gaps * len(rows))
            )
    cum = list(accumulate(weights))
    if scale != 1:
        cum = list(map(floordiv, cum, repeat(scale)))
    total = cum[-1] if cum else 0
    row = delta_x * perm(T - t + N - 1, N)
    if total != row:
        raise TransitionRowSumError(
            f"transition row sum {total} != {row} at t={t}, x={positions}"
        )
    return Successors(runs, holes), tuple(cum)


# Cumulative weights the transition-table store may hold.  Every state of the
# (4, 4, 8) model fits with room to spare, and a (10, 10, 20) run keeps its
# revisited tables near t = 0 and t = T, which hold a small share of its weights.
_TABLE_WEIGHT_BUDGET = 60_000

_StoreInfo = namedtuple("_StoreInfo", "hits misses currsize weights")


class _TransitionTables:
    """Transition tables keyed by (N, S, T, t, positions), bounded by the weights they hold.

    A call returns the cached table or builds it.  When a new table takes the
    held weights over ``_TABLE_WEIGHT_BUDGET``, the largest tables go first
    (the oldest among equal sizes), the new one included, until at most three
    quarters of the budget is held: the states a run meets again are mostly
    the small ones near t = 0 and t = T, while a large table in mid-time is
    rarely drawn twice.  Eviction decides only when a table is built, never
    what it holds, so the sampled stream does not depend on the budget.
    """

    def __init__(self):
        self.tables: dict[tuple, tuple[Successors, tuple[int, ...]]] = {}
        self.weights = self.hits = self.misses = 0
        # Bound here, not defined on the class: perfbench's sweep calls
        # cache_clear() on every attribute of this module that has one.
        self.cache_clear = self._clear

    def __call__(
        self, model: ModelParams, t: int, positions: tuple[int, ...]
    ) -> tuple[Successors, tuple[int, ...]]:
        key = (model.N, model.S, model.T, t, positions)
        table = self.tables.get(key)
        if table is not None:
            self.hits += 1
            return table
        table = self.tables[key] = _build_transition_table(model, t, positions)
        self.misses += 1
        self.weights += len(table[1])
        if self.weights > _TABLE_WEIGHT_BUDGET:
            floor = _TABLE_WEIGHT_BUDGET * 3 // 4
            sizes = sorted(self.tables.items(), key=lambda item: len(item[1][1]), reverse=True)
            for old, (_, cum) in sizes:
                if self.weights <= floor:
                    break
                del self.tables[old]
                self.weights -= len(cum)
        return table

    def cache_info(self) -> _StoreInfo:
        return _StoreInfo(self.hits, self.misses, len(self.tables), self.weights)

    def _clear(self) -> None:
        self.tables.clear()
        self.weights = self.hits = self.misses = 0


_transition_table = _TransitionTables()


def sample_trajectory(model: ModelParams, seed: int) -> Trajectory:
    """Draw one trajectory exactly from the uniform path-family measure.

    Reproducibility contract: the generator is Python's Mersenne Twister
    seeded with the given 64-bit integer; each step consumes exactly one
    64-bit draw r = getrandbits(64) and takes the first admissible move whose
    cumulative weight exceeds (r * D) >> 64, where D is the row total.  That
    is the first move whose exact CDF exceeds r / 2**64.  Identical seeds give
    identical trajectories on any platform.
    """
    if model.N > SAMPLER_MAX_PATHS:
        raise SamplerSizeError(
            f"exact sampler limited to N <= {SAMPLER_MAX_PATHS}, got N={model.N}"
        )
    rng = random.Random(seed)
    N, S, T = model.N, model.S, model.T
    positions = tuple(range(N))
    history = [positions]
    store = _transition_table
    held = store.tables.get
    misses = store.misses  # hits are counted once per trajectory, not per step
    for t in range(T):
        candidates, cum = held((N, S, T, t, positions)) or store(model, t, positions)
        i = bisect_right(cum, (rng.getrandbits(64) * cum[-1]) >> 64)
        positions = candidates.memo[i] or candidates[i]
        history.append(positions)
    store.hits += T - (store.misses - misses)
    return Trajectory(model, tuple(history))
