"""The Markov process of particle configurations: slice laws, transitions, sampling.

Slice distributions are squared-Vandermonde ensembles with the slice weight;
one-step transitions have an exact product form, and the transfer matrix
between consecutive slices a closed bidiagonal form.  The sampler
walks the move vectors depth-first, pruning a branch as soon as a path leaves
the next support or touches its neighbour (a step of weight <= 0 always leaves
the next support), so only admissible moves are built; each carries the integer
weight Delta(y) prod_i a_i(eps_i), and one 64-bit draw selects a move by an
integer comparison against the cumulative weights.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

from .combinatorics import ModelParams, Trajectory
from .errors import SamplerSizeError, TransitionRowSumError
from .hahn import pochhammer, slice_basis, slice_params
from .radicals import SignedSqrt

SAMPLER_MAX_PATHS = 20


def _vandermonde(z: tuple[int, ...]) -> int:
    """Delta(z), the product of z_j - z_i over i < j."""
    v = 1
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            v *= z[j] - z[i]
    return v


def _leading_coefficient(k: int, alpha: int, beta: int, M: int) -> Fraction:
    return Fraction(
        pochhammer(k + alpha + beta + 1, k),
        pochhammer(-M, k) * pochhammer(alpha + 1, k),
    )


@lru_cache(maxsize=1024)
def _normalization(model: ModelParams, t: int) -> Fraction:
    """Partition function of the slice-t ensemble, from the closed-form norms."""
    basis = slice_basis(model, t)
    p = basis.params
    if model.N > p.M + 1:
        raise ValueError(f"N={model.N} exceeds support size {p.M + 1} at t={t}")
    z = Fraction(1)
    for k in range(model.N):
        kappa = _leading_coefficient(k, p.alpha, p.beta, p.M)
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
    return Fraction(num, _vandermonde(x) * pochhammer(T - t, N))


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


@lru_cache(maxsize=1024)
def _transition_table(
    model: ModelParams, t: int, positions: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Admissible successors of ``positions`` and their cumulative integer weights.

    Successors come in eps-lexicographic order (eps_1 most significant, 0
    before 1).  The weight of y = x + eps is Delta(y) prod_i a_i(eps_i), with
    a_i(1) = N+S-x_i-1 and a_i(0) = x_i+T-t-S, so P(y | x) is the weight over
    the row total Delta(x) (T-t)_N, which the last cumulative weight must equal.
    """
    N, S, T = model.N, model.S, model.T
    nxt = slice_params(model, t + 1)
    lo, hi = nxt.support_lo, nxt.support_hi
    candidates = []
    cum = []
    total = 0

    def walk(y: tuple[int, ...], weight: int) -> None:
        nonlocal total
        i = len(y)
        if i == N:
            total += weight
            candidates.append(y)
            cum.append(total)
            return
        xi = positions[i]
        last = y[-1] if y else lo - 1
        for yi, a in ((xi, xi + T - t - S), (xi + 1, N + S - xi - 1)):
            if not last < yi <= hi:
                continue
            for yj in y:
                a *= yi - yj
            walk(y + (yi,), weight * a)

    walk((), 1)
    row = _vandermonde(positions) * pochhammer(T - t, N)
    if total != row:
        raise TransitionRowSumError(
            f"transition row sum {total} != {row} at t={t}, x={positions}"
        )
    return tuple(candidates), tuple(cum)


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
    positions = tuple(range(model.N))
    history = [positions]
    for t in range(model.T):
        candidates, cum = _transition_table(model, t, positions)
        positions = candidates[bisect_right(cum, (rng.getrandbits(64) * cum[-1]) >> 64)]
        history.append(positions)
    return Trajectory(model, tuple(history))
