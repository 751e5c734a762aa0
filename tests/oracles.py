"""Reference implementations that the tests compare the library against.

Each function here computes a quantity a second way, independently of the
path the library takes: the terminating Hahn series and the signed
Pochhammer weight, closed-form norms and leading coefficients, with their
negative parameters, against the recurrence columns and the library's norms
in factorials of non-negative integers, the classical
identities of the slice polynomials, recurrence columns stepped in
Fractions and in reduced integer pairs, and kernel pair tables and per-slice
radical factors stepped in Fractions, against the library's integers over a
running least common denominator, the Eynard-Mehta kernel over binomial
transitions, which shares nothing with the Hahn path, the rounding of an
exact root from its reduced square, the four-case table of slice
parameters against ``slice_params``'s closed form, the determinantal
transition law, the particle-by-particle walk
of the sampler's transition tables and the coupled transfer series, the
limiting difference operator and the tangency of the inscribed ellipse, a
gauge conjugation of kernel matrices, the brute-force listing of every
path family by a depth-first walk over move vectors, against the forward
count over run-hole successors, the hexagon's family count as an N x N
determinant of binomial step counts, against MacMahon's box product,
occupation tables from one pass over that listing, the trajectory checks
and path codes read time by time and point by point, against the
library's path columns, and quadrature of the arc integrals that
``bulk.arc_integral`` evaluates in closed form.  For the quadrature,
adaptive Simpson serves short offsets; composite Gauss-Legendre, one panel
per oscillation, serves offsets in the thousands, where the adaptive oracle
runs out of panels.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import Counter
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from math import cos, pi

from hahn_paths import (
    BoundaryRegimeError,
    DegenerateParameterError,
    FloatRangeError,
    IncompatibleRadicalsError,
    KernelMatrix,
    LimitRegime,
    ModelParams,
    Side,
    SignedSqrt,
    Trajectory,
    TransitionRowSumError,
    slice_params,
)
from hahn_paths import hahn as hahn_module
from hahn_paths.combinatorics import count_path_families, det_bareiss
from hahn_paths.hahn import _recurrence_coefficients, _reduced, slice_basis
from hahn_paths.process import _validate_config, _vandermonde
from hahn_paths.radicals import sqrt_fraction

# -- arc quadrature ----------------------------------------------------------

QUAD_TOL = 1e-12
QUAD_PANEL_CAP = 2**20
IMAG_REL_TOL = 1e-10
IMAG_ABS_FLOOR = 1e-12
GAUSS_ORDER = 20


class QuadratureError(Exception):
    """An arc quadrature ran out of panels or left an imaginary residue too large."""


def _adaptive_simpson(f, a: float, b: float, tol: float, oscillations: int = 0) -> complex:
    """Adaptive Simpson quadrature of a complex-valued smooth integrand.

    ``oscillations`` pre-splits the interval so that periodic integrands are
    sampled well inside each period; the initial coarse samples of a plain
    adaptive pass can alias an oscillatory integrand to a constant.
    """

    def simpson(x0, f0, x2, f2, x1, f1):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    n_init = 4 * oscillations + 5
    edges = [a + (b - a) * k / n_init for k in range(n_init + 1)]
    panels = 0
    total = 0.0 + 0.0j
    stack = []
    for lo, hi in zip(edges, edges[1:]):
        mid = 0.5 * (lo + hi)
        stack.append((lo, f(lo), hi, f(hi), mid, f(mid), tol / n_init))
    while stack:
        x0, f0, x2, f2, x1, f1, budget = stack.pop()
        panels += 1
        if panels > QUAD_PANEL_CAP:
            raise QuadratureError(f"quadrature panel budget {QUAD_PANEL_CAP} exhausted")
        whole = simpson(x0, f0, x2, f2, x1, f1)
        lm = 0.5 * (x0 + x1)
        rm = 0.5 * (x1 + x2)
        flm = f(lm)
        frm = f(rm)
        left = simpson(x0, f0, x1, f1, lm, flm)
        right = simpson(x1, f1, x2, f2, rm, frm)
        err = left + right - whole
        if abs(err) <= 15.0 * budget:
            total += left + right + err / 15.0
        else:
            half = 0.5 * budget
            stack.append((x0, f0, x1, f1, lm, flm, half))
            stack.append((x1, f1, x2, f2, rm, frm, half))
    return total


def _arc_integral(integrand, angle: float, waves: int, side: Side) -> complex:
    """(1/2 pi) times the integral of integrand(theta) from theta = -angle to angle.

    The right arc runs counterclockwise through theta = 0, the left arc
    clockwise through theta = pi; an arc of zero length gives 0.
    """
    if side is Side.RIGHT:
        if angle == 0.0:
            return 0.0 + 0.0j
        return _adaptive_simpson(integrand, -angle, angle, QUAD_TOL, waves) / (2.0 * pi)
    if angle == pi:
        return 0.0 + 0.0j
    return -_adaptive_simpson(integrand, angle, 2.0 * pi - angle, QUAD_TOL, waves) / (2.0 * pi)


def _unit_arc_integral(c: float, phi: float, dx: int, dt: int, side: Side) -> complex:
    """(1/2 pi i) times the arc integral of (1+cw)^dt w^(dx-1) dw on the unit circle."""

    def integrand(theta: float) -> complex:
        w = cmath.exp(1j * theta)
        return (1.0 + c * w) ** dt * cmath.exp(1j * dx * theta)

    return _arc_integral(integrand, phi, abs(dx) + abs(dt), side)


def _gauss_legendre(order: int) -> list[tuple[float, float]]:
    """Nodes and weights on [-1, 1], by Newton's method on the Legendre polynomial."""
    rule = []
    for i in range(1, order + 1):
        x = cos(pi * (i - 0.25) / (order + 0.5))
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, order + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            slope = order * (x * p - p_prev) / (x * x - 1.0)
            step = p / slope
            x -= step
            if abs(step) < 1e-15:
                break
        rule.append((x, 2.0 / ((1.0 - x * x) * slope * slope)))
    return rule


def _gauss_unit_arc_integral(c: float, phi: float, dx: int, dt: int, side: Side) -> complex:
    """_unit_arc_integral by composite Gauss-Legendre on equal panels.

    There are |dx| + |dt| + 4 panels, plus one per distance from the pole
    w = -1/c to the arc along the arc's length.
    """
    if side is Side.RIGHT:
        lo, hi, sign = -phi, phi, 1.0
    else:
        lo, hi, sign = phi, 2.0 * pi - phi, -1.0
    middle = 0.0 if side is Side.RIGHT else pi
    toward_pole = pi if c > 0 else 0.0
    nearest = toward_pole if middle == toward_pole else phi
    pole_distance = abs(cmath.exp(1j * nearest) + 1.0 / c)
    panels = abs(dx) + abs(dt) + 4 + math.ceil((hi - lo) / pole_distance)
    half = 0.5 * (hi - lo) / panels
    rule = _gauss_legendre(GAUSS_ORDER)
    total = 0.0 + 0.0j
    for p in range(panels):
        mid = lo + (2 * p + 1) * half
        for x, weight in rule:
            theta = mid + half * x
            total += weight * (1.0 + c * cmath.exp(1j * theta)) ** dt * cmath.exp(1j * dx * theta)
    return sign * half * total / (2.0 * pi)


def _hole_kernel_raw(c: float, psi: float, dx: int, dt: int) -> complex:
    """Hole-side kernel: arc integral of (1-w)^dt w^(dx-1) on the radius-c circle.

    Arc from c e^{-i psi} to c e^{i psi}: through +c (counterclockwise) when
    dt >= 0, through -c (clockwise) when dt < 0.
    """

    def integrand(theta: float) -> complex:
        w = c * cmath.exp(1j * theta)
        return (1.0 - w) ** dt * c**dx * cmath.exp(1j * dx * theta)

    side = Side.RIGHT if dt >= 0 else Side.LEFT
    return _arc_integral(integrand, psi, abs(dx) + abs(dt), side)


def _check_real(value: complex) -> float:
    limit = IMAG_REL_TOL * abs(value) + IMAG_ABS_FLOOR
    if not abs(value.imag) < limit:
        raise QuadratureError(f"imaginary residue {value.imag} exceeds {limit}")
    return value.real


# -- Hahn polynomials: series, norms, identities -----------------------------


class ParameterRegimeError(Exception):
    """Parameters are outside the regime where the requested quantity is positive/defined."""


def pochhammer(a, n: int):
    """Rising factorial a (a+1) ... (a+n-1)."""
    result = 1
    for i in range(n):
        result *= a + i
    return result


def _pochhammer_weight(xp: int, alpha: int, beta: int, M: int) -> Fraction:
    """The Hahn weight C(alpha+x', x') C(beta+M-x', M-x') in Pochhammer form, signed."""
    return Fraction(
        pochhammer(alpha + 1, xp) * pochhammer(beta + 1, M - xp),
        math.factorial(xp) * math.factorial(M - xp),
    )


def _hahn_norm2_signed(k: int, alpha: int, beta: int, M: int) -> Fraction:
    """Closed-form squared norm of Q_k w.r.t. the (signed) Pochhammer weight.

    Koekoek-Lesky-Swarttouw (9.5.2), with its negative parameters and sign as
    they stand.
    """
    num = (-1) ** k * pochhammer(k + alpha + beta + 1, M + 1) * pochhammer(beta + 1, k)
    num *= math.factorial(k)
    den = (2 * k + alpha + beta + 1) * pochhammer(alpha + 1, k) * pochhammer(-M, k)
    den *= math.factorial(M)
    if den == 0:
        raise DegenerateParameterError(
            f"degenerate norm denominator for k={k}, alpha={alpha}, beta={beta}, M={M}"
        )
    return Fraction(num, den)


def leading_coefficient(k: int, alpha: int, beta: int, M: int) -> Fraction:
    """Q_k's leading coefficient (k+alpha+beta+1)_k / ((-M)_k (alpha+1)_k), signed."""
    return Fraction(
        pochhammer(k + alpha + beta + 1, k),
        pochhammer(-M, k) * pochhammer(alpha + 1, k),
    )


def hahn_q(k: int, xp: int, alpha: int, beta: int, M: int) -> Fraction:
    """Hahn polynomial Q_k(x'; alpha, beta, M) via its terminating series.

    Exact rational evaluation; valid for any integer x' (it is a polynomial).
    Raises DegenerateParameterError if a denominator Pochhammer vanishes
    before the numerator terminates the series.
    """
    if not 0 <= k <= M:
        raise ValueError(f"need 0 <= k <= M, got k={k}, M={M}")
    total = Fraction(1)
    term = Fraction(1)
    for i in range(1, k + 1):
        num = (-k + i - 1) * (-xp + i - 1) * (k + alpha + beta + i)
        if num == 0:
            break
        den = (-M + i - 1) * (alpha + i) * i
        if den == 0:
            raise DegenerateParameterError(
                f"zero denominator at term {i} of Q_{k}(x'={xp}; {alpha}, {beta}, {M})"
            )
        term *= Fraction(num, den)
        total += term
    return total


def hahn_norm2(k: int, alpha: int, beta: int, M: int) -> Fraction:
    """Squared norm of Q_k w.r.t. the positive (sign-normalized) weight.

    The closed form is scaled by the constant sign of the Pochhammer weight
    on 0..M; a sign change across the support or a non-positive result
    raises ParameterRegimeError.
    """
    weights = [_pochhammer_weight(xp, alpha, beta, M) for xp in range(M + 1)]
    signs = {1 if w > 0 else (-1 if w < 0 else 0) for w in weights}
    signs.discard(0)
    if len(signs) != 1:
        raise ParameterRegimeError(
            f"weight sign is not constant on 0..{M} for alpha={alpha}, beta={beta}"
        )
    result = signs.pop() * _hahn_norm2_signed(k, alpha, beta, M)
    if result <= 0:
        raise ParameterRegimeError(f"non-positive squared norm {result}")
    return result


class Case(Enum):
    """The growing / steady / shrinking phases of a slice's support."""

    I = 1
    II = 2
    III = 3
    IV = 4


def case_params(model: ModelParams, t: int, case: Case) -> tuple[int, int, int, int]:
    """(M, alpha, beta, shift) of the time-t slice as parameterized in one case."""
    N, S, T = model.N, model.S, model.T
    if case is Case.I:
        return (t + N - 1, -S - N, S - T - N, 0)
    if case is Case.II:
        return (S + N - 1, -t - N, t - N - T, 0)
    if case is Case.III:
        return (T + N - S - 1, -T + t - N, -t - N, t + S - T)
    return (T + N - t - 1, -T - N + S, -S - N, t + S - T)


def admissible_cases(model: ModelParams, t: int) -> list[Case]:
    """The cases whose time range holds t, lowest first; on boundary times several."""
    S, T = model.S, model.T
    cases = []
    if t <= S and t <= T - S:
        cases.append(Case.I)
    if S <= t <= T - S:
        cases.append(Case.II)
    if T - S <= t <= S:
        cases.append(Case.III)
    if t >= S and t >= T - S:
        cases.append(Case.IV)
    return cases


def param_tuple(params) -> tuple[int, int, int, int]:
    """(M, alpha, beta, shift) of a SliceParams, in the order of ``case_params``."""
    return (params.M, params.alpha, params.beta, params.shift)


def contiguous_relation_residuals(
    model: ModelParams, t: int, k: int, x: int
) -> tuple[Fraction, Fraction]:
    """LHS - RHS of the two contiguous relations tying neighboring slices.

    First relation lowers M by one at fixed (alpha, beta); second shifts
    (alpha, beta) to (alpha+1, beta-1) at fixed M.  Both are exactly zero
    wherever all polynomial evaluations are defined.
    """
    p = slice_params(model, t)
    xp = x - p.shift
    alpha, beta, M = p.alpha, p.beta, p.M
    r1 = (
        xp * hahn_q(k, xp - 1, alpha, beta, M - 1)
        + (M - xp) * hahn_q(k, xp, alpha, beta, M - 1)
        - M * hahn_q(k, xp, alpha, beta, M)
    )
    r2 = (
        xp * hahn_q(k, xp - 1, alpha + 1, beta - 1, M)
        + (-xp - alpha - 1) * hahn_q(k, xp, alpha + 1, beta - 1, M)
        + (alpha + 1) * hahn_q(k, xp, alpha, beta, M)
    )
    return (r1, r2)


def dual_orthogonality_residual(
    alpha: int, beta: int, M: int, x: int, y: int
) -> Fraction:
    """Residual of the dual orthogonality relation at lattice points (x, y)."""
    if not (0 <= x <= M and 0 <= y <= M):
        raise ValueError(f"need 0 <= x, y <= M, got x={x}, y={y}, M={M}")
    total = Fraction(0)
    for k in range(M + 1):
        coeff = 1 / _hahn_norm2_signed(k, alpha, beta, M)
        total += coeff * hahn_q(k, x, alpha, beta, M) * hahn_q(k, y, alpha, beta, M)
    target = Fraction(0)
    if x == y:
        target = 1 / _pochhammer_weight(x, alpha, beta, M)
    return total - target


def difference_relation_residual(model: ModelParams, t: int, k: int, x: int) -> Fraction:
    """Residual of the second-order difference equation satisfied by Q_k.

    Holds as a polynomial identity, so x may sit anywhere (neighbor values
    outside the support are polynomial evaluations).
    """
    p = slice_params(model, t)
    xp = x - p.shift
    alpha, beta, M = p.alpha, p.beta, p.M
    b_coeff = (xp + alpha + 1) * (xp - M)
    d_coeff = xp * (xp - beta - M - 1)
    q_mid = hahn_q(k, xp, alpha, beta, M)
    q_up = hahn_q(k, xp + 1, alpha, beta, M)
    q_dn = hahn_q(k, xp - 1, alpha, beta, M)
    lhs = k * (k + alpha + beta + 1) * q_mid
    rhs = b_coeff * (q_up - q_mid) + d_coeff * (q_dn - q_mid)
    return lhs - rhs


def fraction_column(basis, x: int, k: int) -> list[Fraction]:
    """Q_0(x'), ..., Q_j(x') for some j >= k as Fractions, from ``basis.scaled_column``."""
    den, ints = basis.scaled_column(x, k)
    return [Fraction(v, den) for v in ints]


def reduced_pair_column(model: ModelParams, t: int, x: int, k: int) -> tuple[int, list[int]]:
    """(D, [D Q_0(x'), ..., D Q_k(x')]) stepped as reduced integer pairs, D their lcm.

    Each step reduces the new value with one gcd on column-sized integers;
    the library keeps the column over its running least common denominator.
    """
    p = slice_params(model, t)
    xp = x - p.shift
    prev, cur = (0, 1), (1, 1)
    values = [cur]
    for n in range(k):
        b, e, c, d = _recurrence_coefficients(n, p.alpha, p.beta, p.M)
        (prev_n, prev_d), (cur_n, cur_d) = prev, cur
        prev, cur = cur, _reduced(
            (b - e * xp) * cur_n * prev_d - c * prev_n * cur_d, d * cur_d * prev_d
        )
        values.append(cur)
    lcd = math.lcm(*(v_d for _, v_d in values))
    return lcd, [v_n * (lcd // v_d) for v_n, v_d in values]


def recurrence_column(model: ModelParams, t: int, x: int, k: int) -> list[Fraction]:
    """Q_0(x'), ..., Q_k(x') by the three-term recurrence, one Fraction per step."""
    p = slice_params(model, t)
    xp = x - p.shift
    prev, cur = Fraction(0), Fraction(1)
    values = [cur]
    for n in range(k):
        b, e, c, d = _recurrence_coefficients(n, p.alpha, p.beta, p.M)
        prev, cur = cur, ((b - e * xp) * cur - c * prev) / d
        values.append(cur)
    return values


# -- the particle process: couplings, transitions, transfer series ----------


def coupling_coefficient_sq(model: ModelParams, t: int, i: int) -> Fraction:
    """Square of c_i^t, clamped to zero where either factor turns negative."""
    if not 0 <= t <= model.T - 1:
        raise ValueError(f"t={t} outside 0..{model.T - 1}")
    N, T = model.N, model.T
    f1 = Fraction(t + N - i, t + N)
    f2 = Fraction(T + N - t - 1 - i, T + N - t - 1)
    if f1 < 0 or f2 < 0:
        return Fraction(0)
    return f1 * f2


def transition_probability_determinantal(
    model: ModelParams, t: int, x: tuple[int, ...], y: tuple[int, ...]
) -> Fraction:
    """The one-step law of ``transition_probability`` via the bidiagonal determinant form."""
    x, y = tuple(x), tuple(y)
    _validate_config(model, t, x)
    _validate_config(model, t + 1, y)
    N, S, T = model.N, model.S, model.T
    matrix = [
        [
            (N + S - xi - 1) * (yj == xi + 1) + (T - t - S + xi) * (yj == xi)
            for yj in y
        ]
        for xi in x
    ]
    return Fraction(
        det_bareiss(matrix) * _vandermonde(y), _vandermonde(x) * pochhammer(T - t, N)
    )


def transition_table_walk(
    model: ModelParams, t: int, positions: tuple[int, ...]
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Admissible successors of ``positions`` and their cumulative integer weights.

    Successors come in eps-lexicographic order (eps_1 most significant, 0
    before 1).  The weight of y = x + eps is Delta(y) prod_i a_i(eps_i), with
    a_i(1) = N+S-x_i-1 and a_i(0) = x_i+T-t-S, so P(y | x) is the weight over
    the row total Delta(x) (T-t)_N, which the last cumulative weight must equal.
    The moves are walked one particle at a time, depth first, pruning a branch
    as soon as a path leaves the next support or touches its neighbour.
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


def transfer_matrix_series(model: ModelParams, t: int, x: int, y: int) -> SignedSqrt:
    """v_{t,t+1}(x, y) as the coupled series sum_k c_k^t f_k^t(x) f_k^{t+1}(y)."""
    b_t = slice_basis(model, t)
    b_next = slice_basis(model, t + 1)
    if x not in b_t.support or y not in b_next.support:
        return SignedSqrt.zero()
    terms = []
    for k in range(min(b_t.params.M, b_next.params.M) + 1):
        c2 = coupling_coefficient_sq(model, t, k)
        if c2 == 0:
            continue
        coeff = b_t.q(k, x) * b_next.q(k, y)
        rad = c2 * b_t.weight(x) * b_next.weight(y) / (b_t.norm2(k) * b_next.norm2(k))
        terms.append(SignedSqrt(coeff, rad))
    return sum(terms, SignedSqrt.zero())


# -- bulk limit: difference operator, ellipse tangency -----------------------


def limit_tridiagonal(regime: LimitRegime) -> tuple[float, float]:
    """Diagonal A and off-diagonal B of the limiting difference operator.

    The left endpoint of the scaled spectral segment, (-N~(N~+T~) - A) / (2B),
    clamped to [-1, 1], is cos(phi) of limit_params.
    """
    x, d2, d3, d4 = regime.box_distances
    a_diag = -(d2 * d3) - x * d4
    prod = d2 * d3 * x * d4
    if prod <= 0:
        raise BoundaryRegimeError(f"regime point on its box boundary: {regime}")
    return a_diag, math.sqrt(prod)


def _ellipse_coefficients(ntilde, stilde, ttilde) -> tuple:
    """(axx, att, axt, at, ax, c0) of the quadratic form in (t~, x~) that is
    negative exactly inside the inscribed ellipse."""
    axx = ttilde**2
    att = (stilde + ntilde) ** 2
    axt = 2 * (ntilde * ttilde - stilde * ttilde - 2 * stilde * ntilde)
    at = 2 * (
        stilde * ntilde**2
        - ntilde * ttilde * stilde
        - ntilde**2 * ttilde
        + stilde**2 * ntilde
    )
    ax = 2 * (ntilde * ttilde * stilde - ntilde * ttilde**2)
    c0 = ntilde**2 * (ttilde - stilde) ** 2
    return axx, att, axt, at, ax, c0


def ellipse_polynomial(ntilde, stilde, ttilde, t, x):
    """The ellipse form at (t~, x~); exact on Fractions."""
    axx, att, axt, at, ax, c0 = _ellipse_coefficients(ntilde, stilde, ttilde)
    return axx * x * x + att * t * t + axt * x * t + at * t + ax * x + c0


def ellipse_tangency_discriminants(
    ntilde: float, stilde: float, ttilde: float
) -> list[float]:
    """Discriminant of the form restricted to each hexagon side (0 iff tangent)."""
    axx, att, axt, at, ax, c0 = _ellipse_coefficients(ntilde, stilde, ttilde)
    # The six boundary lines of the admissible region in (t~, x~) coordinates:
    # ("t", c, 0) is the vertical line t~ = c, ("x", p, q) the line x~ = p t~ + q.
    sides = [
        ("t", 0.0, 0.0),
        ("t", ttilde, 0.0),
        ("x", 0.0, 0.0),
        ("x", 0.0, stilde + ntilde),
        ("x", 1.0, ntilde),
        ("x", 1.0, stilde - ttilde),
    ]
    out = []
    for kind, p, q in sides:
        if kind == "t":
            t_fixed = p
            a2 = axx
            b2 = axt * t_fixed + ax
            c2 = att * t_fixed**2 + at * t_fixed + c0
        else:
            a2 = axx * p**2 + axt * p + att
            b2 = 2 * axx * p * q + axt * q + ax * p + at
            c2 = axx * q**2 + ax * q + c0
        out.append(b2 * b2 - 4.0 * a2 * c2)
    return out


# -- kernel matrices and enumeration tables ----------------------------------


def gauge_transform(matrix: KernelMatrix, gauge) -> KernelMatrix:
    """Conjugate the kernel matrix by a pointwise gauge F: entry *= F(p)/F(q)."""
    factors = [Fraction(gauge(x, t)) for x, t in matrix.points]
    if any(f == 0 for f in factors):
        raise ValueError("gauge function vanishes at a queried point")
    rows = tuple(
        tuple(value * (fi / fj) for fj, value in zip(factors, row))
        for fi, row in zip(factors, matrix.entries)
    )
    return KernelMatrix(matrix.model, matrix.points, rows)


def hexagon_count_lgv(model: ModelParams) -> int:
    """The families of the model as one N x N determinant of binomial step counts."""
    ends = [model.S + i for i in range(model.N)]
    return count_path_families(0, list(range(model.N)), model.T, ends)


def enumerate_path_families(model: ModelParams) -> list[Trajectory]:
    """Every path family, in lexicographic order over move sequences.

    The family's key is the time-major tuple of per-step move vectors; DFS
    over admissible move subsets visits keys in ascending order.
    """
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


def check_positions_pointwise(model: ModelParams, positions) -> None:
    """The trajectory checks time by time and point by point, raising ValueError.

    The same checks, in the same order and with the same messages, that
    ``Trajectory`` runs over whole path columns.
    """
    if len(positions) != model.T + 1:
        raise ValueError(f"trajectory has {len(positions)} times, expected t = 0..{model.T}")
    for t, now in enumerate(positions):
        if len(now) != model.N:
            raise ValueError(f"{len(now)} positions at t={t}, expected N={model.N}")
        if any(b <= a for a, b in zip(now, now[1:])):
            raise ValueError(f"positions at t={t} must be strictly increasing: {now}")
    start = tuple(range(model.N))
    if positions[0] != start:
        raise ValueError(f"trajectory must start at {start}")
    for t in range(model.T):
        steps = zip(positions[t], positions[t + 1])
        if any(y - x not in (0, 1) for x, y in steps):
            raise ValueError(f"illegal step between t={t} and t={t + 1}")
    end = tuple(model.S + i for i in range(model.N))
    if positions[-1] != end:
        raise ValueError(f"trajectory must end at {end}")


def run_codes_pointwise(traj: Trajectory) -> list[str]:
    """Each path's code, <count>F or <count>U per run of equal steps, read time by time."""
    runs = []
    for i in range(traj.model.N):
        moves = tuple(b[i] - a[i] for a, b in zip(traj.positions, traj.positions[1:]))
        encoded = []
        pos = 0
        while pos < len(moves):
            end = pos
            while end < len(moves) and moves[end] == moves[pos]:
                end += 1
            encoded.append(f"{end - pos}{'U' if moves[pos] else 'F'}")
            pos = end
        runs.append("".join(encoded))
    return runs


def oracle_tables(model: ModelParams) -> tuple[int, Counter, Counter]:
    """One enumeration pass giving all 1-point and 2-point occupation counts.

    Returns (family_count, singles, pairs) where singles[(x, t)] counts the
    families through (x, t) and pairs[frozenset-free ordered pair] counts
    families through both points of each unordered pair (keyed by the sorted
    pair of (x, t) tuples).
    """
    families = enumerate_path_families(model)
    singles: Counter = Counter()
    pairs: Counter = Counter()
    for fam in families:
        points = [
            (x, t)
            for t in range(model.T + 1)
            for x in fam.positions[t]
        ]
        singles.update(points)
        pairs.update(combinations(sorted(points), 2))
    return len(families), singles, pairs


def _fraction_norm_step(basis, k: int) -> Fraction:
    """n_k / n_(k-1) of a slice basis as a Fraction."""
    p = basis.params
    return Fraction(*hahn_module._norm_ratio(k, p.alpha, p.beta, p.M))


def pair_table_fractions(
    model: ModelParams, s: int, t: int
) -> tuple[int, Fraction, int, tuple[int, ...]]:
    """The kernel's (s, t) pair table, (lo, R_lo, L, ratios), with each step a Fraction.

    Term i of K((x, s); (y, t)) has the radicand R_i = R_lo (ratios[i-lo] / L)^2,
    from the coupling products between the two times and the norms of both
    slices; the library builds the same terms from one factor per slice.
    """
    b_s = slice_basis(model, s)
    b_t = slice_basis(model, t)
    if s >= t:
        indices, sign = range(model.N), 1
    else:
        indices, sign = range(model.N, min(b_s.params.M, b_t.params.M) + 1), -1
    lo = indices.start
    if not indices:
        return lo, Fraction(0), 1, ()
    N, T, a, b = model.N, model.T, min(s, t), max(s, t)
    d = b - a
    prod_c2 = Fraction(
        pochhammer(a + N - lo, d) * pochhammer(T + N - b - lo, d),
        pochhammer(a + N, d) * pochhammer(T + N - b, d),
    )
    radicand = 1 / (b_s.norm2(lo) * b_t.norm2(lo))
    radicand = radicand / prod_c2 if s >= t else radicand * prod_c2
    ratio = Fraction(1)
    ratios = [ratio]
    for i in indices[1:]:
        u, v = a + N - i, T + N - b - i
        c2_step = Fraction(u * v, (u + d) * (v + d))
        step = sqrt_fraction(
            (c2_step if s < t else 1 / c2_step)
            / (_fraction_norm_step(b_s, i) * _fraction_norm_step(b_t, i))
        )
        if step is None:
            raise IncompatibleRadicalsError(f"terms {lo} and {i} between times {s} and {t}")
        ratio *= step
        ratios.append(ratio)
    lcd = math.lcm(*(r.denominator for r in ratios))
    scaled = tuple(sign * r.numerator * (lcd // r.denominator) for r in ratios)
    return lo, radicand, lcd, scaled


def slice_factors_fractions(
    model: ModelParams, t: int, lo: int, hi: int
) -> tuple[list[Fraction], list[Fraction]]:
    """``_SliceBasis.kernel_factors`` with each step a Fraction: a_lo..a_hi and b_lo..b_hi.

    (P_i / P_(i-1))(u) = (n_(i-1) / n_i) (G_(i-1) / G_i)(u), with the G_i of
    the library's docstring taken from their factorials.
    """
    N, S, T = model.N, model.S, model.T
    r = min(S, T - S)
    basis, ref = slice_basis(model, t), slice_basis(model, r)

    def p_step(b, u: int, i: int) -> Fraction:
        def g(j: int) -> Fraction:
            return Fraction(math.factorial(u + N - j - 1), math.factorial(T + N - u - j - 1))

        return g(i - 1) / g(i) / _fraction_norm_step(b, i)

    a, b = [Fraction(1)], [Fraction(1)]
    for i in range(lo + 1, hi + 1):
        step = sqrt_fraction(p_step(basis, t, i) / p_step(ref, r, i))
        if step is None:
            raise IncompatibleRadicalsError(f"terms {lo} and {i} at time {t}")
        a.append(a[-1] * step)
        b.append(b[-1] / (_fraction_norm_step(basis, i) * step))
    return a, b


# -- the Eynard-Mehta kernel over binomial transitions -----------------------


def _binomial(d: int, k: int) -> int:
    """C(d, k): the d-step paths that rise k times; zero for k outside 0..d."""
    return math.comb(d, k) if 0 <= k <= d else 0


def _fraction_inverse(matrix: list[list[int]]) -> list[list[Fraction]]:
    """Inverse of a nonsingular square matrix by Gauss-Jordan elimination in Fractions."""
    n = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k])
        rows[k], rows[pivot] = rows[pivot], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k and rows[i][k]:
                factor = rows[i][k]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[k])]
    return [row[n:] for row in rows]


def _fraction_det(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by Gaussian elimination in Fractions."""
    rows = [list(row) for row in matrix]
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [v - factor * w for v, w in zip(rows[i], rows[k])]
    return det


@functools.lru_cache(maxsize=4)
def _gram_inverse(model: ModelParams) -> list[list[Fraction]]:
    """G^-1 for the Gram matrix G_(i,j) = C(T, S + j - i) of the path endpoints."""
    N, S, T = model.N, model.S, model.T
    return _fraction_inverse([[_binomial(T, S + j - i) for j in range(N)] for i in range(N)])


def eynard_mehta_correlation(model: ModelParams, points) -> Fraction:
    """Probability that every (x, t) point is occupied, from the Eynard-Mehta kernel.

    By Lindstrom-Gessel-Viennot and the Eynard-Mehta theorem the paths, which
    start at a_i = i and end at b_j = S + j and rise by 0 or 1 per step, form
    a determinantal process with kernel
    K(r,x; s,y) = sum_(i,j) C(T-r, b_j-x) (G^-1)_(j,i) C(s, y-a_i) - 1[r<s] C(s-r, y-x),
    G_(i,j) = C(T, b_j - a_i).  Nothing here is shared with the Hahn path:
    no weights, norms, recurrences or radicals.
    """
    N, S, T = model.N, model.S, model.T
    inverse = _gram_inverse(model)
    # Row p of the first sum before the C(s, y - a_i) factor: sum_j C(T-r, b_j-x) (G^-1)_(j,i).
    left = {
        (x, r): [sum(_binomial(T - r, S + j - x) * inverse[j][i] for j in range(N))
                 for i in range(N)]
        for x, r in points
    }

    def kernel(p, q) -> Fraction:
        (x, r), (y, s) = p, q
        value = sum(u * _binomial(s, y - i) for i, u in enumerate(left[p]))
        return value - _binomial(s - r, y - x) if r < s else value

    return _fraction_det([[kernel(p, q) for q in points] for p in points])


def float_via_square(value: SignedSqrt) -> float:
    """float(value) from its reduced square, scaled by an even power of two into [1/2, 4)."""
    square = value.square()
    num, den = square.numerator, square.denominator
    if not num:
        return 0.0
    shift = num.bit_length() - den.bit_length()
    shift -= shift % 2
    scaled = num / (den << shift) if shift >= 0 else (num << -shift) / den
    try:
        return value.sign * math.ldexp(math.sqrt(scaled), shift // 2)
    except OverflowError:
        raise FloatRangeError(f"|value| is about 2^{shift // 2}, above the float range") from None
