"""Hahn weights, polynomials, norms, and the per-time parameterization.

Each time slice t of the path process carries a discrete orthogonal
polynomial system on its support.  Four parameter regimes (cases I-IV)
cover the growing / steady / shrinking phases of the support; on boundary
times the admissible parameterizations coincide and the lower-numbered
case is reported.

All evaluation is exact rational arithmetic.  The weight is kept in the
manifestly positive factorial form; the Pochhammer form (with large
negative integer parameters) is used only where the classical identities
need it, with its constant sign tracked explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .combinatorics import ModelParams
from .errors import DegenerateParameterError, ParameterRegimeError
from .radicals import SignedSqrt


_ZERO = Fraction(0)


class Case(Enum):
    I = 1
    II = 2
    III = 3
    IV = 4


@dataclass(frozen=True)
class SliceParams:
    """Hahn data of one time slice: case tag, (alpha, beta, M), shift, support."""

    t: int
    case: Case
    alpha: int
    beta: int
    M: int
    shift: int

    @property
    def support_lo(self) -> int:
        return self.shift

    @property
    def support_hi(self) -> int:
        return self.shift + self.M


def pochhammer(a, n: int):
    """Rising factorial a (a+1) ... (a+n-1)."""
    result = 1
    for i in range(n):
        result *= a + i
    return result


def _case_params(model: ModelParams, t: int, case: Case) -> tuple[int, int, int, int]:
    N, S, T = model.N, model.S, model.T
    if case is Case.I:
        return (t + N - 1, -S - N, S - T - N, 0)
    if case is Case.II:
        return (S + N - 1, -t - N, t - N - T, 0)
    if case is Case.III:
        return (T + N - S - 1, -T + t - N, -t - N, t + S - T)
    return (T + N - t - 1, -T - N + S, -S - N, t + S - T)


def _admissible_cases(model: ModelParams, t: int) -> list[Case]:
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


def slice_params(model: ModelParams, t: int) -> SliceParams:
    """Case tag and Hahn parameters of the time-t slice.

    On boundary times several cases apply; their parameter tuples agree and
    the lower-numbered case is reported.
    """
    if not 0 <= t <= model.T:
        raise ValueError(f"t={t} outside 0..{model.T}")
    case = _admissible_cases(model, t)[0]
    M, alpha, beta, shift = _case_params(model, t, case)
    return SliceParams(t, case, alpha, beta, M, shift)


def slice_weight(model: ModelParams, t: int, x: int) -> Fraction:
    """Factorial-form weight at (t, x); zero outside the slice support."""
    N, S, T = model.N, model.S, model.T
    if not 0 <= t <= T:
        raise ValueError(f"t={t} outside 0..{T}")
    args = (x, t - x + N - 1, S - x + N - 1, T - t - S + x)
    if any(a < 0 for a in args):
        return Fraction(0)
    denom = 1
    for a in args:
        denom *= factorial(a)
    return Fraction(1, denom)


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


def _pochhammer_weight(xp: int, alpha: int, beta: int, M: int) -> Fraction:
    return Fraction(
        pochhammer(alpha + 1, xp) * pochhammer(beta + 1, M - xp),
        factorial(xp) * factorial(M - xp),
    )


def _hahn_norm2_signed(k: int, alpha: int, beta: int, M: int) -> Fraction:
    """Closed-form squared norm of Q_k w.r.t. the (signed) Pochhammer weight."""
    num = (-1) ** k * pochhammer(k + alpha + beta + 1, M + 1) * pochhammer(beta + 1, k)
    num *= factorial(k)
    den = (2 * k + alpha + beta + 1) * pochhammer(alpha + 1, k) * pochhammer(-M, k)
    den *= factorial(M)
    if den == 0:
        raise DegenerateParameterError(
            f"degenerate norm denominator for k={k}, alpha={alpha}, beta={beta}, M={M}"
        )
    return Fraction(num, den)


def _norm_ratio(k: int, alpha: int, beta: int, M: int) -> tuple[int, int]:
    """Numerator and denominator of n_k / n_(k-1) for the closed-form norms."""
    ab = alpha + beta
    num = -(k + ab + M + 1) * (beta + k) * k * (2 * k + ab - 1)
    den = (k + ab) * (2 * k + ab + 1) * (alpha + k) * (k - 1 - M)
    return num, den


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


def _recurrence_coefficients(n: int, alpha: int, beta: int, M: int) -> tuple[int, int, int, int]:
    """Integers (b, e, c, d) with d Q_{n+1}(x') = (b - e x') Q_n(x') - c Q_{n-1}(x').

    This is the three-term recurrence
    -x' Q_n = A_n Q_{n+1} - (A_n + C_n) Q_n + C_n Q_{n-1}
    (Koekoek-Lesky-Swarttouw, Hypergeometric Orthogonal Polynomials, 9.5.3)
    multiplied through by the denominators of A_n and C_n.  A zero A_n or a
    zero denominator raises DegenerateParameterError.
    """
    ab = alpha + beta
    a_num = (n + ab + 1) * (n + alpha + 1) * (M - n)
    a_den = (2 * n + ab + 1) * (2 * n + ab + 2)
    c_num = n * (n + ab + M + 1) * (n + beta)
    c_den = (2 * n + ab) * (2 * n + ab + 1) if n else 1  # C_0 = 0
    if a_num == 0 or a_den == 0 or c_den == 0:
        raise DegenerateParameterError(
            f"degenerate recurrence step n={n} for alpha={alpha}, beta={beta}, M={M}"
        )
    return a_num * c_den + c_num * a_den, a_den * c_den, c_num * a_den, a_num * c_den


class _SliceBasis:
    """Cached per-slice data: weights, polynomial values, norms.

    The values Q_0(x), Q_1(x), ... at one x form a column, extended on
    demand with the three-term recurrence; ``hahn_q`` is its test oracle.
    Norms are taken w.r.t. the factorial-form weight, obtained from the
    closed form through the constant Pochhammer/factorial ratio lambda, read
    at the left end of the support.
    """

    def __init__(self, model: ModelParams, t: int):
        self.model = model
        self.params = slice_params(model, t)
        p = self.params
        self.support = range(p.support_lo, p.support_hi + 1)
        self.weights = {x: slice_weight(model, t, x) for x in self.support}
        self._columns: dict[int, list[Fraction]] = {}
        self._norm_memo: dict[int, Fraction] = {}
        self.lam = _pochhammer_weight(0, p.alpha, p.beta, p.M) / self.weights[p.shift]

    def column(self, x: int, k: int) -> list[Fraction]:
        """Q_0(x'), ..., Q_j(x') for some j >= k, at model coordinate x."""
        p = self.params
        if not 0 <= k <= p.M:
            raise ValueError(f"need 0 <= k <= M, got k={k}, M={p.M}")
        col = self._columns.get(x)
        if col is None:
            col = self._columns[x] = [Fraction(1)]
        xp = x - p.shift
        for n in range(len(col) - 1, k):
            b, e, c, d = _recurrence_coefficients(n, p.alpha, p.beta, p.M)
            cur = col[n]
            prev = col[n - 1] if n else _ZERO
            col.append(
                Fraction(
                    (b - e * xp) * cur.numerator * prev.denominator
                    - c * prev.numerator * cur.denominator,
                    d * cur.denominator * prev.denominator,
                )
            )
        return col

    def q(self, k: int, x: int) -> Fraction:
        """Q_k at model coordinate x (shift applied), as a polynomial value."""
        return self.column(x, k)[k]

    def norm2(self, k: int) -> Fraction:
        """Squared norm of Q_k w.r.t. the factorial-form weight.

        Chained by the ratio n_k / n_(k-1) from a memoized n_(k-1); otherwise,
        or across a zero factor, from the closed form (which raises if degenerate).
        """
        memo = self._norm_memo
        value = memo.get(k)
        if value is not None:
            return value
        p = self.params
        if k - 1 in memo:
            num, den = _norm_ratio(k, p.alpha, p.beta, p.M)
            if den:
                value = memo[k - 1] * Fraction(num, den)
        if value is None:
            value = _hahn_norm2_signed(k, p.alpha, p.beta, p.M) / self.lam
        memo[k] = value
        return value

    def f(self, n: int, x: int) -> SignedSqrt:
        if x not in self.support:
            return SignedSqrt.zero()
        return SignedSqrt(self.q(n, x), self.weights[x] / self.norm2(n))


@lru_cache(maxsize=1024)
def slice_basis(model: ModelParams, t: int) -> _SliceBasis:
    return _SliceBasis(model, t)


def orthonormal_function(model: ModelParams, n: int, t: int, x: int) -> SignedSqrt:
    """f_n at (t, x): Q_n(x') sqrt(w(x)) / sqrt(norm2), zero off the support."""
    basis = slice_basis(model, t)
    if not 0 <= n <= basis.params.M:
        raise ValueError(f"n={n} outside 0..{basis.params.M}")
    return basis.f(n, x)


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
