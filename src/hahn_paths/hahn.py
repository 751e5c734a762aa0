"""Hahn weights, polynomials, norms, and the per-time parameterization.

Each time slice t of the path process carries a discrete orthogonal
polynomial system on its support.  Its Hahn parameters (alpha, beta, M)
and shift follow from one closed form in t, through the support's left
end max(0, t+S-T) and max(t, S).

All evaluation is exact rational arithmetic.  The weight is kept in the
manifestly positive factorial form; the Pochhammer form (with large
negative integer parameters) is used only for the closed-form norms, with
its constant sign tracked explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from .combinatorics import ModelParams
from .errors import DegenerateParameterError
from .radicals import SignedSqrt


@dataclass(frozen=True)
class SliceParams:
    """Hahn data of one time slice: (alpha, beta, M), shift, support."""

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

    @property
    def support(self) -> range:
        return range(self.shift, self.shift + self.M + 1)


def pochhammer(a, n: int):
    """Rising factorial a (a+1) ... (a+n-1)."""
    result = 1
    for i in range(n):
        result *= a + i
    return result


def slice_params(model: ModelParams, t: int) -> SliceParams:
    """Hahn parameters of the time-t slice, on the support max(0, t+S-T)..min(t, S)+N-1."""
    N, S, T = model.N, model.S, model.T
    if not 0 <= t <= T:
        raise ValueError(f"t={t} outside 0..{T}")
    lo = max(0, t + S - T)
    top = max(t, S)
    return SliceParams(lo - top - N, top - T - N - lo, min(t, S) + N - 1 - lo, lo)


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
    """Numerator and denominator of n_k / n_(k-1) for the closed-form norms.

    On a slice no factor is zero for 1 <= k <= M: with m = min(t, S) - lo <= T/2,
    M = m + N - 1 and ab = alpha + beta = -T - 2N, every factor but k is <= -1:
    k + ab + M + 1 and 2k + ab +- 1 are <= 2m - T - 1, k + ab <= -M - 2,
    beta + k <= t + S - T - 2 lo - 1 <= -lo - 1, alpha + k <= min(t, S) -
    max(t, S) - 1 and k - 1 - M <= -1.
    """
    ab = alpha + beta
    num = -(k + ab + M + 1) * (beta + k) * k * (2 * k + ab - 1)
    den = (k + ab) * (2 * k + ab + 1) * (alpha + k) * (k - 1 - M)
    return num, den


def _recurrence_coefficients(n: int, alpha: int, beta: int, M: int) -> tuple[int, int, int, int]:
    """Integers (b, e, c, d) with d Q_{n+1}(x') = (b - e x') Q_n(x') - c Q_{n-1}(x').

    This is the three-term recurrence
    -x' Q_n = A_n Q_{n+1} - (A_n + C_n) Q_n + C_n Q_{n-1}
    (Koekoek-Lesky-Swarttouw, Hypergeometric Orthogonal Polynomials, 9.5.3)
    multiplied through by the denominators of A_n and C_n.  The column step
    of ``_SliceBasis.scaled_column`` needs d > 0.  On a slice,
    alpha + 1 <= -M and alpha + beta = -T - 2N give d > 0 for 0 <= n < M;
    a zero denominator of A_n or a d <= 0 raises DegenerateParameterError.
    """
    ab = alpha + beta
    a_num = (n + ab + 1) * (n + alpha + 1) * (M - n)
    a_den = (2 * n + ab + 1) * (2 * n + ab + 2)
    c_num = n * (n + ab + M + 1) * (n + beta)
    c_den = (2 * n + ab) * (2 * n + ab + 1) if n else 1  # C_0 = 0
    d = a_num * c_den
    if a_den == 0 or d <= 0:
        raise DegenerateParameterError(
            f"degenerate recurrence step n={n} for alpha={alpha}, beta={beta}, M={M}:"
            f" A_n denominator {a_den}, d = {d}"
        )
    return a_num * c_den + c_num * a_den, a_den * c_den, c_num * a_den, d


def _extend_over_lcd(den: int, ints: list[int], steps) -> tuple[int, list[int]]:
    """Append the values of a linear recurrence to integers over their least common denominator.

    ints / den are v_0..v_n, with gcd(den, *ints) = 1 and v_(-1) = 0.  Each
    step (a, c, d), d > 0, appends v = (a v_n - c v_(n-1)) / d.  With
    num = a den v_n - c den v_(n-1), g = gcd(num, d) and r = d / g, the new
    value is (num / g) / (r den), and gcd(num / g, r) = 1 makes r den the least
    common denominator of the extended list.  So den grows by r where r > 1,
    and every gcd has the small operand d.  At the end each stored integer is
    multiplied by the growths that came after it, so no rescale divides.
    """
    ints = ints[:]
    prev = ints[-2] if len(ints) > 1 else 0
    cur = ints[-1]
    growths = []
    for a, c, d in steps:
        num = a * cur - c * prev
        g = gcd(num, d)
        r = d // g
        if r > 1:
            den *= r
            cur *= r
            growths.append((len(ints), r))
        prev, cur = cur, num // g
        ints.append(cur)
    scale, end = 1, len(ints)
    for start, r in [*reversed(growths), (0, 1)]:
        if scale > 1:
            ints[start:end] = [v * scale for v in ints[start:end]]
        scale *= r
        end = start
    return den, ints


class _SliceBasis:
    """Cached per-slice data: weights, polynomial values, norms.

    Weights are computed where something reads them and memoized, so the
    memo holds at most one entry per support point.  The values Q_0(x),
    Q_1(x), ... at one x form a column, extended on demand with the
    three-term recurrence, whose integer coefficients are memoized once per
    basis; the tests check the column against the terminating series.  A
    column is stored as integers over one denominator,
    (D, [D Q_0(x'), ..., D Q_j(x')]) with D the least common denominator,
    so that a kernel entry sums integer products, and each recurrence step
    works on those integers directly (see ``scaled_column``).  Norms are
    taken w.r.t. the factorial-form weight, obtained from the closed form
    through the constant Pochhammer/factorial ratio lambda, read at the left
    end of the support.
    """

    def __init__(self, model: ModelParams, t: int):
        self._model = model
        self._t = t
        self.params = slice_params(model, t)
        p = self.params
        self.support = p.support
        self._weights: dict[int, Fraction] = {}
        self._coefficients: list[tuple[int, int, int, int]] = []
        self._columns: dict[int, tuple[int, list[int]]] = {}
        self._norm_memo: dict[int, Fraction] = {}
        self.lam = _pochhammer_weight(0, p.alpha, p.beta, p.M) / self.weight(p.shift)

    def weight(self, x: int) -> Fraction:
        """Factorial-form weight at model coordinate x; zero off the support."""
        value = self._weights.get(x)
        if value is None:
            value = slice_weight(self._model, self._t, x)
            if x in self.support:
                self._weights[x] = value
        return value

    def scaled_column(self, x: int, k: int) -> tuple[int, list[int]]:
        """(D, [D Q_0(x'), ..., D Q_j(x')]) for some j >= k, at model coordinate x.

        D is the least common denominator of the values, kept by
        ``_extend_over_lcd`` with the steps (b - e x', c, d) of the memoized
        recurrence coefficients (d > 0, see ``_recurrence_coefficients``).
        """
        p = self.params
        if not 0 <= k <= p.M:
            raise ValueError(f"need 0 <= k <= M, got k={k}, M={p.M}")
        den, ints = self._columns.get(x, (1, [1]))
        if k < len(ints):
            return den, ints
        coefficients = self._coefficients
        for n in range(len(coefficients), k):
            coefficients.append(_recurrence_coefficients(n, p.alpha, p.beta, p.M))
        xp = x - p.shift
        steps = ((b - e * xp, c, d) for b, e, c, d in coefficients[len(ints) - 1 : k])
        den, ints = _extend_over_lcd(den, ints, steps)
        self._columns[x] = den, ints
        return den, ints

    def q(self, k: int, x: int) -> Fraction:
        """Q_k at model coordinate x (shift applied), as a polynomial value."""
        den, ints = self.scaled_column(x, k)
        return Fraction(ints[k], den)

    def norm2(self, k: int) -> Fraction:
        """Squared norm of Q_k w.r.t. the factorial-form weight, from the closed form."""
        value = self._norm_memo.get(k)
        if value is None:
            p = self.params
            value = _hahn_norm2_signed(k, p.alpha, p.beta, p.M) / self.lam
            self._norm_memo[k] = value
        return value

    def norm_step(self, k: int) -> tuple[int, int]:
        """n_k / n_(k-1) as integers (num, den); a zero factor raises DegenerateParameterError."""
        p = self.params
        num, den = _norm_ratio(k, p.alpha, p.beta, p.M)
        if not (num and den):
            raise DegenerateParameterError(f"zero factor in the norm ratio at k={k} for {p}")
        return num, den


@lru_cache(maxsize=1024)
def slice_basis(model: ModelParams, t: int) -> _SliceBasis:
    return _SliceBasis(model, t)


def orthonormal_function(model: ModelParams, n: int, t: int, x: int) -> SignedSqrt:
    """f_n at (t, x): Q_n(x') sqrt(w(x)) / sqrt(norm2), zero off the support."""
    basis = slice_basis(model, t)
    if not 0 <= n <= basis.params.M:
        raise ValueError(f"n={n} outside 0..{basis.params.M}")
    if x not in basis.support:
        return SignedSqrt.zero()
    return SignedSqrt(basis.q(n, x), basis.weight(x) / basis.norm2(n))
