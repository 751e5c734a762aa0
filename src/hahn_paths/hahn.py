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
from math import factorial, gcd, perm

from .combinatorics import ModelParams
from .errors import DegenerateParameterError, IncompatibleRadicalsError
from .radicals import SignedSqrt, exact_isqrt


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


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num / den in lowest terms with a positive denominator."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


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
    """Cached per-slice data: weights, polynomial values, norms, kernel factors.

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
    end of the support.  The slice's factors of the kernel radicands are memoized too.
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
        self._factors: dict[int, tuple[int, list[int], int, list[int]]] = {}
        self._ref_steps: list[tuple[int, int]] = []
        self._radicand_scales: dict[int, Fraction] = {}
        self._radicand_parts: dict[tuple[int, int], Fraction] = {}
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

    def kernel_factors(self, lo: int, hi: int) -> tuple[int, list[int], int, list[int]]:
        """(A, [A a_lo, ..., A a_j], B, [B b_lo, ..., B b_j]) for some j >= hi; lo is 0 or N.

        Kernel term i between times s and t has the radicand R_i = P_i(s) P'_i(t),
        with P_i = 1 / (n_i g_i) and P'_i = g_i / n_i: the coupling products
        telescope into g_i = G_i / G_0, G_i = (t+N-i-1)! / (T+N-t-i-1)!.  With
        ref = min(S, T - S) the slice of largest M, a_i = sqrt((P_i/P_lo)(t) /
        (P_i/P_lo)(ref)) and b_i = n_lo / (n_i a_i) are rational, and
        a_i(s) b_i(t) = sqrt(R_i / R_lo).  A step's square a_i^2 / a_(i-1)^2, from
        the norm ratios at t and ref and g_(i-1) / g_i = (t+N-i) / (T+N-t-i) (both
        terms >= 1 for i <= M_t <= M_ref), is reduced once and its root taken as
        two integer roots, and b's step is n_(i-1) / n_i over that root.  Each list is
        kept over its lcd by ``_extend_over_lcd``; every slice shares the ref's steps.
        """
        factors = self._factors.get(lo, (1, [1], 1, [1]))
        den_a, a, den_b, b = factors
        if hi < lo + len(a):
            return factors
        model, t, a_steps, b_steps = self._model, self._t, [], []
        N, T, r = model.N, model.T, min(model.S, model.T - model.S)
        p, ref = self.params, slice_basis(model, r)
        q, ref_steps = ref.params, ref._ref_steps  # (T+N-r-i) r_num, (r+N-i) r_den
        for i in range(len(ref_steps) + 1, hi + 1):
            r_num, r_den = _norm_ratio(i, q.alpha, q.beta, q.M)
            ref_steps.append(((T + N - r - i) * r_num, (r + N - i) * r_den))
        for i in range(lo + len(a), hi + 1):
            t_num, t_den = _norm_ratio(i, p.alpha, p.beta, p.M)
            r_num, r_den = ref_steps[i - 1]
            sq_num = (t + N - i) * t_den * r_num
            sq_den = (T + N - t - i) * t_num * r_den
            if not (sq_num and sq_den):
                raise DegenerateParameterError(f"zero factor in a norm ratio at k={i}: {p}, {q}")
            root_num, root_den = map(exact_isqrt, _reduced(sq_num, sq_den))
            if root_num is None or root_den is None:
                raise IncompatibleRadicalsError(f"kernel terms {lo} and {i} at time {t}")
            a_steps.append((root_num, 0, root_den))
            b_num, b_den = _reduced(t_den * root_den, t_num * root_num)
            b_steps.append((b_num, 0, b_den))
        den_a, a = _extend_over_lcd(den_a, a, a_steps)
        factors = self._factors[lo] = den_a, a, *_extend_over_lcd(den_b, b, b_steps)
        return factors

    def radicand_part(self, lo: int, x: int, right: bool) -> Fraction:
        """w(x) P_lo, or w(x) P'_lo if right, memoized per point (see ``kernel_factors``).

        g_0 = 1 and g_N = (T-t)_N / (t)_N; lo = N needs 0 < t < T, where M >= N.
        """
        key = lo if right else -lo  # P_0 = P'_0 = 1 / n_0: both sides share lo = 0
        value = self._radicand_parts.get((key, x))
        if value is None:
            scale = self._radicand_scales.get(key)
            if scale is None:
                T, t = self._model.T, self._t
                g = Fraction(perm(T - t + lo - 1, lo), perm(t + lo - 1, lo)) if lo else Fraction(1)
                scale = self._radicand_scales[key] = (g if right else 1 / g) / self.norm2(lo)
            value = self._radicand_parts[key, x] = self.weight(x) * scale
        return value


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
