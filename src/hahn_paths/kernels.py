"""Static, complementary, and extended correlation kernels, and correlation determinants.

The extended kernel couples two time slices through products of coupling
coefficients, which telescope into one factor per slice, kept on the slice
bases (this module holds no cache).  Every entry is an exact rational
multiple of a single square root, so correlation determinants can be
computed exactly: a diagonal gauge built from the slice weights and 0-th
norms turns the kernel matrix into a rational matrix without changing any
determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import frexp, lcm, ldexp
from operator import mul

from .combinatorics import ModelParams, det_bareiss
from .errors import FloatRangeError, IncompatibleRadicalsError
from .hahn import _SliceBasis, slice_basis
from .radicals import SignedSqrt, sqrt_fraction


@dataclass(frozen=True)
class CorrelationQuery:
    """A list of distinct space-time points (x, t)."""

    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(set(self.points)) != len(self.points):
            raise ValueError(f"query points must be distinct: {self.points}")

    def __len__(self) -> int:
        return len(self.points)


def static_kernel(model: ModelParams, t: int, x: int, y: int) -> SignedSqrt:
    """Projection kernel onto the first N orthonormal functions of slice t.

    It is the extended kernel at equal times, K((x, t); (y, t)).
    """
    return extended_kernel(model, (x, t), (y, t))


def complementary_kernel(model: ModelParams, t: int, x: int, y: int) -> SignedSqrt:
    """Minus the projection onto the tail functions: K - delta on the support."""
    basis = slice_basis(model, t)
    if x not in basis.support or y not in basis.support:
        return SignedSqrt.zero()
    value = static_kernel(model, t, x, y)
    if x == y:
        # A static diagonal entry is rational: a sum of Q_i(x)^2 w(x) / n_i.
        return SignedSqrt(value.as_rational() - 1)
    return value


def extended_kernel(
    model: ModelParams, p: tuple[int, int], q: tuple[int, int]
) -> SignedSqrt:
    """Space-time kernel entry K(p; q) with p = (x, s), q = (y, t), exactly."""
    return kernel_entry(model, p, q, slice_basis(model, p[1]), slice_basis(model, q[1]))


def kernel_entry(
    model: ModelParams, p: tuple[int, int], q: tuple[int, int], b_s: _SliceBasis, b_t: _SliceBasis
) -> SignedSqrt:
    """K(p; q) with p = (x, s), q = (y, t), from the bases b_s and b_t of slices s and t.

    Term i is Q_i(x) Q_i(y) sqrt(w_x w_y R_i) for i < N when s >= t, negated
    for N <= i <= min(M_s, M_t) when s < t.  The coefficient is one integer
    dot product of the two scaled columns against the slices' radical factors
    a_i(s) b_i(t) = sqrt(R_i / R_lo), divided once by the denominators.  A
    caller that reads many entries of slices it will not revisit builds those
    bases itself and drops them when done, so they stay out of ``slice_basis``.
    """
    x, s = p
    y, t = q
    if s >= t:
        lo, hi, sign = 0, model.N - 1, 1
    else:
        lo, hi, sign = model.N, min(b_s.params.M, b_t.params.M), -1
    if x not in b_s.support or y not in b_t.support or hi < lo:
        return SignedSqrt.zero()
    den_x, col_x = b_s.scaled_column(x, hi)
    den_y, col_y = b_t.scaled_column(y, hi)
    den_a, a = b_s.kernel_factors(lo, hi)[:2]
    den_b, b = b_t.kernel_factors(lo, hi)[2:]
    acc, ref = 0, None
    for qx, qy, factor in zip(col_x[lo : hi + 1], col_y[lo : hi + 1], map(mul, a, b)):
        term = qx * qy
        if term:
            # Keep the radicand a term-by-term SignedSqrt sum ends with, that of
            # the last term added to a zero partial sum: `kernel` prints it.  The
            # scale den_x den_y den_a den_b > 0, so acc is 0 iff the sum is.
            if not acc:
                ref = factor
            acc += term * factor
    if not acc:
        return SignedSqrt.zero()
    radicand = b_s.radicand_part(lo, x, False) * b_t.radicand_part(lo, y, True)
    ratio_sq = Fraction(ref * ref, (den_a * den_b) ** 2)
    return SignedSqrt(Fraction(sign * acc, den_x * den_y * ref), radicand * ratio_sq)


def _gauge(
    model: ModelParams, p: tuple[int, int], q: tuple[int, int], value: SignedSqrt
) -> Fraction:
    """An entry value at (p; q) carried into the rationalizing gauge."""
    if value.is_zero():
        return Fraction(0)
    x, s = p
    y, t = q
    b_s = slice_basis(model, s)
    b_t = slice_basis(model, t)
    # The squared gauge factor of a slice is its 0-th norm: the norm recursion
    # n_i^{t+1} = n_i^t c_i(t)^2 kappa_t (rational square) has an i-independent
    # core kappa_t, and since c_0 = 1 identically the accumulated product of
    # cores telescopes to the 0-th norm itself.
    scale = b_t.weight(y) / b_s.weight(x) * b_t.norm2(0) / b_s.norm2(0)
    root = sqrt_fraction(value.radicand * scale)
    if root is None:
        raise IncompatibleRadicalsError(
            f"gauged kernel entry K({p}; {q}) did not rationalize"
        )
    return value.coeff * root


def _det_rational(matrix: list[list[Fraction]]) -> Fraction:
    """Exact determinant: clear each row's denominators, then fraction-free elimination."""
    scale = 1
    rows = []
    for row in matrix:
        d = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (d // v.denominator) for v in row])
        scale *= d
    return Fraction(det_bareiss(rows), scale)


@dataclass(frozen=True)
class DetReport:
    """Float determinant with partial-pivoting conditioning diagnostics."""

    value: float
    min_pivot: float
    max_pivot: float

    @property
    def condition_hint(self) -> float:
        if self.min_pivot == 0.0:
            return float("inf")
        return self.max_pivot / self.min_pivot


def _det_float_report(matrix: list[list[float]]) -> DetReport:
    """Partial pivoting, with the pivot product kept as frexp parts so that it cannot overflow."""
    n = len(matrix)
    if n == 0:
        return DetReport(1.0, 1.0, 1.0)
    m = [list(row) for row in matrix]
    mant, exp = 1.0, 0
    min_pivot = float("inf")
    max_pivot = 0.0
    for k in range(n):
        pivot_row = max(range(k, n), key=lambda i: abs(m[i][k]))
        if m[pivot_row][k] == 0.0:
            return DetReport(0.0, 0.0, max_pivot)
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            mant = -mant
        pivot = m[k][k]
        mant, mant_exp = frexp(mant * pivot)
        exp += mant_exp
        min_pivot = min(min_pivot, abs(pivot))
        max_pivot = max(max_pivot, abs(pivot))
        for i in range(k + 1, n):
            factor = m[i][k] / pivot
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    try:
        det = ldexp(mant, exp)
    except OverflowError:
        raise FloatRangeError(f"the determinant is about 2^{exp}, above the float range") from None
    return DetReport(det, min_pivot, max_pivot)


def _log2_size(value: SignedSqrt) -> float:
    """log2 |value| to within 1.5, from the bit lengths of its exact parts."""
    (c, d), (r, s) = value.coeff.as_integer_ratio(), value.radicand.as_integer_ratio()
    return c.bit_length() - d.bit_length() + (r.bit_length() - s.bit_length()) / 2


def _balanced(entries) -> tuple[tuple[SignedSqrt, ...], ...]:
    """D K D^-1, scaled exactly, for D = diag(2^e_p) with e_p = -round(mean over q of
    (log2|K(p;q)| - log2|K(q;p)|) / 2), over the q with K(p;q) or K(q;p) nonzero, or 0.
    For K = D' A D'^-1 with |A| symmetric, D undoes D' up to rounding and a common factor.
    A zero entry whose mirror is not counts as the mirror's reciprocal, which brings
    the mirror near 1; a row with no pair of nonzero entries, not even its diagonal,
    has no size to keep and is not scaled."""
    e = []
    for p, row in enumerate(entries):
        skews = []
        anchored = False
        for q, v in enumerate(row):
            w = entries[q][p]
            if v and w:
                skews.append(_log2_size(v) - _log2_size(w))
                anchored = True
            elif v or w:
                skews.append(2 * _log2_size(v) if v else -2 * _log2_size(w))
        e.append(-round(sum(skews) / (2 * len(skews))) if anchored else 0)
    two = Fraction(2)
    return tuple(
        tuple(SignedSqrt(v.coeff * two ** (e_p - e_q), v.radicand) for e_q, v in zip(e, row))
        for e_p, row in zip(e, entries)
    )


@dataclass(frozen=True)
class KernelMatrix:
    """Exact extended-kernel values on all ordered pairs of query points.

    The exact determinant gauges the stored entries into a rational matrix;
    the gauge is diagonal, so it leaves every determinant unchanged.  Float
    results are rounded from the exact entries by ``determinant_report``.
    """

    model: ModelParams
    points: tuple[tuple[int, int], ...]
    entries: tuple[tuple[SignedSqrt, ...], ...]

    @classmethod
    def build(cls, model: ModelParams, query: CorrelationQuery) -> KernelMatrix:
        pts = query.points
        rows = tuple(tuple(extended_kernel(model, p, q) for q in pts) for p in pts)
        return cls(model, pts, rows)

    def determinant(self) -> Fraction:
        return _det_rational(
            [
                [_gauge(self.model, p, q, value) for q, value in zip(self.points, row)]
                for p, row in zip(self.points, self.entries)
            ]
        )

    def float_entries(self) -> list[list[float]]:
        """The entries rounded to binary64; one above its range raises FloatRangeError."""
        matrix = []
        for p, row in zip(self.points, self.entries):
            matrix.append([])
            for q, value in zip(self.points, row):
                try:
                    matrix[-1].append(float(value))
                except FloatRangeError as exc:
                    raise FloatRangeError(f"kernel entry K({p}; {q}): {exc}") from None
        return matrix

    def determinant_report(self) -> DetReport:
        """Float determinant and pivots of the balanced matrix, which has K's determinant;
        balancing brings entries between far-apart times, hundreds of decades apart, near 1."""
        balanced = KernelMatrix(self.model, self.points, _balanced(self.entries))
        return _det_float_report(balanced.float_entries())


def correlation(
    model: ModelParams, query: CorrelationQuery | list[tuple[int, int]]
) -> Fraction:
    """Exact probability that the process occupies every queried (x, t) point."""
    if not isinstance(query, CorrelationQuery):
        query = CorrelationQuery(tuple(query))
    if len(query) == 0:
        return Fraction(1)
    return KernelMatrix.build(model, query).determinant()
