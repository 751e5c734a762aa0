"""Bulk scaling limit: sine kernels, frozen-region geometry, duality, convergence probes.

A macroscopic regime point (N~, S~, T~, t~, x~) determines an amplitude c
and an arc half-angle phi.  The limiting space-time kernel is a contour
integral over the right or left arc of the unit circle; the right arc is
traversed counterclockwise from angle -phi to phi, the left arc clockwise
from -phi down through the angle pi to phi - 2*pi (both "from e^{-i phi}
to e^{i phi}" through +1 resp. -1).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from enum import Enum
from fractions import Fraction
from math import comb, cos, pi, sin

from .combinatorics import ModelParams
from .errors import BoundaryRegimeError, FloatRangeError, PoleOnContourError, PrecisionLossError
from .hahn import _SliceBasis, slice_params
from .kernels import kernel_entry

class Side(Enum):
    RIGHT = "right"
    LEFT = "left"


class Region(Enum):
    INSIDE = "inside"
    FROZEN_EMPTY = "frozen_empty"
    FROZEN_FULL = "frozen_full"


@dataclass(frozen=True)
class LimitRegime:
    """Macroscopic hexagon proportions and a location inside the admissible box."""

    Ntilde: float
    Stilde: float
    Ttilde: float
    ttilde: float
    xtilde: float

    def __post_init__(self):
        values = (self.Ntilde, self.Stilde, self.Ttilde, self.ttilde, self.xtilde)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"regime values must be finite, got {values}")
        if not (0 < self.Stilde <= self.Ttilde):
            raise ValueError(f"need 0 < S~ <= T~, got {self.Stilde}, {self.Ttilde}")
        if not self.Ntilde > 0:
            raise ValueError(f"need N~ > 0, got {self.Ntilde}")
        if not 0 <= self.ttilde <= self.Ttilde:
            raise ValueError(f"t~={self.ttilde} outside [0, {self.Ttilde}]")
        lo = max(0.0, self.ttilde + self.Stilde - self.Ttilde)
        hi = min(self.ttilde, self.Stilde) + self.Ntilde
        if not lo <= self.xtilde <= hi:
            raise ValueError(f"x~={self.xtilde} outside [{lo}, {hi}]")

    @property
    def box_distances(self) -> tuple[float, float, float, float]:
        """Distances to the four x-constraints: x~, S~+N~-x~, t~+N~-x~, x~+T~-S~-t~."""
        return _box_distances(*astuple(self))


@dataclass(frozen=True)
class LimitKernelParams:
    """Amplitude c and arc half-angle phi of the limiting kernel."""

    c: float
    phi: float

    def __post_init__(self):
        if not self.c > 0:
            raise ValueError(f"need c > 0, got {self.c}")
        if not 0 <= self.phi <= pi:
            raise ValueError(f"phi={self.phi} outside [0, pi]")

    @property
    def density(self) -> float:
        return self.phi / pi


def _box_distances(nt, st, tt, t, x):
    return x, st + nt - x, t + nt - x, x + tt - st - t


def _arccos_parts(nt, st, tt, t, x):
    """num and prod of the arccos argument D = num / (2 sqrt(prod)); exact on Fractions."""
    _, d2, d3, d4 = _box_distances(nt, st, tt, t, x)
    return -nt * (nt + tt) + d2 * d3 + x * d4, x * d2 * d3 * d4


def arccos_argument(regime: LimitRegime) -> tuple[float, float]:
    """Numerator and (positive) denominator of the arccos argument D."""
    num, prod = _arccos_parts(*astuple(regime))
    den = 2.0 * math.sqrt(prod) if prod > 0 else 0.0
    return num, den


def limit_params(regime: LimitRegime) -> LimitKernelParams:
    """(c, phi) at a regime point strictly inside its box."""
    x, d2, d3, d4 = regime.box_distances
    if x * d2 <= 0 or d3 * d4 <= 0:
        raise BoundaryRegimeError(f"regime point on its box boundary: {regime}")
    c = math.sqrt(x * d2 / (d4 * d3))
    num, den = arccos_argument(regime)
    if den == 0:
        raise BoundaryRegimeError(f"degenerate arccos denominator at {regime}")
    d_value = num / den
    phi = math.acos(max(-1.0, min(1.0, d_value)))
    return LimitKernelParams(c, phi)


def sine_kernel_static(phi: float, d: int) -> float:
    """Discrete sine kernel sin(phi d) / (pi d), with density phi/pi on the diagonal."""
    if d == 0:
        return phi / pi
    return sin(phi * d) / (pi * d)


def arc_monomial(phi: float, m: int, side: Side) -> float:
    """Closed-form arc integral of w^(m-1): the building block of the kernel."""
    if side is Side.LEFT and m == 0:
        return phi / pi - 1.0
    return sine_kernel_static(phi, m)


# An arc sum is refused when its error bound, 2^-52 times the sum of its term
# sizes plus any series remainder, exceeds this fraction of max(1, |result|).
ARC_ERROR_BOUND = 1e-12
# Terms a series may take before it gives up on its remainder.
ARC_SERIES_TERMS = 100_000
_ULP = 2.0**-52


def _summed(terms) -> tuple[float, float]:
    """Sum of coefficient * value over (coefficient, value, size) triples, and its
    rounding bound; size >= 1 bounds |value| and the scale of its rounding error."""
    total = size = 0.0
    for coef, value, value_size in terms:
        total += coef * value
        size += abs(coef) * value_size
    return total, _ULP * size


def _finite_terms(c: float, phi: float, dx: int, n: int, side: Side):
    """Exact partial fractions of w^(dx-1) u^-n, u = 1+cw, integrated over the arc, for |c| <= 1.

    There u stays in the right half plane, so arg u changes by 2 Arg(u) along
    the arc.  dx <= 0: poles in w and u, coefficients polynomial in |dx|.
    dx >= 1: the polynomial part at infinity plus the poles in u, coefficients
    of size |c|^(1-dx).
    """
    u_end = complex(1.0 + c * cos(phi), c * sin(phi))
    arg_u = 2.0 * math.atan2(u_end.imag, u_end.real)
    drift = (1.0 + abs(c)) / abs(u_end)  # relative rounding of u_end, in ulps

    def u_power(m: int, coef: float):
        """coef times (1/2 pi i) u^m / m between the arc's ends; the log of u for m = 0."""
        if m == 0:
            return coef, arg_u / (2.0 * pi), max(1.0, drift)
        size = abs(u_end) ** m * (1.0 + abs(m) * drift) / (pi * abs(m))
        return coef, (u_end**m).imag / (pi * m), max(1.0, size)

    if dx <= 0:  # w^-a u^-n = sum_k A_k w^-k + sum_l B_l u^-l with a = 1 - dx; u^-l dw = u^-l du / c
        a = 1 - dx
        for k in range(1, a + 1):
            yield comb(n + a - k - 1, a - k) * (-c) ** (a - k), arc_monomial(phi, 1 - k, side), 1.0
        scale = (-1) ** a * c ** (a - 1)
        for l in range(1, n + 1):
            yield u_power(1 - l, scale * comb(a + n - l - 1, n - l))
        return
    # w^(dx-1) u^-n = sum_(k < dx-n) C(n+k-1, k) (-1)^k c^(-n-k) w^(dx-1-n-k) + sum_l B_l u^-l
    for k in range(dx - n):
        yield (-1) ** k * comb(n + k - 1, k) * c ** (-n - k), arc_monomial(phi, dx - n - k, side), 1.0
    for l in range(1, n + 1):
        yield u_power(1 - l, (-1) ** (dx - 1 - n + l) * comb(dx - 1, n - l) / c**dx)


def _endpoint_series(c: float, phi: float, m: int, n: int, side: Side):
    """Integration by parts toward the arc's ends, for m >= 1 and any real c.

    With J(m, n) the arc integral of w^(m-1) u^-n and B(m, n) = Im(w^m u^-n)/pi
    at w = e^{i phi}, J(m, n) = B(m, n)/m + (n c/m) J(m+1, n+1).  After K
    steps the remaining J is at most the arc's share of the circle over
    min|u|^(n+K).  Returns (value, error bound), or None once that bound
    stops shrinking above 1e-18.
    """
    lo, hi = (cos(phi), 1.0) if side is Side.RIGHT else (-1.0, cos(phi))
    u_min = math.sqrt(max(0.0, 1.0 + c * c + 2.0 * c * (lo if c > 0 else hi)))
    if u_min == 0.0:
        return None
    w_end = complex(cos(phi), sin(phi))
    u_end = 1.0 + c * w_end
    drift = (1.0 + abs(c)) / abs(u_end) + 1.0  # relative rounding per power of step, in ulps
    remainder = (phi / pi if side is Side.RIGHT else 1.0 - phi / pi) / u_min**n
    term = w_end**m / u_end**n  # the ratios so far times w^p u^-q at the arc's end
    step = w_end / u_end
    total = size = 0.0
    for j in range(ARC_SERIES_TERMS):
        p, q = m + j, n + j
        total += term.imag / (pi * p)
        size += abs(term) * (1.0 + q * drift / p) / pi
        ratio = q * c / p
        term *= ratio * step
        remainder *= abs(ratio) / u_min
        if remainder < 1e-18:
            return total, _ULP * size + remainder
        if abs(ratio) >= u_min and (q < p or abs(c) >= u_min):
            return None  # the factor (n+j)|c| / ((m+j) min|u|) stays >= 1
    return None


def _w_series(c: float, phi: float, dx: int, n: int, side: Side):
    """u^-n = sum_k C(n+k-1, k) (-cw)^k for |c| < 1: terms sum in size to (1-|c|)^-n.

    Returns (value, error bound), or None if the tail is not below 1e-18
    within ARC_SERIES_TERMS terms.
    """
    r = abs(c)
    coef = 1.0
    total = size = 0.0
    for k in range(ARC_SERIES_TERMS):
        total += coef * arc_monomial(phi, dx + k, side)
        size += abs(coef)
        ratio = r * (n + k) / (k + 1)
        coef *= -c * (n + k) / (k + 1)
        if ratio < 1.0 and abs(coef) / (1.0 - ratio) < 1e-18:
            return total, _ULP * size
    return None


def _arc_evaluations(c: float, phi: float, dx: int, dt: int, side: Side):
    """(value, error bound) from each form that applies, cheapest first; |c| <= 1 if dt < 0."""
    if dt >= 0:
        yield _summed(
            (comb(dt, k) * c**k, arc_monomial(phi, dx + k, side), 1.0) for k in range(dt + 1)
        )
        return
    n = -dt
    r = abs(c)
    log_limit = math.log(ARC_ERROR_BOUND / _ULP)
    if dx >= 1:
        finite_log = math.log(comb(dx - 1 + n, n)) + (1 - dx) * math.log(r)
    else:
        finite_log = math.log(comb(n - dx, n))
    if finite_log < log_limit:
        yield _summed(_finite_terms(c, phi, dx, n, side))
    if dx >= 1:
        found = _endpoint_series(c, phi, dx, n, side)
    else:  # the inversion c -> 1/c maps dx <= 0 to n - dx >= 1
        c_inv, m, scale = amplitude_inversion(c, dx, dt)
        found = _endpoint_series(c_inv, phi, m, n, side)
        if found is not None:
            found = (scale * found[0], abs(scale) * found[1])
    if found is not None:
        yield found
    if r < 1.0 and -n * math.log1p(-r) < log_limit:
        found = _w_series(c, phi, dx, n, side)
        if found is not None:
            yield found


def arc_integral(c: float, phi: float, dx: int, dt: int, side: Side) -> float:
    """(1/2 pi i) times the arc integral of (1+cw)^dt w^(dx-1) dw, for any real c != 0.

    dt >= 0: a binomial sum of arc monomials.  dt < 0: |c| > 1 is first
    reduced by the amplitude inversion c -> 1/c; then the exact partial
    fractions, or where they would cancel too many digits (|c|^(1-dx) large,
    or |c| near 1 with large |dx|), the endpoint series or the w-series.
    The first whose error bound is within ARC_ERROR_BOUND is returned; if
    none is, PrecisionLossError names the case.  A pole on the arc (|c| = 1)
    is the caller's to exclude.
    """
    if dt < 0 and abs(c) > 1.0:
        c_inv, dx_inv, scale = amplitude_inversion(c, dx, dt)
        return scale * arc_integral(c_inv, phi, dx_inv, dt, side)
    if dt < 0 and phi == (0.0 if side is Side.RIGHT else pi):
        return 0.0  # an arc of zero length
    for total, error in _arc_evaluations(c, phi, dx, dt, side):
        if error <= ARC_ERROR_BOUND * max(1.0, abs(total)):
            return total
    raise PrecisionLossError(
        f"no closed form for the arc sum at c={c}, phi={phi}, dx={dx}, dt={dt} "
        f"({side.value} arc) stays within the error bound {ARC_ERROR_BOUND:g}"
    )


def extended_sine_kernel(
    params: LimitKernelParams, dx: int, dt: int, side: Side | None = None
) -> float:
    """Limiting space-time kernel at lattice offsets dx = x-y, dt = t-s, in closed form."""
    c, phi = params.c, params.phi
    if side is None:
        side = Side.RIGHT if dt <= 0 else Side.LEFT
    if c == 1.0 and dt < 0 and (side is Side.LEFT or phi == pi):
        raise PoleOnContourError(
            f"integrand pole at w=-1 lies on the {side.value} arc (c=1, dt={dt})"
        )
    return arc_integral(c, phi, dx, dt, side)


# -- frozen-region geometry -------------------------------------------------


def ellipse_classify(regime: LimitRegime) -> Region:
    """INSIDE where |D| <= 1 (num^2 <= 4 prod, exact on the floats); else frozen by D's sign."""
    num, prod = _arccos_parts(*map(Fraction, astuple(regime)))
    if num * num <= 4 * prod:
        return Region.INSIDE
    return Region.FROZEN_EMPTY if num > 0 else Region.FROZEN_FULL


# -- particle-hole duality ---------------------------------------------------


def amplitude_inversion(c: float, dx: int, dt: int) -> tuple[float, int, float]:
    """Lattice transform trading amplitude c for 1/c.

    K_c(dx, dt) = scale * K_{1/c}(dx', dt) with dx' = -dx - dt and
    scale = c^dt; the arc side is unchanged.
    """
    return (1.0 / c, -dx - dt, c**dt)


def particle_hole_duality_residual(params: LimitKernelParams, dx: int, dt: int) -> float:
    """Residual of the particle-hole identity K = delta - K_hole-transformed.

    The hole-side kernel is evaluated independently on its own lattice and
    contour, then carried through the transformation chain (shear onto the
    integer lattice, sign gauge (-1)^dx, radial gauge c^-dx).  Requires even
    dt so that the shear lands on the integer lattice; amplitudes c > 1 are
    first reduced by the inversion transform.
    """
    if dt % 2 != 0:
        raise ValueError(f"duality shear needs even dt, got {dt}")
    c, phi = params.c, params.phi
    # Every power of c below, the kernels' included, can leave the float range at an extreme c.
    try:
        if c > 1.0:
            c_inv, dx_inv, _ = amplitude_inversion(c, dx, dt)
            return particle_hole_duality_residual(LimitKernelParams(c_inv, phi), dx_inv, dt)
        ours = extended_sine_kernel(params, dx, dt)
        psi = pi - phi
        if c == 1.0 and dt < 0 and psi == 0.0:
            raise PoleOnContourError("c = 1 with psi = 0 puts the hole-side pole on its arc")
        # The hole-side kernel, the arc integral of (1-w)^dt w^(dx-1) on the radius-c
        # circle (through +c when dt >= 0, -c when dt < 0), is c^dx times the
        # unit-circle integral at amplitude -c, by w = c v.
        side = Side.RIGHT if dt >= 0 else Side.LEFT
        raw = c**dx * arc_integral(-c, psi, dx, dt, side)
        transformed = (-1) ** dx * c ** (-dx) * raw
        delta = 1.0 if (dx == 0 and dt == 0) else 0.0
        return ours - (delta - transformed)
    except OverflowError:
        raise FloatRangeError(
            f"particle-hole duality residual at dx={dx}, dt={dt} (c={c}) is beyond the float range"
        ) from None


# -- convergence probe -------------------------------------------------------


@dataclass(frozen=True)
class ProbeCell:
    offset: tuple[int, int]
    prelimit: float
    limit: float

    @property
    def error(self) -> float:
        return abs(self.prelimit - self.limit)


@dataclass(frozen=True)
class ProbeRow:
    rho: float
    model: ModelParams
    t_base: int
    x_base: int
    x_repair: int
    cells: tuple[ProbeCell, ...]

    @property
    def max_error(self) -> float:
        return max(cell.error for cell in self.cells)

    def cell(self, offset: tuple[int, int]) -> ProbeCell:
        for c in self.cells:
            if c.offset == offset:
                return c
        raise KeyError(offset)


@dataclass(frozen=True)
class ProbeTable:
    params: LimitKernelParams
    rows: tuple[ProbeRow, ...]


def _round_half_up(value: float) -> int:
    return math.floor(value + 0.5)


def convergence_probe(
    regime: LimitRegime,
    offsets: list[tuple[int, int]],
    rhos: list[float],
) -> ProbeTable:
    """Gauge-aligned comparison of the finite kernel against its limit.

    For each scale rho the model is the rounded regime; the pre-limit kernel
    at offsets (dx, dt) around the base point is divided by the conjugation
    prefactor g^dt (g from the macroscopic location) and compared to the
    extended sine kernel, which does not depend on rho and is evaluated
    once per offset.  If the rounded base point violates a needed support,
    x is repaired within +-1 and the repair recorded.  Each row builds the
    bases of its window's slices itself and drops them when it ends, so the
    probe leaves ``slice_basis`` untouched.
    """
    params = limit_params(regime)
    x_dist, _, d3, d4 = regime.box_distances
    g = math.sqrt(
        d4 * d3 / ((regime.ttilde + regime.Ntilde) * (regime.Ttilde + regime.Ntilde - regime.ttilde))
    )
    limits: dict[tuple[int, int], float] = {}
    rows = []
    for rho in rhos:
        model = ModelParams(
            _round_half_up(rho * regime.Ntilde),
            _round_half_up(rho * regime.Stilde),
            _round_half_up(rho * regime.Ttilde),
        )
        t_base = _round_half_up(rho * regime.ttilde)
        x_round = _round_half_up(rho * regime.xtilde)
        dts = sorted({dt for _, dt in offsets})
        if not all(0 <= t_base + dt <= model.T for dt in dts):
            raise ValueError(f"offsets leave the time range at rho={rho}")

        def feasible(x0: int) -> bool:
            base_support = slice_params(model, t_base).support
            if any(x0 + dx not in base_support for dx, _ in offsets):
                return False
            return all(x0 in slice_params(model, t_base + dt).support for dt in dts)

        x_base = None
        for candidate in (x_round, x_round - 1, x_round + 1):
            if feasible(candidate):
                x_base = candidate
                break
        if x_base is None:
            raise ValueError(f"no feasible base point near x={x_round} at rho={rho}")
        bases = {t: _SliceBasis(model, t) for t in {t_base, *(t_base + dt for dt in dts)}}
        cells = []
        for dx, dt in offsets:
            p, q = (x_base + dx, t_base), (x_base, t_base + dt)
            pre = float(kernel_entry(model, p, q, bases[t_base], bases[q[1]]))
            aligned = pre / g**dt
            if (dx, dt) not in limits:
                limits[dx, dt] = extended_sine_kernel(params, dx, dt)
            cells.append(ProbeCell((dx, dt), aligned, limits[dx, dt]))
        rows.append(ProbeRow(rho, model, t_base, x_base, x_base - x_round, tuple(cells)))
    return ProbeTable(params, tuple(rows))
