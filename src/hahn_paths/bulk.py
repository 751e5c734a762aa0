"""Bulk scaling limit: sine kernels, frozen-region geometry, duality, convergence probes.

A macroscopic regime point (N~, S~, T~, t~, x~) determines an amplitude c
and an arc half-angle phi.  The limiting space-time kernel is a contour
integral over the right or left arc of the unit circle; the right arc is
traversed counterclockwise from angle -phi to phi, the left arc clockwise
from -phi down through the angle pi to phi - 2*pi (both "from e^{-i phi}
to e^{i phi}" through +1 resp. -1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from math import comb, pi, sin

from .combinatorics import ModelParams
from .errors import BoundaryRegimeError, PoleOnContourError, QuadratureError
from .hahn import slice_basis
from .kernels import extended_kernel

QUAD_TOL = 1e-12
QUAD_PANEL_CAP = 2**20
IMAG_REL_TOL = 1e-10
IMAG_ABS_FLOOR = 1e-12


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
        return (
            self.xtilde,
            self.Stilde + self.Ntilde - self.xtilde,
            self.ttilde + self.Ntilde - self.xtilde,
            self.xtilde + self.Ttilde - self.Stilde - self.ttilde,
        )


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


def arccos_argument(regime: LimitRegime) -> tuple[float, float]:
    """Numerator and (positive) denominator of the arccos argument D."""
    nt, st, tt = regime.Ntilde, regime.Stilde, regime.Ttilde
    t, x = regime.ttilde, regime.xtilde
    num = -nt * (nt + tt) + (st + nt - x) * (t + nt - x) + x * (tt + x - st - t)
    _, d2, d3, d4 = regime.box_distances
    prod = x * d2 * d3 * d4
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


def sine_kernel_static(phi: float, d: int) -> float:
    """Discrete sine kernel sin(phi d) / (pi d), with density phi/pi on the diagonal."""
    if d == 0:
        return phi / pi
    return sin(phi * d) / (pi * d)


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


def _check_real(value: complex) -> float:
    limit = IMAG_REL_TOL * abs(value) + IMAG_ABS_FLOOR
    if not abs(value.imag) < limit:
        raise QuadratureError(f"imaginary residue {value.imag} exceeds {limit}")
    return value.real


def arc_monomial(phi: float, m: int, side: Side) -> float:
    """Closed-form arc integral of w^(m-1): the building block of the kernel."""
    if side is Side.RIGHT:
        return phi / pi if m == 0 else sin(m * phi) / (pi * m)
    return phi / pi - 1.0 if m == 0 else sin(m * phi) / (pi * m)


def extended_sine_kernel(
    params: LimitKernelParams, dx: int, dt: int, side: Side | None = None
) -> float:
    """Limiting space-time kernel at lattice offsets dx = x-y, dt = t-s.

    For dt >= 0 the kernel is the binomial closed form; for dt < 0 it is the
    adaptive quadrature, checked to be real.
    """
    c, phi = params.c, params.phi
    if side is None:
        side = Side.RIGHT if dt <= 0 else Side.LEFT
    if c == 1.0 and dt < 0 and (side is Side.LEFT or phi == pi):
        raise PoleOnContourError(
            f"integrand pole at w=-1 lies on the {side.value} arc (c=1, dt={dt})"
        )
    if dt < 0:
        return _check_real(_unit_arc_integral(c, phi, dx, dt, side))
    return sum(comb(dt, k) * c**k * arc_monomial(phi, dx + k, side) for k in range(dt + 1))


# -- frozen-region geometry -------------------------------------------------


def ellipse_form(ntilde: float, stilde: float, ttilde: float, t: float, x: float) -> float:
    """The quadratic form whose negative set is the interior of the inscribed ellipse."""
    return (
        ttilde**2 * x**2
        + (stilde + ntilde) ** 2 * t**2
        + 2 * x * t * (ntilde * ttilde - stilde * ttilde - 2 * stilde * ntilde)
        + 2
        * t
        * (
            stilde * ntilde**2
            - ntilde * ttilde * stilde
            - ntilde**2 * ttilde
            + stilde**2 * ntilde
        )
        + 2 * x * (ntilde * ttilde * stilde - ntilde * ttilde**2)
        + ntilde**2 * (ttilde - stilde) ** 2
    )


def ellipse_classify(regime: LimitRegime) -> Region:
    """INSIDE on the closed ellipse; otherwise frozen, split by the sign of D."""
    form = ellipse_form(
        regime.Ntilde, regime.Stilde, regime.Ttilde, regime.ttilde, regime.xtilde
    )
    if form <= 0:
        return Region.INSIDE
    num, den = arccos_argument(regime)
    if den > 0:
        d_value = num / den
        if d_value >= 1.0 or (abs(d_value) < 1.0 and d_value > 0):
            return Region.FROZEN_EMPTY
        return Region.FROZEN_FULL
    if num == 0:
        raise BoundaryRegimeError(f"indeterminate frozen classification at {regime}")
    return Region.FROZEN_EMPTY if num > 0 else Region.FROZEN_FULL


def hexagon_side_lines(
    ntilde: float, stilde: float, ttilde: float
) -> list[tuple[str, float, float]]:
    """The six boundary lines of the admissible region in (t~, x~) coordinates.

    Each entry is ("t", c, 0) for the vertical line t~ = c, or
    ("x", p, q) for the line x~ = p t~ + q.
    """
    return [
        ("t", 0.0, 0.0),
        ("t", ttilde, 0.0),
        ("x", 0.0, 0.0),
        ("x", 0.0, stilde + ntilde),
        ("x", 1.0, ntilde),
        ("x", 1.0, stilde - ttilde),
    ]


def ellipse_tangency_discriminants(
    ntilde: float, stilde: float, ttilde: float
) -> list[float]:
    """Discriminant of the form restricted to each hexagon side (0 iff tangent)."""
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
    out = []
    for kind, p, q in hexagon_side_lines(ntilde, stilde, ttilde):
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


# -- particle-hole duality ---------------------------------------------------


def amplitude_inversion(c: float, dx: int, dt: int) -> tuple[float, int, float]:
    """Lattice transform trading amplitude c for 1/c.

    K_c(dx, dt) = scale * K_{1/c}(dx', dt) with dx' = -dx - dt and
    scale = c^dt; the arc side is unchanged.
    """
    return (1.0 / c, -dx - dt, c**dt)


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
    if c > 1.0:
        c_inv, dx_inv, _ = amplitude_inversion(c, dx, dt)
        return particle_hole_duality_residual(LimitKernelParams(c_inv, phi), dx_inv, dt)
    ours = extended_sine_kernel(params, dx, dt)
    psi = pi - phi
    if c == 1.0 and dt < 0 and psi == 0.0:
        raise PoleOnContourError("c = 1 with psi = 0 puts the hole-side pole on its arc")
    raw = _check_real(_hole_kernel_raw(c, psi, dx, dt))
    transformed = (-1) ** dx * c ** (-dx) * raw
    delta = 1.0 if (dx == 0 and dt == 0) else 0.0
    return ours - (delta - transformed)


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
    regime: LimitRegime
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
    x is repaired within +-1 and the repair recorded.
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
            base_support = slice_basis(model, t_base).support
            if any(x0 + dx not in base_support for dx, _ in offsets):
                return False
            return all(x0 in slice_basis(model, t_base + dt).support for dt in dts)

        x_base = None
        for candidate in (x_round, x_round - 1, x_round + 1):
            if feasible(candidate):
                x_base = candidate
                break
        if x_base is None:
            raise ValueError(f"no feasible base point near x={x_round} at rho={rho}")
        cells = []
        for dx, dt in offsets:
            pre = float(extended_kernel(model, (x_base + dx, t_base), (x_base, t_base + dt)))
            aligned = pre / g**dt
            if (dx, dt) not in limits:
                limits[dx, dt] = extended_sine_kernel(params, dx, dt)
            cells.append(ProbeCell((dx, dt), aligned, limits[dx, dt]))
        rows.append(ProbeRow(rho, model, t_base, x_base, x_base - x_round, tuple(cells)))
    return ProbeTable(regime, params, tuple(rows))
