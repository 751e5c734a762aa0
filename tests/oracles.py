"""Test oracles: quadrature of the arc integrals that the library evaluates in closed form.

The library's ``bulk.arc_integral`` is a finite formula; these functions
integrate the same contour integrands numerically, so the tests can check
the formula against an independent computation.  Adaptive Simpson serves
short offsets; composite Gauss-Legendre, one panel per oscillation, serves
offsets in the thousands, where the adaptive oracle runs out of panels.
"""

from __future__ import annotations

import cmath
import math
from math import cos, pi

from hahn_paths import Side

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
