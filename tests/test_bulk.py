import hashlib
import math
import random
from fractions import Fraction
from math import pi

import pytest

import oracles
from hahn_paths import (
    BoundaryRegimeError,
    CorrelationQuery,
    KernelMatrix,
    LimitKernelParams,
    LimitRegime,
    ModelParams,
    PoleOnContourError,
    PrecisionLossError,
    Region,
    Side,
    amplitude_inversion,
    convergence_probe,
    ellipse_classify,
    extended_kernel,
    extended_sine_kernel,
    limit_params,
    particle_hole_duality_residual,
    sine_kernel_static,
)
from hahn_paths import bulk
from hahn_paths.bulk import arc_integral, arc_monomial, arccos_argument
from hahn_paths.hahn import slice_basis
from oracles import (
    IMAG_ABS_FLOOR,
    IMAG_REL_TOL,
    QuadratureError,
    _check_real,
    _gauss_unit_arc_integral,
    _hole_kernel_raw,
    _unit_arc_integral,
    ellipse_tangency_discriminants,
    limit_tridiagonal,
)

CENTER = LimitRegime(1, 1, 2, 1, 1)
PROBE_OFFSETS = [(dx, dt) for dx in range(-3, 4) for dt in range(-2, 3)]
# SHA-256 of the exact sign and square of every kernel entry the probe of CENTER
# evaluates at rho = 20, 40, 80 (N up to 80), computed before the kernel was
# built from pair tables and recurrence columns.
PROBE_DIGEST = "a014c29b5be971ec4a2af395e71bbad02ff382732d01cafa432f402e1611d17e"
# SHA-256 of the repr of every prelimit float of the probe of CENTER and of
# 1,0.5,2,0.7,0.9 at rho = 20, 40, 80, and of the float kernel matrix of
# `kernel --model 20,20,40 --query 3:2,10:10,15:20,30:33`, computed before
# kernel entries were rounded to float without reducing their square.  The
# entries are rounded with integer arithmetic and math.sqrt; the prelimit
# then divides by g**dt.
PRELIMIT_DIGEST = "44290e9d4bbca2e3361bd356a3371bf21c9975bd957e199a8266f2feb2ec060c"


def test_limit_params_center():
    p = limit_params(CENTER)
    assert p.c == pytest.approx(1.0, abs=1e-14)
    num, den = arccos_argument(CENTER)
    assert num / den == pytest.approx(-0.5, abs=1e-14)
    assert p.phi == pytest.approx(2 * pi / 3, abs=1e-13)
    assert p.density == pytest.approx(2 / 3, abs=1e-13)


def test_limit_params_frozen_clamp():
    p = limit_params(LimitRegime(1, 1, 2, 1, 1.95))
    assert p.phi == 0.0
    # near the packed left edge, off the tangency point, every site is occupied
    p_full = limit_params(LimitRegime(1, 1, 2, 0.05, 0.1))
    assert p_full.phi == pytest.approx(pi)


def test_limit_params_symmetry_under_flip():
    for t, x in [(0.7, 0.9), (1.3, 1.2), (0.5, 0.8)]:
        a = LimitRegime(1, 1, 2, t, x)
        b = LimitRegime(1, 1, 2, 2 - t, 2 - x)
        pa, pb = limit_params(a), limit_params(b)
        assert pa.c == pytest.approx(pb.c, rel=1e-12)
        assert pa.phi == pytest.approx(pb.phi, rel=1e-12)


def test_limit_params_boundary_signal():
    with pytest.raises(BoundaryRegimeError):
        limit_params(LimitRegime(1, 1, 2, 1, 0.0))
    with pytest.raises(BoundaryRegimeError):
        limit_params(LimitRegime(1, 1, 2, 1, 2.0))


def test_limit_tridiagonal_center():
    a_diag, b_off = limit_tridiagonal(CENTER)
    assert a_diag == pytest.approx(-2.0)
    assert b_off == pytest.approx(1.0)
    # right spectral endpoint -A/(2B) equals 1 here (the c = 1 boundary case)
    assert -a_diag / (2 * b_off) == pytest.approx(1.0)


@pytest.mark.parametrize("shape", [(1, 1, 2), (1, 2, 3), (2, 1, 4)])
def test_limit_tridiagonal_endpoint_is_cos_phi(shape):
    nt, st, tt = shape
    n_checked = 0
    for i in range(1, 20):
        t = tt * i / 20
        for j in range(1, 40):
            x = (st + nt) * j / 40
            try:
                regime = LimitRegime(nt, st, tt, t, x)
                a_diag, b_off = limit_tridiagonal(regime)
                phi = limit_params(regime).phi
            except (ValueError, BoundaryRegimeError):
                continue
            endpoint = (-nt * (nt + tt) - a_diag) / (2 * b_off)
            assert math.cos(phi) == pytest.approx(max(-1.0, min(1.0, endpoint)), abs=1e-12)
            n_checked += 1
    assert n_checked > 300


def test_limit_tridiagonal_b_squared_symmetry():
    for t, x in [(0.6, 0.7), (1.1, 1.4)]:
        a = LimitRegime(1, 1, 2, t, x)
        b = LimitRegime(1, 1, 2, 2 - t, 2 - x)
        assert limit_tridiagonal(a)[1] == pytest.approx(limit_tridiagonal(b)[1], rel=1e-12)


def test_sine_kernel_static_values():
    assert sine_kernel_static(2 * pi / 3, 0) == pytest.approx(2 / 3)
    assert sine_kernel_static(pi, 3) == pytest.approx(0.0, abs=1e-15)
    assert sine_kernel_static(pi, 0) == pytest.approx(1.0)
    assert sine_kernel_static(pi / 2, 1) == pytest.approx(1 / pi)
    for d in range(1, 8):
        assert sine_kernel_static(1.1, d) == sine_kernel_static(1.1, -d)


def test_extended_sine_kernel_dt0_is_static():
    p = limit_params(CENTER)
    for dx in range(-10, 11):
        assert extended_sine_kernel(p, dx, 0, Side.RIGHT) == pytest.approx(
            sine_kernel_static(p.phi, dx), abs=1e-10
        )


def test_extended_sine_kernel_full_circle_residue():
    p = LimitKernelParams(0.7, pi)
    assert extended_sine_kernel(p, 0, 1, Side.RIGHT) == pytest.approx(1.0, abs=1e-10)


def test_left_arc_is_complementary():
    p = limit_params(CENTER)
    for dx in range(-4, 5):
        want = sine_kernel_static(p.phi, dx) - (1.0 if dx == 0 else 0.0)
        assert extended_sine_kernel(p, dx, 0, Side.LEFT) == pytest.approx(
            want, abs=1e-10
        )


def test_arc_monomial_partition_of_circle():
    for phi in (0.4, 1.5, 2.9):
        for m in range(-5, 6):
            right = arc_monomial(phi, m, Side.RIGHT)
            left_ccw = -arc_monomial(phi, m, Side.LEFT)
            total = right + left_ccw
            assert total == pytest.approx(1.0 if m == 0 else 0.0, abs=1e-14)


def test_binomial_equals_quadrature_positive_dt():
    # the closed form extended_sine_kernel returns for dt >= 0 against quadrature
    for c in (0.3, 1.0, 1.6, 3.0):
        for phi in (0.5, 2.0):
            p = LimitKernelParams(c, phi)
            for dt in (0, 1, 2, 3):
                for dx in range(-3, 4):
                    for side in (Side.RIGHT, Side.LEFT):
                        closed = extended_sine_kernel(p, dx, dt, side)
                        quad = _unit_arc_integral(c, phi, dx, dt, side)
                        assert abs(closed - quad.real) < 1e-10, (c, phi, dx, dt, side)
                        assert abs(quad.imag) < IMAG_REL_TOL * abs(quad) + IMAG_ABS_FLOOR


def test_check_real_rejects_imaginary_residue():
    assert _check_real(2.0 + 1e-18j) == 2.0
    with pytest.raises(QuadratureError):
        _check_real(1 + 1j)


def test_oracle_quadrature_panel_budget(monkeypatch):
    # The oracle gives up with its own error once it has used its panel budget.
    monkeypatch.setattr(oracles, "QUAD_PANEL_CAP", 1)
    with pytest.raises(QuadratureError, match="quadrature panel budget 1 exhausted"):
        _unit_arc_integral(1.0, 2 * pi / 3, 1, -2, Side.RIGHT)


@pytest.mark.parametrize("c", [0.3, -0.3, 0.9, -0.9, 1.6, -3.0])
def test_closed_form_equals_quadrature_negative_dt(c):
    # One case per branch of the dt < 0 partial fractions: |c| > 1 through
    # the amplitude inversion, dx <= 0 and dx >= 1, both arcs, both signs of
    # c, and an arc end near (phi = 2.9) and far from the pole.  The series
    # are checked at far offsets below.
    for phi in (1.0, 2.9):
        for side in (Side.RIGHT, Side.LEFT):
            for dx in (-4, -1, 0, 1, 2, 4):
                for dt in (-1, -3):
                    closed = arc_integral(c, phi, dx, dt, side)
                    quad = _check_real(_unit_arc_integral(c, phi, dx, dt, side))
                    assert abs(closed - quad) < 1e-12, (c, phi, side, dx, dt)


# About the widest support a limit run may probe under cli.LIMIT_MAX_SIDE.
FAR_DX = 2000


@pytest.mark.parametrize("c", [0.02, 0.3, 0.99, 1.0, 1.01, 3.0, 50.0])
def test_closed_form_far_offsets_accurate_or_refused(c):
    # Out to |dx| = FAR_DX and at amplitudes near the liquid region's edges
    # (c -> 0, 1, infinity), the dt < 0 closed form is within 1e-12 of
    # Gauss-Legendre quadrature, or it refuses with PrecisionLossError.
    refused = []
    for phi in (2.0, 2.9):
        for dx in (-FAR_DX, -60, 60, FAR_DX):
            for dt in (-1, -3):
                try:
                    closed = arc_integral(c, phi, dx, dt, Side.RIGHT)
                except PrecisionLossError:
                    refused.append((phi, dx, dt))
                    continue
                quad = _check_real(_gauss_unit_arc_integral(c, phi, dx, dt, Side.RIGHT))
                assert abs(closed - quad) < 1e-12, (c, phi, dx, dt, closed, quad)
    # Only |c| near 1 with the pole at w = -1/c 0.24 from the arc's end, at a
    # middle offset with |dt| > 1, defeats every form.
    want = [(2.9, -60, -3), (2.9, 60, -3)] if abs(c - 1.0) < 0.05 else []
    assert refused == want, (c, refused)


def _must_not_run(*args):
    raise AssertionError(f"a later form ran for {args}")


@pytest.mark.parametrize(
    "case, later_forms",
    [
        # partial fractions at dx <= 0
        ((0.9, 1.0, -4, -3, Side.LEFT), ("_endpoint_series", "_w_series")),
        # 0.02^(1-dx) rules out partial fractions; the endpoint series answers
        ((0.02, 2.0, 60, -3, Side.RIGHT), ("_w_series",)),
        # c = 1 at dx = -300: the endpoint series after the inversion to dx = 303
        ((1.0, 2.0, -300, -3, Side.RIGHT), ("_w_series",)),
        # min|u| = 0.33 at the arc's end keeps the endpoint remainder from
        # shrinking, so the w-series answers
        ((0.7, 2.9, 30, -2, Side.RIGHT), ()),
        # the pole 0.1 from the left arc's middle leaves only the w-series
        ((0.9, 1.0, 60, -3, Side.LEFT), ()),
    ],
)
def test_each_form_answers_its_case(monkeypatch, case, later_forms):
    for name in later_forms:
        monkeypatch.setattr(bulk, name, _must_not_run)
    closed = arc_integral(*case)
    quad = _check_real(_gauss_unit_arc_integral(*case))
    assert abs(closed - quad) < 1e-12, (case, closed, quad)


@pytest.mark.parametrize("side", list(Side))
def test_unit_offset_past_the_partial_fractions_takes_the_endpoint_series(monkeypatch, side):
    # At dx = 1, dt = -1 and c = 1e-5 the partial fractions' bound of 2.2e-11
    # refuses them, and the endpoint series answers at m = dx = 1.  Sending
    # dx = 1 through the inversion instead asks it for m = 0.
    monkeypatch.setattr(bulk, "_w_series", _must_not_run)
    closed = arc_integral(1e-5, 2.0, 1, -1, side)
    quad = _check_real(_unit_arc_integral(1e-5, 2.0, 1, -1, side))
    assert abs(closed - quad) < 1e-12, (closed, quad)


def test_precision_loss_names_the_case():
    with pytest.raises(PrecisionLossError, match=r"c=1.0, phi=2.9, dx=60, dt=-3 \(right arc\)"):
        arc_integral(1.0, 2.9, 60, -3, Side.RIGHT)
    with pytest.raises(PrecisionLossError):
        extended_sine_kernel(LimitKernelParams(1.0, 2.9), -60, -3)
    # The bound, not the size estimate that picks the forms, decides: the
    # partial fractions run here and are refused, as is a binomial sum whose
    # terms reach 50^5 around a result of 3e4.
    with pytest.raises(PrecisionLossError):
        arc_integral(1.0, 2.5, -11, -5, Side.RIGHT)
    with pytest.raises(PrecisionLossError):
        arc_integral(50.0, 2.9, 60, 5, Side.RIGHT)


def test_closed_form_zero_and_full_arcs():
    # An arc of zero length integrates to 0; the full circle gives the residues.
    for c in (0.5, -0.5, 2.0, -2.0):
        for dx in range(-2, 3):
            assert arc_integral(c, 0.0, dx, -2, Side.RIGHT) == 0.0
            assert arc_integral(c, pi, dx, -2, Side.LEFT) == 0.0
            full = arc_integral(c, pi, dx, -2, Side.RIGHT)
            quad = _check_real(_unit_arc_integral(c, pi, dx, -2, Side.RIGHT))
            assert abs(full - quad) < 1e-12, (c, dx)
            backwards = arc_integral(c, 0.0, dx, -2, Side.LEFT)
            assert abs(backwards + full) < 1e-12, (c, dx)


@pytest.mark.parametrize("c", [0.3, 0.9, 1.0])
def test_hole_kernel_closed_form_equals_quadrature(c):
    # w = c v turns the hole-side integral into c^dx times the arc integral at -c:
    # the binomial sum on the right arc (dt >= 0) and, on the left arc, each
    # dt < 0 branch, up to the c = 1 circle whose pole at w = 1 stays off the arc.
    for psi in (1.0, 2.9):
        for dx in (-3, 0, 1, 3):
            for dt in (-3, -1, 2):
                side = Side.RIGHT if dt >= 0 else Side.LEFT
                closed = c**dx * arc_integral(-c, psi, dx, dt, side)
                quad = _check_real(_hole_kernel_raw(c, psi, dx, dt))
                assert abs(closed - quad) < 1e-12, (c, psi, dx, dt)


def test_negative_dt_quadrature():
    p = LimitKernelParams(0.6, 1.8)
    v = extended_sine_kernel(p, 1, -2)
    assert math.isfinite(v)


def test_pole_on_contour_signal():
    with pytest.raises(PoleOnContourError):
        extended_sine_kernel(LimitKernelParams(1.0, 1.2), 0, -1, Side.LEFT)
    with pytest.raises(PoleOnContourError):
        extended_sine_kernel(LimitKernelParams(1.0, pi), 0, -1, Side.RIGHT)
    # c < 1 keeps the pole off the unit circle
    assert math.isfinite(extended_sine_kernel(LimitKernelParams(0.9, 1.2), 0, -1, Side.LEFT))


def test_ellipse_polynomial_is_squared_arccos_deficit():
    # The oracle's tangency polynomial is num^2 - den^2 = num^2 - 4 prod as a
    # polynomial, so the six-side tangency checks test the classifier's form.
    assert oracles.ellipse_polynomial(1, 1, 2, 1, 1) == -3
    rng = random.Random(18)
    for _ in range(300):
        values = [Fraction(rng.randrange(-400, 400), rng.randrange(1, 40)) for _ in range(5)]
        num, prod = bulk._arccos_parts(*values)
        assert oracles.ellipse_polynomial(*values) == num * num - 4 * prod, values


def test_ellipse_classification():
    assert ellipse_classify(CENTER) is Region.INSIDE
    assert ellipse_classify(LimitRegime(1, 1, 2, 1, 1.95)) is Region.FROZEN_EMPTY
    # below the ellipse at mid-time no particles remain
    assert ellipse_classify(LimitRegime(1, 1, 2, 1, 0.05)) is Region.FROZEN_EMPTY
    # the ellipse is tangent to the left edge at its midpoint
    assert ellipse_classify(LimitRegime(1, 1, 2, 0.05, 0.5)) is Region.INSIDE
    # off the tangency point the packed left edge is full
    assert ellipse_classify(LimitRegime(1, 1, 2, 0.05, 0.1)) is Region.FROZEN_FULL
    assert ellipse_classify(LimitRegime(1, 1, 2, 0.05, 0.9)) is Region.FROZEN_FULL


def test_inside_interval_at_center_time():
    lo = 1 - math.sqrt(3) / 2
    hi = 1 + math.sqrt(3) / 2
    eps = 1e-6
    assert ellipse_classify(LimitRegime(1, 1, 2, 1, lo + eps)) is Region.INSIDE
    assert ellipse_classify(LimitRegime(1, 1, 2, 1, hi - eps)) is Region.INSIDE
    assert ellipse_classify(LimitRegime(1, 1, 2, 1, lo - eps)) is not Region.INSIDE
    assert ellipse_classify(LimitRegime(1, 1, 2, 1, hi + eps)) is not Region.INSIDE


def test_classification_consistent_with_phi():
    for t in (0.3, 0.9, 1.5):
        for x in (0.2, 0.8, 1.3, 1.9):
            try:
                reg = LimitRegime(1, 1, 2, t, x)
            except ValueError:
                continue
            region = ellipse_classify(reg)
            try:
                phi = limit_params(reg).phi
            except BoundaryRegimeError:
                continue
            if region is Region.FROZEN_EMPTY:
                assert phi == 0.0
            elif region is Region.FROZEN_FULL:
                assert phi == pi


@pytest.mark.parametrize("shape", [(1, 1, 2), (1, 2, 3), (2, 1, 4)])
def test_tangency_discriminants(shape):
    for disc in ellipse_tangency_discriminants(*shape):
        assert abs(disc) < 1e-9


def test_particle_hole_duality_examples():
    p = limit_params(CENTER)
    assert particle_hole_duality_residual(p, 0, 0) == pytest.approx(0.0, abs=1e-10)
    for dx in (1, 2, 3):
        assert particle_hole_duality_residual(p, dx, 0) == pytest.approx(0.0, abs=1e-10)


def test_particle_hole_duality_grid():
    for c in (0.3, 0.7):
        for phi in (0.5, 1.5, 2.5):
            p = LimitKernelParams(c, phi)
            for dx in range(-3, 4):
                for dt in (-2, 0, 2):
                    assert abs(particle_hole_duality_residual(p, dx, dt)) < 1e-10


def test_particle_hole_duality_requires_even_dt():
    with pytest.raises(ValueError):
        particle_hole_duality_residual(LimitKernelParams(0.5, 1.0), 0, 1)


def test_particle_hole_duality_inverts_large_amplitude():
    assert abs(particle_hole_duality_residual(LimitKernelParams(1.7, 1.5), 1, 2)) < 1e-10


def test_amplitude_inversion_identity():
    phi = 1.1
    for c in (0.4, 0.8, 1.6):
        for dx in range(-2, 3):
            for dt in (-2, -1, 0, 1, 2):
                c_inv, dx_inv, scale = amplitude_inversion(c, dx, dt)
                k1 = extended_sine_kernel(LimitKernelParams(c, phi), dx, dt)
                k2 = extended_sine_kernel(LimitKernelParams(c_inv, phi), dx_inv, dt)
                assert k1 == pytest.approx(scale * k2, abs=1e-9)


def test_regime_validation():
    with pytest.raises(ValueError):
        LimitRegime(1, 3, 2, 1, 1)  # S > T
    with pytest.raises(ValueError):
        LimitRegime(1, 1, 2, 3, 1)  # t out of range
    with pytest.raises(ValueError):
        LimitRegime(1, 1, 2, 1, 2.5)  # x above the box


def test_convergence_probe_small():
    offsets = [(dx, dt) for dx in (-1, 0, 1) for dt in (-1, 0, 1)]
    table = convergence_probe(CENTER, offsets, [4, 8])
    errs = [row.max_error for row in table.rows]
    assert errs[0] > errs[1]
    assert table.rows[0].model == ModelParams(4, 4, 8)
    center = table.rows[1].cell((0, 0))
    assert center.limit == pytest.approx(2 / 3, abs=1e-12)
    assert abs(center.prelimit - 2 / 3) < 0.05


RATE_RHOS = [20, 40, 80, 160, 320]


def test_bulk_limit_error_is_order_one_over_rho_at_the_symmetric_regime():
    # Measured over the 35 default offsets: rho * max_error is 0.299, 0.310,
    # 0.316, 0.319 and 0.320 at rho = 20 ... 320, and the Richardson
    # combination 2 K(2 rho) - K(rho) misses the limit by 1.81e-5 at
    # 160 -> 320.  The band and the bound leave a margin of about 0.02 and
    # of 1.7x.
    rows = convergence_probe(CENTER, PROBE_OFFSETS, RATE_RHOS).rows
    for row in rows:
        assert 0.28 <= row.rho * row.max_error <= 0.34, row.rho
    coarse, fine = rows[-2], rows[-1]
    richardson = max(
        abs(2 * b.prelimit - a.prelimit - b.limit) for a, b in zip(coarse.cells, fine.cells)
    )
    assert richardson < 3e-5


@pytest.mark.parametrize(
    "regime", [LimitRegime(1, 0.5, 2, 0.7, 0.9), LimitRegime(2, 1, 3, 1.5, 1.4)], ids=str
)
def test_bulk_limit_error_is_at_most_one_over_rho_off_the_symmetric_regime(regime):
    # Measured: rho * max_error stays at or below 0.83 and 0.31 up to
    # rho = 320, though not smoothly (see the rate table in CHANGES.md).
    for row in convergence_probe(regime, PROBE_OFFSETS, RATE_RHOS).rows:
        assert row.rho * row.max_error <= 1.0, row.rho


def test_probe_rows_at_odd_rho_hold_their_own_bases():
    # Measured: rho * max_error is 0.2661 and 0.2666 at rho = 81 and 161,
    # against 0.3155 and 0.3185 at rho = 80 and 160.  Each row builds the
    # bases of its 5-slice window itself, and a basis reads no other, so the
    # probe leaves the shared cache untouched.
    before = slice_basis.cache_info()
    rows = convergence_probe(CENTER, PROBE_OFFSETS, [81, 161]).rows
    assert slice_basis.cache_info() == before
    for row in rows:
        assert 0.26 <= row.rho * row.max_error <= 0.27, row.rho


def test_probe_error_alternates_with_the_parity_of_rho_at_half_filling():
    # At the symmetric regime nu = 1/2, so the 1/rho correction has the phase
    # pi rho and rho (prelimit - limit) flips sign with the parity of rho.
    # Measured at (0, 0) for rho = 20 ... 29: +0.0889 ... +0.0897 at even rho,
    # -0.0949 ... -0.0940 at odd rho.
    offsets = [(0, 0), (1, 0), (0, 1), (1, -1)]
    rows = convergence_probe(CENTER, offsets, list(range(20, 30))).rows
    for offset in offsets:
        errors = [row.rho * (row.cell(offset).prelimit - row.cell(offset).limit) for row in rows]
        even_sign = errors[0] > 0
        for row, error in zip(rows, errors):
            assert error and (error > 0) == (even_sign == (row.rho % 2 == 0)), (offset, row.rho)
    center = [row.rho * (row.cell((0, 0)).prelimit - row.cell((0, 0)).limit) for row in rows]
    assert all(0.088 <= e <= 0.090 for e in center[0::2]), center
    assert all(-0.0955 <= e <= -0.0935 for e in center[1::2]), center


def test_convergence_probe_frozen_point():
    reg = LimitRegime(1, 1, 2, 1, 1.95)
    table = convergence_probe(reg, [(0, 0)], [40])
    assert table.rows[0].cell((0, 0)).prelimit < 0.02
    assert table.params.density == 0.0


@pytest.mark.parametrize(
    "regime, dts",
    [(LimitRegime(1, 1, 2, 0.05, 0.5), (-2, -1)), (LimitRegime(1, 1, 2, 1.95, 1.5), (1, 2))],
    ids=["near t=0", "near t=T"],
)
def test_convergence_probe_checks_one_sided_offsets_against_the_time_range(regime, dts):
    # At rho = 20 the base time is 1 or 39 of T = 40.  Offsets on one side
    # only reach t = -1 or t = 41 and are refused; the mirrored offsets stay
    # inside and give a row.  Symmetric offsets cannot tell t_base + dt from
    # t_base - dt.
    with pytest.raises(ValueError, match="offsets leave the time range at rho=20"):
        convergence_probe(regime, [(0, dt) for dt in dts], [20])
    row = convergence_probe(regime, [(0, -dt) for dt in dts], [20]).rows[0]
    assert [cell.offset for cell in row.cells] == [(0, -dt) for dt in dts]


def test_probe_kernel_entries_are_pinned():
    table = convergence_probe(CENTER, PROBE_OFFSETS, [20, 40, 80])
    digest = hashlib.sha256()
    for row in table.rows:
        for dx, dt in PROBE_OFFSETS:
            p, q = (row.x_base + dx, row.t_base), (row.x_base, row.t_base + dt)
            value = extended_kernel(row.model, p, q)
            sq = value.square()
            digest.update(f"{p};{q}:{value.sign}:{sq.numerator}/{sq.denominator}\n".encode())
    assert digest.hexdigest() == PROBE_DIGEST


def test_prelimit_and_kernel_floats_are_pinned():
    digest = hashlib.sha256()
    for regime in (CENTER, LimitRegime(1, 0.5, 2, 0.7, 0.9)):
        for row in convergence_probe(regime, PROBE_OFFSETS, [20, 40, 80]).rows:
            for cell in row.cells:
                digest.update(f"{row.rho};{cell.offset}:{cell.prelimit!r}\n".encode())
    query = CorrelationQuery(((3, 2), (10, 10), (15, 20), (30, 33)))
    for row in KernelMatrix.build(ModelParams(20, 20, 40), query).float_entries():
        digest.update((",".join(map(repr, row)) + "\n").encode())
    assert digest.hexdigest() == PRELIMIT_DIGEST
