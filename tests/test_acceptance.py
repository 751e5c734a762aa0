"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; exact criteria compare Fractions.
"""

from __future__ import annotations

import hashlib
import random
import time
from fractions import Fraction
from itertools import combinations
from math import pi

from conftest import sweep_models
from hahn_paths import (
    LimitKernelParams,
    LimitRegime,
    ModelParams,
    Region,
    Side,
    convergence_probe,
    correlation,
    ellipse_classify,
    limit_params,
    particle_hole_duality_residual,
    sample_trajectory,
    sine_kernel_static,
    slice_distribution,
    slice_params,
    static_kernel,
    transfer_matrix,
    transition_probability,
)
from hahn_paths.bulk import _round_half_up, arc_integral, arccos_argument
from hahn_paths.errors import DegenerateParameterError
from hahn_paths.hahn import slice_basis
from hahn_paths.process import _transition_table
from oracles import (
    _unit_arc_integral,
    contiguous_relation_residuals,
    difference_relation_residual,
    dual_orthogonality_residual,
    ellipse_tangency_discriminants,
    enumerate_path_families,
    oracle_tables,
    transfer_matrix_series,
    transition_probability_determinantal,
)

SWEEP = sweep_models(3, 6)

MC_SEED = 20260808
MC_SAMPLES = 100_000
MC_DIGEST = "598168f8a5f7a924f42f1b6783052dea7f94bbbb5fc24f170c1489bdc38d87f3"

FROZEN_MARGIN = 1.05  # points with |arccos argument| >= this count as clearly frozen


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _points(model: ModelParams):
    return [
        (x, t)
        for t in range(model.T + 1)
        for x in slice_basis(model, t).support
    ]


def test_criterion_1_oracle_equivalence():
    """Every 1- and 2-point correlation equals the enumeration oracle, exactly."""
    start = time.time()
    n_queries = 0
    for model in SWEEP:
        total, singles, pairs = oracle_tables(model)
        pts = _points(model)
        for p in pts:
            assert correlation(model, [p]) == Fraction(singles[p], total), (model, p)
            n_queries += 1
        for p, q in combinations(sorted(pts), 2):
            det = correlation(model, [p, q])
            assert det == Fraction(pairs[(p, q)], total), (model, p, q)
            assert 0 <= det <= 1
            n_queries += 1
    elapsed = time.time() - start
    _report(
        1,
        elapsed < 300,
        f"{n_queries} space-time queries across {len(SWEEP)} models match the "
        f"enumeration oracle exactly ({elapsed:.1f}s < 300s)",
    )


def test_criterion_2_identity_suite():
    """Contiguous relations, dual orthogonality, difference relation, transfer
    matrix series, and Chapman-Kolmogorov, all exact across the sweep."""
    n_checks = 0
    seen_contiguous: set = set()
    seen_dual: set = set()
    seen_difference: set = set()
    for model in SWEEP:
        for t in range(model.T + 1):
            p = slice_params(model, t)
            key = (p.alpha, p.beta, p.M, p.shift)
            if key not in seen_contiguous:
                seen_contiguous.add(key)
                for k in range(p.M):
                    for x in range(p.support_lo, p.support_hi + 1):
                        try:
                            r1, r2 = contiguous_relation_residuals(model, t, k, x)
                        except DegenerateParameterError:
                            continue
                        assert r1 == 0 and r2 == 0, (model, t, k, x)
                        n_checks += 1
            dual_key = (p.alpha, p.beta, p.M)
            if dual_key not in seen_dual and p.M <= 6:
                seen_dual.add(dual_key)
                for x in range(p.M + 1):
                    for y in range(x, p.M + 1):
                        assert dual_orthogonality_residual(p.alpha, p.beta, p.M, x, y) == 0
                        n_checks += 1
            if key not in seen_difference:
                seen_difference.add(key)
                for k in range(p.M + 1):
                    for x in range(p.support_lo, p.support_hi + 1):
                        assert difference_relation_residual(model, t, k, x) == 0
                        n_checks += 1
        for t in range(model.T):
            sup_t = list(slice_basis(model, t).support)
            sup_n = list(slice_basis(model, t + 1).support)
            for x in sup_t:
                for y in sup_n:
                    assert transfer_matrix(model, t, x, y) == transfer_matrix_series(
                        model, t, x, y
                    ), (model, t, x, y)
                    n_checks += 1
            # Chapman-Kolmogorov via the exact transition tables
            arriving: dict = {}
            for x in combinations(sup_t, model.N):
                px = slice_distribution(model, t, x)
                if px == 0:
                    continue
                candidates, cum = _transition_table(model, t, x)
                prev = 0
                for y, acc in zip(candidates, cum):
                    weight = Fraction(acc - prev, cum[-1])
                    arriving[y] = arriving.get(y, Fraction(0)) + px * weight
                    prev = acc
            for y, mass in arriving.items():
                assert mass == slice_distribution(model, t + 1, y), (model, t, y)
                n_checks += 1
    _report(2, True, f"{n_checks} exact identities hold across the sweep")


def test_criterion_3_transition_law():
    """Product form == determinantal form, exactly; rows sum to one."""
    rng = random.Random(3)
    n_checks = 0
    for model in SWEEP:
        for t in range(model.T):
            sup_t = list(slice_basis(model, t).support)
            sup_n = list(slice_basis(model, t + 1).support)
            next_configs = list(combinations(sup_n, model.N))
            for x in combinations(sup_t, model.N):
                row = Fraction(0)
                reachable = set()
                for mask in range(2**model.N):
                    y = tuple(x[i] + ((mask >> i) & 1) for i in range(model.N))
                    if any(b <= a for a, b in zip(y, y[1:])):
                        continue
                    if any(v not in slice_basis(model, t + 1).support for v in y):
                        continue
                    reachable.add(y)
                    p_prod = transition_probability(model, t, x, y)
                    p_det = transition_probability_determinantal(model, t, x, y)
                    assert p_prod == p_det, (model, t, x, y)
                    row += p_prod
                    n_checks += 1
                assert row == 1, (model, t, x)
                unreachable = [y for y in next_configs if y not in reachable]
                for y in rng.sample(unreachable, min(2, len(unreachable))):
                    assert transition_probability(model, t, x, y) == 0
                    assert transition_probability_determinantal(model, t, x, y) == 0
                    n_checks += 1
    _report(3, True, f"{n_checks} transitions agree in both forms with unit row sums")


def test_criterion_4_monte_carlo():
    """(4,4,8) with 1e5 trajectories: all t in {2,4,6} marginals within 3 sigma;
    the sampled stream is byte-for-byte reproducible."""
    model = ModelParams(4, 4, 8)
    digest = hashlib.sha256()
    counts = {t: {} for t in (2, 4, 6)}
    for k in range(MC_SAMPLES):
        traj = sample_trajectory(model, seed=MC_SEED + k)
        for t in counts:
            for x in traj.positions[t]:
                counts[t][x] = counts[t].get(x, 0) + 1
        digest.update(
            ",".join("".join(map(str, traj.moves(i))) for i in range(model.N)).encode()
        )
        digest.update(b"\n")
    assert digest.hexdigest() == MC_DIGEST, "sampled stream changed byte-for-byte"
    worst = 0.0
    for t in counts:
        for x in slice_basis(model, t).support:
            p = float(static_kernel(model, t, x, x).as_rational())
            phat = counts[t].get(x, 0) / MC_SAMPLES
            sigma = (p * (1 - p) / MC_SAMPLES) ** 0.5
            assert abs(phat - p) <= 3 * sigma, (t, x, p, phat)
            worst = max(worst, abs(phat - p) / sigma)
    _report(
        4,
        True,
        f"{MC_SAMPLES} trajectories reproduce kernel marginals "
        f"(max |z| = {worst:.2f} < 3) with frozen digest {MC_DIGEST[:12]}...",
    )


def test_criterion_5_bulk_convergence():
    """Gauge-aligned kernel errors shrink with rho and the density approaches 2/3."""
    start = time.time()
    regime = LimitRegime(1, 1, 2, 1, 1)
    offsets = [(dx, dt) for dx in range(-3, 4) for dt in range(-2, 3)]
    table = convergence_probe(regime, offsets, [20, 40, 80])
    errors = [row.max_error for row in table.rows]
    assert errors[0] >= errors[1] >= errors[2], errors
    assert errors[2] < 0.05, errors
    density = table.rows[2].cell((0, 0)).prelimit
    assert abs(density - 2 / 3) < 0.03, density
    elapsed = time.time() - start
    _report(
        5,
        elapsed < 600,
        f"max errors {['%.4f' % e for e in errors]} non-increasing, "
        f"density at rho=80 is {density:.4f} (within 0.03 of 2/3), "
        f"{elapsed:.1f}s < 600s",
    )


def test_criterion_6_frozen_regions():
    """Sampled frozen points have density exactly 0/1, matched at rho=60;
    the ellipse is tangent to all six hexagon sides for three shapes."""
    rng = random.Random(6)
    shape = (1.0, 1.0, 2.0)
    points: list[LimitRegime] = []
    while len(points) < 100:
        t = rng.uniform(0.0, shape[2])
        lo = max(0.0, t + shape[1] - shape[2])
        hi = min(t, shape[1]) + shape[0]
        x = rng.uniform(lo, hi)
        regime = LimitRegime(*shape, t, x)
        if ellipse_classify(regime) is Region.INSIDE:
            continue
        num, den = arccos_argument(regime)
        if den == 0 or abs(num / den) < FROZEN_MARGIN:
            continue
        points.append(regime)
    rho = 60
    model = ModelParams(60, 60, 120)
    worst = 0.0
    for regime in points:
        density = limit_params(regime).density
        assert density in (0.0, 1.0), regime
        region = ellipse_classify(regime)
        assert (region is Region.FROZEN_EMPTY) == (density == 0.0), regime
        t = _round_half_up(rho * regime.ttilde)
        x = _round_half_up(rho * regime.xtilde)
        p = slice_basis(model, t).params
        x = min(max(x, p.support_lo), p.support_hi)
        prelimit = float(static_kernel(model, t, x, x).as_rational())
        worst = max(worst, abs(prelimit - density))
    assert worst < 0.05, worst
    worst_disc = 0.0
    for shape3 in [(1.0, 1.0, 2.0), (1.0, 2.0, 3.0), (2.0, 1.0, 4.0)]:
        for disc in ellipse_tangency_discriminants(*shape3):
            worst_disc = max(worst_disc, abs(disc))
    assert worst_disc < 1e-9, worst_disc
    _report(
        6,
        True,
        f"100 frozen points exact (max density error {worst:.4f} < 0.05 at rho=60); "
        f"six-side tangency discriminants < 1e-9 (max {worst_disc:.1e})",
    )


def test_criterion_7_quadrature_cross_checks():
    """Static arc integrals match sin(phi d)/(pi d); binomial == quadrature;
    imaginary residues below 1e-10.  The dt < 0 closed form is checked against
    the same oracle in tests/test_bulk.py."""
    worst_static = 0.0
    worst_imag = 0.0
    for phi in (0.3, pi / 2, 2 * pi / 3, 3.0):
        for d in range(-10, 11):
            raw = _unit_arc_integral(1.0, phi, d, 0, Side.RIGHT)
            want = sine_kernel_static(phi, d)
            worst_static = max(worst_static, abs(raw.real - want))
            worst_imag = max(worst_imag, abs(raw.imag))
    assert worst_static < 1e-10, worst_static
    worst_binomial = 0.0
    for c in (0.3, 0.7, 1.0):
        for phi in (0.3, pi / 2, 2 * pi / 3, 3.0):
            for dt in (1, 2, 3):
                for dx in range(-3, 4):
                    for side in (Side.RIGHT, Side.LEFT):
                        raw = _unit_arc_integral(c, phi, dx, dt, side)
                        worst_imag = max(worst_imag, abs(raw.imag))
                        closed = arc_integral(c, phi, dx, dt, side)
                        worst_binomial = max(worst_binomial, abs(closed - raw.real))
    assert worst_binomial < 1e-10, worst_binomial
    assert worst_imag < 1e-10, worst_imag
    _report(
        7,
        True,
        f"static arc error {worst_static:.1e}, binomial-vs-quadrature "
        f"{worst_binomial:.1e}, imaginary residue {worst_imag:.1e}, all < 1e-10",
    )


def test_criterion_8_particle_hole_duality():
    """Particle-hole residual below 1e-10 on the stated (c, phi, dx, dt) grid."""
    worst = 0.0
    n_checks = 0
    for c in (0.3, 0.7, 1.0):
        for phi in (0.5, 1.5, 2.5):
            params = LimitKernelParams(c, phi)
            for dx in range(-3, 4):
                for dt in (-2, 0, 2):
                    if c == 1.0 and dt > 0:
                        continue  # right-side cases only at c = 1
                    worst = max(worst, abs(particle_hole_duality_residual(params, dx, dt)))
                    n_checks += 1
    assert worst < 1e-10, worst
    _report(8, True, f"{n_checks} duality residuals, max {worst:.1e} < 1e-10")


def test_criterion_9_counting():
    """Determinant count == enumeration across the sweep; hexagon b/c symmetry."""
    for model in SWEEP:
        assert model.family_count() == len(enumerate_path_families(model)), model
    n_sym = 0
    for a in range(1, 5):
        for b in range(1, 5):
            for c in range(1, 5):
                assert (
                    ModelParams(a, b, b + c).family_count()
                    == ModelParams(a, c, b + c).family_count()
                ), (a, b, c)
                n_sym += 1
    _report(
        9,
        True,
        f"determinant equals enumeration on {len(SWEEP)} models; "
        f"{n_sym} hexagon b/c symmetries hold",
    )
