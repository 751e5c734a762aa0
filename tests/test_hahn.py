import math
from fractions import Fraction

import pytest

from conftest import small_sweep, sweep_models
from hahn_paths import (
    DegenerateParameterError,
    ModelParams,
    SignedSqrt,
    orthonormal_function,
    slice_params,
    slice_weight,
)
from hahn_paths import hahn
from hahn_paths.hahn import _SliceBasis, _norm_ratio, _recurrence_coefficients, slice_basis
from hahn_paths.process import _normalization
from oracles import (
    Case,
    ParameterRegimeError,
    _hahn_norm2_signed,
    _pochhammer_weight,
    leading_coefficient,
    admissible_cases,
    case_params,
    param_tuple,
    contiguous_relation_residuals,
    coupling_coefficient_sq,
    difference_relation_residual,
    dual_orthogonality_residual,
    fraction_column,
    hahn_norm2,
    hahn_q,
)


def test_slice_params_examples():
    m = ModelParams(1, 1, 2)
    mid = slice_params(m, 1)
    # boundary time: cases I and II both apply and coincide
    assert param_tuple(mid) == (1, -2, -2, 0)
    assert admissible_cases(m, 1)[0] in (Case.I, Case.II)
    assert case_params(m, 1, Case.I) == case_params(m, 1, Case.II) == param_tuple(mid)

    start = slice_params(m, 0)
    assert admissible_cases(m, 0)[0] is Case.I
    assert (start.M, start.support_lo, start.support_hi) == (0, 0, 0)
    assert case_params(m, 0, Case.I) == param_tuple(start)
    end = slice_params(m, 2)
    assert admissible_cases(m, 2)[0] is Case.IV
    assert (end.M, end.shift) == (0, 1)
    assert (end.support_lo, end.support_hi) == (1, 1)
    assert case_params(m, 2, Case.IV) == param_tuple(end)


def test_slice_params_case_structure():
    m = ModelParams(2, 4, 6)  # S > T - S: case III region in the middle
    for t, case in ((1, Case.I), (3, Case.III), (5, Case.IV)):
        assert admissible_cases(m, t)[0] is case
        assert param_tuple(slice_params(m, t)) == case_params(m, t, case)
    with pytest.raises(ValueError):
        slice_params(m, 7)


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_boundary_cases_agree(model):
    for t in range(model.T + 1):
        cases = admissible_cases(model, t)
        params = {case_params(model, t, case) for case in cases}
        assert params == {param_tuple(slice_params(model, t))}


def test_slice_identities_sweep():
    # Facts slice_params and extended_kernel rely on without checking them,
    # over N <= 8, S <= T <= 16 (1216 models), from parameters alone.
    for model in sweep_models(8, 16):
        N, S, T = model.N, model.S, model.T
        dims = []
        for t in range(T + 1):
            p = slice_params(model, t)
            # The closed form is every admissible case of the four-case table.
            for case in admissible_cases(model, t):
                assert case_params(model, t, case) == param_tuple(p), (model, t, case)
            assert (p.shift, p.shift + p.M) == (max(0, t + S - T), min(t, S) + N - 1)
            dims.append(p.M)
            # Every recurrence step a column takes has d > 0, which keeps the
            # column's denominator least (_recurrence_coefficients raises on
            # d <= 0 or a zero denominator of A_n).
            for n in range(p.M):
                assert _recurrence_coefficients(n, p.alpha, p.beta, p.M)[3] > 0
            # No factor of a norm ratio is zero (_SliceBasis.kernel_factors raises
            # DegenerateParameterError on one).
            for k in range(1, p.M + 1):
                num, den = _norm_ratio(k, p.alpha, p.beta, p.M)
                assert num and den, (model, t, k)
        # K((x, s); (y, t)) multiplies c_i^j for j in [t, s) and i < N when
        # s >= t, and for j in [s, t) and N <= i <= min(M_s, M_t) when s < t.
        top = [N - 1] * T
        for s in range(T + 1):
            for t in range(s + 1, T + 1):
                for j in range(s, t):
                    top[j] = max(top[j], min(dims[s], dims[t]))
        for j in range(T):
            for i in range(top[j] + 1):
                assert coupling_coefficient_sq(model, j, i) > 0, (model, j, i)


def test_weight_examples():
    m = ModelParams(1, 1, 2)
    assert slice_weight(m, 1, 0) == 1
    assert slice_weight(m, 1, 2) == 0
    assert slice_weight(ModelParams(2, 1, 2), 1, 1) == 1


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_weight_positive_exactly_on_support(model):
    for t in range(model.T + 1):
        p = slice_params(model, t)
        for x in range(p.support_lo - 2, p.support_hi + 3):
            w = slice_weight(model, t, x)
            assert (w > 0) == (p.support_lo <= x <= p.support_hi)


def test_hahn_q_examples():
    assert hahn_q(0, 5, -2, -2, 1) == 1
    assert hahn_q(1, 0, -2, -2, 1) == 1
    assert hahn_q(1, 1, -2, -2, 1) == -1


def test_hahn_q_degree_bounds():
    with pytest.raises(ValueError):
        hahn_q(2, 0, -2, -2, 1)


def test_hahn_q_degenerate_parameters():
    # (alpha+1)_i hits zero with a nonzero numerator prefix
    with pytest.raises(DegenerateParameterError):
        hahn_q(2, 3, -2, -7, 4)


def test_recurrence_columns_match_series():
    # Every column value on the N <= 4, T <= 8 box, and a spread of columns
    # of two large models, equals the terminating series.
    cases = [(m, t, x) for m in sweep_models(4, 8) for t in range(m.T + 1)
             for x in slice_basis(m, t).support]
    for model in (ModelParams(20, 20, 40), ModelParams(40, 40, 80)):
        for t in (0, model.T // 4, model.N, model.T - 3):
            support = slice_basis(model, t).support
            cases += [(model, t, x) for x in support[:: max(1, len(support) // 4)]]
    for model, t, x in cases:
        basis = slice_basis(model, t)
        p = basis.params
        column = fraction_column(basis, x, p.M)
        assert len(column) == p.M + 1
        for k, value in enumerate(column):
            assert value == hahn_q(k, x - p.shift, p.alpha, p.beta, p.M), (model, t, x, k)


def test_stored_columns_are_integers_over_their_least_common_denominator():
    # Each column is extended in two stages, so the second one rescales the
    # stored integers; after each, gcd(D, D Q_0, ..., D Q_j) = 1 makes D the
    # least common denominator, and the values equal the terminating series.
    cases = [(m, t) for m in sweep_models(4, 8) for t in range(m.T + 1)]
    cases += [(ModelParams(20, 20, 40), t) for t in (0, 13, 20, 37)]
    for model, t in cases:
        basis = _SliceBasis(model, t)
        p = basis.params
        for x in basis.support:
            for k in (p.M // 2, p.M):
                den, ints = basis.scaled_column(x, k)
                assert len(ints) == k + 1 and den > 0, (model, t, x, k)
                assert math.gcd(den, *ints) == 1, (model, t, x, k)
            if model.T <= 8:
                for k, value in enumerate(fraction_column(basis, x, p.M)):
                    assert value == hahn_q(k, x - p.shift, p.alpha, p.beta, p.M)


def test_recurrence_degenerate_step_raises():
    # A_1 = 0 through its factor n + alpha + 1 (alpha = -2): no division by zero.
    with pytest.raises(DegenerateParameterError):
        _recurrence_coefficients(1, -2, -7, 4)
    # d = -12 < 0 (alpha + 1 > -M): the column step needs d > 0.
    with pytest.raises(DegenerateParameterError):
        _recurrence_coefficients(0, 0, -5, 3)
    basis = slice_basis(ModelParams(2, 1, 3), 1)
    with pytest.raises(ValueError):
        basis.q(basis.params.M + 1, basis.params.shift)


def test_norm_examples():
    assert hahn_norm2(0, -2, -2, 1) == 2
    assert hahn_norm2(1, -2, -2, 1) == 2


def test_norm_after_normalization_is_one():
    m = ModelParams(2, 2, 4)
    basis = slice_basis(m, 2)
    total = sum(basis.weight(x) for x in basis.support)
    assert basis.norm2(0) / total == 1


def test_norm_sign_regime_error():
    # weight changes sign across the support for these parameters
    with pytest.raises(ParameterRegimeError):
        hahn_norm2(0, -2, 0, 3)


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_norm_closed_form_matches_direct_sum(model):
    for t in range(model.T + 1):
        basis = slice_basis(model, t)
        p = basis.params
        for k in range(p.M + 1):
            direct = sum(
                basis.weight(x) * basis.q(k, x) ** 2 for x in basis.support
            )
            assert basis.norm2(k) == direct
            assert hahn_norm2(k, p.alpha, p.beta, p.M) == abs(_lam(basis)) * direct
            signed = sum(
                _pochhammer_weight(xp, p.alpha, p.beta, p.M)
                * hahn_q(k, xp, p.alpha, p.beta, p.M) ** 2
                for xp in range(p.M + 1)
            )
            assert _hahn_norm2_signed(k, p.alpha, p.beta, p.M) == signed


def _lam(basis) -> Fraction:
    """The constant ratio of a slice's signed Pochhammer weight to its factorial weight."""
    p = basis.params
    return _pochhammer_weight(0, p.alpha, p.beta, p.M) / basis.weight(p.shift)


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_pochhammer_factorial_proportionality(model):
    for t in range(model.T + 1):
        basis = slice_basis(model, t)
        p = basis.params
        lam = _lam(basis)
        assert lam * (-1) ** p.M > 0
        for x in basis.support:
            assert _pochhammer_weight(x - p.shift, p.alpha, p.beta, p.M) == (
                lam * basis.weight(x)
            )


LARGE_NORM_MODELS = [ModelParams(80, 80, 160), ModelParams(60, 25, 130)]


def _large_slices(model: ModelParams) -> list[int]:
    r = min(model.S, model.T - model.S)
    return [0, 1, r, model.T - 1, model.T]


@pytest.mark.parametrize("model", LARGE_NORM_MODELS, ids=str)
def test_norms_at_large_n_equal_the_signed_pochhammer_form(model):
    # 19 slices and degrees per model, from the frozen ends to the widest
    # slice, each against the oracle's signed closed form over lambda.
    checked = 0
    for t in _large_slices(model):
        basis = _SliceBasis(model, t)
        p, lam = basis.params, _lam(basis)
        for k in sorted({0, 1, model.N - 1, model.N, p.M} & set(range(p.M + 1))):
            assert basis.norm2(k) == _hahn_norm2_signed(k, p.alpha, p.beta, p.M) / lam
            checked += 1
    assert checked == 19


@pytest.mark.parametrize("model", LARGE_NORM_MODELS, ids=str)
def test_partition_function_at_large_n_equals_the_signed_pochhammer_form(model):
    # Z = prod_(k<N) n_k / kappa_k^2, with n_k and kappa_k both from the
    # oracle's signed forms.
    for t in _large_slices(model):
        basis = _SliceBasis(model, t)
        p, lam = basis.params, _lam(basis)
        z = Fraction(1)
        for k in range(model.N):
            kappa = leading_coefficient(k, p.alpha, p.beta, p.M)
            z *= _hahn_norm2_signed(k, p.alpha, p.beta, p.M) / lam / (kappa * kappa)
        assert _normalization(model, t) == z, t


def test_norm_degree_outside_the_slice_raises_value_error():
    basis = _SliceBasis(ModelParams(3, 2, 5), 2)
    for k in (-1, basis.params.M + 1):
        with pytest.raises(ValueError):
            basis.norm2(k)


@pytest.mark.parametrize("model", [ModelParams(3, 2, 5), ModelParams(7, 12, 30)], ids=str)
def test_a_fresh_basis_builds_its_kernel_factors_without_the_cache(model, monkeypatch):
    def fail(*args):
        raise AssertionError("a slice basis read the cache")

    want = {t: slice_basis(model, t) for t in range(1, model.T)}
    monkeypatch.setattr(hahn, "slice_basis", fail)
    for t, cached in want.items():
        basis = _SliceBasis(model, t)
        M = basis.params.M
        assert basis.kernel_factors(0, model.N - 1) == cached.kernel_factors(0, model.N - 1), t
        assert basis.kernel_factors(model.N, M) == cached.kernel_factors(model.N, M), t


def test_orthonormal_function_examples():
    m = ModelParams(1, 1, 2)
    f0 = [orthonormal_function(m, 0, 1, x) for x in (0, 1)]
    assert sum((v * v for v in f0), start=SignedSqrt.zero()) == 1
    # degree-0 function is sqrt(w / sum w) pointwise
    total = slice_weight(m, 1, 0) + slice_weight(m, 1, 1)
    for x, v in zip((0, 1), f0):
        assert v.square() == slice_weight(m, 1, x) / total
        assert v.sign == 1
    assert orthonormal_function(m, 0, 1, 5).is_zero()


def test_orthogonality_224():
    m = ModelParams(2, 2, 4)
    basis = slice_basis(m, 2)
    dot = sum(
        (
            orthonormal_function(m, 0, 2, x) * orthonormal_function(m, 1, 2, x)
            for x in basis.support
        ),
        start=SignedSqrt.zero(),
    )
    assert dot.is_zero()


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_orthonormality_sweep(model):
    for t in range(model.T + 1):
        basis = slice_basis(model, t)
        M = basis.params.M
        for a in range(M + 1):
            for b in range(a, M + 1):
                dot = sum(
                    (
                        orthonormal_function(model, a, t, x) * orthonormal_function(model, b, t, x)
                        for x in basis.support
                    ),
                    start=SignedSqrt.zero(),
                )
                assert dot == (1 if a == b else 0)


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_contiguous_relations_sweep(model):
    for t in range(model.T + 1):
        p = slice_params(model, t)
        for k in range(p.M):
            for x in range(p.support_lo, p.support_hi + 1):
                try:
                    r1, r2 = contiguous_relation_residuals(model, t, k, x)
                except DegenerateParameterError:
                    continue
                assert r1 == 0
                assert r2 == 0


def test_contiguous_relation_trivial_cases():
    m = ModelParams(2, 2, 4)
    r1, r2 = contiguous_relation_residuals(m, 1, 0, 0)
    assert r1 == 0 and r2 == 0


@pytest.mark.parametrize(
    "alpha,beta,M",
    [(-2, -2, 1), (-3, -3, 2), (-4, -3, 2), (-5, -5, 4), (-6, -3, 0)],
)
def test_dual_orthogonality(alpha, beta, M):
    for x in range(M + 1):
        for y in range(M + 1):
            assert dual_orthogonality_residual(alpha, beta, M, x, y) == 0


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_difference_relation_sweep(model):
    for t in range(model.T + 1):
        p = slice_params(model, t)
        if p.M > 5:
            continue
        for k in range(p.M + 1):
            for x in range(p.support_lo, p.support_hi + 1):
                assert difference_relation_residual(model, t, k, x) == 0


def test_difference_relation_examples():
    m = ModelParams(2, 2, 4)
    assert difference_relation_residual(m, 2, 0, 1) == 0
    assert difference_relation_residual(m, 2, 1, 1) == 0
