"""Property tests: closed forms and integer steps against their oracles on random inputs."""

import math
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hahn_paths import (
    DegenerateParameterError,
    FloatRangeError,
    IncompatibleRadicalsError,
    ModelParams,
    SignedSqrt,
    Trajectory,
    orthonormal_function,
    slice_params,
    slice_weight,
)
from hahn_paths import cli, hahn
from hahn_paths.hahn import _SliceBasis, slice_basis
from hahn_paths.kernels import correlation, extended_kernel, static_kernel
from hahn_paths.process import sample_trajectory
from oracles import (
    admissible_cases,
    case_params,
    check_positions_pointwise,
    float_via_square,
    fraction_column,
    hahn_q,
    pair_table_fractions,
    param_tuple,
    recurrence_column,
    reduced_pair_column,
    run_codes_pointwise,
    slice_factors_fractions,
)

SIDE = 2000


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_slice_params_equal_every_admissible_case(data):
    T = data.draw(st.integers(0, SIDE), label="T")
    S = data.draw(st.integers(0, T), label="S")
    t = data.draw(st.integers(0, T), label="t")
    N = data.draw(st.integers(1, SIDE), label="N")
    model = ModelParams(N, S, T)
    expected = param_tuple(slice_params(model, t))
    cases = admissible_cases(model, t)
    assert cases
    for case in cases:
        assert case_params(model, t, case) == expected, case


def _model(data, n_max: int, t_max: int) -> ModelParams:
    T = data.draw(st.integers(1, t_max), label="T")
    S = data.draw(st.integers(0, T), label="S")
    N = data.draw(st.integers(1, n_max), label="N")
    return ModelParams(N, S, T)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_integer_columns_equal_the_terminating_series(data):
    # A fresh basis extends the column twice, so the second extension
    # resumes from stored integers and rescales them.  Both stages store the
    # (D, integers) of the reduced-pair steps, with D the lcm of the reduced
    # denominators of the values.
    model = _model(data, 60, 60)
    t = data.draw(st.integers(0, model.T), label="t")
    basis = _SliceBasis(model, t)
    p = basis.params
    x = data.draw(st.sampled_from(basis.support), label="x")
    first = data.draw(st.integers(0, p.M), label="first")
    k = data.draw(st.integers(first, p.M), label="k")
    for stage in (first, k):
        den, ints = basis.scaled_column(x, stage)
        j = len(ints) - 1
        assert (den, ints) == reduced_pair_column(model, t, x, j), stage
        assert den == math.lcm(*(q.denominator for q in recurrence_column(model, t, x, j)))
    column = fraction_column(basis, x, k)[: k + 1]
    assert column == recurrence_column(model, t, x, k)
    for j, value in enumerate(column):
        assert value == hahn_q(j, x - p.shift, p.alpha, p.beta, p.M), j


def _time_pair(data, model: ModelParams) -> tuple[int, int]:
    s = data.draw(st.integers(0, model.T), label="s")
    t = data.draw(st.integers(0, model.T), label="t")
    return s, t


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_table_equals_the_fraction_steps(data):
    # The (s, t) pair table of the Fraction oracle, rebuilt from the two
    # slices' factors: ratio_i / L = +-a_i(s) b_i(t) / (A B), and its radicand
    # R_lo = P_lo(s) P'_lo(t) from the point radicands.
    model = _model(data, 30, 40)
    s, t = _time_pair(data, model)
    lo, radicand, lcd, ratios = pair_table_fractions(model, s, t)
    assume(ratios)
    b_s, b_t = slice_basis(model, s), slice_basis(model, t)
    hi = lo + len(ratios) - 1
    den_a, a = b_s.kernel_factors(lo, hi)[:2]
    den_b, b = b_t.kernel_factors(lo, hi)[2:]
    sign = 1 if s >= t else -1
    products = [sign * Fraction(a_i * b_i, den_a * den_b) for a_i, b_i in zip(a, b)]
    assert products[: len(ratios)] == [Fraction(r, lcd) for r in ratios]
    x, y = b_s.params.shift, b_t.params.shift
    assert (b_s.radicand_part(lo, x, False) / b_s.weight(x)) * (
        b_t.radicand_part(lo, y, True) / b_t.weight(y)
    ) == radicand
    # A and B are the least common denominators of the factors.
    assert math.gcd(den_a, *a) == math.gcd(den_b, *b) == 1


def _fresh_factors(model: ModelParams, t: int, lo: int, hi: int):
    """(a_lo..a_hi, b_lo..b_hi) as Fractions from slice bases built anew."""
    slice_basis.cache_clear()
    basis = slice_basis(model, t)
    den_a, a, den_b, b = basis.kernel_factors(lo, hi)
    n = hi - lo + 1
    return [Fraction(v, den_a) for v in a[:n]], [Fraction(v, den_b) for v in b[:n]]


@contextmanager
def _norm_ratio_replaced(replacement):
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hahn, "_norm_ratio", replacement)
            yield
    finally:
        slice_basis.cache_clear()


def _factor_range(data, model: ModelParams) -> tuple[int, int, int, int]:
    """A time t, lo in {0, N}, an hi > lo its factors reach, and a step lo < i <= hi."""
    t = data.draw(st.integers(0, model.T), label="t")
    lo = data.draw(st.sampled_from([0, model.N]), label="lo")
    top = model.N - 1 if lo == 0 else slice_params(model, t).M
    assume(top > lo)
    hi = data.draw(st.integers(lo + 1, top), label="hi")
    return t, lo, hi, data.draw(st.integers(lo + 1, hi), label="i")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_table_refuses_a_zero_norm_factor(data):
    # No slice of a valid model has a closed-form norm ratio with a zero
    # factor (test_slice_identities_sweep), so one is forced at a step the
    # slice factors take: they refuse it by name.
    model = _model(data, 12, 16)
    t, lo, hi, at = _factor_range(data, model)
    zero_numerator = data.draw(st.booleans(), label="zero numerator")
    ratio = hahn._norm_ratio

    def forced(k, alpha, beta, M):
        num, den = ratio(k, alpha, beta, M)
        if k != at:
            return num, den
        return (0, den) if zero_numerator else (num, 0)

    with _norm_ratio_replaced(forced):
        with pytest.raises(DegenerateParameterError):
            _fresh_factors(model, t, lo, hi)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_table_raises_where_the_fraction_steps_do(data):
    # The norm ratio of the slice or of the reference slice scaled by a
    # non-square factor makes a step's square irrational; the integer and
    # Fraction steps must refuse the same factors and agree on every other.
    model = _model(data, 12, 16)
    t, lo, hi, at = _factor_range(data, model)
    factor = data.draw(st.sampled_from([2, 3, 4, 9, 12]), label="factor")
    scaled_t = data.draw(st.sampled_from([t, min(model.S, model.T - model.S)]), label="slice")
    p = slice_params(model, scaled_t)
    ratio = hahn._norm_ratio

    def scaled(k, alpha, beta, M):
        num, den = ratio(k, alpha, beta, M)
        if (k, alpha, beta, M) == (at, p.alpha, p.beta, p.M):
            num *= factor
        return num, den

    outcomes = []
    with _norm_ratio_replaced(scaled):
        for factors in (_fresh_factors, slice_factors_fractions):
            try:
                outcomes.append(tuple(factors(model, t, lo, hi)))
            except IncompatibleRadicalsError:
                outcomes.append(IncompatibleRadicalsError)
    assert outcomes[0] == outcomes[1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_weight_on_demand_equals_slice_weight(data):
    model = _model(data, 40, 60)
    t = data.draw(st.integers(0, model.T), label="t")
    basis = _SliceBasis(model, t)
    lo, hi = basis.params.support_lo, basis.params.support_hi
    xs = data.draw(st.lists(st.integers(lo - 3, hi + 3), min_size=1, max_size=12), label="xs")
    for x in xs:
        assert basis.weight(x) == slice_weight(model, t, x), x
        if x not in basis.support:
            # Off the support the weight, the orthonormal functions and the
            # kernel entries are zero, and nothing is memoized.
            assert basis.weight(x) == 0
            assert orthonormal_function(model, 0, t, x).is_zero()
            assert extended_kernel(model, (x, t), (lo, t)).is_zero()
    assert len(basis._weights) <= len(basis.support)
    assert set(basis._weights) <= set(basis.support)


def _slice_point(data, model: ModelParams) -> tuple[int, int]:
    """A point (x, t) of the model's grid, on its slice's support or one step off it."""
    t = data.draw(st.integers(0, model.T), label="t")
    p = slice_params(model, t)
    return data.draw(st.integers(p.support_lo - 1, p.support_hi + 1), label="x"), t


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_correlation_is_invariant_under_the_half_turn(data):
    # The half turn (x, t) -> (S + N - 1 - x, T - t) maps the model to itself.
    model = _model(data, 4, 10)
    k = data.draw(st.integers(1, 3), label="points")
    points = list({_slice_point(data, model) for _ in range(k)})
    top = model.S + model.N - 1
    turned = [(top - x, model.T - t) for x, t in points]
    assert correlation(model, points) == correlation(model, turned)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_static_kernel_is_symmetric(data):
    model = _model(data, 4, 10)
    t = data.draw(st.integers(0, model.T), label="t")
    support = slice_params(model, t).support
    for x in support:
        for y in support:
            assert static_kernel(model, t, x, y) == static_kernel(model, t, y, x), (x, y)


# Bit lengths of SignedSqrt parts, and log2 targets for the value: ordinary,
# near the top of the float range, near 2^-1000 and in the subnormal range.
_PART_BITS = st.integers(1, 8000)
_TARGETS = st.one_of(
    st.integers(-60, 60),
    st.integers(990, 1030),
    st.integers(-1030, -990),
    st.integers(-1085, -1020),
)


def _part(data, label: str) -> int:
    bits = data.draw(_PART_BITS, label=label)
    return data.draw(st.integers(2 ** (bits - 1), 2**bits - 1), label=label + " value")


def _float_or_error(value: SignedSqrt, rounding) -> float | type:
    try:
        return rounding(value)
    except FloatRangeError:
        return FloatRangeError


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_float_equals_rounding_the_reduced_square(data):
    # Coefficient and radicand are reduced Fractions, but the square
    # c_n^2 r_n / (c_d^2 r_d) need not be; the float must not depend on it,
    # and must refuse exactly the values the reduced square refuses.
    coeff = Fraction(_part(data, "coeff num"), _part(data, "coeff den"))
    radicand = Fraction(_part(data, "rad num"), _part(data, "rad den"))
    common = data.draw(st.integers(1, 2**64), label="common factor")
    coeff *= Fraction(common, data.draw(st.integers(1, 2**64), label="coeff factor"))
    radicand *= Fraction(data.draw(st.integers(1, 2**64), label="radicand factor"), common)
    # Scale the coefficient by a power of two so that the value is near 2^target.
    log2 = (
        coeff.numerator.bit_length() - coeff.denominator.bit_length()
        + (radicand.numerator.bit_length() - radicand.denominator.bit_length()) / 2
    )
    coeff *= Fraction(2) ** (data.draw(_TARGETS, label="target") - round(log2))
    sign = data.draw(st.sampled_from([1, -1]), label="sign")
    value = SignedSqrt(sign * coeff, radicand)
    got = _float_or_error(value, float)
    assert got == _float_or_error(value, float_via_square)
    if got is not FloatRangeError:
        assert math.copysign(1.0, got) == sign or got == 0.0


def _sampled(data) -> Trajectory:
    return sample_trajectory(_model(data, 4, 8), seed=data.draw(st.integers(0, 2**64 - 1)))


PERTURBATIONS = ("none", "short row", "swap", "duplicate", "step of 2", "start", "end", "times")


def _perturbed(data, model: ModelParams, positions: list[tuple[int, ...]]) -> tuple:
    """The positions with one defect of the kind drawn, or none."""
    kind = data.draw(st.sampled_from(PERTURBATIONS), label="perturbation")
    t = data.draw(st.integers(0, model.T), label="t")
    i = data.draw(st.integers(0, model.N - 1), label="i")
    row = list(positions[t])
    if kind == "short row":
        del row[i]
    elif kind == "swap" and i > 0:
        row[i - 1], row[i] = row[i], row[i - 1]
    elif kind == "duplicate" and i > 0:
        row[i] = row[i - 1]
    elif kind == "step of 2" and t > 0:
        row[i] = positions[t - 1][i] + 2
    elif kind in ("start", "end"):
        t = 0 if kind == "start" else model.T
        row = [x + data.draw(st.sampled_from([-1, 1]), label="shift") for x in positions[t]]
    elif kind == "times":
        if data.draw(st.booleans(), label="drop"):
            return tuple(positions[:-1])
        return (*positions, positions[-1])
    positions[t] = tuple(row)
    return tuple(positions)


def _error(check, *args) -> str | None:
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trajectory_raises_where_the_pointwise_check_does(data):
    traj = _sampled(data)
    positions = _perturbed(data, traj.model, list(traj.positions))
    expected = _error(check_positions_pointwise, traj.model, positions)
    assert _error(Trajectory, traj.model, positions) == expected
    if expected is None:
        assert Trajectory(traj.model, positions).paths == tuple(zip(*positions))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_path_codes_equal_the_pointwise_codes_and_decode_back(data):
    traj = _sampled(data)
    runs = cli._trajectory_to_runs(traj)
    assert runs == run_codes_pointwise(traj)
    assert cli._runs_to_trajectory(traj.model, runs) == traj
