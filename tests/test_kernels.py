import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import small_sweep, sweep_models
from hahn_paths import (
    CorrelationQuery,
    FloatRangeError,
    KernelMatrix,
    ModelParams,
    SignedSqrt,
    complementary_kernel,
    correlation,
    extended_kernel,
    oracle_correlation,
    static_kernel,
    transfer_matrix,
)
from hahn_paths import kernels
from hahn_paths.hahn import slice_basis
from hahn_paths.kernels import _balanced, _det_float_report, _gauge
from oracles import (
    coupling_coefficient_sq,
    eynard_mehta_correlation,
    gauge_transform,
    hahn_q,
    oracle_tables,
)

# SHA-256 of the exact correlations of CORRELATION_QUERIES on (20,20,40),
# computed before the kernel was built from pair tables and recurrence columns.
CORRELATION_DIGEST = "38515e34098f8439fa7f8a9b5d7ca2eec3228caf580ba392e62444f7b2c07028"
CORRELATION_QUERIES = [
    ((27, 39),), ((35, 22), (14, 1)), ((3, 15), (3, 10), (33, 23)),
    ((24, 15), (17, 34), (23, 36), (6, 0)), ((23, 26),), ((29, 11), (14, 24)),
    ((4, 4), (38, 39), (16, 28)), ((0, 8), (6, 0), (10, 13), (9, 10)), ((12, 20),),
    ((35, 34), (26, 40)), ((30, 11), (24, 12), (1, 19)),
    ((29, 23), (29, 10), (8, 9), (10, 4)), ((10, 20), (12, 20)),
    ((5, 5), (6, 5), (7, 6)), ((20, 20), (21, 21), (22, 22), (20, 22)),
]


def all_points(model):
    return [
        (x, t)
        for t in range(model.T + 1)
        for x in slice_basis(model, t).support
    ]


def test_static_kernel_examples():
    m = ModelParams(1, 1, 2)
    assert static_kernel(m, 1, 0, 0).as_rational() == Fraction(1, 2)
    # deterministic initial slice: identity on support
    m2 = ModelParams(3, 2, 4)
    for x in range(3):
        assert static_kernel(m2, 0, x, x) == 1
    for x, y in combinations(range(3), 2):
        assert static_kernel(m2, 0, x, y).is_zero()


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_static_kernel_projection(model):
    for t in range(model.T + 1):
        support = list(slice_basis(model, t).support)
        k = {
            (x, y): static_kernel(model, t, x, y) for x in support for y in support
        }
        trace = sum((k[(x, x)] for x in support), start=SignedSqrt.zero())
        assert trace == model.N
        for x in support:
            for y in support:
                assert k[(x, y)] == k[(y, x)]
                entry = sum(
                    (k[(x, z)] * k[(z, y)] for z in support),
                    start=SignedSqrt.zero(),
                )
                assert entry == k[(x, y)]


def test_complementary_kernel():
    m = ModelParams(2, 1, 3)
    for t in range(m.T + 1):
        support = list(slice_basis(m, t).support)
        for x in support:
            for y in support:
                value = complementary_kernel(m, t, x, y)
                static = static_kernel(m, t, x, y)
                if x == y:
                    assert value.as_rational() == static.as_rational() - 1
                else:
                    assert value == static
    # full slice (support size == N): tail sum is empty
    assert complementary_kernel(m, 0, 0, 0).is_zero()
    assert complementary_kernel(m, 0, 9, 9).is_zero()


def test_extended_kernel_reduces_to_static():
    m = ModelParams(2, 2, 4)
    for t in range(m.T + 1):
        for x in slice_basis(m, t).support:
            for y in slice_basis(m, t).support:
                assert extended_kernel(m, (x, t), (y, t)) == static_kernel(m, t, x, y)


def per_term_kernel(model, p, q):
    """K(p; q) summed term by term: a series value and a c^2 product per term."""
    x, s = p
    y, t = q
    b_s, b_t = slice_basis(model, s), slice_basis(model, t)
    if x not in b_s.support or y not in b_t.support:
        return SignedSqrt.zero()
    ps, pt = b_s.params, b_t.params
    if s >= t:
        indices, steps, sign = range(model.N), range(t, s), 1
    else:
        indices, steps, sign = range(model.N, min(ps.M, pt.M) + 1), range(s, t), -1
    w_pair = b_s.weight(x) * b_t.weight(y)
    terms = []
    for i in indices:
        coeff = sign * hahn_q(i, x - ps.shift, ps.alpha, ps.beta, ps.M) * hahn_q(
            i, y - pt.shift, pt.alpha, pt.beta, pt.M
        )
        if coeff == 0:
            continue
        prod_c2 = Fraction(1)
        for j in steps:
            prod_c2 *= coupling_coefficient_sq(model, j, i)
        norms = b_s.norm2(i) * b_t.norm2(i)
        rad = w_pair / (norms * prod_c2) if s >= t else w_pair * prod_c2 / norms
        terms.append(SignedSqrt(coeff, rad))
    return sum(terms, SignedSqrt.zero())


def test_pair_table_entries_match_per_term_sum():
    # Same coefficient and radicand, not only the same number: the `kernel`
    # command prints both.
    models = sweep_models(3, 5) + [ModelParams(4, 6, 8)]
    branches = {True: 0, False: 0}
    for model in models:
        pts = all_points(model)
        for p in pts:
            for q in pts:
                got = extended_kernel(model, p, q)
                want = per_term_kernel(model, p, q)
                assert (got.coeff, got.radicand) == (want.coeff, want.radicand), (model, p, q)
                branches[p[1] >= q[1]] += not got.is_zero()
    assert min(branches.values()) > 1000, branches
    big = ModelParams(20, 20, 40)
    for p, q in [((3, 2), (10, 10)), ((10, 10), (3, 2)), ((15, 20), (30, 33)),
                 ((30, 33), (15, 20)), ((20, 20), (21, 20))]:
        got, want = extended_kernel(big, p, q), per_term_kernel(big, p, q)
        assert (got.coeff, got.radicand) == (want.coeff, want.radicand), (p, q)


def test_pair_table_entries_match_per_term_sum_at_limit_probe_size():
    # `limit --rhos 20,40,80` evaluates (80,80,160) near its centre at time
    # offsets |dt| <= 2; there the columns have up to 160 entries and their
    # common denominators grow large.
    model = ModelParams(80, 80, 160)
    rng = random.Random(11)
    entries = []
    for later_first in (True, False) * 10:
        s, t = sorted(rng.sample(range(78, 83), 2), reverse=later_first)
        entries.append(((80 + rng.randrange(-3, 4), s), (80 + rng.randrange(-3, 4), t)))
    for p, q in entries:
        got, want = extended_kernel(model, p, q), per_term_kernel(model, p, q)
        assert not got.is_zero(), (p, q)
        assert (got.coeff, got.radicand) == (want.coeff, want.radicand), (p, q)


@pytest.mark.parametrize(
    "model", [ModelParams(3, 2, 5), ModelParams(4, 6, 8), ModelParams(20, 20, 40)], ids=str
)
def test_pair_table_products_equal_per_step_products(model):
    # The slice factors telescope prod_j c_i(j)^2 between two times into one
    # factor per slice; every (pair, index) radicand R_i = R_lo ratio_i^2
    # must equal the one built from the per-step (clamped) coupling
    # coefficients, with R_lo = P_lo(s) P'_lo(t) from the point radicands
    # and ratio_i = a_i(s) b_i(t) = scaled_i / (A B).
    for s in range(model.T + 1):
        for t in range(model.T + 1):
            b_s, b_t = slice_basis(model, s), slice_basis(model, t)
            if s >= t:
                indices, steps = range(model.N), range(t, s)
            else:
                indices = range(model.N, min(b_s.params.M, b_t.params.M) + 1)
                steps = range(s, t)
            if not indices:
                continue
            lo, hi = indices.start, indices[-1]
            den_a, a = b_s.kernel_factors(lo, hi)[:2]
            den_b, b = b_t.kernel_factors(lo, hi)[2:]
            assert min(len(a), len(b)) >= len(indices), (s, t)
            x, y = b_s.params.shift, b_t.params.shift
            radicand = (b_s.radicand_part(lo, x, False) / b_s.weight(x)) * (
                b_t.radicand_part(lo, y, True) / b_t.weight(y)
            )
            for i, a_i, b_i in zip(indices, a, b):
                ratio = Fraction(a_i * b_i, den_a * den_b)
                prod_c2 = Fraction(1)
                for j in steps:
                    prod_c2 *= coupling_coefficient_sq(model, j, i)
                rad = 1 / (b_s.norm2(i) * b_t.norm2(i))
                want = rad / prod_c2 if s >= t else rad * prod_c2
                assert radicand * ratio * ratio == want, (s, t, i)
                assert ratio > 0, (s, t, i)


def test_kernels_hold_no_cache():
    # Every kernel memo lives on the slice bases, so clearing `slice_basis`
    # returns a process to cold.
    own = [v for v in vars(kernels).values() if getattr(v, "__module__", None) == kernels.__name__]
    assert own and not [v for v in own if hasattr(v, "cache_info")]
    model, p, q = ModelParams(4, 6, 8), (3, 2), (6, 5)
    value = extended_kernel(model, p, q)
    slice_basis.cache_clear()
    assert not slice_basis(model, 2)._factors and not slice_basis(model, 5)._factors
    assert extended_kernel(model, p, q) == value
    assert slice_basis(model, 2)._factors and slice_basis(model, 5)._factors


@pytest.mark.parametrize(
    "model", [ModelParams(3, 2, 5), ModelParams(7, 12, 30), ModelParams(20, 20, 40)], ids=str
)
def test_static_trace_is_n_on_every_slice(model):
    # The static kernel projects onto N functions, so its trace is N exactly.
    for t in range(model.T + 1):
        diagonal = (static_kernel(model, t, x, x) for x in slice_basis(model, t).support)
        assert sum((v.as_rational() for v in diagonal), Fraction(0)) == model.N, t


def test_radicand_parts_share_the_lo_0_entries():
    # P_0 = P'_0 = 1 / n_0, so the left and right parts at lo = 0 are one memo entry.
    basis = slice_basis(ModelParams(3, 4, 9), 5)
    x = basis.params.shift + 1
    assert basis.radicand_part(0, x, False) is basis.radicand_part(0, x, True)
    assert basis.radicand_part(3, x, False) != basis.radicand_part(3, x, True)
    assert len(basis._radicand_parts) == 3


def _eynard_mehta_queries(model, rng):
    """Queries of 1-4 points: equal times, t = 0 and t = T, and points off the support."""
    T = model.T

    def point(t):
        support = slice_basis(model, t).support
        return rng.randint(support[0] - 1, support[-1] + 1), t

    queries = [
        [point(0)], [point(T)], [(model.N, 0)], [(model.N + model.S, T)],
        [point(0), point(T)],
    ]
    while len(queries) < 24:
        t = rng.randint(0, T)
        times = [rng.choice([0, T, t, rng.randint(0, T)]) for _ in range(rng.randint(1, 4))]
        queries.append(list(dict.fromkeys(point(u) for u in times)))
    return queries


@pytest.mark.parametrize("model", [ModelParams(20, 20, 40), ModelParams(7, 12, 30)], ids=str)
def test_correlations_equal_the_eynard_mehta_kernel(model):
    rng = random.Random(model.T)
    values = []
    for query in _eynard_mehta_queries(model, rng):
        value = correlation(model, query)
        assert value == eynard_mehta_correlation(model, query), query
        values.append(value)
    # Some queries hit points off the support, some do not.
    assert 0 < values.count(0) < len(values) / 2


def test_correlations_on_a_large_model_are_pinned():
    digest = hashlib.sha256()
    model = ModelParams(20, 20, 40)
    for query in CORRELATION_QUERIES:
        value = correlation(model, list(query))
        digest.update(f"{query}:{value.numerator}/{value.denominator}\n".encode())
    assert digest.hexdigest() == CORRELATION_DIGEST


def test_extended_kernel_examples():
    assert correlation(ModelParams(1, 1, 2), [(0, 1)]) == Fraction(1, 2)
    assert correlation(ModelParams(2, 1, 2), [(0, 1), (2, 1)]) == Fraction(1, 3)


def test_correlation_trivial_cases():
    m = ModelParams(2, 1, 3)
    assert correlation(m, []) == 1
    assert correlation(m, [(0, 0)]) == 1
    assert correlation(m, [(1, 0)]) == 1


def test_zero_time_model_correlations_match_oracle():
    model = ModelParams(2, 0, 0)
    pts = [(x, 0) for x in range(-1, 3)]
    queries = [[]] + [[p] for p in pts] + [list(pq) for pq in combinations(pts, 2)]
    for query in queries:
        assert correlation(model, query) == oracle_correlation(model, query), query


@pytest.mark.parametrize(
    "model",
    [ModelParams(2, 1, 3), ModelParams(2, 3, 4), ModelParams(1, 2, 3), ModelParams(3, 2, 4)],
    ids=str,
)
def test_correlation_matches_oracle(model):
    total, singles, pairs = oracle_tables(model)
    pts = all_points(model)
    for p in pts:
        assert correlation(model, [p]) == Fraction(singles[p], total)
    for p, q in combinations(sorted(pts), 2):
        got = correlation(model, [p, q])
        assert got == Fraction(pairs[(p, q)], total)
        assert 0 <= got <= 1


@pytest.mark.parametrize(
    "model", [ModelParams(2, 1, 3), ModelParams(2, 3, 4)], ids=str
)
def test_operator_factorization(model):
    """U_s U_{s+1} ... U_{t-1} P_t equals the forward branch of the kernel."""
    for s in range(model.T):
        for t in range(s + 1, model.T + 1):
            sup_s = list(slice_basis(model, s).support)
            sup_t = list(slice_basis(model, t).support)
            prod = {
                (x, y): transfer_matrix(model, s, x, y)
                for x in sup_s
                for y in slice_basis(model, s + 1).support
            }
            for h in range(s + 1, t):
                sup_mid = list(slice_basis(model, h).support)
                sup_next = list(slice_basis(model, h + 1).support)
                prod = {
                    (x, z): sum(
                        (
                            prod[(x, y)] * transfer_matrix(model, h, y, z)
                            for y in sup_mid
                        ),
                        start=SignedSqrt.zero(),
                    )
                    for x in sup_s
                    for z in sup_next
                }
            for x in sup_s:
                for y in sup_t:
                    composite = sum(
                        (
                            prod[(x, z)] * complementary_kernel(model, t, z, y)
                            for z in sup_t
                        ),
                        start=SignedSqrt.zero(),
                    )
                    assert composite == extended_kernel(model, (x, s), (y, t))


def test_three_point_correlations_match_oracle():
    import random

    from oracles import enumerate_path_families

    rng = random.Random(99)
    model = ModelParams(2, 3, 4)
    fams = enumerate_path_families(model)
    pts = all_points(model)
    for _ in range(25):
        query = tuple(sorted(rng.sample(pts, 3)))
        hits = 0
        for fam in fams:
            fam_pts = {
                (x, t)
                for t in range(model.T + 1)
                for x in fam.positions[t]
            }
            if all(p in fam_pts for p in query):
                hits += 1
        assert correlation(model, list(query)) == Fraction(hits, len(fams))


@pytest.mark.parametrize(
    "model", [ModelParams(2, 2, 5), ModelParams(2, 1, 3), ModelParams(3, 3, 4)], ids=str
)
def test_time_reversal_symmetry(model):
    """The ensemble is invariant under t -> T-t, x -> S+N-1-x."""
    top = model.S + model.N - 1
    pts = all_points(model)
    for p in pts:
        mirrored = (top - p[0], model.T - p[1])
        assert correlation(model, [p]) == correlation(model, [mirrored])
    for p, q in combinations(pts[:: max(1, len(pts) // 12)], 2):
        mirrored = [(top - x, model.T - t) for x, t in (p, q)]
        assert correlation(model, [p, q]) == correlation(model, mirrored)


@pytest.mark.parametrize(
    "model", [ModelParams(5, 5, 10), ModelParams(4, 3, 9), ModelParams(5, 2, 8)], ids=str
)
def test_determinants_match_the_forward_count_beyond_the_listing(model):
    # 60,984 to 267,227,532 families; the listing never reached (5, 5, 10).
    rng = random.Random(str(model))
    top = model.S + model.N  # one past the highest support point
    queries = [[(0, 0)], [(model.N, 0), (model.N - 1, 1)], [(-1, 3)], [(top, 4), (2, 4)]]
    for k in (1, 2, 3) * 4:
        points = rng.sample(all_points(model), k)
        queries.append(points)
        # The same query with its last point moved to t = 0, in or off the support.
        queries.append(sorted(set(points[:-1] + [(rng.randrange(-1, model.N + 1), 0)])))
    values = set()
    for query in queries:
        got = KernelMatrix.build(model, CorrelationQuery(tuple(query))).determinant()
        assert got == oracle_correlation(model, query), query
        values.add(got)
    assert len(values) > 4  # the queries do not all collapse to 0 or 1


def test_gauge_transform_invariance():
    cases = [
        (ModelParams(2, 1, 3), ((0, 1), (2, 2))),
        (ModelParams(3, 2, 5), ((1, 1), (2, 3), (3, 4))),
    ]
    for model, points in cases:
        matrix = KernelMatrix.build(model, CorrelationQuery(points))
        base = matrix.determinant()
        assert base == oracle_correlation(model, list(points))
        for gauge in (lambda x, t: 1, lambda x, t: 2**t, lambda x, t: (-1) ** x):
            transformed = gauge_transform(matrix, gauge)
            assert transformed.determinant() == base
    with pytest.raises(ValueError):
        gauge_transform(matrix, lambda x, t: 0)


def test_gauged_entries_are_rational():
    model = ModelParams(2, 3, 4)
    pts = all_points(model)
    for p in pts[:6]:
        for q in pts[-6:]:
            value = _gauge(model, p, q, extended_kernel(model, p, q))
            assert isinstance(value, Fraction)


def test_float_backend_close_to_exact():
    model = ModelParams(2, 2, 4)
    query = CorrelationQuery(((1, 1), (2, 3)))
    exact_det = correlation(model, query)
    report = KernelMatrix.build(model, query).determinant_report()
    assert report.value == pytest.approx(float(exact_det), abs=1e-12)
    assert report.min_pivot > 0
    assert report.condition_hint >= 1


@pytest.mark.parametrize(
    "matrix, value, hint",
    [
        ([[0.0, 1.0], [1.0, 0.0]], -1.0, 1.0),  # a row swap flips the sign
        ([[1.0, 2.0], [2.0, 4.0]], 0.0, float("inf")),  # a zero pivot
        ([], 1.0, 1.0),  # the empty matrix
    ],
    ids=["row-swap", "zero-pivot", "empty"],
)
def test_det_float_report_branches(matrix, value, hint):
    report = _det_float_report(matrix)
    assert report.value == value
    assert report.condition_hint == hint


def test_det_float_report_keeps_the_pivot_product_in_range():
    # The running product 1e300 * 1e300 is above the float range, the determinant is not.
    matrix = [[1e300, 0.0, 0.0], [0.0, 1e300, 0.0], [0.0, 0.0, 1e-300]]
    assert _det_float_report(matrix).value == pytest.approx(1e300, rel=1e-15)
    with pytest.raises(FloatRangeError, match="determinant"):
        _det_float_report([[1e300, 0.0], [0.0, 1e300]])


def test_balancing_undoes_a_power_of_two_conjugation():
    # K = D A D^-1 with D = diag(2^d), A symmetric: balancing leaves A up to a
    # conjugation by powers of two that differ by at most 1.
    rng = random.Random(3)
    d = [0, 170, -90, 400, 3]
    a = [[None] * 5 for _ in range(5)]
    for i in range(5):
        for j in range(i, 5):
            a[i][j] = a[j][i] = Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6))
    entries = [
        [SignedSqrt(a[p][q] * Fraction(2) ** (d[p] - d[q]), 1) for q in range(5)]
        for p in range(5)
    ]
    scales = {v.coeff / a[p][q] for p, row in enumerate(_balanced(entries)) for q, v in enumerate(row)}
    assert scales <= {Fraction(1, 2), 1, 2}
    # A pair with a zero entry is left out; a row with no pair left is not scaled.
    assert _balanced([[SignedSqrt(0), SignedSqrt(2**40)], [SignedSqrt(0), SignedSqrt(0)]]) == (
        (SignedSqrt(0), SignedSqrt(2**40)), (SignedSqrt(0), SignedSqrt(0))
    )
    assert _balanced([[SignedSqrt(1), SignedSqrt(2**40)], [SignedSqrt(2**-40), SignedSqrt(1)]]) == (
        (SignedSqrt(1), SignedSqrt(1)), (SignedSqrt(1), SignedSqrt(1))
    )


def test_balancing_brings_a_one_sided_entry_near_1():
    # A zero entry counts as its mirror's reciprocal, so in a row anchored by
    # its diagonal the mirror is scaled near 1; the determinant is unchanged.
    entries = [[SignedSqrt(1), SignedSqrt(3 * 2**1193)], [SignedSqrt(0), SignedSqrt(1)]]
    (a, b), (c, d) = _balanced(entries)
    assert (a, c, d) == (SignedSqrt(1), SignedSqrt(0), SignedSqrt(1))
    assert 1 <= b.coeff <= 4
    report = KernelMatrix(ModelParams(1, 1, 2), ((0, 0), (0, 1)), tuple(map(tuple, entries)))
    assert report.determinant_report().value == 1.0


def test_out_of_support_entries_vanish():
    model = ModelParams(2, 1, 3)
    assert extended_kernel(model, (-3, 1), (1, 2)).is_zero()
    assert extended_kernel(model, (1, 1), (99, 2)).is_zero()
    with pytest.raises(ValueError):
        extended_kernel(model, (0, -1), (0, 0))


def test_query_validation():
    with pytest.raises(ValueError):
        CorrelationQuery(((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        correlation(ModelParams(1, 1, 2), [(0, 9)])
