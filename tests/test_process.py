import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import small_sweep, sweep_models
from hahn_paths import process
from hahn_paths import (
    ModelParams,
    SamplerSizeError,
    SignedSqrt,
    Trajectory,
    TransitionRowSumError,
    sample_trajectory,
    slice_distribution,
    transfer_matrix,
    transition_probability,
)
from hahn_paths.hahn import pochhammer, slice_basis, slice_params
from hahn_paths.process import (
    _build_transition_table,
    _normalization,
    _transition_table,
    _TransitionTables,
    _vandermonde,
)
from oracles import (
    coupling_coefficient_sq,
    enumerate_path_families,
    transfer_matrix_series,
    transition_probability_determinantal,
    transition_table_walk,
)

# SHA-256 of the move strings of (10,10,20) trajectories for seeds 0..9, built
# like the acceptance suite's MC_DIGEST.  It pins the sampler on large rows.
COLD_DIGEST = "846de3fffdbbd64b253154afafdb06b2f45c50fe2383723f008a2d1831944ac0"


def configs_at(model, t):
    return combinations(slice_basis(model, t).support, model.N)


def test_coupling_coefficient_formula():
    m = ModelParams(2, 2, 4)
    assert coupling_coefficient_sq(m, 0, 0) == 1
    assert coupling_coefficient_sq(m, 3, 2) == 0  # top index of a shrinking step
    dim = max(slice_params(m, 1).M, slice_params(m, 2).M) + 1
    squares = [coupling_coefficient_sq(m, 1, i) for i in range(dim)]
    assert all(0 <= c2 <= 1 for c2 in squares)
    assert squares[0] == 1


def test_coupling_zero_when_factor_negative():
    m = ModelParams(1, 2, 4)
    # i exceeds T+N-t-1 at late times
    assert coupling_coefficient_sq(m, 3, 2) == 0


def test_slice_distribution_examples():
    m = ModelParams(1, 1, 2)
    assert slice_distribution(m, 1, (0,)) == Fraction(1, 2)
    assert slice_distribution(m, 1, (1,)) == Fraction(1, 2)
    assert slice_distribution(m, 0, (0,)) == 1
    m2 = ModelParams(2, 1, 2)
    for z in [(0, 1), (0, 2), (1, 2)]:
        assert slice_distribution(m2, 1, z) == Fraction(1, 3)


def test_slice_distribution_outside_support():
    assert slice_distribution(ModelParams(1, 1, 2), 1, (5,)) == 0
    with pytest.raises(ValueError):
        slice_distribution(ModelParams(2, 1, 2), 1, (1, 1))


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_slice_distribution_matches_oracle(model):
    fams = enumerate_path_families(model)
    total = len(fams)
    for t in range(model.T + 1):
        marginal = Counter(f.positions[t] for f in fams)
        for z in configs_at(model, t):
            assert slice_distribution(model, t, z) == Fraction(marginal[z], total)


@pytest.mark.parametrize("model", sweep_models(3, 6), ids=str)
def test_normalization_closed_form_matches_subset_sum(model):
    for t in range(model.T + 1):
        basis = slice_basis(model, t)
        subset_sum = Fraction(0)
        for z in configs_at(model, t):
            w_prod = Fraction(1)
            for x in z:
                w_prod *= basis.weight(x)
            subset_sum += _vandermonde(z) ** 2 * w_prod
        assert _normalization(model, t) == subset_sum, (model, t)


def test_transition_examples():
    m = ModelParams(1, 1, 2)
    assert transition_probability(m, 0, (0,), (1,)) == Fraction(1, 2)
    assert transition_probability(m, 0, (0,), (0,)) == Fraction(1, 2)
    m2 = ModelParams(2, 2, 4)
    assert transition_probability(m2, 1, (0, 1), (0, 3)) == 0  # step of 2 forbidden


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_transition_rows_and_determinantal_form(model):
    for t in range(model.T):
        for x in configs_at(model, t):
            row = Fraction(0)
            for y in configs_at(model, t + 1):
                p = transition_probability(model, t, x, y)
                assert p == transition_probability_determinantal(model, t, x, y)
                row += p
            assert row == 1


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_chapman_kolmogorov(model):
    for t in range(model.T):
        for y in configs_at(model, t + 1):
            lhs = sum(
                slice_distribution(model, t, x) * transition_probability(model, t, x, y)
                for x in configs_at(model, t)
            )
            assert lhs == slice_distribution(model, t + 1, y)


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_transition_matches_oracle_conditional(model):
    fams = enumerate_path_families(model)
    for t in range(model.T):
        joint = Counter(
            (f.positions[t], f.positions[t + 1])
            for f in fams
        )
        marginal = Counter(f.positions[t] for f in fams)
        for (x, y), count in joint.items():
            expected = Fraction(count, marginal[x])
            assert transition_probability(model, t, x, y) == expected


@pytest.mark.parametrize("model", sweep_models(3, 6), ids=str)
def test_transition_table_matches_product_form(model):
    for t in range(model.T):
        support = slice_basis(model, t + 1).support
        for x in configs_at(model, t):
            expected = []
            for mv in product((0, 1), repeat=model.N):
                y = tuple(p + m for p, m in zip(x, mv))
                if any(b <= a for a, b in zip(y, y[1:])) or any(v not in support for v in y):
                    continue
                if transition_probability(model, t, x, y) > 0:
                    expected.append(y)
            candidates, cum = _transition_table(model, t, x)
            assert list(candidates) == expected, (model, t, x)
            row = pochhammer(model.T - t, model.N)
            for i, j in combinations(range(model.N), 2):
                row *= x[j] - x[i]
            assert cum[-1] == row, (model, t, x)
            for y, hi, lo in zip(candidates, cum, (0,) + cum):
                assert Fraction(hi - lo, cum[-1]) == transition_probability(model, t, x, y)


def assert_table_is_the_walk(model, t, x):
    candidates, cum = _transition_table(model, t, x)
    walk_candidates, walk_cum = transition_table_walk(model, t, x)
    assert len(candidates) == len(walk_candidates), (model, t, x)
    assert tuple(candidates) == walk_candidates, (model, t, x)
    assert cum == walk_cum, (model, t, x)


@pytest.mark.parametrize("model", sweep_models(3, 6), ids=str)
def test_transition_table_is_the_particle_walk(model):
    for t in range(model.T):
        for x in configs_at(model, t):
            assert_table_is_the_walk(model, t, x)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_transition_table_is_the_particle_walk_on_random_states(data):
    T = data.draw(st.integers(1, 16), label="T")
    S = data.draw(st.integers(0, T), label="S")
    N = data.draw(st.integers(1, 8), label="N")
    model = ModelParams(N, S, T)
    t = data.draw(st.integers(0, T - 1), label="t")
    support = slice_params(model, t).support
    x = data.draw(st.lists(st.sampled_from(support), min_size=N, max_size=N, unique=True))
    assert_table_is_the_walk(model, t, tuple(sorted(x)))


@pytest.mark.parametrize(
    "t, x, shape",
    [
        (4, (1, 3, 4), "a particle at the lower support edge"),
        (3, (0, 2, 4), "a particle at the top, all particles separated"),
        (3, (1, 2, 3), "a single run"),
        (0, (0, 1, 2), "a single run at the start"),
    ],
)
def test_transition_table_edge_states(t, x, shape):
    model = ModelParams(3, 2, 5)
    N, S, T = model.N, model.S, model.T
    assert set(x) <= set(slice_params(model, t).support)
    stays = [xi + T - t - S for xi in x]
    rises = [N + S - xi - 1 for xi in x]
    runs = sum(1 for a, b in zip(x, x[1:]) if b > a + 1) + 1
    if "lower" in shape:
        assert 0 in stays
    if "top" in shape:
        assert 0 in rises
    if "single" in shape:
        assert runs == 1
    if "separated" in shape:
        assert runs == N
    assert_table_is_the_walk(model, t, x)


def test_transition_successors_decode_in_any_order():
    # A fresh table, so that every successor is decoded here.
    model = ModelParams(6, 5, 12)
    x = (0, 1, 3, 5, 6, 7)
    candidates, cum = _build_transition_table(model, 4, x)
    expected, _ = transition_table_walk(model, 4, x)
    assert len(candidates) == len(expected) == len(cum) > 1
    assert candidates[-1] == expected[-1]
    assert candidates.memo[-1] == expected[-1]
    for i in reversed(range(len(expected))):
        assert candidates[i] == expected[i]
    assert candidates.memo == list(expected)
    with pytest.raises(IndexError):
        candidates[len(expected)]
    with pytest.raises(IndexError):
        candidates[-len(expected) - 1]


def test_transition_table_off_support_row_raises():
    with pytest.raises(TransitionRowSumError):
        _transition_table(ModelParams(2, 2, 4), 0, (0, 5))


def test_transition_table_refuses_an_unordered_configuration():
    for x in ((1, 1), (2, 1)):
        with pytest.raises(ValueError, match="strictly increasing"):
            _transition_table(ModelParams(2, 2, 4), 0, x)


@pytest.fixture
def store(monkeypatch):
    """A fresh transition-table store in place of the module's."""
    fresh = _TransitionTables()
    monkeypatch.setattr(process, "_transition_table", fresh)
    return fresh


def held_weights(store):
    return sum(len(cum) for _, cum in store.tables.values())


def test_transition_table_cache_is_bounded(store):
    # Every (t, x) state of (4,4,8), the sample-hot model, fits under the
    # budget, so once its tables are built a sampled trajectory only hits.
    m = ModelParams(4, 4, 8)
    states = [(t, x) for t in range(m.T) for x in configs_at(m, t)]
    assert len(states) == 181
    for t, x in states:
        store(m, t, x)
    info = store.cache_info()
    assert info.currsize == info.misses == 181
    assert info.weights == held_weights(store) <= process._TABLE_WEIGHT_BUDGET
    for seed in range(20):
        sample_trajectory(m, seed)
    assert store.cache_info() == (20 * m.T, 181, 181, info.weights)
    # Every cache keyed by model is bounded; 1024 slices is above the 283 a
    # convergence probe at rho = 20, 40, 80 touches.
    for cache in (slice_basis, _normalization):
        assert cache.cache_info().maxsize == 1024


def test_every_cache_of_the_module_clears():
    # perfbench's sweep clears a process this way.
    for value in vars(process).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    assert process._transition_table.cache_info() == (0, 0, 0, 0)


def test_transition_tables_hold_at_most_the_budget(store, monkeypatch):
    monkeypatch.setattr(process, "_TABLE_WEIGHT_BUDGET", 3000)
    model = ModelParams(10, 10, 20)
    for seed in range(4):
        sample_trajectory(model, seed)
        assert store.weights == held_weights(store) <= 3000
    info = store.cache_info()
    assert info.hits + info.misses == 4 * model.T
    assert 0 < info.currsize < info.misses


def test_eviction_keeps_the_sampled_stream(store, monkeypatch):
    # With no budget every table is dropped as soon as it is built.
    monkeypatch.setattr(process, "_TABLE_WEIGHT_BUDGET", 0)
    assert cold_stream_digest() == COLD_DIGEST
    assert store.cache_info() == (0, 200, 0, 0)


def test_eviction_drops_the_largest_tables_first(store, monkeypatch):
    budget = 400
    monkeypatch.setattr(process, "_TABLE_WEIGHT_BUDGET", budget)
    m = ModelParams(6, 6, 12)
    evictions = 0
    for t in range(m.T):
        for x in configs_at(m, t):
            before = {**store.tables}
            table = store(m, t, x)
            met = {**before, (m.N, m.S, m.T, t, x): table}
            size = {key: len(cum) for key, (_, cum) in met.items()}
            evicted = [size[key] for key in met if key not in store.tables]
            if evicted:
                evictions += 1
                kept = [size[key] for key in store.tables]
                assert min(evicted) >= max(kept, default=0)
                assert store.weights <= budget * 3 // 4 < store.weights + min(evicted)
            else:
                assert store.weights <= budget
    assert evictions > 10


def test_transitions_read_supports_without_a_slice_basis(monkeypatch):
    def fail(*args):
        raise AssertionError("slice basis built")

    monkeypatch.setattr(process, "slice_basis", fail)
    m = ModelParams(2, 2, 4)
    assert transition_probability(m, 1, (0, 1), (1, 2)) > 0
    with pytest.raises(ValueError, match="not inside the time-1 support"):
        transition_probability(m, 1, (0, 4), (1, 4))
    with pytest.raises(ValueError, match="strictly increasing"):
        transition_probability(m, 1, (1, 1), (1, 2))
    assert transfer_matrix(ModelParams(1, 1, 2), 0, 0, 1) == SignedSqrt(1, Fraction(1, 2))
    assert transfer_matrix(m, 0, 2, 3).is_zero()


def test_transfer_matrix_examples():
    m = ModelParams(1, 1, 2)
    assert transfer_matrix(m, 0, 0, 1) == SignedSqrt(1, Fraction(1, 2))
    assert transfer_matrix(ModelParams(2, 2, 4), 1, 0, 2).is_zero()


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_transfer_matrix_delta_equals_series(model):
    for t in range(model.T):
        sup_t = slice_basis(model, t).support
        sup_n = slice_basis(model, t + 1).support
        for x in sup_t:
            for y in sup_n:
                assert transfer_matrix(model, t, x, y) == transfer_matrix_series(
                    model, t, x, y
                )
            stay = transfer_matrix(model, t, x, x).square()
            move = transfer_matrix(model, t, x, x + 1).square()
            assert stay + move <= 1


@pytest.mark.parametrize("model", [ModelParams(2, 2, 4), ModelParams(2, 3, 4)], ids=str)
def test_trajectory_law_is_exactly_uniform(model):
    fams = enumerate_path_families(model)
    for fam in fams:
        p = Fraction(1)
        for t in range(model.T):
            p *= transition_probability(
                model,
                t,
                fam.positions[t],
                fam.positions[t + 1],
            )
        assert p == Fraction(1, len(fams))


def test_trajectory_forced_cases():
    flat = sample_trajectory(ModelParams(2, 0, 4), seed=123)
    assert all(now == (0, 1) for now in flat.positions)
    up = sample_trajectory(ModelParams(2, 4, 4), seed=123)
    assert list(up.positions) == [(t, t + 1) for t in range(5)]


def test_trajectory_determinism_and_validity():
    m = ModelParams(3, 2, 5)
    t1 = sample_trajectory(m, seed=999)
    t2 = sample_trajectory(m, seed=999)
    assert t1 == t2
    assert Trajectory.from_moves(m, [t1.moves(i) for i in range(m.N)]) == t1
    assert any(sample_trajectory(m, seed=s) != t1 for s in range(1000, 1020))


def cold_stream_digest():
    model = ModelParams(10, 10, 20)
    digest = hashlib.sha256()
    for seed in range(10):
        traj = sample_trajectory(model, seed=seed)
        digest.update(
            ",".join("".join(map(str, traj.moves(i))) for i in range(model.N)).encode()
        )
        digest.update(b"\n")
    return digest.hexdigest()


def test_sampler_stream_on_large_rows_is_pinned():
    assert cold_stream_digest() == COLD_DIGEST, "sampled stream changed byte-for-byte"


def test_sampler_distribution_short_run():
    m = ModelParams(1, 1, 2)
    n = 4000
    hits = sum(
        sample_trajectory(m, seed=s).positions[1] == (0,)
        for s in range(n)
    )
    p = Fraction(1, 2)
    sigma = (float(p) * (1 - float(p)) / n) ** 0.5
    assert abs(hits / n - float(p)) < 4 * sigma


def test_sampler_size_limit():
    with pytest.raises(SamplerSizeError):
        sample_trajectory(ModelParams(21, 1, 2), seed=0)


def test_sampler_agrees_with_enumeration_support():
    m = ModelParams(2, 1, 3)
    families = set(enumerate_path_families(m))
    for seed in range(50):
        assert sample_trajectory(m, seed=seed) in families


def test_trajectory_rejects_a_missing_particle():
    # zip over a short tuple must not hide the missing path at t=1.
    with pytest.raises(ValueError, match="positions at t=1"):
        Trajectory(ModelParams(2, 1, 2), ((0, 1), (1,), (1, 2)))


@pytest.mark.parametrize(
    "positions",
    [
        ((0, 1), (1, 2)),  # too few times
        ((0, 1), (1, 1), (1, 2)),  # paths touch
        ((1, 0), (1, 2), (1, 2)),  # not increasing
        ((1, 2), (1, 2), (1, 2)),  # wrong start
        ((0, 1), (0, 1), (0, 1)),  # wrong end
        ((0, 1), (0, 3), (1, 2)),  # step of two
        ((0, 1), (1, 2), (1, 2), (1, 2)),  # too many times
    ],
)
def test_trajectory_validation(positions):
    with pytest.raises(ValueError):
        Trajectory(ModelParams(2, 1, 2), positions)


@pytest.mark.parametrize(
    "moves",
    [
        [(1, 0)],  # a path is missing
        [(1, 0), (0, 1), (0, 1)],  # one path too many
        [(1, 0), (1,)],  # a short path
        [(1, 0), (0, 1, 0)],  # a long path
        [(2, 0), (0, 1)],  # a step outside {0, 1}
        [(1, 1), (0, 1)],  # too many rises
    ],
)
def test_from_moves_validation(moves):
    with pytest.raises(ValueError):
        Trajectory.from_moves(ModelParams(2, 1, 2), moves)


def test_from_moves_round_trip():
    m = ModelParams(2, 1, 2)
    traj = Trajectory.from_moves(m, [(0, 1), (1, 0)])
    assert traj.positions == ((0, 1), (0, 2), (1, 2))
    assert [traj.moves(i) for i in range(m.N)] == [(0, 1), (1, 0)]
