import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import small_sweep, sweep_models
from hahn_paths import (
    EnumerationCapExceeded,
    ModelParams,
    Trajectory,
    count_path_families,
    oracle_correlation,
)
from hahn_paths import combinatorics
from hahn_paths.combinatorics import binomial, det_bareiss
from oracles import enumerate_path_families, hexagon_count_lgv


def test_binomial_extension():
    assert binomial(4, 2) == 6
    assert binomial(4, -1) == 0
    assert binomial(4, 5) == 0


def test_det_bareiss():
    assert det_bareiss([]) == 1
    assert det_bareiss([[7]]) == 7
    assert det_bareiss([[2, 1], [1, 2]]) == 3
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    assert det_bareiss([[0, 2, 1], [3, 0, 0], [1, 1, 1]]) == -3


def test_count_examples():
    assert count_path_families(0, [0], 2, [1]) == 2
    assert count_path_families(0, [0], 1, [0]) == 1
    assert count_path_families(0, [0, 1], 2, [1, 2]) == 3


def test_count_errors():
    with pytest.raises(ValueError):
        count_path_families(0, [0, 1], 2, [1])
    with pytest.raises(ValueError):
        count_path_families(3, [0], 2, [0])


def test_count_zero_steps_is_identity_determinant():
    assert count_path_families(2, [0, 1], 2, [0, 1]) == 1
    assert count_path_families(2, [0, 1], 2, [0, 2]) == 0


def test_zero_time_model_has_one_family():
    model = ModelParams(2, 0, 0)
    assert model.family_count() == 1
    (fam,) = enumerate_path_families(model)
    assert fam.positions == ((0, 1),)
    assert fam.moves(0) == fam.moves(1) == ()


def test_model_validation():
    with pytest.raises(ValueError):
        ModelParams(0, 1, 2)
    with pytest.raises(ValueError):
        ModelParams(1, 3, 2)


def test_enumerate_examples():
    assert len(enumerate_path_families(ModelParams(1, 1, 2))) == 2
    assert len(enumerate_path_families(ModelParams(2, 1, 2))) == 3
    assert len(enumerate_path_families(ModelParams(1, 0, 3))) == 1


def test_enumerate_order_is_lexicographic():
    fams = enumerate_path_families(ModelParams(1, 1, 2))
    assert [f.moves(0) for f in fams] == [(0, 1), (1, 0)]


def test_enumerate_cap(monkeypatch):
    # (2, 1, 2) has work N T C(N + m, N) = 2 * 2 * C(3, 2) = 12.
    def fail(*args):
        raise AssertionError("counted past the cap")

    model = ModelParams(2, 1, 2)
    monkeypatch.setattr(combinatorics, "ENUMERATION_MAX_WORK", 2 * 2 * 3)
    assert combinatorics.family_counts(model)[0] == 3
    monkeypatch.setattr(combinatorics, "ENUMERATION_MAX_WORK", 2 * 2 * 3 - 1)
    monkeypatch.setattr(combinatorics, "run_holes", fail)
    with pytest.raises(EnumerationCapExceeded):
        combinatorics.family_counts(model)
    with pytest.raises(EnumerationCapExceeded):
        oracle_correlation(model, [(0, 1)])


@pytest.mark.parametrize("model", small_sweep(), ids=str)
def test_enumeration_matches_determinant_and_validates(model):
    fams = enumerate_path_families(model)
    assert len(fams) == model.family_count()
    for fam in fams:
        assert Trajectory(model, fam.positions) == fam
    assert len(set(fams)) == len(fams)


def test_oracle_examples():
    m = ModelParams(1, 1, 2)
    assert oracle_correlation(m, [(0, 1)]) == Fraction(1, 2)
    assert oracle_correlation(m, [(0, 0)]) == 1
    assert oracle_correlation(ModelParams(2, 1, 2), [(0, 1), (2, 1)]) == Fraction(1, 3)


def test_oracle_empty_query_is_one():
    assert oracle_correlation(ModelParams(2, 2, 3), []) == 1


def test_oracle_rejects_duplicates():
    with pytest.raises(ValueError):
        oracle_correlation(ModelParams(1, 1, 2), [(0, 1), (0, 1)])


def macmahon(a: int, b: int, c: int) -> Fraction:
    """MacMahon's count of the lozenge tilings of the (a, b, c) hexagon."""
    value = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            for k in range(1, c + 1):
                value *= Fraction(i + j + k - 1, i + j + k - 2)
    return value


def test_counts_equal_macmahon_box_product():
    models = [
        ModelParams(n, s, t) for n in range(1, 7) for t in range(13) for s in range(t + 1)
    ]
    for model in models:
        want = macmahon(model.N, model.S, model.T - model.S)
        assert model.family_count() == want, model
        assert sum(combinatorics._forward(model)[-1].values()) == want, model


def test_box_product_equals_the_lgv_determinant():
    models = sweep_models(4, 8) + [
        ModelParams(*m) for m in ((1, 0, 0), (40, 40, 80), (30, 17, 52), (9, 40, 41))
    ]
    for model in models:
        assert model.family_count() == hexagon_count_lgv(model), model


def test_query_pass_stops_at_the_last_query_time():
    # The hits close at the last query time with the turned layer; the full
    # filtered pass to T, which family_counts no longer runs, is the check.
    for model in sweep_models(3, 6):
        top = model.S + model.N
        rng = random.Random(f"last-time {model}")
        for _ in range(4):
            t = rng.randrange(model.T + 1)
            single = [(x, t) for x in rng.sample(range(-1, top + 1), 2)]
            spread = [(rng.randrange(-1, top + 1), s) for s in sorted({0, t, model.T})]
            for query in (single, spread, single[:1]):
                want = sum(combinatorics._forward(model, query)[-1].values())
                assert combinatorics.family_counts(model, query)[2] == want, (model, query)
    model = ModelParams(2, 2, 4)
    for t in (-1, model.T + 1):
        with pytest.raises(ValueError, match=f"query time {t} outside 0..4"):
            combinatorics.family_counts(model, [(0, t)])


@pytest.mark.parametrize(
    "model", sweep_models(3, 6) + [ModelParams(n, 0, 0) for n in (1, 2, 3)], ids=str
)
def test_forward_counts_match_the_listing(model):
    fams = enumerate_path_families(model)
    total, occupation, hits = combinatorics.family_counts(model)
    assert total == hits == len(fams)
    assert [list(counts.items()) for counts in occupation] == [
        sorted(Counter(x for fam in fams for x in fam.positions[t]).items())
        for t in range(model.T + 1)
    ]
    # x runs one past the hexagon on either side, so some points lie off the support.
    points = [(x, t) for t in range(model.T + 1) for x in range(-1, model.S + model.N + 1)]
    rng = random.Random(str(model))
    for k in (1, 2, 3, 3):
        query = rng.sample(points, k)
        through = sum(all(x in fam.positions[t] for x, t in query) for fam in fams)
        assert combinatorics.family_counts(model, query) == (total, occupation, through)
        assert oracle_correlation(model, query) == Fraction(through, total)
