from fractions import Fraction

import pytest

from conftest import small_sweep
from hahn_paths import (
    EnumerationCapExceeded,
    ModelParams,
    Trajectory,
    count_path_families,
    enumerate_path_families,
    oracle_correlation,
)
from hahn_paths.combinatorics import binomial, det_bareiss


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
    assert ModelParams(2, 1, 3).hexagon_sides == (2, 1, 2)


def test_enumerate_examples():
    assert len(enumerate_path_families(ModelParams(1, 1, 2))) == 2
    assert len(enumerate_path_families(ModelParams(2, 1, 2))) == 3
    assert len(enumerate_path_families(ModelParams(1, 0, 3))) == 1


def test_enumerate_order_is_lexicographic():
    fams = enumerate_path_families(ModelParams(1, 1, 2))
    assert [f.moves(0) for f in fams] == [(0, 1), (1, 0)]


def test_enumerate_cap(monkeypatch):
    monkeypatch.setenv("HAHN_PATHS_CAP", "2")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_path_families(ModelParams(2, 1, 2))


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("HAHN_PATHS_CAP", "1")
    with pytest.raises(EnumerationCapExceeded):
        enumerate_path_families(ModelParams(2, 1, 2))


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
