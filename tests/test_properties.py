"""Property tests: closed forms against their oracles on random inputs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from hahn_paths import ModelParams, slice_params
from oracles import admissible_cases, case_params, param_tuple

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
