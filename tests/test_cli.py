import hashlib
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

import hahn_paths
from hahn_paths import (
    EnumerationCapExceeded,
    HahnPathsError,
    LimitRegime,
    ResourceLimitError,
    SamplerSizeError,
    Side,
    bulk,
    cli,
    combinatorics,
    kernels,
    limit_params,
)
from hahn_paths.cli import main
from oracles import _gauss_unit_arc_integral

PACKAGE_ERRORS = [
    obj
    for obj in (getattr(hahn_paths, name) for name in hahn_paths.__all__)
    if isinstance(obj, type) and issubclass(obj, HahnPathsError)
]
EXIT_CODES = {EnumerationCapExceeded: 3, ResourceLimitError: 3, SamplerSizeError: 3}

# SHA-256 of the `kernel --static-t` outputs of STATIC_CASES, in order, computed
# before the static kernel was evaluated through the extended kernel.
STATIC_DIGEST = "5db3fe2664ac9ea1a2c0592ba033633c2d0fb2e05fcea8645869516dfdda2f9f"
STATIC_CASES = [  # (model, t, mode, format, query)
    ("3,2,5", "1", "exact", "json", None),
    ("3,2,5", "1", "exact", "csv", None),
    ("3,2,5", "1", "exact", "json", "0:1,2:3"),
    ("2,1,3", "0", "float", "json", None),
    ("4,6,8", "4", "exact", "json", None),
    ("4,6,8", "7", "float", "csv", None),
    ("6,3,11", "5", "float", "json", None),
    ("20,20,40", "20", "exact", "json", None),
    ("20,20,40", "33", "float", "csv", None),
]
# SHA-256 of both files of each SAMPLE_CASES run, then of `render --index 3` of
# the (6, 6, 12) file in every style, computed before trajectories were
# checked and encoded path by path.
SAMPLE_DIGEST = "99b9a2586071435fc0fbd04640a263851f5e77730c9409d5d226956846d749b1"
SAMPLE_CASES = [("4,4,8", "100", "7"), ("6,6,12", "50", "9"), ("10,10,20", "2", "3")]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out, parse_constant=_no_constant)


def test_enumerate_counts(capsys):
    doc = run_json(capsys, "enumerate", "--model", "2,1,2")
    assert doc["family_count"] == 3
    assert doc["schema_version"] == 1
    assert doc["model"] == {"N": 2, "S": 1, "T": 2}
    doc = run_json(capsys, "enumerate", "--model", "1,0,5")
    assert doc["family_count"] == 1


def test_enumerate_query_exact_fields(capsys):
    doc = run_json(capsys, "enumerate", "--model", "1,1,2", "--query", "0:1")
    corr = doc["oracle_correlation"]
    assert corr["decimal"] == 0.5
    assert corr["rational"] == "1/2"


def counting_enumeration(monkeypatch) -> list:
    calls = []
    original = cli.family_counts

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "family_counts", counted)
    return calls


def test_enumerate_query_enumerates_once(capsys, monkeypatch):
    calls = counting_enumeration(monkeypatch)
    doc = run_json(capsys, "enumerate", "--model", "3,2,4", "--query", "1:2,3:3")
    assert len(calls) == 1
    assert doc["family_count"] == 50
    assert doc["oracle_correlation"]["rational"] == "1/2"


@pytest.mark.parametrize(
    "argv",
    [
        *(pytest.param(("--model", "3,2,4", "--query", q), id=q)
          for q in ("1:99", "0:-1", "1:2,1:2", "1:x")),
        # a model the query cannot even be checked against
        pytest.param(("--model", "1,2", "--query", "0:1"), id="--model 1,2"),
        pytest.param(("--hexagon", "0,1,1", "--query", "0:1"), id="--hexagon 0,1,1"),
    ],
)
def test_enumerate_bad_query_exit_2_before_enumerating(capsys, monkeypatch, argv):
    calls = counting_enumeration(monkeypatch)
    code, out, err = run(capsys, "enumerate", *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert out == ""
    assert calls == []


def test_hexagon_mapping(capsys):
    doc = run_json(capsys, "enumerate", "--hexagon", "2,1,1")
    assert doc["model"] == {"N": 2, "S": 1, "T": 2}
    assert doc["family_count"] == 3


def test_model_and_hexagon_mutually_exclusive(capsys):
    code, _, err = run(capsys, "enumerate", "--model", "1,1,2", "--hexagon", "1,1,1")
    assert code == 2
    code, _, _ = run(capsys, "enumerate")
    assert code == 2


def test_enumerate_cap_exit_code(capsys, monkeypatch):
    # (2, 1, 2) has work N T C(3, 2) = 12, one above the patched cap.
    def fail(*args):
        raise AssertionError("counted past the cap")

    monkeypatch.setattr(combinatorics, "ENUMERATION_MAX_WORK", 11)
    monkeypatch.setattr(combinatorics, "run_holes", fail)
    code, out, err = run(capsys, "enumerate", "--model", "2,1,2")
    assert code == 3
    assert out == ""
    assert "cap" in err


@pytest.mark.parametrize(
    "model, families",
    [
        ("5,5,10", 267227532),  # the listing refused it: above its cap of 10^6 families
        ("1,0,1500", 1),  # the listing recursed once per step, past the recursion limit
    ],
)
def test_enumerate_answers_what_the_listing_could_not(capsys, model, families):
    doc = run_json(capsys, "enumerate", "--model", model)
    assert doc["family_count"] == families


def test_kernel_trace_and_query(capsys):
    doc = run_json(capsys, "kernel", "--model", "2,1,3", "--static-t", "1", "--query", "0:1,1:1")
    assert doc["static_trace"]["rational"] == "2/1"
    assert len(doc["kernel_matrix"]) == 2
    # cross-command agreement with the enumeration oracle
    oracle = run_json(capsys, "enumerate", "--model", "2,1,3", "--query", "0:1,1:1")
    assert doc["correlation"]["rational"] == oracle["oracle_correlation"]["rational"]


def test_kernel_empty_query(capsys):
    doc = run_json(capsys, "kernel", "--model", "2,1,3", "--query", "")
    assert doc["correlation"]["decimal"] == 1.0


def test_kernel_float_mode_reports_conditioning(capsys):
    doc = run_json(
        capsys, "kernel", "--model", "2,1,3", "--query", "0:1,1:2", "--mode", "float"
    )
    assert "conditioning" in doc
    assert doc["conditioning"]["condition_hint"] >= 1.0


def test_kernel_float_mode_singular_query_prints_null_condition_hint(capsys):
    # (2, 0) is off the time-0 support, so its row of the matrix is zero.
    doc = run_json(capsys, "kernel", "--model", "2,2,4", "--mode", "float", "--query", "0:0,2:0")
    assert doc["correlation"] == 0.0
    assert doc["conditioning"]["min_pivot"] == 0.0
    assert doc["conditioning"]["condition_hint"] is None


# Points (600 + 40i, 600 + 50i), i < k, on (800, 800, 1600): entries between far
# apart times span about 1e-141 to 1e134, and the exact correlations' rationals
# have more digits than Python's default 4300-digit print limit.
FAR_CORRELATIONS = {8: 0.04005789061648129, 10: 0.018400244219305535}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_kernel_far_apart_times(capsys, mode):
    limit = sys.get_int_max_str_digits()
    for k, want in FAR_CORRELATIONS.items():
        query = ",".join(f"{600 + 40 * i}:{600 + 50 * i}" for i in range(k))
        doc = run_json(capsys, "kernel", "--model", "800,800,1600", "--query", query,
                       "--mode", mode)
        if mode == "exact":
            assert doc["correlation"]["decimal"] == want
            assert len(doc["correlation"]["rational"]) > limit
        else:
            assert doc["correlation"] == pytest.approx(want, abs=1e-12)
            assert 1.0 <= doc["conditioning"]["condition_hint"] < 10.0
            # The printed matrix stays unbalanced.
            assert max(abs(v) for row in doc["kernel_matrix"] for v in row) > 1e100
    assert sys.get_int_max_str_digits() == limit


def test_kernel_parses_inputs_under_the_int_digit_limit(capsys):
    code, _, err = run(capsys, "kernel", "--model", "9" * 5000 + ",1,2", "--query", "0:0")
    assert code == 2
    assert "limit" in err


def test_kernel_invalid_query_exit_2(capsys):
    code, _, _ = run(capsys, "kernel", "--model", "2,1,3", "--query", "0:99")
    assert code == 2


def test_kernel_csv_matrix(capsys, tmp_path):
    out = tmp_path / "k.csv"
    code, _, err = run(
        capsys, "kernel", "--model", "2,1,3", "--static-t", "1",
        "--format", "csv", "--out", str(out),
    )
    assert code == 0, err
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("x\\y,")
    assert len(lines) == 1 + len(lines[0].split(",")) - 1


@pytest.mark.parametrize(
    "argv",
    [
        ("--static-t", "1", "--query", "0:1"),  # CSV holds only the static matrix
        ("--query", "0:1"),  # CSV needs --static-t
        (),
    ],
    ids=" ".join,
)
def test_kernel_csv_rejected_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def fail(*args, **kwargs):
        raise AssertionError("kernel work started")

    monkeypatch.setattr(cli.KernelMatrix, "build", fail)
    monkeypatch.setattr(cli, "static_kernel", fail)
    out = tmp_path / "k.csv"
    code, _, err = run(
        capsys, "kernel", "--model", "2,1,3", "--format", "csv", "--out", str(out), *argv
    )
    assert code == 2
    assert err.startswith("error: csv output")
    assert not out.exists()


def test_static_kernel_outputs_are_pinned(capsys):
    digest = hashlib.sha256()
    for model, t, mode, fmt, query in STATIC_CASES:
        argv = ["kernel", "--model", model, "--static-t", t, "--mode", mode, "--format", fmt]
        if query is not None:
            argv += ["--query", query]
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        digest.update(out.encode())
    assert digest.hexdigest() == STATIC_DIGEST


@pytest.mark.parametrize(
    "argv",
    [
        ("--model", "1000000,1000000,2000000", "--query", "0:1"),
        ("--model", f"1,1,{cli.KERNEL_MAX_SIDE + 1}", "--static-t", "0"),
        ("--model", f"{cli.KERNEL_MAX_SIDE + 1},0,1", "--query", "0:0"),
        ("--hexagon", f"1,1,{cli.KERNEL_MAX_SIDE}", "--query", ""),
        # --static-t work above KERNEL_MAX_STATIC_WORK: N dominates, T dominates,
        # and a static matrix of 1600 points asked for next to a query
        ("--model", "160,160,320", "--static-t", "160"),
        ("--model", "1,450,900", "--static-t", "450", "--format", "csv"),
        ("--model", "1600,800,1600", "--static-t", "0", "--query", "0:0"),
    ],
    ids=" ".join,
)
def test_kernel_cost_cap_exit_3_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def fail(*args, **kwargs):
        raise AssertionError("kernel work started")

    monkeypatch.setattr(kernels, "slice_basis", fail)
    monkeypatch.setattr(cli.KernelMatrix, "build", fail)
    monkeypatch.setattr(cli, "static_kernel", fail)
    out = tmp_path / "k.json"
    code, _, err = run(capsys, "kernel", *argv, "--out", str(out))
    assert code == 3
    assert "cap" in err
    assert not out.exists()


def static_work(model: str, t: int) -> float:
    n, s, t_max = map(int, model.split(","))
    support = hahn_paths.slice_params(hahn_paths.ModelParams(n, s, t_max), t).support
    return len(support) ** 2 * (n + t_max**2 / 10_000)


@pytest.mark.parametrize("t", ["-1", "321"])
def test_kernel_static_t_out_of_range_exit_2_before_any_work(capsys, monkeypatch, t):
    def fail(*args, **kwargs):
        raise AssertionError("kernel work started")

    monkeypatch.setattr(kernels, "slice_basis", fail)
    monkeypatch.setattr(cli, "static_kernel", fail)
    code, out, err = run(capsys, "kernel", "--model", "160,160,320", "--static-t", t)
    assert code == 2
    assert err == f"error: t={t} outside 0..320\n"
    assert out == ""


def test_kernel_static_work_cap_admits_its_bound(capsys, monkeypatch):
    # Below the cap, but about 30 s of real work: the entries are stubbed out.
    assert static_work("155,155,310", 155) <= cli.KERNEL_MAX_STATIC_WORK < static_work(
        "160,160,320", 160
    )
    monkeypatch.setattr(cli, "static_kernel", lambda *args: hahn_paths.SignedSqrt.zero())
    doc = run_json(capsys, "kernel", "--model", "155,155,310", "--static-t", "155")
    assert len(doc["static_support"]) == 310


def test_kernel_cost_cap_admits_its_bound(capsys):
    side = cli.KERNEL_MAX_SIDE
    doc = run_json(capsys, "kernel", "--model", f"{side},1,{side}", "--query", "")
    assert doc["correlation"]["rational"] == "1/1"


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_kernel_entry_whose_square_is_above_the_float_range(capsys, mode):
    # K((260, 520); (0, 0)) is about 6e154, so its square has no float form.
    model, p, q = hahn_paths.ModelParams(260, 260, 520), (260, 520), (0, 0)
    doc = run_json(capsys, "kernel", "--model", "260,260,520", "--query", "260:520,0:0",
                   "--mode", mode)
    (a, b), (c, d) = doc["kernel_matrix"]
    assert (a, c, d) == (1.0, 0.0, 1.0)
    square = kernels.extended_kernel(model, p, q).square()
    assert b > 1e154 and abs(Fraction(b) ** 2 / square - 1) < 1e-15
    # Both points are corners every path family passes through.
    correlation = doc["correlation"]["rational"] if mode == "exact" else doc["correlation"]
    assert correlation in ("1/1", 1.0)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_kernel_entry_above_the_float_range_prints_null(capsys, mode):
    # K((600, 1200); (0, 0)) is about 2^1193 and its mirror entry is zero: the
    # printed matrix holds null for it, and balancing brings it near 1.
    doc = run_json(capsys, "kernel", "--model", "600,600,1200", "--query", "600:1200,0:0",
                   "--mode", mode)
    assert doc["kernel_matrix"] == [[1.0, None], [0.0, 1.0]]
    # Both points are corners every path family passes through.
    if mode == "exact":
        assert doc["correlation"]["rational"] == "1/1"
    else:
        assert doc["correlation"] == 1.0
        assert doc["conditioning"]["condition_hint"] == 1.0


def test_enumerate_zero_time_model(capsys):
    doc = run_json(capsys, "enumerate", "--model", "2,0,0")
    assert doc["family_count"] == 1
    assert doc["slice_marginals"]["0"]["1"]["rational"] == "1/1"


def test_sample_deterministic_and_densities(capsys, tmp_path):
    out = tmp_path / "s.json"
    args = ("sample", "--model", "1,1,2", "--samples", "400", "--seed", "7",
            "--out", str(out))
    code, _, err = run(capsys, *args)
    assert code == 0, err
    first = out.read_bytes()
    first_traj = (tmp_path / "s.json.trajectories.json").read_bytes()
    code, _, _ = run(capsys, *args)
    assert out.read_bytes() == first
    assert (tmp_path / "s.json.trajectories.json").read_bytes() == first_traj
    doc = json.loads(first)
    freq = doc["empirical_density"]["1"]["0"]
    assert abs(freq - 0.5) < 0.1
    assert doc["trajectory_file"].endswith(".trajectories.json")


def test_sample_and_render_outputs_are_pinned(capsys, monkeypatch, tmp_path):
    # Relative paths, as the summary names its trajectory file.
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    for model, samples, seed in SAMPLE_CASES:
        out = f"s-{model}.json"
        code, _, err = run(
            capsys, "sample", "--model", model, "--samples", samples, "--seed", seed,
            "--out", out,
        )
        assert code == 0, err
        for path in (out, out + ".trajectories.json"):
            digest.update((tmp_path / path).read_bytes())
    for style in ("paths", "surface", "rhombi"):
        code, svg, err = run(
            capsys, "render", "--trajectory", "s-6,6,12.json.trajectories.json",
            "--index", "3", "--style", style,
        )
        assert code == 0, err
        digest.update(svg.encode())
    assert digest.hexdigest() == SAMPLE_DIGEST


def test_failed_replace_leaves_no_temporary_file(capsys, monkeypatch, tmp_path):
    def fail(*args):
        raise OSError("replace refused")

    monkeypatch.setattr(cli.os, "replace", fail)
    code, out, err = run(
        capsys, "enumerate", "--model", "2,1,2", "--out", str(tmp_path / "e.json")
    )
    assert code == 2
    assert err.startswith("error:") and not out
    assert list(tmp_path.iterdir()) == []


def test_sample_requires_out(capsys):
    code, _, _ = run(capsys, "sample", "--model", "1,1,2", "--samples", "1")
    assert code == 2


@pytest.mark.parametrize("samples", ["0", "-2"])
def test_sample_nonpositive_samples_exit_2(capsys, tmp_path, samples):
    out = tmp_path / "s.json"
    code, _, err = run(
        capsys, "sample", "--model", "1,1,2", "--samples", samples, "--out", str(out),
    )
    assert code == 2
    assert "--samples" in err
    assert not out.exists()
    assert not (tmp_path / "s.json.trajectories.json").exists()


def test_sample_forced_model_identical_trajectories(capsys, tmp_path):
    out = tmp_path / "flat.json"
    run(capsys, "sample", "--model", "2,0,4", "--samples", "5", "--out", str(out))
    doc = json.loads((tmp_path / "flat.json.trajectories.json").read_text())
    assert all(rec == doc["trajectories"][0] for rec in doc["trajectories"])


def test_sampler_size_exit_3(capsys, tmp_path):
    code, _, _ = run(
        capsys, "sample", "--model", "25,1,2", "--samples", "1",
        "--out", str(tmp_path / "x.json"),
    )
    assert code == 3


def test_limit_report(capsys):
    doc = run_json(capsys, "limit", "--regime", "1,1,2,1,1", "--dmax", "3")
    assert doc["density"] == pytest.approx(2 / 3)
    assert doc["region"] == "inside"
    assert doc["sine_kernel"]["0"] == pytest.approx(2 / 3)
    assert max(abs(v) for v in doc["duality_residuals"].values()) < 1e-10


def test_limit_negative_dmax_exit_2(capsys):
    code, out, err = run(capsys, "limit", "--regime", "1,1,2,1,1", "--dmax", "-2")
    assert code == 2
    assert err.startswith("error: --dmax")
    assert out == ""


def test_limit_frozen_report(capsys):
    doc = run_json(capsys, "limit", "--regime", "1,1,2,1,1.95")
    assert doc["region"] == "frozen_empty"
    assert doc["density"] == 0.0


def test_limit_boundary_exit_4(capsys):
    code, _, _ = run(capsys, "limit", "--regime", "1,1,2,1,0")
    assert code == 4


def test_limit_duality_residual_beyond_the_float_range_exit_4(capsys):
    # c is about 2.4e-159 here, so c^-2 in the residual overflows.
    regime = "1e-300,9.959867505377773e-07,897830.0883425387,605097.7673561512,1e-300"
    code, out, err = run(capsys, "limit", "--regime", regime, "--dmax", "2")
    assert code == 4
    assert out == ""
    assert err.startswith("error: particle-hole duality residual")


@pytest.mark.parametrize(
    "argv",
    [
        ("--dmax", "100000000"),
        ("--rhos", "1e6"),
        ("--rhos", "20,40,1101"),  # the side rho * T~ = 2202 is above 2200
        ("--rhos", "600,700,800"),  # each side is below 2200, their squares sum above
        ("--rhos", "1e200"),  # the side's square overflows a float
        ("--regime", "1,1,1e300,1,1", "--rhos", "1"),  # T~ = 1e300
        ("--regime", "10,10,20,10,10", "--rhos", "221"),
    ],
    ids=" ".join,
)
def test_limit_cost_caps_exit_3_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def fail(*args, **kwargs):
        raise AssertionError("limit work started")

    monkeypatch.setattr(cli, "convergence_probe", fail)
    monkeypatch.setattr(kernels, "slice_basis", fail)
    monkeypatch.setattr(cli, "sine_kernel_static", fail)
    out = tmp_path / "l.json"
    code, _, err = run(capsys, "limit", "--regime", "1,1,2,1,1", *argv, "--out", str(out))
    assert code == 3
    assert "cap" in err
    assert not out.exists()


def test_limit_cost_caps_admit_their_bound(capsys, monkeypatch):
    calls = []

    def probe(regime, offsets, rhos):
        calls.append(rhos)
        return SimpleNamespace(rows=())

    monkeypatch.setattr(cli, "convergence_probe", probe)
    doc = run_json(capsys, "limit", "--regime", "1,1,2,1,1", "--rhos", "1100", "--dmax", "10000")
    assert calls == [[1100.0]]
    assert len(doc["sine_kernel"]) == 20001


@pytest.mark.parametrize("error", PACKAGE_ERRORS, ids=lambda e: e.__name__)
def test_package_errors_map_to_exit_codes(capsys, monkeypatch, error):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(cli, "cmd_enumerate", fail)
    code, _, err = run(capsys, "enumerate", "--model", "1,1,2")
    assert code == EXIT_CODES.get(error, 4)
    assert err == "error: boom\n"


def test_parser_is_built_once_per_process(capsys):
    run_json(capsys, "enumerate", "--model", "2,1,2")
    parser = cli.build_parser()
    run_json(capsys, "enumerate", "--model", "2,1,2")
    assert cli.build_parser() is parser


@pytest.mark.parametrize("rho", ["inf", "-inf", "nan", "0", "-5"])
def test_limit_nonfinite_or_nonpositive_scale_exit_2(capsys, tmp_path, rho):
    out = tmp_path / "l.json"
    code, _, err = run(
        capsys, "limit", "--regime", "1,1,2,1,1", f"--rhos=20,{rho}", "--out", str(out),
    )
    assert code == 2
    assert err.startswith("error: --rhos")
    assert not out.exists()


@pytest.mark.parametrize("position", range(5))
@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_limit_nonfinite_regime_exit_2(capsys, monkeypatch, position, value):
    def fail(*args, **kwargs):
        raise AssertionError("limit work started")

    monkeypatch.setattr(cli, "limit_params", fail)
    fields = ["1", "1", "2", "1", "1"]
    fields[position] = value
    code, out, err = run(capsys, "limit", "--regime=" + ",".join(fields))
    assert code == 2
    assert err.startswith("error: regime values must be finite")
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("--offsets", "1"),  # ignored before, since only --rhos reads it
        ("--offsets", "0:0"),
        ("--rhos", "20", "--offsets", "1"),
        ("--rhos", "20", "--offsets", "0:0,1:x"),
        ("--rhos", "20", "--offsets", "0:0:1"),
        ("--regime", "1,1,2,1"),  # replaces the five-value regime with four values
    ],
    ids=" ".join,
)
def test_limit_bad_offsets_exit_2_before_any_work(capsys, monkeypatch, argv):
    def fail(*args, **kwargs):
        raise AssertionError("limit work started")

    for name in ("limit_params", "sine_kernel_static", "particle_hole_duality_residual",
                 "convergence_probe"):
        monkeypatch.setattr(cli, name, fail)
    code, out, err = run(capsys, "limit", "--regime", "1,1,2,1,1", *argv)
    assert code == 2
    assert err.startswith("error: " + argv[-2])  # the flag at fault
    assert out == ""


def test_limit_far_offset_matches_quadrature(capsys):
    # 60 sites from the base point at c = 1, the limit is within 1e-12 of quadrature.
    doc = run_json(
        capsys, "limit", "--regime", "1,1,2,1,1", "--rhos", "80", "--offsets", "60:-1"
    )
    params = limit_params(LimitRegime(1, 1, 2, 1, 1))
    quad = _gauss_unit_arc_integral(params.c, params.phi, 60, -1, Side.RIGHT)
    assert abs(doc["convergence"][0]["cells"]["60:-1"]["limit"] - quad.real) < 1e-12


def test_limit_refused_arc_sum_exit_4(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(bulk, "ARC_ERROR_BOUND", 1e-300)
    out = tmp_path / "l.json"
    code, _, err = run(capsys, "limit", "--regime", "1,1,2,1,1", "--out", str(out))
    assert code == 4
    assert err.startswith("error: no closed form for the arc sum")
    assert not out.exists()


def test_limit_convergence_table(capsys):
    doc = run_json(
        capsys, "limit", "--regime", "1,1,2,1,1", "--rhos", "4,8",
        "--offsets", "0:0,1:0,0:1",
    )
    errors = [row["max_error"] for row in doc["convergence"]]
    assert errors[0] >= errors[1]


def test_render_roundtrip(capsys, tmp_path):
    out = tmp_path / "s.json"
    run(capsys, "sample", "--model", "2,2,4", "--samples", "2", "--seed", "3",
        "--out", str(out))
    svg_path = tmp_path / "t.svg"
    code, _, err = run(
        capsys, "render",
        "--trajectory", str(tmp_path / "s.json.trajectories.json"),
        "--style", "rhombi", "--out", str(svg_path),
    )
    assert code == 0, err
    text = svg_path.read_text()
    assert text.count('class="up"') == 4
    code2, out2, _ = run(
        capsys, "render",
        "--trajectory", str(tmp_path / "s.json.trajectories.json"),
        "--style", "rhombi",
    )
    assert code2 == 0 and out2 == text


def test_render_bad_trajectory_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "render", "--trajectory", str(bad))
    assert code == 2
    missing_index = tmp_path / "ok.json"
    run(capsys, "sample", "--model", "1,1,2", "--samples", "1",
        "--out", str(tmp_path / "s2.json"))
    code, _, _ = run(
        capsys, "render",
        "--trajectory", str(tmp_path / "s2.json.trajectories.json"), "--index", "9",
    )
    assert code == 2
    cases = [
        ((1, 1, 3), ["1U"]),  # too few steps
        ((1, 1, 3), ["1U5F"]),  # too many steps
        ((1, 1, 3), ["1Uxyz2F"]),  # stray characters
        ((1, 1, 3), [12]),  # not a string
        ((1, 1, 3), ["100000000000000000000U"]),  # a run far longer than T
        ((2, 1, 2), ["1U1F"]),  # one path for a two-path model
    ]
    for (n, s, t), paths in cases:
        doc = {"model": {"N": n, "S": s, "T": t}, "trajectories": [{"paths": paths}]}
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "render", "--trajectory", str(bad))
        assert code == 2, (paths, err)
        assert err.startswith("error: "), (paths, err)
    model = {"N": 1, "S": 1, "T": 3}
    paths = [{"paths": ["1U2F"]}]
    docs = [
        [model, paths],  # not an object
        {"model": [1, 1, 3], "trajectories": paths},
        {"model": {"N": "a", "S": 1, "T": 3}, "trajectories": paths},
        {"model": {"N": 1, "S": 1.0, "T": 3}, "trajectories": paths},
        {"model": {"N": True, "S": 1, "T": 3}, "trajectories": paths},
        {"model": {"N": 1, "S": 1}, "trajectories": paths},
        {"model": model, "trajectories": 5},
        {"model": model, "trajectories": {"paths": ["1U2F"]}},
        {"model": model, "trajectories": [5]},
        {"model": model, "trajectories": [{"paths": "1U2F"}]},
    ]
    for doc in docs:
        bad.write_text(json.dumps(doc))
        code, _, err = run(capsys, "render", "--trajectory", str(bad))
        assert code == 2, (doc, err)
        assert err.startswith("error: "), (doc, err)
    bad.write_text(json.dumps({"model": model, "trajectories": paths}))
    code, out, err = run(capsys, "render", "--trajectory", str(bad))
    assert code == 0, err


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--model", "2,1,2", "--seed", "1"),
        ("enumerate", "--model", "2,1,2", "--format", "csv"),
        ("kernel", "--model", "2,1,3", "--seed", "1"),
        ("kernel", "--model", "2,1,3", "--format", "svg"),
        ("sample", "--model", "1,1,2", "--mode", "exact"),
        ("sample", "--model", "1,1,2", "--format", "json"),
        ("limit", "--regime", "1,1,2,1,1", "--mode", "exact"),
        ("limit", "--regime", "1,1,2,1,1", "--seed", "1"),
        ("limit", "--regime", "1,1,2,1,1", "--format", "json"),
        ("render", "--trajectory", "t.json", "--model", "1,1,2"),
        ("render", "--trajectory", "t.json", "--hexagon", "1,1,1"),
        ("render", "--trajectory", "t.json", "--mode", "exact"),
        ("render", "--trajectory", "t.json", "--seed", "1"),
        ("render", "--trajectory", "t.json", "--format", "svg"),
    ],
    ids=" ".join,
)
def test_removed_flags_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err
