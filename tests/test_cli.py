"""CLI surface: every subcommand, file formats, and exit codes."""

import csv
import hashlib
import json

import numpy as np
import pytest

from orderfp import corpus
from orderfp.cli import main
from orderfp.mapping import AffineMap, Domain, MappingSpec, save_mapping
from orderfp.order import ConeSpec


@pytest.fixture()
def contraction_file(tmp_path):
    path = tmp_path / "contraction.json"
    save_mapping(corpus.affine_contraction(2), path)
    return path


def test_modulus_writes_csv(tmp_path, capsys):
    out = tmp_path / "modulus.csv"
    assert main(["modulus", "--p", "2.0", "--eps-grid", "9", "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    eps = [float(r["epsilon"]) for r in rows]
    deltas = [float(r["delta"]) for r in rows]
    assert eps[0] == 0.0 and eps[-1] == 2.0
    assert deltas == sorted(deltas)


def test_modulus_stdout(capsys):
    assert main(["modulus", "--p", "1.5", "--eps-grid", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("epsilon,delta")


@pytest.mark.parametrize("p", ["4", "10"])
def test_modulus_large_p(tmp_path, p):
    out = tmp_path / "modulus.csv"
    assert main(["modulus", "--p", p, "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 101
    assert float(rows[-1]["delta"]) == 1.0


def test_modulus_dim1_is_half_eps(tmp_path):
    out = tmp_path / "modulus.csv"
    assert main(["modulus", "--p", "3", "--dim", "1", "--eps-grid", "11", "--out", str(out)]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["delta"]) for r in rows] == [float(r["epsilon"]) / 2.0 for r in rows]


def test_order_check_orthant(capsys):
    assert main(["order", "check", "--cone", "orthant", "--dim", "3",
                 "--samples", "200", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "normality estimate" in out and "monotonic norm       : pass" in out


def test_order_check_lorentz(capsys):
    assert main(["order", "check", "--cone", "lorentz", "--dim", "3",
                 "--samples", "200", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "lorentz (dim=3, p=2.0)" in out and "monotonic norm       : pass" in out


def test_check_mapping_pass_and_json(tmp_path, contraction_file, capsys):
    report = tmp_path / "report.json"
    code = main(["check-mapping", "--map", str(contraction_file), "--alpha", "0.0",
                 "--samples", "200", "--seed", "2", "--json", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    names = {entry["property"] for entry in payload}
    assert {"monotone", "monotone_nonexpansive", "alpha_nonexpansive"} <= names
    assert all(entry["verdict"] == "pass" for entry in payload)


def test_check_mapping_orders_by_the_domain_cone(tmp_path, capsys):
    # the identity on the Lorentz cone passes; there is no second order to pick
    spec = MappingSpec(AffineMap(np.eye(2), np.zeros(2)), Domain(kind="cone", cone=ConeSpec("lorentz", 2)))
    path = tmp_path / "identity.json"
    save_mapping(spec, path)
    assert main(["check-mapping", "--map", str(path), "--samples", "200", "--seed", "0"]) == 0
    assert "fail" not in capsys.readouterr().out
    with pytest.raises(SystemExit) as exited:
        main(["check-mapping", "--map", str(path), "--cone", "lorentz"])
    assert exited.value.code == 2 and "--cone" in capsys.readouterr().err


def test_check_mapping_detects_expansion(tmp_path, capsys):
    spec = MappingSpec(
        AffineMap(matrix=1.5 * np.eye(2), offset=np.zeros(2)),
        Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=2)),
    )
    path = tmp_path / "expansion.json"
    save_mapping(spec, path)
    report = tmp_path / "report.json"
    assert main(["check-mapping", "--map", str(path), "--samples", "200", "--seed", "3", "--json", str(report)]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "witness" in out and "scale=" not in out
    # each violation carries the scale its sides are in units of the square of
    violations = [v for entry in json.loads(report.read_text()) for v in entry["violations"]]
    assert violations and all(v["scale"] == 1.0 for v in violations)


def test_iterate_then_asym_center(tmp_path, contraction_file, capsys):
    orbit = tmp_path / "orbit.csv"
    assert main(["iterate", "--map", str(contraction_file), "--x0", "zero", "--out", str(orbit)]) == 0
    with orbit.open() as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["leq_up"] == "1" and rows[0]["leq_down"] == "0"
    assert rows[-1]["leq_up"] == ""  # step flags are blank on the last row

    report = tmp_path / "center.txt"
    code = main(["asym-center", "--orbit", str(orbit), "--tail-from", "10",
                 "--map", str(contraction_file), "--out", str(report)])
    assert code == 0
    text = report.read_text()
    assert "center fixed (tol 1e-06) : True" in text


def test_iterate_prints_and_writes_the_picard_orbit(tmp_path, contraction_file, capsys):
    # x -> x/2 + 1 from zero: x_n = 2 - 2^(1-n), converged at n = 34
    orbit = tmp_path / "orbit.csv"
    assert main(["iterate", "--map", str(contraction_file), "--x0", "zero", "--out", str(orbit)]) == 0
    assert capsys.readouterr().out == (
        "picard orbit: 35 points, verdict=converged, order=increasing, final residual=8.231806349783991e-11\n"
    )
    data = orbit.read_bytes()
    lines = data.decode().split("\r\n")
    assert lines[:2] == ["n,x0,x1,residual,norm,leq_up,leq_down", "0,0.0,0.0,1.4142135623730951,0.0,1,0"]
    assert lines[-2:] == ["34,1.9999999998835847,1.9999999998835847,8.231806349783991e-11,2.828427124581554,,", ""]
    assert hashlib.sha256(data).hexdigest() == "c1d40fbdd15f6c5eab971fe4d48cd03f46bae37d18d315fda9e86031ef009d68"


@pytest.mark.parametrize("option", [["--scheme", "mann"], ["--beta", "0.5"]], ids=["scheme", "beta"])
def test_iterate_refuses_the_removed_mann_options(tmp_path, contraction_file, capsys, option):
    orbit = tmp_path / "orbit.csv"
    with pytest.raises(SystemExit) as exit_:
        main(["iterate", "--map", str(contraction_file), *option, "--out", str(orbit)])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(option)}" in err
    assert not orbit.exists()


@pytest.mark.parametrize("x0, cause", [
    ("1,2,3", "'1,2,3' has 3 coordinates; the map is 2-D"),
    ("1", "'1' has 1 coordinates; the map is 2-D"),
    ("1,abc", "'1,abc' is not a list of numbers: could not convert string to float: 'abc'; the map is 2-D"),
    ("", "'' is not a list of numbers: could not convert string to float: ''; the map is 2-D"),
])
def test_iterate_bad_x0_names_its_cause(tmp_path, contraction_file, capsys, x0, cause):
    orbit = tmp_path / "orbit.csv"
    assert main(["iterate", "--map", str(contraction_file), "--x0", x0, "--out", str(orbit)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"--x0 {cause}\n" and captured.out == ""
    assert not orbit.exists()


@pytest.mark.parametrize("x0, cause", [
    ("-1,0", "'-1,0' lies outside the map's domain; the map is 2-D"),
    ("nan,0", "'nan,0' has non-finite coordinates; the map is 2-D"),
    ("1,inf", "'1,inf' has non-finite coordinates; the map is 2-D"),
])
def test_iterate_x0_off_the_domain_names_its_cause(tmp_path, contraction_file, capsys, x0, cause):
    orbit = tmp_path / "orbit.csv"
    assert main(["iterate", "--map", str(contraction_file), f"--x0={x0}", "--out", str(orbit)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"--x0 {cause}\n" and captured.out == ""
    assert not orbit.exists()


def test_asym_center_bad_tail_offset(tmp_path, contraction_file):
    orbit = tmp_path / "orbit.csv"
    main(["iterate", "--map", str(contraction_file), "--x0", "zero", "--out", str(orbit)])
    assert main(["asym-center", "--orbit", str(orbit), "--tail-from", "99999"]) == 2


def test_asym_center_refuses_a_tail_that_does_not_ascend(tmp_path, capsys):
    # the closed form is the supremum of an ascending tail: on this descending
    # orbit, which converges to -3, it reported the first point with residual 0.707
    drift, orbit = tmp_path / "drift.json", tmp_path / "orbit.csv"
    save_mapping(corpus.box_drift_down(2), drift)
    assert main(["iterate", "--map", str(drift), "--x0=-1,-1", "--out", str(orbit)]) == 0
    capsys.readouterr()
    assert main(["asym-center", "--orbit", str(orbit), "--tail-from", "0", "--map", str(drift)]) == 2
    want = "the tail's supremum is its centre only if it ascends: point 1 is not >= point 0\n"
    assert capsys.readouterr() == ("", want)
    assert main(["asym-center", "--orbit", str(orbit), "--tail-from", "9"]) == 2
    assert capsys.readouterr() == ("", "tail offset 9 out of range for 5 points\n")


@pytest.mark.parametrize("text, message", [
    (None, "No such file or directory"),
    ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    ("[1]", "map needs a JSON object, got [1]"),
])
def test_a_bad_map_file_ends_in_one_line(tmp_path, capsys, text, message):
    path = tmp_path / "map.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert main(["check-mapping", "--map", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and message in err


def test_a_non_finite_alpha_ends_in_one_line(contraction_file, capsys):
    # it ran every check at alpha = nan, where no pair can fail
    assert main(["check-mapping", "--map", str(contraction_file), "--alpha", "nan"]) == 2
    assert capsys.readouterr() == ("", "alpha must be a finite number < 1, got nan\n")


def test_a_bad_option_value_ends_in_one_line(tmp_path, contraction_file, capsys):
    out = tmp_path / "out.csv"
    cases = [
        (["modulus", "--p", "0.5"], "p must lie in (1, inf), got 0.5"),
        # it ran all 100,001 points and reported max_iter_reached
        (["iterate", "--map", str(contraction_file), "--out", str(out), "--residual-tol", "nan"],
         "residual_tol must be a finite number > 0, got nan"),
        (["iterate", "--map", str(contraction_file), "--out", str(out), "--bound-threshold", "inf"],
         "bound_threshold must be a finite number > 0, got inf"),
        # 0 samples passed every class; -3 failed in numpy, naming no option
        (["check-mapping", "--map", str(contraction_file), "--samples", "0", "--json", str(out)],
         "n_samples must be >= 1, got 0"),
        (["check-mapping", "--map", str(contraction_file), "--samples", "-3"], "n_samples must be >= 1, got -3"),
        (["check-mapping", "--map", str(contraction_file), "--seed", "-1"], "seed must be >= 0, got -1"),
    ]
    for argv, message in cases:
        assert main(argv) == 2
        assert capsys.readouterr() == ("", message + "\n")
        assert not out.exists()


def test_order_check_refuses_a_negative_seed_in_one_line(capsys):
    # numpy refused it first, with "expected non-negative integer"
    assert main(["order", "check", "--cone", "orthant", "--dim", "2", "--seed", "-1"]) == 2
    assert capsys.readouterr() == ("", "seed must be >= 0, got -1\n")


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_asym_center_refuses_a_fixed_tol_that_is_not_a_finite_number_above_0(tmp_path, contraction_file, tol, capsys):
    # inf called every centre fixed and nan none; the refusal comes before the
    # orbit file is read, so a missing file is not what it names
    args = ["asym-center", "--orbit", str(tmp_path / "missing.csv"), "--tail-from", "6", "--map",
            str(contraction_file), "--fixed-tol", tol, "--out", str(tmp_path / "center.txt")]
    assert main(args) == 2
    want = f"--fixed-tol must be a finite number > 0, got {float(tol)}\n"
    assert capsys.readouterr() == ("", want)
    assert not (tmp_path / "center.txt").exists()


def test_verify_suite_passes(tmp_path, capsys):
    out_dir = tmp_path / "verify"
    code = main(["verify", "--suite", "t33", "--seed", "1", "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "summary.txt").exists()
    assert "ALL PASS" in capsys.readouterr().out


def test_verify_corrupted_config_fails(tmp_path):
    from orderfp.mapping import mapping_to_dict

    bad_op = AffineMap(matrix=np.array([[0.5, 0.0], [-0.5, 0.5]]), offset=np.array([0.5, 1.0]))
    bad = MappingSpec(bad_op, Domain(kind="box", cone=ConeSpec(kind="orthant", dim=2),
                                      lo=np.zeros(2), hi=np.full(2, 2.0)))
    config = {
        "replace_scenarios": True,
        "scenarios": {"t32": [{"id": "bad", "map": mapping_to_dict(bad),
                               "alpha": 0.0, "x0_policy": "below"}]},
    }
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["verify", "--suite", "t32", "--config", str(cfg_path),
                 "--seed", "0", "--out", str(tmp_path / "out")])
    assert code == 1


def test_verify_deterministic_summaries(tmp_path):
    fam = {"family": {"dims": [2], "rhos": [0.5, 0.95], "n_per_cell": 2,
                      "translations_per_dim": 1}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fam))
    for name in ("a", "b"):
        code = main(["verify", "--suite", "t34", "--config", str(cfg_path),
                     "--seed", "7", "--out", str(tmp_path / name)])
        assert code == 0
    assert (tmp_path / "a" / "summary.txt").read_bytes() == (
        tmp_path / "b" / "summary.txt").read_bytes()
    assert (tmp_path / "a" / "t34_trials.csv").read_bytes() == (
        tmp_path / "b" / "t34_trials.csv").read_bytes()


ASYM_CENTER_HEAD = (
    "tail points          : 7 (from index 6)\n"
    "center z             : [1.9995117188 1.9995117188]\n"
)

# Full report, pinned: the residual is ||Tz - z|| in the space's own norm
ASYM_CENTER_REPORT = {
    ("2", False): ASYM_CENTER_HEAD + (
        "attained radius r    : 0.04350363985815673\n"
        "certified lower bound: 0.04350363985815673\n"
        "optimality gap       : 0.0\n"
        "fixed-point residual : nan\n"
    ),
    ("2", True): ASYM_CENTER_HEAD + (
        "attained radius r    : 0.04350363985815673\n"
        "certified lower bound: 0.04350363985815673\n"
        "optimality gap       : 0.0\n"
        "fixed-point residual : 0.00034526698300124393\n"
        "center fixed (tol 0.00036) : True\n"
    ),
    ("1.5", False): ASYM_CENTER_HEAD + (
        "attained radius r    : 0.048831184704099896\n"
        "certified lower bound: 0.048831184704099896\n"
        "optimality gap       : 0.0\n"
        "fixed-point residual : nan\n"
    ),
    ("1.5", True): ASYM_CENTER_HEAD + (
        "attained radius r    : 0.048831184704099896\n"
        "certified lower bound: 0.048831184704099896\n"
        "optimality gap       : 0.0\n"
        "fixed-point residual : 0.0003875490849531739\n"
        "center fixed (tol 0.00036) : False\n"
    ),
}


def test_asym_center_fixed_verdict_uses_the_space_norm(tmp_path, contraction_file, capsys):
    # the center of the 13-point orbit's tail from index 6 has residual
    # 2^-12 per coordinate: 3.45e-4 in l2, 3.88e-4 in l1.5
    orbit, report = tmp_path / "orbit.csv", tmp_path / "center.txt"
    assert main(["iterate", "--map", str(contraction_file), "--max-iter", "12", "--out", str(orbit)]) == 0
    capsys.readouterr()
    for (p, with_map), want in ASYM_CENTER_REPORT.items():
        args = ["asym-center", "--orbit", str(orbit), "--tail-from", "6", "--p", p, "--fixed-tol", "3.6e-4",
                "--out", str(report)]
        assert main(args + (["--map", str(contraction_file)] if with_map else [])) == 0
        assert capsys.readouterr() == (want, "")
        assert report.read_bytes() == want.encode("utf-8")


# Full stdout, pinned: a change in the order or number of draws changes a
# witness or an estimate, which a substring check would not see.
ORDER_CHECK_STDOUT = {
    ("orthant", "5"): (
        "cone                 : orthant (dim=5, p=2.0)\n"
        "normality estimate   : 0.8588427828057912 (sampled lower bound)\n"
        "monotonic norm       : pass\n"
    ),
    ("lorentz", "3"): (
        "cone                 : lorentz (dim=3, p=2.0)\n"
        "normality estimate   : 1.0 (sampled lower bound)\n"
        "monotonic norm       : pass\n"
    ),
}

STEEP_STEP_CHECK_STDOUT = (
    "monotone              : pass  [200 samples, 0 violations]\n"
    "monotone_nonexpansive : fail  [200 samples, 11 violations]\n"
    "  witness: x=[2.] y=[3.] lhs=1.5 rhs=1.0\n"
    "alpha_nonexpansive    : pass (alpha=0.3)  [200 samples, 0 violations]\n"
    "nonspreading          : pass  [200 samples, 0 violations]\n"
    "hybrid                : pass  [200 samples, 0 violations]\n"
    "tj                    : fail  [200 samples, 12 violations]\n"
    "  witness: x=[3.] y=[1.] lhs=4.5 rhs=4.25\n"
)


@pytest.mark.parametrize("cone, dim", sorted(ORDER_CHECK_STDOUT))
def test_order_check_full_stdout(cone, dim, capsys):
    assert main(["order", "check", "--cone", cone, "--dim", dim, "--seed", "1"]) == 0
    assert capsys.readouterr().out == ORDER_CHECK_STDOUT[cone, dim]


def test_order_check_fails_with_the_witness_of_a_norm_that_is_not_monotonic(capsys):
    # l1.5 on the Lorentz cone: 0 <= x <= y with ||x|| > ||y||, so the exit code is 1
    assert main(["order", "check", "--cone", "lorentz", "--dim", "3", "--p", "1.5", "--seed", "0"]) == 1
    assert capsys.readouterr().out == (
        "cone                 : lorentz (dim=3, p=1.5)\n"
        "normality estimate   : 1.005341083070546 (sampled lower bound)\n"
        "monotonic norm       : fail\n"
        "  witness: x=[0.117767 0.103428 0.156737] y=[0.10841  0.094884 0.169408] "
        "lhs=0.26410786911559814 rhs=0.2627047412694517\n"
    )


def test_check_mapping_full_stdout(tmp_path, capsys):
    # a lattice map: its pairs and points come from the lattice draws
    path = tmp_path / "steep.json"
    save_mapping(corpus.steep_step_map(), path)
    assert main(["check-mapping", "--map", str(path), "--alpha", "0.3", "--samples", "200", "--seed", "2"]) == 1
    assert capsys.readouterr().out == STEEP_STEP_CHECK_STDOUT
