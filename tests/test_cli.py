"""CLI surface: every subcommand, file formats, and exit codes."""

import csv
import json

import numpy as np
import pytest

from orderfp import corpus
from orderfp.cli import main
from orderfp.mapping import AffineMap, Domain, make_mapping, save_mapping
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
    assert "normality estimate" in out and "lattice axioms" in out


def test_order_check_lorentz(capsys):
    assert main(["order", "check", "--cone", "lorentz", "--dim", "3",
                 "--samples", "200", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "unsupported" in out


def test_check_mapping_pass_and_json(tmp_path, contraction_file, capsys):
    report = tmp_path / "report.json"
    code = main(["check-mapping", "--map", str(contraction_file), "--alpha", "0.0",
                 "--samples", "200", "--seed", "2", "--json", str(report)])
    assert code == 0
    payload = json.loads(report.read_text())
    names = {entry["property"] for entry in payload}
    assert {"monotone", "monotone_nonexpansive", "alpha_nonexpansive"} <= names
    assert all(entry["verdict"] == "pass" for entry in payload)


def test_check_mapping_detects_expansion(tmp_path, capsys):
    spec = make_mapping(
        AffineMap(matrix=1.5 * np.eye(2), offset=np.zeros(2)),
        Domain(kind="cone", cone=ConeSpec(kind="orthant", dim=2)),
    )
    path = tmp_path / "expansion.json"
    save_mapping(spec, path)
    assert main(["check-mapping", "--map", str(path), "--samples", "200", "--seed", "3"]) == 1
    out = capsys.readouterr().out
    assert "fail" in out and "witness" in out


def test_iterate_then_asym_center(tmp_path, contraction_file, capsys):
    orbit = tmp_path / "orbit.csv"
    assert main(["iterate", "--map", str(contraction_file), "--x0", "zero",
                 "--scheme", "picard", "--out", str(orbit)]) == 0
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


def test_iterate_mann_scheme(tmp_path, contraction_file, capsys):
    orbit = tmp_path / "mann.csv"
    assert main(["iterate", "--map", str(contraction_file), "--x0", "1,1",
                 "--scheme", "mann", "--beta", "0.5", "--out", str(orbit)]) == 0
    out = capsys.readouterr().out
    assert "mann orbit" in out and "converged" in out


def test_asym_center_bad_tail_offset(tmp_path, contraction_file):
    orbit = tmp_path / "orbit.csv"
    main(["iterate", "--map", str(contraction_file), "--x0", "zero",
          "--scheme", "picard", "--out", str(orbit)])
    assert main(["asym-center", "--orbit", str(orbit), "--tail-from", "99999"]) == 2


def test_verify_suite_passes(tmp_path, capsys):
    out_dir = tmp_path / "verify"
    code = main(["verify", "--suite", "t33", "--seed", "1", "--out", str(out_dir)])
    assert code == 0
    assert (out_dir / "summary.txt").exists()
    assert "ALL PASS" in capsys.readouterr().out


def test_verify_corrupted_config_fails(tmp_path):
    from orderfp.mapping import mapping_to_dict

    bad_op = AffineMap(matrix=np.array([[0.5, 0.0], [-0.5, 0.5]]), offset=np.array([0.5, 1.0]))
    bad = make_mapping(bad_op, Domain(kind="box", cone=ConeSpec(kind="orthant", dim=2),
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
