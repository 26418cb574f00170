import glob
import os
import re

import numpy as np
import pytest

from pintlab import cli
from pintlab.bounds import BoundQuery, PropagatorSpec, bound_values, sweep
from pintlab.butcher import get_scheme, stability_eval_batch
from pintlab.cli import main


def read(path):
    with open(path) as fh:
        return fh.read()


def test_bounds_command_writes_curves(tmp_path):
    rc = main(["bounds", "--fine", "trapezoid", "--coarse", "bwe",
               "--k", "2,4", "--relax", "f", "--out", str(tmp_path),
               "--n", "64"])
    assert rc == 0
    names = sorted(os.listdir(tmp_path))
    assert names == ["bounds_trapezoid_bwe_f_k2_ncinf.csv",
                     "bounds_trapezoid_bwe_f_k4_ncinf.csv"]
    text = read(tmp_path / names[0])
    assert text.startswith("# config: ")
    assert "# version: pintlab" in text
    assert "w,phi" in text
    assert "# max_phi = " in text


def test_bounds_rerun_byte_identical(tmp_path):
    args = ["bounds", "--fine", "sdirk22", "--coarse", "sdirk22",
            "--k", "4", "--n", "64"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    name = os.listdir(a)[0]
    assert read(a / name) == read(b / name)


def test_bounds_imaginary_defaults_to_tight_kind(tmp_path):
    rc = main(["bounds", "--fine", "bwe", "--coarse", "bwe", "--k", "4",
               "--axis", "imag", "--nc", "16", "--out", str(tmp_path),
               "--n", "64"])
    assert rc == 0
    text = read(tmp_path / "bounds_bwe_bwe_f_k4_nc16.csv")
    assert "kind=upper_tight" in text


def test_bounds_unknown_scheme_exits_2(capsys):
    assert main(["bounds", "--fine", "nope", "--coarse", "bwe"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 8\nn = 64\n")
    rc = main(["bounds", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
               "--config", str(cfg), "--out", str(tmp_path), "--n", "512"])
    assert rc == 0
    assert "bounds_bwe_bwe_f_k8_ncinf.csv" in os.listdir(tmp_path)


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mystery = 1\n")
    rc = main(["bounds", "--fine", "bwe", "--coarse", "bwe",
               "--config", str(cfg)])
    assert rc == 2
    assert "unknown key" in capsys.readouterr().err


@pytest.mark.parametrize("line, message", [
    ("axis = bogus", "axis: invalid choice 'bogus'"),
    ("kind = foo", "kind: invalid choice 'foo'"),
    ("n = many", "n: invalid int value 'many'"),
], ids=["bad_axis", "bad_kind", "bad_int"])
def test_config_file_value_checked_like_flag(tmp_path, capsys, line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"# comment\n{line}\n")
    rc = main(["bounds", "--fine", "bwe", "--coarse", "bwe",
               "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{cfg}:2: {message}" in err
    assert not glob.glob(str(tmp_path / "*.csv"))


def _check_layout(path):
    """`# ` header lines, a column row, uniform data rows, `# k = v` footers"""
    lines = read(path).splitlines()
    n_head = next(i for i, line in enumerate(lines)
                  if not line.startswith("#"))
    assert n_head >= 2, path
    assert lines[0].startswith("# config: ")
    assert lines[1].startswith("# version: pintlab ")
    columns = lines[n_head].split(",")
    body = lines[n_head + 1:]
    n_rows = next((i for i, line in enumerate(body) if line.startswith("#")),
                  len(body))
    assert n_rows > 0, path
    for row in body[:n_rows]:
        cells = row.split(",")
        assert len(cells) == len(columns), (path, row)
        for cell in cells:
            assert cell and " " not in cell and cell not in ("True", "False")
    for footer in body[n_rows:]:
        assert re.fullmatch(r"# \w+ = \S+", footer), (path, footer)
    return columns, body[:n_rows], body[n_rows:]


def test_every_csv_kind_shares_one_layout(tmp_path):
    out = str(tmp_path)
    commands = [
        ["bounds", "--fine", "midpoint", "--coarse", "midpoint", "--k", "2",
         "--n", "64", "--axis", "imag", "--kind", "simple"],
        ["table", "table1"],
        ["table", "table2", "--rows", "bwe"],
        ["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
         "--nt", "16", "--nmodes", "4"],
        ["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2,4",
         "--nt", "16", "--nmodes", "4"],
        ["singularity", "--scheme", "erk2", "--k", "2"],
    ]
    for argv in commands:
        assert main(argv + ["--out", out]) == 0
    expected = {
        "bounds_midpoint_midpoint_f_k2_ncinf.csv":
            ("w,phi", ["max_phi", "argmax_w", "threshold"]),
        "table1.csv": ("column,computed,reference", []),
        "table2.csv": ("scheme,k,max_F,argmax_F,threshold_F,"
                       "max_FCF,argmax_FCF,threshold_FCF", []),
        "run_history.csv": ("iter,residual_norm",
                            ["rho", "converged", "iters"]),
        "run_sweep.csv": ("k,ht,levels,rho,converged,iters", []),
        "roots_erk2_k2.csv": ("re,im,in_stable_region", []),
    }
    assert sorted(os.listdir(tmp_path)) == sorted(expected)
    for name, (columns, footer_keys) in expected.items():
        cols, _, footer = _check_layout(tmp_path / name)
        assert ",".join(cols) == columns
        assert [f.split()[1] for f in footer] == footer_keys
    _, rows, footer = _check_layout(
        tmp_path / "bounds_midpoint_midpoint_f_k2_ncinf.csv")
    assert footer[0] == "# max_phi = unbounded"
    assert any(row.endswith(",unbounded") for row in rows)
    _, rows, _ = _check_layout(tmp_path / "run_sweep.csv")
    assert [row.split(",")[4] for row in rows] == ["true", "true"]
    _, rows, _ = _check_layout(tmp_path / "roots_erk2_k2.csv")
    assert {row.split(",")[2] for row in rows} <= {"0", "1"}


def _gauss4_dense_cap(k):
    """Max of the bound below the first positive zero of mu - lam^k, found
    by sign changes on a dense 2^16-point grid over [1e-3, 1e3]."""
    tab, bwe = get_scheme("gauss4"), get_scheme("bwe")
    w = np.geomspace(1e-3, 1e3, 2 ** 16)
    gap = (stability_eval_batch(bwe, k * w)
           - stability_eval_batch(tab, w) ** k).real
    z = np.nonzero(np.sign(gap[1:]) != np.sign(gap[:-1]))[0][0] + 1
    q = BoundQuery(PropagatorSpec.uniform(tab, k), bwe, k, "F")
    return float(np.max(bound_values(q, w[:z])))


def test_gauss4_cap_matches_dense_reference(monkeypatch, capsys):
    kset = (2, 4, 8, 16)
    cap = cli._gauss4_capped_max(kset)
    assert abs(cap - 0.2984) <= 1e-3
    assert abs(cap - max(_gauss4_dense_cap(k) for k in kset)) <= 1e-3
    # the cutoff rule does not depend on where the sweep's samples land
    monkeypatch.setattr(cli, "sweep", lambda q: sweep(q, n_base=2048))
    assert abs(cli._gauss4_capped_max(kset) - cap) <= 1e-3


def test_singularity_fwe(tmp_path, capsys):
    rc = main(["singularity", "--scheme", "fwe", "--k", "2",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nonsingular on stable region" in out
    text = read(tmp_path / "roots_fwe_k2.csv")
    assert "re,im,in_stable_region" in text


def test_singularity_k_range(tmp_path, capsys):
    rc = main(["singularity", "--scheme", "erk4", "--k", "2..5",
               "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("nonsingular on stable region") == 4


def test_singularity_implicit_exits_2(capsys):
    assert main(["singularity", "--scheme", "sdirk22", "--k", "2"]) == 2
    assert "implicit" in capsys.readouterr().err


def test_simulate_single_run(tmp_path):
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
               "--relax", "f", "--nt", "64", "--ximax", "1.66",
               "--nmodes", "24", "--out", str(tmp_path)])
    assert rc == 0
    text = read(tmp_path / "run_history.csv")
    assert "iter,residual_norm" in text
    assert "# rho = " in text
    assert "# converged = true" in text


def test_simulate_sweep_rows(tmp_path):
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe",
               "--k", "2,4", "--nt", "64", "--ximax", "1.0",
               "--nmodes", "12", "--out", str(tmp_path)])
    assert rc == 0
    text = read(tmp_path / "run_sweep.csv")
    assert "k,ht,levels,rho,converged,iters" in text
    assert text.count("true") == 2


def test_simulate_determinism(tmp_path):
    args = ["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
            "--nt", "64", "--ximax", "1.0", "--nmodes", "12", "--seed", "7"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert read(a / "run_history.csv") == read(b / "run_history.csv")


def test_simulate_bad_divisibility_exits_2(capsys):
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "3",
               "--nt", "64", "--ximax", "1.0"])
    assert rc == 2
    assert "divisible" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["0", "1"])
def test_simulate_k_below_2_exits_2(k, capsys):
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", k,
               "--nt", "64", "--nmodes", "4"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"k must be >= 2, got {k}" in err


@pytest.mark.parametrize("k", ["0", "1"])
def test_singularity_k_below_2_exits_2(k, tmp_path, capsys):
    rc = main(["singularity", "--scheme", "erk4", "--k", k,
               "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"k must be >= 2, got {k}" in err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("ht", ["0", "-1"])
def test_simulate_nonpositive_ht_exits_2(ht, capsys):
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
               "--nt", "64", "--nmodes", "4", "--seeds", "1", "--ht", ht,
               "--inject-w", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--ht must be positive" in err


def test_bounds_file_name_has_no_colon(tmp_path):
    rc = main(["bounds", "--fine", "trbdf2:0.5", "--coarse", "bwe",
               "--k", "2", "--n", "64", "--out", str(tmp_path)])
    assert rc == 0
    assert os.listdir(tmp_path) == ["bounds_trbdf2-0.5_bwe_f_k2_ncinf.csv"]
    text = read(tmp_path / "bounds_trbdf2-0.5_bwe_f_k2_ncinf.csv")
    assert "fine=trbdf2:0.5" in text


def test_table2_single_row_passes(capsys):
    rc = main(["table", "table2", "--rows", "bwe"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "all gated cells within tolerance" in out


def test_table2_unknown_row_exits_2(capsys):
    rc = main(["table", "table2", "--rows", "bwe,bogus"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1
    assert "unknown --rows bogus" in captured.err
    assert "valid: bwe, midpoint, trapezoid" in captured.err
    assert captured.out == ""


def test_simulate_custom_spectrum_csv(tmp_path):
    spec_csv = tmp_path / "eigs.csv"
    spec_csv.write_text("re,im\n0.5,0.0\n1.0,0.0\n2.0,0.0\n")
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
               "--nt", "32", "--spectrum", str(spec_csv),
               "--out", str(tmp_path)])
    assert rc == 0
    assert "# converged = true" in read(tmp_path / "run_history.csv")


def test_version_flag(capsys):
    import pytest as _pytest
    with _pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "pintlab" in capsys.readouterr().out
