import glob
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from pintlab import bounds, cli
from pintlab.bounds import BoundQuery, bound_values, sweep
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


@pytest.mark.parametrize("argv", [
    ["simulate", "--fine", "nosuch", "--coarse", "bwe"],
    ["bounds", "--fine", "bwe", "--coarse", "nosuch"],
    ["singularity", "--scheme", "nosuch"],
], ids=["simulate", "bounds", "singularity"])
def test_unknown_scheme_is_one_line_exit_2(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unknown scheme 'nosuch'\n"
    assert not (tmp_path / "out").exists()


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
    q = BoundQuery(tab, bwe, k, "F")
    return float(np.max(bound_values(q, w[:z])))


def test_explicit_fcf_bounds_write_no_nan_row(tmp_path):
    # erk2 overflows far outside its stability region; those samples are
    # unbounded, not nan
    assert main(["bounds", "--fine", "erk2", "--coarse", "erk2", "--k", "32",
                 "--relax", "fcf", "--out", str(tmp_path)]) == 0
    text = read(tmp_path / "bounds_erk2_erk2_fcf_k32_ncinf.csv")
    assert ",unbounded" in text
    assert "nan" not in text


def test_consecutive_main_calls_share_no_state(tmp_path):
    # the parser is built once per process; a flag or a --config file of
    # one call must not leak into the next
    args = ["bounds", "--fine", "bwe", "--coarse", "bwe", "--n", "64"]
    config = tmp_path / "wmin.cfg"
    config.write_text("wmin = 0.5\n")
    assert main(args + ["--theta", "0.5", "--config", str(config),
                        "--out", str(tmp_path / "d1")]) == 0
    assert main(args + ["--out", str(tmp_path / "d2")]) == 0
    headers = []
    for out in ("d1", "d2"):
        text = read(tmp_path / out / "bounds_bwe_bwe_f_k2_ncinf.csv")
        headers.append(next(line for line in text.splitlines()
                            if line.startswith("# config:")))
    assert "theta=0.5" in headers[0] and "wmin=0.5" in headers[0]
    assert "theta=1.0" in headers[1] and "wmin=1e-08" in headers[1]


def test_table2_row_sweeps_in_lockstep(monkeypatch, capsys):
    # a row's 12 sweeps (6 k x F/FCF) share every probe round: one
    # bound_values call per round, not one per sweep and round.  That is
    # the base grid with the tail probe, 4 peak rounds down to log-width
    # 1e-4 and at most 11 threshold rounds down to 1e-13
    calls = []
    original = bounds.bound_values

    def counted(q, w, owner=None):
        calls.append(np.size(w))
        return original(q, w, owner)

    monkeypatch.setattr(bounds, "bound_values", counted)
    assert main(["table", "table2", "--rows", "sdirk33"]) == 0
    assert 0 < len(calls) <= 16, calls


def test_gauss4_cap_matches_dense_reference(monkeypatch, capsys):
    kset = (2, 4, 8, 16)
    cap = cli._gauss4_capped_max(kset)
    assert abs(cap - 0.2984) <= 1e-3
    # z_max is the smallest positive root of the gauss4/bwe gap polynomial
    out = capsys.readouterr().out
    for k, z_max in zip(kset, ("8.309", "12.25", "19.07", "30.93")):
        assert f"gauss4 k={k}: z_max ~ {z_max}," in out
    assert abs(cap - max(_gauss4_dense_cap(k) for k in kset)) <= 1e-3
    # the cutoff rule does not depend on where the sweep's samples land
    monkeypatch.setattr(cli, "sweep",
                        lambda queries: sweep(queries, n_base=2048))
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


def test_simulate_divergent_run_is_silent(tmp_path):
    # erk4/fwe overflows within a few cycles; the run reports rho=inf and
    # prints no numpy warning on the way (run as a child with the default
    # warning filters, which show each RuntimeWarning)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-W", "default", "-m", "pintlab.cli", "simulate",
         "--fine", "erk4", "--coarse", "fwe", "--nt", "1024", "--ximax", "3",
         "--nmodes", "20", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "rho=inf converged=False" in proc.stdout


def _simulate_with_blas_threads(threads, args, out):
    """`pintlab simulate args --out out` in a fresh interpreter whose BLAS
    may use `threads` threads, with warnings shown."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
    return subprocess.run(
        [sys.executable, "-W", "default", "-m", "pintlab.cli", "simulate",
         *args, "--out", str(out)], capture_output=True, text=True, env=env)


FACTORS_NOT_FINITE = ("step factors are not finite on some level: h_t, "
                      "theta or the spectrum is too large")


def _assert_factors_rejected(args, tmp_path):
    """`simulate args` exits 2 with one error line, no output and no numpy
    warning, under either BLAS thread count."""
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = _simulate_with_blas_threads(threads, args, out)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == f"error: {FACTORS_NOT_FINITE}\n", threads
        assert not out.exists()


@pytest.mark.parametrize("relax", ["f", "fcf"])
def test_simulate_overflowing_coarse_factors_are_silent(relax, tmp_path):
    # erk4 at coarse steps of 2e78 overflows to inf on the larger modes (and
    # its rational evaluation divides inf by inf); the run is rejected
    # before its first cycle, with no numpy warning
    _assert_factors_rejected(["--fine", "bwe", "--coarse", "erk4", "--ht",
                              "1e78", "--levels", "3", "--relax", relax],
                             tmp_path)


def test_simulate_overflowing_implicit_factors_exit_2(tmp_path):
    # sdirk33's Horner sum overflows at a coarse dt * xi of 2e103: no
    # PoleError traceback (exit 1 is for golden mismatches)
    _assert_factors_rejected(["--fine", "bwe", "--coarse", "sdirk33",
                              "--ht", "1e103", "--nt", "64", "--nmodes", "4"],
                             tmp_path)


def test_simulate_sweep_bytes_do_not_depend_on_blas_threads(tmp_path):
    # 961 C-points of 120 modes per residual: enough for a threaded BLAS
    # dot to split its sum
    args = ["--fine", "esdirk33", "--coarse", "esdirk32", "--nt", "1920",
            "--ximax", "6", "--k", "2,4"]
    for threads in ("1", "2"):
        proc = _simulate_with_blas_threads(threads, args, tmp_path / threads)
        assert proc.returncode == 0 and proc.stderr == ""
    with open(tmp_path / "1" / "run_sweep.csv", "rb") as one, \
            open(tmp_path / "2" / "run_sweep.csv", "rb") as two:
        assert one.read() == two.read()


def test_closed_stdout_pipe_exits_141_without_an_error_line(tmp_path):
    # stdout is a pipe whose reader has gone, as in `pintlab simulate ... |
    # head -1` once head has exited
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pintlab.cli", "simulate", "--fine", "bwe",
             "--coarse", "bwe", "--nt", "64", "--nmodes", "4", "--out",
             str(tmp_path)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_simulate_bad_divisibility_exits_2(capsys):
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "3",
               "--nt", "64", "--ximax", "1.0"])
    assert rc == 2
    assert "divisible" in capsys.readouterr().err


def test_simulate_checks_every_combination_before_running(tmp_path, capsys):
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2,3",
               "--nt", "64", "--nmodes", "4", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: N=64 not divisible by "
                            "k**(levels-1)=3**1=3\n")
    assert not os.listdir(tmp_path)


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


def test_singularity_overflowing_k_exits_2(tmp_path, capsys):
    rc = main(["singularity", "--scheme", "erk2", "--k", "2,1000",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: erk2 at k = 1000: the gap polynomial's "
                            "coefficients overflow double precision\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", ["0", "-3"])
def test_bounds_k_below_2_exits_2(k, tmp_path, capsys):
    rc = main(["bounds", "--fine", "bwe", "--coarse", "bwe", "--k", k,
               "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coarsening factor k must be >= 2\n"
    assert not (tmp_path / "out").exists()


def test_singularity_checks_every_k_before_the_first_report(tmp_path,
                                                             capsys):
    rc = main(["singularity", "--scheme", "erk2", "--k", "2,1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: coarsening factor k must be >= 2, got 1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ht", ["0", "-1"])
def test_simulate_nonpositive_ht_exits_2(ht, capsys):
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
               "--nt", "64", "--nmodes", "4", "--seeds", "1", "--ht", ht,
               "--inject-w", "1"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--ht must be positive" in err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value,message", [
    ("seeds", "0", "seeds must be >= 1, got 0"),
    ("seeds", "-3", "seeds must be >= 1, got -3"),
    ("max_iters", "0", "max_iters must be >= 1, got 0"),
    ("max_iters", "-1", "max_iters must be >= 1, got -1"),
    ("tol", "-1", "tol must be >= 0, got -1.0"),
    ("tol", "nan", "tol must be >= 0, got nan"),
    ("ximax", "nan", "xi_max must be positive, got nan"),
])
def test_simulate_bad_run_setting_exits_2(key, value, message, source,
                                          tmp_path, capsys):
    argv = ["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
            "--nt", "64", "--nmodes", "4", "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_simulate_zero_seeds_exits_2_before_any_run(monkeypatch, tmp_path,
                                                   capsys):
    from pintlab import mgrit_sim
    started = []
    monkeypatch.setattr(mgrit_sim, "iterate",
                        lambda *a, **kw: started.append(a))
    monkeypatch.setattr(mgrit_sim._Engine, "initial_state",
                        lambda *a: started.append(a))
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2,4",
               "--nt", "64", "--nmodes", "4", "--seeds", "0",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert started == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seeds must be >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key,value,message", [
    ("ht", "inf", "h_t must be finite and positive, got inf"),
    ("ximax", "inf", "xi_max must be finite, got inf"),
    ("theta_schedule", "nan", "theta must be finite, got nan"),
    ("theta_schedule", "inf", "theta must be finite, got inf"),
])
def test_simulate_non_finite_setting_exits_2(key, value, message, source,
                                             tmp_path, capsys):
    # each would otherwise run and print rho=nan with exit 0
    argv = ["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
            "--nt", "64", "--nmodes", "4", "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += [f"--{key.replace('_', '-')}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    (["--omega", "1.5"], "unrecognized arguments: --omega 1.5"),
    (["--wmax", "inf"], "need 0 < w_min < w_max < inf"),
], ids=["omega", "infinite_wmax"])
def test_bounds_bad_flag_exits_2(argv, message, tmp_path, capsys):
    assert main(["bounds", "--fine", "bwe", "--coarse", "bwe", *argv,
                 "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, message", [
    # the coarse tableau reads k * w_max, the farthest point of a sweep
    (["bounds", "--fine", "bwe", "--coarse", "bwe", "--wmin", "1e300",
      "--wmax", "1.7e308"],
     "w = 1.7e+308 is too large: k*w overflows at k = 2"),
    (["simulate", "--fine", "bwe", "--coarse", "bwe", "--ximax", "1e308",
      "--ht", "2"], FACTORS_NOT_FINITE),
    # sdirk33's Horner sum overflows from |w| = 1.29e103 on: only the
    # coarse point k * w_max gets there
    (["bounds", "--fine", "sdirk33", "--coarse", "sdirk33", "--k", "2",
      "--wmax", "1e103"],
     "sdirk33: |w| = 2e+103 is too large: the Horner sum of Q(w) overflows"),
    (["bounds", "--fine", "trbdf2:1e-320", "--coarse", "bwe"],
     "trbdf2:1e-320: tableau coefficients must be finite"),
], ids=["bounds_tail_probe", "simulate_dt_xi", "bounds_horner_overflow",
        "trbdf2_tiny_gamma"])
def test_infinite_w_or_coefficient_is_one_line_exit_2(argv, message, tmp_path,
                                                      capsys):
    # no PoleError traceback (exit 1 is for golden mismatches) and no numpy
    # warning before the error line
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_bounds_omega_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("omega = 0.5\n")
    assert main(["bounds", "--fine", "bwe", "--coarse", "bwe",
                 "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {cfg}:1: unknown key 'omega'\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_simulate_empty_theta_schedule_exits_2(source, tmp_path, capsys):
    argv = ["simulate", "--fine", "bwe", "--coarse", "bwe", "--nt", "64",
            "--nmodes", "4", "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--theta-schedule", ","]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta_schedule = ,\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: theta_schedule needs at least one weight\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 745. GiB for an array with shape "
                 "(100000000000,) and data type float64"),
     "Unable to allocate 745. GiB for an array with shape (100000000000,) "
     "and data type float64"),
    (MemoryError(), "MemoryError"),
], ids=["numpy", "bare"])
def test_out_of_memory_is_one_line_exit_2(error, message, monkeypatch,
                                         tmp_path, capsys):
    # exit 1 is kept for golden mismatches; no real allocation is tried
    def sweep(*args):
        raise error
    monkeypatch.setattr(cli, "sweep", sweep)
    assert main(["bounds", "--fine", "bwe", "--coarse", "bwe",
                 "--n", "100000000000", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


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


def test_table1_rejects_rows(capsys):
    rc = main(["table", "table1", "--rows", "sdirk22"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err == "error: --rows applies to table2 only\n"
    assert captured.out == ""


def test_simulate_custom_spectrum_csv(tmp_path):
    spec_csv = tmp_path / "eigs.csv"
    spec_csv.write_text("re,im\n0.5,0.0\n1.0,0.0\n2.0,0.0\n")
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
               "--nt", "32", "--spectrum", str(spec_csv),
               "--out", str(tmp_path)])
    assert rc == 0
    assert "# converged = true" in read(tmp_path / "run_history.csv")


def test_simulate_spectrum_provenance_omits_generated_spectrum(tmp_path):
    # ximax and nmodes shape the generated spectrum only
    spec_csv = tmp_path / "eigs.csv"
    spec_csv.write_text("re,im\n0.5,0.0\n1.0,0.0\n")
    argv = ["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
            "--nt", "32", "--ximax", "50", "--nmodes", "7"]
    assert main(argv + ["--spectrum", str(spec_csv),
                        "--out", str(tmp_path / "file")]) == 0
    assert main(argv + ["--out", str(tmp_path / "generated")]) == 0
    config = [line for line in read(tmp_path / "file" / "run_history.csv")
              .splitlines() if line.startswith("# config:")]
    assert len(config) == 1
    assert "ximax" not in config[0] and "nmodes" not in config[0]
    assert f"spectrum={spec_csv}" in config[0]
    text = read(tmp_path / "generated" / "run_history.csv")
    assert "nmodes=7 " in text and "ximax=50.0" in text


_SIMULATE = ["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
             "--nt", "32", "--seeds", "2"]


@pytest.mark.parametrize("argv, name, config", [
    (["bounds", "--fine", "bwe", "--coarse", "sdirk22", "--k", "2,4",
      "--n", "64"], "bounds_bwe_sdirk22_f_k2_ncinf.csv",
     "axis=real coarse=sdirk22 fine=bwe k=2,4 n=64 nc=inf relax=f "
     "theta=1.0 wmax=100000000.0 wmin=1e-08"),
    (["bounds", "--fine", "bwe", "--coarse", "bwe", "--kind", "lower",
      "--nc", "16", "--axis", "imag", "--theta", "0.5", "--wmin", "1e-4",
      "--n", "64"], "bounds_bwe_bwe_f_k2_nc16.csv",
     "axis=imag coarse=bwe fine=bwe k=2 kind=lower n=64 nc=16 relax=f "
     "theta=0.5 wmax=100000000.0 wmin=0.0001"),
    (["table", "table1"], "table1.csv", "which=table1"),
    (["table", "table2", "--rows", "bwe"], "table2.csv",
     "rows=bwe which=table2"),
    (["singularity", "--scheme", "erk2", "--k", "2"], "roots_erk2_k2.csv",
     "k=2 scheme=erk2 wmax=100.0"),
    (_SIMULATE, "run_history.csv",
     "coarse=bwe fine=bwe ht=1.0 k=2 levels=2 max_iters=100 nmodes=120 "
     "nt=32 relax=f seed=0 seeds=2 tol=1e-13 ximax=1.0"),
    (_SIMULATE + ["--spectrum", "{spectrum}"], "run_history.csv",
     "coarse=bwe fine=bwe ht=1.0 k=2 levels=2 max_iters=100 nt=32 relax=f "
     "seed=0 seeds=2 spectrum={spectrum} tol=1e-13"),
], ids=["bounds", "bounds_flags", "table1", "table2", "singularity",
        "simulate", "simulate_spectrum"])
def test_config_line_names_every_flag(argv, name, config, tmp_path,
                                      capsys):
    # each CSV's provenance holds every flag of its subcommand that has a
    # value, sorted by name, except --out and --config; a spectrum file
    # replaces the generated spectrum's --ximax and --nmodes
    spectrum = tmp_path / "eigs.csv"
    spectrum.write_text("re,im\n0.5,0.0\n1.0,0.0\n")
    argv = [a.format(spectrum=spectrum) for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    lines = read(tmp_path / "out" / name).splitlines()
    assert lines[0] == "# config: " + config.format(spectrum=spectrum)


def test_simulate_reads_spectrum_once(tmp_path, monkeypatch):
    spec_csv = tmp_path / "eigs.csv"
    spec_csv.write_text("re,im\n0.5,0.0\n1.0,0.0\n2.0,0.0\n")
    reads = []
    real = cli.eigenvalues_from_csv
    monkeypatch.setattr(cli, "eigenvalues_from_csv",
                        lambda fh: reads.append(1) or real(fh))
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2,4",
               "--ht", "0.5,1", "--nt", "32", "--spectrum", str(spec_csv),
               "--out", str(tmp_path)])
    assert rc == 0
    assert len(reads) == 1


def test_simulate_spectrum_with_inject_w_exits_2(tmp_path, capsys):
    # --inject-w adds modes to the generated spectrum only
    spec_csv = tmp_path / "eigs.csv"
    spec_csv.write_text("re,im\n0.5,0.0\n1.0,0.0\n")
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
               "--nt", "32", "--spectrum", str(spec_csv), "--inject-w", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --inject-w adds modes to the generated "
                            "spectrum; it cannot be used with --spectrum\n")
    assert not (tmp_path / "out").exists()


def _simulate_spectrum(tmp_path, text):
    """Exit code of a simulate run on a spectrum file holding `text`, which
    must leave no output directory behind."""
    spec_csv = tmp_path / "eigs.csv"
    spec_csv.write_text(text)
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
               "--nt", "32", "--spectrum", str(spec_csv),
               "--out", str(tmp_path / "out")])
    assert not (tmp_path / "out").exists()
    return rc


@pytest.mark.parametrize("text", ["re,im\n0.5,0.0\nnan,0\n",
                                  "re,im\n0.5,0.0\ninf,0\n",
                                  "re,im\n0.0,1.0\n0.0,inf\n",
                                  "re,im\n0.0,1.0\nnan,1.0\n"],
                         ids=["spd_nan", "spd_inf", "skew_inf", "skew_nan"])
def test_simulate_non_finite_spectrum_exits_2(text, tmp_path, capsys):
    # a NaN passed the SPD check real <= 0, and the run printed rho=nan
    assert _simulate_spectrum(tmp_path, text) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: eigenvalues must be finite\n"


@pytest.mark.parametrize("line", ["1.0", "1,2,3", "abc,1"])
def test_simulate_malformed_spectrum_line_exits_2(line, tmp_path, capsys):
    assert _simulate_spectrum(tmp_path, f"re,im\n0.5,0.0\n{line}\n") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: spectrum line 3: expected re,im, "
                            f"got {line!r}\n")


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0", "0.5,-inf"])
def test_simulate_bad_inject_w_exits_2(value, source, tmp_path, capsys):
    # make_spd_interval keeps only modes in (0, ximax], so these values
    # would drop the mode without a word
    argv = ["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2",
            "--nt", "32", "--nmodes", "4", "--out", str(tmp_path / "out")]
    if source == "flag":
        argv += ["--inject-w", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"inject_w = {value}\n")
        argv += ["--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    bad = value.split(",")[-1]
    assert captured.err == ("error: --inject-w must be finite and positive, "
                            f"got {float(bad)!r}\n")
    assert not (tmp_path / "out").exists()


def test_simulate_inject_w_above_the_spectrum_is_dropped(tmp_path, capsys):
    # a w above ximax * h_t lies outside the generated spectrum: the run is
    # the run without it, as before
    argv = ["simulate", "--fine", "bwe", "--coarse", "bwe", "--k", "2,4",
            "--nt", "32", "--nmodes", "4", "--ximax", "1", "--ht", "0.5",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--inject-w", "0.75"]) == 0
    assert capsys.readouterr().out == plain


def test_version_flag(capsys):
    import pytest as _pytest
    with _pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "pintlab" in capsys.readouterr().out


def test_help_flag_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--relax {f,fcf,F,FCF}" in capsys.readouterr().out


@pytest.mark.parametrize("argv,message", [
    (["simulate", "--fine", "bwe", "--coarse", "bwe", "--relax", "fc"],
     "argument --relax: invalid choice: 'fc' (choose from 'f', 'fcf', 'F', "
     "'FCF')"),
    (["bounds", "--fine", "bwe", "--coarse", "bwe", "--relax", "FC"],
     "argument --relax: invalid choice: 'FC' (choose from 'f', 'fcf', 'F', "
     "'FCF')"),
    (["simulate", "--fine", "bwe", "--coarse", "bwe", "--seeds", "abc"],
     "argument --seeds: invalid int value: 'abc'"),
    (["simulate", "--coarse", "bwe"],
     "the following arguments are required: --fine"),
    (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
     "'bounds', 'table', 'simulate', 'singularity')"),
    (["bounds", "--fine", "bwe", "--coarse", "bwe", "--nc", "abc"],
     "bad float list 'abc': could not convert string to float: 'abc'"),
    (["singularity", "--scheme", "erk2", "--wmax", "nan"],
     "w_max must be positive, got nan"),
    (["singularity", "--scheme", "erk2", "--wmax", "-1"],
     "w_max must be positive, got -1.0"),
], ids=["simulate_relax_fc", "bounds_relax_fc", "seeds_abc", "missing_fine",
        "unknown_command", "nc_abc", "wmax_nan", "wmax_negative"])
def test_parse_error_is_one_line_exit_2(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_config_relax_fc_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("relax = fc\n")
    rc = main(["simulate", "--fine", "bwe", "--coarse", "bwe", "--nt", "64",
               "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {cfg}:1: relax: invalid choice 'fc' "
                            "(choose from 'f', 'fcf', 'F', 'FCF')\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["lower", "upper"])
def test_bounds_fcf_tight_nc_below_2_exits_2(kind, tmp_path, capsys):
    # the FCF propagator lives on Nc - 1 C-points; checked before any
    # curve of the list is written
    rc = main(["bounds", "--fine", "bwe", "--coarse", "bwe", "--relax", "fcf",
               "--kind", kind, "--nc", "16,1", "--out", str(tmp_path)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: Nc must be >= 2 or INFINITY for FCF "
                            "tight bounds\n")
    assert not os.listdir(tmp_path)
