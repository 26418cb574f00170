import io
import math

import numpy as np
import pytest

from pintlab.model_problems import (ModelProblem, eigenvalues_from_csv,
                                    eigenvalues_to_csv, make_fd_diffusion,
                                    make_skew_advection, make_spd_interval)


def test_spd_interval_endpoints():
    p = make_spd_interval(1.0, 2)
    assert p.eigenvalues.real == pytest.approx([0.01, 1.0])


def test_spd_interval_q1_analog():
    p = make_spd_interval(6793.0, 100)
    eig = p.eigenvalues.real
    assert eig.max() == pytest.approx(6793.0)
    assert np.all((eig > 0) & (eig <= 6793.0))
    assert len(eig) == 100


def test_spd_interval_q3_analog():
    p = make_spd_interval(24077.0, 50)
    assert p.eigenvalues.real.max() == pytest.approx(24077.0)


def test_spd_interval_injection():
    p = make_spd_interval(10.0, 16, include=[3.3, 7.7, 99.0])
    eig = p.eigenvalues.real
    assert 3.3 in eig and 7.7 in eig
    assert 99.0 not in eig  # outside (0, xi_max]
    assert len(eig) == 18


def test_fd_diffusion_matches_dense_eigensolve():
    for M in (2, 3, 8, 15):
        p = make_fd_diffusion(M)
        dense = np.sort(np.linalg.eigvalsh(p.matrix))
        assert np.allclose(np.sort(p.eigenvalues.real), dense,
                           rtol=1e-10, atol=0)


def test_fd_diffusion_m2_analytic():
    # h = 1/3: eigenvalues (1/h^2)(2 - 2cos(j pi/3)) = {9, 27}
    p = make_fd_diffusion(2)
    assert np.sort(p.eigenvalues.real) == pytest.approx([9.0, 27.0])


def test_fd_diffusion_bounded_by_4_over_h2():
    p = make_fd_diffusion(500)
    h = 1.0 / (500 + 1)
    assert p.eigenvalues.real.max() < 4.0 / h ** 2


def test_fd_diffusion_symmetric():
    p = make_fd_diffusion(9)
    assert np.array_equal(p.matrix, p.matrix.T)


def test_skew_advection_m4():
    p = make_skew_advection(4, 1.0)
    assert sorted(p.eigenvalues.imag) == pytest.approx([-1.0, 0.0, 0.0, 1.0])


def test_skew_advection_m3_against_dft():
    p = make_skew_advection(3, 0.5)
    assert np.sort(p.eigenvalues.imag) == pytest.approx(
        [-np.sqrt(3.0), 0.0, np.sqrt(3.0)])
    # oracle: circulant diagonalization by the DFT matrix
    M = 3
    F = np.exp(2j * np.pi * np.outer(np.arange(M), np.arange(M)) / M)
    dft_eigs = (p.matrix @ F[:, 1]) / F[:, 1]
    assert np.allclose(dft_eigs, p.eigenvalues[1], atol=1e-12)


def test_skew_advection_antisymmetric_and_traceless():
    for M in (3, 4, 7, 12):
        p = make_skew_advection(M, 0.25)
        assert np.array_equal(p.matrix, -p.matrix.T)
        assert p.eigenvalues.sum() == pytest.approx(0.0)
        assert np.all(p.eigenvalues.real == 0.0)


def test_spd_eigenvalues_strictly_positive():
    for p in (make_spd_interval(5.0, 20), make_fd_diffusion(6)):
        assert np.all(p.eigenvalues.real > 0)
        assert np.all(p.eigenvalues.imag == 0)


def test_kind_validation():
    # the class follows from the values: all real and positive (SPD) or
    # all purely imaginary (skew)
    spd = "SPD eigenvalues must be real and positive"
    either = "spectrum must be real-positive or purely imaginary"
    for eigenvalues, message in (([1.0, -2.0], spd), ([1.0, 0.0], spd),
                                 ([1.0j, 0.5], either),
                                 ([1.0j, 1.0 + 1.0j], either)):
        with pytest.raises(ValueError, match=message):
            ModelProblem(eigenvalues)


@pytest.mark.parametrize("value", [math.nan, math.inf, 1j * math.inf],
                         ids=["nan", "inf", "imag_inf"])
def test_non_finite_eigenvalue_is_rejected(value):
    # NaN passed the SPD check real <= 0, and the run printed rho=nan
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        ModelProblem([1.0, value])


@pytest.mark.parametrize("h_x", [0.0, math.inf, math.nan])
def test_skew_advection_rejects_a_degenerate_spacing(h_x):
    # 0.0 raised ZeroDivisionError, and inf built an all-zero spectrum
    with pytest.raises(ValueError, match="h_x must be finite and nonzero"):
        make_skew_advection(4, h_x)


def test_non_normal_matrix_is_rejected():
    # inflow upwind advection (a/h)(I - S), S the subdiagonal shift, is one
    # Jordan block: its eigenvalues are all a/h, but a per-eigenvalue bound
    # does not hold for it
    M, a = 32, 1.0
    h = 1.0 / M
    upwind = (a / h) * (np.eye(M) - np.eye(M, k=-1))
    with pytest.raises(ValueError, match="matrix is not normal"):
        ModelProblem(np.full(M, a / h), upwind)


@pytest.mark.parametrize("change, message", [
    ("scaled", "spectrum does not match"),
    ("one_doubled", "spectrum does not match"),
    ("dropped", "must be a finite 7 x 7 array")])
def test_matrix_whose_spectrum_differs_is_rejected(change, message):
    for p in (make_fd_diffusion(8), make_skew_advection(8, 1.0)):
        eig = p.eigenvalues.copy()
        if change == "scaled":
            eig *= 1 + 1e-9
        elif change == "one_doubled":
            eig[1] *= 2
        else:
            eig = eig[1:]
        with pytest.raises(ValueError, match=message):
            ModelProblem(eig, p.matrix)


@pytest.mark.parametrize("M", [3, 17, 64, 128])
def test_model_realizations_pass_the_matrix_check(M):
    # exactly normal, and their spectra match the closed forms in any order
    # (neither eigenvalue list is sorted)
    make_skew_advection(M, 0.25)
    p = make_fd_diffusion(M)
    ModelProblem(p.eigenvalues[::-1], p.matrix)


def test_value_rule_accepts_both_classes():
    spd = ModelProblem([0.5, 2.0])
    assert np.array_equal(spd.eigenvalues, [0.5, 2.0])
    skew = ModelProblem([-1.0j, 0.0, 2.0j])
    assert np.array_equal(skew.eigenvalues, [-1.0j, 0.0, 2.0j])
    # a real spectrum is stored with +0 imaginary parts
    real = ModelProblem(np.array([complex(1.0, -0.0)]))
    assert math.copysign(1.0, real.eigenvalues[0].imag) == 1.0


def test_csv_round_trip_spd():
    p = make_spd_interval(12.0, 9)
    buf = io.StringIO()
    eigenvalues_to_csv(p, buf, ["config: demo"])
    buf.seek(0)
    back = eigenvalues_from_csv(buf)
    assert np.allclose(back.eigenvalues, p.eigenvalues)


def test_csv_round_trip_skew():
    p = make_skew_advection(6, 0.5)
    buf = io.StringIO()
    eigenvalues_to_csv(p, buf)
    buf.seek(0)
    back = eigenvalues_from_csv(buf)
    assert np.allclose(np.sort(back.eigenvalues.imag),
                       np.sort(p.eigenvalues.imag))


def test_csv_rejects_mixed_spectrum():
    with pytest.raises(ValueError):
        eigenvalues_from_csv(io.StringIO("re,im\n1.0,1.0\n"))

