import io
import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pintlab import mgrit_sim
from pintlab.bounds import BoundQuery, bound_values, spectrum_max
from pintlab.butcher import (CONDITIONALLY_STABLE, REGISTRY, get_scheme,
                             stability_eval_batch)
from pintlab.mgrit_sim import (EXACT_COARSE, MgritRun, RhoResult, SolveError,
                               TimeHierarchy, _apply, _cycles, _Engine,
                               _lanes, _norm, _rho_from_history,
                               error_propagation_matrices,
                               error_propagation_norm, iterate, measure_rho,
                               run_to_csv, step)
from pintlab.model_problems import (ModelProblem, make_fd_diffusion,
                                    make_skew_advection, make_spd_interval)

BWE = get_scheme("bwe")
SDIRK22 = get_scheme("sdirk22")
SDIRK33 = get_scheme("sdirk33")
TRAP = get_scheme("trapezoid")
NOT_FINITE = "step factors are not finite on some level"


def spd(ximax, n=60, include=()):
    return make_spd_interval(ximax, n, include)


def simple_run(fine=BWE, coarse=BWE, k=2, N=64, ximax=1.66, relax_kind="F",
               **kw):
    hier = TimeHierarchy(N, 1.0, k, 2, fine, coarse)
    return MgritRun(hier, spd(ximax), relax_kind, **kw)


# --- step -------------------------------------------------------------------

def test_step_bwe_diagonal():
    problem = ModelProblem([1.0])
    out = step(BWE, problem, 1.0, np.array([1.0 + 0j]))
    assert out[0] == pytest.approx(0.5)


def test_step_zero_stays_zero():
    problem = spd(3.0, 12)
    out = step(SDIRK33, problem, 0.7, np.zeros(problem.n_modes, complex))
    assert np.all(out == 0)


def test_step_matrix_matches_diagonal_through_eigenbasis():
    problem = make_fd_diffusion(3)
    evals, V = np.linalg.eigh(problem.matrix)
    assert np.allclose(evals, problem.eigenvalues.real)
    u_phys = np.array([1.0, 0.0, 0.0])
    mat = step(SDIRK22, problem, 0.01, u_phys, path="matrix")
    diag = step(SDIRK22, problem, 0.01, (V.T @ u_phys).astype(complex))
    back = V @ diag.real
    assert np.allclose(mat, back, atol=1e-10)


def test_step_gauss4_matrix_path_unsupported():
    problem = make_fd_diffusion(3)
    with pytest.raises(SolveError):
        step(get_scheme("gauss4"), problem, 0.1, np.zeros(3), path="matrix")
    # the diagonal path handles the fully implicit pair fine
    out = step(get_scheme("gauss4"), problem, 0.1,
               np.ones(3, complex))
    assert np.all(np.isfinite(out))


# --- full-grid reference cycle -------------------------------------------------

def _advance(eng, u, level, j, theta=1.0, out=None):
    """The points j-1::k of `level`'s full grid u stepped to j::k by the
    unscaled factor, then weighted on coarse levels: theta (a x)."""
    k = eng.k
    out = _apply(eng.ops(1.0)[level][j - 1], u[j - 1::k][:len(u) // k], out)
    if level and theta != 1.0:
        out *= theta
    return out


def _relax(eng, u, g, level, kind, theta=1.0):
    """Relax the full grid u in place; an F sweep runs strides 1..k-1, a C
    sweep k."""
    k = eng.k
    for sweep in kind:
        for j in range(1, k) if sweep == "F" else (k,):
            _advance(eng, u, level, j, theta, out=u[j::k])
            if g is not None:
                u[j::k] += g[j::k]
            if j == k:
                u[0] = 0.0 if g is None else g[0]
    return u


def _residual(eng, u, g, level, theta=1.0):
    """Residual g - A u of the full grid u on its C-points, index 0 included."""
    k = eng.k
    r = np.empty_like(u[::k])
    r[0] = -u[0] if g is None else g[0] - u[0]
    _advance(eng, u, level, k, theta, out=r[1:])
    r[1:] -= u[k::k] if g is None else u[k::k] - g[k::k]
    return r


def _vcycle(eng, u, g, level, theta=1.0):
    """One full-grid V-cycle: relaxation, residual, coarsest solve or
    recursion from zero, correction, closing F sweep."""
    u = _relax(eng, u, g, level, eng.run.relaxation, theta)
    gc = _residual(eng, u, g, level, theta)
    if level + 1 == eng.run.hierarchy.levels - 1:
        e = eng.correction(gc, eng.ops(theta)[level + 1:])
    else:
        e = _vcycle(eng, np.zeros_like(gc), gc, level + 1, theta)
    u[::eng.k] += e
    return _relax(eng, u, g, level, "F", theta)


# --- relaxation ---------------------------------------------------------------

def test_f_relax_is_fixed_point_on_exact_solution():
    run = simple_run(N=32, k=4)
    # the exact homogeneous solution (zero) is untouched
    u = np.zeros((33, run.problem.n_modes), complex)
    eng = _Engine(run)
    out = eng.f_sweep(u[::4], eng.ops(1.0)[0], np.zeros_like(u))
    assert np.all(out == 0)


def test_f_relax_zeroes_f_point_residual():
    run = simple_run(N=32, k=4)
    rng = np.random.default_rng(3)
    m = run.problem.n_modes
    u = rng.standard_normal((33, m)).astype(complex)
    rhs = rng.standard_normal((33, m)).astype(complex)
    eng = _Engine(run)
    out = eng.f_sweep(u[::4], eng.ops(1.0)[0], rhs)
    # full residual r_n = g_n - u_n + lam u_{n-1}, lam = 1/(1 + xi) for bwe
    lam = 1.0 / (1.0 + run.problem.eigenvalues)
    r = rhs - out
    r[1:] += lam * out[:-1]
    f_mask = np.ones(33, bool)
    f_mask[::4] = False
    assert np.linalg.norm(r[f_mask]) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("levels", [2, 3])
def test_vcycle_leaves_f_point_residual_exactly_zero(relax_kind, levels):
    # iterate's per-cycle norm is taken on the C-points only, which is the
    # full residual norm because the closing F-relaxation zeroes the rest
    hier = TimeHierarchy(32, 1.0, 4, levels, SDIRK33, BWE)
    run = MgritRun(hier, spd(3.0, 20), relax_kind)
    eng = _Engine(run)
    ops = eng.ops(1.0)
    g = np.zeros((33, 20))
    c = eng.initial_state(0)[::4].copy()
    t = eng.interval_step(c, ops[0], g)
    eng.cycle(c, t, eng.residual(c, t, g), ops, g)
    u = eng.f_sweep(c, ops[0], g)
    r = g - u
    r[1:] += step(SDIRK33, run.problem, 1.0, u[:-1])
    f_mask = np.ones(33, bool)
    f_mask[::4] = False
    assert np.all(r[f_mask] == 0)
    assert np.linalg.norm(r[~f_mask]) > 0
    assert np.array_equal(eng.residual(c, eng.interval_step(c, ops[0], g), g),
                          r[::4])


def test_fcf_reduces_error_to_interval_propagated_form():
    # after FCF relaxation on the homogeneous problem every F-point error is
    # the step-propagated image of its preceding C-point error
    k, N = 4, 8
    hier = TimeHierarchy(N, 1.0, k, 2, BWE, BWE)
    problem = spd(2.0, 5)
    run = MgritRun(hier, problem, "FCF")
    rng = np.random.default_rng(5)
    u = rng.standard_normal((N + 1, problem.n_modes)).astype(complex)
    eng = _Engine(run)
    out = _relax(eng, u.copy(), np.zeros_like(u), 0, run.relaxation)
    lam = 1.0 / (1.0 + problem.eigenvalues)
    for c in range(N // k):
        for j in range(1, k):
            assert np.allclose(out[c * k + j], lam ** j * out[c * k],
                               rtol=1e-12, atol=1e-14)
    # so the C-points carry the whole state, as the engine's cycle assumes
    assert np.array_equal(eng.f_sweep(out[::k], eng.ops(1.0)[0]), out)


# --- V-cycle ------------------------------------------------------------------

def test_exact_coarse_converges_in_one_cycle():
    hier = TimeHierarchy(32, 1.0, 4, 2, BWE, EXACT_COARSE)
    run = MgritRun(hier, spd(3.0, 10), "F")
    history, _ = iterate(run)
    assert history[1] <= 1e-12 * history[0]


def test_parareal_exactness_in_nc_iterations():
    run = simple_run(N=24, k=4, ximax=5.0, tol=0.0, max_iters=6)
    history, _ = iterate(run)
    assert history[6] <= 1e-10 * history[0]


def test_fcf_exactness_in_half_nc_iterations():
    run = simple_run(N=24, k=4, ximax=5.0, relax_kind="FCF", tol=0.0,
                     max_iters=3)
    history, _ = iterate(run)
    assert history[3] <= 1e-10 * history[0]


def test_dense_error_propagator_within_tight_sandwich():
    # F-relaxation at N=16, k=4 (Nc=4); FCF needs a few more coarse steps
    # for the sandwich to bracket (the bounds carry O(1/Nc) slack)
    cases = [("F", 16, 4), ("FCF", 32, 8)]
    for relax_kind, N, nc in cases:
        hier = TimeHierarchy(N, 1.0, 4, 2, BWE, BWE)
        problem = spd(2.0, 12, include=[0.476])
        run = MgritRun(hier, problem, relax_kind)
        nrm = error_propagation_norm(run)
        w = problem.eigenvalues.real
        lo = spectrum_max(BoundQuery(BWE, BWE, 4, relax_kind, Nc=float(nc),
                                     bound_kind="lower_tight"), w)
        hi = spectrum_max(BoundQuery(BWE, BWE, 4, relax_kind, Nc=float(nc),
                                     bound_kind="upper_tight"), w)
        assert lo <= nrm <= hi, (relax_kind, lo, nrm, hi)


def test_dense_probing_matches_direct_formula():
    # per-mode propagator assembled from the iteration equals the explicit
    # matrix I - B^{-1}A built from the two per-interval factors
    hier = TimeHierarchy(12, 1.0, 3, 2, SDIRK22, BWE)
    problem = ModelProblem([0.9])
    run = MgritRun(hier, problem, "F")
    E = error_propagation_matrices(run)[0]
    from pintlab.butcher import stability_eval
    lamk = stability_eval(SDIRK22, 0.9) ** 3
    mu = stability_eval(BWE, 3 * 0.9)
    nc = 4
    A = np.eye(nc, dtype=complex) - lamk * np.eye(nc, k=-1)
    B = np.eye(nc, dtype=complex) - mu * np.eye(nc, k=-1)
    expected = np.eye(nc) - np.linalg.solve(B, A)
    assert np.allclose(E, expected, atol=1e-12)


def test_measured_rho_within_bound_containment():
    # two-level on a spectrum containing the argmax eigenvalue: measured
    # worst-case rho sits inside the tight sandwich +/- 0.02
    k, N = 2, 256
    problem = spd(1.66, 80, include=[1.0])
    hier = TimeHierarchy(N, 1.0, k, 2, BWE, BWE)
    run = MgritRun(hier, problem, "F")
    res, = measure_rho([run], seeds=5)
    w = np.abs(problem.eigenvalues)
    lo = spectrum_max(BoundQuery(BWE, BWE, k, "F", Nc=float(N // k),
                                 bound_kind="lower_tight"), w)
    hi = spectrum_max(BoundQuery(BWE, BWE, k, "F", Nc=float(N // k),
                                 bound_kind="upper_tight"), w)
    assert lo - 0.02 <= res.rho <= hi + 0.02
    assert res.converged


def test_rho_bwe_table_cell():
    problem = spd(1.66, 100, include=[1.0])
    hier = TimeHierarchy(512, 1.0, 2, 2, BWE, BWE)
    res, = measure_rho([MgritRun(hier, problem, "F")], seeds=3)
    assert res.rho == pytest.approx(0.12, abs=0.02)


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("levels", [2, 3])
def test_diagonal_and_matrix_histories_agree(relax_kind, levels):
    problem = make_fd_diffusion(9)
    evals, V = np.linalg.eigh(problem.matrix)
    N, k = 32, 4
    hier = TimeHierarchy(N, 0.005, k, levels, SDIRK22, BWE)
    rng = np.random.default_rng(11)
    u0_phys = rng.standard_normal((N + 1, 9))
    run_mat = MgritRun(hier, problem, relax_kind, path="matrix")
    run_diag = MgritRun(hier, problem, relax_kind, path="diagonal")
    hist_mat, _ = iterate(run_mat, u0=u0_phys)
    hist_diag, _ = iterate(run_diag, u0=u0_phys @ V)
    assert len(hist_mat) == len(hist_diag)
    for a, b in zip(hist_mat, hist_diag):
        assert a == pytest.approx(b, rel=1e-9)


def test_real_spectrum_runs_in_float_and_complex_u0_promotes():
    # float64 arithmetic on a real spectrum against the complex128 route
    hier = TimeHierarchy(64, 1.0, 4, 3, SDIRK33, BWE)
    run = MgritRun(hier, spd(3.0, 20), "FCF", tol=0.0, max_iters=4)
    assert _Engine(run).dtype is float
    u0 = np.random.default_rng(12).standard_normal((65, run.problem.n_modes))
    h_real, u_real = iterate(run, u0=u0)
    h_cplx, u_cplx = iterate(run, u0=u0 + 0j)
    assert u_real.dtype == np.float64
    assert u_cplx.dtype == np.complex128
    assert np.all(u_cplx.imag == 0)
    np.testing.assert_allclose(h_real, h_cplx, rtol=1e-13, atol=0)
    np.testing.assert_allclose(u_real, u_cplx.real, rtol=1e-13, atol=1e-300)


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
def test_skew_spectrum_runs_in_complex_and_matches_matrix_path(relax_kind):
    M = 8
    problem = make_skew_advection(M, 1.0)
    # unitary Fourier basis: column j is the eigenvector of eigenvalue j
    V = np.exp(2j * np.pi * np.outer(np.arange(M), np.arange(M)) / M)
    V /= np.sqrt(M)
    assert np.allclose(problem.matrix @ V, V * problem.eigenvalues)
    hier = TimeHierarchy(32, 0.5, 4, 2, SDIRK22, SDIRK22)
    run_diag = MgritRun(hier, problem, relax_kind, tol=0.0, max_iters=4)
    run_mat = MgritRun(hier, problem, relax_kind, tol=0.0, max_iters=4,
                       path="matrix")
    assert _Engine(run_diag).dtype is complex
    assert _Engine(run_diag).initial_state(0).dtype == np.complex128
    u0_phys = np.random.default_rng(13).standard_normal((33, M))
    hist_mat, _ = iterate(run_mat, u0=u0_phys)
    hist_diag, u = iterate(run_diag, u0=u0_phys @ V.conj())
    assert u.dtype == np.complex128
    assert len(hist_mat) == len(hist_diag)
    for a, b in zip(hist_mat, hist_diag):
        assert a == pytest.approx(b, rel=1e-9)


@pytest.mark.parametrize("theta", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("problem", [spd(3.0, 12), make_skew_advection(8, 1.0)],
                         ids=["real", "skew"])
def test_seq_solve_equals_reference_recurrence(theta, problem):
    hier = TimeHierarchy(48, 0.5, 4, 2, SDIRK33, BWE)
    eng = _Engine(MgritRun(hier, problem, "F"))
    g = np.random.default_rng(6).standard_normal((13, problem.n_modes))
    g = g.astype(eng.dtype)
    g_before = g.copy()
    u = eng.correction(g, eng.ops(theta)[1:])
    # u_n = theta * mu u_{n-1} + g_n in complex arithmetic, one row at a time
    mu = stability_eval_batch(BWE, hier.dt(1) * problem.eigenvalues)
    ref = g_before.astype(complex)
    for n in range(1, 13):
        ref[n] = theta * (mu * ref[n - 1]) + g_before[n]
    assert u.dtype == g.dtype
    assert np.array_equal(u, ref)
    # the solve runs in place on its right-hand side
    assert u is g


def test_theta_schedule_pair_equals_one_fcf_cycle():
    N, k = 48, 4
    problem = spd(4.0, 20)
    hier = TimeHierarchy(N, 1.0, k, 2, SDIRK33, BWE)
    rng = np.random.default_rng(2)
    u0 = rng.standard_normal((N + 1, problem.n_modes)).astype(complex)
    run_theta = MgritRun(hier, problem, "F", theta_schedule=(1.0, 0.0),
                         tol=0.0, max_iters=2)
    run_fcf = MgritRun(hier, problem, "FCF", tol=0.0, max_iters=1)
    hist_t, u_t = iterate(run_theta, u0=u0)
    hist_f, u_f = iterate(run_fcf, u0=u0)
    assert hist_t[2] == pytest.approx(hist_f[1], rel=1e-10, abs=1e-12)
    assert np.allclose(u_t, u_f, atol=1e-10)


def test_linearity_of_residual_history():
    run = simple_run(N=32, k=4, ximax=3.0, tol=0.0, max_iters=4)
    rng = np.random.default_rng(4)
    u0 = rng.standard_normal((33, run.problem.n_modes)).astype(complex)
    h1, _ = iterate(run, u0=u0)
    h2, _ = iterate(run, u0=2.0 * u0)
    assert np.allclose(np.asarray(h2), 2.0 * np.asarray(h1), rtol=1e-14)


def test_divergence_flagged():
    # trapezoid pair beyond its convergence window
    problem = spd(12.0, 60)
    hier = TimeHierarchy(256, 1.0, 2, 2, TRAP, TRAP)
    res, = measure_rho([MgritRun(hier, problem, "F")], seeds=1)
    assert not res.converged
    assert res.rho > 1.0


def test_divergent_run_overflows_without_warnings():
    # pytest turns warnings into errors, so an overflow warning from a cycle
    # or a norm would fail this call; iterate reports the overflow in its
    # history instead
    hier = TimeHierarchy(1024, 1.0, 2, 2, get_scheme("erk4"),
                         get_scheme("fwe"))
    history, _ = iterate(MgritRun(hier, spd(3.0, 20), "F"))
    assert history[-1] == math.inf
    assert measure_rho([MgritRun(hier, spd(3.0, 20), "F")])[0].rho == math.inf
    # here the C-points keep finite entries, which the F sweep at return
    # overflows
    history, _ = iterate(MgritRun(hier, spd(3.0, 40, include=[1.0]), "F"))
    assert history[-1] == math.inf


def test_multilevel_vcycle_converges():
    hier = TimeHierarchy(64, 1.0, 2, 4, BWE, BWE)
    run = MgritRun(hier, spd(1.66, 24), "FCF", max_iters=60)
    res, = measure_rho([run])
    assert res.converged
    assert res.rho < 0.2


def test_empty_theta_schedule_is_rejected():
    # it would end in a ZeroDivisionError at the first cycle
    hier = TimeHierarchy(16, 1.0, 4, 2, BWE, BWE)
    with pytest.raises(ValueError, match="at least one weight"):
        MgritRun(hier, spd(1.0, 4), "F", theta_schedule=())


@pytest.mark.parametrize("h_t, k, levels", [(4.0, 2, 2), (1.0, 4, 2),
                                             (1.0, 2, 3)],
                         ids=["fine", "coarse", "coarsest"])
def test_engine_rejects_an_overflowing_dt_xi(h_t, k, levels):
    # xi = 6e307 overflows on a fine step of 4, on a coarse step of 4, and
    # on the coarsest step of 4 only: an infinite dt * xi from finite ones
    # is rejected before the stability function, which would read lam(inf)
    # there, and the engine reports it as a factor that is not finite
    hier = TimeHierarchy(16, h_t, k, levels, BWE, BWE)
    run = MgritRun(hier, ModelProblem(np.array([1.0, 6e307])), "F")
    with pytest.raises(ValueError, match=NOT_FINITE):
        iterate(run)
    with pytest.raises(ValueError, match=NOT_FINITE):
        measure_rho([run])


def test_hierarchy_validation():
    with pytest.raises(ValueError):
        TimeHierarchy(10, 1.0, 4, 2, BWE, BWE)      # 10 % 4 != 0
    with pytest.raises(ValueError):
        TimeHierarchy(16, 1.0, 4, 3, BWE, EXACT_COARSE)
    with pytest.raises(ValueError):
        TimeHierarchy(16, 1.0, 1, 2, BWE, BWE)
    # the fine propagator is one tableau, taken k times per interval
    for fine in (None, "bwe", ((BWE, 1.0),) * 4):
        with pytest.raises(TypeError,
                           match=r"^fine must be a ButcherTableau, got \w+$"):
            TimeHierarchy(16, 1.0, 4, 2, fine, BWE)
    with pytest.raises(ValueError):
        MgritRun(TimeHierarchy(16, 1.0, 4, 2, BWE, BWE), spd(1.0, 4),
                 "FCF", theta_schedule=(1.0, 0.0))


def test_run_csv_format():
    res = RhoResult(0.125, (1.0, 0.5, 0.0625), True)
    buf = io.StringIO()
    run_to_csv(res, buf, ["config: demo"])
    text = buf.getvalue()
    assert text.startswith("# config: demo\niter,residual_norm\n0,1.0\n")
    assert "# rho = 0.125" in text
    assert "# converged = true" in text
    assert "# iters = 2" in text


def test_mgrit_run_rejects_fc_relaxation():
    with pytest.raises(ValueError, match="unknown relaxation 'FC'"):
        simple_run(relax_kind="FC")


# --- C-point cycles against the full-grid cycle -------------------------------

def _reference_iterate(run, u0=None):
    """`iterate` with every cycle in full on an explicit zero right-hand
    side: pre-relaxation, residual, coarse solve or recursion, correction,
    closing F sweep, then the history residual."""
    eng = _Engine(run)
    k = eng.k
    u = eng.initial_state(run.seed) if u0 is None else u0.copy()
    g = np.zeros_like(u)
    r_f = [g[j::k] - u[j::k] + _advance(eng, u, 0, j) for j in range(1, k)]
    r0 = math.hypot(_norm(_residual(eng, u, g, 0)), *map(_norm, r_f))
    history = [r0]
    for it in range(run.max_iters):
        theta = (1.0 if run.theta_schedule is None
                 else run.theta_schedule[it % len(run.theta_schedule)])
        u = _vcycle(eng, u, g, 0, theta)
        rn = _norm(_residual(eng, u, g, 0))
        history.append(rn)
        if not math.isfinite(rn) or rn > 1e6 * r0 or rn <= run.tol * r0:
            break
    return history, u


@pytest.mark.parametrize("dtype", [float, complex])
def test_norm_is_the_two_norm_of_the_grid(dtype):
    # the histories' norm, which the reference above shares, against numpy's
    rng = np.random.default_rng(7)
    r = rng.standard_normal((961, 120)).astype(dtype)
    if dtype is complex:
        r += 1j * rng.standard_normal(r.shape)
    assert _norm(r) == pytest.approx(np.linalg.norm(r), rel=1e-14)
    assert _norm(r[:0]) == 0.0
    with np.errstate(over="ignore"):
        assert _norm(np.full((3, 2), 1e200, dtype)) == math.inf


def _assert_iterate_bit_identical(run, min_cycles=3, u0=None):
    # a divergent run overflows; both routes must overflow alike
    with np.errstate(over="ignore", invalid="ignore"):
        history, u = iterate(run, u0=u0)
        ref_history, ref_u = _reference_iterate(run, u0)
    assert len(history) > min_cycles
    assert history == ref_history
    assert u.dtype == ref_u.dtype
    assert np.array_equal(u, ref_u)


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("levels", [2, 3, 4])
@pytest.mark.parametrize("spectrum", ["real", "skew"])
def test_iterate_is_bit_identical_to_full_cycles(relax_kind, levels,
                                                 spectrum):
    problem = (spd(3.0, 20) if spectrum == "real"
               else make_skew_advection(16, 1.0))
    hier = TimeHierarchy(64, 0.5, 2, levels, SDIRK33, BWE)
    _assert_iterate_bit_identical(MgritRun(hier, problem, relax_kind,
                                           max_iters=30))


@pytest.mark.parametrize("levels", [2, 3])
def test_iterate_is_bit_identical_to_full_cycles_theta(levels):
    hier = TimeHierarchy(64, 1.0, 2, levels, SDIRK33, BWE)
    _assert_iterate_bit_identical(MgritRun(hier, spd(3.0, 20), "F",
                                           (1.0, 0.0, 0.5), max_iters=30))


@pytest.mark.parametrize("levels", [2, 3])
def test_iterate_matches_full_cycles_at_an_inexact_theta(levels):
    # iterate steps with theta folded into the coarse factors, (theta a) x,
    # and the reference weights each step, theta (a x): at a theta other
    # than 0, 0.5 or 1 the two may differ by a rounding per step, so the
    # histories are held to the history guard's rule
    hier = TimeHierarchy(64, 1.0, 2, levels, SDIRK33, BWE)
    run = MgritRun(hier, spd(3.0, 20), "F", (1.0, 0.3), max_iters=30)
    history, u = iterate(run)
    ref_history, ref_u = _reference_iterate(run)
    assert len(history) == len(ref_history) > 3
    h0 = ref_history[0]
    for a, b in zip(ref_history, history):
        assert abs(b - a) <= 1e-13 * abs(a) + 1e-16 * h0, (a, b)
    assert np.max(np.abs(u - ref_u)) <= 1e-13 * np.max(np.abs(ref_u)) \
        + 1e-16 * h0


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("levels", [2, 3])
def test_iterate_is_bit_identical_to_full_cycles_matrix(relax_kind, levels):
    hier = TimeHierarchy(32, 0.01, 2, levels, SDIRK33, BWE)
    _assert_iterate_bit_identical(MgritRun(
        hier, make_fd_diffusion(9), relax_kind, max_iters=10, path="matrix"))


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("levels", [2, 3])
@pytest.mark.parametrize("k", [3, 4])
def test_iterate_is_bit_identical_to_full_cycles_k(relax_kind, levels, k):
    hier = TimeHierarchy(k ** 4, 0.5, k, levels, SDIRK33, BWE)
    _assert_iterate_bit_identical(MgritRun(hier, spd(3.0, 20), relax_kind,
                                           max_iters=30))


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
def test_iterate_is_bit_identical_to_full_cycles_exact_coarse(relax_kind):
    # tol = 0 keeps the exact propagator's rounding-level cycles running
    hier = TimeHierarchy(64, 0.5, 4, 2, SDIRK33, EXACT_COARSE)
    _assert_iterate_bit_identical(MgritRun(hier, spd(3.0, 20), relax_kind,
                                           tol=0.0, max_iters=6))


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("levels", [2, 3])
def test_iterate_is_bit_identical_to_full_cycles_worst_mode(relax_kind,
                                                            levels):
    # a sparse initial state: seeded error in the single mode at w = 1,
    # where the bound has its maximum, and zeros in every other mode
    hier = TimeHierarchy(64, 1.0, 2, levels, SDIRK33, BWE)
    run = MgritRun(hier, spd(2.0, 30, include=[1.0]), relax_kind,
                   max_iters=30)
    u0 = np.zeros((65, run.problem.n_modes))
    j = int(np.argmin(np.abs(run.problem.eigenvalues - 1.0)))
    u0[1:, j] = np.random.default_rng(3).standard_normal(64)
    _assert_iterate_bit_identical(run, u0=u0)


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("ximax", [1.05, 3.0])
def test_iterate_is_bit_identical_to_full_cycles_divergent(relax_kind,
                                                           ximax):
    # erk4/fwe is unstable on the top modes.  ximax 1.05: every value stays
    # finite and the first cycle passes the 1e6 stop; 3.0: the first cycle
    # overflows
    hier = TimeHierarchy(1024, 1.0, 2, 2, get_scheme("erk4"),
                         get_scheme("fwe"))
    run = MgritRun(hier, spd(ximax, 20), relax_kind, max_iters=40)
    _assert_iterate_bit_identical(run, 1)


def _correction_case(spectrum, k, levels, relax_kind, **hier):
    """An engine and a random right-hand side on every point of its level-1
    grid, index 0 included."""
    problem, path = {"real": (spd(3.0, 20), "diagonal"),
                     "complex": (make_skew_advection(16, 1.0), "diagonal"),
                     "matrix": (make_fd_diffusion(9), "matrix")}[spectrum]
    hier = dict(dict(N=8 * k ** (levels - 1), h_t=0.5, fine=SDIRK33,
                     coarse=BWE), **hier)
    eng = _Engine(MgritRun(TimeHierarchy(k=k, levels=levels, **hier),
                           problem, relax_kind, path=path))
    rng = np.random.default_rng(7)
    shape = (hier["N"] // k + 1, eng.width)
    g = rng.standard_normal(shape)
    if eng.dtype is complex:
        g = g + 1j * rng.standard_normal(shape)
    return eng, g


def _assert_correction_matches_full_grid_vcycle(eng, g, theta):
    """`correction` from level 1, returned and added into a grid, against
    the full-grid V-cycle from zero; g is left as it was."""
    g_before = g.copy()
    ref = _vcycle(eng, np.zeros_like(g), g_before.copy(), 1, theta)
    ops = eng.ops(theta)[1:]
    assert np.array_equal(eng.correction(g, ops), ref)
    assert np.array_equal(g, g_before)
    above = np.random.default_rng(8).standard_normal(g.shape)
    into = above.astype(g.dtype)
    assert eng.correction(g, ops, into=into) is into
    assert np.array_equal(into, above + ref)
    assert np.array_equal(g, g_before)


@pytest.mark.parametrize("relax_kind,theta", [
    ("F", 1.0), ("F", 0.5), ("F", 0.0),
    ("FCF", 1.0), ("FCF", 0.5), ("FCF", 0.0)])
@pytest.mark.parametrize("levels", [3, 4, 5])
def test_coarse_correction_is_bit_identical_to_full_grid_vcycle(
        relax_kind, theta, levels):
    # k > 2 adds g on the F-points inside each interval's products
    for k in (2, 3, 4):
        for spectrum in ("real", "complex", "matrix"):
            eng, g = _correction_case(spectrum, k, levels, relax_kind)
            _assert_correction_matches_full_grid_vcycle(eng, g, theta)


# erk4 at coarse steps of 1e78 and more overflows to inf on the larger
# modes; no cycle may start from them (inf times a zero C-point is NaN)
OVERFLOWING = dict(h_t=1e78, fine=BWE, coarse=get_scheme("erk4"))


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("k", [2, 3])
def test_coarse_correction_keeps_the_nans_of_infinite_factors(relax_kind, k):
    # the engine that would cycle with them is rejected when it is made
    with pytest.raises(ValueError, match=NOT_FINITE):
        _correction_case("real", k, 3, relax_kind, **OVERFLOWING)


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("k", [2, 3])
def test_iterate_keeps_the_nans_of_infinite_factors(relax_kind, k):
    # iterate and measure_rho reject the run before any cycle
    hier = TimeHierarchy(8 * k ** 2, levels=3, k=k, **OVERFLOWING)
    run = MgritRun(hier, spd(1.0, 20), relax_kind)
    with pytest.raises(ValueError, match=NOT_FINITE):
        iterate(run)
    with pytest.raises(ValueError, match=NOT_FINITE):
        measure_rho([simple_run(), run])


@pytest.mark.parametrize("coarse, h_t, levels", [
    ("sdirk33", 1e103, 2), ("sdirk33", 1e103, 3), ("erk4", 1e300, 2),
    (EXACT_COARSE, 1e40, 2)], ids=["implicit", "implicit_deep", "explicit",
                                    "exact"])
def test_engine_rejects_factors_that_overflow(coarse, h_t, levels):
    # sdirk33's Horner sum overflows at dt * xi = 2e103, erk4's factor
    # overflows to inf, and so does the exact coarse factor, the product of
    # two finite erk4 factors of about 4e158
    fine = get_scheme("erk4" if coarse == EXACT_COARSE else "bwe")
    coarse = coarse if coarse == EXACT_COARSE else get_scheme(coarse)
    hier = TimeHierarchy(16, h_t, 2, levels, fine, coarse)
    run = MgritRun(hier, spd(1.0, 4), "F")
    with pytest.raises(ValueError, match=NOT_FINITE):
        iterate(run)
    with pytest.raises(ValueError, match=NOT_FINITE):
        measure_rho([run])


def test_engine_rejects_a_theta_that_overflows_a_factor():
    # erk4's coarse factor at dt * xi = 2e8 is about 7e30, and a weight of
    # 1e300 takes it past the largest float
    hier = TimeHierarchy(16, 1e10, 2, 2, BWE, get_scheme("erk4"))
    run = MgritRun(hier, ModelProblem(np.array([1e-2])), "F",
                   theta_schedule=(1.0, 1e300))
    _Engine(MgritRun(hier, run.problem, "F"))
    with pytest.raises(ValueError, match=NOT_FINITE):
        measure_rho([run])
    # a weight of 0 times an infinite factor is NaN, quietly
    hier = TimeHierarchy(32, levels=3, k=2, **OVERFLOWING)
    with pytest.raises(ValueError, match=NOT_FINITE):
        _Engine(MgritRun(hier, spd(1.0, 20), "F", theta_schedule=(0.0, 1.0)))


def _full_grid_probe(run):
    """`error_propagation_matrices` by the full-grid level-0 V-cycle: a unit
    error at one C-point, every F-point zero, full pre-relaxation."""
    eng = _Engine(run)
    k, nc = eng.k, run.hierarchy.points(1)
    E = np.zeros((eng.width, nc, nc), eng.dtype)
    for c in range(1, nc + 1):
        u = np.zeros((run.hierarchy.N + 1, eng.width), eng.dtype)
        u[c * k] = 1.0
        E[:, :, c - 1] = _vcycle(eng, u, None, 0)[k::k].T
    return list(E)


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("levels", [2, 3])
def test_probed_propagator_equals_full_grid_probe(relax_kind, levels):
    hier = TimeHierarchy(64, 0.5, 2, levels, SDIRK33, BWE)
    run = MgritRun(hier, spd(3.0, 8), relax_kind)
    probed = error_propagation_matrices(run)
    reference = _full_grid_probe(run)
    assert len(probed) == len(reference) == 8
    for E, ref in zip(probed, reference):
        assert np.array_equal(E, ref)


@pytest.mark.parametrize("fine", ["sdirk33", "bwe"])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
def test_error_propagator_is_closed_form_toeplitz(fine, k, relax_kind):
    # two-level propagator on C-points 1..Nc, per mode: strictly lower
    # triangular Toeplitz with t_i = (lam^k - mu) mu^(i-1), i >= 1 (F) and
    # t_i = lam^k (lam^k - mu) mu^(i-2), i >= 2 (FCF)
    nc = 16
    tab = get_scheme(fine)
    problem = spd(3.0, 8)
    hier = TimeHierarchy(nc * k, 1.0, k, 2, tab, BWE)
    probed = error_propagation_matrices(MgritRun(hier, problem, relax_kind))
    lamk = stability_eval_batch(tab, problem.eigenvalues) ** k
    mu = stability_eval_batch(BWE, k * problem.eigenvalues)
    first = 1 if relax_kind == "F" else 2
    i = np.subtract.outer(np.arange(nc), np.arange(nc))
    for E, lk, m in zip(probed, lamk, mu):
        t = (lk - m) * m ** np.maximum(i - first, 0)
        if relax_kind == "FCF":
            t = lk * t
        T = np.where(i >= first, t, 0.0)
        assert np.max(np.abs(E - T)) <= 1e-13


@pytest.mark.parametrize("seeds", [0, -3])
def test_measure_rho_rejects_fewer_than_one_seed(seeds):
    with pytest.raises(ValueError, match="seeds must be >= 1"):
        measure_rho([simple_run(N=16)], seeds=seeds)


# --- several runs in one measure_rho call -------------------------------------

def _k_sweep(relax_kind, path):
    """Runs at k = 2, 4, 8 on one time grid and one problem."""
    problem, h_t = ((make_fd_diffusion(9), 0.002) if path == "matrix"
                    else (spd(3.0, 20), 0.5))
    return [MgritRun(TimeHierarchy(64, h_t, k, 2, SDIRK33, BWE), problem,
                     relax_kind, path=path)
            for k in (2, 4, 8)]


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("path", ["diagonal", "matrix"])
def test_measure_rho_of_several_runs_equals_each_run_alone(relax_kind, path):
    runs = _k_sweep(relax_kind, path)
    together = measure_rho(runs, seeds=3)
    assert len(together) == 3
    for run, res in zip(runs, together):
        alone, = measure_rho([run], seeds=3)
        assert res.rho == alone.rho
        assert res.history == alone.history
        assert res.converged == alone.converged


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("path", ["diagonal", "matrix"])
def test_measure_rho_skips_the_closing_f_sweep(relax_kind, path, monkeypatch):
    # the histories are iterate's; only the full grid at return is not built
    runs = _k_sweep(relax_kind, path)
    expected = [tuple(iterate(run)[0]) for run in runs]
    levels = []
    f_sweep = _Engine.f_sweep

    def counted(eng, c, factors, *args, **kwargs):
        levels.append(next(level for level, ops in enumerate(eng.ops(1.0))
                           if ops is factors))
        return f_sweep(eng, c, factors, *args, **kwargs)

    monkeypatch.setattr(_Engine, "f_sweep", counted)
    assert [res.history for res in measure_rho(runs)] == expected
    assert 0 not in levels
    iterate(runs[0])
    assert levels[-1] == 0


def test_measure_rho_draws_each_seed_once_per_grid(monkeypatch):
    draws = []
    initial_state = _Engine.initial_state

    def counted(eng, seed):
        draws.append((eng.run.hierarchy.N, eng.width, eng.dtype, seed))
        return initial_state(eng, seed)

    monkeypatch.setattr(_Engine, "initial_state", counted)
    real, skew = spd(3.0, 20), make_skew_advection(16, 1.0)

    def run(N, k, problem, relax_kind="F", **kw):
        hier = TimeHierarchy(N, 0.5, k, 2, SDIRK33, BWE)
        return MgritRun(hier, problem, relax_kind, **kw)

    runs = [run(64, 2, real), run(64, 4, real, "FCF"), run(64, 8, real),
            run(128, 2, real),               # more rows
            run(128, 4, skew),               # complex, another width
            run(128, 8, real, seed=7)]       # another seed
    results = measure_rho(runs, seeds=3)
    grids = {(64, 20, float, 0), (128, 20, float, 0), (128, 16, complex, 0),
             (128, 20, float, 7)}
    expected = {(n, w, d, s + i) for n, w, d, s in grids for i in range(3)}
    assert len(draws) == len(expected) and set(draws) == expected
    # runs measured alone draw once per seed each, and agree
    draws.clear()
    assert results == [measure_rho([r], seeds=3)[0] for r in runs]
    assert len(draws) == 3 * len(runs)


@pytest.mark.parametrize("zero", [False, True], ids=["random", "zero"])
def test_iterate_reads_u0_without_writing_or_returning_it(zero):
    # a real u0 on a real spectrum needs no conversion, so iterate works on
    # the caller's array itself
    run = simple_run(N=32, k=4, ximax=3.0, max_iters=4)
    u0 = np.random.default_rng(8).standard_normal((33, run.problem.n_modes))
    if zero:
        u0[:] = 0.0
    before = u0.copy()
    history, u = iterate(run, u0=u0)
    assert (history == [0.0]) == zero
    assert np.array_equal(u0, before)
    assert not np.shares_memory(u, u0)
    if zero:
        assert np.array_equal(u, u0)


# --- the two lanes of measure_rho ---------------------------------------------

# N_c = N/2 and N/3 stay in the main lane; N/4, N/8 and N/16 are at most half
# of N/2 and go to the side lane
KS_BOTH_LANES = (2, 3, 4, 8, 16)


def _lane_sweep(case, relax_kind="F"):
    """Runs over KS_BOTH_LANES that fill both lanes of measure_rho."""
    fine, coarse = SDIRK33, BWE
    problem, h_t, path, kw = spd(3.0, 20), 0.5, "diagonal", {}
    Ns = (192,)
    if case == "complex":
        problem = make_skew_advection(16, 1.0)
        fine, coarse = TRAP, SDIRK22
    elif case == "divergent":
        fine, coarse = get_scheme("erk4"), get_scheme("fwe")
        problem, h_t, kw = spd(1.05, 20), 1.0, dict(max_iters=40)
    elif case == "two_grids":
        Ns = (192, 96)
    elif case == "matrix":
        problem, h_t, path = make_fd_diffusion(9), 0.002, "matrix"
    return [MgritRun(TimeHierarchy(N, h_t, k, 2, fine, coarse), problem,
                     relax_kind, path=path, **kw)
            for k in KS_BOTH_LANES for N in Ns]


def _one_at_a_time(runs, seeds):
    """measure_rho's results from `_cycles` on one run at a time, each with
    its own engine, draw and buffers."""
    out = []
    for run in runs:
        best, converged = None, True
        for i in range(seeds):
            eng = _Engine(run)
            history = tuple(_cycles(run, eng,
                                    eng.initial_state(run.seed + i))[0])
            nc = run.hierarchy.points(1)
            rho = _rho_from_history(
                history, nc if run.relaxation == "F" else (nc + 1) // 2)
            converged = converged and history[-1] <= run.tol * history[0]
            if best is None or rho > best[0]:
                best = (rho, history)
        out.append(RhoResult(*best, converged))
    return out


LANE_CASES = ["real", "complex", "divergent", "two_grids", "matrix"]


def _cpus(monkeypatch, n):
    """Present n CPUs to this process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


@pytest.fixture
def side_thread(monkeypatch):
    """Two CPUs: the side lane runs on a worker."""
    _cpus(monkeypatch, 2)


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
@pytest.mark.parametrize("case", LANE_CASES)
def test_lanes_are_bit_identical_to_one_run_at_a_time(case, relax_kind,
                                                      side_thread):
    runs = _lane_sweep(case, relax_kind)
    main, side = _lanes(runs)
    assert main and side
    assert measure_rho(runs, seeds=2) == _one_at_a_time(runs, seeds=2)


def test_lanes_split_at_half_the_largest_coarse_grid():
    runs = _lane_sweep("two_grids")     # N_c = 96, 48 at k = 2, and so on
    ncs = [run.hierarchy.points(1) for run in runs]
    main, side = _lanes(runs)
    assert [ncs[j] for j in main] == [96, 64]
    assert [ncs[j] for j in side] == [48, 32, 48, 24, 24, 12, 12, 6]
    assert sorted(main + side) == list(range(len(runs)))
    assert _lanes(runs[:1]) == ([0], [])


def _thread_log(monkeypatch):
    """Record the thread of every stability evaluation, draw and
    `_cycles` call that measure_rho makes."""
    log = []
    evaluate, initial_state, cycles = (mgrit_sim.stability_eval_batch,
                                       _Engine.initial_state,
                                       mgrit_sim._cycles)

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            log.append((name, threading.current_thread(), args))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(mgrit_sim, "stability_eval_batch",
                        logged("eval", evaluate))
    monkeypatch.setattr(_Engine, "initial_state",
                        logged("draw", initial_state))
    monkeypatch.setattr(mgrit_sim, "_cycles", logged("cycles", cycles))
    return log


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
def test_only_the_cycles_leave_the_main_thread(relax_kind, monkeypatch,
                                               side_thread):
    # perfbench's tracer keeps one span stack: every function it wraps, and
    # stability_eval_batch in particular, must run on the calling thread
    runs = _lane_sweep("two_grids", relax_kind)
    log = _thread_log(monkeypatch)
    before = threading.active_count(), np.getbufsize()
    measure_rho(runs, seeds=2)
    assert (threading.active_count(), np.getbufsize()) == before
    main_thread = threading.main_thread()
    off_main = [name for name, thread, _ in log if thread is not main_thread]
    assert off_main == ["cycles"] * 2 * len(_lanes(runs)[1])
    assert sum(name == "eval" for name, _, _ in log) > 0


@pytest.mark.parametrize("cpus", [1], ids=["one_cpu"])
def test_no_spare_cpu_runs_every_run_in_order_on_the_calling_thread(
        cpus, monkeypatch):
    runs = _lane_sweep("real")
    expected = measure_rho(runs, seeds=2)
    _cpus(monkeypatch, cpus)
    log = _thread_log(monkeypatch)
    before = threading.active_count()
    assert measure_rho(runs, seeds=2) == expected
    assert threading.active_count() == before
    assert all(thread is threading.main_thread() for _, thread, _ in log)
    ks = [args[0].hierarchy.k for name, _, args in log if name == "cycles"]
    assert ks == 2 * [run.hierarchy.k for run in runs]


@pytest.mark.parametrize("order", ["k_up", "k_down"])
def test_first_failure_in_run_order_reaches_the_caller(order, monkeypatch,
                                                       side_thread):
    runs = _lane_sweep("real")
    if order == "k_down":
        runs.reverse()
    main, side = _lanes(runs)
    ks = [run.hierarchy.k for run in runs]
    failing = {ks[main[-1]]: "main lane", ks[side[1]]: "side lane"}
    first = failing[ks[min(main[-1], side[1])]]
    cycles = mgrit_sim._cycles

    def failing_cycles(run, eng, u0, work=None):
        if run.hierarchy.k in failing:
            raise FloatingPointError(failing[run.hierarchy.k])
        return cycles(run, eng, u0, work)

    monkeypatch.setattr(mgrit_sim, "_cycles", failing_cycles)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match=first):
        measure_rho(runs, seeds=2)
    assert threading.active_count() == before
    # a side-lane failure alone reaches the caller too
    del failing[ks[main[-1]]]
    with pytest.raises(FloatingPointError, match="side lane"):
        measure_rho(runs)
    assert threading.active_count() == before


def test_measure_rho_peak_memory_within_draw_plus_four_grids(side_thread):
    # numpy reports its allocations to tracemalloc, whichever thread makes
    # them.  The seed's draw, plus level-0 buffers for both lanes: two grids
    # and a quarter for the largest run, half that for the side lane.
    N, modes = 2048, 128
    problem = spd(1.66, modes)
    runs = [MgritRun(TimeHierarchy(N, 1.0, k, 2, BWE, BWE), problem, "F")
            for k in (2, 4, 8, 16)]
    draw = (N + 1) * modes * 8
    grid = (N // 2 + 1) * modes * 8
    np.random.default_rng(0).standard_normal(1)     # numpy's one-time set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        measure_rho(runs, seeds=2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= draw + 4 * grid


@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
def test_level_sweep_peak_memory_within_draw_plus_5_5_grids(
        relax_kind, side_thread):
    # every run of a level sweep shares one coarse grid, so all cycle on the
    # calling thread: the seed's draw, level 0's two grids and a quarter,
    # and the coarse levels' buffers of half a grid and less
    N, modes = 2048, 128
    problem = spd(1.66, modes)
    runs = [MgritRun(TimeHierarchy(N, 1.0, 2, levels, BWE, BWE), problem,
                     relax_kind, max_iters=30)
            for levels in range(3, 10)]
    draw = (N + 1) * modes * 8
    grid = (N // 2 + 1) * modes * 8
    np.random.default_rng(0).standard_normal(1)     # numpy's one-time set-up
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        measure_rho(runs, seeds=2)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= draw + 5.5 * grid


@pytest.fixture
def caller_bufsize():
    """A ufunc buffer size of the caller's own, not numpy's default, put
    back after the test."""
    size = np.setbufsize(4096)
    yield 4096
    np.setbufsize(size)


def _bufsize_log(monkeypatch):
    """Record the ufunc buffer size of every V-cycle; the cycles of runs
    whose k is in the returned set raise."""
    sizes, fail = [], set()
    cycle = _Engine.cycle

    def logged(self, *args, **kwargs):
        sizes.append(np.getbufsize())
        if self.k in fail:
            raise FloatingPointError(f"k={self.k}")
        return cycle(self, *args, **kwargs)

    monkeypatch.setattr(_Engine, "cycle", logged)
    return sizes, fail


@pytest.mark.parametrize("cpus", [2, 1], ids=["lanes", "no_spare_cpu"])
def test_cycles_run_at_their_buffer_size_and_restore_the_callers(
        cpus, caller_bufsize, monkeypatch):
    _cpus(monkeypatch, cpus)
    runs = _lane_sweep("real")
    assert bool(_lanes(runs)[1]) and mgrit_sim._spare_cpu() is (cpus == 2)
    sizes, fail = _bufsize_log(monkeypatch)
    measure_rho(runs, seeds=2)
    assert np.getbufsize() == caller_bufsize
    iterate(runs[0])
    assert np.getbufsize() == caller_bufsize
    assert sizes and set(sizes) == {mgrit_sim._BUFSIZE}
    # a run that raises in its cycles, in either lane or alone
    for k in (runs[0].hierarchy.k, runs[-1].hierarchy.k):
        fail.clear()
        fail.add(k)
        with pytest.raises(FloatingPointError, match=f"k={k}"):
            measure_rho(runs)
        assert np.getbufsize() == caller_bufsize
        with pytest.raises(FloatingPointError, match=f"k={k}"):
            iterate(next(run for run in runs if run.hierarchy.k == k))
        assert np.getbufsize() == caller_bufsize


# --- the coarsest solve's odd-even reduction ----------------------------------

@pytest.mark.parametrize("rows", [33, 34, 64, 65, 127, 1025])
@pytest.mark.parametrize("theta", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("coarse,problem", [
    (BWE, spd(3.0, 12)),
    (BWE, make_skew_advection(8, 1.0)),
    # explicit coarse steps of 2 outside the stability region: fwe has
    # |mu| = |1 - 2 xi| <= 1.5, erk2 on i*w |mu|^2 = 1 + w^4/4 <= 1.43^2
    (get_scheme("fwe"), spd(1.25, 12)),
    (get_scheme("erk2"), make_skew_advection(8, 1.4)),
], ids=["real", "skew", "real-growing", "skew-growing"])
def test_seq_solve_reduction_matches_extended_recurrence(rows, theta, coarse,
                                                         problem):
    hier = TimeHierarchy((rows - 1) * 4, 0.5, 4, 2, SDIRK33, coarse)
    eng = _Engine(MgritRun(hier, problem, "F"))
    g = np.random.default_rng(rows).standard_normal((rows, problem.n_modes))
    g = g.astype(eng.dtype)
    g_before = g.copy()
    u = eng.correction(g, eng.ops(theta)[1:])
    # u_n = theta * mu u_{n-1} + g_n in extended precision, row by row
    mu = stability_eval_batch(coarse, hier.dt(1) * problem.eigenvalues)
    mu = theta * mu.astype(np.clongdouble)
    ref = g_before.astype(np.clongdouble)
    for n in range(1, rows):
        ref[n] = mu * ref[n - 1] + g_before[n]
    assert u.dtype == g.dtype
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(u - ref) <= 1e-13 * scale)
    assert u is g


@pytest.mark.parametrize("rows", [33, 64, 1025])
@pytest.mark.parametrize("theta", [1.0, 0.5])
def test_seq_solve_reduction_matrix_path(rows, theta):
    problem = make_fd_diffusion(9)
    hier = TimeHierarchy((rows - 1) * 2, 0.002, 2, 2, SDIRK33, SDIRK22)
    eng = _Engine(MgritRun(hier, problem, "F", path="matrix"))
    g = np.random.default_rng(rows).standard_normal((rows, 9))
    g_before = g.copy()
    u = eng.correction(g, eng.ops(theta)[1:])
    # the rows of eye @ S^T are the step of each unit state
    st = step(SDIRK22, problem, hier.dt(1), np.eye(9), path="matrix")
    st = theta * st.astype(np.longdouble)
    ref = g_before.astype(np.longdouble)
    for n in range(1, rows):
        ref[n] = ref[n - 1] @ st + g_before[n]
    scale = np.max(np.abs(ref), axis=1, keepdims=True)
    assert np.all(np.abs(u - ref) <= 1e-13 * scale)
    assert u is g


# --- closed-form two-level propagator across the reduction's cutoff ----------

def closed_form_propagator(lam, mu, k, nc, relax_kind):
    """One mode's two-level error propagator on C-points 1..Nc.

    Strictly lower triangular Toeplitz with t_i = (lam^k - mu) mu^(i-1),
    i >= 1, under F-relaxation and t_i = lam^k (lam^k - mu) mu^(i-2),
    i >= 2, under FCF (Dobrev et al. 2017; Southworth 2019).
    """
    lamk = lam ** k
    first = 1 if relax_kind == "F" else 2
    i = np.subtract.outer(np.arange(nc), np.arange(nc))
    t = (lamk - mu) * mu ** np.maximum(i - first, 0)
    if relax_kind == "FCF":
        t = lamk * t
    return np.where(i >= first, t, 0.0)


@pytest.mark.parametrize("fine,coarse", [("sdirk33", "bwe"),
                                         ("esdirk33", "sdirk22")])
@pytest.mark.parametrize("k", [2, 4, 16])
@pytest.mark.parametrize("nc", [16, 33, 64, 128])
@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
def test_probed_propagator_equals_closed_form(fine, coarse, k, nc,
                                              relax_kind):
    # Nc + 1 > 32 coarse rows run through the reduction, 17 through the loop
    fine, coarse = get_scheme(fine), get_scheme(coarse)
    problem = spd(3.0, 8)
    hier = TimeHierarchy(nc * k, 1.0, k, 2, fine, coarse)
    probed = error_propagation_matrices(MgritRun(hier, problem, relax_kind))
    lam = stability_eval_batch(fine, problem.eigenvalues)
    mu = stability_eval_batch(coarse, k * problem.eigenvalues)
    for E, lj, mj in zip(probed, lam, mu):
        T = closed_form_propagator(lj, mj, k, nc, relax_kind)
        assert np.max(np.abs(E - T)) <= 1e-13


# the A- and L-stable schemes: |lam| <= 1 on the real axis, so the
# propagators' entries stay within 2 and 1e-13 is an absolute tolerance
_STABLE = [tab.name for tab in REGISTRY
           if tab.stability_class != CONDITIONALLY_STABLE]


@settings(max_examples=200, deadline=None, database=None)
@given(fine=st.sampled_from(_STABLE), coarse=st.sampled_from(_STABLE),
       k=st.integers(2, 16), nc=st.integers(2, 40),
       relax_kind=st.sampled_from(["F", "FCF"]),
       log_xi=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6))
def test_probed_propagator_equals_closed_form_property(fine, coarse, k, nc,
                                                       relax_kind, log_xi):
    fine, coarse = get_scheme(fine), get_scheme(coarse)
    problem = ModelProblem(10.0 ** np.asarray(log_xi))
    hier = TimeHierarchy(nc * k, 1.0, k, 2, fine, coarse)
    probed = error_propagation_matrices(MgritRun(hier, problem, relax_kind))
    lam = stability_eval_batch(fine, problem.eigenvalues)
    mu = stability_eval_batch(coarse, k * problem.eigenvalues)
    for E, lj, mj in zip(probed, lam, mu):
        T = closed_form_propagator(lj, mj, k, nc, relax_kind)
        assert np.max(np.abs(E - T)) <= 1e-13


# the stable schemes the matrix path runs: lower-triangular A
_DIRK = [name for name in _STABLE
         if not np.any(np.triu(get_scheme(name).A, 1))]


@settings(max_examples=200, deadline=None, database=None)
@given(fine=st.sampled_from(_DIRK), coarse=st.sampled_from(_DIRK),
       M=st.integers(2, 12), k=st.integers(2, 16), nc=st.integers(2, 12),
       log_ht=st.floats(-4.0, 0.0), relax_kind=st.sampled_from(["F", "FCF"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_diagonal_and_matrix_histories_agree_property(fine, coarse, M, k, nc,
                                                      log_ht, relax_kind,
                                                      seed):
    problem = make_fd_diffusion(M)
    _, V = np.linalg.eigh(problem.matrix)
    hier = TimeHierarchy(nc * k, 10.0 ** log_ht, k, 2, get_scheme(fine),
                         get_scheme(coarse))
    u0_phys = np.random.default_rng(seed).standard_normal((nc * k + 1, M))
    hist_mat, _ = iterate(MgritRun(hier, problem, relax_kind, path="matrix"),
                          u0=u0_phys)
    hist_diag, _ = iterate(MgritRun(hier, problem, relax_kind,
                                    path="diagonal"), u0=u0_phys @ V)
    assert len(hist_mat) == len(hist_diag)
    for a, b in zip(hist_mat, hist_diag):
        assert a == pytest.approx(b, rel=1e-9)


# Nc stops at 12: with |mu(inf)| = 1 (midpoint, trapezoid, gauss4 coarse)
# the residual grows for a while before it vanishes, about 2.5e3-fold at
# Nc = 12 but past iterate's 1e6 divergence stop from Nc of about 27 on
@settings(max_examples=200, deadline=None, database=None)
@given(fine=st.sampled_from(_STABLE), coarse=st.sampled_from(_STABLE),
       k=st.integers(2, 16), nc=st.integers(2, 12),
       relax_kind=st.sampled_from(["F", "FCF"]),
       log_xi=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=6),
       seed=st.integers(0, 1000))
def test_exactness_in_nc_or_half_nc_iterations_property(fine, coarse, k, nc,
                                                        relax_kind, log_xi,
                                                        seed):
    # iterate stops early only where the residual is exactly 0
    iters = nc if relax_kind == "F" else math.ceil(nc / 2)
    hier = TimeHierarchy(nc * k, 1.0, k, 2, get_scheme(fine),
                         get_scheme(coarse))
    run = MgritRun(hier, ModelProblem(10.0 ** np.asarray(log_xi)),
                   relax_kind, seed=seed, tol=0.0, max_iters=iters)
    history, _ = iterate(run)
    assert history[-1] <= 1e-10 * history[0], history


def _sandwich(nc, relax_kind, w, k=2):
    """Lower tight bound, 2-norm of the closed-form propagator and upper
    tight bound of bwe/bwe at the modes w."""
    lo, hi = (bound_values(BoundQuery(BWE, BWE, k, relax_kind, Nc=float(nc),
                                      bound_kind=kind), w)
              for kind in ("lower_tight", "upper_tight"))
    lam = stability_eval_batch(BWE, w)
    mu = stability_eval_batch(BWE, k * w)
    nrm = [np.linalg.norm(closed_form_propagator(lj, mj, k, nc,
                                                 relax_kind).real, 2)
           for lj, mj in zip(lam, mu)]
    return lo, np.array(nrm), hi


@pytest.mark.parametrize("nc", [64, 256, 1024])
@pytest.mark.parametrize("relax_kind", ["F", "FCF"])
def test_closed_form_propagator_within_tight_sandwich(nc, relax_kind):
    # the paper's per-mode sandwich, far beyond the Nc = 32 of the dense
    # probes; the modes include the bound's argmax near w = 1
    lo, nrm, hi = _sandwich(nc, relax_kind, np.array([0.3, 1.0, 3.0]))
    assert np.all(nrm <= hi), (nrm, hi)
    assert np.all(lo <= nrm), (lo, nrm)


@pytest.mark.parametrize("nc", [64, 256, 1024])
def test_fcf_lower_tight_bound_below_closed_form_norm(nc):
    # the FCF propagator is Toeplitz on Nc - 1 C-points, so the FCF bounds
    # take Nc - 1; taken at Nc, the lower bound exceeded the norm by a
    # relative 1.4e-5 at Nc = 64
    lo, nrm, _ = _sandwich(nc, "FCF", np.array([1.0]))
    assert lo[0] <= nrm[0], (lo, nrm)
