import io

import numpy as np
import pytest

from pintlab.bounds import (BoundQuery, PropagatorSpec, pointwise_bound,
                            spectrum_max)
from pintlab.butcher import get_scheme
from pintlab.mgrit_sim import (EXACT_COARSE, MgritRun, RhoResult, SolveError,
                               TimeHierarchy, _Engine,
                               error_propagation_matrices,
                               error_propagation_norm, iterate, measure_rho,
                               run_to_csv, step)
from pintlab.model_problems import (ModelProblem, make_fd_diffusion,
                                    make_spd_interval)

BWE = get_scheme("bwe")
SDIRK22 = get_scheme("sdirk22")
SDIRK33 = get_scheme("sdirk33")
TRAP = get_scheme("trapezoid")


def spd(ximax, n=60, include=()):
    return make_spd_interval(ximax, n, include)


def simple_run(fine=BWE, coarse=BWE, k=2, N=64, ximax=1.66, relax_kind="F",
               **kw):
    hier = TimeHierarchy(N, 1.0, k, 2, fine, coarse)
    return MgritRun(hier, spd(ximax), relax_kind, **kw)


# --- step -------------------------------------------------------------------

def test_step_bwe_diagonal():
    problem = ModelProblem("diagonal_spd", [1.0])
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


# --- relaxation ---------------------------------------------------------------

def test_f_relax_is_fixed_point_on_exact_solution():
    run = simple_run(N=32, k=4)
    # the exact homogeneous solution (zero) is untouched
    u = np.zeros((33, run.problem.n_modes), complex)
    out = _Engine(run).relax(u.copy(), np.zeros_like(u), 0, run.relaxation)
    assert np.all(out == 0)


def test_f_relax_zeroes_f_point_residual():
    run = simple_run(N=32, k=4)
    rng = np.random.default_rng(3)
    m = run.problem.n_modes
    u = rng.standard_normal((33, m)).astype(complex)
    rhs = rng.standard_normal((33, m)).astype(complex)
    out = _Engine(run).relax(u.copy(), rhs, 0, run.relaxation)
    # full residual r_n = g_n - u_n + lam u_{n-1}, lam = 1/(1 + xi) for bwe
    lam = 1.0 / (1.0 + run.problem.eigenvalues)
    r = rhs - out
    r[1:] += lam * out[:-1]
    f_mask = np.ones(33, bool)
    f_mask[::4] = False
    assert np.linalg.norm(r[f_mask]) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("relax_kind", ["F", "FC", "FCF"])
@pytest.mark.parametrize("levels", [2, 3])
def test_vcycle_leaves_f_point_residual_exactly_zero(relax_kind, levels):
    # iterate's per-cycle norm is taken on the C-points only, which is the
    # full residual norm because the closing F-relaxation zeroes the rest
    hier = TimeHierarchy(32, 1.0, 4, levels, SDIRK33, BWE)
    run = MgritRun(hier, spd(3.0, 20), relax_kind)
    eng = _Engine(run)
    g = eng.zeros(0)
    u = eng.vcycle(eng.initial_state(0), g, 0)
    r = g - u
    r[1:] += step(SDIRK33, run.problem, 1.0, u[:-1])
    f_mask = np.ones(33, bool)
    f_mask[::4] = False
    assert np.all(r[f_mask] == 0)
    assert np.linalg.norm(r[~f_mask]) > 0
    assert np.array_equal(eng.residual(u, g, 0), r[::4])


def test_fcf_reduces_error_to_interval_propagated_form():
    # after FCF relaxation on the homogeneous problem every F-point error is
    # the step-propagated image of its preceding C-point error
    k, N = 4, 8
    hier = TimeHierarchy(N, 1.0, k, 2, BWE, BWE)
    problem = spd(2.0, 5)
    run = MgritRun(hier, problem, "FCF")
    rng = np.random.default_rng(5)
    u = rng.standard_normal((N + 1, problem.n_modes)).astype(complex)
    out = _Engine(run).relax(u.copy(), np.zeros_like(u), 0, run.relaxation)
    lam = 1.0 / (1.0 + problem.eigenvalues)
    for c in range(N // k):
        for j in range(1, k):
            assert np.allclose(out[c * k + j], lam ** j * out[c * k],
                               rtol=1e-12, atol=1e-14)


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
        lo = spectrum_max(
            BoundQuery(PropagatorSpec.uniform(BWE, 4), BWE, 4, relax_kind,
                       Nc=float(nc), bound_kind="lower_tight"), w)
        hi = spectrum_max(
            BoundQuery(PropagatorSpec.uniform(BWE, 4), BWE, 4, relax_kind,
                       Nc=float(nc), bound_kind="upper_tight"), w)
        assert lo <= nrm <= hi, (relax_kind, lo, nrm, hi)


def test_dense_probing_matches_direct_formula():
    # per-mode propagator assembled from the iteration equals the explicit
    # matrix I - B^{-1}A built from the two per-interval factors
    hier = TimeHierarchy(12, 1.0, 3, 2, SDIRK22, BWE)
    problem = ModelProblem("diagonal_spd", [0.9])
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
    res = measure_rho(run, seeds=5)
    w = np.abs(problem.eigenvalues)
    lo = spectrum_max(BoundQuery(PropagatorSpec.uniform(BWE, k), BWE, k, "F",
                                 Nc=float(N // k),
                                 bound_kind="lower_tight"), w)
    hi = spectrum_max(BoundQuery(PropagatorSpec.uniform(BWE, k), BWE, k, "F",
                                 Nc=float(N // k),
                                 bound_kind="upper_tight"), w)
    assert lo - 0.02 <= res.rho <= hi + 0.02
    assert res.converged


def test_rho_bwe_table_cell():
    problem = spd(1.66, 100, include=[1.0])
    hier = TimeHierarchy(512, 1.0, 2, 2, BWE, BWE)
    res = measure_rho(MgritRun(hier, problem, "F"), seeds=3)
    assert res.rho == pytest.approx(0.12, abs=0.02)


@pytest.mark.parametrize("relax_kind", ["F", "FC", "FCF"])
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
    res = measure_rho(MgritRun(hier, problem, "F"), seeds=1)
    assert not res.converged
    assert res.rho > 1.0


def test_worst_mode_seeding():
    problem = spd(2.0, 30, include=[1.0])
    hier = TimeHierarchy(64, 1.0, 2, 2, BWE, BWE)
    run = MgritRun(hier, problem, "F", initial_error=("worst_mode", 1.0))
    res = measure_rho(run)
    # only the w=1 mode is excited; its asymptotic factor is the pointwise
    # bound at the argmax, 1/8
    q = BoundQuery(PropagatorSpec.uniform(BWE, 2), BWE, 2, "F")
    assert res.rho <= pointwise_bound(q, 1.0) + 0.02


def test_multilevel_vcycle_converges():
    hier = TimeHierarchy(64, 1.0, 2, 4, BWE, BWE)
    run = MgritRun(hier, spd(1.66, 24), "FCF", max_iters=60)
    res = measure_rho(run)
    assert res.converged
    assert res.rho < 0.2


def test_hierarchy_validation():
    with pytest.raises(ValueError):
        TimeHierarchy(10, 1.0, 4, 2, BWE, BWE)      # 10 % 4 != 0
    with pytest.raises(ValueError):
        TimeHierarchy(16, 1.0, 4, 3, BWE, EXACT_COARSE)
    with pytest.raises(ValueError):
        TimeHierarchy(16, 1.0, 1, 2, BWE, BWE)
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


def test_mixed_fine_propagator_steps():
    # two strongly damped steps followed by two marginal ones: each F-point
    # value is the product of the per-step factors applied in order
    from pintlab.butcher import stability_eval
    spec = PropagatorSpec(((SDIRK22, 1.0), (SDIRK22, 1.0),
                           (TRAP, 1.0), (TRAP, 1.0)))
    problem = ModelProblem("diagonal_spd", [2.0])
    hier = TimeHierarchy(8, 1.0, 4, 2, spec, SDIRK22)
    run = MgritRun(hier, problem, "F")
    u = np.zeros((9, 1), complex)
    u[0] = 0.0
    u[4] = 1.0
    out = _Engine(run).relax(u.copy(), np.zeros_like(u), 0, run.relaxation)
    f1 = stability_eval(SDIRK22, 2.0)
    f3 = stability_eval(TRAP, 2.0)
    assert out[5, 0] == pytest.approx(f1)
    assert out[6, 0] == pytest.approx(f1 * f1)
    assert out[7, 0] == pytest.approx(f1 * f1 * f3)


def test_mixed_fine_propagator_rescues_large_modes():
    # front-loading damped steps keeps the interval factor small at large
    # h_t*xi, matching the bound computed for the same mixed propagator
    from pintlab.bounds import spectrum_max as smax
    spec = PropagatorSpec(((SDIRK22, 1.0), (SDIRK22, 1.0),
                           (TRAP, 1.0), (TRAP, 1.0)))
    problem = make_spd_interval(40.0, 40)
    hier = TimeHierarchy(128, 1.0, 4, 2, spec, SDIRK22)
    res = measure_rho(MgritRun(hier, problem, "FCF"), seeds=2)
    q = BoundQuery(spec, SDIRK22, 4, "FCF")
    bound = smax(q, problem.eigenvalues.real)
    assert res.converged
    assert res.rho <= bound + 0.02


def test_fc_relaxation_composes_f_then_c():
    run_fc = simple_run(N=16, k=4, ximax=2.0, relax_kind="FC")
    run_f = simple_run(N=16, k=4, ximax=2.0, relax_kind="F")
    rng = np.random.default_rng(9)
    m = run_fc.problem.n_modes
    u = rng.standard_normal((17, m)).astype(complex)
    rhs = rng.standard_normal((17, m)).astype(complex)
    fc = _Engine(run_fc).relax(u.copy(), rhs, 0, "FC")
    f_only = _Engine(run_f).relax(u.copy(), rhs, 0, "F")
    # C-points get the one-step update from the F-relaxed state
    lam = 1.0 / (1.0 + run_fc.problem.eigenvalues)
    expected = f_only.copy()
    expected[4::4] = lam * f_only[3::4][:4] + rhs[4::4]
    expected[0] = rhs[0]
    assert np.allclose(fc, expected, rtol=1e-13, atol=1e-14)
