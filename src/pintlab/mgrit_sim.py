"""Linear Parareal / two-level / multilevel MGRIT solver over a time grid.

The solver runs on the homogeneous problem (zero right-hand side, random
initial error), so the recorded residual history is exactly the image of the
error under the iteration and the measured convergence factor is
forcing-independent.  Two state representations are supported: a diagonal
path (eigenmode coefficients, any scheme) and a matrix path (physical
unknowns, explicit and DIRK schemes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ._csv import write_csv
from .bounds import RELAX_F, RELAX_FCF, PropagatorSpec
from .butcher import ButcherTableau, stability_eval_batch
from .model_problems import ModelProblem

__all__ = [
    "SolveError",
    "EXACT_COARSE",
    "TimeHierarchy",
    "MgritRun",
    "RhoResult",
    "step",
    "iterate",
    "measure_rho",
    "error_propagation_matrices",
    "error_propagation_norm",
    "run_to_csv",
]

EXACT_COARSE = "exact"

RELAX_FC = "FC"


class SolveError(RuntimeError):
    """A stage system could not be solved on the requested path."""


@dataclass(frozen=True)
class TimeHierarchy:
    """Time-grid hierarchy: N fine steps of size h_t, coarsened by k per level.

    Level 0 advances with `fine` (a tableau, or a PropagatorSpec for mixed
    steps within each coarse interval); every level >= 1 advances with
    `coarse` at step k^level * h_t.  `coarse` may be the EXACT_COARSE
    sentinel (two-level only, diagonal path only), which uses the exact
    k-fold fine factor as the coarse propagator.
    """

    N: int
    h_t: float
    k: int
    levels: int = 2
    fine: object = None       # ButcherTableau or PropagatorSpec
    coarse: object = None     # ButcherTableau or EXACT_COARSE

    def __post_init__(self):
        if self.levels < 2:
            raise ValueError(f"need at least two levels, got {self.levels}")
        if self.k < 2:
            raise ValueError(f"coarsening factor k must be >= 2, got {self.k}")
        if self.N % self.k ** (self.levels - 1) != 0:
            raise ValueError(
                f"N={self.N} not divisible by k**(levels-1)="
                f"{self.k}**{self.levels - 1}={self.k ** (self.levels - 1)}")
        if isinstance(self.fine, ButcherTableau):
            object.__setattr__(self, "fine",
                               PropagatorSpec.uniform(self.fine, self.k))
        if not isinstance(self.fine, PropagatorSpec):
            raise TypeError("fine must be a ButcherTableau or PropagatorSpec")
        if len(self.fine.steps) != self.k:
            raise ValueError("fine propagator must carry k steps per interval")
        if self.coarse is EXACT_COARSE or self.coarse == EXACT_COARSE:
            object.__setattr__(self, "coarse", EXACT_COARSE)
            if self.levels != 2:
                raise ValueError("exact coarse propagator is two-level only")
        elif not isinstance(self.coarse, ButcherTableau):
            raise TypeError("coarse must be a ButcherTableau or 'exact'")

    def points(self, level: int) -> int:
        return self.N // self.k ** level

    def dt(self, level: int) -> float:
        return self.h_t * self.k ** level


@dataclass(frozen=True)
class MgritRun:
    """A configured solve: hierarchy + problem + relaxation + error seeding."""

    hierarchy: TimeHierarchy
    problem: ModelProblem
    relaxation: str = RELAX_F
    theta_schedule: tuple | None = None
    initial_error: object = "random_seeded"   # or ("worst_mode", w_star)
    seed: int = 0
    tol: float = 1e-13        # relative to the initial residual norm
    max_iters: int = 100
    path: str = "diagonal"    # or "matrix"

    def __post_init__(self):
        if self.relaxation not in (RELAX_F, RELAX_FC, RELAX_FCF):
            raise ValueError(f"unknown relaxation {self.relaxation!r}")
        if self.theta_schedule is not None:
            object.__setattr__(self, "theta_schedule",
                               tuple(float(t) for t in self.theta_schedule))
            if self.relaxation != RELAX_F:
                raise ValueError("theta weighting requires F-relaxation")
        if self.path not in ("diagonal", "matrix"):
            raise ValueError(f"unknown path {self.path!r}")
        if self.path == "matrix" and self.problem.matrix is None:
            raise ValueError("matrix path requires a matrix realization")


# ---------------------------------------------------------------------------
# Stepping kernels
# ---------------------------------------------------------------------------

def _thomas(dl, d, du, rhs):
    """Tridiagonal solve along the last axis; rhs shape (..., M)."""
    M = d.size
    cp = np.empty(M - 1)
    beta = np.empty(M)
    beta[0] = d[0]
    for i in range(M - 1):
        cp[i] = du[i] / beta[i]
        beta[i + 1] = d[i + 1] - dl[i] * cp[i]
    y = np.empty_like(rhs)
    y[..., 0] = rhs[..., 0] / beta[0]
    for i in range(1, M):
        y[..., i] = (rhs[..., i] - dl[i - 1] * y[..., i - 1]) / beta[i]
    x = np.empty_like(rhs)
    x[..., -1] = y[..., -1]
    for i in range(M - 2, -1, -1):
        x[..., i] = y[..., i] - cp[i] * x[..., i + 1]
    return x


def _is_tridiagonal(L):
    return np.all(L == (np.tril(np.triu(L, -1), 1)))


class _MatrixStepper:
    """One Runge-Kutta step of u' = -L u on the matrix path.

    DIRK stages solve shifted systems (I + dt*a_ii*L); tridiagonal L uses
    the Thomas algorithm, other shapes a cached dense factorization.  Fully
    implicit (non-lower-triangular) tableaux are unsupported here.
    """

    def __init__(self, tab: ButcherTableau, L: np.ndarray, dt: float):
        if np.any(np.abs(np.triu(tab.A, 1)) > 0):
            raise SolveError(
                f"{tab.name}: fully implicit stages unsupported on the matrix path")
        self.tab = tab
        self.L = L
        self.dt = dt
        self.tridiag = _is_tridiagonal(L)
        self._solvers = {}
        for aii in np.diag(tab.A):
            if aii != 0.0 and aii not in self._solvers:
                shifted = np.eye(L.shape[0]) + dt * aii * L
                if self.tridiag:
                    self._solvers[aii] = (
                        np.diag(shifted, -1).copy(),
                        np.diag(shifted).copy(),
                        np.diag(shifted, 1).copy(),
                    )
                else:
                    self._solvers[aii] = np.linalg.inv(shifted)

    def _stage_solve(self, aii, rhs):
        solver = self._solvers[aii]
        if self.tridiag:
            dl, d, du = solver
            return _thomas(dl, d, du, rhs)
        return rhs @ solver.T

    def __call__(self, u):
        """Advance state(s) u of shape (..., M) by one step."""
        tab, L, dt = self.tab, self.L, self.dt
        stages = []
        for i in range(tab.s):
            rhs = u.copy()
            for j in range(i):
                aij = tab.A[i, j]
                if aij != 0.0:
                    rhs = rhs - dt * aij * (stages[j] @ L.T)
            aii = tab.A[i, i]
            stages.append(self._stage_solve(aii, rhs) if aii != 0.0 else rhs)
        out = u.copy()
        for i in range(tab.s):
            if tab.b[i] != 0.0:
                out = out - dt * tab.b[i] * (stages[i] @ L.T)
        return out


def _stepper(tab: ButcherTableau, problem: ModelProblem, dt: float,
             path: str):
    """One step of size dt, as a callable on states of shape (..., width).

    Diagonal path: elementwise multiplication by lam(dt * xi_j).  Matrix
    path: DIRK stage solves against the problem's matrix realization.
    """
    if path == "diagonal":
        return partial(np.multiply,
                       stability_eval_batch(tab, dt * problem.eigenvalues))
    if problem.matrix is None:
        raise SolveError("matrix path requires a matrix realization")
    return _MatrixStepper(tab, problem.matrix, dt)


def step(tab: ButcherTableau, problem: ModelProblem, dt: float, u,
         path: str = "diagonal"):
    """Advance the state vector u by one step of size dt."""
    return _stepper(tab, problem, dt, path)(np.asarray(u))


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class _Engine:
    """Per-level steppers plus the MGRIT cycle machinery.

    Relaxation and residual are built from one primitive, `_advance`, which
    steps a whole stride of points at once.
    """

    def __init__(self, run: MgritRun):
        self.run = run
        hier = run.hierarchy
        self.k = hier.k
        self.levels = hier.levels
        self.n_points = [hier.points(l) for l in range(hier.levels)]
        if self.n_points[-1] < 1:
            raise ValueError("coarsest level has no intervals")
        if run.path == "diagonal":
            self.width = run.problem.eigenvalues.size
            self.dtype = complex
        else:
            self.width = run.problem.matrix.shape[0]
            self.dtype = float
            if hier.coarse == EXACT_COARSE:
                raise SolveError("exact coarse propagator is diagonal-path only")
        fine = [_stepper(tab, run.problem, frac * hier.h_t, run.path)
                for tab, frac in hier.fine.steps]
        self.steppers = [fine]
        for l in range(1, hier.levels):
            if hier.coarse == EXACT_COARSE:
                coarse = partial(np.multiply,
                                 np.prod([s.args[0] for s in fine], axis=0))
            else:
                coarse = _stepper(hier.coarse, run.problem, hier.dt(l),
                                  run.path)
            self.steppers.append([coarse] * self.k)

    # -- grid operations ----------------------------------------------------

    def zeros(self, level):
        return np.zeros((self.n_points[level] + 1, self.width), self.dtype)

    def _advance(self, u, level, j, theta):
        """Scaled step from points j-1::k to j::k (theta on coarse levels)."""
        nc = self.n_points[level] // self.k
        scale = theta if level >= 1 else 1.0
        return scale * self.steppers[level][j - 1](u[j - 1::self.k][:nc])

    def relax(self, u, g, level, kind, theta=1.0):
        """Relax u in place: an F sweep runs strides 1..k-1, a C sweep k."""
        k = self.k
        f = list(range(1, k))
        for j in {RELAX_F: f, RELAX_FC: f + [k], RELAX_FCF: f + [k] + f}[kind]:
            u[j::k] = self._advance(u, level, j, theta) + g[j::k]
            if j == k:
                u[0] = g[0]
        return u

    def residual(self, u, g, level, theta=1.0):
        """Residual g - A u on the C-points, index 0 included.

        This is the coarse right-hand side.  F-relaxation zeroes the F-point
        residual (exactly where g is 0), so after a cycle the C-point norm is
        the full residual norm.
        """
        k = self.k
        r = np.empty_like(u[::k])
        r[0] = g[0] - u[0]
        r[1:] = g[k::k] - u[k::k] + self._advance(u, level, k, theta)
        return r

    def seq_solve(self, g, level, theta=1.0):
        """Exact solve by sequential time stepping (the coarsest level)."""
        steps = self.steppers[level]
        u = np.empty_like(g)
        u[0] = g[0]
        for n in range(1, g.shape[0]):
            u[n] = theta * steps[(n - 1) % self.k](u[n - 1]) + g[n]
        return u

    def vcycle(self, u, g, level, theta=1.0):
        """One V-cycle: relax, coarse-grid correction, ideal interpolation."""
        u = self.relax(u, g, level, self.run.relaxation, theta)
        gc = self.residual(u, g, level, theta)
        if level + 1 == self.levels - 1:
            e = self.seq_solve(gc, level + 1, theta)
        else:
            e = self.vcycle(np.zeros_like(gc), gc, level + 1, theta)
        u[::self.k] += e
        return self.relax(u, g, level, RELAX_F, theta)

    # -- initial error ------------------------------------------------------

    def initial_state(self, seed):
        run = self.run
        rng = np.random.default_rng(seed)
        shape = (self.n_points[0] + 1, self.width)
        u = rng.standard_normal(shape).astype(self.dtype)
        if self.dtype is complex and np.any(run.problem.eigenvalues.imag != 0):
            u = u + 1j * rng.standard_normal(shape)
        # the time-zero value is the known initial condition, not an unknown;
        # error is seeded on t >= 1 (exactness counts assume this)
        u[0] = 0.0
        spec = run.initial_error
        if isinstance(spec, tuple) and spec and spec[0] == "worst_mode":
            if run.path != "diagonal":
                raise ValueError("worst_mode seeding is diagonal-path only")
            w_star = float(spec[1])
            mags = np.abs(run.hierarchy.h_t * run.problem.eigenvalues)
            j = int(np.argmin(np.abs(mags - w_star)))
            mask = np.zeros(self.width)
            mask[j] = 1.0
            u = u * mask
        elif spec != "random_seeded":
            raise ValueError(f"unknown initial_error {spec!r}")
        return u


# ---------------------------------------------------------------------------
# Public driver operations
# ---------------------------------------------------------------------------

class RhoResult(NamedTuple):
    rho: float
    history: tuple
    converged: bool


def iterate(run: MgritRun, u0=None, engine: _Engine | None = None,
            seed: int | None = None):
    """Drive V-cycles on the homogeneous problem; returns residual history.

    Stops when the residual drops below tol * ||r0|| or grows past 1e6 * ||r0||
    (divergence).  theta_schedule entries apply per iteration, cyclically.
    """
    eng = engine if engine is not None else _Engine(run)
    if u0 is None:
        u = eng.initial_state(run.seed if seed is None else seed)
    else:
        u = np.array(u0, eng.dtype)
    g = eng.zeros(0)
    # the initial state is unrelaxed, so its residual is taken on every point;
    # each cycle ends with F-relaxation, so later norms need the C-points only
    k = eng.k
    r_f = [g[j::k] - u[j::k] + eng._advance(u, 0, j, 1.0) for j in range(1, k)]
    r0 = float(np.linalg.norm(np.concatenate([eng.residual(u, g, 0), *r_f])))
    history = [r0]
    if r0 == 0.0:
        return history, u
    for it in range(run.max_iters):
        theta = (1.0 if run.theta_schedule is None
                 else run.theta_schedule[it % len(run.theta_schedule)])
        u = eng.vcycle(u, g, 0, theta)
        rn = float(np.linalg.norm(eng.residual(u, g, 0)))
        history.append(rn)
        if not math.isfinite(rn) or rn > 1e6 * r0:
            break
        if rn <= run.tol * r0:
            break
    return history, u


def _rho_from_history(history, n_exact) -> float:
    ratios = []
    for m in range(2, len(history)):
        if history[m - 1] == 0.0:
            continue
        if m > n_exact - 2:
            break
        ratios.append(history[m] / history[m - 1])
    if not ratios:
        for m in range(1, len(history)):
            if history[m - 1] > 0.0:
                ratios.append(history[m] / history[m - 1])
    return max(ratios) if ratios else float("nan")


def measure_rho(run: MgritRun, seeds: int = 1) -> RhoResult:
    """Measured convergence factor: worst successive residual ratio.

    Ratios start at iteration 2 and ratios within two iterations of the
    exactness point (N_c for F-relaxation, ceil(N_c/2) for FCF) are excluded.
    With seeds > 1 the maximum rho over `seeds` random initial errors is
    reported (worst-case factors need worst-case error components excited).
    """
    eng = _Engine(run)
    nc1 = run.hierarchy.points(1)
    n_exact = nc1 if run.relaxation in (RELAX_F, RELAX_FC) else (nc1 + 1) // 2
    best = None
    all_converged = True
    for i in range(max(1, seeds)):
        history, _ = iterate(run, engine=eng, seed=run.seed + i)
        rho = _rho_from_history(history, n_exact)
        converged = history[-1] <= run.tol * history[0]
        diverged = (not math.isfinite(history[-1])
                    or history[-1] > 1e6 * history[0])
        if diverged:
            converged = False
        all_converged = all_converged and converged
        if best is None or (rho == rho and rho > best[0]):
            best = (rho, tuple(history))
    return RhoResult(best[0], best[1], all_converged)


def error_propagation_matrices(run: MgritRun):
    """Per-mode dense error propagators restricted to C-points 1..Nc.

    Column c-1 is the C-point error after one cycle starting from a unit
    error at C-point c (F-point values do not influence the result).  All
    modes are probed simultaneously; diagonal path only.
    """
    if run.path != "diagonal":
        raise ValueError("dense probing is diagonal-path only")
    eng = _Engine(run)
    k = run.hierarchy.k
    nc = run.hierarchy.points(1)
    m = eng.width
    E = np.zeros((m, nc, nc), complex)
    g = eng.zeros(0)
    for c in range(1, nc + 1):
        u = eng.zeros(0)
        u[c * k, :] = 1.0
        u = eng.vcycle(u, g, 0)
        E[:, :, c - 1] = u[k::k].T
    return [E[j] for j in range(m)]


def error_propagation_norm(run: MgritRun) -> float:
    """Spectral norm of the full error propagator = max per-mode 2-norm."""
    return max(np.linalg.norm(E, 2) for E in error_propagation_matrices(run))


def run_to_csv(result: RhoResult, fileobj, header_lines=()) -> None:
    write_csv(fileobj, header_lines, ("iter", "residual_norm"),
              ((i, float(r)) for i, r in enumerate(result.history)),
              [("rho", float(result.rho)),
               ("converged", bool(result.converged)),
               ("iters", len(result.history) - 1)])
