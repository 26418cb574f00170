"""Linear Parareal / two-level / multilevel MGRIT solver over a time grid.

The solver runs on the homogeneous problem (zero right-hand side, random
initial error), so the recorded residual history is exactly the image of the
error under the iteration and the measured convergence factor is
forcing-independent.  Two state representations are supported: a diagonal
path (eigenmode coefficients, any scheme) and a matrix path (physical
unknowns, explicit and DIRK schemes).  The diagonal path runs in float64
when the spectrum is real and in complex128 otherwise; a complex initial
state given to `iterate` promotes the run to complex.  The matrix path is
float64 and steps with each scheme's dense one-step matrix.  Both paths
share one coarsest-level solve, an in-place odd-even (cyclic) reduction
that steps grids of at most 32 rows one row at a time.

Every level runs its V-cycle on its C-points: an F-relaxed F-point is its
C-point stepped forward with the right-hand side added on the way, so the
F sweeps disappear from the cycle.  A coarse level's correction goes
straight into the C-points of the level above: its closing F sweep adds
each F-point to them as it is made, and no full grid is built.  Only the
state `iterate` returns is rebuilt as a full grid (`measure_rho`, which
reads only the residual histories, skips it).  Every coarse level cycles
from zero C-points without touching the zeros: its interval products start
from the right-hand side, its F residual is their C sweep, and its C-points
are the correction from below.  F- and FCF-relaxation are supported.

A level is nothing more than its list of k step factors, one factor taken
k times: level 0's is the fine step and every coarse level's its coarse
step, all finite (an engine with any other is rejected when it is made).
The theta-Parareal weight rescales the coarse propagator (G -> theta G),
so it is folded into every coarse factor (theta a), once per distinct
theta; the cycle itself applies no weight.

Level 0 cycles in a workspace of two C-point grids and a quarter: the
C-points c, one buffer b whose rows 1.. hold the interval products until an
F-relaxation residual is written over them (elementwise, so the bits are
those of a separate residual), and the coarsest solve's scratch, which the
in-place odd-even reduction steps through a block at a time.  Under FCF the
cycle reads the products instead, and `measure_rho`, which never reads the
final state, writes the residual over the C-points that the C sweep
replaces.  `measure_rho` measures a list of runs seed by seed, draws each
seed's initial error once per distinct grid (so a sweep over k draws once
per seed), and, when the process may use a second CPU, runs the runs whose
coarse grid has at most half the C-points of the largest on a worker
thread, in a second workspace, while the calling thread runs the others;
`iterate` reads the drawn state without copying or writing it.  Every
run's cycles take numpy's ufunc buffers at 1,024 elements, on either
thread: strided steps and adds run faster than at numpy's 8,192.

The diagonal path's cycles call no BLAS: residual norms sum their squares
in einsum's own loop (`_norm`), so the histories, and every rho from
them, have the same bits under any BLAS thread count.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._csv import write_csv
from .bounds import RELAX_F, RELAX_FCF, RELAXATIONS
from .butcher import ButcherTableau, PoleError, stability_eval_batch
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


class SolveError(RuntimeError):
    """A stage system could not be solved on the requested path."""


@dataclass(frozen=True)
class TimeHierarchy:
    """Time-grid hierarchy: N fine steps of size h_t, coarsened by k per level.

    Level 0 advances with the tableau `fine` at step h_t, k steps per
    coarse interval; every level >= 1 advances with `coarse` at step
    k^level * h_t.  `coarse` may be the EXACT_COARSE sentinel (two-level
    only, diagonal path only), which uses the exact k-fold fine factor as
    the coarse propagator.
    """

    N: int
    h_t: float
    k: int
    levels: int = 2
    fine: ButcherTableau = None
    coarse: object = None     # ButcherTableau or EXACT_COARSE

    def __post_init__(self):
        if not 0.0 < self.h_t < math.inf:
            raise ValueError(
                f"h_t must be finite and positive, got {self.h_t!r}")
        if self.levels < 2:
            raise ValueError(f"need at least two levels, got {self.levels}")
        if self.k < 2:
            raise ValueError(f"coarsening factor k must be >= 2, got {self.k}")
        if self.N % self.k ** (self.levels - 1) != 0:
            raise ValueError(
                f"N={self.N} not divisible by k**(levels-1)="
                f"{self.k}**{self.levels - 1}={self.k ** (self.levels - 1)}")
        if not isinstance(self.fine, ButcherTableau):
            raise TypeError("fine must be a ButcherTableau, got "
                            f"{type(self.fine).__name__}")
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
    """A configured solve: hierarchy + problem + relaxation + seed."""

    hierarchy: TimeHierarchy
    problem: ModelProblem
    relaxation: str = RELAX_F
    theta_schedule: tuple | None = None
    seed: int = 0
    tol: float = 1e-13        # relative to the initial residual norm
    max_iters: int = 100
    path: str = "diagonal"    # or "matrix"

    def __post_init__(self):
        if self.relaxation not in RELAXATIONS:
            raise ValueError(f"unknown relaxation {self.relaxation!r}")
        if self.theta_schedule is not None:
            object.__setattr__(self, "theta_schedule",
                               tuple(float(t) for t in self.theta_schedule))
            if not self.theta_schedule:
                raise ValueError("theta_schedule needs at least one weight")
            bad = [t for t in self.theta_schedule if not math.isfinite(t)]
            if bad:
                raise ValueError(f"theta must be finite, got {bad[0]!r}")
            if self.relaxation != RELAX_F:
                raise ValueError("theta weighting requires F-relaxation")
        if not self.tol >= 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.path not in ("diagonal", "matrix"):
            raise ValueError(f"unknown path {self.path!r}")
        if self.path == "matrix" and self.problem.matrix is None:
            raise ValueError("matrix path requires a matrix realization")


# ---------------------------------------------------------------------------
# Stepping kernels
# ---------------------------------------------------------------------------

def _apply(op, x, out=None):
    """One linear step of the rows of x: times a diagonal factor, or @ a
    dense one."""
    if op.ndim == 2:
        return np.matmul(x, op, out=out)
    return np.multiply(op, x, out=out)


def _factor(tab: ButcherTableau, problem: ModelProblem, dt: float,
            path: str):
    """One step of size dt as the linear factor `_apply` takes.

    Diagonal path: lam(dt * xi_j), kept real for a real spectrum (its
    imaginary parts are exactly 0).  Matrix path: the dense S^T with
    u_next = u @ S^T for row states u, from the DIRK stage formulas run on
    the identity; fully implicit tableaux are unsupported there.
    """
    if path == "diagonal":
        # a step far outside the stability region overflows (or divides inf
        # by inf) to a factor that is not finite, which `_Engine` rejects;
        # so does a dt * xi that overflows, where lam would read lam(inf)
        with np.errstate(over="ignore", invalid="ignore"):
            w = dt * problem.eigenvalues
            if not np.isfinite(w).all():
                raise ValueError(f"dt * xi overflows at dt = {dt:g}")
            lam = stability_eval_batch(tab, w)
        return (lam if np.any(problem.eigenvalues.imag)
                else np.ascontiguousarray(lam.real))
    if problem.matrix is None:
        raise SolveError("matrix path requires a matrix realization")
    if np.any(np.abs(np.triu(tab.A, 1)) > 0):
        raise SolveError(
            f"{tab.name}: fully implicit stages unsupported on the matrix path")
    eye = np.eye(problem.matrix.shape[0])
    hlt = dt * problem.matrix.T
    stages = []                     # stage values times dt L^T
    for i in range(tab.s):
        y = eye - sum(a * ks for a, ks in zip(tab.A[i], stages))
        if tab.A[i, i] != 0.0:
            y = y @ np.linalg.inv(eye + tab.A[i, i] * hlt)
        stages.append(y @ hlt)
    return eye - sum(b * ks for b, ks in zip(tab.b, stages))


def step(tab: ButcherTableau, problem: ModelProblem, dt: float, u,
         path: str = "diagonal"):
    """Advance the state vector u by one step of size dt."""
    return _apply(_factor(tab, problem, dt, path), np.asarray(u))


_LOOP_ROWS = 32     # grids this short solve faster row by row

# numpy's ufunc buffer size, in elements, for the MGRIT cycles.  Strided
# in-place adds such as g[1::2] += x run about twice as fast as at numpy's
# default 8,192 (1024 x 82 rows: 57-61 us against 111-114 us on a 2-core
# x86_64 host), and a worker thread's buffers, which come from its own
# malloc arena, stay small.  Buffer sizes move no bit.
_BUFSIZE = 1024


def _scan(u, a, buf=None):
    """Solve u_n += a u_{n-1}, n >= 1, in place by odd-even reduction.

    The even rows' steps are added to the odd rows, which then satisfy the
    same recurrence with factor a∘a; once they are solved, the odd rows are
    stepped into the even ones.  `buf` is scratch that every level reuses,
    allocated here when not given; the steps go through it len(buf) rows at
    a time, so it may be shorter than the len(u) // 2 rows of one pass
    without changing a bit.  Grids of at most _LOOP_ROWS rows are stepped
    row by row.
    """
    if len(u) <= _LOOP_ROWS:
        for prev, cur in zip(u, u[1:]):
            cur += _apply(a, prev)
        return u
    if buf is None:
        buf = np.empty_like(u[1::2])
    _add_steps(u[1::2], a, u[:-1:2], buf)
    _scan(u[1::2], _apply(a, a), buf)
    _add_steps(u[2::2], a, u[1:-1:2], buf)
    return u


def _add_steps(x, a, y, buf):
    """x += (y stepped by a), row for row, len(buf) rows at a time."""
    n = len(buf)
    for i in range(0, len(x), n):
        x[i:i + n] += _apply(a, y[i:i + n], buf[:len(y[i:i + n])])


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

class _Engine:
    """The MGRIT cycle machinery over levels that are each one step factor
    listed k times: `ops(theta)` lists them from the finest level down, and
    the cycle takes that list from its own level down.

    Every level runs its cycle on its C-points (`cycle`); an F sweep
    (`f_sweep`) adds a coarse correction into the C-points above, or
    rebuilds the full grid `iterate` returns.  Grid sizes come from the
    arrays.
    """

    def __init__(self, run: MgritRun):
        self.run = run
        hier = run.hierarchy
        self.k = hier.k
        if hier.points(hier.levels - 1) < 1:
            raise ValueError("coarsest level has no intervals")
        # a matrix realization is n_modes square (ModelProblem checks it)
        self.width = run.problem.n_modes
        self.dtype = (complex if run.path == "diagonal"
                      and np.any(run.problem.eigenvalues.imag) else float)
        if run.path == "matrix" and hier.coarse == EXACT_COARSE:
            raise SolveError("exact coarse propagator is diagonal-path only")
        # every factor a cycle can step with, theta-scaled ones included, is
        # made here; a pole, or a sum or product that overflows, is rejected
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                fine = _factor(hier.fine, run.problem, hier.h_t, run.path)
                coarse = [np.prod([fine] * self.k, axis=0)
                          if hier.coarse == EXACT_COARSE
                          else _factor(hier.coarse, run.problem, hier.dt(l),
                                       run.path)
                          for l in range(1, hier.levels)]
                self._ops = {1.0: [[a] * self.k for a in (fine, *coarse)]}
                if all(np.isfinite(level[0]).all()
                       for theta in {1.0, *(run.theta_schedule or ())}
                       for level in self.ops(theta)):
                    return
        except (PoleError, ValueError):
            pass
        raise ValueError("step factors are not finite on some level: h_t, "
                         "theta or the spectrum is too large")

    def ops(self, theta):
        """Every level's factor list, theta folded into each coarse factor
        (theta a); built once per distinct theta, and theta = 1 is the
        unscaled factors themselves."""
        if theta not in self._ops:
            fine, *coarse = self._ops[1.0]
            self._ops[theta] = [fine] + [[theta * level[0]] * self.k
                                         for level in coarse]
        return self._ops[theta]

    # -- grid operations ----------------------------------------------------

    def f_sweep(self, c, factors, g=None, into=None):
        """The full grid with C-points c whose F-points are F-relaxed by the
        level's factors: u_j = a_j u_{j-1} + g_j, strides 1..k-1.  Added
        into `into`, a grid of that shape, when given (a coarse correction
        goes straight into the C-points above), else a new grid."""
        k = self.k
        new = into is None
        if new:
            into = np.empty(((len(c) - 1) * k + 1,) + c.shape[1:], c.dtype)
            into[::k] = c
        else:
            into[::k] += c
        x = c[:-1]
        for j, op in enumerate(factors[:-1], 1):
            out = into[j::k] if new else (x if j > 1 else None)
            x = _apply(op, x, out)
            if g is not None:
                x += g[j::k]
            if not new:
                into[j::k] += x
        return into

    def interval_step(self, c, factors, g=None, out=None):
        """C-points 0..Nc-1 stepped across their coarse intervals through
        the level's factors in order, with each F-point's g added on the
        way: the products the F sweep and the residual make.  Written into
        `out` when given.

        c None steps zero C-points (g given): a_1 0 + g_1 is exactly g's
        first F-points, since every factor is finite.
        """
        k = self.k
        x, first = (g[1::k], 2) if c is None else (c[:-1], 1)
        for j, op in enumerate(factors[first - 1:], first):
            x = _apply(op, x, out if j == first else x)
            if g is not None and j < k:
                x += g[j::k]
        return x

    def _c_sweep(self, c, t, g=None):
        """C-relax the C-points c in place from their interval products t:
        c_0 = g_0 and c_n = t_{n-1} + g_nk.  t may be c[1:] itself."""
        c[0] = 0.0 if g is None else g[0]
        if g is None:
            c[1:] = t
        else:
            np.add(t, g[self.k::self.k], out=c[1:])
        return c

    def residual(self, c, t, g=None, out=None):
        """Residual g - A u on the C-points c, index 0 included, with the
        F-points F-relaxed and t = interval_step(c, ...).  Written into
        `out` when given, which must not share memory with c, t or g; but
        with g None every row is written from the same rows of c and t, so
        out may be c itself, or out[1:] may be t itself (level 0 keeps its
        products and its residual in one buffer).

        This is the coarse right-hand side.  F-relaxation zeroes the F-point
        residual, so it is the full residual.
        """
        r = np.empty_like(c) if out is None else out
        r[0] = -c[0] if g is None else g[0] - c[0]
        if g is None:
            np.subtract(t, c[1:], out=r[1:])
        else:
            np.subtract(c[1:], g[self.k::self.k], out=r[1:])
            np.subtract(t, r[1:], out=r[1:])
        return r

    def correction(self, g, ops, buf=None, into=None):
        """Coarse-grid error on a level's full grid for right-hand side g,
        ops the factor lists from that level down, added into `into` (a
        grid of g's shape) when given and else returned: the exact solve of
        u_n = a u_{n-1} + g_n on the coarsest level, in place (g is always
        a residual its caller never reads again; see `_scan`, which takes
        `buf` as its scratch), one cycle from zero above it.

        The cycle from zero does no work on the zeros.  Its interval
        products are `interval_step(None, ...)`; under F its residual is
        their C sweep (g_0, t + g_k::k, which rounds as t - (0 - g) does),
        and its C-points are the correction below; under FCF the C sweep
        starts the cycle.  The closing F sweep goes into `into`.
        """
        if len(ops) == 1:
            e = _scan(g, ops[0][0], buf)
            if into is None:
                return e
            into += e
            return into
        if self.run.relaxation == RELAX_F:
            r = np.empty_like(g[::self.k])
            self._c_sweep(r, self.interval_step(None, ops[0], g, out=r[1:]),
                          g)
            c = self.correction(r, ops[1:], buf)
        else:
            c = np.empty_like(g[::self.k])
            self.cycle(c, self.interval_step(None, ops[0], g), None, ops, g,
                       buf)
        return self.f_sweep(c, ops[0], g, into)

    def cycle(self, c, t, r, ops, g=None, buf=None):
        """One V-cycle on the C-points c of the level whose factor lists
        from there down are ops, in place; `buf` is the coarsest solve's
        scratch (see `correction`).

        The F-points are implied F-relaxed from c, so the leading F sweep
        has nothing to do: t = interval_step(c, ops[0], g) and, under
        F-relaxation, r = residual(c, t, g).  Under FCF the C sweep moves c
        and its residual is taken afresh, so c and r are not read; t and r
        (when given) are overwritten.  Either way r is consumed: the
        coarsest solve may overwrite it.
        """
        if self.run.relaxation == RELAX_FCF:
            self._c_sweep(c, t, g)
            # reusing t and r keeps the live temporaries per level at c, t, r
            t = self.interval_step(c, ops[0], g, out=t)
            r = self.residual(c, t, g, out=r)
        self.correction(r, ops[1:], buf, into=c)

    # -- initial error ------------------------------------------------------

    def initial_state(self, seed):
        rng = np.random.default_rng(seed)
        shape = (self.run.hierarchy.N + 1, self.width)
        u = rng.standard_normal(shape)
        if self.dtype is complex:
            u = u + 1j * rng.standard_normal(shape)
        # the time-zero value is the known initial condition, not an unknown;
        # error is seeded on t >= 1 (exactness counts assume this)
        u[0] = 0.0
        return u


# ---------------------------------------------------------------------------
# Public driver operations
# ---------------------------------------------------------------------------

class RhoResult(NamedTuple):
    rho: float
    history: tuple
    converged: bool


def iterate(run: MgritRun, u0=None):
    """Drive V-cycles on the homogeneous problem; returns residual history.

    Starts from u0 when given (read only, never written or returned) and
    else from the run's seeded initial error.  Stops when the residual
    drops below tol * ||r0|| or grows past 1e6 * ||r0|| (divergence).
    theta_schedule entries apply per iteration, cyclically.
    """
    eng = _Engine(run)
    history, c = _cycles(run, eng, u0 if u0 is not None
                         else eng.initial_state(run.seed))
    if history[0] == 0.0:
        return history, c
    with np.errstate(over="ignore", invalid="ignore"):
        return history, eng.f_sweep(c, eng.ops(1.0)[0])


def _cycles(run: MgritRun, eng: _Engine, u0, work=None):
    """`iterate`'s residual history and final state: the full grid's copy
    when r0 = 0, else the C-points only (no closing F sweep).

    Given `work`, a `_workspace` that fits the run, the cycles run in its
    buffers and the history alone is returned (the state is None): under
    FCF the last residual is written over the state, which the C sweep
    would overwrite anyway.

    The cycles run in `_cycle_numerics` on whichever thread runs them.
    """
    u = np.asarray(u0, np.result_type(eng.dtype, np.asarray(u0)))
    del u0
    # the initial state is unrelaxed, so its residual is taken on every point;
    # an F sweep overwrites every F-point, so the cycles keep the C-points.
    # Every cycle writes its interval products into t = b[1:]; the cycle
    # reads them only under FCF and the residual only under F, so an F
    # residual overwrites them in b and an FCF residual goes to r.  s is
    # the coarsest solve's scratch.  A divergent run overflows; the
    # history check below reports it.
    k = eng.k
    fine = eng.ops(1.0)[0]
    grid = (u[::k].shape, u.dtype)
    c, b, s = _views(_workspace([grid]) if work is None else work, *grid)
    t = b[1:]
    fcf = run.relaxation == RELAX_FCF
    if not fcf:
        r = b
    elif work is None:
        r = np.empty_like(c)        # the state is returned
    else:
        r = c                       # the next C sweep replaces it
    with _cycle_numerics():
        c_norm = _norm(eng.residual(
            u[::k], _apply(fine[-1], u[k - 1::k], t), out=b))
        f_norms = [_norm(np.subtract(
            _apply(op, u[j - 1::k][:len(t)], t), u[j::k], out=t))
            for j, op in enumerate(fine[:-1], 1)]
        r0 = math.hypot(c_norm, *f_norms)
        history = [r0]
        if r0 == 0.0:
            return history, u.copy() if work is None else None
        np.copyto(c, u[::k])
        del u
        eng.interval_step(c, fine, out=t)
        if not fcf:
            eng.residual(c, t, out=b)
        for it in range(run.max_iters):
            theta = (1.0 if run.theta_schedule is None
                     else run.theta_schedule[it % len(run.theta_schedule)])
            eng.cycle(c, t, b, eng.ops(theta), buf=s)
            eng.interval_step(c, fine, out=t)
            rn = _norm(eng.residual(c, t, out=r))
            history.append(rn)
            if not math.isfinite(rn) or rn > 1e6 * r0:
                break
            if rn <= run.tol * r0:
                break
        return history, c if work is None else None


def _norm(r):
    """The 2-norm of the contiguous grid r, a complex one taken as its
    float pairs.  einsum sums the squares in its own loop, in one order
    under any thread count; np.linalg.norm's BLAS dot splits the sum over
    BLAS's threads."""
    x = r.reshape(-1)
    if x.dtype.kind == "c":
        x = x.view(x.real.dtype)
    return math.sqrt(np.einsum("i,i->", x, x))


@contextlib.contextmanager
def _cycle_numerics():
    """numpy's state for the MGRIT cycles: overflow and invalid results
    pass silently (a divergent run overflows, and its history reports it),
    and ufunc buffers hold _BUFSIZE elements.  The thread's state is
    restored on exit."""
    size = np.setbufsize(_BUFSIZE)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    finally:
        np.setbufsize(size)


def _workspace(grids):
    """Level 0's buffers for runs whose C-point grids are `grids`, (shape,
    dtype) pairs, sized for the largest: the C-points c, the interval
    products and residual b, and the coarsest solve's scratch s of a
    quarter grid, as flat bytes that `_views` shapes."""
    nbytes = [[math.prod(part) * np.dtype(dtype).itemsize
               for part in _parts(shape)] for shape, dtype in grids]
    return tuple(np.empty(max(col), np.uint8) for col in zip(*nbytes))


def _parts(shape):
    """The shapes of c, b and s for a C-point grid of `shape`."""
    return shape, shape, (shape[0] // 4,) + shape[1:]


def _views(work, shape, dtype):
    """c, b and s of one run: views of the first bytes of `work`."""
    dtype = np.dtype(dtype)
    return tuple(buf[:math.prod(part) * dtype.itemsize].view(dtype)
                 .reshape(part) for buf, part in zip(work, _parts(shape)))


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


def measure_rho(runs, seeds: int = 1) -> list:
    """Measured convergence factor of each run in `runs`: one RhoResult per
    run, the worst successive residual ratio.

    Ratios start at iteration 2 and ratios within two iterations of the
    exactness point (N_c for F-relaxation, ceil(N_c/2) for FCF) are excluded.
    With seeds > 1 each run reports the maximum rho over the random initial
    errors of seeds run.seed .. run.seed + seeds - 1 (worst-case factors need
    worst-case error components excited).  The seeds are the outer loop: a
    seed's random initial errors are all drawn on this thread before its
    runs start, once for all runs whose draw is the same (`_initial_state`),
    so a sweep over k on one time grid draws once per seed.

    When the process may use a second CPU (`_spare_cpu`), a seed's runs go
    in two lanes (`_lanes`): the runs whose coarse grid has at most half
    the C-points of the largest run's cycle on a worker thread while this
    thread cycles the others.  Each lane's runs take their level-0
    buffers from one `_workspace` sized for the lane's largest run; without
    a spare CPU every run cycles here, in run order, in one workspace.
    Every run's arithmetic is the same as alone, so the results do not
    depend on the lanes, nor on BLAS's thread count (`_norm`).  Engines
    are made on this thread, the worker is joined before the next seed's
    draws, and the first exception in run order is raised after the join.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    runs = list(runs)
    if not runs:
        return []
    engines = [_Engine(run) for run in runs]
    grids = [((run.hierarchy.points(1) + 1, eng.width), eng.dtype)
             for run, eng in zip(runs, engines)]
    main, side = _lanes(runs)
    if side and _spare_cpu():
        lanes = [(lane, _workspace([grids[j] for j in lane]))
                 for lane in (main, side)]
    else:
        lanes = [(range(len(runs)), _workspace(grids))]
    best = [None] * len(runs)
    all_converged = [True] * len(runs)
    for i in range(seeds):
        drawn = {}          # this seed's random draws
        states = [_initial_state(run, eng, run.seed + i, drawn)
                  for run, eng in zip(runs, engines)]
        histories = _run_lanes(lanes, runs, engines, states)
        del drawn, states
        for j, (run, history) in enumerate(zip(runs, histories)):
            nc1 = run.hierarchy.points(1)
            n_exact = nc1 if run.relaxation == RELAX_F else (nc1 + 1) // 2
            rho = _rho_from_history(history, n_exact)
            # a run that ends past 1e6 r0, or at inf or NaN, diverged
            converged = history[-1] <= min(run.tol, 1e6) * history[0]
            all_converged[j] = all_converged[j] and converged
            if best[j] is None or (rho == rho and rho > best[j][0]):
                best[j] = (rho, tuple(history))
    return [RhoResult(rho, history, converged)
            for (rho, history), converged in zip(best, all_converged)]


def _initial_state(run, eng, seed, drawn):
    """The run's random initial error for `seed`, kept in `drawn` for every
    run that draws the same (grid rows, width, dtype and seed)."""
    draw = (run.hierarchy.N, eng.width, eng.dtype, seed)
    if draw not in drawn:
        drawn[draw] = eng.initial_state(seed)
    return drawn[draw]


def _lanes(runs):
    """The run indices of the main lane and of the side lane, each in run
    order: the side lane takes every run whose coarse grid has at most half
    the C-points of the largest run's (N_c <= N_c,max / 2)."""
    nc = [run.hierarchy.points(1) for run in runs]
    top = max(nc, default=0)
    return ([j for j, n in enumerate(nc) if 2 * n > top],
            [j for j, n in enumerate(nc) if 2 * n <= top])


def _spare_cpu() -> bool:
    """Whether the side lane gets a CPU of its own: this process may use
    more than one."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return cpus > 1


def _run_lanes(lanes, runs, engines, states):
    """Every run's residual history, run j from its initial error
    states[j]: the first lane's runs in order on this thread and the
    second lane's, if there is one, in order on a worker thread.

    Only `_cycles` runs on the worker.  A lane stops at its first failing
    run; after the join the first exception in run order is raised.
    """
    histories = [None] * len(runs)
    halt = []       # set when this thread is interrupted: the worker stops

    def lane(jobs, work):
        for j in jobs:
            if halt:
                return
            try:
                histories[j] = _cycles(runs[j], engines[j], states[j],
                                       work)[0]
            except Exception as exc:
                histories[j] = exc
                return

    first, *side = lanes
    worker = None
    if side:
        # the caller's context (numpy's error state) goes with the worker
        worker = threading.Thread(target=contextvars.copy_context().run,
                                  args=(lane, *side[0]))
        worker.start()
    try:
        lane(*first)
    except BaseException:
        halt.append(True)
        raise
    finally:
        if worker is not None:
            worker.join()
    for history in histories:
        if isinstance(history, Exception):
            raise history
    return histories


def error_propagation_matrices(run: MgritRun):
    """Per-mode dense error propagators restricted to C-points 1..Nc.

    Column c-1 is the C-point error after one cycle starting from a unit
    error at C-point c (F-point values do not influence the result).  All
    modes are probed simultaneously; diagonal path only.
    """
    if run.path != "diagonal":
        raise ValueError("dense probing is diagonal-path only")
    eng = _Engine(run)
    nc = run.hierarchy.points(1)
    m = eng.width
    E = np.zeros((m, nc, nc), eng.dtype)
    ops = eng.ops(1.0)
    for c in range(1, nc + 1):
        x = np.zeros((nc + 1, m), eng.dtype)
        x[c, :] = 1.0
        t = eng.interval_step(x, ops[0])
        eng.cycle(x, t, eng.residual(x, t), ops)
        E[:, :, c - 1] = x[1:].T
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
