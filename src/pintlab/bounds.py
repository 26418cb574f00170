"""Two-grid convergence bounds for Parareal/MGRIT as functions of w = dt*xi.

For a fine propagator with per-interval factor lam(w)^k and a coarse
propagator with factor mu(w) = lam_coarse(k*w), the worst-case two-level
convergence over a spectrum is a sup over w of

    phi_F   = |mu - lam^k| / D,      phi_FCF = |lam^k| * phi_F,

where D is either the plain 1 - |mu| ("simple") or the N_c-aware
sqrt((1-|mu|)^2 + pi^2 |mu| / (C*Nc^2)) with C = 1 (lower) / C = 6 (upper);
under FCF the tight kinds take Nc - 1 in place of Nc.
A scalar weight theta rescales the coarse propagator (mu -> theta*mu),
which is theta-Parareal.

`bound_values` evaluates first and applies the formula second.  Its
queries are compiled into families (`_Compiled`), a family being one (fine
propagator's distinct steps in order, coarse tableau, axis), whose keys
differ only by the steps' multiplicities, k and theta.  Per family it
evaluates each step and the coarse tableau once over the family's points,
lam^k and mu once per key, then the formula above with each query's kind,
Nc and relaxation.  One call may serve many queries, point by point or
every query at every point.
`sweep` takes one query or a list of them, compiles them once and refines
all of them through the one array sweep engine, `_sweep_many`: one
`bound_values` call of every query on the shared base grid and tail probe,
one per multisection round over the peak brackets of every curve, and one
per round over the threshold's crossing brackets, each on the compiled
queries.  Each curve is the one its query swept alone gives.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from ._csv import write_csv
from .butcher import ButcherTableau, get_scheme, stability_eval_batch

__all__ = [
    "INFINITY",
    "PropagatorSpec",
    "BoundQuery",
    "BoundCurve",
    "bound_values",
    "sweep",
    "sweep_function",
    "max_over_k",
    "two_iteration_product",
    "spectrum_max",
]

INFINITY = math.inf

RELAX_F = "F"
RELAX_FCF = "FCF"
RELAXATIONS = (RELAX_F, RELAX_FCF)
SIMPLE = "simple"
LOWER_TIGHT = "lower_tight"
UPPER_TIGHT = "upper_tight"
REAL_AXIS = "real_positive"
IMAG_AXIS = "imaginary"

# Denominators below this are treated as vanished (limit guard on the real
# axis; never guarded on the imaginary axis).
_DEN_EPS = 1e-13
# Tight kinds tolerate |theta*mu| = 1 (marginally stable coarse propagator,
# e.g. trapezoid on the imaginary axis); beyond this they are unstable too.
_TIGHT_SLACK = 1e-12
# bound_values evaluates at most this many points at once (each under every
# key of a family where every query goes at every point), so its scratch
# memory does not grow with the number of points
_BLOCK = 1024


@dataclass(frozen=True)
class PropagatorSpec:
    """Fine propagator over one coarse interval: ordered (tableau, fraction) steps.

    Fractions are in fine-step units and sum to the coarsening factor k.  The
    uniform case is k identical steps of fraction 1; a mixed spec front-loads
    differently damped schemes (e.g. two strongly damped steps followed by
    k-2 steps of another scheme).
    """

    steps: tuple
    # each distinct (tableau, fraction) step and its multiplicity, in order
    # of first appearance
    distinct: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        steps = tuple((tab, float(frac)) for tab, frac in self.steps)
        if not steps:
            raise ValueError("PropagatorSpec needs at least one step")
        for tab, frac in steps:
            if frac <= 0:
                raise ValueError("step fractions must be positive")
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "distinct", tuple(Counter(steps).items()))

    @classmethod
    def uniform(cls, tab: ButcherTableau, k: int) -> "PropagatorSpec":
        return cls(tuple((tab, 1.0) for _ in range(int(k))))

    @property
    def k(self) -> float:
        return sum(frac for _, frac in self.steps)

    @property
    def is_uniform(self) -> bool:
        first = self.steps[0]
        return all(tab is first[0] and frac == 1.0 for tab, frac in self.steps)


@dataclass(frozen=True)
class BoundQuery:
    """One bound request: propagator pair, relaxation, kind, theta, axis.

    `fine` may be given as a bare tableau, which is expanded to the uniform
    k-step propagator.
    """

    fine: PropagatorSpec
    coarse: ButcherTableau
    k: int
    relaxation: str = RELAX_F
    Nc: float = INFINITY
    bound_kind: str = SIMPLE
    theta: float = 1.0
    axis: str = REAL_AXIS

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("coarsening factor k must be >= 2")
        if isinstance(self.fine, ButcherTableau):
            object.__setattr__(self, "fine", PropagatorSpec.uniform(self.fine, self.k))
        if abs(self.fine.k - self.k) > 1e-9:
            raise ValueError("fine propagator fractions must sum to k")
        if self.relaxation not in RELAXATIONS:
            raise ValueError(f"unknown relaxation {self.relaxation!r}")
        if self.bound_kind not in (SIMPLE, LOWER_TIGHT, UPPER_TIGHT):
            raise ValueError(f"unknown bound kind {self.bound_kind!r}")
        if self.axis not in (REAL_AXIS, IMAG_AXIS):
            raise ValueError(f"unknown axis {self.axis!r}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        if self.theta != 1.0 and self.relaxation != RELAX_F:
            raise ValueError("theta-weighting is defined for F-relaxation only")
        if self.bound_kind in (LOWER_TIGHT, UPPER_TIGHT):
            # FCF's propagator lives on Nc - 1 C-points (see bound_values)
            least = 2 if self.relaxation == RELAX_FCF else 1
            if not (self.Nc == INFINITY or self.Nc >= least):
                raise ValueError(f"Nc must be >= {least} or INFINITY for "
                                 f"{self.relaxation} tight bounds")

    def describe(self) -> str:
        fine = (self.fine.steps[0][0].name if self.fine.is_uniform
                else "+".join(t.name for t, _ in self.fine.steps))
        parts = [f"fine={fine}", f"coarse={self.coarse.name}", f"k={self.k}",
                 f"relax={self.relaxation}", f"kind={self.bound_kind}",
                 f"Nc={'inf' if self.Nc == INFINITY else self.Nc}",
                 f"axis={self.axis}"]
        if self.theta != 1.0:
            parts.append(f"theta={self.theta}")
        return " ".join(parts)


def _int_power(v, n):
    """v ** n for integer n, each element rounded as v ** int(n) rounds it:
    numpy computes x ** 2 by its square shortcut, which rounds differently
    from the general integer power."""
    two = n == 2
    if two.all():
        return v ** 2
    return np.where(two, v ** 2, v ** n) if two.any() else v ** n


class _Batch:
    """A family's queries compiled into arrays, once per _Compiled: once
    per plain bound_values call, once per sweep.

    A family is one (fine propagator's distinct steps in order, coarse
    tableau, axis), so its keys differ only by the steps' multiplicities,
    k and theta; a key's lam^k and mu serve every query on it, such as a
    k's F and FCF queries.  Per query (read through `owner`): `key`, the
    tight scale C * Nc^2 (C = 1 lower, 6 upper; Nc - 1 under FCF, whose
    propagator is Toeplitz on Nc - 1 C-points), and the simple and FCF
    flags.  Per key (read through `key`): k, theta and a column of `power`,
    whose row j holds its multiplicity of the step `steps[j]`.
    """

    def __init__(self, family, queries):
        self.steps, self.coarse, axis = family
        self.real = axis == REAL_AXIS
        keys = {}
        self.key = np.array([keys.setdefault((q.fine.distinct, q.k, q.theta),
                                             len(keys)) for q in queries],
                            dtype=np.intp)
        self.power = np.array([[n for _, n in distinct]
                               for distinct, _, _ in keys]).T
        self.k = np.array([k for _, k, _ in keys])
        self.theta = np.array([theta for _, _, theta in keys])
        self.scale = np.array([
            (1.0 if q.bound_kind == LOWER_TIGHT else 6.0)
            * (q.Nc - 1 if q.relaxation == RELAX_FCF else q.Nc) ** 2
            for q in queries])
        self.simple = np.array([q.bound_kind == SIMPLE for q in queries])
        self.fcf = np.array([q.relaxation == RELAX_FCF for q in queries])


def _eigen_parts(b, keys, pts, dtype):
    """lam^k, |theta*mu - lam^k|, theta*|mu|, 1 - theta*|mu| in `dtype`,
    row i under key keys[i].  Either pts holds a point per row (keys and
    pts 1-D), or it is one row of points, shape (1, m), shared by every
    row (keys a column), and each part has shape (len(keys), m).

    Each of the family's steps is evaluated once over pts and raised to
    each key's multiplicity, in the family's order, so a uniform k-step
    factor costs one evaluation, on a shared row one for all its keys.
    The coarse tableau is evaluated at k*w.
    """
    pts = pts.astype(dtype, copy=False)
    lamk = np.ones(np.broadcast_shapes(keys.shape, pts.shape), dtype=dtype)
    for (tab, frac), power in zip(b.steps, b.power):
        lamk = lamk * _int_power(stability_eval_batch(
            tab, frac * pts, dtype=dtype), power[keys])
    mu = b.theta[keys] * stability_eval_batch(b.coarse, b.k[keys] * pts,
                                              dtype=dtype)
    amu = np.abs(mu)
    return (lamk.astype(complex, copy=False),
            np.abs(mu - lamk).astype(float, copy=False),
            amu.astype(float, copy=False),
            (1.0 - amu).astype(float, copy=False))


def _parts(b, keys, pts):
    """_eigen_parts of the keys at pts (a point per key, or one shared
    row): a point with |w| < 1e-4 in extended precision only, every other
    point in double precision."""
    small = np.abs(pts) < 1e-4
    shape = keys.shape[:1] + pts.shape[1:]
    parts = (np.empty(shape, dtype=complex), *np.empty((3,) + shape))
    for sel, dtype in ((~small, complex), (small, np.clongdouble)):
        if sel.all():
            parts = _eigen_parts(b, keys, pts, dtype)
        elif sel.any():
            if pts.ndim == 1:
                at, sub = sel, keys[sel]
            else:
                at, sub = (slice(None), sel[0]), keys
            for part, value in zip(parts, _eigen_parts(b, sub, pts[at],
                                                       dtype)):
                part[at] = value
    return parts


def _apply_formula(b, owner, lamk, num, amu, one_minus):
    """The bound at every point from its evaluated parts (see _eigen_parts),
    with the kind, Nc and relaxation of the point's query and the family's
    axis: owner holds the query of each point, or of each row as a
    column."""
    simple = b.simple[owner]
    phi = np.empty(num.shape)
    if simple.any():
        # a vanished denominator: a 0/0 limit on the real axis reads 0
        tiny = one_minus < _DEN_EPS
        phi = np.where(tiny, np.where(b.real & (num < _DEN_EPS), 0.0, np.inf),
                       num / one_minus)
    if not simple.all():
        scale = b.scale[owner]
        extra = np.where(np.isinf(scale), 0.0, (np.pi ** 2) * amu / scale)
        tight = num / np.sqrt(one_minus ** 2 + extra)
        tight = np.where(amu > 1.0 + _TIGHT_SLACK, np.inf, tight)
        phi = np.where(simple, phi, tight)
    fcf = b.fcf[owner]
    if fcf.any():
        phi = np.where(fcf, np.abs(lamk) * phi, phi)
    # an overflow far outside an explicit scheme's stability region (inf
    # times 0, or a complex product with inf parts) is unbounded too
    return np.where(np.isnan(phi), np.inf, phi)


class _Compiled:
    """A sequence of queries compiled once for bound_values, which takes
    it in place of the sequence: the queries grouped into families, one
    _Batch per family with the rows of its queries, each query's family
    and index within it, and the largest k.  k*w is the largest point an
    evaluation reads: step fractions are positive and sum to k."""

    def __init__(self, queries):
        self.queries = tuple(queries)
        families = {}
        for i, x in enumerate(self.queries):
            families.setdefault((tuple(step for step, _ in x.fine.distinct),
                                 x.coarse, x.axis), []).append(i)
        self.batches = [(_Batch(family, [self.queries[i] for i in rows]), rows)
                        for family, rows in families.items()]
        self.family, self.local = np.empty((2, len(self.queries)),
                                           dtype=np.intp)
        for f, (_, rows) in enumerate(self.batches):
            self.family[rows], self.local[rows] = f, np.arange(len(rows))
        self.reach = max((x.k for x in self.queries), default=1)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def bound_values(q, w, owner=None):
    """Vectorized bound over magnitudes w on the query's axis.

    `q` is one BoundQuery, whose values come back in w's shape, or a
    sequence of them, or a sequence compiled once (_Compiled), which a
    caller making many calls on the same queries, such as sweep, passes
    in its place.  A sequence with `owner` puts point i under its query
    owner[i]; a sequence without it puts every query at every point and
    returns shape (number of queries,) + w.shape; one query goes that way
    too.  A query or plain sequence is compiled on each call: the queries
    are grouped into families, and each family becomes arrays (_Batch).
    The evaluation comes first: lam^k and mu per key, each of the
    family's steps and its coarse tableau once over its points
    (_eigen_parts).  Then the formula is applied with each query's
    parameters (_apply_formula).  The points go in blocks of _BLOCK.
    Every query at every point, each key is evaluated once over a block,
    so a k's F and FCF queries share the evaluation, and the formula runs
    on the block for every query; the scratch memory then stays within a
    few times the size of the returned array.  Either way a value does
    not depend on the other points or queries of the call.

    Unstable and unbounded samples come back as inf, also where an explicit
    scheme overflows far outside its stability region, and so does w = inf.
    A finite w whose k*w overflows, at the largest k of the queries,
    raises a ValueError naming w and k, and so does a w where a Horner sum
    overflows (`stability_eval_batch`).  PoleError still propagates since
    registry poles cannot lie on either sweep axis.
    Samples with w < 1e-4 are evaluated in extended precision only, on
    both axes: there |mu - lam^k| and, on the imaginary axis, 1 - |mu| are
    small differences of numbers near 1, and double-precision cancellation
    noise would swamp the signal.
    """
    single = isinstance(q, BoundQuery)
    c = q if isinstance(q, _Compiled) else _Compiled((q,) if single else q)
    w = np.asarray(w, dtype=float)
    shape, w = w.shape, w.ravel()
    # the largest |w| first (fmax skips nan); if k times it overflows,
    # the finite w alone: w = inf reads inf
    if math.isinf(c.reach * np.fmax.reduce(np.abs(w), initial=0.0)):
        top = np.max(np.abs(w), where=np.isfinite(w), initial=0.0)
        if math.isinf(c.reach * top):
            raise ValueError(f"w = {top:g} is too large: k*w overflows "
                             f"at k = {c.reach}")
    n = len(c.queries)
    if owner is None:
        out = np.empty((n, w.size))
        for b, rows in c.batches:
            _bound_grid(b, w, rows, out)
        return out[0].reshape(shape) if single else \
            out.reshape((n,) + shape)
    owner = np.asarray(owner, dtype=np.intp).ravel()
    if owner.size != w.size or np.any((owner < 0) | (owner >= n)):
        raise ValueError(f"owner must give each point of w a query in "
                         f"[0, {n})")
    if len(c.batches) == 1:
        return _bound_points(c.batches[0][0], w, owner).reshape(shape)
    family, owner = c.family[owner], c.local[owner]
    out = np.empty(w.size)
    for f, (b, _) in enumerate(c.batches):
        at = np.flatnonzero(family == f)
        out[at] = _bound_points(b, w[at], owner[at])
    return out.reshape(shape)


def _bound_points(b, w, owner):
    """bound_values of one family, point i under its query owner[i]."""
    out = np.empty(w.size)
    for start in range(0, w.size, _BLOCK):
        at = slice(start, start + _BLOCK)
        pts = w[at] if b.real else w[at] * 1j
        out[at] = _apply_formula(b, owner[at],
                                 *_parts(b, b.key[owner[at]], pts))
    return out


def _bound_grid(b, w, rows, out):
    """bound_values of one family's queries at every point w, into their
    rows of out: each key evaluated once over a block, then the formula
    for every query."""
    keys, queries = np.arange(b.k.size)[:, None], np.arange(len(rows))[:, None]
    for start in range(0, w.size, _BLOCK):
        at = slice(start, start + _BLOCK)
        pts = w[None, at] if b.real else w[None, at] * 1j
        out[rows, at] = _apply_formula(b, queries, *(
            part[b.key] for part in _parts(b, keys, pts)))


@dataclass(frozen=True)
class BoundCurve:
    """Sampled bound curve with max / argmax / convergence-threshold summary.

    max_phi == INFINITY marks a genuinely unbounded curve; a finite
    max with argmax_w == INFINITY marks a supremum approached only as
    w -> infinity.  threshold is the largest w-hat with phi < 1 for all
    w < w-hat (INFINITY when the curve stays below 1, 0.0 when it starts
    at or above 1).
    """

    query: BoundQuery
    samples: np.ndarray  # shape (n, 2): columns w, phi; strictly increasing w
    max_phi: float
    argmax_w: float
    threshold: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    @property
    def unbounded(self) -> bool:
        return math.isinf(self.max_phi)

    def to_csv(self, fileobj, header_lines=()) -> None:
        rows = [(w, "unbounded" if math.isinf(phi) else phi)
                for w, phi in self.samples]
        footer = [("max_phi", "unbounded" if self.unbounded else self.max_phi),
                  ("argmax_w", self.argmax_w), ("threshold", self.threshold)]
        write_csv(fileobj, header_lines, ("w", "phi"), rows, footer)


# multisection: log-spaced interior points per bracket and round, and the
# log-w width at which a peak bracket, and a crossing bracket, is found
_SECTIONS = 16
_PEAK_TOL = 1e-4
_CROSSING_TOL = 1e-13


def _multisection(w_lo, w_hi, owner, n, peak, evaluate):
    """Shrink the log-w brackets [w_lo[i], w_hi[i]] of curves owner[i] < n
    by multisection: each round is one call evaluate(w, owner) over
    _SECTIONS log-spaced interior points of every bracket of every curve
    whose widest bracket is still above the tolerance.  A peak bracket
    keeps the two intervals around its best sample; a crossing bracket,
    with phi(w_lo) < 1 <= phi(w_hi), keeps the interval that ends at its
    first sample not below 1.  Returns the final log-w brackets, shape
    (m, 2), and per curve the probed w and values in probe order.
    """
    x = np.log(np.column_stack((w_lo, w_hi)))
    owner = np.asarray(owner, dtype=np.intp)
    tol = _PEAK_TOL if peak else _CROSSING_TOL
    frac = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
    probes = [(np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))]
    while True:
        widest = np.full(n, -np.inf)
        np.maximum.at(widest, owner, x[:, 1] - x[:, 0])
        act = np.flatnonzero(widest[owner] > tol)
        if not act.size:
            break
        lo, hi = x[act, :1], x[act, 1:]
        xs = np.concatenate((lo, lo + (hi - lo) * frac, hi), axis=1)
        w = np.exp(xs[:, 1:-1])
        who = np.repeat(owner[act], _SECTIONS)
        v = np.asarray(evaluate(w.ravel(), who), dtype=float).reshape(w.shape)
        probes.append((w.ravel(), v.ravel(), who))
        if peak:
            # the points on either side of the best sample
            j = np.argmax(v, axis=1)[:, None] + (0, 2)
        else:
            # the last point below 1 and the first not below it
            edge = np.ones((act.size, 1), dtype=bool)
            j = np.argmin(np.hstack((edge, v < 1.0, ~edge)), axis=1)
            j = j[:, None] + (-1, 0)
        x[act] = xs[np.arange(act.size)[:, None], j]
    w, v, who = map(np.concatenate, zip(*probes))
    order = np.argsort(who, kind="stable")
    cuts = np.cumsum(np.bincount(who, minlength=n))[:-1]
    return x, np.split(w[order], cuts), np.split(v[order], cuts)


@functools.lru_cache(maxsize=8)
def _base_grid(w_min, w_max, n_base):
    """The log-spaced base grid, shared read-only by every sweep on it."""
    grid = np.geomspace(w_min, w_max, n_base)
    grid.flags.writeable = False
    return grid


def _peak_brackets(grid, phi):
    """Bracket ends and curves of the peak candidates of every curve's base
    pass phi (shape (n, n_base)): its finite local maxima, at most 64, the
    highest (then the latest) first.  Each plateau is refined once, from
    its first sample, and humps below 0.3 of the curve's peak are skipped:
    neither can move the max/argmax summary."""
    finite = np.where(np.isfinite(phi), phi, -np.inf)
    pad = np.pad(finite, ((0, 0), (1, 1)), constant_values=-np.inf)
    is_max = np.isfinite(finite) & (finite >= pad[:, :-2]) & \
        (finite >= pad[:, 2:])
    keep = is_max.copy()
    keep[:, 1:] &= ~is_max[:, :-1]
    top = np.max(finite, axis=1, keepdims=True)
    keep &= (top <= 0) | (finite >= 0.3 * top)
    rows, cols = np.nonzero(keep)
    order = np.lexsort((-cols, -finite[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    best = np.arange(rows.size) - np.searchsorted(rows, rows) < 64
    rows, cols = rows[best], cols[best]
    return (grid[np.maximum(cols - 1, 0)],
            grid[np.minimum(cols + 1, len(grid) - 1)], rows)


def _summarize(grid, phi, tail, probe_w, probe_v, w_max):
    """One curve's [samples, max_phi, argmax_w, threshold] from its base
    pass phi, its tail probe at 10 * w_max and its peak probes, where the
    threshold may still be the (w_lo, w_hi) bracket of its first
    up-crossing of 1.  argmax_w is the best sample of the first run of
    samples within 1e-6 of the max, so equal humps report the first one
    and a plateau its first sample."""
    w_all = np.concatenate((grid, probe_w))
    order = np.argsort(w_all, kind="stable")
    w_all, phi_all = w_all[order], np.concatenate((phi, probe_v))[order]

    unbounded = bool(np.any(~np.isfinite(phi_all)) or np.any(phi_all > 1e6))
    end_increasing = phi[-1] >= phi[-2] and np.isfinite(phi[-1])
    max_phi = float(np.max(np.where(np.isfinite(phi_all), phi_all, np.inf)))
    argmax_at_inf = False
    if unbounded or not math.isfinite(tail) or tail > 1e6:
        max_phi = INFINITY
        argmax_at_inf = not unbounded
    elif (end_increasing and tail > 1.01 * phi[-1]
          and phi[-1] >= 0.5 * max_phi):
        # still climbing hard at the window edge with the global max there
        max_phi = INFINITY
        argmax_at_inf = True
    elif max_phi > 0 and tail >= max_phi * (1.0 - 1e-6):
        # supremum approached asymptotically: report the far-tail estimate
        max_phi = max(max_phi, tail)
        argmax_at_inf = True

    if argmax_at_inf:
        argmax_w = INFINITY
    elif math.isinf(max_phi):
        # unbounded curve: report where it blew up, unless it is still high
        # or climbing at the window edge (supremum at w -> infinity)
        bad = np.where(~np.isfinite(phi_all) | (phi_all > 1e6))[0]
        end_bad = (not math.isfinite(phi[-1]) or phi[-1] > 1e6
                   or not math.isfinite(tail) or tail > 1e6)
        argmax_w = INFINITY if (end_bad or not len(bad)) \
            else float(w_all[bad[0]])
    else:
        # within 1e-6 of the max, also for a negative max
        cut = min(max_phi, max_phi * (1.0 - 1e-6))
        near = np.append(phi_all >= cut, False)
        first = int(np.argmax(near))
        last = first + int(np.argmin(near[first:]))
        argmax_w = float(w_all[first + np.argmax(phi_all[first:last])])

    over = np.where(~(phi_all < 1.0))[0]  # inf counts as over
    if len(over) == 0:
        threshold = INFINITY if not tail >= 1.0 else (w_max, 10.0 * w_max)
    elif over[0] == 0:
        threshold = 0.0
    else:
        threshold = (w_all[over[0] - 1], w_all[over[0]])
    return [np.column_stack((w_all, phi_all)), max_phi, argmax_w, threshold]


def _sweep_many(n, evaluate, w_min, w_max, n_base, reach=1):
    """The sweep engine: n curves on one log-spaced window, where
    evaluate(w, owner) gives curve owner[i]'s values at w[i] (inf allowed)
    and evaluate(w, None) every curve's values at every w, shape
    (n, w.size).  evaluate reads up to `reach` times its w (a coarse
    tableau at k * w), and the window is rejected where that overflows.

    One evaluate(w, None) call covers the base grid and the tail probe at
    10 * w_max, which every curve shares.  One call per round then refines
    every curve's peak candidates by multisection; max, argmax and the tail
    rules are decided curve by curve; and one call per round narrows every
    curve's threshold bracket.  Each curve gets the rounds, probes and bits
    it gets alone.  Whatever evaluate builds from its curves' definitions
    belongs outside it, built once per sweep: sweep passes its queries
    compiled once (_Compiled), not once per round.
    Returns one (samples, max_phi, argmax_w, threshold) per curve.
    """
    if not (0.0 < w_min < w_max < INFINITY):
        raise ValueError("need 0 < w_min < w_max < inf")
    if not 10.0 * reach * w_max < INFINITY:
        raise ValueError(f"w_max too large: the tail probe reads "
                         f"{10.0 * reach:g} * w_max, which overflows")
    if n_base < 64:
        raise ValueError("n_base must be >= 64")
    grid = _base_grid(w_min, w_max, n_base)
    values = np.asarray(evaluate(np.append(grid, 10.0 * w_max), None),
                        dtype=float).reshape(n, n_base + 1)
    _, probe_w, probe_v = _multisection(*_peak_brackets(grid, values[:, :-1]),
                                        n, True, evaluate)
    results = [_summarize(grid, values[c, :-1], float(values[c, -1]),
                          probe_w[c], probe_v[c], w_max) for c in range(n)]
    crossing = [c for c, r in enumerate(results) if isinstance(r[3], tuple)]
    ends = np.array([results[c][3] for c in crossing]).reshape(-1, 2)
    x, _, _ = _multisection(ends[:, 0], ends[:, 1], crossing, n, False,
                            evaluate)
    for c, (lo, hi) in zip(crossing, x):
        results[c][3] = math.exp(0.5 * (lo + hi))
    return [tuple(r) for r in results]


def sweep_function(fun, w_min: float, w_max: float, n_base: int = 512):
    """The sweep engine on one curve: `fun` maps an array of w magnitudes
    to values (inf allowed), once per probe round (see _sweep_many).
    Returns (samples, max_phi, argmax_w, threshold)."""
    return _sweep_many(1, lambda w, owner: fun(w), w_min, w_max, n_base)[0]


def sweep(q, w_min: float = 1e-8, w_max: float = 1e8, n_base: int = 512):
    """Sample the bound on [w_min, w_max] and summarize max/argmax/threshold.

    `q` is one BoundQuery, which gives one BoundCurve, or a sequence of
    them, which gives a list.  The queries are compiled once (_Compiled),
    and the array engine (_sweep_many) sweeps them together, one
    bound_values call on the compiled queries per probe round; each curve
    is the one its query swept alone gives.
    """
    single = isinstance(q, BoundQuery)
    c = _Compiled((q,) if single else q)
    results = _sweep_many(len(c.queries),
                          lambda w, owner: bound_values(c, w, owner),
                          w_min, w_max, n_base, c.reach)
    curves = [BoundCurve(x, *r) for x, r in zip(c.queries, results)]
    return curves[0] if single else curves


def max_over_k(fine: str, coarse: str, relaxation: str, k_set) -> float:
    """Max over coarsening factors of the sweep maximum; INFINITY dominates."""
    k_list = list(k_set)
    if not k_list:
        raise ValueError("k_set must be nonempty")
    fine_tab = get_scheme(fine)
    coarse_tab = get_scheme(coarse)
    curves = sweep([BoundQuery(fine_tab, coarse_tab, int(k), relaxation)
                    for k in k_list])
    return max(0.0, *(c.max_phi for c in curves))


def two_iteration_product(q1: BoundQuery, q2: BoundQuery) -> BoundCurve:
    """Worst case of two successive iterations: pointwise product of bounds,
    swept over sweep's default range of w."""
    if (q1.fine is not q2.fine and q1.fine != q2.fine) or \
            q1.coarse is not q2.coarse or q1.k != q2.k or q1.axis != q2.axis:
        raise ValueError("queries must share fine/coarse/k/axis")
    fun = lambda w: bound_values(q1, w) * bound_values(q2, w)
    samples, max_phi, argmax_w, threshold = sweep_function(fun, 1e-8, 1e8)
    return BoundCurve(q1, samples, max_phi, argmax_w, threshold)


def spectrum_max(q: BoundQuery, w_values) -> float:
    """Sup of the bound over a prescribed set of w magnitudes (a model
    spectrum).  The query's axis places them; complex values are accepted
    only with zero imaginary parts."""
    w = np.asarray(w_values)
    if np.iscomplexobj(w):
        if np.any(w.imag != 0):
            raise ValueError("spectrum_max takes real w magnitudes; put "
                             "the axis in the query, not in w")
        w = w.real
    return float(np.max(bound_values(q, w)))
