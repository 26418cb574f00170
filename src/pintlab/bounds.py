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

`bound_values` evaluates first and applies the formula second, one query
family at a time: a family is one (fine tableau, coarse tableau, axis),
compiled into arrays (`_Batch`), whose keys are its (k, theta) pairs.  It
evaluates the fine and the coarse tableau once each over the family's
points, lam^k and mu once per key, then the formula above with each
query's kind, Nc and relaxation, point by point or every query at every
point.  At w = inf it gives each query's exact limit, from the leading
coefficients of P and Q and, for the indeterminate forms, from the
expansion in 1/|w| (`_limit`).
`sweep` takes one query or a list of them, groups them into families
(`_families`) and refines each family's curves through the one array
sweep engine, `_sweep_many`: one `bound_values` call of every query of
the family on the shared base grid and w = inf, one per multisection
round over the peak brackets of every curve, and one per round over the
threshold's crossing brackets, each on the family's `_Batch`.  Each curve
is the one its query swept alone gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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
# The bound at w = inf (_limit): a key whose |1 - theta*|mu(inf)|| is within
# _NEAR, and whose |theta*mu(inf) - lam^k(inf)| is too or whose lam^k(inf) is
# 0 under FCF, goes to the expansion in u = 1/|w| (_expansion).  There a
# coefficient of G or H counts as 0 when it is at or below _EXPANSION_ULPS
# units of extended-precision roundoff of the same coefficient computed from
# absolute values: a tolerance relative to the largest coefficient loses
# gauss4/gauss4's order-1 term at k = 16.
_NEAR = 1e-9
_EXPANSION_ULPS = 64
# bound_values evaluates at most this many points at once (each under every
# key of a family where every query goes at every point), so its scratch
# memory does not grow with the number of points
_BLOCK = 1024


class PropagatorSpec:
    """The fine propagator over one coarse interval is k steps of one
    tableau, and the tableau itself stands for it: `uniform(tab, k)` gives
    `tab`, which BoundQuery and TimeHierarchy take as `fine`.  The name
    stays for callers that build their queries through it."""

    @staticmethod
    def uniform(tab: ButcherTableau, k: int) -> ButcherTableau:
        return tab


@dataclass(frozen=True)
class BoundQuery:
    """One bound request: the fine tableau, taken k times per coarse
    interval, the coarse tableau, k, relaxation, kind, theta and axis."""

    fine: ButcherTableau
    coarse: ButcherTableau
    k: int
    relaxation: str = RELAX_F
    Nc: float = INFINITY
    bound_kind: str = SIMPLE
    theta: float = 1.0
    axis: str = REAL_AXIS

    def __post_init__(self):
        if not isinstance(self.fine, ButcherTableau):
            raise TypeError("fine must be a ButcherTableau, got "
                            f"{type(self.fine).__name__}")
        if self.k < 2:
            raise ValueError("coarsening factor k must be >= 2")
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
        parts = [f"fine={self.fine.name}", f"coarse={self.coarse.name}",
                 f"k={self.k}", f"relax={self.relaxation}",
                 f"kind={self.bound_kind}",
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
    """A family's queries compiled into arrays (see _families): once per
    bound_values call on a query, once per family of a sweep.

    A family is one (fine tableau, coarse tableau, axis) and a key one
    (k, theta); a key's lam^k and mu serve every query on it, such as a
    k's F and FCF queries.  Per query (read through `owner`): `key`, the
    tight scale C * Nc^2 (C = 1 lower, 6 upper; Nc - 1 under FCF, whose
    propagator is Toeplitz on Nc - 1 C-points), and the simple and FCF
    flags.  Per key (read through `key`): k and theta.
    """

    def __init__(self, family, queries):
        self.fine, self.coarse, axis = family
        self.real = axis == REAL_AXIS
        keys = {}
        self.key = np.array([keys.setdefault((q.k, q.theta), len(keys))
                             for q in queries], dtype=np.intp)
        self.k = np.array([k for k, _ in keys])
        self.theta = np.array([theta for _, theta in keys])
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

    The fine tableau is evaluated once over pts and raised to each key's
    k, on a shared row once for all its keys; the coarse tableau is
    evaluated at k*w.
    """
    pts = pts.astype(dtype, copy=False)
    lamk = _int_power(stability_eval_batch(b.fine, pts, dtype=dtype),
                      b.k[keys])
    mu = b.theta[keys] * stability_eval_batch(b.coarse, b.k[keys] * pts,
                                              dtype=dtype)
    amu = np.abs(mu)
    # a shared row whose keys all square gives one row of lam^k
    return (np.broadcast_to(lamk, mu.shape).astype(complex, copy=False),
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


def _lead_parts(b):
    """Per key: lam^k(inf) and theta*mu(inf), from the fine and coarse
    tableaux' lam(inf) (ButcherTableau.lam_inf)."""
    lamk = b.fine.lam_inf ** b.k
    mu = np.where(b.theta == 0, 0.0, b.theta * b.coarse.lam_inf)
    return lamk, mu


def _limit(b, sign):
    """Each query's bound at w = sign * inf on the family's axis.

    Most limits are the formula on the parts at infinity, lam^k(inf) and
    theta*mu(inf) (_lead_parts).  Two indeterminate forms need more: 0/0,
    where theta*|mu(inf)| = 1 and lam^k(inf) = theta*mu(inf), and 0*inf
    under FCF, where lam^k(inf) = 0 and phi_F(inf) = inf, both under the
    simple kind or Nc = inf (a finite Nc keeps the denominator from 0).
    A key near either form goes to _expansion, which decides it exactly.
    """
    lamk, mu = _lead_parts(b)
    num, amu = np.abs(mu - lamk), np.abs(mu)
    owner = np.arange(b.simple.size)
    phi = _apply_formula(b, owner, *(x[b.key] for x in (
        lamk.astype(complex), num, amu, 1.0 - amu)))
    near = (np.abs(1.0 - amu) <= _NEAR)[b.key] & \
        (b.simple | np.isinf(b.scale)) & \
        ((num <= _NEAR)[b.key] | (b.fcf & (lamk == 0.0)[b.key]))
    terms = {}
    for i in np.flatnonzero(near):
        key = b.key[i]
        if key not in terms:
            terms[key] = _expansion(b, key, sign * (1.0 if b.real else 1j))
        if terms[key] is None:
            continue
        # (order, coefficient) of each factor; None: identically 0
        lam, num, den = terms[key]
        if num is None or den is None or den[1] < 0:
            # 1 - theta*|mu| vanishing or negative is unstable
            phi[i] = 0.0 if num is None else INFINITY
            continue
        order, coef = num[0] - den[0], num[1] / den[1]
        if b.fcf[i]:
            order, coef = order + lam[0], coef * lam[1]
        phi[i] = 0.0 if order > 0 else INFINITY if order < 0 else coef
    return phi


def _in_u(coef, z):
    """R(z / u) * u^deg(R) in powers of u, lowest first, for R's
    coefficients (ButcherTableau.limit); its constant term is nonzero."""
    powers = np.full(len(coef), np.clongdouble(z))
    powers[0] = 1
    return (coef * np.cumprod(powers))[::-1]


def _lowest(c, size):
    """(index, value) of c's lowest-order coefficient above _EXPANSION_ULPS
    units of extended-precision roundoff of `size`, the same coefficient
    computed from absolute values; None where there is none."""
    live = np.flatnonzero(np.abs(c) > _EXPANSION_ULPS
                          * np.finfo(np.longdouble).eps * size)
    return (int(live[0]), c[live[0]]) if live.size else None


def _expansion(b, key, d):
    """The key's |lam^k|, |theta*mu - lam^k| and 1 - theta*|mu| as (order,
    coefficient) of their leading terms in u = 1/|w| along w = d/u, or
    None when theta*|mu(inf)| != 1 in extended precision, where the plain
    limit stands.  With P_f, Q_f the k-th powers of the fine tableau's P
    and Q and P_c, Q_c the coarse tableau's at k*w, the three factors are
    |P_f|/|Q_f|, |G|/(|Q_c| |Q_f|) and H/(|Q_c| (|Q_c| + theta |P_c|)),
    where G = theta P_c Q_f - Q_c P_f and H = |Q_c|^2 - theta^2 |P_c|^2.
    Reached only where theta*mu(inf) is finite and not 0 and lam^k(inf)
    is finite, so P_c, Q_c have one degree and deg P_f <= deg Q_f.
    """
    power = functools.partial(np.polynomial.polynomial.polypow,
                              pow=int(b.k[key]), maxpower=None)
    pf, qf = (power(_in_u(coef, d)) for coef in b.fine.limit)
    pfa, qfa = (power(np.abs(_in_u(coef, d))) for coef in b.fine.limit)
    pc, qc = (_in_u(coef, b.k[key] * d) for coef in b.coarse.limit)
    theta = b.theta[key]
    h = _lowest((np.convolve(qc, qc.conj())
                 - theta ** 2 * np.convolve(pc, pc.conj())).real,
                np.convolve(np.abs(qc), np.abs(qc))
                + theta ** 2 * np.convolve(np.abs(pc), np.abs(pc)))
    if h is not None and h[0] == 0:
        return None
    shift = len(qf) - len(pf)
    g, ga = theta * np.convolve(pc, qf), theta * np.convolve(np.abs(pc), qfa)
    g[shift:] -= np.convolve(qc, pf)
    ga[shift:] += np.convolve(np.abs(qc), pfa)
    g = _lowest(g, ga)
    lead_qc, lead_qf = np.abs(qc[0]), np.abs(qf[0])
    return ((shift, np.abs(pf[0]) / lead_qf),
            g and (g[0], np.abs(g[1]) / (lead_qc * lead_qf)),
            h and (h[0], h[1] / (lead_qc * (lead_qc + theta * np.abs(pc[0])))))


def _families(queries):
    """The queries grouped into families, in order of first appearance:
    one (_Batch, indices of its queries) pair per family."""
    families = {}
    for i, x in enumerate(queries):
        families.setdefault((x.fine, x.coarse, x.axis), []).append(i)
    return [(_Batch(family, [queries[i] for i in rows]), rows)
            for family, rows in families.items()]


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def bound_values(q, w, owner=None):
    """Vectorized bound over magnitudes w on the query's axis.

    `q` is one BoundQuery, whose values come back in w's shape, or one
    family compiled once (a _Batch from _families), which a caller making
    many calls on the same queries, such as sweep, passes instead.  With
    a _Batch, `owner` puts point i under the family's query owner[i], and
    without it every query goes at every point, shape (number of
    queries,) + w.shape.  Many families are swept by `sweep`, family by
    family; a list here is a TypeError.
    The evaluation comes first: lam^k and mu per key, the fine and the
    coarse tableau once each over its points (_eigen_parts).  Then the
    formula is applied with each query's parameters (_apply_formula).
    The points go in blocks of _BLOCK.
    Every query at every point, each key is evaluated once over a block,
    so a k's F and FCF queries share the evaluation, and the formula runs
    on the block for every query; the scratch memory then stays within a
    few times the size of the returned array.  Either way a value does
    not depend on the other points or queries of the call.

    Unstable and unbounded samples come back as inf, also where an explicit
    scheme overflows far outside its stability region.  w = inf reads the
    bound's exact limit (_limit), computed on each call that asks for it;
    a sweep asks once, in its base call.
    A finite w whose k*w overflows, at the family's largest k, raises a
    ValueError naming w and k (k*w, the coarse point, is the largest point
    an evaluation reads), and so does a w where a Horner sum overflows
    (`stability_eval_batch`).  PoleError still propagates since registry
    poles cannot lie on either sweep axis.
    Samples with w < 1e-4 are evaluated in extended precision only, on
    both axes: there |mu - lam^k| and, on the imaginary axis, 1 - |mu| are
    small differences of numbers near 1, and double-precision cancellation
    noise would swamp the signal.
    """
    single = isinstance(q, BoundQuery)
    b = _families((q,))[0][0] if single else q
    if not isinstance(b, _Batch):
        raise TypeError("bound_values takes one BoundQuery or one compiled "
                        "family; sweep takes a list of queries")
    w = np.asarray(w, dtype=float)
    shape, w = w.shape, w.ravel()
    # the largest |w| first (fmax skips nan); if k times it overflows,
    # the finite w alone: w = inf reads the limit
    reach = b.k.max()
    if math.isinf(reach * np.fmax.reduce(np.abs(w), initial=0.0)):
        top = np.max(np.abs(w), where=np.isfinite(w), initial=0.0)
        if math.isinf(reach * top):
            raise ValueError(f"w = {top:g} is too large: k*w overflows "
                             f"at k = {reach}")
    # an infinite w is evaluated at 1 and then overwritten by its limit
    inf = np.isinf(w)
    some_inf = inf.any()
    at = np.where(inf, 1.0, w) if some_inf else w
    if owner is None:
        out = _bound_grid(b, at)
    else:
        owner = np.asarray(owner, dtype=np.intp).ravel()
        out = _bound_points(b, at, owner)
    for sign in (1.0, -1.0) if some_inf else ():
        sel = w == sign * INFINITY
        if sel.any():
            limit = _limit(b, sign)
            if owner is None:
                out[:, sel] = limit[:, None]
            else:
                out[sel] = limit[owner[sel]]
    if owner is not None:
        return out.reshape(shape)
    return out[0].reshape(shape) if single else \
        out.reshape((len(out),) + shape)


def _bound_points(b, w, owner):
    """bound_values of one family, point i under its query owner[i]."""
    out = np.empty(w.size)
    for start in range(0, w.size, _BLOCK):
        at = slice(start, start + _BLOCK)
        pts = w[at] if b.real else w[at] * 1j
        out[at] = _apply_formula(b, owner[at],
                                 *_parts(b, b.key[owner[at]], pts))
    return out


def _bound_grid(b, w):
    """bound_values of one family's queries at every point w, one row per
    query: each key evaluated once over a block, then the formula for
    every query."""
    n = b.key.size
    keys, queries = np.arange(b.k.size)[:, None], np.arange(n)[:, None]
    out = np.empty((n, w.size))
    for start in range(0, w.size, _BLOCK):
        at = slice(start, start + _BLOCK)
        pts = w[None, at] if b.real else w[None, at] * 1j
        out[:, at] = _apply_formula(b, queries, *(
            part[b.key] for part in _parts(b, keys, pts)))
    return out


@dataclass(frozen=True)
class BoundCurve:
    """Sampled bound curve with max / argmax / convergence-threshold summary.

    max_phi == INFINITY marks a genuinely unbounded curve, whose argmax_w
    is INFINITY when its limit at w = inf is unbounded too and otherwise
    its first unbounded sample (not finite, or above 1e6); a finite max
    with argmax_w == INFINITY marks a supremum approached as
    w -> infinity, the bound's exact limit there.  threshold is the
    largest w-hat with phi < 1 for all w < w-hat (INFINITY when the curve
    stays below 1, also at w = inf, 0.0 when it starts at or above 1, and
    the window's w_max when it stays below 1 there and ends above 1 at
    w = inf).
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
    _SECTIONS log-spaced interior points of every bracket whose own
    log-width is still above the tolerance.  A peak bracket keeps the two
    intervals around its best sample; a crossing bracket, with
    phi(w_lo) < 1 <= phi(w_hi), keeps the interval that ends at its first
    sample not below 1.  Returns the final log-w brackets, shape (m, 2),
    and per curve the probed w and values in probe order.
    """
    x = np.log(np.column_stack((w_lo, w_hi)))
    owner = np.asarray(owner, dtype=np.intp)
    tol = _PEAK_TOL if peak else _CROSSING_TOL
    frac = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
    probes = [(np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))]
    while True:
        act = np.flatnonzero(x[:, 1] - x[:, 0] > tol)
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


def _summarize(grid, phi, limit, probe_w, probe_v, w_max):
    """One curve's [samples, max_phi, argmax_w, threshold] from its base
    pass phi, its value `limit` at w = inf and its peak probes, where the
    threshold may still be the (w_lo, w_hi) bracket of its first
    up-crossing of 1.  An unbounded curve's argmax_w is inf where the
    limit is unbounded, and otherwise its first sample that is not finite
    or is above 1e6.  A bounded curve's is inf where the limit reaches the
    samples' max within 1e-6, and otherwise the best sample of the first
    run of samples within 1e-6 of the max, so equal humps report the
    first one and a plateau its first sample."""
    w_all = np.concatenate((grid, probe_w))
    order = np.argsort(w_all, kind="stable")
    w_all, phi_all = w_all[order], np.concatenate((phi, probe_v))[order]

    bad = np.flatnonzero(~np.isfinite(phi_all) | (phi_all > 1e6))
    limit_bad = not math.isfinite(limit) or limit > 1e6
    if bad.size or limit_bad:
        max_phi = INFINITY
        argmax_w = INFINITY if limit_bad else float(w_all[bad[0]])
    elif limit >= (max_phi := float(np.max(phi_all))) * (1.0 - 1e-6):
        max_phi, argmax_w = max(max_phi, limit), INFINITY
    else:
        # within 1e-6 of the max, also for a negative max
        cut = min(max_phi, max_phi * (1.0 - 1e-6))
        near = np.append(phi_all >= cut, False)
        first = int(np.argmax(near))
        last = first + int(np.argmin(near[first:]))
        argmax_w = float(w_all[first + np.argmax(phi_all[first:last])])

    over = np.flatnonzero(~(phi_all < 1.0))  # inf counts as over
    if not over.size:
        # below 1 on the window; above 1 at w = inf: it crosses beyond
        threshold = w_max if limit > 1.0 else INFINITY
    elif over[0] == 0:
        threshold = 0.0
    else:
        threshold = (w_all[over[0] - 1], w_all[over[0]])
    return [np.column_stack((w_all, phi_all)), max_phi, argmax_w, threshold]


def _sweep_many(evaluate, w_min, w_max, n_base):
    """The sweep engine: n curves on one log-spaced window, where
    evaluate(w, owner) gives curve owner[i]'s values at w[i] (inf allowed)
    and evaluate(w, None) every curve's values at every w, shape
    (n, w.size), or shape w.shape for one curve; w = inf asks for each
    curve's value at infinity.

    One evaluate(w, None) call covers the base grid and w = inf, which
    every curve shares, and its result gives n.  One call per round then
    refines every curve's peak candidates by multisection, each bracket
    until its own log-width is within the tolerance; max and argmax are
    decided curve by curve, the value at infinity compared once with the
    samples; and one call per round narrows every curve's threshold
    bracket.  Each curve gets the rounds, probes and bits it gets alone.
    Whatever evaluate builds from its curves' definitions belongs outside
    it, built once per sweep: sweep passes each family compiled once
    (_Batch), not once per round.
    Returns one (samples, max_phi, argmax_w, threshold) per curve.
    """
    if not (0.0 < w_min < w_max < INFINITY):
        raise ValueError("need 0 < w_min < w_max < inf")
    if n_base < 64:
        raise ValueError("n_base must be >= 64")
    grid = _base_grid(w_min, w_max, n_base)
    values = np.asarray(evaluate(np.append(grid, INFINITY), None),
                        dtype=float).reshape(-1, n_base + 1)
    n = len(values)
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
    to values (inf allowed), once per probe round (see _sweep_many); its
    first array ends with w = inf, where `fun` gives the curve's value at
    infinity.  Returns (samples, max_phi, argmax_w, threshold)."""
    return _sweep_many(lambda w, owner: fun(w), w_min, w_max, n_base)[0]


def sweep(q, w_min: float = 1e-8, w_max: float = 1e8, n_base: int = 512):
    """Sample the bound on [w_min, w_max] and summarize max/argmax/threshold.

    `q` is one BoundQuery, which gives one BoundCurve, or a sequence of
    them, which gives a list.  The queries are grouped into families, each
    compiled once (_families), and the array engine (_sweep_many) sweeps
    each family's curves together, one bound_values call on the family's
    _Batch per probe round; each curve is the one its query swept alone
    gives.  The base round reads each bound's exact value at w = inf with
    its samples, and max_phi and argmax_w take it in (see BoundCurve).
    """
    single = isinstance(q, BoundQuery)
    queries = (q,) if single else tuple(q)
    curves = [None] * len(queries)
    for b, rows in _families(queries):
        results = _sweep_many(lambda w, owner: bound_values(b, w, owner),
                              w_min, w_max, n_base)
        for i, r in zip(rows, results):
            curves[i] = BoundCurve(queries[i], *r)
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
    if q1.fine is not q2.fine or q1.coarse is not q2.coarse or \
            q1.k != q2.k or q1.axis != q2.axis:
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
