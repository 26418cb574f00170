"""Butcher tableaux, the named-scheme registry, and stability-function evaluation.

A Runge-Kutta scheme applied to the scalar test problem u' = -xi*u with step
dt advances the solution by the factor lam(w) = 1 - w*b^T (I + w*A)^{-1} 1,
where w = dt*xi.  Equivalently lam = P/Q with P(w) = det(I + w(A - 1 b^T))
and Q(w) = det(I + w*A) (Hairer-Wanner, Solving ODEs II, IV.3).  Every
tableau computes the coefficients of P and Q once, at construction, as
principal-minor sums in extended precision; evaluation is then a Horner pass
in the caller's dtype.  Stiffly accurate tableaux build P with b := A[-1],
so that P's w^s coefficient is exactly 0 and no rounding residue of b - A[-1]
grows into a spurious w^s term at large |w|.  Everything downstream
(convergence bounds, time-grid solves on diagonalizable operators) is built
on this rational function.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PoleError",
    "OrderMismatch",
    "ButcherTableau",
    "SchemeRegistry",
    "REGISTRY",
    "get_scheme",
    "scheme_names",
    "stability_eval",
    "stability_eval_batch",
    "verify_order",
    "classify_stability",
]

A_STABLE = "A_stable"
L_STABLE = "L_stable"
CONDITIONALLY_STABLE = "conditionally_stable"

# |Q(w)| at or below this many units of roundoff of sum_l |q_l| |w|^l is
# treated as a pole of the rational stability function rather than
# propagated as a noise-dominated quotient.
_POLE_ULPS = 16

_EVAL_DTYPES = (np.complex128, np.longdouble, np.clongdouble)


class PoleError(ArithmeticError):
    """Stage system I + w*A is singular: w sits at a pole of lam(w)."""


class OrderMismatch(ValueError):
    """Numerically measured order disagrees with the declared order."""


def _as_readonly(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.flags.writeable = False
    return arr


def _exact_det(M):
    """Cofactor-expansion determinant for the tiny (<=4x4) blocks used here.

    Keeps M's dtype, and a block with an all-zero row gives exactly 0.
    """
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    if n == 2:
        return M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    det = M.dtype.type(0)
    for j in range(n):
        if M[0, j] == 0:
            continue
        minor = np.delete(M[1:], j, axis=1)
        det += (-1) ** j * M[0, j] * _exact_det(minor)
    return det


def _principal_minor_sums(B):
    """e_l(B) = sum of l x l principal minors, so det(I + wB) = sum_l e_l w^l."""
    s = B.shape[0]
    sums = [B.dtype.type(1)]
    for l in range(1, s + 1):
        total = B.dtype.type(0)
        for idx in itertools.combinations(range(s), l):
            total += _exact_det(B[np.ix_(idx, idx)])
        sums.append(total)
    return np.array(sums, dtype=B.dtype)


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """An s-stage Runge-Kutta scheme (A, b, c) with declared order and class.

    ``stiffly_accurate`` and ``explicit_flag`` are derived from the
    coefficients; row-sum consistency c_i = sum_j A_ij is enforced at
    construction.  ``P`` and ``Q`` hold the longdouble coefficients, in
    powers of w, of the numerator and denominator of lam(w).
    """

    name: str
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray
    order: int
    stability_class: str
    P: np.ndarray = field(init=False, repr=False)
    Q: np.ndarray = field(init=False, repr=False)
    _horner: dict = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "A", _as_readonly(np.atleast_2d(self.A)))
        object.__setattr__(self, "b", _as_readonly(np.atleast_1d(self.b)))
        object.__setattr__(self, "c", _as_readonly(np.atleast_1d(self.c)))
        s = self.b.size
        if self.A.shape != (s, s) or self.c.size != s:
            raise ValueError(f"{self.name}: inconsistent tableau shapes")
        if not all(np.isfinite(x).all() for x in (self.A, self.b, self.c)):
            raise ValueError(f"{self.name}: tableau coefficients must be "
                             "finite")
        if self.order < 1:
            raise ValueError(f"{self.name}: order must be >= 1")
        if self.stability_class not in (A_STABLE, L_STABLE, CONDITIONALLY_STABLE):
            raise ValueError(f"{self.name}: unknown stability class")
        rowsum = self.A.sum(axis=1)
        if not np.allclose(rowsum, self.c, rtol=0, atol=1e-12):
            raise ValueError(f"{self.name}: c_i != sum_j A_ij")
        A = self.A.astype(np.longdouble)
        b = A[-1] if self.stiffly_accurate else self.b.astype(np.longdouble)
        object.__setattr__(self, "P", _as_readonly(
            _principal_minor_sums(A - b[None, :]), np.longdouble))
        object.__setattr__(self, "Q", _as_readonly(
            _principal_minor_sums(A), np.longdouble))
        # per evaluation dtype: Horner rows (p_l, q_l, |q_l|) from l = s
        # down to 0 in that dtype's real type, and its pole tolerance
        rows = np.stack((self.P, self.Q, np.abs(self.Q)), axis=1)[::-1]
        horner = {}
        for dtype in _EVAL_DTYPES:
            finfo = np.finfo(dtype)
            horner[np.dtype(dtype)] = (_as_readonly(rows, finfo.dtype),
                                       _POLE_ULPS * finfo.eps)
        object.__setattr__(self, "_horner", horner)

    @property
    def s(self) -> int:
        return self.b.size

    @property
    def stiffly_accurate(self) -> bool:
        return bool(np.all(np.abs(self.A[-1] - self.b) <= 1e-14))

    @property
    def explicit_flag(self) -> bool:
        return bool(np.all(np.abs(np.triu(self.A)) == 0.0))

    def __repr__(self):
        return (f"ButcherTableau({self.name!r}, s={self.s}, order={self.order},"
                f" {self.stability_class})")


def stability_eval_batch(tab: ButcherTableau, w, dtype=complex):
    """Vectorized lam(w) = P(w)/Q(w) over an array of w, by Horner in `dtype`.

    `dtype` is complex128, longdouble or clongdouble.  P, Q and the
    size sum_l |q_l| |w|^l of Q's Horner sum run through one stacked Horner
    pass; PoleError is raised where |Q(w)| is within _POLE_ULPS units of
    roundoff of that size, i.e. where Q vanishes to working precision; a
    finite w where that size overflows raises a ValueError instead.
    """
    w = np.asarray(w, dtype=dtype)
    coef, pole_tol = tab._horner[np.dtype(dtype)]
    coef = coef.reshape(coef.shape + (1,) * w.ndim)
    x = np.stack((w, w, np.abs(w).astype(dtype)))
    acc = coef[0] * x
    for c in coef[1:-1]:
        acc += c
        acc *= x
    acc += coef[-1]
    num, den, size = acc
    if (np.abs(den) <= pole_tol * size.real).any():
        over = np.isinf(size.real) & np.isfinite(w)
        if over.any():
            raise ValueError(f"{tab.name}: |w| = {float(abs(w[over][0])):g} "
                             "is too large: the Horner sum of Q(w) overflows")
        raise PoleError("Q(w) = det(I + w*A) vanished: w is at a pole")
    return num / den


def stability_eval(tab: ButcherTableau, w: complex) -> complex:
    """Stability function factor lam(w) for a single complex w."""
    return complex(stability_eval_batch(tab, np.asarray([w], dtype=complex))[0])


def verify_order(tab: ButcherTableau) -> int:
    """Measure the approximation order from |lam(w) - exp(-w)| on w in [1e-3, 1e-2].

    Returns the largest p whose required log-log slope p+1 - 0.1 is met.
    Evaluation runs in extended precision: for order-4 schemes the signal at
    the bottom of the window is ~1e-18, below double-precision cancellation
    noise.  Raises OrderMismatch when the result differs from tab.order.
    """
    ld = np.longdouble
    ws = np.geomspace(ld(1e-3), ld(1e-2), 9, dtype=ld)
    lam = stability_eval_batch(tab, ws, dtype=ld)
    diff = np.abs(lam - np.exp(-ws))
    diff = np.maximum(diff, np.finfo(ld).tiny)
    slope, _ = np.polyfit(np.log(ws.astype(float)),
                          np.log(diff.astype(float)), 1)
    measured = int(math.floor(slope + 0.1)) - 1
    if measured != tab.order:
        raise OrderMismatch(
            f"{tab.name}: declared order {tab.order}, measured {measured}"
            f" (slope {slope:.3f})")
    return measured


def classify_stability(tab: ButcherTableau) -> str:
    """Classify A-/L-/conditional stability by boundary and large-|w| sampling.

    Samples |lam| on the imaginary w-axis (the right-half-plane boundary,
    |Im w| up to 1e6, log-spaced) and on a large arc, then checks the
    L-stable limit |lam(1e12)| < 1e-6.  A regression guard for known classes,
    not a prover.
    """
    y = np.geomspace(1e-6, 1e6, 2001)
    boundary = np.concatenate([1j * y, -1j * y])
    angles = np.linspace(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3, 181)
    arc = 1e9 * np.exp(1j * angles)
    try:
        vals = stability_eval_batch(tab, np.concatenate([boundary, arc]))
    except PoleError:
        return CONDITIONALLY_STABLE
    if np.any(np.abs(vals) > 1.0 + 1e-12):
        return CONDITIONALLY_STABLE
    if abs(stability_eval(tab, 1e12)) < 1e-6:
        return L_STABLE
    return A_STABLE


# ---------------------------------------------------------------------------
# Scheme registry
# ---------------------------------------------------------------------------

_SQRT2 = math.sqrt(2.0)
_SQRT3 = math.sqrt(3.0)


def _make_registry_entries():
    entries = {}

    def add(name, A, b, c, order, cls):
        entries[name] = ButcherTableau(name, A, b, c, order, cls)

    add("bwe", [[1.0]], [1.0], [1.0], 1, L_STABLE)
    add("fwe", [[0.0]], [1.0], [0.0], 1, CONDITIONALLY_STABLE)
    add("midpoint", [[0.5]], [1.0], [0.5], 2, A_STABLE)
    add("trapezoid", [[0.0, 0.0], [0.5, 0.5]], [0.5, 0.5], [0.0, 1.0],
        2, A_STABLE)

    g = (2.0 - _SQRT2) / 2.0
    add("sdirk22", [[g, 0.0], [1.0 - g, g]], [1.0 - g, g], [g, 1.0],
        2, L_STABLE)

    g = (3.0 + _SQRT3) / 6.0
    add("sdirk23", [[g, 0.0], [1.0 - 2.0 * g, g]], [0.5, 0.5],
        [g, 1.0 - g], 3, A_STABLE)

    # sdirk33 constants are published as decimals; stored verbatim.
    g = 0.435866521508458999416019
    bb = 1.20849664917601007033648
    cc = 0.717933260754229499708010
    add("sdirk33",
        [[g, 0.0, 0.0], [cc - g, g, 0.0], [bb, 1.0 - bb - g, g]],
        [bb, 1.0 - bb - g, g], [g, cc, 1.0], 3, L_STABLE)

    g = (3.0 + 2.0 * _SQRT3 * math.cos(math.pi / 18.0)) / 6.0
    bb = 1.0 / (6.0 * (1.0 - 2.0 * g) ** 2)
    add("sdirk34",
        [[g, 0.0, 0.0], [0.5 - g, g, 0.0], [2.0 * g, 1.0 - 4.0 * g, g]],
        [bb, 1.0 - 2.0 * bb, bb], [g, 0.5, 1.0 - g], 4, A_STABLE)

    g = (2.0 - _SQRT2) / 2.0
    bb = (1.0 - 2.0 * g) / (4.0 * g)
    add("esdirk32",
        [[0.0, 0.0, 0.0], [g, g, 0.0], [1.0 - bb - g, bb, g]],
        [1.0 - bb - g, bb, g], [0.0, 2.0 * g, 1.0], 2, L_STABLE)

    g = (3.0 + _SQRT3) / 6.0
    b2 = 1.0 / (12.0 * g * (1.0 - 2.0 * g))
    b3 = (1.0 - 3.0 * g) / (3.0 * (1.0 - 2.0 * g))
    add("esdirk33",
        [[0.0, 0.0, 0.0], [g, g, 0.0],
         [(6.0 * g - 1.0) / (4.0 * g) - g, (1.0 - 2.0 * g) / (4.0 * g), g]],
        [1.0 - b2 - b3, b2, b3], [0.0, 2.0 * g, 1.0], 3, A_STABLE)

    add("gauss4",
        [[0.25, (3.0 - 2.0 * _SQRT3) / 12.0],
         [(3.0 + 2.0 * _SQRT3) / 12.0, 0.25]],
        [0.5, 0.5], [(3.0 - _SQRT3) / 6.0, (3.0 + _SQRT3) / 6.0],
        4, A_STABLE)

    add("erk2", [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5], [0.0, 1.0],
        2, CONDITIONALLY_STABLE)
    add("erk3", [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [-1.0, 2.0, 0.0]],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0], [0.0, 0.5, 1.0],
        3, CONDITIONALLY_STABLE)
    add("erk4",
        [[0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0],
         [0.0, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0]],
        [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
        [0.0, 0.5, 0.5, 1.0], 4, CONDITIONALLY_STABLE)
    entries["trbdf2"] = make_trbdf2(TRBDF2_DEFAULT_GAMMA)
    return entries


TRBDF2_DEFAULT_GAMMA = 2.0 - _SQRT2


@functools.lru_cache(maxsize=None)
def make_trbdf2(gamma: float = TRBDF2_DEFAULT_GAMMA) -> ButcherTableau:
    """One-parameter blend of trapezoid and two-step BDF as a 3-stage ESDIRK.

    L-stable exactly at the default parameter, A-stable elsewhere in the
    usable range.  Built once per parameter value, so every lookup of the
    same scheme returns the same tableau.
    """
    g = float(gamma)
    if not 0.0 < g < 2.0:
        raise ValueError("trbdf2 parameter must lie in (0, 2)")
    last = [(3.0 * g - g * g - 1.0) / (2.0 * g), (1.0 - g) / (2.0 * g), g / 2.0]
    cls = L_STABLE if abs(g - TRBDF2_DEFAULT_GAMMA) < 1e-12 else A_STABLE
    name = ("trbdf2" if abs(g - TRBDF2_DEFAULT_GAMMA) < 1e-12
            else f"trbdf2:{g!r}")
    return ButcherTableau(
        name,
        [[0.0, 0.0, 0.0], [g / 2.0, g / 2.0, 0.0], last],
        last, [0.0, g, 1.0], 2, cls)


@dataclass(frozen=True)
class SchemeRegistry:
    """Immutable name -> tableau mapping with trbdf2:<gamma> parameterization."""

    entries: dict = field(default_factory=dict)

    def names(self):
        return sorted(self.entries)

    def get(self, name: str) -> ButcherTableau:
        key = name.strip().lower()
        if key in self.entries:
            return self.entries[key]
        if key.startswith("trbdf2:"):
            try:
                gamma = float(key.split(":", 1)[1])
            except ValueError:
                raise KeyError(f"bad trbdf2 parameter in {name!r}") from None
            return make_trbdf2(gamma)
        raise KeyError(f"unknown scheme {name!r}")

    def __iter__(self):
        return iter(self.entries.values())


REGISTRY = SchemeRegistry(_make_registry_entries())


def get_scheme(name: str) -> ButcherTableau:
    return REGISTRY.get(name)


def scheme_names():
    return REGISTRY.names()

