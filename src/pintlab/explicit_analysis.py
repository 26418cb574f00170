"""Structural analysis of explicit schemes: the truncated-exponential
optimality of the coarse propagator, and root-finding for the gap polynomial.

Each tableau stores its stability function as lam = P/Q, by the coefficients
of P and Q in powers of w.  The coarse propagator is the same tableau with
step k*dt, mu(w) = lam(kw), so mu - lam^k has the numerator

    p(w) = P(kw) Q(w)^k - P(w)^k Q(kw),

the gap polynomial: its roots are where the coarse propagator reproduces the
k-fold fine one.  For an explicit s-stage scheme Q == 1, lam = P has degree
<= s and p has degree s*k.  For schemes of order s, P is the exponential
series truncated at the (-w)^s term, which makes the coarse propagator the
optimal degree-s Taylor approximation of lam(w)^k: p vanishes through
degree s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from .butcher import ButcherTableau, stability_eval_batch

__all__ = [
    "NotTruncatedExponential",
    "RootRecord",
    "gap_polynomial",
    "check_taylor_optimality",
    "singularity_roots",
    "roots_to_csv",
]


class NotTruncatedExponential(ValueError):
    """The scheme's stability polynomial is not a truncated exponential."""


def gap_polynomial(tab: ButcherTableau, coarse: ButcherTableau,
                   k: int) -> np.ndarray:
    """Float64 coefficients, in powers of w, of the gap polynomial
    p(w) = P_c(kw) Q(w)^k - P(w)^k Q_c(kw), the numerator of mu - lam^k,
    for the fine tableau's P/Q and the coarse tableau's P_c/Q_c."""
    # numpy loads np.polynomial on first use: a simulator run never pays it
    poly = np.polynomial.polynomial
    P, Q = tab.P.astype(float), tab.Q.astype(float)
    Pc, Qc = coarse.P.astype(float), coarse.Q.astype(float)
    kl = float(k) ** np.arange(len(Pc))
    return poly.polysub(poly.polymul(Pc * kl, poly.polypow(Q, k)),
                        poly.polymul(poly.polypow(P, k), Qc * kl))


def check_taylor_optimality(tab: ButcherTableau, k: int) -> bool:
    """Does the coarse polynomial match the s lowest-order terms of lam^k?

    True when the gap polynomial vanishes through degree s.  Raises
    NotTruncatedExponential when the scheme is implicit or its polynomial
    is not the truncated exponential (the hypothesis of the optimality
    statement).
    """
    P, l = tab.P.astype(float), np.arange(tab.s + 1)
    taylor = np.array([(-1.0) ** j / math.factorial(j) for j in l])
    if not tab.explicit_flag or np.any(np.abs(P - taylor)
                                       > 1e-13 * np.abs(taylor)):
        raise NotTruncatedExponential(
            f"{tab.name}: stability polynomial is not a truncated exponential")
    coarse = np.abs(P) * float(k) ** l
    p = gap_polynomial(tab, tab, k)[:tab.s + 1]
    return bool(np.all(np.abs(p) <= 1e-13 * np.maximum(1.0, coarse)))


@dataclass(frozen=True)
class RootRecord:
    """One root of the gap polynomial."""

    w: complex
    multiplicity: int = 1
    in_stable_region: bool = False   # real w > 0 with both propagators stable
    imag_axis_stable: bool = False   # purely imaginary w, both stable

    @property
    def is_origin(self) -> bool:
        return self.w == 0


def singularity_roots(tab: ButcherTableau, k: int, w_max: float):
    """All roots with |w| <= w_max of the gap polynomial P(kw) - P(w)^k.

    p is the degree s*k polynomial (in w) whose zeros are exactly the w at
    which the coarse propagator reproduces an eigenvalue of the k-fold fine
    propagator.  Roots are the companion-matrix eigenvalues of the deflated
    polynomial, each polished by one Newton step on p (skipped where p'
    vanishes); the whole root array is polished, filtered and classified at
    once, with two stability evaluations in all.  The origin root (always
    present) is reported once with its multiplicity.  Roots lying in the
    doubly-stable region {w real > 0 : |lam(w)| < 1 and |mu(w)| < 1} are
    flagged; purely imaginary stable roots are marked separately.  w_max
    must be positive (inf keeps every root).  ValueError is raised where a
    coefficient of p overflows double precision (erk2 from k = 779).
    """
    if k < 2:
        raise ValueError(f"coarsening factor k must be >= 2, got {k}")
    if not w_max > 0:
        raise ValueError(f"w_max must be positive, got {w_max}")
    if not tab.explicit_flag:
        raise ValueError(f"{tab.name} is not explicit")
    if tab.order != tab.s or tab.s > 4:
        raise ValueError("requires an explicit scheme with order == s <= 4")
    p = gap_polynomial(tab, tab, k)  # coefficients of w^l, l = 0..s*k
    if not np.isfinite(p).all():
        raise ValueError(f"{tab.name} at k = {k}: the gap polynomial's "
                         "coefficients overflow double precision")
    scale = np.max(np.abs(p))
    # the lowest-order coefficients vanish identically (the coarse polynomial
    # matches lam^k through degree s); strip them to expose the origin root
    m0 = 0
    while m0 < len(p) and abs(p[m0]) <= 1e-12 * scale:
        m0 += 1
    q = p[m0:]
    while len(q) > 1 and abs(q[-1]) <= 1e-14 * scale:
        q = q[:-1]

    records = [RootRecord(0.0 + 0.0j, multiplicity=m0)]
    if len(q) > 1:
        w = _newton_step(p, np.roots(q[::-1]))
        w = w[np.abs(w) <= w_max]
        if w.size:
            lam = np.abs(stability_eval_batch(tab, w))
            mu = np.abs(stability_eval_batch(tab, k * w))
            both = (lam < 1.0) & (mu < 1.0)
            tol = 1e-9 * np.maximum(1.0, np.abs(w))
            real = both & (np.abs(w.imag) <= tol) & (w.real > 1e-12)
            imag = both & (np.abs(w.real) <= tol) & (np.abs(w.imag) > 1e-12)
            records += [RootRecord(complex(r), 1, bool(a), bool(b))
                        for r, a, b in zip(w, real, imag)]
    records.sort(key=lambda rec: (abs(rec.w), rec.w.real, rec.w.imag))
    return records


def _newton_step(p: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w - p(w)/p'(w) for every w, left as w where p'(w) = 0.

    p and p' run through one Horner pass with real and imaginary parts in
    separate real arrays, and the quotient is Smith's: each root rounds as
    it would through numpy's scalar complex arithmetic, whatever its place
    in the array (the complex array loops fuse multiply-adds).  A real w,
    which np.roots returns when every root is real, is divided in real
    arithmetic, as a real scalar would be.
    """
    dp = np.polynomial.polynomial.polyder(p)
    # v[part, poly, root]: real and imaginary parts of p and p' at each
    # root; coefficients and w are tiled to v's shape, so every ufunc call
    # of the loop runs on whole contiguous arrays
    v = np.zeros((2, 2, len(w)))
    coef = np.zeros((len(p),) + v.shape[1:])
    coef[:, 0] = p[:, None]
    coef[:-1, 1] = dp[:, None]
    xr = np.broadcast_to(w.real, v.shape).copy()
    xi = np.broadcast_to(w.imag, v.shape).copy()
    re, im = v
    re[...] = coef[-1]
    re_xr, im_xr = v_xr = np.empty_like(v)
    re_xi, im_xi = v_xi = np.empty_like(v)
    for a in coef[-2::-1]:
        np.multiply(v, xr, out=v_xr)
        np.multiply(v, xi, out=v_xi)
        np.subtract(re_xr, im_xi, out=re)
        re += a
        np.add(re_xi, im_xr, out=im)
    (pr, dr), (pi, di) = re, im
    w, step = w.copy(), (dr != 0) | (di != 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        if np.isrealobj(w):  # np.roots found real roots only
            w[step] -= (pr / dr)[step]
            return w
        wide = np.abs(dr) >= np.abs(di)
        rat = np.where(wide, di / dr, dr / di)
        scl = 1.0 / np.where(wide, dr + di * rat, di + dr * rat)
        qr = np.where(wide, pr + pi * rat, pr * rat + pi) * scl
        qi = np.where(wide, pi - pr * rat, pi * rat - pr) * scl
    w.real[step] -= qr[step]
    w.imag[step] -= qi[step]
    return w


def roots_to_csv(records, fileobj, header_lines=()) -> None:
    write_csv(fileobj, header_lines, ("re", "im", "in_stable_region"),
              ((rec.w.real, rec.w.imag, int(rec.in_stable_region))
               for rec in records))
