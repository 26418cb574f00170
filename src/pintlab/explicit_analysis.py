"""Structural analysis of explicit schemes: stability polynomials, the
truncated-exponential optimality of the coarse propagator, and root-finding
for the coarse-minus-fine-power polynomial.

For an explicit s-stage scheme the per-step factor lam(w) is a polynomial of
degree <= s, stored here by its coefficients in powers of (-w).  For schemes
of order p = s the polynomial is the exponential series truncated at the
(-w)^s term, which makes the coarse propagator the optimal degree-s Taylor
approximation of lam(w)^k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csv import write_csv
from .butcher import ButcherTableau, stability_eval_batch

__all__ = [
    "NotTruncatedExponential",
    "StabilityPolynomial",
    "RootRecord",
    "stability_polynomial",
    "phi_k_polynomial",
    "check_taylor_optimality",
    "singularity_roots",
    "roots_to_csv",
]


class NotTruncatedExponential(ValueError):
    """The scheme's stability polynomial is not a truncated exponential."""


@dataclass(frozen=True)
class StabilityPolynomial:
    """Polynomial in (-w): coefficients[l] multiplies (-w)**l."""

    coefficients: tuple

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           tuple(float(c) for c in self.coefficients))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def in_powers_of_w(self) -> tuple:
        """Coefficients rewritten for powers of w (sign-alternated)."""
        return tuple(((-1.0) ** l) * c for l, c in enumerate(self.coefficients))

    def __call__(self, w):
        acc = np.zeros_like(np.asarray(w, dtype=complex))
        for c in reversed(self.in_powers_of_w()):
            acc = acc * w + c
        return acc


def stability_polynomial(tab: ButcherTableau) -> StabilityPolynomial:
    """Exact polynomial coefficients of lam(w) for an explicit tableau.

    lam = P/Q with Q = det(I + wA) == 1 for strictly lower-triangular A, so
    lam is the tableau's numerator P(w) = det(I + w(A - 1 b^T)).
    """
    if not tab.explicit_flag:
        raise ValueError(f"{tab.name} is not explicit")
    coeffs = [((-1.0) ** l) * float(p) for l, p in enumerate(tab.P)]
    return StabilityPolynomial(tuple(coeffs))


def phi_k_polynomial(tab: ButcherTableau, k: int) -> StabilityPolynomial:
    """lam(w)^k as an exact degree s*k polynomial via repeated convolution."""
    base = np.asarray(stability_polynomial(tab).coefficients)
    acc = base.copy()
    for _ in range(int(k) - 1):
        acc = np.convolve(acc, base)
    return StabilityPolynomial(tuple(acc))


def _is_truncated_exponential(poly: StabilityPolynomial, rtol=1e-13) -> bool:
    for l, c in enumerate(poly.coefficients):
        target = 1.0 / math.factorial(l)
        if abs(c - target) > rtol * target:
            return False
    return True


def check_taylor_optimality(tab: ButcherTableau, k: int) -> bool:
    """Does the coarse polynomial match the s lowest-order terms of lam^k?

    The coarse propagator is the same tableau with step k*dt, i.e. the same
    polynomial evaluated at k*w.  Raises NotTruncatedExponential when the
    scheme's polynomial is not the truncated exponential (the hypothesis of
    the optimality statement).
    """
    poly = stability_polynomial(tab)
    if not _is_truncated_exponential(poly):
        raise NotTruncatedExponential(
            f"{tab.name}: stability polynomial is not a truncated exponential")
    fine_pow = phi_k_polynomial(tab, k).in_powers_of_w()
    coarse = [c * (float(k) ** l)
              for l, c in enumerate(poly.in_powers_of_w())]
    for l in range(tab.s + 1):
        ref = coarse[l]
        if abs(fine_pow[l] - ref) > 1e-13 * max(1.0, abs(ref)):
            return False
    return True


@dataclass(frozen=True)
class RootRecord:
    """One root of the coarse-minus-fine-power polynomial."""

    w: complex
    multiplicity: int = 1
    in_stable_region: bool = False   # real w > 0 with both propagators stable
    imag_axis_stable: bool = False   # purely imaginary w, both stable

    @property
    def is_origin(self) -> bool:
        return self.w == 0


def singularity_roots(tab: ButcherTableau, k: int, w_max: float):
    """All roots with |w| <= w_max of p(w) = coarse(w) - fine(w)^k.

    p is the degree s*k polynomial (in w) whose zeros are exactly the w at
    which the coarse propagator reproduces an eigenvalue of the k-fold fine
    propagator.  Roots are found by companion-matrix eigenvalues of the
    deflated polynomial plus one Newton polish step; the origin root (always
    present) is reported once with its multiplicity.  Roots lying in the
    doubly-stable region {w real > 0 : |lam(w)| < 1 and |mu(w)| < 1} are
    flagged; purely imaginary stable roots are marked separately.
    """
    if k < 2:
        raise ValueError(f"coarsening factor k must be >= 2, got {k}")
    if not tab.explicit_flag:
        raise ValueError(f"{tab.name} is not explicit")
    if tab.order != tab.s or tab.s > 4:
        raise ValueError("requires an explicit scheme with order == s <= 4")
    fine_pow = np.asarray(phi_k_polynomial(tab, k).in_powers_of_w())
    single = stability_polynomial(tab).in_powers_of_w()
    coarse = np.zeros_like(fine_pow)
    for l, c in enumerate(single):
        coarse[l] = c * (float(k) ** l)
    p = coarse - fine_pow  # coefficients of w^l, l = 0..s*k
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
        roots = np.roots(q[::-1])
        dp = np.polynomial.polynomial.polyder(p)
        for r in roots:
            pr = np.polynomial.polynomial.polyval(r, p)
            dpr = np.polynomial.polynomial.polyval(r, dp)
            if dpr != 0:
                r = r - pr / dpr
            if abs(r) > w_max:
                continue
            records.append(_classify_root(tab, k, complex(r)))
    records.sort(key=lambda rec: (abs(rec.w), rec.w.real, rec.w.imag))
    return records


def _classify_root(tab: ButcherTableau, k: int, r: complex) -> RootRecord:
    tol = 1e-9 * max(1.0, abs(r))
    lam = stability_eval_batch(tab, np.asarray([r], complex))[0]
    mu = stability_eval_batch(tab, np.asarray([k * r], complex))[0]
    both_stable = abs(lam) < 1.0 and abs(mu) < 1.0
    real_stable = abs(r.imag) <= tol and r.real > 1e-12 and both_stable
    imag_stable = (abs(r.real) <= tol and abs(r.imag) > 1e-12 and both_stable)
    return RootRecord(r, 1, real_stable, imag_stable)


def roots_to_csv(records, fileobj, header_lines=()) -> None:
    write_csv(fileobj, header_lines, ("re", "im", "in_stable_region"),
              ((rec.w.real, rec.w.imag, int(rec.in_stable_region))
               for rec in records))
