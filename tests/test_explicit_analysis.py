import io
import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as poly

from mp_reference import mp_det_q, mp_stage_form
from pintlab import explicit_analysis
from pintlab.butcher import (ButcherTableau, get_scheme, scheme_names,
                             stability_eval)
from pintlab.explicit_analysis import (NotTruncatedExponential,
                                       _newton_step, check_taylor_optimality,
                                       gap_polynomial, roots_to_csv,
                                       singularity_roots)

FWE = get_scheme("fwe")
ERK2 = get_scheme("erk2")
ERK3 = get_scheme("erk3")
ERK4 = get_scheme("erk4")


def fine_power(tab, k):
    """Coefficients of lam^k = P(kw) - p(w) through degree s."""
    l = np.arange(tab.s + 1)
    return (tab.P.astype(float) * float(k) ** l
            - gap_polynomial(tab, tab, k)[l])


def test_single_step_polynomials_are_truncated_exponentials():
    for tab in (FWE, ERK2, ERK3, ERK4):
        assert len(tab.P) == tab.s + 1 and tab.P[-1] != 0
        assert list(tab.Q) == [1.0] + [0.0] * tab.s
        for l, c in enumerate(tab.P):
            assert float(c) == pytest.approx((-1.0) ** l / math.factorial(l),
                                             rel=1e-14)


def test_taylor_optimality_rejects_implicit():
    with pytest.raises(NotTruncatedExponential):
        check_taylor_optimality(get_scheme("bwe"), 2)


def test_phi_k_fwe_squared():
    # (1 - 2w) - (1 - w)^2 = -w^2, exactly
    assert list(gap_polynomial(FWE, FWE, 2)) == [0.0, 0.0, -1.0]
    assert list(fine_power(FWE, 2)) == [1.0, -2.0]


def test_phi_k_erk2_low_order():
    # (1 - 2w + 2w^2) - (1 - w + w^2/2)^2 = w^3 - w^4/4
    assert list(gap_polynomial(ERK2, ERK2, 2)) == [0.0, 0.0, 0.0, 1.0, -0.25]
    assert fine_power(ERK2, 2) == pytest.approx([1.0, -2.0, 2.0])


def test_phi_k_erk3_cubed():
    # oracle: through degree s the cube matches the exponential series of
    # the triple step, coefficients (-3)^l / l!
    got = fine_power(ERK3, 3)
    expected = [(-3.0) ** l / math.factorial(l) for l in range(4)]
    assert got == pytest.approx(expected, rel=1e-13)
    assert got == pytest.approx([1.0, -3.0, 4.5, -4.5], rel=1e-13)


def test_phi_k_degree():
    for tab, k in [(ERK2, 5), (ERK4, 3)] + [(t, 16) for t in
                                            (FWE, ERK2, ERK3, ERK4)]:
        assert len(gap_polynomial(tab, tab, k)) - 1 == tab.s * k


@pytest.mark.parametrize("name", scheme_names())
def test_gap_polynomial_matches_mp_reference(name):
    # oracle: (mu - lam^k) Q(w)^k Q_c(kw) from the 50-digit stage form and
    # a 50-digit det(I + wA), for implicit schemes too, with the scheme as
    # its own coarse tableau and with gauss4 as the coarse one
    tab = get_scheme(name)
    for coarse, k in itertools.product((tab, get_scheme("gauss4")),
                                       range(2, 9)):
        p = gap_polynomial(tab, coarse, k)
        for w in (0.3 + 0.4j, -1.1 + 0.7j, 1.9j, -1.5 - 1.2j, 2.0):
            with mpmath.workdps(50):
                kw = k * mpmath.mpc(w)
                ref = ((mp_stage_form(coarse, kw)
                        - mp_stage_form(tab, w) ** k)
                       * mp_det_q(tab, w) ** k * mp_det_q(coarse, kw))
            err = abs(poly.polyval(w, p) - complex(ref))
            assert err <= 1e-12 * poly.polyval(abs(w), np.abs(p)), \
                (coarse.name, k, w)


def test_taylor_optimality_examples():
    assert check_taylor_optimality(FWE, 2)
    assert check_taylor_optimality(ERK2, 2)
    assert check_taylor_optimality(ERK4, 8)


def test_taylor_optimality_all_orders_and_factors():
    for tab in (FWE, ERK2, ERK3, ERK4):
        for k in (2, 4, 8, 16):
            assert check_taylor_optimality(tab, k), (tab.name, k)


def test_not_truncated_exponential_raises():
    # 2-stage first-order explicit scheme: stability polynomial
    # 1 + z + 0.1 z^2 is not the truncated exponential
    odd = ButcherTableau("odd-erk", [[0.0, 0.0], [1.0, 0.0]],
                         [0.9, 0.1], [0.0, 1.0], 1, "conditionally_stable")
    with pytest.raises(NotTruncatedExponential):
        check_taylor_optimality(odd, 2)


# --- singularity roots -------------------------------------------------------

def test_fwe_k2_single_origin_root():
    records = singularity_roots(FWE, 2, 10.0)
    assert len(records) == 1
    assert records[0].is_origin
    assert records[0].multiplicity == 2
    assert not records[0].in_stable_region


@pytest.mark.parametrize("k", [0, 1])
def test_singularity_roots_rejects_k_below_2(k):
    # at k = 1 the coarse and fine polynomials coincide, so p is 0
    with pytest.raises(ValueError, match="k must be >= 2"):
        singularity_roots(ERK4, k, 10.0)


def test_origin_root_always_reported():
    for tab, k in [(ERK2, 2), (ERK3, 3), (ERK4, 4)]:
        records = singularity_roots(tab, k, 50.0)
        assert records[0].is_origin
        assert records[0].multiplicity >= tab.s + 1


def test_erk2_no_real_root_in_coarse_stability_window():
    # oracle: dense sign scan of p(w) on (0, 1) at 1e5 points
    records = singularity_roots(ERK2, 2, 10.0)
    w = np.linspace(1e-5, 1.0 - 1e-9, 100000)
    coarse = sum((-2.0 * w) ** l / math.factorial(l) for l in range(3))
    fine = sum((-w) ** l / math.factorial(l) for l in range(3)) ** 2
    p = coarse - fine
    assert np.all(p < 0.0) or np.all(p > 0.0)
    for rec in records:
        if rec.is_origin:
            continue
        assert not (abs(rec.w.imag) < 1e-9 and 0.0 < rec.w.real < 1.0)


def test_erk4_k4_no_doubly_stable_root():
    records = singularity_roots(ERK4, 4, 10.0)
    assert not any(rec.in_stable_region for rec in records)


def test_erk_family_no_doubly_stable_roots():
    for tab in (FWE, ERK2, ERK3, ERK4):
        for k in (2, 3, 4, 8, 16):
            records = singularity_roots(tab, k, 100.0)
            assert not any(r.in_stable_region for r in records), (tab.name, k)


def test_roots_satisfy_polynomial():
    for tab, k in [(ERK2, 4), (ERK3, 3), (ERK4, 2)]:
        p = gap_polynomial(tab, tab, k)
        scale = np.max(np.abs(p))
        for rec in singularity_roots(tab, k, 1e6):
            val = poly.polyval(rec.w, p)
            assert abs(val) < 1e-9 * scale, (tab.name, k, rec.w)


def test_singularity_rejects_implicit_and_high_order():
    with pytest.raises(ValueError):
        singularity_roots(get_scheme("sdirk22"), 2, 10.0)
    # explicit but order < stages: outside the structural hypothesis
    heun_low = ButcherTableau("low", [[0.0, 0.0], [1.0, 0.0]],
                              [0.9, 0.1], [0.0, 1.0], 1,
                              "conditionally_stable")
    with pytest.raises(ValueError):
        singularity_roots(heun_low, 2, 10.0)


def _mp_gap_roots(tab, k):
    """Every nonzero root of a truncated-exponential scheme's gap polynomial.

    The polynomial is built in exact rationals from P_l = (-1)^l / l! and
    Newton's method runs on it in 50 digits; numpy's roots of the float64
    polynomial only start it.  The roots found must be converged, distinct
    and as many as the degree, so none is missed.
    """
    P = [Fraction((-1) ** l, math.factorial(l)) for l in range(tab.s + 1)]
    p = [-c for c in poly.polypow(np.array(P, object), k)]
    for l, c in enumerate(P):
        p[l] += c * k ** l
    assert not any(p[:tab.s + 1])
    with mpmath.workdps(50):
        # highest degree first, origin factor divided out
        q = [mpmath.mpf(c.numerator) / c.denominator for c in p[:tab.s:-1]]
        roots = []
        for r in np.roots(gap_polynomial(tab, tab, k)[tab.s + 1:][::-1]):
            z = mpmath.mpc(complex(r))
            for _ in range(60):
                f, df = mpmath.polyval(q, z, derivative=True)
                z -= f / df
                if abs(f / df) < 1e-30 * abs(z):
                    break
            else:
                raise AssertionError(f"Newton did not converge from {r}")
            roots.append(complex(z))
    sep = min(abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:])
    assert len(roots) == len(q) - 1 and sep > 1e-3
    return roots


@pytest.mark.xfail(strict=True, reason=(
    "singularity_roots strips trailing coefficients below 1e-14 of the "
    "largest, which drops the true leading coefficient (1/s!)^k: erk4 at "
    "k = 16 keeps 46 of its 59 nonzero roots, some off by up to 130 %"))
def test_erk4_k16_finds_every_root():
    ref = _mp_gap_roots(ERK4, 16)
    got = [r.w for r in singularity_roots(ERK4, 16, 100.0)
           if not r.is_origin]
    assert len(ref) == 59
    assert len(got) == 59
    for w in got:
        assert min(abs(w - r) / abs(r) for r in ref) <= 1e-6, w


@pytest.mark.parametrize("tab", [FWE, ERK2, ERK3, ERK4], ids=lambda t: t.name)
def test_newton_step_equals_per_root_scalar_loop(tab):
    # oracle: one Newton step per root on numpy scalars, the loop the array
    # step replaces; the same arithmetic, so the same bits
    for k in range(2, 41):
        p = gap_polynomial(tab, tab, k)
        dp = poly.polyder(p)
        roots = np.roots(p[tab.s + 1:][::-1])
        expected = []
        for r in roots:
            pr, dpr = poly.polyval(r, p), poly.polyval(r, dp)
            expected.append(r - pr / dpr if dpr != 0 else r)
        got = _newton_step(p, roots)
        assert got.dtype == roots.dtype
        assert [(z.real, z.imag) for z in got] == \
            [(z.real, z.imag) for z in expected], (tab.name, k)


def test_newton_step_skips_roots_where_the_derivative_vanishes():
    # p = (w - 1)^2 has p'(1) = 0: that root stays, the other moves
    p = np.array([1.0, -2.0, 1.0])
    got = _newton_step(p, np.array([1.0 + 0j, 2.0 + 0.5j]))
    assert got[0] == 1.0
    with np.errstate(all="raise"):
        step = complex(poly.polyval(2.0 + 0.5j, p)
                       / poly.polyval(2.0 + 0.5j, poly.polyder(p)))
    assert got[1] == (2.0 + 0.5j) - step


# the cases whose float64 root count is right: every nonzero root is found
_COUNT_CORRECT = ([(ERK2, k) for k in range(3, 17)]
                  + [(ERK3, k) for k in range(3, 13)]
                  + [(ERK4, k) for k in range(3, 9)])


@pytest.mark.parametrize("tab,k", _COUNT_CORRECT,
                         ids=[f"{t.name}-k{k}" for t, k in _COUNT_CORRECT])
def test_polished_roots_match_mp_reference(tab, k):
    # erk2 k = 2 has a single nonzero root, which _mp_gap_roots cannot
    # separate from another: it is not in the list
    ref = _mp_gap_roots(tab, k)
    got = [r.w for r in singularity_roots(tab, k, math.inf)
           if not r.is_origin]
    assert len(got) == len(ref)
    nearest = [min(range(len(ref)), key=lambda i: abs(w - ref[i]))
               for w in got]
    assert sorted(nearest) == list(range(len(ref)))
    for w, i in zip(got, nearest):
        assert abs(w - ref[i]) <= 1e-8 * abs(ref[i]), w


def _expected_flags(tab, k, w):
    """(in_stable_region, imag_axis_stable) from scalar evaluations."""
    both = (abs(stability_eval(tab, w)) < 1.0
            and abs(stability_eval(tab, k * w)) < 1.0)
    tol = 1e-9 * max(1.0, abs(w))
    return (both and abs(w.imag) <= tol and w.real > 1e-12,
            both and abs(w.real) <= tol and abs(w.imag) > 1e-12)


@pytest.mark.parametrize("w_max", [100.0, 1e6])
@pytest.mark.parametrize("tab", [FWE, ERK2, ERK3, ERK4],
                         ids=lambda t: t.name)
def test_root_flags_match_scalar_evaluation(tab, w_max):
    for k in range(2, 17):
        origin, *records = singularity_roots(tab, k, w_max)
        assert origin.is_origin
        for rec in records:
            assert 0 < abs(rec.w) <= w_max
            assert (rec.in_stable_region, rec.imag_axis_stable) == \
                _expected_flags(tab, k, rec.w), (tab.name, k, rec.w)


def test_root_flags_follow_geometry_where_both_propagators_are_stable(
        monkeypatch):
    # with lam = mu = 0 everywhere the flags read the root's place alone:
    # erk2's k = 2 root w = 4 is real and positive
    monkeypatch.setattr(explicit_analysis, "stability_eval_batch",
                        lambda tab, w: np.zeros_like(w))
    flagged = 0
    for tab in (FWE, ERK2, ERK3, ERK4):
        for k in range(2, 17):
            for rec in singularity_roots(tab, k, 1e6)[1:]:
                w = rec.w
                tol = 1e-9 * max(1.0, abs(w))
                assert rec.in_stable_region == (abs(w.imag) <= tol
                                                and w.real > 1e-12)
                assert rec.imag_axis_stable == (abs(w.real) <= tol
                                                and abs(w.imag) > 1e-12)
                flagged += rec.in_stable_region
    assert singularity_roots(ERK2, 2, 10.0)[1].in_stable_region
    assert flagged > 0


def test_two_stability_evaluations_per_scheme_and_k(monkeypatch):
    calls = []
    real = explicit_analysis.stability_eval_batch
    monkeypatch.setattr(explicit_analysis, "stability_eval_batch",
                        lambda tab, w: calls.append(np.size(w)) or real(tab, w))
    for tab in (FWE, ERK2, ERK3, ERK4):
        for k in range(2, 17):
            calls.clear()
            n = len(singularity_roots(tab, k, 100.0)) - 1
            assert calls == ([n, n] if n else []), (tab.name, k)


@pytest.mark.parametrize("w_max", [math.nan, -1.0, 0.0, -math.inf])
def test_singularity_roots_rejects_nonpositive_w_max(w_max):
    with pytest.raises(ValueError, match="w_max must be positive"):
        singularity_roots(ERK2, 4, w_max)


@pytest.mark.parametrize("tab, k", [(ERK2, 779), (ERK3, 728), (ERK4, 717)],
                         ids=["erk2", "erk3", "erk4"])
def test_singularity_roots_rejects_an_overflowing_gap_polynomial(tab, k):
    # P(w)^k's coefficients overflow double precision from these k on; the
    # roots of what is left would be the origin alone, with a multiplicity
    # above the polynomial's degree (2,001 for erk2 at k = 1000)
    assert np.isfinite(gap_polynomial(tab, tab, k - 1)).all()
    for kk in (k, 1000):
        with pytest.raises(ValueError, match=f"^{tab.name} at k = {kk}: "):
            singularity_roots(tab, kk, 100.0)


def test_infinite_w_max_keeps_every_root():
    # the origin, of multiplicity s + 1 = 3, and the other s*k - 3 roots
    records = singularity_roots(ERK2, 4, math.inf)
    assert records[0].multiplicity == 3 and len(records) == 1 + 2 * 4 - 3


def test_roots_csv_format():
    buf = io.StringIO()
    roots_to_csv(singularity_roots(ERK2, 2, 10.0), buf, ["config: t"])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# config: t"
    assert lines[1] == "re,im,in_stable_region"
    assert all(line.count(",") == 2 for line in lines[2:])
