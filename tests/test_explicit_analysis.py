import io
import math

import numpy as np
import pytest

from pintlab.butcher import ButcherTableau, get_scheme
from pintlab.explicit_analysis import (NotTruncatedExponential,
                                       check_taylor_optimality,
                                       phi_k_polynomial, roots_to_csv,
                                       singularity_roots,
                                       stability_polynomial)

FWE = get_scheme("fwe")
ERK2 = get_scheme("erk2")
ERK3 = get_scheme("erk3")
ERK4 = get_scheme("erk4")


def test_single_step_polynomials_are_truncated_exponentials():
    for tab in (FWE, ERK2, ERK3, ERK4):
        poly = stability_polynomial(tab)
        assert poly.degree == tab.s
        for l, c in enumerate(poly.coefficients):
            assert c == pytest.approx(1.0 / math.factorial(l), rel=1e-14)


def test_stability_polynomial_rejects_implicit():
    with pytest.raises(ValueError):
        stability_polynomial(get_scheme("bwe"))


def test_phi_k_fwe_squared():
    poly = phi_k_polynomial(FWE, 2)
    assert poly.in_powers_of_w() == pytest.approx([1.0, -2.0, 1.0])


def test_phi_k_erk2_low_order():
    poly = phi_k_polynomial(ERK2, 2)
    assert poly.degree == 4
    assert poly.in_powers_of_w()[:3] == pytest.approx([1.0, -2.0, 2.0])


def test_phi_k_erk3_cubed():
    # oracle: through degree s the convolved power matches the exponential
    # series of the triple step, coefficients (-3)^l / l!
    poly = phi_k_polynomial(ERK3, 3)
    assert poly.degree == 9
    got = poly.in_powers_of_w()[:4]
    expected = [(-3.0) ** l / math.factorial(l) for l in range(4)]
    assert got == pytest.approx(expected, rel=1e-13)
    assert got == pytest.approx([1.0, -3.0, 4.5, -4.5], rel=1e-13)


def test_phi_k_degree():
    for tab, k in [(ERK2, 5), (ERK4, 3)]:
        assert phi_k_polynomial(tab, k).degree == tab.s * k


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
        fine = np.asarray(phi_k_polynomial(tab, k).in_powers_of_w())
        single = stability_polynomial(tab).in_powers_of_w()
        coarse = np.zeros_like(fine)
        for l, c in enumerate(single):
            coarse[l] = c * float(k) ** l
        p = coarse - fine
        scale = np.max(np.abs(p))
        for rec in singularity_roots(tab, k, 1e6):
            val = np.polynomial.polynomial.polyval(rec.w, p)
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


def test_roots_csv_format():
    buf = io.StringIO()
    roots_to_csv(singularity_roots(ERK2, 2, 10.0), buf, ["config: t"])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# config: t"
    assert lines[1] == "re,im,in_stable_region"
    assert all(line.count(",") == 2 for line in lines[2:])
