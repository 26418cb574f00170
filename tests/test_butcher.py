import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pintlab import butcher
from pintlab.bounds import BoundQuery, bound_values
from pintlab.butcher import (REGISTRY, ButcherTableau, OrderMismatch,
                             PoleError, classify_stability, get_scheme,
                             make_trbdf2, scheme_names, stability_eval,
                             stability_eval_batch, verify_order)

from mp_reference import mp_stage_form

ALL_NAMES = ["bwe", "fwe", "midpoint", "trapezoid", "sdirk22", "sdirk23",
             "sdirk33", "sdirk34", "esdirk32", "esdirk33", "gauss4",
             "trbdf2", "erk2", "erk3", "erk4"]


def test_registry_complete():
    for name in ALL_NAMES:
        tab = get_scheme(name)
        assert tab.s >= 1
        assert tab.order >= 1


def test_row_sum_consistency():
    for tab in REGISTRY:
        assert np.allclose(tab.A.sum(axis=1), tab.c, atol=1e-12)


@pytest.mark.parametrize("name,expected", [
    ("bwe", True), ("fwe", False), ("midpoint", False), ("trapezoid", True),
    ("sdirk22", True), ("sdirk23", False), ("sdirk33", True),
    ("sdirk34", False), ("esdirk32", True), ("esdirk33", True),
    ("gauss4", False), ("trbdf2", True), ("erk2", False),
])
def test_stiffly_accurate_flags(name, expected):
    assert get_scheme(name).stiffly_accurate is expected


def test_explicit_flags():
    for name in ALL_NAMES:
        tab = get_scheme(name)
        assert tab.explicit_flag == name.startswith(("fwe", "erk"))


# --- stability_eval -------------------------------------------------------

def test_bwe_at_one():
    assert stability_eval(get_scheme("bwe"), 1.0) == pytest.approx(0.5)


def test_trapezoid_at_two():
    assert abs(stability_eval(get_scheme("trapezoid"), 2.0)) < 1e-14


def test_bwe_stiff_limit():
    assert abs(stability_eval(get_scheme("bwe"), 1e12)) < 1e-11


def test_erk2_at_half():
    assert stability_eval(get_scheme("erk2"), 0.5) == pytest.approx(0.625)


def test_w_zero_is_exactly_one():
    for tab in REGISTRY:
        assert stability_eval(tab, 0.0) == 1.0


def test_explicit_schemes_are_truncated_exponentials():
    # order p == s explicit schemes evaluate to sum (-w)^l / l!
    for name in ["fwe", "erk2", "erk3", "erk4"]:
        tab = get_scheme(name)
        w = np.array([0.3 + 0.4j, -1.2 + 0.1j, 2.0 + 0j, 0.05j])
        expected = sum((-w) ** l / math.factorial(l)
                       for l in range(tab.s + 1))
        got = stability_eval_batch(tab, w)
        assert np.all(np.abs(got - expected) <= 1e-14 * np.abs(expected))


def test_mpmath_reference_cross_check():
    mags = np.geomspace(1e-3, 1e8, 56)
    for tab in REGISTRY:
        for axis in (1.0, 1j):
            ws = mags * axis
            got = stability_eval_batch(tab, ws)
            for w, lam in zip(ws, got):
                ref = complex(mp_stage_form(tab, complex(w)))
                assert abs(lam - ref) <= 1e-14 * max(1.0, abs(ref)), \
                    (tab.name, w, lam, ref)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(REGISTRY.names()),
       log_w=st.floats(-8.0, 8.0),
       unit=st.sampled_from([1.0, 1j, -1j]))
def test_rational_form_matches_the_stage_form(name, log_w, unit):
    # P/Q by Horner against lam(w) = 1 - w b^T (I + wA)^{-1} 1 in 50 digits,
    # at random w on the real positive and the imaginary axis
    tab = get_scheme(name)
    w = 10.0 ** log_w * unit
    ref = complex(mp_stage_form(tab, complex(w)))
    assert abs(stability_eval(tab, w) - ref) <= 1e-14 * max(1.0, abs(ref))


@pytest.mark.parametrize("dtype", [complex, np.clongdouble])
def test_infinite_w_reads_lam_inf(dtype):
    # every direction of |w| = inf reads lam(inf), with no pole, nan or
    # warning: 0 for L-stable schemes, -1 for midpoint and trapezoid, the
    # ratio of the leading coefficients otherwise, inf for explicit ones
    w = np.array([np.inf, -np.inf, complex(0, np.inf), complex(0, -np.inf),
                  0.5])
    expected = {"bwe": 0.0, "midpoint": -1.0, "trapezoid": -1.0,
                "gauss4": 1.0, "fwe": math.inf, "erk4": math.inf}
    for tab in REGISTRY:
        with np.errstate(all="raise"):
            got = stability_eval_batch(tab, w, dtype=dtype)
        assert np.all(got[:4] == tab.lam_inf), tab.name
        assert got[4] == stability_eval_batch(tab, [0.5], dtype=dtype)[0]
        assert (tab.lam_inf == 0.0) == (tab.stability_class == "L_stable")
        if tab.name in expected:
            assert tab.lam_inf == expected[tab.name], tab.name
    P, Q = get_scheme("sdirk34").limit
    assert get_scheme("sdirk34").lam_inf == float(P[-1] / Q[-1]) != 0.0
    real = stability_eval_batch(get_scheme("sdirk33"), [np.inf, 1.0],
                                dtype=np.longdouble)
    assert real.dtype == np.longdouble and real[0] == 0.0


def test_limit_trims_exact_zeros_only():
    # trapezoid's and the ESDIRKs' Q has an exact-zero leading
    # coefficient, trimmed for the limit; P and Q themselves keep it
    for name in ("trapezoid", "esdirk32", "esdirk33", "trbdf2"):
        tab = get_scheme(name)
        assert tab.Q[-1] == 0 and len(tab.Q) == tab.s + 1
        assert len(tab.limit[1]) == tab.s
    assert get_scheme("trapezoid").lam_inf == -1.0
    # a coefficient above 16 units of roundoff of its polynomial's largest
    # is no residue: a one-stage scheme with b = a - 4e-14 keeps it
    tab = ButcherTableau("near-bwe", [[1.0]], [1.0 - 4e-14], [1.0], 1,
                         "A_stable")
    assert not tab.stiffly_accurate
    assert tab.lam_inf == pytest.approx(4e-14, rel=1e-3)


@pytest.mark.parametrize("name, residue", [("esdirk32", 0.37),
                                           ("trbdf2", 0.22)])
def test_limit_reads_a_rounding_residue_as_zero(name, residue):
    # the w^2 coefficient of P is an exact 0 of the scheme left as a
    # fraction of one unit of roundoff: read as 0, lam(inf) is 0 and not
    # the 9.5e-16 or 5.7e-16 its ratio gives; finite w keeps it
    tab = get_scheme(name)
    P, Q = tab.P, tab.Q
    units = abs(P[2]) / (np.finfo(float).eps * np.max(np.abs(P)))
    assert units == pytest.approx(residue, abs=0.01)
    assert abs(float(P[2] / Q[2])) > 5e-16
    assert len(tab.limit[0]) == 2 and tab.lam_inf == 0.0
    assert stability_eval(tab, 1e150) == pytest.approx(float(P[2] / Q[2]))


def test_stiffly_accurate_numerator_degree():
    # b := A[-1] zeroes the last row of A - 1 b^T, so det vanishes exactly
    stiff = [tab for tab in REGISTRY if tab.stiffly_accurate]
    assert len(stiff) == 7
    for tab in stiff:
        assert tab.P[tab.s] == 0, tab.name


@pytest.mark.parametrize("k", [2, 64])
@pytest.mark.parametrize("relax", ["F", "FCF"])
def test_esdirk33_bound_nondecreasing_at_large_w(k, relax):
    # the golden Table 2 argmax = inf for esdirk33 rests on this
    tab = get_scheme("esdirk33")
    q = BoundQuery(tab, tab, k, relax)
    phi = bound_values(q, np.geomspace(1e6, 1e9, 200))
    assert np.all(np.diff(phi) >= 0.0)


def test_pole_error():
    # bwe has its pole at w = -1
    with pytest.raises(PoleError):
        stability_eval(get_scheme("bwe"), -1.0)


def test_overflowing_horner_sum_is_no_pole():
    # sdirk33's Horner sum overflows at |w| = 1e104 on either axis, where
    # no pole can be told from a large |Q(w)|
    for w in (1e104, 1e104j):
        with pytest.raises(ValueError,
                           match=r"^sdirk33: \|w\| = 1e\+104 is too large"):
            with np.errstate(over="ignore", invalid="ignore"):
                stability_eval(get_scheme("sdirk33"), w)


# --- verify_order ---------------------------------------------------------

def test_verify_order_registry():
    for tab in REGISTRY:
        assert verify_order(tab) == tab.order


def test_order_mismatch_detected():
    bad = ButcherTableau("bad-bwe", [[1.0]], [1.0], [1.0], 2, "L_stable")
    with pytest.raises(OrderMismatch):
        verify_order(bad)


# --- classify_stability ---------------------------------------------------

def test_classification_matches_declared():
    for tab in REGISTRY:
        assert classify_stability(tab) == tab.stability_class


def test_trbdf2_parameter_classes():
    assert classify_stability(make_trbdf2(2.0 - math.sqrt(2.0))) == "L_stable"
    assert classify_stability(make_trbdf2(0.5)) == "A_stable"


def test_trbdf2_name_lookup():
    tab = get_scheme("trbdf2:0.5")
    assert tab.stability_class == "A_stable"
    with pytest.raises(KeyError):
        get_scheme("trbdf2:abc")
    with pytest.raises(KeyError):
        get_scheme("nope")


def test_trbdf2_lookups_share_one_tableau():
    assert get_scheme("trbdf2") is get_scheme("trbdf2")
    assert get_scheme("trbdf2:0.5") is get_scheme("TRBDF2:0.50")
    assert get_scheme(f"trbdf2:{2.0 - math.sqrt(2.0)!r}") \
        is get_scheme("trbdf2")
    assert scheme_names().count("trbdf2") == 1
    assert [t.name for t in REGISTRY].count("trbdf2") == 1


def test_midpoint_equals_trapezoid_pointwise():
    # one-stage midpoint and two-stage trapezoid share a stability function;
    # they stay distinct registry entries
    mid, trap = get_scheme("midpoint"), get_scheme("trapezoid")
    w = np.geomspace(1e-6, 1e6, 200) * np.exp(1j * 0.7)
    a = stability_eval_batch(mid, w)
    b = stability_eval_batch(trap, w)
    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(a)))


def test_sdirk22_equals_esdirk32_pointwise():
    a22, e32 = get_scheme("sdirk22"), get_scheme("esdirk32")
    w = np.geomspace(1e-6, 1e6, 200).astype(complex)
    a = stability_eval_batch(a22, w)
    b = stability_eval_batch(e32, w)
    assert np.all(np.abs(a - b) <= 1e-11 * np.maximum(1.0, np.abs(a)))


def test_tableau_rejects_bad_row_sums():
    with pytest.raises(ValueError):
        ButcherTableau("broken", [[0.5]], [1.0], [0.9], 1, "A_stable")


@pytest.mark.parametrize("A, b, c", [
    ([[math.inf]], [1.0], [math.inf]),
    ([[0.5]], [math.nan], [0.5]),
    ([[0.0, 0.0], [math.inf, -math.inf]], [0.5, 0.5], [0.0, 0.0]),
], ids=["A", "b", "row_sum_of_infinities"])
def test_tableau_rejects_non_finite_coefficients(A, b, c):
    # before the row-sum check, whose sum of infinities would warn
    with pytest.raises(ValueError, match="coefficients must be finite"):
        ButcherTableau("broken", A, b, c, 1, "A_stable")
