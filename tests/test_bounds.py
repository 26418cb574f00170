import io
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pintlab import bounds
from pintlab.bounds import (_CROSSING_TOL, _PEAK_TOL, _SECTIONS, INFINITY,
                            RELAXATIONS, BoundQuery, PropagatorSpec,
                            _sweep_many,
                            bound_values, max_over_k, spectrum_max, sweep,
                            sweep_function, two_iteration_product)
from pintlab.butcher import (REGISTRY, get_scheme, stability_eval,
                             stability_eval_batch)
from pintlab.golden import K_VALUES

from mp_reference import mp_stage_form

BWE = get_scheme("bwe")
TRAP = get_scheme("trapezoid")
SDIRK22 = get_scheme("sdirk22")
SDIRK33 = get_scheme("sdirk33")
ESDIRK33 = get_scheme("esdirk33")
MIDPOINT = get_scheme("midpoint")


def query(fine, coarse, k, relax="F", **kw):
    return BoundQuery(PropagatorSpec.uniform(fine, k), coarse, k, relax, **kw)


def lam_k(fine, w, axis="real_positive"):
    """|lam^k| over one interval of the fine PropagatorSpec at the
    magnitudes w, as bound_values evaluates it: a theta = 0 query's coarse
    factor is 0, so its F bound is |0 - lam^k| / (1 - 0)."""
    q = BoundQuery(fine, BWE, round(fine.k), theta=0.0, axis=axis)
    return bound_values(q, np.asarray(w, dtype=float))


# --- eigenvalues -----------------------------------------------------------

def test_coarse_eigenvalue_examples():
    # the coarse factor mu(w) is the coarse scheme at k w
    assert stability_eval(BWE, 2 * 1.0) == pytest.approx(1.0 / 3.0)
    assert stability_eval(BWE, 4 * 1j) == pytest.approx(1.0 / (1.0 + 4.0j))
    assert abs(stability_eval(TRAP, 2 * 1.0)) < 1e-14


def test_fine_interval_eigenvalue_uniform():
    spec = PropagatorSpec.uniform(BWE, 2)
    assert lam_k(spec, [1.0])[0] == pytest.approx(0.25)
    spec = PropagatorSpec.uniform(get_scheme("erk2"), 2)
    assert lam_k(spec, [0.5])[0] == pytest.approx(0.390625)


def test_fine_interval_eigenvalue_mixed_limit():
    # two strongly damped steps force the interval product to zero at
    # large w even though the trailing scheme stays marginal there
    spec = PropagatorSpec(((SDIRK22, 1.0), (SDIRK22, 1.0),
                           (TRAP, 1.0), (TRAP, 1.0)))
    # oracle: direct product of the four per-step factors
    w = 1e8
    product = 1.0 + 0.0j
    for tab, frac in spec.steps:
        product *= stability_eval(tab, frac * w)
    got = lam_k(spec, [w])[0]
    assert got == pytest.approx(abs(product))
    assert got < 1e-6


@pytest.mark.parametrize("name",
                         ["bwe", "sdirk33", "gauss4", "trapezoid", "erk4"])
def test_fine_interval_eigenvalue_kth_power(name):
    # a uniform spec raises one evaluation to the k-th power; compare with
    # the 50-digit |lam(w)^k| of the same float tableau
    tab = get_scheme(name)
    for k in (2, 64, 512):
        spec = PropagatorSpec.uniform(tab, k)
        for w in (1e-3, 0.1, 1.0, 1e-3j, 0.1j, 1j):
            axis = "imaginary" if isinstance(w, complex) else "real_positive"
            got = lam_k(spec, [abs(w)], axis)[0]
            with mpmath.workdps(50):
                ref = abs(mp_stage_form(tab, w) ** k)
                err = float(abs(got - ref) / ref)
            assert err <= 1e-15 * k, (k, w, err)


def test_propagator_spec_validation():
    with pytest.raises(ValueError):
        PropagatorSpec(())
    with pytest.raises(ValueError):
        PropagatorSpec(((BWE, -1.0),))
    with pytest.raises(ValueError):
        BoundQuery(PropagatorSpec.uniform(BWE, 3), BWE, 2)


# --- pointwise bound -------------------------------------------------------

def test_pointwise_simple_bwe():
    # exact value w/(2(1+w)^2) at w=1 is 1/8
    v = bound_values(query(BWE, BWE, 2), [1.0])[0]
    assert v == pytest.approx(0.125)
    assert abs(v - 0.13) <= 0.005 + 1e-9


def test_pointwise_vanishes_at_small_w():
    assert bound_values(query(BWE, BWE, 2), [1e-8])[0] < 1e-6


def test_pointwise_cn_bwe_tight_near_one():
    q = query(MIDPOINT, BWE, 2, Nc=100.0, bound_kind="upper_tight")
    v = bound_values(q, [1e6])[0]
    assert 0.9 < v < 1.0


def test_pointwise_theta_zero_gives_fine_power():
    v = bound_values(query(BWE, BWE, 2, theta=0.0), [1.0])[0]
    assert v == pytest.approx(0.25)


def test_stability_error_simple_kind():
    # an explicit coarse scheme beyond its stability window: the bound is
    # unbounded there
    q = query(get_scheme("fwe"), get_scheme("fwe"), 2)
    assert bound_values(q, np.array([5.0]))[0] == INFINITY


def test_tight_kind_tolerates_marginal_coarse():
    # trapezoid has |mu| = 1 on the whole imaginary axis; the Nc-aware
    # bound is still defined there
    q = query(TRAP, TRAP, 4, Nc=256.0, bound_kind="upper_tight",
              axis="imaginary")
    v = bound_values(q, [0.05])[0]
    assert 0.0 < v < 1.0


def test_explicit_overflow_reads_inf_not_nan():
    # far outside erk2's stability region lam^k overflows to inf + inf j,
    # and under FCF |lam^k| = inf meets phi = 0: both are unbounded
    erk2 = get_scheme("erk2")
    q = query(erk2, erk2, 32, "FCF")
    got = bound_values(q, np.array([1e3, 1e6, 1e9]))
    assert np.array_equal(got, [np.inf, np.inf, np.inf])


def test_imaginary_simple_never_guarded():
    q = query(TRAP, TRAP, 4, axis="imaginary")
    assert bound_values(q, np.array([1e-8]))[0] == INFINITY


def test_theta_validation():
    with pytest.raises(ValueError):
        query(BWE, BWE, 2, relax="FCF", theta=0.5)


# --- invariants ------------------------------------------------------------

@pytest.mark.parametrize("kind", ["lower_tight", "upper_tight"])
def test_fcf_tight_bound_is_f_bound_at_nc_minus_1_times_lam_k(kind):
    # the FCF propagator is Toeplitz on Nc - 1 C-points
    w = np.geomspace(1e-3, 1e3, 40)
    for fine, coarse, k in [(BWE, BWE, 2), (SDIRK33, BWE, 4)]:
        fcf = bound_values(query(fine, coarse, k, "FCF", Nc=64.0,
                                 bound_kind=kind), w)
        f = bound_values(query(fine, coarse, k, Nc=63.0, bound_kind=kind), w)
        lamk = lam_k(PropagatorSpec.uniform(fine, k), w)
        np.testing.assert_allclose(fcf, lamk * f, rtol=1e-14, atol=0)


@pytest.mark.parametrize("kind", ["lower_tight", "upper_tight"])
def test_fcf_tight_bound_needs_two_coarse_points(kind):
    with pytest.raises(ValueError, match="Nc must be >= 2"):
        query(BWE, BWE, 2, "FCF", Nc=1.0, bound_kind=kind)
    query(BWE, BWE, 2, "FCF", Nc=2.0, bound_kind=kind)
    query(BWE, BWE, 2, "F", Nc=1.0, bound_kind=kind)
    query(BWE, BWE, 2, "FCF", Nc=1.0)            # the simple kind has no Nc

def test_sandwich_ordering():
    w = np.geomspace(1e-6, 1e6, 50)
    for fine, coarse, k in [(BWE, BWE, 2), (SDIRK33, BWE, 4),
                            (ESDIRK33, ESDIRK33, 4), (TRAP, BWE, 8)]:
        lo = bound_values(query(fine, coarse, k, Nc=32.0,
                                bound_kind="lower_tight"), w)
        hi = bound_values(query(fine, coarse, k, Nc=32.0,
                                bound_kind="upper_tight"), w)
        simple = bound_values(query(fine, coarse, k), w)
        finite = np.isfinite(simple)
        assert np.all(lo <= hi + 1e-12)
        assert np.all(hi[finite] <= simple[finite] + 1e-12)


def test_small_w_order_of_difference():
    # |mu - lam^k| = O(w^(min(p1,p2)+1)); measured in extended precision
    # since double-precision cancellation hides the high-order signal
    from pintlab.butcher import stability_eval_batch
    pairs = [("bwe", "bwe", 2), ("trapezoid", "trapezoid", 3),
             ("sdirk22", "trapezoid", 3), ("sdirk23", "sdirk33", 4),
             ("erk2", "erk2", 3), ("esdirk33", "esdirk32", 3)]
    ld = np.longdouble
    ws = np.geomspace(ld(1e-4), ld(1e-3), 9, dtype=ld)
    for fine, coarse, expected in pairs:
        ftab, ctab = get_scheme(fine), get_scheme(coarse)
        k = 4
        lam = stability_eval_batch(ftab, ws, dtype=ld) ** k
        mu = stability_eval_batch(ctab, k * ws, dtype=ld)
        diff = np.abs(mu - lam).astype(float)
        slope = np.polyfit(np.log(ws.astype(float)), np.log(diff), 1)[0]
        assert slope >= expected - 0.1, (fine, coarse, slope)


def test_real_axis_vanishing_limit_all_pairs():
    names = ["bwe", "fwe", "midpoint", "trapezoid", "sdirk22", "sdirk23",
             "sdirk33", "sdirk34", "esdirk32", "esdirk33", "gauss4",
             "trbdf2", "erk2", "erk3", "erk4"]
    w = np.array([1e-6])
    for f in names:
        for c in names:
            for relax in ("F", "FCF"):
                q = query(get_scheme(f), get_scheme(c), 2, relax)
                assert bound_values(q, w)[0] < 1e-3, (f, c, relax)


def test_l_stable_limits():
    w = np.array([1e10])
    # both L-stable: bound vanishes at large w
    for f, c in [("bwe", "bwe"), ("sdirk22", "sdirk33"),
                 ("esdirk32", "bwe"), ("trbdf2", "sdirk22")]:
        for relax in ("F", "FCF"):
            q = query(get_scheme(f), get_scheme(c), 2, relax)
            assert bound_values(q, w)[0] < 1e-4, (f, c, relax)
    # A-stable fine, L-stable coarse: F bounded by 1, FCF by |lam^k|
    for f in ["midpoint", "trapezoid", "sdirk23", "sdirk34", "gauss4",
              "esdirk33"]:
        ftab = get_scheme(f)
        qf = query(ftab, BWE, 2, "F")
        assert bound_values(qf, w)[0] <= 1.0 + 1e-9, f
        qc = query(ftab, BWE, 2, "FCF")
        lamk = lam_k(qc.fine, w)[0]
        assert bound_values(qc, w)[0] <= lamk + 1e-9, f


def test_fcf_identity():
    w = np.geomspace(1e-4, 1e4, 30)
    qf = query(SDIRK33, BWE, 4, "F")
    qc = query(SDIRK33, BWE, 4, "FCF")
    lamk = lam_k(qc.fine, w)
    assert np.array_equal(bound_values(qc, w), lamk * bound_values(qf, w))


@settings(max_examples=200, deadline=None, database=None)
@given(fine=st.sampled_from(REGISTRY.names()),
       coarse=st.sampled_from(REGISTRY.names()), k=st.integers(2, 16),
       axis=st.sampled_from(["real_positive", "imaginary"]),
       log_w=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8))
def test_fcf_identity_property(fine, coarse, k, axis, log_w):
    # on random w, both axes and any registry pair, explicit overflows
    # included: inf times 0 (an unbounded sample where |lam^k| = 0, or the
    # reverse) is unbounded
    w = 10.0 ** np.asarray(log_w)
    spec = PropagatorSpec.uniform(get_scheme(fine), k)
    qf, qc = (BoundQuery(spec, get_scheme(coarse), k, relax, axis=axis)
              for relax in ("F", "FCF"))
    with np.errstate(over="ignore", invalid="ignore"):
        want = lam_k(spec, w, axis) * bound_values(qf, w)
    want[np.isnan(want)] = INFINITY
    got = bound_values(qc, w)
    # from w = 1e-4 on the bound runs in double, as this product does, so
    # the two agree bit for bit; below, bound_values rounds the product
    # once from extended precision, and the product of its two rounded
    # factors may sit an ulp away
    double = w >= 1e-4
    assert np.array_equal(got[double], want[double])
    assert np.allclose(got[~double], want[~double], atol=0.0,
                       rtol=4 * np.finfo(float).eps)


def test_parity_of_k_matters():
    # at large w the odd-power fine factor keeps the FCF bound convergent
    # while the even power does not
    v2 = bound_values(query(ESDIRK33, ESDIRK33, 2, "FCF"), [1e6])[0]
    v3 = bound_values(query(ESDIRK33, ESDIRK33, 3, "FCF"), [1e6])[0]
    assert v2 > 1.0
    assert v3 < 1.0


def test_real_axis_small_w_matches_mpmath():
    # |mu - lam^k| is a tiny difference of numbers near 1 at small w, so
    # double precision would leave only rounding noise here
    fine, coarse = get_scheme("trbdf2:0.5"), BWE
    q = query(fine, coarse, 2)
    w = np.geomspace(1e-8, 1e-3, 12)
    got = bound_values(q, w)
    for wi, phi in zip(w, got):
        with mpmath.workdps(50):
            mu = mp_stage_form(coarse, complex(2 * wi))
            num = abs(mu - mp_stage_form(fine, complex(wi)) ** 2)
            ref = num / (1 - abs(mu))
            err = float(abs(phi - ref) / ref)
        assert err <= 1e-3, (wi, phi, float(ref))


# --- sweep -----------------------------------------------------------------

def test_sweep_sdirk22_k8():
    curve = sweep(query(SDIRK22, SDIRK22, 8))
    assert abs(curve.max_phi - 0.26) <= 0.01
    assert abs(curve.argmax_w - 1.0) <= 0.05
    assert curve.threshold == INFINITY


def test_sweep_trapezoid_unbounded_threshold():
    curve = sweep(query(TRAP, TRAP, 2))
    assert curve.unbounded
    assert curve.argmax_w == INFINITY
    assert abs(curve.threshold - 2.87) <= 0.01


def test_sweep_sdirk33_fcf():
    curve = sweep(query(SDIRK33, SDIRK33, 4, "FCF"))
    assert abs(curve.max_phi - 0.005) <= 0.001
    assert abs(curve.argmax_w - 0.43) <= 0.02


def test_sweep_imaginary_bwe_family():
    # the worst case is approached at the small-w end of the axis and is
    # insensitive to the number of coarse steps
    for nc in (16.0, 64.0, 256.0, INFINITY):
        curve = sweep(query(BWE, BWE, 4, Nc=nc, bound_kind="upper_tight",
                            axis="imaginary"), w_min=1e-6)
        assert abs(curve.max_phi - 0.815) <= 0.01, nc


def test_sweep_samples_sorted_and_nonnegative():
    curve = sweep(query(SDIRK22, BWE, 4))
    w = curve.samples[:, 0]
    phi = curve.samples[:, 1]
    assert np.all(np.diff(w) >= 0)
    assert np.all(phi >= 0)


@pytest.mark.parametrize("name", REGISTRY.names())
def test_sweep_matches_dense_reference(name):
    # the sweep's 512 samples plus refinement must agree with a 2^16-point
    # grid on the same window: max, unbounded flag and threshold
    tab = get_scheme(name)
    w = np.geomspace(1e-8, 1e8, 2 ** 16)
    for k in K_VALUES:
        for relax in ("F", "FCF"):
            q = query(tab, tab, k, relax)
            curve = sweep(q)
            dense = bound_values(q, w)
            case = (name, k, relax)
            dense_unbounded = bool(np.any(~(dense <= 1e6)))
            if curve.unbounded:
                assert dense_unbounded or curve.argmax_w == INFINITY, case
            else:
                assert not dense_unbounded, case
                top = float(np.max(dense))
                assert top - 1e-9 <= curve.max_phi, (case, curve.max_phi, top)
                assert curve.max_phi <= top + max(0.005, 1e-4 * top), \
                    (case, curve.max_phi, top)
            over = np.flatnonzero(~(dense < 1.0))
            if over.size == 0:
                assert curve.threshold > w[-1], case
            elif over[0] == 0:
                assert curve.threshold == 0.0, case
            else:
                first = w[over[0]]
                assert abs(curve.threshold - first) <= 1e-3 * first, \
                    (case, curve.threshold, first)


def _humps(w, n, height):
    # n equal humps of the given height across log10 w in [-8, 8]
    return height * np.sin(np.pi * n * (np.log10(w) + 8.0) / 16.0) ** 2


def _bump(w, centre, height):
    return height * np.exp(-((np.log10(w) - centre) / 0.5) ** 2)


def _counted_sweep(curve):
    """sweep_function on [1e-8, 1e8] plus the size of every call of `fun`.

    The first refinement call probes _SECTIONS points per refined
    candidate, so sizes[1] // _SECTIONS is the number of candidates.
    """
    sizes = []

    def fun(w):
        assert isinstance(w, np.ndarray) and w.ndim == 1
        sizes.append(w.size)
        return curve(w)

    return sweep_function(fun, 1e-8, 1e8), sizes


def test_sweep_probes_whole_arrays():
    (_, max_phi, _, threshold), sizes = _counted_sweep(
        lambda w: _humps(w, 50, 0.8))
    assert sizes[1] // _SECTIONS == 50
    assert len(sizes) <= 32, len(sizes)
    assert max_phi == pytest.approx(0.8, rel=1e-6)
    assert threshold == INFINITY


def test_sweep_refines_one_peak_in_few_calls():
    # the base pass with the tail probe, then the four multisection rounds
    # down to log-width 1e-4
    (_, max_phi, _, _), sizes = _counted_sweep(lambda w: _bump(w, 0.0, 0.5))
    assert len(sizes) <= 5, sizes
    assert max_phi == pytest.approx(0.5, rel=1e-9)


@pytest.mark.parametrize("relax", ["F", "FCF"])
@pytest.mark.parametrize("k", [2, 4, 16])
def test_sweep_argmax_matches_exact(k, relax):
    # bwe/bwe on the real axis has one interior peak; its exact argmax is
    # the root of dphi/dw (w = 1 for F and 1/3 for FCF at k = 2)
    q = query(BWE, BWE, k, relax)
    curve = sweep(q)

    def phi(w):
        lamk, mu = 1 / (1 + w) ** k, 1 / (1 + k * w)
        out = (mu - lamk) / (1 - mu)
        return lamk * out if relax == "FCF" else out

    with mpmath.workdps(50):
        exact = float(mpmath.findroot(
            lambda w: mpmath.diff(phi, w),
            (curve.argmax_w / 2, curve.argmax_w * 2), solver="illinois"))
    if k == 2:
        assert exact == pytest.approx(1.0 if relax == "F" else 1.0 / 3.0,
                                      rel=1e-12)
    assert abs(curve.argmax_w - exact) <= 1e-4 * exact, (curve.argmax_w,
                                                         exact)


def test_sweep_plateau_refines_once_from_its_start():
    (_, max_phi, argmax_w, _), sizes = _counted_sweep(
        lambda w: np.minimum(_bump(w, 0.0, 1.0), 0.5))
    assert sizes[1] // _SECTIONS == 1
    assert max_phi == 0.5
    start = 10.0 ** (-0.5 * np.sqrt(np.log(2.0)))  # where the bump hits 0.5
    step = 1e16 ** (1.0 / 511)
    assert start <= argmax_w <= start * step


def test_sweep_prunes_humps_below_three_tenths_of_peak():
    main = lambda w: _bump(w, 2.0, 1.0)
    (_, ref_max, ref_arg, _), ref_sizes = _counted_sweep(main)
    (_, max_phi, argmax_w, _), sizes = _counted_sweep(
        lambda w: np.maximum(main(w), _bump(w, -4.0, 0.29)))
    assert ref_sizes[1] // _SECTIONS == sizes[1] // _SECTIONS == 1
    assert (max_phi, argmax_w) == (ref_max, ref_arg)
    _, sizes = _counted_sweep(
        lambda w: np.maximum(main(w), _bump(w, -4.0, 0.31)))
    assert sizes[1] // _SECTIONS == 2


def test_sweep_caps_candidates_without_moving_max():
    (_, max_phi, _, _), sizes = _counted_sweep(lambda w: _humps(w, 80, 0.8))
    assert sizes[1] // _SECTIONS == 64
    assert max_phi == pytest.approx(0.8, rel=1e-6)


@pytest.mark.parametrize("height, unbounded", [
    (1e6 * (1.0 + 1e-6), True), (1e6 * (1.0 - 1e-6), False)],
    ids=["above", "below"])
def test_sweep_cuts_unbounded_at_one_million(height, unbounded):
    # a finite plateau: every grid sample on it reads `height` exactly
    _, max_phi, argmax_w, _ = sweep_function(
        lambda w: np.minimum(_bump(w, 0.0, 2.0 * height), height),
        1e-8, 1e8)
    assert max_phi == (INFINITY if unbounded else height)
    # in both cases argmax_w is where the plateau starts, near 10**-0.42
    assert 0.3 < argmax_w < 0.5


@pytest.mark.parametrize("tail, max_phi_expected", [
    (0.4, 0.5),            # lower tail: the window decides
    (0.5, 0.5),            # level tail: supremum approached at infinity
    (0.502, 0.502),        # slightly higher: the tail value is the supremum
    (0.9, INFINITY),       # much higher: still climbing at the edge
    (2e6, INFINITY),       # past the unbounded cut-off
])
def test_sweep_flat_window_decided_by_tail_probe(tail, max_phi_expected):
    # flat on [1e-8, 1e8]; only the probe at 10 * w_max sees `tail`
    samples, max_phi, argmax_w, threshold = sweep_function(
        lambda w: np.where(w < 5e8, 0.5, tail), 1e-8, 1e8)
    assert np.all(samples[:, 1] == 0.5)
    assert max_phi == max_phi_expected
    assert argmax_w == (1e-8 if tail < 0.5 else INFINITY)
    if tail >= 1.0:
        assert threshold == pytest.approx(5e8, rel=1e-12)
    else:
        assert threshold == INFINITY


@pytest.mark.parametrize("curve, peak, at", [
    (lambda w: -np.ones_like(w), -1.0, 1e-8),
    (lambda w: _bump(w, 1.0, 0.5) - 1.0, -0.5, 10.0)],
    ids=["constant", "hump"])
def test_sweep_of_a_negative_curve(curve, peak, at):
    # a negative max lies below max * (1 - 1e-6), so that cut would leave
    # no sample near the max
    _, max_phi, argmax_w, threshold = sweep_function(curve, 1e-8, 1e8)
    assert max_phi == pytest.approx(peak, rel=1e-6)
    assert argmax_w == pytest.approx(at, rel=1e-3)
    assert threshold == INFINITY


def test_sweep_rejects_an_infinite_window():
    # the multisection of an infinite bracket would never end
    with pytest.raises(ValueError, match="0 < w_min < w_max < inf"):
        sweep_function(lambda w: w, 1e-8, math.inf)


@pytest.mark.parametrize("k, w_min, w_max", [(2, 1e300, 1.7e308),
                                               (64, 1e300, 1e307)])
def test_sweep_rejects_a_window_whose_tail_probe_overflows(k, w_min, w_max):
    # the tail probe reads the coarse tableau at k * 10 * w_max: an
    # overflow there would read as a pole of lam
    with pytest.raises(ValueError, match="w_max too large"):
        sweep(query(BWE, BWE, k), w_min, w_max)
    with pytest.raises(ValueError, match="w_max too large"):
        sweep_function(lambda w: w, 1e300, 1.7e308)


def _lockstep_batch():
    """Every registry self-pair x K_VALUES x {F, FCF}, each on the real axis
    and under the imaginary-axis upper bound at Nc = inf and 256, plus mixed
    fine propagators (whose distinct steps come in different orders, one
    with half steps), theta = 0.5, and a lower tight pair at Nc = 64, so
    one call mixes C = 1 and C = 6."""
    out = []
    for name in REGISTRY.names():
        tab = get_scheme(name)
        for k in K_VALUES:
            for relax in ("F", "FCF"):
                out.append(query(tab, tab, k, relax))
                out += [query(tab, tab, k, relax, Nc=nc, axis="imaginary",
                              bound_kind="upper_tight")
                        for nc in (INFINITY, 256.0)]
    for steps in (((SDIRK22, 1.0), (SDIRK22, 1.0), (TRAP, 1.0), (TRAP, 1.0)),
                  ((SDIRK22, 1.0), (TRAP, 1.0), (BWE, 1.0), (SDIRK22, 1.0)),
                  ((BWE, 1.0), (TRAP, 1.0), (SDIRK22, 1.0), (SDIRK22, 1.0)),
                  ((BWE, 0.5), (BWE, 0.5), (SDIRK33, 1.0), (TRAP, 2.0))):
        out += [BoundQuery(PropagatorSpec(steps), SDIRK22, 4, relax)
                for relax in ("F", "FCF")]
    out.append(query(ESDIRK33, ESDIRK33, 4, theta=0.5))
    out += [query(SDIRK22, BWE, 4, relax, bound_kind="lower_tight", Nc=64)
            for relax in ("F", "FCF")]
    return out


def test_lockstep_sweep_matches_solo_sweeps():
    queries = _lockstep_batch()
    curves = sweep(queries)
    assert len(curves) == len(queries)
    for q, curve in zip(queries, curves):
        solo = sweep(q)
        assert curve.query is q
        assert np.array_equal(curve.samples, solo.samples), \
            q.describe()
        assert curve.max_phi == solo.max_phi, q.describe()
        assert curve.argmax_w == solo.argmax_w, q.describe()
        assert curve.threshold == solo.threshold, q.describe()


def test_lockstep_bound_values_match_one_query_calls():
    # one call over every query's points gives each point the value a call
    # of its query alone gives
    queries = _lockstep_batch()
    w = np.geomspace(1e-9, 1e9, 97)
    owner = np.repeat(np.arange(len(queries)), w.size)
    batch = bound_values(queries, np.tile(w, len(queries)), owner)
    for i, q in enumerate(queries):
        assert np.array_equal(batch[owner == i], bound_values(q, w)), \
            q.describe()


# the lockstep batch's points for the every-query form: across the
# extended-precision cut at w = 1e-4 (on both sides of it), and up to the
# tail probe's 1e9
_GRID = np.concatenate((np.geomspace(1e-9, 1e9, 97),
                        [np.nextafter(1e-4, 0.0), 1e-4]))


def test_every_query_form_matches_one_query_calls():
    queries = _lockstep_batch()
    values = bound_values(queries, _GRID)
    assert values.shape == (len(queries), _GRID.size)
    for q, row in zip(queries, values):
        assert np.array_equal(row, bound_values(q, _GRID)), q.describe()
    square = bound_values(queries[:3], _GRID[:96].reshape(8, 12))
    assert square.shape == (3, 8, 12)
    assert np.array_equal(square.reshape(3, 96), values[:3, :96])


def test_every_query_form_matches_a_shuffled_per_point_call():
    # the shared route (each key evaluated once over all points) against
    # the per-point route, on the same (query, point) pairs in random order
    queries = _lockstep_batch()
    owner = np.repeat(np.arange(len(queries)), _GRID.size)
    order = np.random.default_rng(7).permutation(owner.size)
    shuffled = bound_values(queries, np.tile(_GRID, len(queries))[order],
                            owner[order])
    per_point = np.empty_like(shuffled)
    per_point[order] = shuffled
    assert np.array_equal(per_point.reshape(len(queries), _GRID.size),
                          bound_values(queries, _GRID))


def test_every_query_form_takes_a_long_w_in_blocks(monkeypatch):
    # more points than one block: each stability evaluation sees at most
    # _BLOCK of them, and every row is its query's own call
    queries = _lockstep_batch()[::40]
    w = np.geomspace(1e-9, 1e9, 2 * bounds._BLOCK + 5)
    seen, evaluate = [], bounds.stability_eval_batch

    def counted_evaluate(tab, z, dtype=complex):
        seen.append(np.shape(z)[-1])
        return evaluate(tab, z, dtype=dtype)

    monkeypatch.setattr(bounds, "stability_eval_batch", counted_evaluate)
    values = bound_values(queries, w)
    monkeypatch.undo()
    assert max(seen) <= bounds._BLOCK
    for q, row in zip(queries, values):
        assert np.array_equal(row, bound_values(q, w)), q.describe()


def test_table2_row_base_round_evaluates_each_function_once(monkeypatch):
    # a table2 row's 12 curves share the base grid and its tail probe (513
    # points): there the fine step is evaluated once and the coarse
    # tableau once per k, not each of them once per curve (12 x 513)
    calls, points = [], []
    values, evaluate = bounds.bound_values, bounds.stability_eval_batch

    def counted_values(q, w, owner=None):
        calls.append(np.size(w))
        return values(q, w, owner)

    def counted_evaluate(tab, w, dtype=complex):
        points.append((len(calls), tab, np.size(w)))
        return evaluate(tab, w, dtype=dtype)

    monkeypatch.setattr(bounds, "bound_values", counted_values)
    monkeypatch.setattr(bounds, "stability_eval_batch", counted_evaluate)
    sweep([query(SDIRK33, SDIRK33, k, relax)
           for k in K_VALUES for relax in RELAXATIONS])
    assert calls[0] == 513
    base = [(tab, n) for call, tab, n in points if call == 1]
    assert {tab for tab, _ in base} == {SDIRK33}
    assert sum(n for _, n in base) <= 513 * (1 + len(K_VALUES))


def test_table2_row_refinement_rounds_evaluate_each_function_once(
        monkeypatch):
    # every round after the base one puts each point under its own curve;
    # the row's 12 curves are one family, so per block of points and
    # precision pass the fine step and the coarse tableau are evaluated
    # once each, however many curves and keys the round holds
    calls, evals = [], []
    values, evaluate = bounds.bound_values, bounds.stability_eval_batch

    def counted_values(q, w, owner=None):
        calls.append((np.size(w), owner is not None))
        return values(q, w, owner)

    def counted_evaluate(tab, w, dtype=complex):
        evals.append((len(calls), np.dtype(dtype)))
        return evaluate(tab, w, dtype=dtype)

    monkeypatch.setattr(bounds, "bound_values", counted_values)
    monkeypatch.setattr(bounds, "stability_eval_batch", counted_evaluate)
    sweep([query(SDIRK33, SDIRK33, k, relax)
           for k in K_VALUES for relax in RELAXATIONS])
    assert len(calls) > 2 and all(per_point for _, per_point in calls[1:])
    for call, (n, _) in enumerate(calls[1:], 2):
        blocks = -(-n // bounds._BLOCK)
        for dtype in map(np.dtype, (complex, np.clongdouble)):
            passes = evals.count((call, dtype))
            assert passes <= 2 * blocks, (call, n, dtype, passes)


def _count_batches(monkeypatch):
    """Count every _Batch built from here on, one entry per family."""
    built = []

    class CountedBatch(bounds._Batch):
        def __init__(self, family, queries):
            built.append(len(queries))
            super().__init__(family, queries)

    monkeypatch.setattr(bounds, "_Batch", CountedBatch)
    return built


@pytest.mark.parametrize("scheme, rounds", [
    ("bwe", 5), ("midpoint", 15), ("trapezoid", 15), ("sdirk22", 5),
    ("sdirk23", 15), ("esdirk32", 5), ("esdirk33", 15), ("sdirk33", 5),
    ("sdirk34", 15)])
def test_table2_row_sweep_compiles_its_queries_once(scheme, rounds,
                                                    monkeypatch):
    # the row's 12 queries are one family, compiled into one _Batch for
    # the whole sweep; every round is still one bound_values call
    built, calls, values = _count_batches(monkeypatch), [], bounds.bound_values

    def counted_values(q, w, owner=None):
        calls.append(np.size(w))
        return values(q, w, owner)

    monkeypatch.setattr(bounds, "bound_values", counted_values)
    tab = get_scheme(scheme)
    sweep([query(tab, tab, k, relax) for k in K_VALUES
           for relax in RELAXATIONS])
    assert len(calls) == rounds
    assert built == [2 * len(K_VALUES)]


def test_lockstep_sweep_compiles_each_family_once(monkeypatch):
    built = _count_batches(monkeypatch)
    queries = _lockstep_batch()
    sweep(queries)
    assert len(built) == 35
    assert sum(built) == len(queries)


def test_compiled_queries_match_the_plain_list():
    queries = _lockstep_batch()
    compiled = bounds._Compiled(queries)
    assert np.array_equal(bound_values(compiled, _GRID),
                          bound_values(queries, _GRID))
    owner = np.random.default_rng(11).integers(len(queries),
                                                size=4 * _GRID.size)
    w = np.tile(_GRID, 4)
    assert np.array_equal(bound_values(compiled, w, owner),
                          bound_values(queries, w, owner))


@pytest.mark.parametrize("fine", [BWE, PropagatorSpec(((BWE, 0.5),
                                                       (BWE, 63.5)))],
                         ids=["uniform", "fractions"])
def test_bound_values_rejects_a_w_whose_k_w_overflows(fine):
    # k * 1e307 overflows at k = 64 (and so does the coarse point of a
    # propagator whose step fractions differ); w = inf itself reads inf
    q = BoundQuery(fine, BWE, 64)
    for call in (lambda: spectrum_max(q, [1e307]),
                 lambda: bound_values(q, [1.0, 1e307]),
                 lambda: bound_values([q, q], [np.inf, 1e307], [0, 1]),
                 lambda: bound_values(bounds._Compiled([q]), [1e307])):
        with pytest.raises(ValueError, match=r"w = 1e\+307 .* k = 64"):
            call()
    assert bound_values(q, [np.inf, 1e305])[0] == INFINITY
    assert spectrum_max(BoundQuery(fine, BWE, 64), [1e306]) < INFINITY


def test_bound_values_rejects_a_w_whose_horner_sum_overflows():
    # sdirk33's w^3 overflows at w = 1e120, where the bound is finite: not a
    # pole, but a ValueError naming the scheme and w
    q = BoundQuery(SDIRK33, SDIRK33, 2)
    with pytest.raises(ValueError,
                       match=r"^sdirk33: \|w\| = 1e\+120 is too large"):
        bound_values(q, [1e120])


@pytest.mark.parametrize("axis", ["real_positive", "imaginary"])
@pytest.mark.parametrize("relax", ["F", "FCF"])
def test_bound_values_reads_inf_at_infinite_w(relax, axis):
    queries = [query(fine, coarse, 2, relax, axis=axis)
               for fine in REGISTRY for coarse in REGISTRY]
    assert np.all(bound_values(queries, [np.inf]) == INFINITY)


@pytest.mark.parametrize("owner", [[0, 1, 1, 0, -1], [0, 1, 1, 0, 2],
                                   [0, 1, 1, 0], [1]],
                         ids=["negative", "past_end", "short", "one"])
def test_bound_values_rejects_a_bad_owner(owner):
    queries = [query(BWE, BWE, 2), query(BWE, BWE, 4)]
    with pytest.raises(ValueError, match="owner"):
        bound_values(queries, np.geomspace(0.1, 10.0, 5), owner)


def test_batch_multiplies_each_propagators_steps_in_its_own_order():
    # the second propagator's sdirk33 and trapezoid steps are first met at
    # their places in the first one, before its own bwe step; three
    # complex factors round by the order they multiply in
    w = np.geomspace(1e-9, 1e9, 4001)
    specs = [PropagatorSpec(((first, 1.0), (SDIRK33, 1.0), (TRAP, 1.0),
                             (TRAP, 1.0))) for first in (SDIRK22, BWE)]
    queries = [BoundQuery(spec, SDIRK22, 4) for spec in specs]
    owner = np.repeat([0, 1], w.size)
    batch = bound_values(queries, np.tile(w, 2), owner)
    for i, q in enumerate(queries):
        assert np.array_equal(batch[owner == i], bound_values(q, w))


@pytest.mark.parametrize("axis", ["real_positive", "imaginary"])
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def test_bound_values_round_as_the_direct_formula(axis):
    # one query's simple bound, written out: lam^k as the product over the
    # interval's steps, from 1, of one stability evaluation to the power k
    # (a Python int, so k = 2 takes numpy's square), mu at k*w, extended
    # precision below w = 1e-4, a vanished denominator read as 0/0 = 0
    # on the real axis and as inf on the imaginary one, and nan (an explicit
    # scheme's overflow) read as inf
    w = np.geomspace(1e-8, 1e8, 301)
    pts = w * 1j if axis == "imaginary" else w.astype(complex)
    for tab in (BWE, SDIRK33, TRAP, get_scheme("erk2")):
        for k in K_VALUES:
            for relax in ("F", "FCF"):
                ref = np.empty_like(w)
                for sel, dtype in ((w >= 1e-4, complex),
                                   (w < 1e-4, np.clongdouble)):
                    z = pts[sel].astype(dtype)
                    lamk = np.ones_like(z) * stability_eval_batch(
                        tab, z, dtype=dtype) ** k
                    mu = stability_eval_batch(tab, k * z, dtype=dtype)
                    num = np.abs(mu - lamk).astype(float)
                    den = (1.0 - np.abs(mu)).astype(float)
                    zero = (num < 1e-13) & (axis == "real_positive")
                    phi = np.where(den < 1e-13, np.where(zero, 0.0, np.inf),
                                   num / den)
                    if relax == "FCF":
                        phi = np.abs(lamk.astype(complex)) * phi
                    ref[sel] = np.where(np.isnan(phi), np.inf, phi)
                got = bound_values(query(tab, tab, k, relax, axis=axis), w)
                assert np.array_equal(got, ref), \
                    (tab.name, k, relax)


# --- the array engine against the per-curve generator engine ---------------
#
# The reference is the sweep engine as it was before the array engine: one
# generator per curve that yields each probe round (base grid, every
# multisection round, the tail probe, every threshold round) and a driver
# that runs the generators in lockstep.  It is kept here unchanged as an
# independent route to the same curves.

def _ref_multisection(w_lo, w_hi, peak):
    x = np.log(np.column_stack((w_lo, w_hi)))
    tol = _PEAK_TOL if peak else _CROSSING_TOL
    frac = np.arange(1, _SECTIONS + 1) / (_SECTIONS + 1)
    rows = np.arange(len(x))[:, None]
    edge = np.ones((len(x), 1), dtype=bool)
    probes_w, probes_v = [np.empty(0)], [np.empty(0)]
    while np.max(x[:, 1] - x[:, 0]) > tol:
        lo, hi = x[:, :1], x[:, 1:]
        x = np.concatenate((lo, lo + (hi - lo) * frac, hi), axis=1)
        w = np.exp(x[:, 1:-1])
        v = np.asarray((yield w.ravel()), dtype=float).reshape(w.shape)
        probes_w.append(w.ravel())
        probes_v.append(v.ravel())
        if peak:
            j = np.argmax(v, axis=1)[:, None] + (0, 2)
        else:
            j = np.argmin(np.hstack((edge, v < 1.0, ~edge)), axis=1)
            j = j[:, None] + (-1, 0)
        x = x[rows, j]
    return x, np.concatenate(probes_w), np.concatenate(probes_v)


def _ref_first_crossing(w_lo, w_hi):
    x = (yield from _ref_multisection([w_lo], [w_hi], peak=False))[0]
    return math.exp(0.5 * (x[0, 0] + x[0, 1]))


def _ref_sweep_rounds(w_min, w_max, n_base):
    grid = np.geomspace(w_min, w_max, n_base)
    phi = np.asarray((yield grid), dtype=float)

    finite = np.where(np.isfinite(phi), phi, -np.inf)
    pad = np.concatenate(([-np.inf], finite, [-np.inf]))
    is_max = np.isfinite(finite) & (finite >= pad[:-2]) & (finite >= pad[2:])
    keep = is_max & ~np.concatenate(([False], is_max[:-1]))
    peak = np.max(finite)
    if peak > 0:
        keep &= finite >= 0.3 * peak
    idx = np.flatnonzero(keep)
    idx = idx[np.lexsort((-idx, -finite[idx]))][:64]
    w_all, phi_all = grid, phi
    if idx.size:
        _, probe_w, probe_phi = yield from _ref_multisection(
            grid[np.maximum(idx - 1, 0)],
            grid[np.minimum(idx + 1, n_base - 1)], peak=True)
        w_all = np.concatenate((grid, probe_w))
        order = np.argsort(w_all, kind="stable")
        w_all, phi_all = w_all[order], np.concatenate((phi, probe_phi))[order]
    arr = np.column_stack((w_all, phi_all))

    unbounded = bool(np.any(~np.isfinite(phi_all)) or np.any(phi_all > 1e6))
    end_increasing = phi[-1] >= phi[-2] and np.isfinite(phi[-1])
    tail = float((yield np.asarray([10.0 * w_max]))[0])
    max_phi = float(np.max(np.where(np.isfinite(phi_all), phi_all, np.inf)))
    argmax_at_inf = False
    if unbounded or not math.isfinite(tail) or tail > 1e6:
        max_phi = INFINITY
        argmax_at_inf = not unbounded
    elif (end_increasing and tail > 1.01 * phi[-1]
          and phi[-1] >= 0.5 * max_phi):
        max_phi = INFINITY
        argmax_at_inf = True
    elif max_phi > 0 and tail >= max_phi * (1.0 - 1e-6):
        max_phi = max(max_phi, float(tail))
        argmax_at_inf = True

    if argmax_at_inf:
        argmax_w = INFINITY
    elif math.isinf(max_phi):
        bad = np.where(~np.isfinite(phi_all) | (phi_all > 1e6))[0]
        end_bad = (not math.isfinite(phi[-1]) or phi[-1] > 1e6
                   or not math.isfinite(tail) or tail > 1e6)
        argmax_w = INFINITY if (end_bad or not len(bad)) \
            else float(w_all[bad[0]])
    else:
        near = np.append(phi_all >= max_phi * (1.0 - 1e-6), False)
        first = int(np.argmax(near))
        last = first + int(np.argmin(near[first:]))
        argmax_w = float(w_all[first + np.argmax(phi_all[first:last])])

    over = np.where(~(phi_all < 1.0))[0]
    if len(over) == 0:
        threshold = INFINITY if not tail >= 1.0 else \
            (yield from _ref_first_crossing(w_max, 10.0 * w_max))
    elif over[0] == 0:
        threshold = 0.0
    else:
        i = over[0]
        threshold = yield from _ref_first_crossing(w_all[i - 1], w_all[i])
    return arr, max_phi, argmax_w, threshold


def _ref_lockstep(rounds, evaluate):
    pending = {i: next(r) for i, r in enumerate(rounds)}
    results = [None] * len(rounds)
    while pending:
        live = list(pending)
        sizes = [pending[i].size for i in live]
        values = np.asarray(evaluate(
            np.concatenate([pending[i] for i in live]),
            np.repeat(live, sizes)))
        for i, v in zip(live, np.split(values, np.cumsum(sizes)[:-1])):
            try:
                pending[i] = rounds[i].send(v)
            except StopIteration as stop:
                del pending[i]
                results[i] = stop.value
    return results


def _ref_sweeps(n, evaluate, w_min=1e-8, w_max=1e8, n_base=512):
    return _ref_lockstep([_ref_sweep_rounds(w_min, w_max, n_base)
                          for _ in range(n)], evaluate)


def _assert_same_sweeps(got, ref, names):
    assert len(got) == len(ref)
    for (samples, *summary), (ref_samples, *ref_summary), name in zip(
            got, ref, names):
        # a synthetic curve may read nan; bound_values never does
        assert np.array_equal(samples, ref_samples, equal_nan=True), name
        # max_phi, argmax_w and threshold
        assert summary == ref_summary, name


def _by_owner(funs):
    """evaluate(w, owner) of the curves `funs`, one array call each: curve
    owner[i] at w[i], or every curve at every w when owner is None."""
    def evaluate(w, owner):
        if owner is None:
            return np.array([fun(w) for fun in funs])
        out = np.empty(w.size)
        for c, fun in enumerate(funs):
            sel = owner == c
            if sel.any():
                out[sel] = fun(w[sel])
        return out
    return evaluate


def test_array_engine_matches_reference_on_lockstep_batch():
    queries = _lockstep_batch()
    curves = sweep(queries)
    ref = _ref_sweeps(len(queries),
                      lambda w, owner: bound_values(queries, w, owner))
    _assert_same_sweeps(
        [(c.samples, c.max_phi, c.argmax_w, c.threshold) for c in curves],
        ref, [q.describe() for q in queries])


_SYNTHETIC = {
    "50 humps": lambda w: _humps(w, 50, 0.8),
    "80 humps": lambda w: _humps(w, 80, 0.8),
    "one bump": lambda w: _bump(w, 0.0, 0.5),
    "plateau": lambda w: np.minimum(_bump(w, 0.0, 1.0), 0.5),
    "bump at 2": lambda w: _bump(w, 2.0, 1.0),
    "small hump below 0.3": lambda w: np.maximum(_bump(w, 2.0, 1.0),
                                                 _bump(w, -4.0, 0.29)),
    "small hump above 0.3": lambda w: np.maximum(_bump(w, 2.0, 1.0),
                                                 _bump(w, -4.0, 0.31)),
    "plateau above 1e6": lambda w: np.minimum(_bump(w, 0.0, 4e6),
                                              1e6 * (1.0 + 1e-6)),
    "plateau below 1e6": lambda w: np.minimum(_bump(w, 0.0, 4e6),
                                              1e6 * (1.0 - 1e-6)),
    **{f"flat window, tail {tail}":
       (lambda tail: lambda w: np.where(w < 5e8, 0.5, tail))(tail)
       for tail in (0.4, 0.5, 0.502, 0.9, 2e6)},
}


@pytest.mark.parametrize("name", list(_SYNTHETIC))
def test_array_engine_matches_reference_on_one_curve(name):
    fun = _SYNTHETIC[name]
    got = sweep_function(fun, 1e-8, 1e8)
    ref = _ref_sweeps(1, lambda w, owner: fun(w))
    _assert_same_sweeps([got], ref, [name])


def test_array_engine_matches_reference_on_a_mixed_list():
    # curves without a peak candidate, with 64 candidates, and with
    # crossing brackets that finish in different rounds: one between base
    # samples, one between peak probes and one past the window
    funs = {
        "nowhere finite": lambda w: np.full(w.shape, np.inf),
        "nan everywhere": lambda w: np.full(w.shape, np.nan),
        "80 humps": _SYNTHETIC["80 humps"],
        "crossing on the base grid": lambda w: _bump(w, 3.0, 2.0),
        "crossing between peak probes": lambda w: _bump(w, -1.0,
                                                        1.0 + 1e-9),
        "crossing past the window": _SYNTHETIC["flat window, tail 2000000.0"],
        "one bump": _SYNTHETIC["one bump"],
    }
    rounds = []
    evaluate = _by_owner(list(funs.values()))

    def counted(w, owner):
        rounds.append(np.ones(len(funs), dtype=bool) if owner is None
                      else np.bincount(owner, minlength=len(funs)) > 0)
        return evaluate(w, owner)

    got = _sweep_many(len(funs), counted, 1e-8, 1e8, 512)
    ref = _ref_sweeps(len(funs), evaluate)
    _assert_same_sweeps(got, ref, list(funs))
    calls = dict(zip(funs, np.sum(rounds, axis=0)))
    assert calls["nowhere finite"] == calls["nan everywhere"] == 1
    crossing = [calls[name] for name in funs if name.startswith("crossing")]
    assert len(set(crossing)) == len(crossing), calls
    assert all(0 < threshold < INFINITY for *_, threshold in got[3:6])


def test_sweep_rejects_bad_window():
    with pytest.raises(ValueError):
        sweep(query(BWE, BWE, 2), w_min=1.0, w_max=0.5)
    with pytest.raises(ValueError):
        sweep(query(BWE, BWE, 2), n_base=32)


# --- max over k ------------------------------------------------------------

def test_max_over_k_small_sets():
    # worst case over a few factors matches the per-k sweeps
    per_k = [sweep(query(BWE, BWE, k)).max_phi for k in (2, 4, 8)]
    assert max_over_k("bwe", "bwe", "F", [2, 4, 8]) == pytest.approx(
        max(per_k))


def test_max_over_k_requires_nonempty():
    with pytest.raises(ValueError):
        max_over_k("bwe", "bwe", "F", [])


# --- two-iteration product ---------------------------------------------------

def test_theta_pair_equals_fcf():
    q1 = query(ESDIRK33, ESDIRK33, 4, "F", theta=1.0)
    q2 = query(ESDIRK33, ESDIRK33, 4, "F", theta=0.0)
    w = np.geomspace(1e-8, 1e8, 200)
    product = bound_values(q1, w) * bound_values(q2, w)
    fcf = bound_values(query(ESDIRK33, ESDIRK33, 4, "FCF"), w)
    finite = np.isfinite(fcf)
    assert np.all(np.abs(product[finite] - fcf[finite])
                  <= 1e-12 * np.maximum(1.0, fcf[finite]))
    curve = two_iteration_product(q1, q2)
    ref = sweep(query(ESDIRK33, ESDIRK33, 4, "FCF"))
    assert curve.max_phi == pytest.approx(ref.max_phi, rel=1e-6)


def test_product_accepts_trbdf2_looked_up_twice():
    # each lookup returns the one registry tableau, so the coarse identity
    # check of two_iteration_product holds
    q1 = query(SDIRK22, get_scheme("trbdf2"), 4, "F")
    q2 = query(SDIRK22, get_scheme("trbdf2"), 4, "FCF")
    curve = two_iteration_product(q1, q2)
    w = curve.samples[:, 0]
    assert np.allclose(curve.samples[:, 1],
                       bound_values(q1, w) * bound_values(q2, w),
                       rtol=1e-12, atol=0)


def test_identical_thetas_square():
    q = query(SDIRK22, SDIRK22, 4, "F")
    w = np.geomspace(1e-6, 1e6, 100)
    product = bound_values(q, w) ** 2
    curve = two_iteration_product(q, q)
    direct = bound_values(q, curve.samples[:, 0]) ** 2
    assert np.allclose(curve.samples[:, 1], direct, rtol=1e-12, atol=0)
    assert curve.max_phi == pytest.approx(np.max(product), rel=1e-3)


def test_partial_theta_loses_small_w_limit():
    q = query(SDIRK22, SDIRK22, 4, "F", theta=0.25)
    v = bound_values(q, np.array([1e-7]))[0] ** 2
    assert abs(v - 1.0) < 1e-3


def test_product_requires_matching_queries():
    q1 = query(SDIRK22, SDIRK22, 4)
    q2 = query(SDIRK22, SDIRK22, 8)
    with pytest.raises(ValueError):
        two_iteration_product(q1, q2)


# --- serialization ---------------------------------------------------------

def test_curve_csv_format():
    curve = sweep(query(TRAP, TRAP, 2), n_base=64)
    buf = io.StringIO()
    curve.to_csv(buf, header_lines=["config: demo"])
    text = buf.getvalue()
    lines = text.splitlines()
    assert lines[0] == "# config: demo"
    assert lines[1] == "w,phi"
    assert "# max_phi = unbounded" in text
    assert "# argmax_w = inf" in text
    # thresholds serialize at full precision
    assert "# threshold = " in text


def test_spectrum_max():
    q = query(BWE, BWE, 2)
    # the discrete sup at the argmax eigenvalue matches the pointwise value
    assert spectrum_max(q, [0.5, 1.0, 1.5]) == pytest.approx(
        bound_values(q, [1.0])[0])


def test_spectrum_max_rejects_complex_w():
    # eigenvalues of a skew operator are imaginary; their magnitudes go in
    # w and the axis in the query
    from pintlab.model_problems import make_skew_advection
    lam = make_skew_advection(8, 1.0).eigenvalues
    q = query(BWE, BWE, 2, Nc=16.0, bound_kind="upper_tight",
              axis="imaginary")
    with pytest.raises(ValueError, match="real w magnitudes"):
        spectrum_max(q, lam)
    assert spectrum_max(q, np.abs(lam)) == pytest.approx(0.451, abs=1e-3)


def test_spectrum_max_accepts_complex_w_on_the_real_line():
    q = query(BWE, BWE, 2)
    w = np.array([0.5, 1.0, 1.5])
    # pytest turns a ComplexWarning into an error
    assert spectrum_max(q, w + 0j) == spectrum_max(q, w)
