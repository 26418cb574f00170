import io

import mpmath
import numpy as np
import pytest

from pintlab.bounds import (INFINITY, BoundQuery, PropagatorSpec,
                            StabilityError, bound_values, coarse_eigenvalue,
                            fine_interval_eigenvalue, max_over_k,
                            pointwise_bound, spectrum_max, sweep,
                            sweep_function, two_iteration_product)
from pintlab.butcher import REGISTRY, get_scheme
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


# --- eigenvalue helpers ----------------------------------------------------

def test_coarse_eigenvalue_examples():
    assert coarse_eigenvalue(BWE, 2, 1.0) == pytest.approx(1.0 / 3.0)
    assert coarse_eigenvalue(BWE, 4, 1j) == pytest.approx(1.0 / (1.0 + 4.0j))
    assert abs(coarse_eigenvalue(TRAP, 2, 1.0)) < 1e-14


def test_fine_interval_eigenvalue_uniform():
    spec = PropagatorSpec.uniform(BWE, 2)
    assert fine_interval_eigenvalue(spec, 1.0) == pytest.approx(0.25)
    spec = PropagatorSpec.uniform(get_scheme("erk2"), 2)
    assert fine_interval_eigenvalue(spec, 0.5) == pytest.approx(0.390625)


def test_fine_interval_eigenvalue_mixed_limit():
    # two strongly damped steps force the interval product to zero at
    # large w even though the trailing scheme stays marginal there
    spec = PropagatorSpec(((SDIRK22, 1.0), (SDIRK22, 1.0),
                           (TRAP, 1.0), (TRAP, 1.0)))
    # oracle: direct product of the four per-step factors
    w = 1e8
    product = 1.0 + 0.0j
    for tab, frac in spec.steps:
        from pintlab.butcher import stability_eval
        product *= stability_eval(tab, frac * w)
    got = fine_interval_eigenvalue(spec, w)
    assert got == pytest.approx(product)
    assert abs(got) < 1e-6


@pytest.mark.parametrize("name",
                         ["bwe", "sdirk33", "gauss4", "trapezoid", "erk4"])
def test_fine_interval_eigenvalue_kth_power(name):
    # a uniform spec raises one evaluation to the k-th power; compare with
    # the 50-digit lam(w)^k of the same float tableau
    tab = get_scheme(name)
    for k in (2, 64, 512):
        spec = PropagatorSpec.uniform(tab, k)
        for w in (1e-3, 0.1, 1.0, 1e-3j, 0.1j, 1j):
            got = fine_interval_eigenvalue(spec, w)
            with mpmath.workdps(50):
                ref = mp_stage_form(tab, w) ** k
                err = float(abs(got - ref) / abs(ref))
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
    v = pointwise_bound(query(BWE, BWE, 2), 1.0)
    assert v == pytest.approx(0.125)
    assert abs(v - 0.13) <= 0.005 + 1e-9


def test_pointwise_vanishes_at_small_w():
    assert pointwise_bound(query(BWE, BWE, 2), 1e-8) < 1e-6


def test_pointwise_cn_bwe_tight_near_one():
    q = query(MIDPOINT, BWE, 2, Nc=100.0, bound_kind="upper_tight")
    v = pointwise_bound(q, 1e6)
    assert 0.9 < v < 1.0


def test_pointwise_theta_zero_gives_fine_power():
    v = pointwise_bound(query(BWE, BWE, 2, theta=0.0), 1.0)
    assert v == pytest.approx(0.25)


def test_stability_error_simple_kind():
    # explicit coarse scheme beyond its stability window
    q = query(get_scheme("fwe"), get_scheme("fwe"), 2)
    with pytest.raises(StabilityError):
        pointwise_bound(q, 5.0)
    # sweeps record the unstable region as unbounded samples instead
    assert bound_values(q, np.array([5.0]))[0] == INFINITY


def test_tight_kind_tolerates_marginal_coarse():
    # trapezoid has |mu| = 1 on the whole imaginary axis; the Nc-aware
    # bound is still defined there
    q = query(TRAP, TRAP, 4, Nc=256.0, bound_kind="upper_tight",
              axis="imaginary")
    v = pointwise_bound(q, 0.05)
    assert 0.0 < v < 1.0


def test_imaginary_simple_never_guarded():
    q = query(TRAP, TRAP, 4, axis="imaginary")
    assert bound_values(q, np.array([1e-8]))[0] == INFINITY


def test_theta_validation():
    with pytest.raises(ValueError):
        query(BWE, BWE, 2, relax="FCF", theta=0.5)


# --- invariants ------------------------------------------------------------

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
        lamk = abs(fine_interval_eigenvalue(qc.fine, 1e10))
        assert bound_values(qc, w)[0] <= lamk + 1e-9, f


def test_fcf_identity():
    w = np.geomspace(1e-4, 1e4, 30)
    qf = query(SDIRK33, BWE, 4, "F")
    qc = query(SDIRK33, BWE, 4, "FCF")
    lamk = np.abs([fine_interval_eigenvalue(qc.fine, wi) for wi in w])
    assert np.array_equal(bound_values(qc, w), lamk * bound_values(qf, w))


def test_omega_identities():
    w = np.geomspace(1e-3, 1e3, 20)
    base = bound_values(query(SDIRK22, BWE, 4), w)
    assert np.array_equal(bound_values(query(SDIRK22, BWE, 4, omega=1.0), w),
                          base)
    near_zero = bound_values(query(SDIRK22, BWE, 4, omega=1e-12), w)
    assert np.all(np.abs(near_zero - 1.0) < 1e-9)


def test_parity_of_k_matters():
    # at large w the odd-power fine factor keeps the FCF bound convergent
    # while the even power does not
    v2 = pointwise_bound(query(ESDIRK33, ESDIRK33, 2, "FCF"), 1e6)
    v3 = pointwise_bound(query(ESDIRK33, ESDIRK33, 3, "FCF"), 1e6)
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

    The first refinement call probes two points per refined candidate, so
    sizes[1] // 2 is the number of candidates.
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
    assert sizes[1] // 2 == 50
    assert len(sizes) <= 32, len(sizes)
    assert max_phi == pytest.approx(0.8, rel=1e-6)
    assert threshold == INFINITY


def test_sweep_plateau_refines_once_from_its_start():
    (_, max_phi, argmax_w, _), sizes = _counted_sweep(
        lambda w: np.minimum(_bump(w, 0.0, 1.0), 0.5))
    assert sizes[1] // 2 == 1
    assert max_phi == 0.5
    start = 10.0 ** (-0.5 * np.sqrt(np.log(2.0)))  # where the bump hits 0.5
    step = 1e16 ** (1.0 / 511)
    assert start <= argmax_w <= start * step


def test_sweep_prunes_humps_below_three_tenths_of_peak():
    main = lambda w: _bump(w, 2.0, 1.0)
    (_, ref_max, ref_arg, _), ref_sizes = _counted_sweep(main)
    (_, max_phi, argmax_w, _), sizes = _counted_sweep(
        lambda w: np.maximum(main(w), _bump(w, -4.0, 0.29)))
    assert ref_sizes[1] // 2 == sizes[1] // 2 == 1
    assert (max_phi, argmax_w) == (ref_max, ref_arg)
    _, sizes = _counted_sweep(
        lambda w: np.maximum(main(w), _bump(w, -4.0, 0.31)))
    assert sizes[1] // 2 == 2


def test_sweep_caps_candidates_without_moving_max():
    (_, max_phi, _, _), sizes = _counted_sweep(lambda w: _humps(w, 80, 0.8))
    assert sizes[1] // 2 == 64
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
        pointwise_bound(q, 1.0))
