"""Output checks for each job, run in the parent after the measured child
has exited, so none of this is timed or traced.

Each check returns a list of failure messages; an empty list means the job's
output is correct.  A failure is counted, not fatal.
"""

import csv
import os

import numpy as np

import workloads as wl
from pintlab.bounds import BoundQuery, PropagatorSpec, spectrum_max, sweep
from pintlab.butcher import get_scheme
from pintlab.golden import K_VALUES
from pintlab.model_problems import make_spd_interval


def _rows(path):
    """Data rows of a provenance-headed CSV as dicts of strings."""
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _query(fine, coarse, k, relax, **kw):
    return BoundQuery(PropagatorSpec.uniform(get_scheme(fine), k),
                      get_scheme(coarse), k, relax, **kw)


def _sweep_rho(job_dir):
    """(k, levels) -> rho from the job's run_sweep.csv."""
    return {(int(r["k"]), int(r["levels"])): float(r["rho"])
            for r in _rows(os.path.join(job_dir, "run_sweep.csv"))}


def _check_catalog(name, job_dir):
    if not name.startswith("singularity_"):
        return []   # table jobs: the golden gate's exit code says it all
    scheme = name[len("singularity_"):]
    fails = []
    for k, expected in zip(wl.SINGULARITY_K, wl.SINGULARITY_ROOTS[scheme]):
        rows = _rows(os.path.join(job_dir, f"roots_{scheme}_k{k}.csv"))
        stable = sum(int(r["in_stable_region"]) for r in rows)
        if len(rows) != expected or stable:
            fails.append(f"{scheme} k={k}: {len(rows)} root groups, {stable}"
                         f" in the stable region; expected {expected}, 0")
    return fails


def _value_ok(spec, k, relax, ref, rho, w):
    """Reference value within VALUE_TOL, else the sandwich fallback of
    criterion 4: the reference lies outside the Nc-aware sandwich and the
    measurement inside it."""
    if abs(rho - ref) <= wl.VALUE_TOL:
        return True
    nc = float(spec["nt"] // k)
    lo, hi = (spectrum_max(_query(spec["fine"], spec["coarse"], k, relax,
                                  Nc=nc, bound_kind=kind), w)
              for kind in ("lower_tight", "upper_tight"))
    slack = wl.SANDWICH_SLACK
    artifact = ref < lo - slack or ref > hi + slack
    return artifact and lo - slack <= rho <= hi + slack


def _check_two_level(name, job_dir):
    key, relax = name.rsplit("_", 1)
    relax = relax.upper()
    spec = wl.TWO_LEVEL[key]
    problem = make_spd_interval(spec["ximax"], wl.NMODES_TWO_LEVEL,
                                include=spec["inject_w"])
    w = np.abs(problem.eigenvalues)
    rho = _sweep_rho(job_dir)
    fails = []
    for k in spec["ks"]:
        got = rho[(k, 2)]
        ref = spec["ref"][k][0 if relax == "F" else 1]
        if spec["check"] == "value":
            ok = _value_ok(spec, k, relax, ref, got, w)
        else:
            # convergent/divergent pattern; where the printed pattern and
            # the bound over the spectrum disagree, the bound governs
            # (criterion 4, Table 4), so the bound's verdict is the one used
            sup = spectrum_max(_query(spec["fine"], spec["coarse"], k,
                                      relax), w)
            ok = (got < 1.0) == (sup < 1.0)
        if not ok:
            fails.append(f"{key} k={k} {relax}: rho={got:.4f} vs {ref}")
    spot = spec.get("spot")
    if spot and spot[1] == relax and abs(rho[(spot[0], 2)] - spot[2]) > spot[3]:
        fails.append(f"{key} k={spot[0]} {relax} spot value: "
                     f"rho={rho[(spot[0], 2)]:.4f} vs {spot[2]}+-{spot[3]}")
    return fails


def _check_multilevel(name, job_dir):
    spec = wl.MULTILEVEL[name]
    k = spec["ks"][0]
    rho = {lv: r for (kk, lv), r in _sweep_rho(job_dir).items() if kk == k}
    fails = []
    if name == "vcycle_bwe_f":
        for lv in wl.F_GROWTH_LEVELS:
            if not rho[lv + 1] > rho[lv]:
                fails.append(f"F rho not growing from {lv} to {lv + 1} "
                             f"levels: {rho[lv]:.4f} -> {rho[lv + 1]:.4f}")
        if not rho[9] > wl.F_DEEPEST_MIN:
            fails.append(f"F rho at 9 levels {rho[9]:.4f} <= "
                         f"{wl.F_DEEPEST_MIN}")
    elif name == "vcycle_bwe_fcf":
        limit = max(sweep(_query("bwe", "bwe", kk, "FCF")).max_phi
                    for kk in K_VALUES) + wl.SANDWICH_SLACK
        if max(rho.values()) > limit:
            fails.append(f"FCF V-cycle rho {max(rho.values()):.4f} above "
                         f"the two-level worst case + slack {limit:.4f}")
    else:
        centre, tol = wl.TRAPEZOID_DEEP
        for lv, r in sorted(rho.items()):
            if abs(r - centre) > tol:
                fails.append(f"trapezoid FCF {lv} levels: rho={r:.4f} vs "
                             f"{centre}+-{tol}")
    return fails


_CHECKS = {"catalog": _check_catalog, "two_level": _check_two_level,
           "multilevel": _check_multilevel}


def check_job(workload, record, workdir):
    """Failure messages for one job record of a child's report."""
    if record["rc"] != 0:
        return [f"exit code {record['rc']!r}"]
    try:
        return _CHECKS[workload](record["job"],
                                 os.path.join(workdir, record["dir"]))
    except Exception as exc:  # counted as a failed check, not fatal
        return [f"check raised {type(exc).__name__}: {exc}"]


def same_outputs(dir_a, dir_b):
    """Relative paths whose bytes differ (or exist once) between two trees."""
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root)
                for d, _, fs in os.walk(root) for f in fs}
    fa, fb = files(dir_a), files(dir_b)
    diff = sorted(fa ^ fb)
    for rel in sorted(fa & fb):
        with open(os.path.join(dir_a, rel), "rb") as a, \
                open(os.path.join(dir_b, rel), "rb") as b:
            if a.read() != b.read():
                diff.append(rel)
    return diff
