"""History guard: record the MGRIT simulator's output on a fixed set of runs
and the explicit schemes' singularity roots, and compare two such records.

    PYTHONPATH=src python tests/history_guard.py dump OUT.json
    python tests/history_guard.py compare A.json B.json

`dump` runs every case below with the pintlab found on the import path
(so a record can be taken from any checkout) and writes, per case, the
residual history, `rho`, `converged` and a checksum of the state `iterate`
returns.  It also writes `singularity_roots` of fwe, erk2, erk3 and erk4 at
k = 2..16 with w_max = 100: each root's w, multiplicity and flags.  And it
runs a few k sweeps through the CLI (`simulate --k 2,4,8 --seeds 3`) and
writes each `run_sweep.csv` row's k, rho, converged and iteration count;
the CLI call is the same on every checkout, whatever `measure_rho` takes.
It also runs `table table1`, `table table2` and `bounds` over k = 2, 4, 8,
16, 32, 64 (sdirk33/bwe on the real axis, on the imaginary axis with
`--nc 256`, and gauss4/bwe under FCF, whose supremum is approached as
w -> infinity), `bounds` for the unbounded trapezoid/trapezoid pair at
k = 2, 4, 8, and four more `bounds` runs over those six k: sdirk22/bwe at
theta = 0.5, sdirk33/bwe under the lower tight bound (C = 1) at
`--nc 64`, erk2/erk2 under FCF, whose explicit factors overflow into
`unbounded` samples, and esdirk33/esdirk32 (two tableaux) on the
imaginary axis under the upper tight bound at `--nc 16`.  And it runs
`simulate --spectrum` over k = 2, 4, 8 with two seeds on a file of
`make_skew_advection(32, 1.0)`'s eigenvalues, which `eigenvalues_to_csv`
writes.  Each runs with `--out` in a temporary
directory, and `dump` writes each CSV file's rows: the column row, the
data rows and the footers, without the provenance header.  Last, it takes
test_bounds' lockstep batch (543 queries in 31 families: every
registry self-pair, both axes, every kind, theta = 0.5) and
writes, per query, the summary of its curve in one `sweep` of the whole
batch, and a checksum of the curve's samples, of its row of the
every-query `bound_values` calls on test_bounds' `_GRID`, and of its
values in shuffled per-point calls on the same points, one call per
family (one call of the whole list on checkouts whose `bound_values`
takes lists); no CLI run makes such a batch.  `compare` checks B against A:

- the same cases, history lengths and `converged` flags;
- every history value within |B - A| <= 1e-13 |A| + 1e-16 h0, where h0 is
  A's initial residual;
- `rho` within |B - A| <= 1e-12 |A| + 1e-16, or the same non-finite value,
  for the cases and the sweep rows alike;
- the state norm within 1e-12 |A| + 1e-16 h0, or the same non-finite value;
- the same sweep rows' k, `converged` and iteration counts;
- the same singularity roots, compared with ==;
- the same CSV rows of the table, bounds and spectrum-file runs, compared
  with ==;
- the same lockstep summaries and checksums, compared with ==.

The absolute terms match the history's: a run that converges in one cycle
(an exact coarse propagator) has rho = h1/h0 and a final state at rounding
level, and both move by rounding alone whenever the coarse solve sums in
another order.

It prints the worst case of each and exits 1 if any check fails.  This
file is a script, not a test module: pytest does not collect it.
"""

import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

HIST_REL, HIST_ABS = 1e-13, 1e-16
RHO_REL, RHO_ABS = 1e-12, 1e-16
NORM_REL, NORM_ABS = 1e-12, 1e-16
ROOT_SCHEMES = ("fwe", "erk2", "erk3", "erk4")
ROOT_KS, ROOT_W_MAX = range(2, 17), 100.0
SWEEPS = {  # name: simulate arguments besides --k 2,4,8 --seeds 3
    "esdirk33/esdirk32 F ximax 6": ("--fine", "esdirk33", "--coarse",
                                    "esdirk32", "--nt", "1920", "--ximax",
                                    "6", "--relax", "f"),
    "esdirk33/esdirk32 FCF ximax 6": ("--fine", "esdirk33", "--coarse",
                                      "esdirk32", "--nt", "1920", "--ximax",
                                      "6", "--relax", "fcf"),
    "bwe/bwe F L=3 ximax 1.66": ("--fine", "bwe", "--coarse", "bwe", "--nt",
                                 "2048", "--ximax", "1.66", "--levels", "3"),
    "esdirk33/esdirk33 F ximax 1.5 (k=8 diverges)": (
        "--fine", "esdirk33", "--coarse", "esdirk33", "--nt", "1920",
        "--ximax", "1.5", "--relax", "f"),
}

BOUNDS_K = ("--k", "2,4,8,16,32,64")
SKEW_CSV = "<skew spectrum file>"     # replaced by the file's path
CSV_RUNS = {  # name: CLI arguments besides --out
    "table table1": ("table", "table1"),
    "table table2": ("table", "table2"),
    "bounds sdirk33/bwe real": ("bounds", "--fine", "sdirk33", "--coarse",
                                "bwe", *BOUNDS_K),
    "bounds sdirk33/bwe imag Nc=256": ("bounds", "--fine", "sdirk33",
                                       "--coarse", "bwe", *BOUNDS_K,
                                       "--axis", "imag", "--nc", "256"),
    "bounds gauss4/bwe FCF": ("bounds", "--fine", "gauss4", "--coarse", "bwe",
                              *BOUNDS_K, "--relax", "fcf"),
    "bounds trapezoid/trapezoid": ("bounds", "--fine", "trapezoid",
                                   "--coarse", "trapezoid", "--k", "2,4,8"),
    "bounds sdirk22/bwe theta 0.5": ("bounds", "--fine", "sdirk22",
                                     "--coarse", "bwe", *BOUNDS_K,
                                     "--theta", "0.5"),
    "bounds sdirk33/bwe lower Nc=64": ("bounds", "--fine", "sdirk33",
                                       "--coarse", "bwe", *BOUNDS_K,
                                       "--kind", "lower", "--nc", "64"),
    "bounds erk2/erk2 FCF": ("bounds", "--fine", "erk2", "--coarse", "erk2",
                             *BOUNDS_K, "--relax", "fcf"),
    "bounds esdirk33/esdirk32 imag upper Nc=16": (
        "bounds", "--fine", "esdirk33", "--coarse", "esdirk32", *BOUNDS_K,
        "--axis", "imag", "--kind", "upper", "--nc", "16"),
    "simulate trapezoid/sdirk22 --spectrum skew": (
        "simulate", "--fine", "trapezoid", "--coarse", "sdirk22", "--nt",
        "256", "--ht", "0.5", "--spectrum", SKEW_CSV, "--k", "2,4,8",
        "--seeds", "2"),
}


def _cases():
    """(name, MgritRun or ("propagator_norm", MgritRun)) for every case."""
    from pintlab.butcher import get_scheme
    from pintlab.mgrit_sim import EXACT_COARSE, MgritRun, TimeHierarchy
    from pintlab.model_problems import (make_fd_diffusion,
                                        make_skew_advection,
                                        make_spd_interval)

    s = get_scheme
    spd = make_spd_interval(3.0, 40, include=[1.0])
    skew = make_skew_advection(32, 1.0)
    diffusion = make_fd_diffusion(9)
    out = []
    for fine, coarse in (("bwe", "bwe"), ("sdirk33", "bwe"),
                         ("esdirk33", "sdirk22")):
        for relax in ("F", "FCF"):
            for lv in (2, 3, 4, 5):
                hier = TimeHierarchy(256, 0.5, 2, lv, s(fine), s(coarse))
                out.append((f"{fine}/{coarse} {relax} N=256 k=2 L={lv}",
                            MgritRun(hier, spd, relax)))
    for relax in ("F", "FCF"):
        hier = TimeHierarchy(256, 0.5, 4, 3, s("sdirk33"), s("bwe"))
        out.append((f"sdirk33/bwe {relax} N=256 k=4 L=3",
                    MgritRun(hier, spd, relax)))
    for lv in (2, 3):
        hier = TimeHierarchy(256, 0.5, 2, lv, s("sdirk33"), s("bwe"))
        out.append((f"theta (1,0,0.5) L={lv}",
                    MgritRun(hier, spd, "F", (1.0, 0.0, 0.5))))
        # a weight other than 0, 0.5 or 1 scales inexactly, so where it
        # is applied (to the factor or to each step) may move a rounding
        out.append((f"theta (1,0.3) L={lv}",
                    MgritRun(hier, spd, "F", (1.0, 0.3))))
    for relax in ("F", "FCF"):
        for lv in (2, 3):
            hier = TimeHierarchy(256, 0.5, 2, lv, s("trapezoid"),
                                 s("sdirk22"))
            out.append((f"skew trapezoid/sdirk22 {relax} L={lv}",
                        MgritRun(hier, skew, relax)))
    for relax in ("F", "FCF"):
        hier = TimeHierarchy(256, 0.5, 4, 2, s("sdirk33"), EXACT_COARSE)
        out.append((f"exact coarse {relax}", MgritRun(hier, spd, relax)))
    for path in ("matrix", "diagonal"):
        for relax in ("F", "FCF"):
            for lv in (2, 3):
                hier = TimeHierarchy(256, 0.002, 2, lv, s("sdirk33"),
                                     s("bwe"))
                out.append((f"fd_diffusion(9) {path} {relax} L={lv}",
                            MgritRun(hier, diffusion, relax, path=path)))
    for fine, coarse, ximax in (("bwe", "bwe", 1.66),
                                ("esdirk33", "esdirk32", 6.0)):
        hier = TimeHierarchy(2048, 1.0, 2, 2, s(fine), s(coarse))
        out.append((f"{fine}/{coarse} F N=2048 k=2",
                    MgritRun(hier, make_spd_interval(ximax, 120), "F")))
    # unstable explicit coarse (or fine) schemes: the runs diverge
    for fine, coarse in (("erk4", "fwe"), ("erk4", "erk2"),
                         ("bwe", "erk4")):
        for n in (1024, 2048):
            hier = TimeHierarchy(n, 1.0, 2, 2, s(fine), s(coarse))
            out.append((f"divergent {fine}/{coarse} N={n}",
                        MgritRun(hier, spd, "F", max_iters=30)))
    # |mu| = 1.1 at the top mode over Nc = 32 coarse steps: the residual
    # grows for 8 cycles before the 1e6 h0 stop
    hier = TimeHierarchy(64, 1.0, 2, 2, s("erk4"), s("fwe"))
    out.append(("divergent erk4/fwe mild N=64",
                MgritRun(hier, make_spd_interval(1.05, 40), "F")))
    for relax in ("F", "FCF"):
        hier = TimeHierarchy(128, 1.0, 2, 2, s("sdirk33"), s("bwe"))
        out.append((f"propagator norm {relax} Nc=64",
                    ("propagator_norm",
                     MgritRun(hier, make_spd_interval(3.0, 8), relax))))
    return out


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _checksum(u):
    u = np.ascontiguousarray(u)
    # einsum sums the squares in one order under any BLAS thread count (a
    # complex state as its float pairs), so two dumps of one checkout agree
    x = u.reshape(-1)
    x = x.view(x.real.dtype) if x.dtype.kind == "c" else x
    with np.errstate(over="ignore"):  # a diverged state's norm is inf
        norm = math.sqrt(np.einsum("i,i->", x, x))
    return {"norm": norm, "sha256": _digest(u), "dtype": str(u.dtype)}


def _roots():
    """[re, im, multiplicity, in_stable_region, imag_axis_stable] per root."""
    from pintlab.butcher import get_scheme
    from pintlab.explicit_analysis import singularity_roots
    return {f"{name} k={k}": [[r.w.real, r.w.imag, r.multiplicity,
                               bool(r.in_stable_region),
                               bool(r.imag_axis_stable)]
                              for r in singularity_roots(get_scheme(name), k,
                                                         ROOT_W_MAX)]
            for name in ROOT_SCHEMES for k in ROOT_KS}


def _sweeps():
    """[k, rho, converged, iters] per run_sweep.csv row of each sweep."""
    from pintlab.cli import main
    out = {}
    for name, args in SWEEPS.items():
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["simulate", *args, "--k", "2,4,8", "--seeds", "3",
                    "--out", tmp]
            with contextlib.redirect_stdout(io.StringIO()):
                if main(argv) != 0:
                    raise RuntimeError(f"simulate failed: {argv}")
            with open(os.path.join(tmp, "run_sweep.csv")) as fh:
                rows = list(csv.DictReader(line for line in fh
                                           if not line.startswith("#")))
        out[name] = [[int(r["k"]), float(r["rho"]), r["converged"] == "true",
                      int(r["iters"])] for r in rows]
    return out


def _csv_rows():
    """{run name/file name: every line after the header comments} of each
    CSV file a CLI run writes, plus {run name: exit code}."""
    from pintlab.cli import main
    from pintlab.model_problems import eigenvalues_to_csv, make_skew_advection
    rows, codes = {}, {}
    with tempfile.TemporaryDirectory() as spectra:
        skew = os.path.join(spectra, "skew.csv")
        with open(skew, "w") as fh:
            eigenvalues_to_csv(make_skew_advection(32, 1.0), fh)
        for name, args in CSV_RUNS.items():
            args = [skew if a == SKEW_CSV else a for a in args]
            with tempfile.TemporaryDirectory() as tmp:
                with contextlib.redirect_stdout(io.StringIO()):
                    codes[name] = main([*args, "--out", tmp])
                for fname in sorted(os.listdir(tmp)):
                    with open(os.path.join(tmp, fname)) as fh:
                        lines = fh.read().splitlines()
                    start = next(i for i, line in enumerate(lines)
                                 if not line.startswith("#"))
                    rows[f"{name}/{fname}"] = lines[start:]
    return rows, codes


def _by_family(queries):
    """bound_values(w, owner) of `queries` as one list: every query at
    every w, shape (len(queries), w.size), or point i under query
    owner[i].  Where pintlab has `_families`, bound_values takes one
    family at a time, and each family gets its queries' points; older
    checkouts take the list itself."""
    from pintlab import bounds
    if not hasattr(bounds, "_families"):
        return lambda w, owner=None: bounds.bound_values(queries, w, owner)
    families = bounds._families(queries)

    def evaluate(w, owner=None):
        if owner is None:
            out = np.empty((len(queries), w.size))
            for b, rows in families:
                out[rows] = bounds.bound_values(b, w)
            return out
        out, local = np.empty(w.size), np.empty(len(queries), dtype=int)
        for b, rows in families:
            local[rows] = np.arange(len(rows))
            sel = np.isin(owner, rows)
            out[sel] = bounds.bound_values(b, w[sel], local[owner[sel]])
        return out
    return evaluate


def _lockstep():
    """{query: [max_phi, argmax_w, threshold, samples checksum, every-query
    checksum, per-point checksum]} over test_bounds' lockstep batch."""
    from pintlab.bounds import sweep
    from test_bounds import _GRID, _lockstep_batch
    queries = _lockstep_batch()
    curves = sweep(queries)
    evaluate = _by_family(queries)
    every = evaluate(_GRID)
    owner = np.repeat(np.arange(len(queries)), _GRID.size)
    order = np.random.default_rng(7).permutation(owner.size)
    per_point = np.empty(owner.size)
    per_point[order] = evaluate(np.tile(_GRID, len(queries))[order],
                                owner[order])
    per_point = per_point.reshape(len(queries), _GRID.size)
    return {f"{i} {q.describe()}": [c.max_phi, c.argmax_w, c.threshold,
                                     _digest(c.samples), _digest(every[i]),
                                     _digest(per_point[i])]
            for i, (q, c) in enumerate(zip(queries, curves))}


def dump(path):
    from pintlab.mgrit_sim import (error_propagation_norm, iterate,
                                   measure_rho)
    # measure_rho takes one run on older checkouts and a list of runs on
    # newer ones
    one_run = "run" in inspect.signature(measure_rho).parameters
    records = {}
    for name, case in _cases():
        if isinstance(case, tuple):
            nrm = error_propagation_norm(case[1])
            records[name] = {"history": [nrm], "rho": nrm, "converged": True,
                             "state": None}
            continue
        res = measure_rho(case) if one_run else measure_rho([case])[0]
        _, u = iterate(case)
        records[name] = {"history": [float(h) for h in res.history],
                         "rho": float(res.rho),
                         "converged": bool(res.converged),
                         "state": _checksum(u)}
    roots = _roots()
    sweeps = _sweeps()
    csv_rows, codes = _csv_rows()
    lockstep = _lockstep()
    with open(path, "w") as fh:
        json.dump({"runs": records, "roots": roots, "sweeps": sweeps,
                   "csv": csv_rows, "csv_exit_codes": codes,
                   "lockstep": lockstep}, fh, indent=1)
    print(f"wrote {len(records)} runs, {len(roots)} root sets, "
          f"{len(sweeps)} CLI sweeps, {len(csv_rows)} CSV files and "
          f"{len(lockstep)} lockstep curves to {path}")


def _ratio(a, b, rel, floor):
    """|b - a| over its tolerance rel |a| + floor: 0 for equal values, inf
    for unequal non-finite ones."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / (rel * abs(a) + floor)


def _load(path):
    with open(path) as fh:
        record = json.load(fh)
    return (record["runs"], record["roots"], record["sweeps"],
            record.get("csv", {}), record.get("csv_exit_codes", {}),
            record.get("lockstep", {}))


def compare(path_a, path_b):
    ((A, roots_a, sweeps_a, csv_a, codes_a, lock_a),
     (B, roots_b, sweeps_b, csv_b, codes_b, lock_b)) = map(_load,
                                                           (path_a, path_b))
    failures = []
    if A.keys() != B.keys():
        failures.append(f"case sets differ: {sorted(A.keys() ^ B.keys())}")
    worst = dict.fromkeys(("history", "rho", "state norm"), (0.0, ""))

    def note(kind, ratio, name):
        if ratio >= worst[kind][0]:
            worst[kind] = (ratio, name)

    same_bytes = states = 0
    for name in (n for n in A if n in B):
        a, b = A[name], B[name]
        ha, hb = a["history"], b["history"]
        if len(ha) != len(hb) or a["converged"] != b["converged"]:
            failures.append(f"{name}: length {len(ha)} -> {len(hb)}, "
                            f"converged {a['converged']} -> {b['converged']}")
            continue
        h0 = abs(ha[0])
        for x, y in zip(ha, hb):
            ratio = _ratio(x, y, HIST_REL, HIST_ABS * h0)
            note("history", ratio, name)
            if ratio > 1.0:
                failures.append(f"{name}: history {x!r} -> {y!r}")
                break
        r = _ratio(a["rho"], b["rho"], RHO_REL, RHO_ABS)
        note("rho", r, name)
        if r > 1.0:
            failures.append(f"{name}: rho {a['rho']!r} -> {b['rho']!r}")
        if a["state"] is not None:
            r = _ratio(a["state"]["norm"], b["state"]["norm"], NORM_REL,
                       NORM_ABS * h0)
            note("state norm", r, name)
            if r > 1.0:
                failures.append(f"{name}: state norm {a['state']['norm']!r}"
                                f" -> {b['state']['norm']!r}")
            states += 1
            same_bytes += a["state"]["sha256"] == b["state"]["sha256"]
    for name in sorted(sweeps_a.keys() | sweeps_b.keys()):
        rows_a, rows_b = sweeps_a.get(name, []), sweeps_b.get(name, [])
        if len(rows_a) != len(rows_b):
            failures.append(f"sweep {name}: {len(rows_a)} -> {len(rows_b)} "
                            "rows")
            continue
        for (k, rho_a, *rest_a), (_, rho_b, *rest_b) in zip(rows_a, rows_b):
            r = _ratio(rho_a, rho_b, RHO_REL, RHO_ABS)
            note("rho", r, f"sweep {name} k={k}")
            if r > 1.0 or rest_a != rest_b:
                failures.append(f"sweep {name} k={k}: {[rho_a, *rest_a]} "
                                f"-> {[rho_b, *rest_b]}")
    for name in sorted(roots_a.keys() | roots_b.keys()):
        if roots_a.get(name) != roots_b.get(name):
            failures.append(f"roots {name}: {roots_a.get(name)} -> "
                            f"{roots_b.get(name)}")
    for name in sorted(codes_a.keys() | codes_b.keys()):
        if codes_a.get(name) != codes_b.get(name):
            failures.append(f"{name}: exit code {codes_a.get(name)} -> "
                            f"{codes_b.get(name)}")
    for name in sorted(csv_a.keys() | csv_b.keys()):
        rows_a, rows_b = csv_a.get(name), csv_b.get(name)
        if rows_a is None or rows_b is None or len(rows_a) != len(rows_b):
            failures.append(f"{name}: {len(rows_a or ())} -> "
                            f"{len(rows_b or ())} rows")
            continue
        moved = [(a, b) for a, b in zip(rows_a, rows_b) if a != b]
        if moved:
            failures.append(f"{name}: {len(moved)} row(s) differ, first "
                            f"{moved[0][0]!r} -> {moved[0][1]!r}")
    for name in sorted(lock_a.keys() | lock_b.keys()):
        if lock_a.get(name) != lock_b.get(name):
            failures.append(f"lockstep {name}: {lock_a.get(name)} -> "
                            f"{lock_b.get(name)}")
    for kind, (ratio, name) in worst.items():
        print(f"worst {kind}: {ratio:.3g} of its tolerance ({name})")
    print(f"{len(A)} runs, {same_bytes} of {states} returned states "
          "bit-identical")
    print(f"{len(roots_a)} root sets, compared with ==")
    print(f"{sum(map(len, sweeps_a.values()))} CLI sweep rows in "
          f"{len(sweeps_a)} sweeps")
    print(f"{sum(map(len, csv_a.values()))} CSV rows in {len(csv_a)} files "
          f"of {len(codes_a)} table, bounds and simulate runs, compared "
          "with ==")
    print(f"{len(lock_a)} lockstep curves with their every-query and "
          "per-point values, compared with ==")
    for line in failures:
        print(f"FAIL {line}")
    print("PASS" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv):
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
