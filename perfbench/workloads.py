"""Workload definitions: the CLI invocations each workload runs, and the
reference values their outputs are checked against.

Everything here is a constant.  Inputs that the acceptance suite computes
from the program (the `--inject-w` critical points, found there by
`restricted_argmax`) were computed once at the commit that introduced this
benchmark and are stored here, so no program work happens while the clock
runs except the jobs themselves.

Reference values and tolerances mirror tests/test_acceptance.py (criteria 4
and 8) and pintlab.golden; none is loosened.  They were pinned with the
simulator's default error seed (`--seed 0`), so every simulator job keeps
it and the workload seed sets only the job order: the measured factors move
with the error seed by more than the criterion tolerances allow (the deep
trapezoid hierarchy reads 0.52 at 5 levels with `--seed 4`, 5 or 6, against
0.4 +- 0.1).
"""

import random

GT1 = ">1"   # reference cell "worse than 1" (pintlab.golden.GT1)

# ---------------------------------------------------------------------------
# catalog: bound sweeps and explicit-scheme root finding (butcher + bounds)
# ---------------------------------------------------------------------------

# pintlab.golden.TABLE2_ROW_ORDER; one `table table2 --rows <r>` job each,
# 12 sweeps (6 k values x F/FCF) per row, every gated golden cell
TABLE2_ROWS = ("bwe", "midpoint", "trapezoid", "sdirk22", "sdirk23",
               "esdirk32", "esdirk33", "sdirk33", "sdirk34")

SINGULARITY_K = tuple(range(2, 17))
# root groups per k = 2..16 (`singularity --k 2..16`, default --wmax 100);
# no root lies in the stable region for any of these
SINGULARITY_ROOTS = {
    "erk2": (2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30),
    "erk3": (3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 33, 35, 37, 39, 41),
    "erk4": (4, 8, 12, 16, 20, 24, 28, 31, 33, 36, 38, 40, 43, 45, 47),
}

# ---------------------------------------------------------------------------
# two_level: criterion 4 analogues (Tables 3, 4 and 5), 120 modes
# ---------------------------------------------------------------------------

# Each entry: fine, coarse, k list, nt, ximax, seeds, max_iters, inject_w,
# check kind, and per-k (F, FCF) reference values.  inject_w is the union
# over the k list of restricted_argmax(fine, coarse, k, relax, ximax) for
# relax in (F, FCF), as criterion 4 injects them per cell.
TWO_LEVEL = {
    # Table 3 analogue: bwe/bwe on (0, 1.66]
    "t3_bwe": dict(
        fine="bwe", coarse="bwe", ks=(2, 4, 8, 16), nt=2048, ximax=1.66,
        seeds=5, max_iters=100, check="value",
        inject_w=(0.9991393851263, 0.3328891136260147, 0.4755625455265882,
                  0.15987867734629332, 0.23115052176069623,
                  0.07829235705324597, 0.11383833908312377,
                  0.03871340517416712),
        ref={2: (0.12, 0.05), 4: (0.20, 0.08), 8: (0.24, 0.09),
             16: (0.27, 0.10)}),
    # Table 5 analogue: esdirk33/esdirk32 on (0, 6]
    "t5_esdirk32": dict(
        fine="esdirk33", coarse="esdirk32", ks=(2, 3, 4, 5, 8, 16), nt=1920,
        ximax=6.0, seeds=5, max_iters=100, check="value",
        inject_w=(6.0, 2.0579134218564863, 1.642101746099571,
                  1.022171574222049, 0.17795320454214134,
                  0.5102482884534533, 0.0891367559529772),
        ref={2: (0.24, 0.006), 3: (0.24, 0.007), 4: (0.24, 0.01),
             5: (0.24, 0.01), 8: (0.24, 0.009), 16: (0.24, 0.01)},
        # criterion 4 spot value: FCF at k=4 within 0.005 of 0.01
        spot=(4, "FCF", 0.01, 0.005)),
    # Table 4 analogue: esdirk33/esdirk33 on (0, 1.5]; F diverges for k >= 8
    "t4_esdirk33": dict(
        fine="esdirk33", coarse="esdirk33", ks=(2, 3, 4, 5, 8, 16), nt=1920,
        ximax=1.5, seeds=2, max_iters=60, check="pattern",
        inject_w=(1.5, 0.10280556955961707),
        ref={2: (0.04, 0.007), 3: (0.18, 0.03), 4: (0.50, 0.02),
             5: (0.69, 0.01), 8: (GT1, 0.01), 16: (GT1, 0.01)}),
}
NMODES_TWO_LEVEL = 120
VALUE_TOL = 0.03        # reference value tolerance (criterion 4)
SANDWICH_SLACK = 0.02   # sandwich fallback slack (criterion 4)

# ---------------------------------------------------------------------------
# multilevel: criterion 8 analogues
# ---------------------------------------------------------------------------

MULTILEVEL = {
    # bwe/bwe V-cycles at k=2 on (0, 1.66], 80 modes: F grows with the level
    # count, FCF stays below the worst two-level FCF bound over k
    "vcycle_bwe_f": dict(
        fine="bwe", coarse="bwe", ks=(2,), levels="3..9", relax="F",
        nt=2048, ximax=1.66, nmodes=80, seeds=2, max_iters=80,
        inject_w=(0.9991393851263, 0.3328891136260147)),
    "vcycle_bwe_fcf": dict(
        fine="bwe", coarse="bwe", ks=(2,), levels="3..9", relax="FCF",
        nt=2048, ximax=1.66, nmodes=80, seeds=2, max_iters=80,
        inject_w=(0.9991393851263, 0.3328891136260147)),
    # trapezoid/trapezoid FCF at k=4 on (0, 6]: deep hierarchies near 0.4
    "vcycle_trapezoid_fcf": dict(
        fine="trapezoid", coarse="trapezoid", ks=(4,), levels="4,5",
        relax="FCF", nt=1024, ximax=6.0, nmodes=120, seeds=3, max_iters=100,
        inject_w=(6.0,)),
}
F_GROWTH_LEVELS = range(3, 7)   # rho_F[lv + 1] > rho_F[lv] (criterion 8)
F_DEEPEST_MIN = 0.4             # rho_F at 9 levels exceeds this
TRAPEZOID_DEEP = (0.4, 0.1)     # deep trapezoid hierarchy: 0.4 +- 0.1

WORKLOADS = ("catalog", "two_level", "multilevel")

def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def _simulate_argv(spec, relax, levels, nmodes):
    return ["simulate", "--fine", spec["fine"], "--coarse", spec["coarse"],
            "--k", ",".join(str(k) for k in spec["ks"]),
            "--relax", relax.lower(), "--levels", levels,
            "--nt", str(spec["nt"]), "--ximax", repr(spec["ximax"]),
            "--nmodes", str(nmodes), "--seeds", str(spec["seeds"]),
            "--max-iters", str(spec["max_iters"]),
            "--inject-w", _floats(spec["inject_w"])]


def jobs(workload, seed):
    """The workload's jobs as (job_id, argv) pairs, in seed-defined order.

    Each job is one `pintlab` CLI invocation without `--out`.
    """
    if workload == "catalog":
        out = [(f"table2_{row}", ["table", "table2", "--rows", row])
               for row in TABLE2_ROWS]
        out += [(f"singularity_{s}",
                 ["singularity", "--scheme", s, "--k",
                  f"{SINGULARITY_K[0]}..{SINGULARITY_K[-1]}"])
                for s in SINGULARITY_ROOTS]
    elif workload == "two_level":
        out = [(f"{name}_{relax.lower()}",
                _simulate_argv(spec, relax, "2", NMODES_TWO_LEVEL))
               for name, spec in TWO_LEVEL.items() for relax in ("F", "FCF")]
    elif workload == "multilevel":
        out = [(name, _simulate_argv(spec, spec["relax"], spec["levels"],
                                     spec["nmodes"]))
               for name, spec in MULTILEVEL.items()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(out)
    return out
