"""Command-line front end: bound sweeps, golden-table regression, MGRIT runs,
and explicit-scheme singularity reports, all emitted as provenance-stamped CSV.

Exit codes: 0 success, 1 golden-table mismatch, 2 configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import __version__, golden
from ._csv import write_csv
from .bounds import (INFINITY, SIMPLE, LOWER_TIGHT, UPPER_TIGHT, REAL_AXIS,
                     IMAG_AXIS, BoundQuery, PropagatorSpec, max_over_k, sweep)
from .butcher import get_scheme, scheme_names
from .explicit_analysis import roots_to_csv, singularity_roots
from .mgrit_sim import (EXACT_COARSE, MgritRun, TimeHierarchy, measure_rho,
                        run_to_csv)
from .model_problems import eigenvalues_from_csv, make_spd_interval

__all__ = ["main"]


class ConfigError(Exception):
    pass


def _parse_int_list(text: str):
    out = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo, hi = part.split("..")
            out.extend(range(int(lo), int(hi) + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise ConfigError(f"empty integer list: {text!r}")
    return out


def _parse_float_list(text: str):
    try:
        return [float(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}: {exc}") from None


def _parse_nc_list(text: str):
    out = []
    for part in text.split(","):
        part = part.strip().lower()
        if part in ("inf", "infinity"):
            out.append(INFINITY)
        elif part:
            out.append(float(part))
    return out or [INFINITY]


def _apply_config_file(args: argparse.Namespace,
                       parser: argparse.ArgumentParser) -> None:
    """key = value lines override flags; each value is parsed and checked
    like the flag it overrides, and unknown keys are rejected."""
    if not getattr(args, "config", None):
        return
    actions = {a.dest: a for a in parser._actions
               if a.dest not in ("help", "config")}
    with open(args.config) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{args.config}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip().lower().replace("-", "_")
            if key not in actions:
                raise ConfigError(
                    f"{args.config}:{lineno}: unknown key {key!r}")
            setattr(args, key, _config_value(
                actions[key], val.strip(), f"{args.config}:{lineno}: {key}"))


def _config_value(action: argparse.Action, text: str, where: str):
    """Convert and check `text` with the flag's type and choices."""
    try:
        value = action.type(text) if action.type else text
    except ValueError:
        raise ConfigError(f"{where}: invalid {action.type.__name__} value "
                          f"{text!r}") from None
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"{where}: invalid choice {value!r} (choose from "
                          f"{', '.join(map(repr, action.choices))})")
    return value


def _provenance(args, keys):
    resolved = " ".join(
        f"{k}={getattr(args, k)}" for k in sorted(keys)
        if getattr(args, k, None) is not None)
    return [f"config: {resolved}", f"version: pintlab {__version__}"]


def _file_tag(scheme: str) -> str:
    """Scheme name as used in output file names (no ':' from trbdf2:<gamma>)."""
    return scheme.replace(":", "-")


def _outpath(args, name):
    outdir = args.out or "."
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, name)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

_BOUND_KINDS = {"simple": SIMPLE, "lower": LOWER_TIGHT, "upper": UPPER_TIGHT}


def cmd_bounds(args) -> int:
    fine = get_scheme(args.fine)
    coarse = get_scheme(args.coarse)
    ks = _parse_int_list(args.k)
    ncs = _parse_nc_list(args.nc)
    axis = IMAG_AXIS if args.axis.startswith("imag") else REAL_AXIS
    if args.kind is None:
        # the simple bound has no well-defined small-w limit on the
        # imaginary axis; default to the Nc-aware upper bound there
        kind = UPPER_TIGHT if axis == IMAG_AXIS else SIMPLE
    else:
        kind = _BOUND_KINDS[args.kind]
    keys = ("fine", "coarse", "k", "relax", "kind", "nc", "axis", "theta",
            "omega", "wmin", "wmax", "n")
    header = _provenance(args, keys)
    for k in ks:
        for nc in ncs:
            q = BoundQuery(PropagatorSpec.uniform(fine, k), coarse, k,
                           args.relax.upper(), nc, kind,
                           theta=args.theta, omega=args.omega, axis=axis)
            curve = sweep(q, args.wmin, args.wmax, args.n)
            nc_tag = "inf" if nc == INFINITY else f"{nc:g}"
            name = (f"bounds_{_file_tag(args.fine)}_"
                    f"{_file_tag(args.coarse)}_"
                    f"{args.relax.lower()}_k{k}_nc{nc_tag}.csv")
            path = _outpath(args, name)
            with open(path, "w") as fh:
                curve.to_csv(fh, header + [f"query: {q.describe()}"])
            print(f"{path}: max_phi="
                  f"{'unbounded' if curve.unbounded else f'{curve.max_phi:.6g}'}"
                  f" argmax_w={curve.argmax_w:.6g}"
                  f" threshold={curve.threshold:.6g}")
    return 0


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def _fmt_value(v):
    if v is None:
        return "-"
    if v == golden.GT1:
        return "(>1)"
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return f"{v:.4g}"


def _check_cell(cell, computed, base_abs=None, rel=None):
    """Returns (ok, gated); ungated cells never fail."""
    if cell is None:
        return True, False
    if cell.skip:
        return True, False
    val = cell.value
    if val is None:
        return True, False
    if val == golden.GT1:
        return bool(1.0 < computed < math.inf), True
    if isinstance(val, float) and math.isinf(val):
        return bool(math.isinf(computed)), True
    tol = golden.cell_tolerance(cell, base_abs, rel)
    return bool(abs(computed - val) <= tol), True


def _table2_tolerance_abs(cell):
    if isinstance(cell.value, float) and not math.isinf(cell.value) \
            and cell.value < 0.05:
        return 0.005
    return 0.01


def cmd_table(args) -> int:
    rows = args.rows.split(",") if args.rows else None
    unknown = set(rows or ()) - set(golden.TABLE2_ROW_ORDER)
    if unknown:
        raise ConfigError(f"unknown --rows {', '.join(sorted(unknown))}; "
                          f"valid: {', '.join(golden.TABLE2_ROW_ORDER)}")
    if args.which == "table2":
        failures = _run_table2(args, rows)
    else:
        failures = _run_table1(args)
    if failures:
        print(f"{len(failures)} cell(s) outside tolerance:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("all gated cells within tolerance")
    return 0


def _run_table2(args, rows):
    failures = []
    csv_rows = []
    order = [r for r in golden.TABLE2_ROW_ORDER if rows is None or r in rows]
    for scheme in order:
        tab = get_scheme(scheme)
        ref = golden.TABLE2[scheme]
        print(f"{scheme} (order {tab.order}, {tab.stability_class})")
        for i, k in enumerate(golden.K_VALUES):
            line = [f"  k={k:<3d}"]
            computed = {}
            for j, relax in enumerate(("F", "FCF")):
                q = BoundQuery(PropagatorSpec.uniform(tab, k), tab, k, relax)
                curve = sweep(q)
                computed[relax] = curve
                for quantity, got in (("max", curve.max_phi),
                                      ("argmax", curve.argmax_w),
                                      ("threshold", curve.threshold)):
                    cell = ref[quantity][i][j]
                    if cell is None:
                        continue
                    base = (_table2_tolerance_abs(cell)
                            if quantity in ("max", "argmax") else None)
                    rel = 0.01 if quantity == "threshold" else None
                    ok, gated = _check_cell(cell, got, base, rel)
                    mark = "" if ok else " <-- MISMATCH"
                    if not ok and gated:
                        failures.append(
                            f"{scheme} k={k} {relax} {quantity}: computed "
                            f"{_fmt_value(got)} vs reference "
                            f"{_fmt_value(cell.value)}")
                    line.append(f"{relax}-{quantity}={_fmt_value(got)}"
                                f"/{_fmt_value(cell.value)}{mark}")
            print(" ".join(line))
            csv_rows.append(
                (scheme, k,
                 computed["F"].max_phi, computed["F"].argmax_w,
                 computed["F"].threshold, computed["FCF"].max_phi,
                 computed["FCF"].argmax_w, computed["FCF"].threshold))
    if args.out:
        path = _outpath(args, "table2.csv")
        with open(path, "w") as fh:
            write_csv(fh, _provenance(args, ("which", "rows")),
                      ("scheme", "k", "max_F", "argmax_F", "threshold_F",
                       "max_FCF", "argmax_FCF", "threshold_FCF"), csv_rows)
    return failures


def _run_table1(args):
    failures = []
    csv_rows = []
    for label, entry in golden.TABLE1.items():
        scheme = entry.get("scheme", label)
        if label == "gauss4":
            value = _gauss4_capped_max(entry["kset"])
        else:
            value = max_over_k(scheme, "bwe", "F", entry["kset"])
        ok = abs(value - entry["value"]) <= 0.005 if math.isfinite(value) \
            else False
        note = entry.get("note", "")
        mark = "" if ok else " <-- MISMATCH"
        print(f"{label:13s} computed {value:.4f}  reference "
              f"{entry['value']:g}{mark}" + (f"   [{note}]" if note else ""))
        if not ok:
            failures.append(f"{label}: computed {value:.4f} vs "
                            f"{entry['value']:g}")
        csv_rows.append((label, value, entry["value"]))
    if args.out:
        path = _outpath(args, "table1.csv")
        with open(path, "w") as fh:
            write_csv(fh, _provenance(args, ("which",)),
                      ("column", "computed", "reference"), csv_rows)
    return failures


def _gauss4_capped_max(kset) -> float:
    """Max of the bound below z_max, where the climb to 1 begins.

    The uncapped supremum climbs to 1 as w grows; the usable regime is the
    k-dependent window below z_max, the positive zero of mu - lam^k that
    separates the backward-Euler-level hump from that climb.  On the sweep's
    samples z_max is the dip reached by walking back from the first sample
    above 1/2 while the samples keep decreasing; a curve that never exceeds
    1/2 is capped at its max.  z_max per k is printed for reference.
    """
    tab = get_scheme("gauss4")
    bwe = get_scheme("bwe")
    worst = 0.0
    for k in kset:
        q = BoundQuery(PropagatorSpec.uniform(tab, k), bwe, k, "F")
        w, phi = sweep(q).samples.T
        over = np.nonzero(phi > 0.5)[0]
        if len(over):
            j = over[0]
            while j > 0 and phi[j - 1] < phi[j]:
                j -= 1
            z_max, cap = w[j], float(np.max(phi[:j + 1]))
        else:
            z_max, cap = math.inf, float(np.max(phi))
        print(f"  gauss4 k={k}: z_max ~ {z_max:.4g}, "
              f"max bound below z_max = {cap:.4f}")
        worst = max(worst, cap)
    return worst


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    ks = _parse_int_list(args.k)
    hts = _parse_float_list(args.ht)
    bad = [ht for ht in hts if not ht > 0.0]
    if bad:
        raise ConfigError(f"--ht must be positive, got {bad[0]!r}")
    levels_list = _parse_int_list(args.levels)
    fine = get_scheme(args.fine)
    coarse = (EXACT_COARSE if args.coarse == "exact"
              else get_scheme(args.coarse))
    theta = (tuple(_parse_float_list(args.theta_schedule))
             if args.theta_schedule else None)
    inject_w = _parse_float_list(args.inject_w) if args.inject_w else []

    keys = ("fine", "coarse", "k", "relax", "levels", "nt", "ht", "ximax",
            "nmodes", "inject_w", "spectrum", "seed", "seeds", "tol",
            "max_iters", "theta_schedule")
    header = _provenance(args, keys)

    combos = [(k, ht, lv) for k in ks for ht in hts for lv in levels_list]
    results = []
    for k, ht, lv in combos:
        if args.spectrum:
            with open(args.spectrum) as fh:
                problem = eigenvalues_from_csv(fh)
        else:
            problem = make_spd_interval(
                args.ximax, args.nmodes,
                include=[w / ht for w in inject_w])
        hier = TimeHierarchy(args.nt, ht, k, lv, fine, coarse)
        run = MgritRun(hier, problem, args.relax.upper(), theta,
                       seed=args.seed, tol=args.tol,
                       max_iters=args.max_iters)
        res = measure_rho(run, seeds=args.seeds)
        results.append((k, ht, lv, res))
        print(f"k={k} ht={ht:g} levels={lv}: rho={res.rho:.4f} "
              f"converged={res.converged} iters={len(res.history) - 1}")

    if len(results) == 1:
        path = _outpath(args, "run_history.csv")
        with open(path, "w") as fh:
            run_to_csv(results[0][3], fh, header)
    else:
        path = _outpath(args, "run_sweep.csv")
        with open(path, "w") as fh:
            write_csv(fh, header, ("k", "ht", "levels", "rho", "converged",
                                   "iters"),
                      ((k, ht, lv, res.rho, res.converged,
                        len(res.history) - 1) for k, ht, lv, res in results))
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# singularity
# ---------------------------------------------------------------------------

def cmd_singularity(args) -> int:
    tab = get_scheme(args.scheme)
    if not tab.explicit_flag:
        raise ConfigError(f"{args.scheme} is implicit; the coarse-minus-"
                          "fine-power analysis applies to explicit schemes")
    ks = _parse_int_list(args.k)
    header = _provenance(args, ("scheme", "k", "wmax"))
    for k in ks:
        records = singularity_roots(tab, k, args.wmax)
        stable = [r for r in records if r.in_stable_region]
        imag_stable = [r for r in records if r.imag_axis_stable]
        path = _outpath(args, f"roots_{_file_tag(args.scheme)}_k{k}.csv")
        with open(path, "w") as fh:
            roots_to_csv(records, fh, header)
        verdict = ("SINGULAR on stable region" if stable
                   else "nonsingular on stable region")
        extra = (f", {len(imag_stable)} imaginary-axis stable root(s)"
                 if imag_stable else "")
        print(f"scheme={args.scheme} k={k}: {len(records)} root group(s), "
              f"{verdict}{extra}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(
        prog="pintlab",
        description="Parareal/MGRIT two-grid convergence laboratory")
    p.add_argument("--version", action="version",
                   version=f"pintlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    names = ", ".join(scheme_names())
    b = sub.add_parser("bounds", help="sweep two-grid bounds to CSV")
    b.add_argument("--fine", required=True, help=f"fine scheme ({names})")
    b.add_argument("--coarse", required=True, help="coarse scheme")
    b.add_argument("--k", default="2", help="coarsening factors, e.g. 2,4,8")
    b.add_argument("--relax", default="f", choices=["f", "fcf", "F", "FCF"])
    b.add_argument("--kind", choices=sorted(_BOUND_KINDS))
    b.add_argument("--nc", default="inf", help="coarse step counts, e.g. 16,inf")
    b.add_argument("--axis", default="real", choices=["real", "imag"])
    b.add_argument("--theta", type=float, default=1.0)
    b.add_argument("--omega", type=float, default=1.0)
    b.add_argument("--wmin", type=float, default=1e-8)
    b.add_argument("--wmax", type=float, default=1e8)
    b.add_argument("--n", type=int, default=512)
    b.add_argument("--out", default=None)
    b.add_argument("--config", default=None)
    b.set_defaults(func=cmd_bounds)

    t = sub.add_parser("table", help="recompute golden reference tables")
    t.add_argument("which", choices=["table1", "table2"])
    t.add_argument("--rows", default=None,
                   help="table2 row subset, e.g. bwe,sdirk22")
    t.add_argument("--out", default=None)
    t.add_argument("--config", default=None)
    t.set_defaults(func=cmd_table)

    s = sub.add_parser("simulate", help="run the MGRIT simulator")
    s.add_argument("--fine", required=True)
    s.add_argument("--coarse", required=True)
    s.add_argument("--k", default="2")
    s.add_argument("--relax", default="f", choices=["f", "fc", "fcf",
                                                    "F", "FC", "FCF"])
    s.add_argument("--levels", default="2")
    s.add_argument("--nt", type=int, default=1024)
    s.add_argument("--ht", default="1.0")
    s.add_argument("--ximax", type=float, default=1.0)
    s.add_argument("--nmodes", type=int, default=120)
    s.add_argument("--inject-w", dest="inject_w", default=None,
                   help="critical h_t*xi values injected as xi = w/h_t")
    s.add_argument("--spectrum", default=None, help="eigenvalue CSV (re,im)")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--seeds", type=int, default=1)
    s.add_argument("--tol", type=float, default=1e-13)
    s.add_argument("--max-iters", dest="max_iters", type=int, default=100)
    s.add_argument("--theta-schedule", dest="theta_schedule", default=None)
    s.add_argument("--out", default=None)
    s.add_argument("--config", default=None)
    s.set_defaults(func=cmd_simulate)

    g = sub.add_parser("singularity",
                       help="roots of the coarse-minus-fine-power polynomial")
    g.add_argument("--scheme", required=True)
    g.add_argument("--k", default="2", help="factors, e.g. 2,4 or 2..16")
    g.add_argument("--wmax", type=float, default=100.0)
    g.add_argument("--out", default=None)
    g.add_argument("--config", default=None)
    g.set_defaults(func=cmd_singularity)
    return p, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, commands[args.command])
        return args.func(args)
    except (ConfigError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
