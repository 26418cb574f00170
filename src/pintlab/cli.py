"""Command-line front end: bound sweeps, golden-table regression, MGRIT runs,
and explicit-scheme singularity reports, all emitted as provenance-stamped CSV.

Exit codes: 0 success, 1 golden-table mismatch, 2 configuration error,
141 (128 + SIGPIPE) when the reader of stdout has gone.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import __version__, golden
from ._csv import write_csv
from .bounds import (INFINITY, RELAX_F, RELAX_FCF, RELAXATIONS, SIMPLE,
                     LOWER_TIGHT, UPPER_TIGHT, REAL_AXIS, IMAG_AXIS,
                     BoundQuery, max_over_k, sweep)
from .butcher import get_scheme, scheme_names
from .explicit_analysis import (gap_polynomial, roots_to_csv,
                                singularity_roots)
from .mgrit_sim import (EXACT_COARSE, MgritRun, TimeHierarchy, measure_rho,
                        run_to_csv)
from .model_problems import eigenvalues_from_csv, make_spd_interval

__all__ = ["main"]


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports a bad command line as a ConfigError: one line
    and exit code 2, not a usage block and SystemExit."""

    def error(self, message):
        raise ConfigError(message)


# --relax accepts each relaxation in lower and upper case
_RELAX_CHOICES = [r.lower() for r in RELAXATIONS] + list(RELAXATIONS)


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


def _apply_config_file(args: argparse.Namespace,
                       parser: argparse.ArgumentParser) -> None:
    """key = value lines override flags; each value is parsed and checked
    like the flag it overrides, and unknown keys are rejected."""
    if not getattr(args, "config", None):
        return
    actions = _options(parser)
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


def _options(parser: argparse.ArgumentParser) -> dict:
    """A subcommand's flags by name, --help and --config aside."""
    return {a.dest: a for a in parser._actions
            if a.dest not in ("help", "config")}


def _provenance(args, omit=()):
    """A CSV's header lines: the version, and each flag of the subcommand
    that has a value, by name, --out and the flags in `omit` aside."""
    keys = _options(_build_parser()[1][args.command]).keys() - {"out", *omit}
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
    ncs = _parse_float_list(args.nc) or [INFINITY]
    axis = IMAG_AXIS if args.axis.startswith("imag") else REAL_AXIS
    if args.kind is None:
        # on the imaginary axis 1 - |mu| is lost to rounding at small w,
        # under the simple kind and the tight kinds at Nc = inf alike (the
        # bound itself stays finite); a finite --nc keeps the tight
        # denominator away from 0, so default to the upper bound there
        kind = UPPER_TIGHT if axis == IMAG_AXIS else SIMPLE
    else:
        kind = _BOUND_KINDS[args.kind]
    header = _provenance(args)
    # every query is checked before the first curve is written
    queries = [BoundQuery(fine, coarse, k, args.relax.upper(), nc, kind,
                          theta=args.theta, axis=axis)
               for k in ks for nc in ncs]
    for q, curve in zip(queries, sweep(queries, args.wmin, args.wmax,
                                       args.n)):
        nc_tag = "inf" if q.Nc == INFINITY else f"{q.Nc:g}"
        name = (f"bounds_{_file_tag(args.fine)}_"
                f"{_file_tag(args.coarse)}_"
                f"{args.relax.lower()}_k{q.k}_nc{nc_tag}.csv")
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


def cmd_table(args) -> int:
    rows = args.rows.split(",") if args.rows else None
    if rows and args.which == "table1":
        raise ConfigError("--rows applies to table2 only")
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
        # the whole row, every k and relaxation, in one lockstep sweep
        curves = iter(sweep([BoundQuery(tab, tab, k, relax)
                             for k in golden.K_VALUES
                             for relax in RELAXATIONS]))
        for i, k in enumerate(golden.K_VALUES):
            line = [f"  k={k:<3d}"]
            computed = {}
            for j, relax in enumerate(RELAXATIONS):
                curve = computed[relax] = next(curves)
                for quantity, got in (("max", curve.max_phi),
                                      ("argmax", curve.argmax_w),
                                      ("threshold", curve.threshold)):
                    cell = ref[quantity][i][j]
                    if cell is None:
                        continue
                    base = (golden.table2_tolerance_abs(cell)
                            if quantity in ("max", "argmax") else None)
                    rel = 0.01 if quantity == "threshold" else None
                    ok = golden.check_cell(cell, got, base, rel)
                    mark = "" if ok else " <-- MISMATCH"
                    if not ok:
                        failures.append(
                            f"{scheme} k={k} {relax} {quantity}: computed "
                            f"{_fmt_value(got)} vs reference "
                            f"{_fmt_value(cell.value)}")
                    line.append(f"{relax}-{quantity}={_fmt_value(got)}"
                                f"/{_fmt_value(cell.value)}{mark}")
            print(" ".join(line))
            csv_rows.append(
                (scheme, k,
                 computed[RELAX_F].max_phi, computed[RELAX_F].argmax_w,
                 computed[RELAX_F].threshold, computed[RELAX_FCF].max_phi,
                 computed[RELAX_FCF].argmax_w, computed[RELAX_FCF].threshold))
    if args.out:
        path = _outpath(args, "table2.csv")
        with open(path, "w") as fh:
            write_csv(fh, _provenance(args),
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
            value = max_over_k(scheme, "bwe", RELAX_F, entry["kset"])
        ok = (math.isfinite(value) and abs(value - entry["value"])
              <= golden.TABLE1_TOLERANCE_ABS)
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
            # --rows applies to table2 only
            write_csv(fh, _provenance(args, ("rows",)),
                      ("column", "computed", "reference"), csv_rows)
    return failures


def _gauss4_capped_max(kset) -> float:
    """Max of the bound below z_max, where the climb to 1 begins.

    The uncapped supremum climbs to 1 as w grows; the usable regime is the
    k-dependent window below z_max, the positive zero of mu - lam^k that
    separates the backward-Euler-level hump from that climb: the smallest
    positive real root of the gauss4/bwe gap polynomial.  The cap is the
    max of the sweep's samples up to z_max.  z_max per k is printed for
    reference.
    """
    tab = get_scheme("gauss4")
    bwe = get_scheme("bwe")
    worst = 0.0
    curves = sweep([BoundQuery(tab, bwe, k, RELAX_F) for k in kset])
    for k, curve in zip(kset, curves):
        # the origin is a root of p (mu - lam^k vanishes there): strip it
        p = np.trim_zeros(gap_polynomial(tab, bwe, k), "f")
        z_max = min((r.real for r in np.roots(p[::-1])
                     if r.real > 0 and abs(r.imag) <= 1e-9 * abs(r)),
                    default=math.inf)
        w, phi = curve.samples.T
        cap = float(np.max(phi[w <= z_max]))
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
    bad = [w for w in inject_w if not 0.0 < w < math.inf]
    if bad:
        raise ConfigError(f"--inject-w must be finite and positive, "
                          f"got {bad[0]!r}")
    if args.spectrum and inject_w:
        raise ConfigError("--inject-w adds modes to the generated spectrum; "
                          "it cannot be used with --spectrum")

    # a spectrum file replaces the generated spectrum and its settings
    header = _provenance(args, ("ximax", "nmodes") if args.spectrum else ())

    spectrum = None
    if args.spectrum:
        with open(args.spectrum) as fh:
            spectrum = eigenvalues_from_csv(fh)
    # every combination is checked before the first run starts
    runs = []
    for k in ks:
        for ht in hts:
            problem = spectrum if spectrum is not None else \
                make_spd_interval(args.ximax, args.nmodes,
                                  include=[w / ht for w in inject_w])
            runs += [MgritRun(TimeHierarchy(args.nt, ht, k, lv, fine, coarse),
                              problem, args.relax.upper(), theta,
                              seed=args.seed, tol=args.tol,
                              max_iters=args.max_iters)
                     for lv in levels_list]
    results = [(run.hierarchy.k, run.hierarchy.h_t, run.hierarchy.levels, res)
               for run, res in zip(runs, measure_rho(runs, seeds=args.seeds))]
    for k, ht, lv, res in results:
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
    header = _provenance(args)
    # every k is checked before the first report is written
    results = [(k, singularity_roots(tab, k, args.wmax))
               for k in _parse_int_list(args.k)]
    for k, records in results:
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

@functools.cache
def _build_parser():
    """The parser and its subcommand parsers, built once per process:
    parsing and a --config file change the namespace, never the parser."""
    p = _Parser(
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
    b.add_argument("--relax", default="f", choices=_RELAX_CHOICES)
    b.add_argument("--kind", choices=sorted(_BOUND_KINDS))
    b.add_argument("--nc", default="inf", help="coarse step counts, e.g. 16,inf")
    b.add_argument("--axis", default="real", choices=["real", "imag"])
    b.add_argument("--theta", type=float, default=1.0)
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
    s.add_argument("--relax", default="f", choices=_RELAX_CHOICES)
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
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args, commands[args.command])
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout has gone (`pintlab ... | head -1`): exit with
        # the code of a process killed by SIGPIPE (128 + 13), and keep the
        # final flush at exit from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, KeyError, ValueError, OSError, MemoryError) as exc:
        # a size too large to allocate (`--n`, `--nt`) is bad input too;
        # str() of a KeyError is the repr of its message
        message = (exc.args[0] if isinstance(exc, KeyError) and exc.args
                   else exc)
        print(f"error: {str(message) or type(exc).__name__}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
