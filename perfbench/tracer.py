"""Span tracing from outside the program: wraps pintlab's public functions.

Each layer is a set of public functions.  A function is wrapped wherever it
is looked up: the package binds names with `from .x import name`, so every
attribute of a loaded `pintlab.*` module that is the original function
object is replaced, not only the one in the defining module.  No private
name is imported, so internals can change without editing this file.  A
layer none of whose functions exists any more is reported as missing, with
the value MISSING, never as 0.

Spans (layer, start, end, parent span, job id, work count) are kept in
compact arrays and written as JSON lines when the run ends.  Self time is a
span's duration minus that of its direct child spans; spans nest strictly
because the traced process is single-threaded.
"""

import json
import statistics
import sys
from array import array
from time import perf_counter

import numpy as np

MISSING = -1


def _points(args, kwargs):
    """Number of points in the `w` argument of f(first, w, ...)."""
    return int(np.size(args[1] if len(args) > 1 else kwargs.get("w")))


def _iterate_work(args, kwargs, out):
    """V-cycles run, plus mode-steps and the returned state's bytes."""
    history, state = out
    vcycles = len(history) - 1
    run = args[0] if args else kwargs["run"]
    modes = run.problem.eigenvalues.size
    return vcycles, {"mode_steps": vcycles * run.hierarchy.N * modes,
                     "state_bytes": int(state.nbytes)}


# layer -> (defining module, public function names, work counter).  A work
# counter maps (args, kwargs, result) to (count, extra fields or None).
LAYERS = {
    "butcher.eval": ("pintlab.butcher", ("stability_eval_batch",),
                     lambda a, k, out: (_points(a, k), None)),
    "bounds.bound_values": ("pintlab.bounds", ("bound_values",),
                            lambda a, k, out: (_points(a, k), None)),
    "bounds.sweep": ("pintlab.bounds", ("sweep",), None),
    "explicit_analysis.singularity_roots": (
        "pintlab.explicit_analysis", ("singularity_roots",),
        lambda a, k, out: (len(out), None)),
    "model_problems.build": ("pintlab.model_problems",
                             ("make_spd_interval", "make_fd_diffusion",
                              "make_skew_advection", "eigenvalues_from_csv"),
                             None),
    "mgrit_sim.measure_rho": ("pintlab.mgrit_sim", ("measure_rho",),
                              lambda a, k, out: (
                                  0, {"converged": bool(out.converged)})),
    "mgrit_sim.iterate": ("pintlab.mgrit_sim", ("iterate",), _iterate_work),
    "cli.main": ("pintlab.cli", ("main",), None),
}
MODULES = ("butcher", "bounds", "explicit_analysis", "model_problems",
           "mgrit_sim", "cli")

# metrics derived from layers other than the one their name starts with
_DERIVED_FROM = {
    "mgrit_sim.engine_setup_s": ("mgrit_sim.measure_rho", "mgrit_sim.iterate"),
    "mgrit_sim.converged_share": ("mgrit_sim.measure_rho",),
    "mgrit_sim.vcycles": ("mgrit_sim.iterate",),
    "mgrit_sim.ms_per_vcycle": ("mgrit_sim.iterate",),
    "mgrit_sim.mode_steps": ("mgrit_sim.iterate",),
    "mgrit_sim.mode_steps_per_s": ("mgrit_sim.iterate",),
    "mgrit_sim.state_bytes": ("mgrit_sim.iterate",),
    "bounds.sweep.evals_per_sweep": ("bounds.sweep", "bounds.bound_values"),
}


def _pct(values, q):
    """Inclusive-method percentile q in (50, 90); 0.0 without samples."""
    data = sorted(values)
    if len(data) < 2:
        return data[0] if data else 0.0
    cuts = statistics.quantiles(data, n=10, method="inclusive")
    return cuts[q // 10 - 1]


class Tracer:
    """Records a span around every call of a wrapped function."""

    def __init__(self):
        self.layers = list(LAYERS)
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        self.layer = array("b")
        self.work = array("d")
        self.extra = {}
        self.stack = []
        self.job_id = -1
        self.missing = []

    def install(self):
        """Wrap every layer's functions in every loaded pintlab module."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "pintlab" or name.startswith("pintlab."))]
        for lid, (name, (home, funcs, work)) in enumerate(LAYERS.items()):
            found = False
            for fname in funcs:
                original = getattr(sys.modules.get(home), fname, None)
                if not callable(original):
                    continue
                found = True
                wrapper = self._wrap(lid, original, work)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            setattr(mod, attr, wrapper)
            if not found:
                self.missing.append(name)

    def _wrap(self, lid, fn, work):
        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.job.append(self.job_id)
            self.layer.append(lid)
            self.work.append(0.0)
            self.start.append(0.0)
            self.end.append(0.0)
            self.stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self.stack.pop()
                self.start[sid] = t0
                self.end[sid] = t1
            if work is not None:
                try:
                    count, extra = work(args, kwargs, out)
                except (AttributeError, TypeError, ValueError, KeyError,
                        IndexError):
                    count, extra = float("nan"), None
                self.work[sid] = count
                if extra:
                    self.extra[sid] = extra
            return out
        return wrapper

    def write_jsonl(self, path, t_origin):
        """One JSON object per span; times in seconds since t_origin."""
        with open(path, "w") as fh:
            for sid in range(len(self.start)):
                rec = {"id": sid, "name": self.layers[self.layer[sid]],
                       "start": self.start[sid] - t_origin,
                       "end": self.end[sid] - t_origin,
                       "parent": self.parent[sid], "job": self.job[sid],
                       "work": self.work[sid]}
                rec.update(self.extra.get(sid, {}))
                fh.write(json.dumps(rec) + "\n")

    def summary(self, wall_s, output_bytes):
        """Per-layer metrics over every recorded span, as {name: value}."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        by = {name: [] for name in self.layers}
        for sid in range(n):
            if self.parent[sid] >= 0:
                child[self.parent[sid]] += dur[sid]
            by[self.layers[self.layer[sid]]].append(sid)

        def total(name):
            return sum(dur[s] for s in by[name])

        def self_s(name):
            return sum(dur[s] - child[s] for s in by[name])

        def work(name):
            return sum(self.work[s] for s in by[name])

        def extra(name, key):
            return [self.extra.get(s, {}).get(key) for s in by[name]]

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        def under_sweep(sid):
            p = self.parent[sid]
            while p >= 0 and self.layers[self.layer[p]] != "bounds.sweep":
                p = self.parent[p]
            return p >= 0

        ev, bv, sw = "butcher.eval", "bounds.bound_values", "bounds.sweep"
        sr = "explicit_analysis.singularity_roots"
        mp, mr, it = ("model_problems.build", "mgrit_sim.measure_rho",
                      "mgrit_sim.iterate")
        scalar = [s for s in by[ev] if self.work[s] == 1]
        batched = [s for s in by[ev] if self.work[s] > 1]
        vcycles = work(it)
        mode_steps = sum(v or 0 for v in extra(it, "mode_steps"))
        converged = extra(mr, "converged")
        m = {
            f"{ev}.calls": len(by[ev]),
            f"{ev}.scalar_calls": len(scalar),
            f"{ev}.points": work(ev),
            f"{ev}.s": total(ev),
            f"{ev}.us_per_scalar_call": ratio(
                sum(dur[s] for s in scalar), len(scalar), 1e6),
            f"{ev}.ns_per_point_batched": ratio(
                sum(dur[s] for s in batched),
                sum(self.work[s] for s in batched), 1e9),
            f"{bv}.calls": len(by[bv]),
            f"{bv}.scalar_calls": sum(1 for s in by[bv] if self.work[s] == 1),
            f"{bv}.points": work(bv),
            f"{bv}.s": total(bv),
            f"{bv}.self_s": self_s(bv),
            f"{sw}.calls": len(by[sw]),
            f"{sw}.s": total(sw),
            f"{sw}.self_s": self_s(sw),
            f"{sw}.p50_ms": _pct([dur[s] * 1e3 for s in by[sw]], 50),
            f"{sw}.p90_ms": _pct([dur[s] * 1e3 for s in by[sw]], 90),
            f"{sw}.evals_per_sweep": ratio(
                sum(1 for s in by[bv] if under_sweep(s)), len(by[sw])),
            f"{sr}.calls": len(by[sr]),
            f"{sr}.s": total(sr),
            f"{sr}.self_s": self_s(sr),
            f"{sr}.roots": work(sr),
            f"{mp}.calls": len(by[mp]),
            f"{mp}.s": total(mp),
            f"{mr}.calls": len(by[mr]),
            f"{mr}.s": total(mr),
            f"{mr}.self_s": self_s(mr),
            f"{mr}.p50_ms": _pct([dur[s] * 1e3 for s in by[mr]], 50),
            f"{mr}.p90_ms": _pct([dur[s] * 1e3 for s in by[mr]], 90),
            f"{it}.calls": len(by[it]),
            f"{it}.s": total(it),
            f"{it}.share": ratio(total(it), wall_s),
            "mgrit_sim.engine_setup_s": total(mr) - total(it),
            "mgrit_sim.vcycles": vcycles,
            "mgrit_sim.ms_per_vcycle": ratio(total(it), vcycles, 1e3),
            "mgrit_sim.mode_steps": mode_steps,
            "mgrit_sim.mode_steps_per_s": ratio(mode_steps, total(it)),
            "mgrit_sim.state_bytes": max(
                (v or 0 for v in extra(it, "state_bytes")), default=0),
            "mgrit_sim.converged_share": ratio(
                sum(1 for c in converged if c), len(converged)),
            "cli.main.calls": len(by["cli.main"]),
            "cli.main.s": total("cli.main"),
            "cli.main.self_s": self_s("cli.main"),
            "cli.output_bytes": output_bytes,
        }
        for module in MODULES:
            m[f"{module}.self_share"] = ratio(
                sum(self_s(name) for name in self.layers
                    if name.split(".")[0] == module), wall_s)
        m["trace.spans"] = n

        for key in m:
            sources = _DERIVED_FROM.get(key, ())
            if any(key.startswith(name + ".") or name in sources
                   for name in self.missing):
                m[key] = MISSING
        return m
