"""pintlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload catalog|two_level|multilevel|all \
        --seed N --seconds S --trace 0|1

Run from anywhere; pintlab is imported from the `src/` directory next to
this one, never from an installed copy.  Each measurement runs in a fresh
child process (child.py), one at a time, with BLAS threads pinned to 1.

--trace 0 reports the end-to-end metrics: `setup_s` (median over fresh
interpreters of the time until pintlab is imported and the first job is
ready), `wall_s` (the job list's time, summing each job's median over
passes), `job_p50_s` (median job latency, pooled over passes) and
`peak_rss_mb` (peak RSS of the measuring child).  Every timing is
wall-clock seconds divided by the host's slowness while it was measured
(refspeed.py): a pass's times by that pass's, `setup_s` by the median over
the run's passes.  --trace 1 runs one untraced and one traced pass and
reports the per-layer metrics of the traced one (see tracer.py and
README.md).

Every job's output is checked after its child exits (checks.py); failures
are counted in `failed`, never fatal.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  If
pintlab cannot be imported from the checkout, or a child crashes or runs
past the deadline, the exit code is 2 and no result is printed.
"""

import os

# pinned before numpy is imported here, and inherited by every child
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from time import perf_counter  # noqa: E402

import refspeed  # noqa: E402
import workloads  # noqa: E402
from tracer import MISSING  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_PROBES = 11
# Deadline of one workload: --seconds of measured passes plus this allowance
# for the set-up probes, the pass that may run past the budget and the
# traced run's two passes (the longest pass, two_level's, takes about 25 s).
DEADLINE_ALLOWANCE_S = 120.0


class BenchError(Exception):
    """The program could not be run at all: no result is printed."""


def _load_program():
    """Import pintlab from the checkout's src/, plus the output checks."""
    sys.path.insert(0, SRC)
    try:
        import numpy
        import pintlab
        if not os.path.abspath(pintlab.__file__).startswith(SRC + os.sep):
            raise BenchError(f"pintlab imported from {pintlab.__file__}")
        import checks
    except ImportError as exc:
        raise BenchError(f"cannot import pintlab from {SRC}: {exc}") from None
    return checks, pintlab.__version__, numpy.__version__


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _timings(passes):
    """Job-list time and median job time, at nominal host speed."""
    per_job = {}
    for p in passes:
        slow = refspeed.slowness(p["ref"])
        for j in p["jobs"]:
            per_job.setdefault(j["job"], []).append(j["s"] / slow)
    return {"wall_s": sum(statistics.median(t) for t in per_job.values()),
            "job_p50_s": statistics.median(
                s for t in per_job.values() for s in t)}


def _child(workload, seed, workdir, deadline, budget=0.0, trace=0,
           probe=False):
    """Run child.py to completion; returns seconds until it printed `ready`."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed),
           "--budget", repr(budget), "--trace", str(trace),
           "--workdir", workdir] + (["--probe"] if probe else [])
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.wait(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload}: child exceeded the time limit") \
            from None
    finally:
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload}: child failed (exit code "
                         f"{proc.returncode})")
    return ready


def _load_report(workdir):
    with open(os.path.join(workdir, "report.json")) as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, checks):
    """Measure one workload; returns the result dict (metrics and details)."""
    deadline = perf_counter() + seconds + DEADLINE_ALLOWANCE_S
    base = os.path.join(WORK, workload)
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)

    setup = [_child(workload, seed, os.path.join(base, "probe"), deadline,
                    probe=True) for _ in range(SETUP_PROBES)]
    runs = {}
    for mode, flag in ((("untraced", 0), ("traced", 1)) if trace
                       else (("run", 0),)):
        workdir = os.path.join(base, mode)
        _child(workload, seed, workdir, deadline,
               budget=0.0 if trace else float(seconds), trace=flag)
        runs[mode] = (workdir, _load_report(workdir))

    failures = {}   # (run, pass, job) -> reasons
    attempted = 0
    for mode, (workdir, report) in runs.items():
        for p, pass_ in enumerate(report["passes"]):
            for rec in pass_["jobs"]:
                attempted += 1
                why = checks.check_job(workload, rec, workdir)
                if why:
                    failures[(mode, p, rec["job"])] = why
    if trace:
        (dir_u, rep_u), (dir_t, rep_t) = runs["untraced"], runs["traced"]
        stdout_u = {r["job"]: r["stdout"] for r in rep_u["passes"][0]["jobs"]}
        diff = checks.same_outputs(os.path.join(dir_u, "p0"),
                                   os.path.join(dir_t, "p0"))
        for rec in rep_t["passes"][0]["jobs"]:
            why = [f"traced output differs: {rel}" for rel in diff
                   if rel.split(os.sep)[0] == rec["job"]]
            if rec["stdout"] != stdout_u.get(rec["job"]):
                why.append("traced stdout differs")
            if why:
                failures.setdefault(("traced", 0, rec["job"]), []).extend(why)

    result = {"workload": workload, "attempted": attempted,
              "failed": len(failures),
              "failures": [{"run": r, "pass": p, "job": j, "why": why}
                           for (r, p, j), why in failures.items()],
              "setup_samples_s": setup}
    if trace:
        rep_u, rep_t = runs["untraced"][1], runs["traced"][1]
        layers = dict(rep_t["layers"])
        layers["trace.overhead_share"] = (
            _timings(rep_t["passes"])["wall_s"]
            / _timings(rep_u["passes"])["wall_s"])
        result.update(metrics=layers, missing=rep_t["missing"])
    else:
        passes = runs["run"][1]["passes"]
        n_jobs = sum(len(p["jobs"]) for p in passes)
        slow = statistics.median(refspeed.slowness(p["ref"])
                                 for p in passes)
        result["metrics"] = dict(_timings(passes),
                                 setup_s=statistics.median(setup) / slow,
                                 peak_rss_mb=runs["run"][1]["peak_rss_mb"])
        result["samples"] = {"setup_s": len(setup), "wall_s": len(passes),
                             "job_p50_s": n_jobs,
                             "peak_rss_mb": 1}
        result["work"] = {
            "passes": len(passes),
            "jobs_per_pass": len(passes[0]["jobs"]),
            "csv_bytes_per_pass": passes[0]["output_bytes"],
            "host_slowness": slow,
            "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
        }
    return result


def _declared_metrics(trace):
    """(name, unit) of each metric BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def _print_result(result, declared, provenance):
    print(f"== {result['workload']}: {result['attempted']} jobs attempted, "
          f"{result['failed']} failed "
          f"(failed_share={result['failed'] / result['attempted']:.4g})")
    for name, unit in declared:
        n = result.get("samples", {}).get(name)
        note = f"  (n={n})" if n is not None else ""
        print(f"  {name:44s} {result['metrics'][name]:.6g} {unit}{note}")
    if "work" in result:
        print("  work: " + ", ".join(
            f"{k}={v:.6g}" for k, v in result["work"].items()))
    for f in result["failures"]:
        print(f"  FAILED {f['run']} pass {f['pass']} {f['job']}: "
              f"{'; '.join(f['why'])}")
    for name in result.get("missing", []):
        print(f"  MISSING layer {name}: its metrics read -1")
    print("provenance " + json.dumps(provenance, sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = (workloads.WORKLOADS if args.workload == "all"
             else (args.workload,))
    if any(n not in workloads.WORKLOADS for n in names):
        ap.error(f"--workload must be one of {workloads.WORKLOADS} or all")
    try:
        checks, version, numpy_version = _load_program()
        results = [run_workload(n, args.seed, args.seconds, args.trace,
                                checks) for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

    provenance = {
        "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy_version,
        "pintlab": version, "machine": platform.machine(),
        "thread_env": THREAD_ENV, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }
    declared = _declared_metrics(args.trace)
    for result in results:
        result["metrics"] = {name: result["metrics"].get(name, MISSING)
                             for name, _ in declared}
    for result in results:
        _print_result(result, declared,
                      dict(provenance, workload=result["workload"]))
        path = os.path.join(WORK, f"result_{result['workload']}.json")
        with open(path, "w") as fh:
            json.dump(dict(result, provenance=provenance), fh, indent=1)

    prefix = len(results) > 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {(f"{r['workload']}." if prefix else "") + name:
                    {"value": r["metrics"][name], "unit": unit}
                    for r in results for name, unit in declared}}))


if __name__ == "__main__":
    main()
