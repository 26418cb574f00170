"""One measured process: imports pintlab from the checkout's `src/` and runs
a workload's jobs through `pintlab.cli.main(argv)` in-process.

    python3 perfbench/child.py --workload W --seed N --budget S --trace 0|1 \
        --workdir DIR [--probe]

Prints `ready` once pintlab is imported and the job list is built (the
parent times this line for `setup_s`); with --probe it exits there.
Otherwise it runs whole passes over the job list, each job writing its CSVs
under DIR/p<pass>/<job_id>/, and writes DIR/report.json with each job's
seconds, exit code and standard output, and each pass's host-speed samples
(refspeed.py: one before each job and one after the last).  A pass is
started only while the time used so far plus half the mean pass time fits
in the budget, so a run ends within half a pass of it; the first pass
always runs.  With --trace 1 exactly one pass runs, with every layer
wrapped (see tracer.py), and the spans go to DIR/trace.jsonl.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import pintlab.cli
    if not os.path.abspath(pintlab.__file__).startswith(src + os.sep):
        sys.exit(f"pintlab imported from {pintlab.__file__}, not {src}")
    import refspeed
    import workloads
    jobs = workloads.jobs(args.workload, args.seed)
    print("ready", flush=True)
    if args.probe:
        return

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)

    refspeed.slice_s()   # warm-up: the interpreter specialises the loop
    passes = []
    t_begin = perf_counter()
    while True:
        used = perf_counter() - t_begin
        if passes and (args.trace
                       or used + 0.5 * used / len(passes) > args.budget):
            break
        p = len(passes)
        records = []
        ref = []
        t_pass = perf_counter()
        for job_id, (name, argv) in enumerate(jobs):
            ref.append(refspeed.slice_s())
            out_dir = os.path.join(f"p{p}", name)
            buf = io.StringIO()
            if tracer:
                tracer.job_id = job_id
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = pintlab.cli.main(argv + ["--out", out_dir])
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # counted as a failed job, not fatal
                rc = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
            records.append({"job": name, "s": t1 - t0, "rc": rc,
                            "stdout": buf.getvalue(), "dir": out_dir})
        ref.append(refspeed.slice_s())
        passes.append({"wall_s": sum(r["s"] for r in records),
                       "jobs": records, "ref": ref,
                       "output_bytes": _dir_bytes(f"p{p}")})

    report = {
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer:
        report["layers"] = tracer.summary(passes[0]["wall_s"],
                                          passes[0]["output_bytes"])
        report["missing"] = tracer.missing
        tracer.write_jsonl("trace.jsonl", t_pass)
    with open("report.json", "w") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
