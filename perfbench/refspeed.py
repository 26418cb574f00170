"""Host speed reference: a fixed interpreter loop timed between the jobs.

The benchmark's hosts share their cores with other tenants, and their speed
swings by up to a half over seconds to minutes.  Process CPU time swings
with wall time, so it does not help.  Every measuring child therefore times
`slice_s()` before each job and after the last one.  The kernel is a fixed
pure-Python loop that no pintlab change can touch, so its time follows only
the host.  A pass's slowness is the median of its slices over NOMINAL_S,
and every end-to-end timing is divided by it: the benchmark's seconds are
seconds at the speed at which a slice takes NOMINAL_S.

Why an interpreter loop: pintlab's sweeps (`catalog`) are interpreter-bound
and slow down with it.  An array kernel tracked them worse: at times it
slowed by 1.9x while they slowed by 1.5x.  In a ten-minute `catalog` series
on the 2-core host below, cut into three-pass runs, the job list's time
spread 0.24 raw and 0.03 to 0.09 divided by this kernel's slowness (a
spread is the distance between the quartiles over the median).
"""

import statistics
from time import perf_counter

# About the median slice time on a shared 2-core x86_64 Xeon host at
# 2.1 GHz (Python 3.11).  It defines the unit; never re-tune it, or
# timings stop being comparable across commits.
NOMINAL_S = 0.020
_ITERS = 200_000


def slice_s():
    """Seconds one run of the reference kernel takes now."""
    t0 = perf_counter()
    acc = 0
    for i in range(_ITERS):
        acc += i * i % 7
    return perf_counter() - t0


def slowness(slices):
    """How much slower than nominal the host ran over these slices."""
    return statistics.median(slices) / NOMINAL_S
