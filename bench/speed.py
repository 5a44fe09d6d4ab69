"""How fast the machine runs right now, from a fixed kernel of the benchmark's own.

The benchmark machine is shared.  For tens of seconds at a time, load from
outside the benchmark slows every job by up to 1.8x; CPU time grows with wall
time, so the slowdown is contention for the cores, not time spent waiting.  A
run of 20 to 30 seconds can fall entirely inside such a stretch, so taking
the least of repeated runs does not remove it.

So the benchmark runs ``sample`` before and after every job, outside the
timed loop.  The job's slowdown is the trimmed mean of those kernel times
over ``REF_S``, the kernel's time on the reference machine when nothing else
loads it, and the job's wall time is divided by it.  The trimming drops the
kernel runs that were cut by a switch to another process.  The kernel mixes
what the program does: interpreted Python, many small numpy calls, a LAPACK
factorisation and JSON encoding.  It calls no eqdist code, so a change of the
program cannot move it.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

# kernel seconds on a 2-vCPU Intel Xeon (2.1 GHz, Python 3.11, numpy 2.4 with
# scipy-openblas on one thread) when nothing else loads it: the 2nd percentile
# of 3,000 job slowdowns measured there during benchmark runs
REF_S = 6.5e-4

REPEATS = 5          # kernel runs per sample
TRIM = 0.1           # share of the kernel times dropped at each end

_RNG = np.random.default_rng(20200926)
_SMALL = _RNG.standard_normal((6, 6))
_MEDIUM = _RNG.standard_normal((48, 48))
_ROWS = _RNG.standard_normal((30, 6)).tolist()


def kernel_s() -> float:
    """Wall seconds of one run of the fixed kernel (about a millisecond)."""
    start = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i % 7
    for _ in range(20):
        acc += float(np.abs(_SMALL @ _SMALL).max())
    np.linalg.svd(_MEDIUM)
    json.dumps(_ROWS)
    return time.perf_counter() - start


def sample() -> list[float]:
    """Kernel times of REPEATS runs in a row."""
    return [kernel_s() for _ in range(REPEATS)]


def trimmed_mean(xs: list[float]) -> float:
    xs = sorted(xs)
    k = int(len(xs) * TRIM)
    return statistics.mean(xs[k:len(xs) - k])


def slowdown(times: list[float]) -> float:
    """The machine's slowdown against the reference, from kernel times."""
    return trimmed_mean(times) / REF_S
