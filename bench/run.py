"""eqdist benchmark: one seeded workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload approx-sweep --seed 0 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` (PYTHONPATH=src), the way the test suite runs it.  The workload
runs in a fresh worker process (``worker.py``) with the BLAS thread count
fixed at 1.

A run is a fixed job list: the first ``rounds_for(...)`` rounds of the
workload, as many as take about ``--seconds`` of loop time on a 2-vCPU Xeon
(``ROUND_S``), and at least ``MIN_JOBS`` jobs.  So two runs with the same seed run the same jobs, whatever the
speed of the machine.

Every time the benchmark reports is divided by the machine's slowdown at the
moment it was taken, measured by a fixed kernel of the benchmark's own
(``speed.py``).  The times are so given at the speed of the reference
machine with nothing else running; the lines before the result also give
them as measured.

``setup_s`` is the median over ``SETUP_SAMPLES`` fresh interpreters (set-up
probes, half started before the worker and half after it) of the time from
process start until the worker has imported ``eqdist`` and ``eqdist.cli``
and built the first round of its seeded inputs.  Before and after each probe
the parent times the speed kernel, which gives that sample's slowdown.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, with ``--trace 1`` the per-layer ones (see BENCHMARK.json
and bench/README.md).  The lines before it give every metric with its unit
and sample count, and the machine.  A full record, failing jobs included,
is written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "eqdist" / "__init__.py").is_file():
    sys.exit(f"error: no eqdist sources under {SRC}; run from a source checkout")
sys.path.insert(0, str(SRC))
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for var in BLAS_THREADS:     # before numpy is imported, here and in the workers
    os.environ[var] = "1"

import speed  # noqa: E402
from workloads import WORKLOADS, round_jobs  # noqa: E402  (imports eqdist, so needs src on the path)

RESULTS = BENCH_DIR / "results"
SETUP_SAMPLES = 10
KERNEL_SAMPLES = 4      # speed samples before and after each set-up probe
DEADLINE_S = 170        # a run that takes longer is stopped and fails
# p90 then has 15 samples beyond it; witness-search's p90, which its seeded
# search seeds move, spread 0.14 over ten seeds with 100 jobs a run
MIN_JOBS = 150
# wall seconds of one untraced round on a shared 2-vCPU Xeon at its usual load
ROUND_S = {"approx-sweep": 3.5, "pointset-pipeline": 2.6, "witness-search": 4.9}


def rounds_for(workload: str, seed: int, seconds: float) -> int:
    """Rounds in a run: they take about ``seconds`` and hold at least MIN_JOBS jobs."""
    count = max(1, round(seconds / ROUND_S[workload]))
    while sum(len(round_jobs(workload, seed, r)) for r in range(count)) < MIN_JOBS:
        count += 1
    return count


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, workdir: Path, extra: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it and the seconds until it printed READY."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--rounds", str(args.rounds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "READY":
        _stop(proc)
        raise RuntimeError(f"worker set-up failed (exit {proc.returncode})")
    return proc, ready


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def measure(args) -> dict:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.perf_counter() + DEADLINE_S
    left = lambda: max(1.0, deadline - time.perf_counter())

    def work(name: str, extra: list[str]) -> dict:
        proc, _ = _worker(args, RESULTS / f"tmp-{tag}-{name}", extra)
        try:
            out, _ = proc.communicate(timeout=left())
        finally:
            _stop(proc)
        lines = [ln for ln in out.splitlines() if ln.startswith("RESULT ")]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited {proc.returncode} without a result")
        return json.loads(lines[-1][len("RESULT "):])

    def probe(count: int) -> list[tuple[float, float]]:
        """(set-up seconds, slowdown around it) of ``count`` set-up probes."""
        samples = []
        for _ in range(count):
            before = [k for _ in range(KERNEL_SAMPLES) for k in speed.sample()]
            proc, ready = _worker(args, RESULTS / f"tmp-{tag}-probe", ["--setup-only"])
            try:
                proc.communicate(timeout=left())
            finally:
                _stop(proc)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe exited {proc.returncode}")
            after = [k for _ in range(KERNEL_SAMPLES) for k in speed.sample()]
            samples.append((ready, speed.slowdown(before + after)))
        return samples

    if args.trace:
        return work("trace", ["--spans", str(RESULTS / f"spans-{tag}.jsonl")])
    setup = probe(SETUP_SAMPLES // 2)
    result = work("run", [])
    setup += probe(SETUP_SAMPLES - SETUP_SAMPLES // 2)
    result["setup_samples"] = [{"s": t, "slowdown": f} for t, f in setup]
    result["metrics"]["setup_s"] = statistics.median(t / f for t, f in setup)
    result["unscaled"]["setup_s"] = statistics.median(t for t, _ in setup)
    return result


def _report(args, result: dict, names: list[tuple[str, str]]) -> dict:
    n = result["attempted"]
    samples = {"setup_s": len(result.get("setup_samples", ()))}
    m = result["machine"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} rounds={args.rounds} "
          f"trace={args.trace}: "
          f"nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} blas={m['blas']} blas_threads={m['blas_threads']}")
    print(f"# jobs attempted={n} failed={result['failed']} loop_wall_s={result['wall_s']:.3f} "
          f"stdout_checked={result.get('stdout_checked', 0)}")
    if not args.trace:
        slow = result["slowdown"] + [s["slowdown"] for s in result["setup_samples"]]
        print(f"# times below are at reference speed: measured times over the slowdown, "
              f"{min(slow):.3f} to {max(slow):.3f} in this run (speed.py)")
    for name, unit in names:
        value = result["metrics"][name]
        measured = result.get("unscaled", {}).get(name)
        print(f"# {name:44s} {value:>16.6g} {unit:6s} n={samples.get(name, n)}"
              + (f"  (measured {measured:.6g})" if measured is not None else ""))
    for f in result["failures"]:
        print(f"# FAILED {' '.join(f['argv'])}: exit {f['exit']}: {f['cause']}")
    return {name: {"value": result["metrics"][name], "unit": unit} for name, unit in names}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.rounds = rounds_for(args.workload, args.seed, args.seconds)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer" if args.trace else "end_to_end"]
    names = [(m["name"], m["unit"]) for m in section]
    if not args.trace:
        # printed on a "#" line only: it is 0 when nothing fails
        names.insert(names.index(("solved_ratio", "ratio")), ("fail_ratio", "ratio"))
    RESULTS.mkdir(exist_ok=True)
    try:
        result = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        for tmp in RESULTS.glob(f"tmp-{args.workload}-seed{args.seed}-trace{args.trace}*"):
            shutil.rmtree(tmp, ignore_errors=True)
    metrics = _report(args, result, names)
    metrics.pop("fail_ratio", None)
    correct = result["failed"] == 0 and result.get("clean", True)
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"args": vars(args), "correct": correct, **result}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
