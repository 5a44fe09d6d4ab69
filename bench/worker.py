"""One workload in one fresh process: set up, then run jobs in a closed loop.

Started by ``run.py`` with PYTHONPATH=src and the BLAS thread count fixed.
It prints ``READY`` once set-up is done (the parent times set-up up to that
line), then, unless ``--setup-only``, one ``RESULT <json>`` line.

The loop is one closed-loop client: each job is ``eqdist.cli.run(argv)``
called in-process, and the next job starts only after the previous one has
returned and been judged.  The first ``--rounds`` rounds of the workload run,
so two workers given the same arguments run the same jobs.  Judging a job
(the oracle) and the garbage collection after it are excluded from the loop
time, and so is building each next round.  Before and after every job,
outside the loop time, the worker times a fixed kernel of its own
(``speed.py``); without tracing, each job's time is divided by the machine's
slowdown that the kernel shows around it.

With ``--trace 1`` each round runs twice, untraced and traced (the order
alternates), so the per-layer numbers and the tracing overhead come from the
same job list.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import eqdist
import eqdist.cli as cli
import numpy as np

import oracle
import speed
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
BASELINE = BENCH_DIR / "baseline.json"
QUANTILE_BAND = 0.03   # latency percentiles average the jobs ranked within 3 points


@dataclass
class Outcome:
    job: workloads.Job
    latency: float
    rc: int | None
    sha256: str          # of stdout; outputs are not kept, so they do not add to peak RSS
    stderr: str
    verdict: oracle.Verdict
    kernel_s: list[float]   # speed-kernel times just before and just after the job


class Client:
    """Runs jobs in a private working directory and judges their output."""

    def __init__(self, workdir: Path, baseline: dict):
        self.workdir = workdir
        self.baseline = baseline

    def read_text(self, name: str) -> str:
        return (self.workdir / name).read_text(encoding="utf-8")

    def execute(self, job: workloads.Job) -> tuple[float, int | None, str, str]:
        """Run one job; returns (latency, exit code or None if it raised, stdout, stderr)."""
        if job.perturb:
            source, token = job.perturb
            copy = workloads.perturbed_copy(json.loads(self.read_text(source)), token)
            (self.workdir / job.argv[2]).write_text(json.dumps(copy), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        rc = None
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run(list(job.argv))
            except Exception:  # a raise out of cli.run is a failed job, not a crash
                traceback.print_exc(file=err)
        latency = time.perf_counter() - start
        if job.save and rc == 0:
            (self.workdir / job.save).write_text(out.getvalue(), encoding="utf-8")
        return latency, rc, out.getvalue(), err.getvalue()

    def judge(self, job, rc, stdout) -> oracle.Verdict:
        if rc is None:
            return oracle.Verdict(False, False, "raised out of cli.run")
        return oracle.judge(job, rc, stdout, self.baseline, self.read_text)

    def run_round(self, jobs, tracer=None) -> tuple[list[Outcome], float]:
        """Run jobs in order; returns outcomes and loop time without judging.

        A garbage collection after judging, also left out of the loop time,
        starts every job from the same collector state, so no job pays for
        the garbage of the jobs and checks before it.  The speed kernel runs
        after that, also outside the loop time; a job's speed samples are
        the one taken before it and the one taken after it.
        """
        outcomes, judging = [], 0.0
        before = speed.sample()
        start = time.perf_counter()
        for job in jobs:
            if tracer is not None:
                tracer.job += 1
            latency, rc, stdout, stderr = self.execute(job)
            t = time.perf_counter()
            verdict = self.judge(job, rc, stdout)
            gc.collect()
            after = speed.sample()
            outcomes.append(Outcome(job, latency, rc, digest(stdout), stderr[-2000:],
                                    verdict, before + after))
            before = after
            judging += time.perf_counter() - t
        return outcomes, time.perf_counter() - start - judging


def band_quantile(xs: list[float], q: float) -> float:
    """The q-quantile of xs, smoothed: the mean of the values ranked within
    QUANTILE_BAND of it.

    Where the jobs' times are sparse, a plain percentile of a few hundred jobs
    jumps from one job's time to its neighbour's when noise swaps their order;
    the mean over the band moves little.
    """
    xs = sorted(xs)
    lo = math.floor((q - QUANTILE_BAND) * (len(xs) - 1))
    hi = math.ceil((q + QUANTILE_BAND) * (len(xs) - 1))
    return statistics.mean(xs[lo:hi + 1])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "eqdist": eqdist.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0"))}


def rounds(workload: str, seed: int, count: int, workdir: Path) -> Iterator[list[workloads.Job]]:
    """The first ``count`` seeded rounds, each with its input files written.

    A round is built when the loop asks for it, between timed rounds.
    """
    for r in range(count):
        jobs = workloads.round_jobs(workload, seed, r)
        for name, text in workloads.setup_files(jobs).items():
            (workdir / name).write_text(text, encoding="utf-8")
        yield jobs


def _failure(o: Outcome) -> dict:
    return {"argv": list(o.job.argv), "exit": o.rc, "cause": o.verdict.cause,
            "stderr": o.stderr}


def _changed(outcomes: list[Outcome], recorded: dict) -> tuple[int, int]:
    """(jobs whose stdout differs from the recorded digest, jobs with a record)."""
    checked = [o for o in outcomes if o.job.key in recorded]
    return sum(o.sha256 != recorded[o.job.key] for o in checked), len(checked)


def run_untraced(client: Client, rounds: Iterator) -> dict:
    """Runs the rounds; each job's time is divided by its slowdown (``speed.py``)."""
    outcomes, raw_wall = [], 0.0
    for jobs in rounds:
        got, t = client.run_round(jobs)
        outcomes += got
        raw_wall += t
    slow = [speed.slowdown(o.kernel_s) for o in outcomes]
    latency = [o.latency / f for o, f in zip(outcomes, slow)]
    raw = [o.latency for o in outcomes]
    ok = sum(o.verdict.ok for o in outcomes)
    changed, checked = _changed(outcomes, client.baseline["stdout_sha256"])
    return {
        "attempted": len(outcomes), "failed": len(outcomes) - ok, "wall_s": raw_wall,
        "metrics": {
            "jobs_per_s": ok / sum(latency),
            "latency_p50_ms": 1e3 * band_quantile(latency, 0.5),
            "latency_p90_ms": 1e3 * band_quantile(latency, 0.9),
            "fail_ratio": (len(outcomes) - ok) / len(outcomes),
            "solved_ratio": sum(o.verdict.solved for o in outcomes) / len(outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
        "unscaled": {"jobs_per_s": ok / sum(raw),
                     "latency_p50_ms": 1e3 * band_quantile(raw, 0.5),
                     "latency_p90_ms": 1e3 * band_quantile(raw, 0.9)},
        "slowdown": slow, "jobs": [{"latency_s": o.latency, "kernel_s": o.kernel_s}
                                   for o in outcomes],
        "stdout_changed": changed, "stdout_checked": checked,
        "failures": [_failure(o) for o in outcomes if not o.verdict.ok],
    }


def run_traced(client: Client, rounds: Iterator, spans_path: Path) -> dict:
    """Each round untraced and traced; both passes must print the same bytes."""
    first = next(rounds)
    client.execute(first[0])     # warm-up, so neither pass pays first-call costs
    tracer = tracing.Tracer()
    plain, traced, wall_plain, wall_traced = [], [], 0.0, 0.0
    for r, jobs in enumerate(itertools.chain([first], rounds)):
        # alternate which pass goes first, so drift does not bias the overhead
        for traced_pass in ((False, True) if r % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.install()
                try:
                    got, t = client.run_round(jobs, tracer)
                finally:
                    tracer.uninstall()
                traced += got
                wall_traced += t
            else:
                got, t = client.run_round(jobs)
                plain += got
                wall_plain += t
    failures, failed = [], 0
    for a, b in zip(plain, traced):
        bad = [_failure(o) for o in (a, b) if not o.verdict.ok]
        if a.sha256 != b.sha256 or a.rc != b.rc:
            bad.append({"argv": list(a.job.argv), "exit": b.rc, "stderr": "",
                        "cause": "stdout or exit code differs under tracing"})
        failures += bad
        failed += bool(bad)
    leftover = [(m.__name__, a) for m in list(sys.modules.values())
                if m is not None and m.__name__.startswith("eqdist")
                for a, v in vars(m).items() if hasattr(v, "__wrapped__")]
    if leftover:
        failures.append({"argv": [], "exit": None, "stderr": "",
                         "cause": f"tracing wrappers left installed: {leftover}"})
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["cli.stdout_changed"], checked = _changed(plain, client.baseline["stdout_sha256"])
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    with open(spans_path, "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps({"name": s.name, "job": s.job, "parent": s.parent,
                                 "start": s.start, "end": s.end, "ok": s.ok,
                                 **s.counts}) + "\n")
    return {"attempted": len(traced), "failed": failed, "clean": not leftover,
            "wall_s": wall_traced, "untraced_wall_s": wall_plain, "metrics": metrics,
            "stdout_checked": checked, "spans": len(tracer.spans), "failures": failures}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workdir = Path(args.workdir)
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        jobs = rounds(args.workload, args.seed, args.rounds, workdir)
        first = next(jobs)     # set-up ends with the first round's inputs built
        print("READY", flush=True)
        if args.setup_only:
            return 0
        with open(BASELINE, encoding="utf-8") as fh:
            baseline = json.load(fh)
        gc.freeze()   # modules and recorded values live all run; keep them out of collections
        client = Client(workdir, baseline)
        jobs = itertools.chain([first], jobs)
        os.chdir(workdir)
        if args.trace:
            result = run_traced(client, jobs, Path(args.spans))
        else:
            result = run_untraced(client, jobs)
        result["machine"] = machine_info()
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
