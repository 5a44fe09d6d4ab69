"""Record the values the oracle compares against, into bench/baseline.json.

    python3 bench/record.py

Records, from the program at the current commit:
  * ``best_bound``: ``bound --best`` value for every space a job can ask about;
  * ``certify_passes``: ``passes`` for every point set and theorem a certify
    job can use;
  * ``stdout_sha256``: SHA-256 of the stdout of every job in the first
    ``RECORD_ROUNDS`` rounds of each workload at the default seed (the
    ``cli.stdout_changed`` count compares against these).

Re-record only when a change of output is intended, and say so.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import worker      # noqa: E402  (needs the path and BLAS settings above)
import workloads   # noqa: E402

RECORD_ROUNDS = 16
THM4_TOKEN = "0000beef"


def _run(client: worker.Client, argv: tuple[str, ...], exits=(0,)) -> dict:
    job = workloads.Job(argv, frozenset(exits))
    _, rc, stdout, stderr = client.execute(job)
    if rc not in exits:
        raise SystemExit(f"{' '.join(argv)}: exit {rc}: {stderr.strip()}")
    return json.loads(stdout)


def record(workdir: Path) -> dict:
    client = worker.Client(workdir, {})
    best = {space: _run(client, ("bound", "--space", space, "--best"))["value"]
            for space in workloads.bound_spaces()}
    passes = {}
    for source, theorem, extra in workloads.certify_catalog():
        word = source.split()
        if word[0] == "construct":
            name = workloads.construct_file(word[1], tuple(word[2:]))
            (workdir / name).write_text(json.dumps(_run(client, tuple(word))), encoding="utf-8")
        else:
            name = "thm4set.json"
            shape = tuple(int(w) for w in word[1:])
            (workdir / name).write_text(json.dumps(workloads.thm4_set(*shape, THM4_TOKEN)),
                                        encoding="utf-8")
        out = _run(client, ("certify", "--points", name, "--theorem", theorem, *extra), (0, 2))
        passes[workloads.certify_key(source, theorem, extra)] = out["passes"]
    client.baseline = {"best_bound": best, "certify_passes": passes}
    digests = {}
    for wl in workloads.WORKLOADS:
        for r in range(RECORD_ROUNDS):
            jobs = workloads.round_jobs(wl, workloads.DEFAULT_SEED, r)
            for name, text in workloads.setup_files(jobs).items():
                (workdir / name).write_text(text, encoding="utf-8")
            outcomes, _ = client.run_round(jobs)
            for o in outcomes:
                if not o.verdict.ok:
                    raise SystemExit(f"{o.job.key}: {o.verdict.cause}")
                if digests.setdefault(o.job.key, o.sha256) != o.sha256:
                    raise SystemExit(f"{o.job.key}: stdout differs between two runs")
        print(f"recorded {wl}", file=sys.stderr)
    return {"seed": workloads.DEFAULT_SEED, "rounds": RECORD_ROUNDS,
            "best_bound": best, "certify_passes": passes, "stdout_sha256": digests}


def main() -> int:
    with tempfile.TemporaryDirectory(dir=BENCH_DIR) as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            baseline = record(Path(tmp))
        finally:
            os.chdir(cwd)
    with open(BENCH_DIR / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
