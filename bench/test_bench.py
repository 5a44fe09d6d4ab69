"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import eqdist  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402

BASELINE = json.loads((BENCH_DIR / "baseline.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_is_a_function_of_the_seed(workload):
    keys = lambda seed: [[j.key for j in workloads.round_jobs(workload, seed, r)] for r in range(3)]
    assert keys(11) == keys(11)
    assert keys(11) != keys(12)
    assert len({tuple(r) for r in keys(11)}) == 3      # rounds differ from each other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_keep_their_composition(workload):
    kinds = lambda seed: sorted(j.kind + str(sorted(j.exits)) for j in
                                workloads.round_jobs(workload, seed, 0))
    assert kinds(1) == kinds(2) == kinds(3)


def test_every_generated_job_has_a_recorded_expectation():
    catalog = {workloads.certify_key(*entry) for entry in workloads.certify_catalog()}
    assert catalog == set(BASELINE["certify_passes"])
    assert set(workloads.bound_spaces()) == set(BASELINE["best_bound"])
    for seed in range(5):
        for r in range(4):
            for job in workloads.round_jobs("pointset-pipeline", seed, r):
                if job.kind == "certify":
                    assert job.check["passes_key"] in catalog
                if job.kind == "bound":
                    assert job.check["space"] in BASELINE["best_bound"]


def test_approx_sweep_mix():
    jobs = [j for r in range(50) for j in workloads.round_jobs("approx-sweep", 3, r)]
    even = [j for j in jobs if j.check["p"].is_integer() and int(j.check["p"]) % 2 == 0]
    assert 0 < len(even) < len(jobs) / 10
    assert len({j.key for j in jobs}) > 0.9 * len(jobs)
    assert all(math.ceil(j.check["p"]) <= j.check["d"] <= 45 for j in jobs)


def test_pointset_costs_cover_their_ranges_whatever_the_seed():
    # the sizes, exponents and catalog entries follow a sequence over the rounds,
    # so a short run already spans each range and the seed barely moves the picks
    picks = lambda seed: sorted(j.key for r in range(12)
                                for j in workloads.round_jobs("pointset-pipeline", seed, r)
                                if j.kind == "construct")
    assert len(set(picks(1)) & set(picks(2))) > 0.75 * len(picks(1))
    sizes = {int(j.argv[3]) for r in range(12)
             for j in workloads.round_jobs("pointset-pipeline", 1, r)
             if j.argv[:2] == ("construct", "cross-polytope") and int(j.argv[3]) > 150}
    assert min(sizes) < 165 and max(sizes) > 185


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_run_is_a_fixed_job_list(workload):
    count = run.rounds_for(workload, 5, 24)
    assert count == run.rounds_for(workload, 5, 24) <= run.rounds_for(workload, 5, 48)
    jobs = sum(len(workloads.round_jobs(workload, 5, r)) for r in range(count))
    assert jobs >= run.MIN_JOBS


def test_band_quantile_averages_the_jobs_ranked_near_it():
    xs = [float(x) for x in range(101)]
    assert worker.band_quantile(xs, 0.5) == 50.0     # ranks 47..53
    assert worker.band_quantile(xs, 0.9) == 90.0     # ranks 87..93
    # swapping the times of the two middle jobs moves a percentile, not the band mean
    gap = [1.0] * 50 + [2.0, 3.0] + [4.0] * 49
    assert worker.band_quantile(gap, 0.5) == worker.band_quantile(gap[::-1], 0.5)


def test_slowdown_is_the_trimmed_mean_over_the_reference():
    times = [speed.REF_S] * 8 + [2 * speed.REF_S, 100 * speed.REF_S]   # one cut by a switch
    assert speed.slowdown(times) == pytest.approx(9 / 8)
    assert speed.slowdown([speed.kernel_s() for _ in range(5)]) > 0


def test_self_time_on_a_hand_built_tree():
    # run [0, 10] -> certify [1, 9] -> (matrix [2, 4], rank [5, 8] -> nothing); emit [9, 10]
    spans = [Span("cli.run", 0, -1, 0.0, 10.0, True),
             Span("certify.certify", 0, 0, 1.0, 9.0, True, {"passes": 1}),
             Span("certify.matrix_thm1", 0, 1, 2.0, 4.0, True),
             Span("certify.numerical_rank", 0, 1, 5.0, 8.0, True, {"entries": 16}),
             Span("cli.emit", 0, 0, 9.0, 10.0, True, {"bytes": 7})]
    assert tracing.self_times(spans) == [1.0, 3.0, 2.0, 3.0, 1.0]
    m = tracing.layer_metrics(spans)
    assert m["cli.run.self_s"] == 1.0 and m["certify.certify.self_s"] == 3.0
    assert m["certify.matrix_build.calls"] == 1 and m["certify.matrix_build.s"] == 2.0
    assert m["certify.numerical_rank.s"] == 3.0 and m["certify.numerical_rank.entries"] == 16
    assert m["certify.pass_ratio"] == 1.0 and m["cli.emit.bytes"] == 7
    assert m["space.distance_matrix.calls"] == 0


def _originals():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith("eqdist")
            for attr, value in vars(mod).items() if callable(value)}


def test_wrappers_keep_outputs_and_are_removed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    client = worker.Client(tmp_path, BASELINE)
    jobs = [workloads.Job(("construct", "product", "--a", "2", "--b", "1"), frozenset({0}),
                          save="prod.json"),
            workloads.Job(("verify", "--points", "prod.json"), frozenset({0})),
            workloads.Job(("certify", "--points", "prod.json", "--theorem", "thm3"),
                          frozenset({0})),
            workloads.Job(("construct", "cross-polytope", "--n", "2"), frozenset({0}),
                          save="cp.json"),
            workloads.Job(("certify", "--points", "cp.json", "--theorem", "thm2", "--c", "2"),
                          frozenset({0})),
            workloads.Job(("bound", "--space", "lp:n=3,p=1"), frozenset({0})),
            workloads.Job(("search", "--space", "lp:n=2,p=1.5", "--m", "3"), frozenset({0}))]
    before = _originals()
    plain = [client.execute(j) for j in jobs]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        bound = set(tracer.bindings)
        traced = [client.execute(j) for j in jobs]
    finally:
        tracer.uninstall()
    assert [(rc, out) for _, rc, out, _ in plain] == [(rc, out) for _, rc, out, _ in traced]
    assert all(rc == 0 for _, rc, _, _ in plain)
    for binding in [("eqdist.cli", "run_certify"), ("eqdist.certify", "distance_matrix"),
                    ("eqdist.certify", "approximate_abs_power"),
                    ("eqdist.certify", "distance_profile"), ("eqdist.construct", "distance_matrix"),
                    ("eqdist.certify", "certify"), ("eqdist", "certify"), ("eqdist.cli", "run")]:
        assert binding in bound
    assert _originals() == before
    assert not tracer.bindings
    names = {s.name for s in tracer.spans}
    assert {"cli.run", "cli.emit", "certify.certify", "certify.gram_thm3",
            "certify.independence_rank_thm3", "certify.numerical_rank", "space.distance_matrix",
            "construct.distance_profile", "construct.product_construction",
            "approx.approximate_abs_power", "approx.approximation_error",
            "bounds.enumerate_bounds", "construct.search_equilateral"} <= names
    assert all(s.parent < i for i, s in enumerate(tracer.spans))
    m = tracing.layer_metrics(tracer.spans)
    assert m["cli.run.calls"] == len(jobs)
    assert m["cli.emit.bytes"] == sum(len(out) for _, _, out, _ in traced)
    assert m["construct.search_equilateral.restarts"] == 8


# ---------------------------------------------------------------------------
# the oracle rejects corrupted outputs


def _cp(n):
    return eqdist.cross_polytope(n).to_jsonable()


def test_oracle_rejects_a_perturbed_set_reported_as_equilateral():
    good = _cp(3)
    bad = workloads.perturbed_copy(good, "00000001")
    report = {"space": good["space"], "m": 6, "profile": [1.0], "equilateral": True,
              "max_deviation": 0.0}
    check = {"tol": 1e-7, "equilateral": True}
    assert oracle.check_verify(check, report, 0, json.dumps(good)).ok
    v = oracle.check_verify(check, report, 0, json.dumps(bad))
    assert not v.ok and "equilateral flag" in v.cause


def test_oracle_rejects_a_wrong_max_deviation_or_exit():
    bad = workloads.perturbed_copy(_cp(3), "00000002")
    prof = oracle.reference_profile(oracle.pair_distances(bad["space"], bad["points"]), 1e-7)
    dev = max(abs(d - 1) for d in prof)
    report = {"space": bad["space"], "m": 6, "profile": prof, "equilateral": False,
              "max_deviation": dev}
    check = {"tol": 1e-7, "equilateral": False}
    text = json.dumps(bad)
    assert oracle.check_verify(check, report, 2, text).ok
    assert not oracle.check_verify(check, report, 0, text).ok
    assert not oracle.check_verify(check, dict(report, max_deviation=dev + 1e-9), 2, text).ok


def test_oracle_rejects_nonzero_error_for_even_p():
    out = {"p": 4.0, "d": 6, "coefficients": [0.0, 1.0, 0.0], "measured_error": 0.0,
           "jackson_bound": 1.0}
    assert oracle.check_approx({"p": 4.0, "d": 6}, out).ok
    assert not oracle.check_approx({"p": 4.0, "d": 6}, dict(out, measured_error=1e-17)).ok
    wrong = dict(out, coefficients=[0.0, 1.0, 1e-6])
    assert not oracle.check_approx({"p": 4.0, "d": 6}, wrong).ok


def test_oracle_rejects_an_understated_approximation_error():
    P, cert = eqdist.approximate_abs_power(1.5, 12)
    out = {"p": 1.5, "d": 12, "coefficients": list(P.even_coeffs),
           "measured_error": cert.measured_error, "jackson_bound": cert.jackson_bound}
    assert oracle.check_approx({"p": 1.5, "d": 12}, out).ok
    assert not oracle.check_approx({"p": 1.5, "d": 12},
                                   dict(out, measured_error=cert.measured_error / 2)).ok
    assert not oracle.check_approx({"p": 1.5, "d": 12},
                                   dict(out, jackson_bound=cert.measured_error / 2)).ok


def test_oracle_rejects_a_wrong_search_residual():
    pts = eqdist.euclidean_simplex(2)
    out = {**pts.to_jsonable(), "residual": 0.0, "converged": True, "restart_index": 0}
    check = {"space": "lp:n=2,p=2", "m": 3, "target": 1e-10}
    ref = float(max(abs(oracle.pair_distances(out["space"], out["points"]) - 1)))
    assert oracle.check_search(check, dict(out, residual=ref), 0).ok
    assert not oracle.check_search(check, dict(out, residual=ref + 1e-9), 0).ok
    assert not oracle.check_search(check, dict(out, residual=ref, converged=False), 2).ok


def test_oracle_checks_certify_against_the_record():
    key = "thm1 construct cross-polytope --n 2"
    out = {"theorem": "thm1", "passes": False, "rank_lemma_lower": 3.0, "numerical_rank": 4}
    check = {"theorem": "thm1", "passes_key": key}
    assert oracle.check_certify(check, out, 2, {key: False}).ok
    assert not oracle.check_certify(check, out, 0, {key: False}).ok
    assert not oracle.check_certify(check, dict(out, passes=True), 0, {key: False}).ok
    assert not oracle.check_certify(check, dict(out, rank_lemma_lower=4.5), 2, {key: False}).ok


def test_oracle_rejects_a_wrong_best_bound():
    check = {"space": "lpsum:blocks=2,3,p=inf", "best": True}
    assert oracle.check_bound(check, {"value": 13}, {"lpsum:blocks=2,3,p=inf": 13}).ok
    assert not oracle.check_bound(check, {"value": 14}, {"lpsum:blocks=2,3,p=inf": 13}).ok


def test_reference_distances_match_the_library():
    for ps in (eqdist.cross_polytope(5), eqdist.lp_simplex(4, 3.5),
               eqdist.product_construction(eqdist.euclidean_simplex(2), eqdist.euclidean_simplex(3))):
        lib = eqdist.distance_matrix(ps)
        ours = oracle.pair_distances(ps.space.to_string(), ps.points)
        iu = [(i, j) for i in range(ps.m) for j in range(i + 1, ps.m)]
        assert max(abs(lib[i, j] - d) for (i, j), d in zip(iu, ours)) < 1e-14


def test_oracle_rejects_a_corrupted_construction_and_unexpected_exits():
    good = json.dumps(_cp(4))
    check = {"space": "lp:n=4,p=1", "m": 8}
    assert oracle.check_construct(check, good).ok
    v = oracle.check_construct(check, json.dumps(workloads.perturbed_copy(_cp(4), "00000003")))
    assert not v.ok and "not unit-equilateral" in v.cause
    job = workloads.Job(("construct", "cross-polytope", "--n", "4"), frozenset({0}), check)
    assert oracle.judge(job, 0, good, BASELINE, None).ok
    assert not oracle.judge(job, 1, good, BASELINE, None).ok
    assert not oracle.judge(job, 0, "not json", BASELINE, None).ok
