import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from eqdist import construct
from eqdist import space as space_mod
from eqdist.construct import (SearchConfig, cross_polytope, distance_profile,
                              euclidean_simplex, lp_simplex,
                              product_construction, search_equilateral,
                              simplex_lambda)
from eqdist.errors import DegenerateDistanceError, InputError, ResourceLimitError
from eqdist.space import PointSet, Space, _outer_norm, distance_matrix, pair_block_norms

from search_reference import search_reference


def _profile_is_unit(ps, tol):
    prof = distance_profile(ps, 1e-7)
    return len(prof) == 1 and abs(prof[0] - 1.0) <= tol


def test_cross_polytope():
    ps = cross_polytope(1)
    assert np.array_equal(ps.points, [[0.5], [-0.5]])
    for n in (2, 7, 20):
        ps = cross_polytope(n)
        assert ps.m == 2 * n and ps.space == Space(1.0, (1,) * n)
        assert _profile_is_unit(ps, 1e-12)
    with pytest.raises(InputError):
        cross_polytope(0)


def test_simplex_lambda_analytic():
    assert abs(simplex_lambda(3, 2) - 1.0) < 1e-12
    assert abs(simplex_lambda(2, 2) - (1 + math.sqrt(3)) / 2) < 1e-12
    assert abs(simplex_lambda(4, 2) - (1 + math.sqrt(5)) / 4) < 1e-12


def test_simplex_lambda_residual():
    for n in (2, 3, 5, 12, 30):
        for p in (1.2, 1.5, 2, 3, 7.5):
            lam = simplex_lambda(n, p)
            assert abs(abs(1 - lam) ** p + (n - 1) * lam ** p - 2) <= 1e-12


def test_simplex_lambda_validation():
    with pytest.raises(InputError):
        simplex_lambda(1, 2)
    with pytest.raises(InputError):
        simplex_lambda(3, 1.0)
    with pytest.raises(InputError):
        simplex_lambda(3, math.inf)


def test_lp_simplex_profiles():
    for n, p in [(3, 2), (2, 3), (5, 1.5), (30, 1.2), (30, 7.5)]:
        ps = lp_simplex(n, p)
        assert ps.m == n + 1
        assert _profile_is_unit(ps, 1e-10)


def test_euclidean_simplex():
    ps = euclidean_simplex(1)
    assert np.array_equal(ps.points, [[0.0], [1.0]])
    assert _profile_is_unit(euclidean_simplex(2), 1e-12)
    assert _profile_is_unit(euclidean_simplex(3), 1e-12)


def test_product_construction():
    tri_seg = product_construction(euclidean_simplex(2), euclidean_simplex(1))
    assert tri_seg.m == 6 and tri_seg.space == Space(math.inf, (2, 1))
    assert _profile_is_unit(tri_seg, 1e-12)
    for a, b in [(2, 2), (3, 3), (4, 4)]:
        ps = product_construction(euclidean_simplex(a), euclidean_simplex(b))
        assert ps.m == (a + 1) * (b + 1)
        assert _profile_is_unit(ps, 1e-12)
        S, T = euclidean_simplex(a), euclidean_simplex(b)
        for i in range(S.m):
            for j in range(T.m):
                assert np.array_equal(ps.points[i * T.m + j], np.concatenate([S.points[i], T.points[j]]))


def test_product_single_point_copy():
    one = PointSet(Space(2.0, (1,)), np.array([[0.25]]))
    seg = euclidean_simplex(1)
    ps = product_construction(one, seg)
    assert ps.m == 2
    assert np.array_equal(ps.points[:, 1:], seg.points)


def test_product_rejects_non_equilateral():
    bad = PointSet(Space(2.0, (1, 1)), np.array([[0, 0], [1, 0], [3, 0.0]]))
    with pytest.raises(InputError):
        product_construction(bad, euclidean_simplex(1))
    non_euclid = cross_polytope(2)
    with pytest.raises(InputError):
        product_construction(non_euclid, euclidean_simplex(1))


def test_distance_profile():
    assert distance_profile(cross_polytope(3)) == [1.0]
    square = PointSet(Space(2.0, (1, 1)),
                      np.array([[0, 0], [1, 0], [1, 1], [0, 1.0]]))
    prof = distance_profile(square)
    assert len(prof) == 2
    assert abs(prof[0] - math.sqrt(2)) < 1e-12 and abs(prof[1] - 1.0) < 1e-12
    dup = PointSet(Space(2.0, (1, 1)), np.array([[0, 0], [0, 0.0]]))
    with pytest.raises(DegenerateDistanceError):
        distance_profile(dup)
    with pytest.raises(InputError):
        distance_profile(PointSet(Space(2.0, (1,)), np.array([[1.0]])))


def test_profile_clusters_nearby_distances():
    pts = PointSet(Space(2.0, (1, 1)),
                   np.array([[0, 0], [1, 0], [0, 1 + 2e-9]]))
    prof = distance_profile(pts, tol=1e-7)
    assert len(prof) == 2  # the two unit-ish sides merge, the diagonal stays


def _profile_by_loop(points, tol):
    """distance_profile as it clustered one distance at a time, kept verbatim."""
    dm = distance_matrix(points)
    dists = np.sort(dm[np.triu_indices(points.m, 1)])
    clusters: list[list[float]] = [[dists[0]]]
    for d in dists[1:]:
        if d - clusters[-1][-1] > tol:
            clusters.append([d])
        else:
            clusters[-1].append(d)
    return sorted((float(np.mean(c)) for c in clusters), reverse=True)


def test_profile_matches_the_loop():
    rng = np.random.default_rng(29)
    for _ in range(300):
        m = int(rng.integers(2, 30))
        # grid points plus noise: many distances repeat up to the noise
        noise = 10.0 ** rng.uniform(-9, -2)
        x = rng.integers(0, 12, size=(m, 2)) * 0.1 + rng.normal(size=(m, 2)) * noise
        ps = PointSet(Space(float(rng.choice([1.0, 2.0, 3.5, math.inf])), (1, 1)), x)
        tol = 10.0 ** rng.uniform(-7, math.log10(0.5))
        if distance_matrix(ps)[np.triu_indices(m, 1)].min() < tol:
            with pytest.raises(DegenerateDistanceError):  # refused before clustering
                distance_profile(ps, tol)
            continue
        want = [x.hex() for x in _profile_by_loop(ps, tol)]
        assert [x.hex() for x in distance_profile(ps, tol)] == want
    # sorted distances 1, 1.25, 2.25: a gap of exactly tol stays in its cluster,
    # a gap one ulp above tol splits it
    line = PointSet(Space(1.0, (1,)), np.array([[0.0], [1.0], [2.25]]))
    assert distance_profile(line, 0.25) == _profile_by_loop(line, 0.25) == [2.25, 1.125]
    below = np.nextafter(0.25, 0.0)
    assert distance_profile(line, below) == _profile_by_loop(line, below) == [2.25, 1.25, 1.0]


def test_search_triangle_converges():
    res = search_equilateral(Space(2.0, (1, 1)), 3, SearchConfig(seed=5))
    assert res.converged and res.residual < 1e-10
    dm = distance_matrix(res.points)
    assert np.max(np.abs(dm[~np.eye(3, dtype=bool)] - 1)) < 1e-9


def test_search_impossible_case_stalls():
    res = search_equilateral(Space(2.0, (1, 1)), 4,
                             SearchConfig(seed=3, restarts=6))
    assert not res.converged and res.residual > 1e-3


def test_search_reproducible():
    cfg = SearchConfig(restarts=3, seed=42, max_iters=500)
    a = search_equilateral(Space(1.5, (1, 1)), 3, cfg)
    b = search_equilateral(Space(1.5, (1, 1)), 3, cfg)
    assert a.residual == b.residual and a.restart_index == b.restart_index
    assert np.array_equal(a.points.points, b.points.points)


def test_search_block_space():
    res = search_equilateral(Space(math.inf, (2, 1)), 4,
                             SearchConfig(seed=9, restarts=8, residual_target=1e-8))
    assert res.converged


def test_search_config_validation():
    with pytest.raises(InputError):
        SearchConfig(restarts=0)
    with pytest.raises(InputError):
        SearchConfig(residual_target=0.0)
    with pytest.raises(InputError, match="seed must be >= 0"):
        SearchConfig(seed=-1)  # numpy refuses a negative seed
    with pytest.raises(InputError):
        search_equilateral(Space(2.0, (1,)), 1)


def test_search_config_fields():
    assert [f.name for f in dataclasses.fields(SearchConfig)] == [
        "restarts", "max_iters", "seed", "step_init", "residual_target"]


REFERENCE_CASES = [
    (Space(1.0, (1,) * 3), 6,
     SearchConfig(restarts=3, seed=7, max_iters=400, residual_target=1e-8)),
    (Space(1.5, (1,) * 3), 4, SearchConfig(restarts=8, seed=1)),
    (Space(2.0, (1, 1)), 4, SearchConfig(restarts=6, seed=3)),
    (Space(3.0, (1, 1)), 3, SearchConfig(restarts=8, seed=5)),
    (Space(math.inf, (1,) * 3), 5, SearchConfig(restarts=8, seed=2)),
    (Space(1.5, (2, 1)), 5, SearchConfig(restarts=4, seed=4, max_iters=300)),
    (Space(math.inf, (2, 1)), 4, SearchConfig(restarts=8, seed=9, residual_target=1e-8)),
    (Space(2.0, (1,) * 4), 8, SearchConfig(restarts=3, seed=1, max_iters=300)),
    (Space(1.0, (1,) * 4), 9, SearchConfig(restarts=2, seed=2, max_iters=200)),
    (Space(1.0, (1, 1)), 4, SearchConfig(restarts=1, seed=0)),
]


@pytest.mark.parametrize("space,m,cfg", REFERENCE_CASES,
                         ids=[f"{s.to_string()}-m{m}-r{c.restarts}"
                              for s, m, c in REFERENCE_CASES])
def test_search_matches_one_restart_at_a_time(space, m, cfg):
    points, residual, restart = search_reference(space, m, cfg)
    res = search_equilateral(space, m, cfg)
    assert np.array_equal(res.points.points, points)
    assert res.residual == residual and res.restart_index == restart


def test_search_batches_give_same_bits(monkeypatch):
    space, m, cfg = Space(math.inf, (1,) * 3), 5, SearchConfig(restarts=8, seed=2)
    whole = search_equilateral(space, m, cfg)
    monkeypatch.setattr(space_mod, "_CHUNK_BYTES", 3 * 8 * m * m * 3)  # batches of 3, 3, 2
    split = search_equilateral(space, m, cfg)
    assert np.array_equal(split.points.points, whole.points.points)
    assert (split.residual, split.restart_index, split.iterations, split.stop) == \
        (whole.residual, whole.restart_index, whole.iterations, whole.stop)


@pytest.mark.parametrize("space,m,cfg", REFERENCE_CASES[4:7],
                         ids=[s.to_string() for s, _, _ in REFERENCE_CASES[4:7]])
def test_batched_residuals_match_distance_matrix(monkeypatch, space, m, cfg):
    # the search takes each restart's residual from one kernel call per batch;
    # every value must be the distance_matrix residual of that restart
    finals = []
    descend = construct._descend

    def recording(Q, space, cfg):
        out = descend(Q, space, cfg)
        finals.extend(out[0].copy())
        return out

    monkeypatch.setattr(construct, "_descend", recording)
    monkeypatch.setattr(space_mod, "_CHUNK_BYTES", 3 * 8 * m * m * space.ambient_dim)
    res = search_equilateral(space, m, cfg)
    Q = np.array(finals)
    i, j = np.triu_indices(m, 1)
    batched = _outer_norm(pair_block_norms(space, Q, Q), space.p)[:, i, j]
    alone = np.array([distance_matrix(PointSet(space, q))[i, j] for q in Q])
    assert batched.tobytes() == alone.tobytes()
    resid = np.max(np.abs(alone - 1.0), axis=1)
    assert res.residual == resid.min() and res.restart_index == int(np.argmin(resid))


def test_plain_lp_search_makes_no_block_pass(monkeypatch):
    # a plain lp block is one coordinate: neither kernel nor the search walks the blocks
    def no_block_pass(self):
        raise AssertionError("block pass on a plain lp space")

    space = Space.from_string("lp:n=50,p=3")
    Q = np.random.default_rng(3).normal(size=(2, 3, 50))
    want = (Q[:, :, None, :] - Q[:, None, :, :]) ** 2
    monkeypatch.setattr(Space, "block_slices", no_block_pass)
    assert space_mod.pair_block_sq_norms(space, Q, Q).tobytes() == want.tobytes()
    res = search_equilateral(space, 3, SearchConfig(restarts=2, max_iters=50))
    assert res.iterations > 0


def test_search_memory_bounded_by_batches():
    # 64 restarts at m = 20 in l2^20 take 25 MB unbatched; 16 per batch take 7 MB
    tracemalloc.start()
    try:
        search_equilateral(Space(2.0, (1,) * 20), 20, SearchConfig(restarts=64, max_iters=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_search_stop_causes():
    res = search_equilateral(Space(2.0, (1, 1)), 3, SearchConfig(seed=5))
    assert res.stop == "converged" and 0 < res.iterations < 4000
    for cap in (50, 0):
        cfg = SearchConfig(restarts=2, seed=7, max_iters=cap)
        res = search_equilateral(Space(1.0, (1,) * 3), 6, cfg)
        assert res.stop == "iteration cap" and res.iterations == cap
    res = search_equilateral(Space(1.0, (1,) * 3), 6, SearchConfig(restarts=1, seed=0))
    assert res.stop == "stalled" and res.iterations == 2 * construct._STALL_WINDOW
    res = search_equilateral(Space(2.0, (1, 1)), 4, SearchConfig(seed=3, restarts=6))
    assert res.stop in ("60 halvings", "step underflow") and res.iterations > 0


def _scripted_descent(monkeypatch, energies):
    """(accepted steps, stop cause) of one restart whose k-th energy call
    returns energies[k], with a zero gradient."""
    calls = iter(energies)
    monkeypatch.setattr(construct, "_pair_energy_grad",
                        lambda Q, space: (np.full(Q.shape[0], next(calls)), np.zeros_like(Q)))
    _, iters, stop = construct._descend(np.zeros((1, 2, 1)), Space(2.0, (1,)), SearchConfig())
    return int(iters[0]), construct.STOP_CAUSES[stop[0]]


def test_search_stall_edges(monkeypatch):
    W, f = construct._STALL_WINDOW, construct._STALL_DROP
    # every call is a new low, so every step is accepted.  A drop of exactly f
    # over the first window keeps the restart; the second window is measured
    # from its end, and its drop of f / 2 (1.5 f from the start) stops it
    first = np.linspace(1.0, 1.0 - f, W + 1)
    second = (1.0 - f) * np.linspace(1.0, 1.0 - f / 2, W + 1)[1:]
    assert _scripted_descent(monkeypatch, np.concatenate([first, second])) == (2 * W, "stalled")
    # one ulp less of a drop stops it at the first checkpoint
    first[-1] = np.nextafter(1.0 - f, 2.0)
    assert _scripted_descent(monkeypatch, first) == (W, "stalled")
    # converging on a checkpoint tick with too small a drop reports convergence
    target = SearchConfig().residual_target
    edge = (0.25 * target) ** 2
    energies = np.append(np.linspace(1.005, 1.001, W), 0.999) * edge
    assert energies[-1] > (1.0 - f) * energies[0]
    assert _scripted_descent(monkeypatch, energies) == (W, "converged")


def test_search_size_cap(monkeypatch):
    monkeypatch.setattr(construct, "SEARCH_MAX_PAIR_COORDS", 3 * 3 * 2)
    assert search_equilateral(Space(2.0, (1, 1)), 3, SearchConfig(restarts=1)).converged
    with pytest.raises(ResourceLimitError):
        search_equilateral(Space(2.0, (1, 1)), 4, SearchConfig(restarts=1))


def test_search_halving_caps():
    # a unit segment is a stationary point, so every trial step is rejected:
    # 1e3 * 2**-60 = 8.7e-16 stays above the 1e-18 floor, 0.1 * 2**-57 falls below it
    for step_init, cause in ((1e3, "60 halvings"), (0.1, "step underflow")):
        Q = np.array([[[0.0], [1.0]]])
        _, iters, stop = construct._descend(Q, Space(2.0, (1,)), SearchConfig(step_init=step_init))
        assert iters[0] == 0 and construct.STOP_CAUSES[stop[0]] == cause
