import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from eqdist import construct
from eqdist import space as space_mod
from eqdist.construct import (SIMPLEX_BRACKET_RTOL, SearchConfig, cross_polytope,
                              distance_profile, euclidean_simplex, lp_simplex,
                              product_construction, search_equilateral,
                              simplex_lambda)
from eqdist.errors import DegenerateDistanceError, InputError, NumericalError, ResourceLimitError
from eqdist.space import PointSet, Space, distance_matrix, pair_block_norms

from search_reference import descend_reference, search_reference


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


def _simplex_root_mp(n, p):
    """The root of |1 - lam|^p + (n - 1) lam^p = 2 in (0, 1), at 40 digits."""
    with mpmath.workdps(40):
        g = lambda lam: abs(1 - lam) ** p + (n - 1) * lam ** p - 2
        return float(mpmath.findroot(g, (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson"))


def test_simplex_lambda_refuses_a_root_below_its_resolution():
    # the (0, 1] bisection ends 2^-44 wide, so a root below about
    # 2^-44 / SIMPLEX_BRACKET_RTOL = 5.7e-5 is refused, not returned as a midpoint
    for n, p in ((19400, 1.01), (309520194, 2.0)):  # the largest n accepted at p
        lam, root = simplex_lambda(n, p), _simplex_root_mp(n, p)
        assert 5.68e-5 < root < 5.69e-5
        assert abs(lam - root) <= 0.5 * SIMPLEX_BRACKET_RTOL * lam
        with pytest.raises(NumericalError, match="wider than 1e-09 of its midpoint"):
            simplex_lambda(n + 1, p)
    # the root is 1.41e-15; the midpoint 2.85e-14 left a residual of 19.9
    with pytest.raises(NumericalError):
        simplex_lambda(10 ** 15, 1.01)


def test_simplex_lambda_refuses_a_root_it_cannot_bracket():
    # from n = 10036909309200967 at p = 1.0001, g(SIMPLEX_BRACKET_FLOOR) >= 0: the
    # root is at or below the bracket's floor.  One n less, g is below 0 there,
    # and the root is bracketed but below the bisection's resolution
    edge, p = 10036909309200967, 1.0001
    with pytest.raises(NumericalError, match="wider than 1e-09 of its midpoint"):
        simplex_lambda(edge - 1, p)
    for n in (edge, 2 * 10 ** 16):
        with pytest.raises(NumericalError, match="failed to bracket the root"):
            simplex_lambda(n, p)


def test_simplex_lambda_bits_at_the_construction_cap():
    # lp_simplex's largest n under CONSTRUCT_MAX_COORDS; its smallest root, near
    # p = 1, is 4.9e-4, far above the refusal
    assert (2047 + 1) * 2047 <= construct.CONSTRUCT_MAX_COORDS < (2048 + 1) * 2048
    for p, bits in ((1.0 + 2.0 ** -40, "0x1.0060240dc039ap-11"),
                    (1.01, "0x1.147ca2f44039ap-11"), (2.0, "0x1.72382d6da201cp-6"),
                    (7.5, "0x1.95cf2e4f58600p-2"), (1e6, "0x1.ffff1773b5b00p-1")):
        assert simplex_lambda(2047, p).hex() == bits, p


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
    # a one-point factor has the empty profile, which passes the unit check
    assert product_construction(seg, one).m == 2
    lone = product_construction(one, one)
    assert lone.m == 1 and np.array_equal(lone.points, [[0.25, 0.25]])


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
    for tol in (1e-300, 1e-7, 1e308):  # a zero distance is refused at every tol
        with pytest.raises(DegenerateDistanceError):
            distance_profile(dup, tol)
    # only an exact zero is: a distance below tol is clustered like any other
    near = PointSet(Space(2.0, (1,)), np.array([[0.0], [1e-12], [1.0]]))
    assert distance_profile(near, 1e-7) == [1.0 - 5e-13, 1e-12]
    one = PointSet(Space(2.0, (1,)), np.array([[1.0]]))
    assert distance_profile(one) == []
    for tol in (1e-300, 1.0, 1e308):  # no pair, no distance, at every valid tol
        assert distance_profile(one, tol) == []
    for ps in (square, one):  # the tol checks run for every m
        for tol, rule in ((0.0, "positive"), (-1.0, "positive"), (math.nan, "finite")):
            with pytest.raises(InputError, match=f"tol must be {rule}"):
                distance_profile(ps, tol)


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
    shapes = [(1, 1), (1, 1, 1, 1, 1), (2, 1), (1, 3, 2), (4,)]
    for _ in range(300):
        m = int(rng.integers(2, 30))
        blocks = shapes[rng.integers(len(shapes))]
        dim = sum(blocks)
        # grid points plus noise: many distances repeat up to the noise
        noise = 10.0 ** rng.uniform(-9, -2)
        x = rng.integers(0, 12, size=(m, dim)) * 0.1 + rng.normal(size=(m, dim)) * noise
        ps = PointSet(Space(float(rng.choice([1.0, 1.5, 2.0, 3.5, math.inf])), blocks), x)
        tol = 10.0 ** rng.uniform(-7, math.log10(0.5))
        # no two points coincide, so distances below tol are clustered, not refused
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


def test_search_reproducible(monkeypatch):
    monkeypatch.setattr(construct, "MAX_ITERS", 500)
    cfg = SearchConfig(restarts=3, seed=42)
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


# (space, m, config); the last three solve the J^T J system (m > 2 dim + 1),
# and at m = 9 sum rows of 9 blocks
REFERENCE_CASES = [
    (Space(1.0, (1,) * 3), 6, SearchConfig(restarts=3, seed=7, residual_target=1e-8)),
    (Space(1.5, (1,) * 3), 4, SearchConfig(restarts=8, seed=1)),
    (Space(2.0, (1, 1)), 4, SearchConfig(restarts=6, seed=3)),
    (Space(3.0, (1, 1)), 3, SearchConfig(restarts=8, seed=5)),
    (Space(math.inf, (1,) * 3), 5, SearchConfig(restarts=8, seed=2)),
    (Space(1.5, (2, 1)), 5, SearchConfig(restarts=4, seed=4)),
    (Space(math.inf, (2, 1)), 4, SearchConfig(restarts=8, seed=9, residual_target=1e-8)),
    (Space(2.0, (1,) * 4), 8, SearchConfig(restarts=3, seed=1)),
    (Space(1.0, (1,) * 4), 9, SearchConfig(restarts=2, seed=2)),
    (Space(1.0, (1, 1)), 4, SearchConfig(restarts=1, seed=0)),
    # 8 blocks, the first of 8 coordinates: sums of 8 terms, added in order
    (Space(3.0, (8,) + (1,) * 7), 4, SearchConfig(restarts=3, seed=0)),
    (Space(math.inf, (1, 1)), 6, SearchConfig(restarts=4, seed=0)),
    (Space(2.0, (1, 1)), 9, SearchConfig(restarts=2, seed=1)),
    (Space(1.5, (1,)), 9, SearchConfig(restarts=2, seed=3)),
]


@pytest.mark.parametrize("space,m,cfg", REFERENCE_CASES,
                         ids=[f"{s.to_string()}-m{m}-r{c.restarts}"
                              for s, m, c in REFERENCE_CASES])
def test_search_matches_one_restart_at_a_time(space, m, cfg):
    points, residual, restart = search_reference(space, m, cfg)
    res = search_equilateral(space, m, cfg)
    assert np.array_equal(res.points.points, points)
    assert res.residual == residual and res.restart_index == restart


def _footprint(space, m):
    """The doubles one restart counts for in a batch: its m * m * dim pair
    coordinates, or the k * k entries of its damped system if more."""
    order = min(m * (m - 1) // 2, m * space.ambient_dim)
    return max(m * m * space.ambient_dim, order * order)


def test_search_batches_give_same_bits(monkeypatch):
    space, m, cfg = Space(math.inf, (1,) * 3), 5, SearchConfig(restarts=8, seed=2)
    whole = search_equilateral(space, m, cfg)
    # batches of 3, 3, 2, each restart counted by its 10 x 10 system
    assert _footprint(space, m) == 100
    monkeypatch.setattr(space_mod, "_CHUNK_BYTES", 3 * 8 * 100)
    split = search_equilateral(space, m, cfg)
    assert np.array_equal(split.points.points, whole.points.points)
    assert (split.residual, split.restart_index, split.iterations, split.stop, split.damping) == \
        (whole.residual, whole.restart_index, whole.iterations, whole.stop, whole.damping)


@pytest.mark.parametrize("space,m,cfg", REFERENCE_CASES[4:7],
                         ids=[s.to_string() for s, *_ in REFERENCE_CASES[4:7]])
def test_batched_residuals_match_distance_matrix(monkeypatch, space, m, cfg):
    # the search takes each restart's residual from its own last residual call;
    # every value must be the distance_matrix residual of that restart's points
    # within two ulps of their largest distance, and the merge must pick the least
    finals, resids = [], []
    descend = construct._descend

    def recording(Q, space, cfg):
        out = descend(Q, space, cfg)
        finals.extend(out[0].copy())
        resids.extend(out[4])
        return out

    monkeypatch.setattr(construct, "_descend", recording)
    monkeypatch.setattr(space_mod, "_CHUNK_BYTES", 3 * 8 * _footprint(space, m))
    res = search_equilateral(space, m, cfg)
    i, j = np.triu_indices(m, 1)
    for q, resid in zip(finals, resids):
        dists = distance_matrix(PointSet(space, q))[i, j]
        assert abs(resid - np.max(np.abs(dists - 1.0))) <= 2 * np.spacing(max(1.0, dists.max()))
    assert res.residual == min(resids) and res.restart_index == int(np.argmin(resids))


def test_plain_lp_search_makes_no_block_pass(monkeypatch):
    # a plain lp block is one coordinate: neither kernel nor the search walks the blocks
    def no_block_pass(self):
        raise AssertionError("block pass on a plain lp space")

    space = Space.from_string("lp:n=50,p=3")
    Q = np.random.default_rng(3).normal(size=(2, 3, 50))
    want = (Q[:, :, None, :] - Q[:, None, :, :]) ** 2
    monkeypatch.setattr(Space, "block_slices", property(no_block_pass))
    assert space_mod.pair_block_sq_norms(space, Q, Q).tobytes() == want.tobytes()
    monkeypatch.setattr(construct, "MAX_ITERS", 50)
    res = search_equilateral(space, 3, SearchConfig(restarts=2))
    assert res.iterations > 0


# spaces whose per-pair gradients are checked against central differences of
# the residuals; p = 2000 is reached with no case of its own
GRADIENT_SPACES = ["lp:n=3,p=1", "lp:n=3,p=1.5", "lp:n=3,p=2", "lp:n=3,p=3",
                   "lpsum:blocks=2,1,p=3", "lp:n=3,p=inf", "lpsum:blocks=2,1,p=inf",
                   "lp:n=3,p=2000", "lp:n=3,p=1.02", "lpsum:blocks=2,1,p=1.5"]


def _jacobian(G, m):
    """The dense (P, dim, m) Jacobian of the pair residuals: g_a at point i of
    pair a = (i, j), -g_a at point j."""
    i, j = np.triu_indices(m, 1)
    J = np.zeros((i.size, G.shape[0], m))
    J[np.arange(i.size), :, i] = G.T
    J[np.arange(i.size), :, j] = -G.T
    return J


@pytest.mark.parametrize("space", GRADIENT_SPACES)
def test_search_gradient_matches_central_differences(space):
    # the residuals at Q and at Q +- h in each coordinate of each point, in one call
    space, m, h = Space.from_string(space), 5, 1e-6
    dim = space.ambient_dim
    Q = np.random.default_rng(1).uniform(-1.0, 1.0, size=(dim, m))
    # below p = 2 the residuals are smooth only away from a zero block
    assert np.min(pair_block_norms(space, Q.T, Q.T) + np.eye(m)[..., None]) > 1000 * h
    steps = h * np.eye(dim * m).reshape(-1, dim, m)
    _, res, G = construct._search_residuals(space, m)(np.concatenate([Q[None], Q + steps,
                                                                      Q - steps]))
    if math.isinf(space.p):  # the largest block of every pair stays the largest within h
        norms = np.sort(pair_block_norms(space, Q.T, Q.T), axis=-1)
        off = ~np.eye(m, dtype=bool)
        assert np.min(norms[..., -1] - norms[..., -2], where=off, initial=np.inf) > 100 * h
    n = dim * m
    central = ((res[1:n + 1] - res[n + 1:]) / (2 * h)).T.reshape(-1, dim, m)
    J = _jacobian(G[0], m)
    assert np.max(np.abs(J - central)) <= 1e-6 * np.max(np.abs(J))


@pytest.mark.parametrize("space", ["lp:n=3", "lpsum:blocks=2,1"])
@pytest.mark.parametrize("p", [1.0, 1.02, 1.5, 2.0, 3.0])
def test_search_gradient_is_zero_on_a_zero_block(space, p):
    # points 0 and 1 share their first block, so it is 0 in their difference:
    # its gradient is exactly 0 (a subgradient at p = 1), and no gradient
    # anywhere is inf or nan
    space = Space.from_string(f"{space},p={p:g}")
    Q = np.random.default_rng(2).uniform(-1.0, 1.0, size=(space.ambient_dim, 4))
    first = space.block_slices[0]
    Q[first, 1] = Q[first, 0]
    energy, res, G = construct._search_residuals(space, 4)(Q)
    assert np.isfinite(energy) and np.isfinite(res).all() and np.isfinite(G).all()
    assert not G[first, 0].any() and G[first, 1:].all()  # pair (0, 1) comes first
    assert G[first.stop:, 0].all()


@pytest.mark.parametrize("space,m", [("lp:n=3,p=1.5", 5), ("lpsum:blocks=2,1,p=inf", 4),
                                     ("lp:n=2,p=3", 7), ("lp:n=1,p=2", 4)])
def test_damped_step_solves_the_damped_normal_equations(space, m):
    # the first two take the P x P system, the last two J^T J: each step must be
    # the dense (J^T J + lam I) delta = -J^T res solution
    space = Space.from_string(space)
    dim = space.ambient_dim
    Q = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, dim, m))
    _, res, G = construct._search_residuals(space, m)(Q)
    lam = np.array([1e-3, 0.5, 40.0])
    steps = construct._damped_step(m, dim)(res, G, lam)
    for b in range(3):
        J = _jacobian(G[b], m).reshape(-1, dim * m)
        want = -np.linalg.solve(J.T @ J + lam[b] * np.eye(dim * m), J.T @ res[b])
        assert np.allclose(steps[b].reshape(-1), want, rtol=1e-9, atol=1e-12)


def test_search_memory_bounded_by_batches(monkeypatch):
    # 64 restarts at m = 20 in l2^20 trace 25 MB unbatched; 3 per batch trace 2.2 MB
    monkeypatch.setattr(construct, "MAX_ITERS", 2)
    tracemalloc.start()
    try:
        search_equilateral(Space(2.0, (1,) * 20), 20, SearchConfig(restarts=64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2 ** 20


def test_search_stop_causes(monkeypatch):
    res = search_equilateral(Space(2.0, (1, 1)), 3, SearchConfig(seed=5))
    assert res.stop == "converged" and 0 < res.iterations < construct.MAX_ITERS
    with monkeypatch.context() as patch:
        patch.setattr(construct, "MAX_ITERS", 10)
        res = search_equilateral(Space(1.0, (1,) * 3), 6, SearchConfig(restarts=2, seed=3))
        assert res.stop == "iteration cap" and res.iterations == 10
    res = search_equilateral(Space(1.0, (1,) * 3), 6, SearchConfig(restarts=1, seed=0))
    assert res.stop == "stalled" and res.iterations == 3 * construct._STALL_WINDOW
    res = search_equilateral(Space(2.0, (1, 1)), 4, SearchConfig(seed=3, restarts=6))
    assert res.stop == "damping overflow" and res.iterations > 0
    assert res.damping > construct._DAMPING_MAX
    # with block norms softened by 1e-9 below p = 2, seed 10 converged on the
    # softened residuals at a true residual of 1.9e-9, above the target; the
    # search reports the residuals it minimises, so a converged restart meets it
    for seed in (10, 0):
        res = search_equilateral(Space(1.02, (1,) * 4), 6, SearchConfig(seed=seed))
        assert res.converged and res.stop == "converged" and res.residual <= 2.5e-11


def _scripted_descent(monkeypatch, energies, cfg=SearchConfig()):
    """(accepted steps, stop cause, final damping) of one restart whose k-th
    residual call returns the energy energies[k], with zero residuals and
    gradients, so that every step is 0."""
    calls = iter(energies)
    monkeypatch.setattr(construct, "_search_residuals", lambda space, m: lambda Q: (
        np.full(Q.shape[0], next(calls)), np.zeros((Q.shape[0], 1)), np.zeros((Q.shape[0], 1, 1))))
    _, iters, stop, lam, _ = construct._descend(np.zeros((1, 2, 1)), Space(2.0, (1,)), cfg)
    return int(iters[0]), construct.STOP_CAUSES[stop[0]], float(lam[0])


def test_search_stall_edges(monkeypatch):
    W, f = construct._STALL_WINDOW, construct._STALL_DROP
    # every call is a new low, so every step is accepted.  A drop of exactly f
    # over the first window keeps the restart; the second window is measured
    # from its end, and its drop of f / 2 (1.5 f from the start) stops it
    first = np.linspace(1.0, 1.0 - f, W + 1)
    second = (1.0 - f) * np.linspace(1.0, 1.0 - f / 2, W + 1)[1:]
    assert _scripted_descent(monkeypatch, np.concatenate([first, second]))[:2] == (2 * W, "stalled")
    # one ulp less of a drop stops it at the first checkpoint
    first[-1] = np.nextafter(1.0 - f, 2.0)
    assert _scripted_descent(monkeypatch, first)[:2] == (W, "stalled")
    # converging on a checkpoint tick with too small a drop reports convergence
    target = SearchConfig().residual_target
    edge = (0.25 * target) ** 2
    energies = np.append(np.linspace(1.005, 1.001, W), 0.999) * edge
    assert energies[-1] > (1.0 - f) * energies[0]
    assert _scripted_descent(monkeypatch, energies)[:2] == (W, "converged")


@pytest.mark.parametrize("target", [5e-324, 1e-300, 1e-10, 0.3, 1.0, 1e300, 1.7e308])
def test_search_convergence_edge(monkeypatch, target):
    # a restart has converged when sqrt(E) <= target / 4; the edge is the
    # largest double whose math.sqrt is within that
    bound = 0.25 * target
    edge = bound * bound
    while math.sqrt(edge) > bound:
        edge = math.nextafter(edge, -math.inf)
    while math.sqrt(math.nextafter(edge, math.inf)) <= bound:
        edge = math.nextafter(edge, math.inf)
    above = math.nextafter(edge, math.inf)
    assert math.sqrt(edge) <= bound < math.sqrt(above)
    if 0.0 < edge and above < 1.0:
        cfg = SearchConfig(residual_target=target)
        assert _scripted_descent(monkeypatch, [1.0, edge], cfg)[:2] == (1, "converged")
        # one ulp above the edge is a step, not convergence; the next low converges
        assert _scripted_descent(monkeypatch, [1.0, above, edge], cfg)[:2] == (2, "converged")


def test_search_iteration_cap_edge(monkeypatch):
    # every step is accepted; the restart stops on the step that reaches the cap
    monkeypatch.setattr(construct, "MAX_ITERS", 7)
    assert _scripted_descent(monkeypatch, 0.5 ** np.arange(9))[:2] == (7, "iteration cap")


def test_search_damping_edges(monkeypatch):
    init, top = construct._DAMPING_INIT, construct._DAMPING_MAX
    # no call is a new low: each rejected step multiplies the damping by 4, exactly,
    # and the restart stops on the first damping above _DAMPING_MAX
    rejects = math.ceil(math.log(top / init, 4))
    assert init * 4.0 ** (rejects - 1) <= top < init * 4.0 ** rejects
    assert _scripted_descent(monkeypatch, [1.0] * (rejects + 1)) == \
        (0, "damping overflow", init * 4.0 ** rejects)
    # a limit equal to a damping lets it stand; one ulp below, it stops the restart
    monkeypatch.setattr(construct, "_DAMPING_MAX", init * 4.0 ** 10)
    assert _scripted_descent(monkeypatch, [1.0] * 12) == (0, "damping overflow", init * 4.0 ** 11)
    monkeypatch.setattr(construct, "_DAMPING_MAX", math.nextafter(init * 4.0 ** 10, 0.0))
    assert _scripted_descent(monkeypatch, [1.0] * 11) == (0, "damping overflow", init * 4.0 ** 10)
    # every call is a new low: each accepted step divides the damping by 3, down
    # to _DAMPING_MIN and no further
    lam, steps = init, 0
    while lam / 3.0 > construct._DAMPING_MIN:
        lam, steps = lam / 3.0, steps + 1
    monkeypatch.setattr(construct, "MAX_ITERS", steps)
    assert _scripted_descent(monkeypatch, 0.5 ** np.arange(steps + 1)) == \
        (steps, "iteration cap", lam)
    monkeypatch.setattr(construct, "MAX_ITERS", steps + 2)
    assert _scripted_descent(monkeypatch, 0.5 ** np.arange(steps + 3)) == \
        (steps + 2, "iteration cap", construct._DAMPING_MIN)


# (space, m, restarts, seed, residual_target, the construct.MAX_ITERS to run it
# with, the stop causes of its restarts): batches whose restarts leave the
# solver at different ticks; test_search_damping_overflow adds a restart that
# never steps.  The last two solve the J^T J system.
DESCENT_CASES = [
    (Space(math.inf, (1,) * 3), 6, 8, 2, 1e-10, 4000, {"converged", "damping overflow"}),
    (Space(math.inf, (1,) * 3), 6, 8, 3, 1e-10, 100, {"converged", "damping overflow"}),
    (Space(1.0, (1,) * 3), 6, 8, 7, 1e-8, 150, {"converged", "damping overflow", "stalled"}),
    (Space(1.0, (1,) * 3), 6, 8, 7, 1e-8, 30, {"converged", "damping overflow", "iteration cap"}),
    (Space(1.5, (2, 1)), 5, 8, 4, 1e-10, 4000, {"stalled"}),
    (Space(2.0, (1, 1)), 9, 4, 0, 1e-10, 4000, {"stalled"}),
    (Space(math.inf, (1, 1)), 6, 8, 0, 1e-10, 4000, {"damping overflow"}),
]


def _check_descent(Q, space, cfg):
    """The stop causes of construct._descend on the restarts of Q, after
    checking every restart's output against it descending alone."""
    with np.errstate(all="ignore"):
        want = descend_reference(Q.copy(), space, cfg)
        got = construct._descend(Q.copy(), space, cfg)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    assert len(set(got[1].tolist())) > 1  # the restarts leave on different ticks
    return {construct.STOP_CAUSES[i] for i in got[2]}


@pytest.mark.parametrize("space,m,restarts,seed,target,cap,causes", DESCENT_CASES,
                         ids=[f"{s.to_string()}-m{m}-cap{cap}" for s, m, *_, cap, _ in DESCENT_CASES])
def test_descent_matches_one_restart_at_a_time(monkeypatch, space, m, restarts, seed, target,
                                               cap, causes):
    monkeypatch.setattr(construct, "MAX_ITERS", cap)
    Q = np.stack([np.random.default_rng([seed, r]).uniform(-1.0, 1.0, size=(m, space.ambient_dim))
                  for r in range(restarts)])
    cfg = SearchConfig(restarts=restarts, seed=seed, residual_target=target)
    assert _check_descent(Q, space, cfg) == causes


def test_search_size_cap(monkeypatch):
    monkeypatch.setattr(construct, "SEARCH_MAX_PAIR_COORDS", 3 * 3 * 2)
    assert search_equilateral(Space(2.0, (1, 1)), 3, SearchConfig(restarts=1)).converged
    with pytest.raises(ResourceLimitError):
        search_equilateral(Space(2.0, (1, 1)), 4, SearchConfig(restarts=1))


def test_search_system_cap(monkeypatch):
    # the damped system has order min(m(m - 1)/2, m dim): 3 pairs of 3 points in
    # the plane, 3 coordinates of 3 points on the line; 6 pairs, 4 coordinates
    monkeypatch.setattr(construct, "SEARCH_MAX_SYSTEM", 3)
    assert search_equilateral(Space(2.0, (1, 1)), 3, SearchConfig(restarts=1)).converged
    search_equilateral(Space(2.0, (1,)), 3, SearchConfig(restarts=1))
    with pytest.raises(ResourceLimitError, match="needs 6 damped-system rows per restart"):
        search_equilateral(Space(2.0, (1, 1)), 4, SearchConfig(restarts=1))
    with pytest.raises(ResourceLimitError, match="needs 4 damped-system rows per restart"):
        search_equilateral(Space(2.0, (1,)), 4, SearchConfig(restarts=1))


def test_search_damping_overflow():
    # a unit segment has zero residuals, so no trial step lowers its energy: the
    # damping grows from _DAMPING_INIT until it passes _DAMPING_MAX
    Q = np.array([[[0.0], [1.0]]])
    _, iters, stop, lam, _ = construct._descend(Q, Space(2.0, (1,)), SearchConfig())
    assert iters[0] == 0 and construct.STOP_CAUSES[stop[0]] == "damping overflow"
    assert lam[0] / 4.0 <= construct._DAMPING_MAX < lam[0]
    # in a batch, the segment leaves while the other restarts go on
    batch = np.array([[[0.0], [0.3]], [[0.0], [1.0]], [[0.2], [-0.7]]])
    assert _check_descent(batch, Space(2.0, (1,)), SearchConfig()) == \
        {"damping overflow", "converged"}


def test_descent_stops_on_every_event_tick(monkeypatch):
    # 64 restarts that leave on many different ticks, by all four causes: each
    # stop is found on its own tick, by the whole-batch checks for a converged
    # energy, a checkpoint or the cap, and a damping past the limit
    monkeypatch.setattr(construct, "MAX_ITERS", 50)  # not a multiple of _STALL_WINDOW
    space, m, restarts, seed = Space(1.0, (1,) * 3), 6, 64, 7
    Q = np.stack([np.random.default_rng([seed, r]).uniform(-1.0, 1.0, size=(m, 3))
                  for r in range(restarts)])
    cfg = SearchConfig(restarts=restarts, seed=seed, residual_target=1e-8)
    assert _check_descent(Q, space, cfg) == set(construct.STOP_CAUSES)
    with np.errstate(all="ignore"):
        iters = construct._descend(Q.copy(), space, cfg)[1]
    assert len(set(iters.tolist())) > 20


def test_descent_sees_convergence_next_to_a_nan_energy(monkeypatch):
    # two coincident points have a nan energy, and so has every trial point of
    # theirs, until their damping overflows; the restarts next to them all
    # converge before that, and the least energy must not be read as nan
    Q = np.random.default_rng(5).uniform(-1.0, 1.0, size=(6, 3, 2))
    Q[2, 1] = Q[2, 0]
    space, cfg = Space(2.0, (1, 1)), SearchConfig()
    assert _check_descent(Q, space, cfg) == {"converged", "damping overflow"}
    batches, residuals = [], construct._search_residuals

    def recording(space, m):  # the live restarts of each call, and whether one is nan
        call = residuals(space, m)

        def record(Q):
            out = call(Q)
            batches.append((Q.shape[0], bool(np.isnan(out[0]).any())))
            return out
        return record

    monkeypatch.setattr(construct, "_search_residuals", recording)
    with np.errstate(all="ignore"):
        _, iters, stop, _, _ = construct._descend(Q.copy(), space, cfg)
    assert construct.STOP_CAUSES[stop[2]] == "damping overflow" and iters[2] == 0
    assert (np.delete(stop, 2) == construct._CONVERGED).all()
    assert len(set(np.delete(iters, 2).tolist())) > 1
    assert batches[-1] == (1, True)  # the nan restart leaves last, and alone
