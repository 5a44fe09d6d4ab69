import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import kernel_reference
from eqdist import space as space_mod
from eqdist.construct import cross_polytope, distance_profile, lp_simplex
from eqdist.errors import InputError, ResourceLimitError
from eqdist.space import (MAX_AMBIENT_DIM, PointSet, Space, condensed_distances, distance,
                          distance_matrix, norm, norm_sandwich_check, pair_block_norms,
                          pair_block_sq_norms)


def test_space_validation():
    with pytest.raises(InputError):
        Space(0.5, (1, 1))
    with pytest.raises(InputError):
        Space(2.0, ())
    with pytest.raises(InputError):
        Space(2.0, (1, 0))
    for bad in (1.5, math.nan):  # int() truncated 1.5 to 1
        with pytest.raises(InputError):
            Space(2.0, (bad,))
    blocks = Space(2.0, (2.0,)).blocks
    assert blocks == (2,) and type(blocks[0]) is int
    s = Space(math.inf, (2, 3))
    assert s.ambient_dim == 5 and s.n_blocks == 2 and not s.is_lp


def test_cached_space_properties_keep_value_equality_and_hash():
    # ambient_dim, is_lp and block_slices are computed once per space; the
    # cached values sit outside the fields, so equality, hash and replace
    # see only p and blocks
    for blocks in [(1,) * 200, (2, 3), (1,), (4,)]:
        s, fresh = Space(3.0, blocks), Space(3.0, blocks)
        before = (hash(s), s == fresh, repr(s))
        assert (s.ambient_dim, s.is_lp) == (sum(blocks), set(blocks) == {1})
        assert {"ambient_dim", "is_lp"} <= set(vars(s))
        assert s.block_slices is s.block_slices
        assert (hash(s), s == fresh, repr(s)) == before
        assert s == fresh and hash(s) == hash(fresh)
        other = dataclasses.replace(s, blocks=(*blocks, 1))
        assert "ambient_dim" not in vars(other) and other.ambient_dim == sum(blocks) + 1
        assert other.is_lp == (set(blocks) == {1})
        assert dataclasses.replace(s) == s and hash(dataclasses.replace(s)) == hash(s)


def test_space_string_roundtrip():
    for s in [Space(1.0, (1, 1, 1)), Space(math.inf, (1,) * 4),
              Space(2.5, (2, 3)), Space(math.inf, (2, 3)), Space(1.3, (1, 1))]:
        assert Space.from_string(s.to_string()) == s
    assert Space.from_string("lp:n=3,p=inf") == Space(math.inf, (1, 1, 1))
    assert Space.from_string("lpsum:blocks=2,3,p=2") == Space(2.0, (2, 3))
    for bad in ["lp:n=3", "lq:n=3,p=2", "lpsum:blocks=,p=2", "lp:n=2,p=0.5",
                "lpsum:blocks=1,,2,p=3", "lpsum:blocks=1,2,,p=3"]:  # int("") raised ValueError
        with pytest.raises(InputError):
            Space.from_string(bad)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(p=st.just(math.inf) | st.integers(1, 64).map(float) | st.floats(1.0, 1e308),
       blocks=st.lists(st.integers(1, 4), min_size=1, max_size=6))
def test_space_string_roundtrip_fuzz(p, blocks):
    s = Space(p, tuple(blocks))
    again = Space.from_string(s.to_string())
    assert again == s and again.p.hex() == s.p.hex()


def test_ambient_dimension_cap():
    assert Space(3.0, (MAX_AMBIENT_DIM - 1, 1)).ambient_dim == MAX_AMBIENT_DIM
    with pytest.raises(ResourceLimitError, match="exceeds the cap"):
        Space(3.0, (MAX_AMBIENT_DIM, 1))
    assert Space.from_string(f"lp:n=000{MAX_AMBIENT_DIM},p=3").ambient_dim == MAX_AMBIENT_DIM
    with pytest.raises(ResourceLimitError, match="exceeds the cap"):
        Space.from_string("lpsum:blocks=2," + "0" * 5000 + "7" * 7 + ",p=2")
    # int() counts leading zeros towards its 4300-digit limit
    assert Space.from_string("lp:n=" + "0" * 5000 + "3,p=2").ambient_dim == 3


def test_norm_examples():
    assert norm(Space(1.0, (1, 1)), [1, -2]) == 3.0
    assert norm(Space(2.0, (1, 1)), [3, 4]) == 5.0
    assert norm(Space(math.inf, (2, 1)), [3, 4, 2]) == 5.0
    assert norm(Space(3.0, (1, 1)), [0, 0]) == 0.0


def test_norm_dimension_mismatch():
    with pytest.raises(InputError):
        norm(Space(2.0, (1, 1)), [1, 2, 3])
    with pytest.raises(InputError):
        distance(Space(2.0, (1, 1)), [1, 2], [1, 2, 3])


def test_norm_large_p_no_overflow():
    s = Space(800.0, (1,) * 3)
    v = np.array([1e-200, 2e-200, 3e-200])
    assert np.isfinite(norm(s, v)) and norm(s, v) > 0
    big = np.array([1e200, -2e200, 0.5e200])
    assert np.isfinite(norm(s, big))
    # subnormal entries: a scale other than the largest entry would underflow (r/s)^800 to 0
    assert math.isclose(norm(s, [1e-310, 2e-310, 3e-310]), 3e-310, rel_tol=1e-12)


def test_lpsum_norm_extreme_scales():
    s = Space(2.0, (2, 1))
    assert abs(norm(s, [1e200, 1e200, 0.0]) / 1e200 - math.sqrt(2)) < 1e-15
    assert abs(norm(s, [1e-200, 1e-200, 0.0]) / 1e-200 - math.sqrt(2)) < 1e-15
    assert norm(s, [3.0, 4.0, 0.0]) == 5.0


def test_distance_examples():
    assert distance(Space(1.0, (1, 1)), [1, 0], [0, 1]) == 2.0
    d = distance(Space(2.0, (1, 1, 1)), [1, 1, 1], [1, 0, 0])
    assert abs(d - math.sqrt(2)) < 1e-15
    assert distance(Space(3.5, (1, 1)), [0.3, -2], [0.3, -2]) == 0.0


def test_distance_matrix_examples():
    one = PointSet(Space(2.0, (1,)), np.array([[0.7]]))
    assert np.array_equal(distance_matrix(one), np.zeros((1, 1)))
    two = PointSet(Space(2.0, (1, 1)), np.array([[0, 0], [1, 0]], dtype=float))
    assert np.array_equal(distance_matrix(two), np.array([[0, 1], [1, 0.0]]))


def test_distance_matrix_cross_polytope():
    dm = distance_matrix(cross_polytope(2))
    off = dm[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 1.0, atol=1e-15)


def _assert_matches_pairwise(ps: PointSet):
    """distance_matrix agrees with the scalar distance to 2 ulps, pair by pair."""
    nbytes = ps.m * ps.points.size * 8
    assert nbytes >= 4 * space_mod._CHUNK_BYTES  # several row chunks
    dm = distance_matrix(ps)
    assert np.array_equal(dm, dm.T) and not np.any(np.diag(dm))
    for i in range(ps.m):
        for j in range(i + 1, ps.m):
            want = distance(ps.space, ps.points[i], ps.points[j])
            assert abs(dm[i, j] - want) <= 2 * np.spacing(want), (i, j)


def test_distance_matrix_matches_distance_lp():
    rng = np.random.default_rng(19)
    pts = rng.normal(size=(120, 100))
    for p in [1.0, 2.5, math.inf]:
        _assert_matches_pairwise(PointSet(Space(p, (1,) * 100), pts))


def test_distance_matrix_matches_distance_lpsum():
    rng = np.random.default_rng(23)
    blocks = (1, 2, 3, 4, 5, 6)
    pts = rng.normal(size=(160, sum(blocks)))
    for p in [3.0, math.inf]:
        _assert_matches_pairwise(PointSet(Space(p, blocks), pts))


def test_distance_matrix_cross_polytope_many_chunks():
    ps = cross_polytope(200)
    dm = distance_matrix(ps)
    off = dm[~np.eye(ps.m, dtype=bool)]
    assert np.all(off == 1.0)
    for p in [2.5, math.inf]:
        dm = distance_matrix(PointSet(Space(p, ps.space.blocks), ps.points))
        for i, j in [(0, 1), (0, 2), (1, 398), (250, 399)]:
            want = distance(Space(p, ps.space.blocks), ps.points[i], ps.points[j])
            assert abs(dm[i, j] - want) <= 2 * np.spacing(want)


def test_distance_matrix_chunks_give_same_bits(monkeypatch):
    rng = np.random.default_rng(31)
    sets = [PointSet(Space(p, (1,) * 9), rng.normal(size=(50, 9))) for p in (1.0, 2.5, math.inf)]
    sets += [PointSet(Space(p, (2, 9, 1)), rng.normal(size=(50, 12))) for p in (3.0, math.inf)]
    sets.append(PointSet(Space(2.0, (1,)), [[0.5]]))
    whole = [distance_matrix(ps) for ps in sets]  # one chunk each
    monkeypatch.setattr(space_mod, "_CHUNK_BYTES", 1)  # one row per chunk
    for ps, dm in zip(sets, whole):
        assert distance_matrix(ps).tobytes() == dm.tobytes()


@pytest.mark.parametrize("planes", [1, 3])
def test_pair_map_chunks_give_same_bits(monkeypatch, planes):
    ps = PointSet(Space(2.5, (2, 1)), np.random.default_rng(47).normal(size=(40, 3)))

    def fn(A, B):  # pair axes last; several planes stack on a leading axis
        S = pair_block_sq_norms(ps.space, A, B)
        values = [S[..., 0] - (k + 1) * S[..., 1] for k in range(planes)]
        return np.stack(values) if planes > 1 else values[0]

    whole = space_mod.pair_map(ps, fn)  # one chunk
    assert whole.shape == ((planes, ps.m, ps.m) if planes > 1 else (ps.m, ps.m))
    assert np.array_equal(whole, whole.swapaxes(-1, -2))
    monkeypatch.setattr(space_mod, "_CHUNK_BYTES", 1)  # one row per chunk
    assert space_mod.pair_map(ps, fn).tobytes() == whole.tobytes()


@pytest.mark.parametrize("one_row", [False, True])
@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e150])
@pytest.mark.parametrize("blocks", [(1,) * 12, (1, 2, 3, 1, 5)])
def test_distance_matrix_matches_the_reference_kernel(monkeypatch, blocks, scale, one_row):
    rng = np.random.default_rng(37)
    pts = rng.normal(size=(30, sum(blocks))) * scale
    if one_row:
        monkeypatch.setattr(space_mod, "_CHUNK_BYTES", 1)
    for p in (1.0, 1.5, 2.0, 2.5, 3.5, 7.0, math.inf):
        ps = PointSet(Space(p, blocks), pts)
        want = kernel_reference.pair_distances(ps.space, ps.points, ps.points)
        assert distance_matrix(ps).tobytes() == want.tobytes(), p


def _structured_points(kind: str) -> np.ndarray:
    """12-dimensional points whose differences are mostly exact zeros."""
    rng = np.random.default_rng(53)
    if kind == "cross-polytope":
        return cross_polytope(12).points
    if kind == "lp-simplex":
        return lp_simplex(12, 3.5).points
    if kind == "repeated":
        return rng.integers(-2, 3, size=(30, 12)) * 0.75
    if kind == "subnormal":  # subnormal differences, alone or beside a difference of 1
        pts = rng.integers(-2, 3, size=(30, 12)) * 2.0 ** -1070
        pts[:, 0] = rng.integers(0, 2, size=30)
        return pts
    return rng.choice([-1e308, 0.0, 1e308], size=(20, 12), p=[0.1, 0.8, 0.1])  # overflow


@pytest.mark.parametrize("one_row", [False, True])
@pytest.mark.parametrize("kind", ["cross-polytope", "lp-simplex", "repeated", "subnormal",
                                  "overflow"])
@pytest.mark.parametrize("blocks", [(1,) * 12, (1, 2, 3, 1, 5)])
def test_distance_matrix_matches_the_reference_kernel_on_zeros(monkeypatch, blocks, kind,
                                                               one_row):
    # the kernel raises only the nonzero entries to the p-th power; the reference raises all
    pts = _structured_points(kind)
    if one_row:
        monkeypatch.setattr(space_mod, "_CHUNK_BYTES", 1)
    for p in (1.0, 1.5, 2.0, 3.5, 7.0, 2000.0, math.inf):
        ps = PointSet(Space(p, blocks), pts)
        with np.errstate(over="ignore"):  # differences of +-1e308 overflow to inf
            want = kernel_reference.pair_distances(ps.space, ps.points, ps.points)
            got = distance_matrix(ps)
        assert got.tobytes() == want.tobytes(), p


def test_l1_norm_is_the_plain_sum():
    s = Space(1.0, (1, 1, 1))
    # dyadic sums that top * sum(r / top), the rule with a rescale, rounds off
    assert norm(s, [1.0, -3.0, 3.0]) == 7.0
    assert distance(s, [1.0, 1.0, 0.0], [0.0, 0.0, -13.0]) == 15.0
    dm = distance_matrix(PointSet(s, [[0.0, 0.0, 0.0], [-1.0, 3.0, 3.0]]))
    assert dm[0, 1] == dm[1, 0] == 7.0
    with np.errstate(over="ignore", invalid="raise"):  # the sum overflows
        assert norm(s, [1e308, -1e308, 0.0]) == math.inf
    assert norm(s, [0.0, 0.0, 0.0]) == 0.0
    assert norm(Space(1.0, (2, 1)), [0.0, 0.0, 0.0]) == 0.0


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.5, 1e5, math.inf])
def test_outer_norm_on_a_copy_gives_the_reference_bits(p):
    # _outer_norm rescales and raises its argument in place; the reference does both on
    # new arrays.  Callers that read their array again pass a copy: the sandwich (below)
    # and matrix_thm1's l_k plane (test_thm1_distance_plane_is_distance_matrix_in_lk)
    rng = np.random.default_rng(41)
    dense = np.abs(rng.normal(size=(6, 7)))
    zeros = dense * (rng.random((6, 7)) < 0.2)
    zeros[0] = 0.0
    extreme = dense * np.array([[1e-300], [1e-200], [1.0], [1e200], [1e300], [1.0]])
    extreme[5, 3] = math.inf
    for r in (dense, zeros, extreme, dense[0]):
        with np.errstate(over="ignore"):
            want = kernel_reference.outer_norm(r, p)
            got = space_mod._outer_norm(r.copy(), p)
        assert got.tobytes() == want.tobytes()


def test_sandwich_reads_its_array_twice_unchanged():
    x = np.random.default_rng(43).normal(size=9)
    before = x.copy()
    first = norm_sandwich_check(x, 1.0, 2.5)
    assert norm_sandwich_check(x, 1.0, 2.5) == first
    assert x.tobytes() == before.tobytes()
    # the p-norm is taken after the q-norm, on the same array
    assert first[1][1] == float(space_mod._outer_norm(np.abs(before), 1.0))


@pytest.mark.parametrize("p, blocks", [(1.0, (1, 1)), (2.0, (1, 1)), (3.0, (1, 1)),
                                       (math.inf, (1, 1)), (2.0, (2, 1))])
def test_overflowed_difference_is_inf(p, blocks):
    s = Space(p, blocks)
    x, y = np.zeros(s.ambient_dim), np.zeros(s.ambient_dim)
    x[0], y[0] = 1e308, -1e308
    with np.errstate(over="ignore", invalid="raise"):  # the scale's inf / inf used to give nan
        assert distance(s, x, y) == math.inf
        dm = distance_matrix(PointSet(s, [x, y]))
    assert dm[0, 1] == dm[1, 0] == math.inf


def test_distance_matrix_extreme_scales():
    for p, blocks in itertools.product([1.0, 2.5, 800.0, math.inf], [(1, 1, 1), (2, 1)]):
        s = Space(p, blocks)
        huge = np.array([[1e200, -2e200, 0.5e200], [-1e200, 1e200, 0.0]])
        tiny = np.array([[1e-200, 2e-200, 3e-200], [0.0, 0.0, 0.0]])
        for pts in (huge, tiny):
            dm = distance_matrix(PointSet(s, pts))
            assert np.isfinite(dm[0, 1]) and dm[0, 1] > 0 and dm[0, 1] == dm[1, 0]


@pytest.mark.parametrize("blocks", [(1,) * 4, (2, 1, 1), (3, 1), (4,)])
def test_pair_kernels_take_batch_axes(blocks):
    # each (m, dim) slice of a (3, m, dim) batch gives the bits of its own call;
    # batch 1 is all below the smallest normal square, so every pair is rescued
    rng = np.random.default_rng(23)
    A, B = rng.normal(size=(3, 4, 4)), rng.normal(size=(3, 5, 4))
    A[0, 1] *= 1e200
    A[1] *= 1e-200
    B[1] *= 1e-200
    B[2, 3] *= 1e200
    s = Space(2.5, blocks)
    with np.errstate(over="ignore"):
        for kernel in (pair_block_norms, pair_block_sq_norms):
            whole = kernel(s, A, B)
            assert whole.shape == (3, 4, 5, len(blocks))
            for b in range(3):
                assert whole[b].tobytes() == kernel(s, A[b], B[b]).tobytes()
    if blocks != (1,) * 4:
        R = pair_block_norms(s, A, B)
        assert np.all(np.isfinite(R[0, 1])) and np.all(R[1] > 0.0)


def test_distance_matrix_peak_memory():
    ps = cross_polytope(200)
    tracemalloc.start()
    try:
        distance_matrix(ps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20, peak


def test_distance_profile_peak_memory():
    # the condensed m(m-1)/2 distances and one row chunk's temporaries, no (m, m) array
    ps = cross_polytope(200)
    tracemalloc.start()
    try:
        distance_profile(ps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * ps.m ** 2 + space_mod._CHUNK_BYTES, peak


@pytest.mark.parametrize("chunk_bytes", [64, 4096])  # one row per chunk; many rows at small m
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.5, 7.25, math.inf])
@pytest.mark.parametrize("blocks", [(1,) * 5, (2, 1, 3)])
def test_condensed_distances_are_the_matrix_triangle(monkeypatch, chunk_bytes, p, blocks):
    monkeypatch.setattr(space_mod, "_CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(59)
    space = Space(p, blocks)
    for m in range(1, 41):
        # grid coordinates beside noisy ones: many differences are exact zeros
        pts = np.where(rng.random((m, space.ambient_dim)) < 0.5,
                       rng.integers(-1, 2, size=(m, space.ambient_dim)) * 0.75,
                       rng.normal(size=(m, space.ambient_dim)))
        ps = PointSet(space, pts * (1e-200, 1.0, 1e200)[m % 3])
        got = condensed_distances(ps)
        want = distance_matrix(ps)[np.triu_indices(m, 1)]
        assert np.array_equal(got.view(np.int64), want.view(np.int64)), m


@pytest.mark.parametrize("pairwise", [condensed_distances, distance_matrix])
def test_pair_point_cap_comes_before_any_allocation(monkeypatch, pairwise):
    # 2 * 10^6 points on a line are 16 MB of input; their m(m-1)/2 distances would be 16 TB
    ps = PointSet(Space(3.0, (1,)), np.arange(2_000_000.0)[:, None])

    def no_empty(*args, **kwargs):
        raise AssertionError("allocated before the cap check")
    monkeypatch.setattr(space_mod.np, "empty", no_empty)
    with pytest.raises(ResourceLimitError, match=f"2000000 points are above the cap of "
                                                 f"{space_mod.MAX_PAIR_POINTS} on pairwise"):
        pairwise(ps)


@pytest.mark.parametrize("call", [
    lambda: PointSet(Space(2.0, (1, 1)), np.zeros((0, 2))),
    lambda: norm_sandwich_check([1.0, 2.0], 0.5, 1.0),
], ids=["no-points", "sandwich-at-p-below-1"])
def test_refusals(call):
    with pytest.raises(InputError):
        call()


def test_sandwich_examples():
    ok, (nq, np_, up) = norm_sandwich_check([1, 1, 1, 1], 1, 2)
    assert ok and (nq, np_, up) == (2.0, 4.0, 4.0)
    ok, triple = norm_sandwich_check([1, 0, 0, 0, 0], 1.5, 7)
    assert ok and triple[0] == 1.0 and triple[1] == 1.0
    assert abs(triple[2] - 5 ** (1 / 1.5 - 1 / 7)) < 1e-15
    ok, triple = norm_sandwich_check([0.0, 0.0], 1, 2)
    assert ok and triple == (0.0, 0.0, 0.0)
    with pytest.raises(InputError):
        norm_sandwich_check([1, 2], 3, 2)


def test_sandwich_random():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        n = rng.integers(1, 65)
        x = rng.normal(size=n) * 10 ** rng.uniform(-3, 3)
        p = rng.uniform(1, 10)
        q = math.inf if rng.random() < 0.2 else rng.uniform(p, 10)
        ok, _ = norm_sandwich_check(x, p, q)
        assert ok


@st.composite
def _pair_kernel_case(draw, n_sets):
    """(space, point arrays): n_sets arrays of shape (*batch, k, dim) for a plain
    lp or lpsum layout.  Entries are multiples of 2**(e - 10) up to 2**(e + 10),
    so every difference is exact; e from -550 to 550 puts some block sums of
    squares below the smallest normal float or past the largest."""
    blocks = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)
                  | st.integers(1, 6).map(lambda n: [1] * n))
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.7, 64.0, math.inf]))
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    unit = 2.0 ** (draw(st.integers(-550, 550)) - 10)
    shapes = [batch + (draw(st.integers(1, 3)), sum(blocks)) for _ in range(n_sets)]
    sets = [draw(arrays(np.int64, shape, elements=st.integers(-2 ** 20, 2 ** 20))) * unit
            for shape in shapes]
    return Space(p, tuple(blocks)), sets


def _pair_distances(s, A, B):
    return space_mod._outer_norm(pair_block_norms(s, A, B), s.p)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(case=_pair_kernel_case(3))
def test_triangle_inequality_random(case):
    s, (X, Y, Z) = case
    direct = _pair_distances(s, X, Z)[..., :, None, :]
    via = _pair_distances(s, X, Y)[..., :, :, None] + _pair_distances(s, Y, Z)[..., None, :, :]
    assert np.all(direct <= (1.0 + 1e-12) * via)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(case=_pair_kernel_case(2), c=st.floats(1e-3, 1e3), sign=st.sampled_from([-1.0, 1.0]))
def test_homogeneity(case, c, sign):
    s, (A, B) = case
    c *= sign
    scaled, plain = _pair_distances(s, c * A, c * B), abs(c) * _pair_distances(s, A, B)
    assert np.all(np.abs(scaled - plain) <= 1e-12 * plain)


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(case=_pair_kernel_case(2), keep=st.lists(st.booleans(), min_size=2, max_size=2))
def test_pair_block_norms_are_square_roots_in_the_normal_range(case, keep):
    # B's batch axes may have length 1 and broadcast against A's
    s, (A, B) = case
    B = B[tuple(slice(None) if k else slice(0, 1) for k in keep[:B.ndim - 2])]
    with np.errstate(over="ignore"):
        S = pair_block_sq_norms(s, A, B)
        R = pair_block_norms(s, A, B)
    assert R.shape == S.shape
    normal = (S >= space_mod._TINY) & (S < math.inf)
    assert R[normal].tobytes() == np.sqrt(S[normal]).tobytes()


@pytest.mark.parametrize("edge, past", [
    (2.0 ** -511, np.nextafter(2.0 ** -511, 0.0)),  # 2**-511 squares to exactly _TINY
    (np.nextafter(2.0 ** 512, 0.0), 2.0 ** 512),  # the largest double with a finite square
], ids=["underflow", "overflow"])
def test_rescue_cut_offs(edge, past):
    # a 2-coordinate block: a sum of squares in [_TINY, inf) gives its square
    # root; one double past either end, the block is rescued and gives |delta|
    s = Space(2.5, (2,))
    zero = np.zeros((1, 2))
    with np.errstate(over="ignore"):
        S, S_past = pair_block_sq_norms(s, np.array([[edge, 0.0], [past, 0.0]]), zero)[:, 0, 0]
        R, R_past = pair_block_norms(s, np.array([[edge, 0.0], [-past, 0.0]]), zero)[:, 0, 0]
    assert space_mod._TINY <= S < math.inf and R == np.sqrt(S) == edge
    assert not space_mod._TINY <= S_past < math.inf and R_past == past


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_rescue_folds_hypot_over_each_block(scale):
    # every block sum of squares underflows at 1e-200 and overflows at 1e200, and none
    # does at 1: the rescue gives np.hypot folded over each block's coordinates in
    # order, bit for bit as np.hypot.reduceat at the blocks' first coordinates
    rng = np.random.default_rng(11)
    shapes = [b for n in (1, 2, 3) for b in itertools.product((1, 2, 3, 5), repeat=n)]
    for blocks in shapes:
        s, dim = Space(3.0, blocks), sum(blocks)
        A, B = rng.normal(size=(2, 4, dim)) * scale
        with np.errstate(over="ignore", under="ignore"):
            S = pair_block_sq_norms(s, A, B)
            R = pair_block_norms(s, A, B)
        starts = np.cumsum((0,) + blocks[:-1])
        folded = np.hypot.reduceat(np.abs(A[:, None, :] - B[None, :, :]), starts, axis=-1)
        normal = (S >= space_mod._TINY) & (S < math.inf)
        assert normal.all() if scale == 1.0 else not normal.any()
        assert R.tobytes() == np.where(normal, np.sqrt(S), folded).tobytes()


def test_blocks_all_one_matches_plain_lp():
    rng = np.random.default_rng(17)
    for p in [1, 1.5, 2, 4, math.inf]:
        x = rng.normal(size=6)
        got = norm(Space(float(p), (1,) * 6), x)
        want = (np.max(np.abs(x)) if math.isinf(p)
                else float(np.sum(np.abs(x) ** p)) ** (1 / p))
        assert abs(got - want) <= 1e-12 * max(got, 1.0)


def test_pointset_json_roundtrip():
    ps = PointSet(Space(math.inf, (2, 1)), np.array([[1, 2, 3], [4, 5, 6.5]]))
    again = PointSet.from_jsonable(ps.to_jsonable())
    assert again.space == ps.space
    assert np.array_equal(again.points, ps.points)
    with pytest.raises(InputError):
        PointSet.from_jsonable({"points": [[1]]})
    with pytest.raises(InputError):
        PointSet(Space(2.0, (1, 1)), np.zeros((2, 3)))


def test_pointset_rejects_ragged_and_nonfinite():
    s = Space(2.0, (1, 1))
    for bad in ([[0, 0], [1]], [["a", 0], [1, 0]], [[0, math.nan], [1, 0]],
                [[0, math.inf], [1, 0]], [[0, -math.inf], [1, 0]]):
        with pytest.raises(InputError):
            PointSet(s, bad)
        with pytest.raises(InputError):
            PointSet.from_jsonable({"space": s.to_string(), "points": bad})
    with pytest.raises(InputError, match="finite"):
        PointSet(s, [[0, 10 ** 400]])  # an integer past the largest double
    for space in (3, None, [s.to_string()]):
        with pytest.raises(InputError, match="must be a string"):
            PointSet.from_jsonable({"space": space, "points": [[0, 0]]})
