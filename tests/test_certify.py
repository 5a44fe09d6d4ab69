import dataclasses
import importlib
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eqdist import bounds as bounds_mod
from eqdist import space as space_mod
from eqdist.approx import EvenPolynomial, _jackson_bound, choose_degree, jackson_constant
from eqdist.bounds import MAX_BOUND_BITS, BoundConfig, enumerate_bounds
from eqdist.certify import (RANK_LEMMA_SLACK, RANK_RTOL, CertifyConfig, SymMatrix,
                            _power_sum_entry, certify, gram_thm3, gram_thm4, independence_rank_thm3,
                            independence_rank_thm4, matrix_thm1, matrix_thm2,
                            matrix_thm5, numerical_rank, rank_lower_bound, select_k,
                            span_dim)
from eqdist.construct import (cross_polytope, euclidean_simplex, lp_simplex,
                              product_construction)
from eqdist.errors import InputError, NumericalError, ResourceLimitError
from eqdist.space import PointSet, Space, distance_matrix, pair_block_sq_norms
from monomial_counts import monomial_count_enumerated, monomial_count_telescoped

certify_mod = importlib.import_module("eqdist.certify")  # the package exports certify()


def _mirror_upper(A):
    """The SymMatrix holding A's upper triangle and its mirror image."""
    return SymMatrix(len(A), np.triu(A) + np.triu(A, 1).T)


def _random_sym(rng, m):
    return _mirror_upper(rng.normal(size=(m, m)))


def test_symmatrix_validation():
    with pytest.raises(InputError):
        SymMatrix(2, np.array([[1.0, 2.0], [2.1, 1.0]]))


def test_symmatrix_reads_as_an_array():
    M = _mirror_upper(np.array([[1.0, 5.0], [0.0, 1.0]]))
    assert np.asarray(M, dtype=float) is M.entries  # rank_lower_bound and numerical_rank read it so
    copy = np.array(M)
    assert copy is not M.entries and copy.flags.writeable and np.array_equal(copy, M.entries)
    assert rank_lower_bound(M) == rank_lower_bound(M.entries)
    assert numerical_rank(M) == 2


@pytest.mark.parametrize("call", [
    lambda: SymMatrix(2, np.eye(3)),
    lambda: matrix_thm5(PointSet(Space(math.inf, (1, 1)), np.eye(2)), EvenPolynomial(2, (1.0,))),
    lambda: certify_mod._thm4_block_monomials(1, 3),
    lambda: CertifyConfig(c=0.0),
    lambda: CertifyConfig(c_absolute=-5.0),
], ids=["shape", "thm5-at-p-inf", "monomials-at-odd-p", "c-0", "c-absolute-negative"])
def test_refusals(call):
    with pytest.raises(InputError):
        call()


def test_thm2_notes_a_surrogate_below_zero():
    # at d = 5 the approximant dips below 0 near x = 0, so Y_ij < 0 at distance 0.1
    ps = PointSet(Space(5.0, (1,)), np.array([[0.0], [1.0], [0.1]]))
    rep = certify(ps, "thm2", CertifyConfig(c=1000.0))
    assert any(n.startswith("surrogate Y_ij not everywhere positive (min -") for n in rep.notes)


def test_rank_lower_bound_examples():
    assert rank_lower_bound(np.eye(5)) == 5.0
    assert rank_lower_bound(np.ones((3, 3))) == 1.0
    A = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert abs(rank_lower_bound(A) - 1.6) < 1e-15
    with pytest.raises(InputError):
        rank_lower_bound(np.zeros((3, 3)))


def test_rank_lower_bound_past_the_largest_double():
    # the squares overflow; a power-of-two rescale keeps every bit of the ratio
    B = np.random.default_rng(5).normal(size=(6, 6))
    A = B + B.T
    assert rank_lower_bound(A * 2.0 ** 600) == rank_lower_bound(A)
    assert rank_lower_bound(np.eye(3) * 2.0 ** 700) == 3.0  # tr^2 used to raise OverflowError


def test_rank_lower_bound_below_the_smallest_normal():
    # the squares underflow; the same power-of-two rescale keeps every bit
    B = np.random.default_rng(5).normal(size=(6, 6))
    A = B + B.T
    assert rank_lower_bound(A * 2.0 ** -600) == rank_lower_bound(A)
    # 1e-200 is no power of two, so its ratio is 3 up to rounding, as at any scale
    tiny = rank_lower_bound(np.eye(3) * 1e-200)  # the sum of squares used to round to 0
    assert tiny == rank_lower_bound(np.eye(3) * 1e-200 * 2.0 ** 600)
    assert abs(tiny - 3.0) <= 4 * np.finfo(float).eps
    assert rank_lower_bound(np.eye(3) * 2.0 ** -1060) == 3.0  # subnormal entries
    with pytest.raises(InputError):
        rank_lower_bound(np.zeros((3, 3)))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 12), k=st.integers(-1000, 1000))
def test_rank_lower_bound_is_the_same_at_every_power_of_two(seed, m, k):
    # one power-of-two rescale at every scale: the bits do not move with k
    rng = np.random.default_rng(seed)
    A = _mirror_upper(rng.normal(size=(m, m)) * 2.0 ** rng.integers(-20, 21, size=(m, m))).entries
    with np.errstate(over="ignore"):
        scaled = A * 2.0 ** k
    # wherever the scaled matrix is finite and every entry scaled exactly (so nonzero)
    assume(np.isfinite(scaled).all() and np.array_equal(np.ldexp(scaled, -k), A))
    assert rank_lower_bound(scaled) == rank_lower_bound(A)


def test_certify_config_fields():
    assert [f.name for f in dataclasses.fields(CertifyConfig)] == ["c", "c_absolute"]


def test_rank_lemma_soundness_sample():
    rng = np.random.default_rng(101)
    for _ in range(200):
        m = int(rng.integers(1, 31))
        A = _random_sym(rng, m)
        assert rank_lower_bound(A) <= numerical_rank(A) + 1e-9


def test_epsilon_bound_matches_rank_lemma_on_sign_matrices():
    rng = np.random.default_rng(5)
    for m, eps in [(3, 0.25), (6, 0.1), (12, 0.5)]:
        signs = np.where(rng.random((m, m)) < 0.5, -1.0, 1.0)
        A = eps * signs
        np.fill_diagonal(A, 1.0)
        A = _mirror_upper(A)
        # the rank lemma's bound for a unit diagonal and off-diagonal magnitudes eps
        assert abs(rank_lower_bound(A) - m / (1 + (m - 1) * eps * eps)) < 1e-12


def test_numerical_rank():
    assert numerical_rank(np.eye(5)) == 5
    assert numerical_rank(np.ones((3, 3))) == 1
    assert numerical_rank(np.diag([1.0, 1e-15])) == 1
    assert numerical_rank(np.zeros((4, 4))) == 0
    assert numerical_rank(np.zeros((0, 0))) == numerical_rank(np.zeros((3, 0))) == 0


def test_numerical_rank_cut_off_edge():
    # the SVD of a diagonal matrix returns its entries exactly: a singular value
    # equal to RANK_RTOL * sigma_max is dropped, one ulp above it is kept
    assert numerical_rank(np.diag([1.0, RANK_RTOL])) == 1
    assert numerical_rank(np.diag([1.0, np.nextafter(RANK_RTOL, 1.0)])) == 2
    assert numerical_rank(np.diag([4.0, 4.0 * RANK_RTOL])) == 1  # relative to sigma_max


def test_matrix_thm1_examples():
    tri = lp_simplex(2, 2.0)
    A, _ = matrix_thm1(tri, 2)
    assert np.max(np.abs(A.entries - np.eye(3))) < 1e-13
    single = PointSet(Space(2.0, (1, 1)), np.array([[0.3, 0.4]]))
    assert np.array_equal(matrix_thm1(single, 2)[0].entries, [[1.0]])
    two = PointSet(Space(4.0, (1, 1)), np.array([[0, 0], [1, 0.0]]))
    assert np.array_equal(matrix_thm1(two, 4)[0].entries, np.eye(2))
    with pytest.raises(InputError):
        matrix_thm1(two, 3)
    with pytest.raises(InputError):
        matrix_thm1(PointSet(Space(2.0, (2,)), np.array([[0.0, 0.0]])), 2)


def test_matrix_thm1_span_soundness_sample():
    rng = np.random.default_rng(7)
    for k in (2, 4, 6):
        for n in (2, 4, 6):
            span = (k - 1) * n + 2
            for _ in range(20):
                pts = PointSet(Space(2.0, (1,) * n),
                               rng.uniform(-0.5, 0.5, (span + 4, n)))
                A, _ = matrix_thm1(pts, k)
                assert numerical_rank(A) <= span


def test_matrix_thm2_examples():
    P2 = EvenPolynomial(2, (1.0,))
    two = PointSet(Space(2.0, (1,)), np.array([[0.0], [1.0]]))
    A, diag = matrix_thm2(two, [1.0], P2)
    assert np.array_equal(A.entries, np.eye(2))
    assert diag.max_gap == 0.0 and diag.min_y == 1.0
    single = PointSet(Space(2.0, (1, 1)), np.array([[0.1, 0.2]]))
    A, _ = matrix_thm2(single, [1.0], P2)
    assert np.array_equal(A.entries, [[1.0]])


def test_matrix_thm2_reduces_to_thm1_at_k1():
    rng = np.random.default_rng(19)
    for k in (2, 4):
        pts = PointSet(Space(float(k), (1,) * 3), rng.uniform(-0.4, 0.4, (6, 3)))
        P = EvenPolynomial(k, tuple(0.0 for _ in range(k // 2 - 1)) + (1.0,))
        A2, _ = matrix_thm2(pts, [1.0], P)
        A1, _ = matrix_thm1(pts, k)
        assert np.array_equal(A2.entries, A1.entries)


def test_matrix_thm2_validation():
    P2 = EvenPolynomial(2, (1.0,))
    two = PointSet(Space(2.0, (1,)), np.array([[0.0], [1.0]]))
    for bad in ([], [0.9], [math.nan], [1.0, 1.2], [1.0, 0.4, 0.5], [1.0, 0.0]):
        with pytest.raises(InputError):
            matrix_thm2(two, bad, P2)
    inf_pts = PointSet(Space(math.inf, (1, 1)), np.array([[0, 0], [1, 0.0]]))
    with pytest.raises(InputError):
        matrix_thm2(inf_pts, [1.0], P2)


@pytest.mark.parametrize("p", [109.6, 109.7, 120.0])
def test_gap_bound_is_n_times_the_approximants_jackson_bound(p):
    # one overflow rule for B(p)/d^p, on both sides of B(p)'s own overflow
    # near p = 109.65, past which the bound is taken in log space
    if p > 109.65:
        with pytest.raises(NumericalError, match=r"B\(p\) overflows"):
            jackson_constant(p)
    pts = PointSet(Space(p, (1, 1, 1)), np.eye(3))
    for d in (110, 177, 400):
        P = EvenPolynomial(d, (1.0,))
        for _, diag in (matrix_thm5(pts, P), matrix_thm2(pts, [1.0], P)):
            assert 0.0 < diag.gap_bound == 3 * _jackson_bound(p, d) < math.inf


def test_matrix_thm2_span_soundness_sample():
    # the (dn)^k form needs n >= 2, where (d-1)n+2 <= dn; the raw span
    # ((d-1)n+2)^k holds for every n
    rng = np.random.default_rng(23)
    for n in (1, 2, 3):
        for k in (1, 2):
            for d in (2, 3):
                span = ((d - 1) * n + 2) ** k
                dists = [1.0] if k == 1 else [1.0, float(rng.uniform(0.2, 0.9))]
                for _ in range(10):
                    m = min(span + 4, 40)
                    pts = PointSet(Space(2.0, (1,) * n),
                                   rng.uniform(-0.5, 0.5, (m, n)))
                    P = EvenPolynomial(d, tuple(rng.uniform(-1, 1, d // 2)))
                    A, _ = matrix_thm2(pts, dists, P)
                    rank = numerical_rank(A)
                    assert rank <= span
                    if n >= 2:
                        assert rank <= (d * n) ** k


def test_matrix_thm5_examples():
    P2 = EvenPolynomial(2, (1.0,))
    pair = PointSet(Space(2.0, (2, 1)), np.array([[0, 0, 0], [1, 0, 0.0]]))
    A, diag = matrix_thm5(pair, P2)
    assert np.array_equal(A.entries, np.eye(2))
    assert diag.max_gap == 0.0 and diag.min_y == 1.0  # measured, as for thm2
    single = PointSet(Space(3.0, (2, 2)), np.array([[0.0, 1.0, 2.0, 3.0]]))
    A, diag = matrix_thm5(single, P2)
    assert np.array_equal(A.entries, [[1.0]]) and math.isnan(diag.min_y)


def test_matrix_thm5_blocks1_matches_thm2_k1():
    rng = np.random.default_rng(29)
    pts = PointSet(Space(4.0, (1,) * 4), rng.uniform(-0.4, 0.4, (7, 4)))
    P = EvenPolynomial(4, (0.0, 1.0))
    A5, _ = matrix_thm5(pts, P)
    A2, _ = matrix_thm2(pts, [1.0], P)
    assert np.array_equal(A5.entries, A2.entries)


def test_matrix_thm5_span_soundness_sample():
    rng = np.random.default_rng(37)
    for blocks, d in [((2, 3), 4), ((1, 1, 2), 3), ((4,), 5), ((2, 2, 2), 6)]:
        span = span_dim("thm5", blocks=blocks, d=d)
        sp = Space(2.5, blocks)
        for _ in range(10):
            pts = PointSet(sp, rng.uniform(-0.5, 0.5, (span + 4, sum(blocks))))
            P = EvenPolynomial(d, tuple(rng.uniform(-1, 1, d // 2)))
            A, _ = matrix_thm5(pts, P)
            assert numerical_rank(A) <= span


def test_gram_thm3():
    prod = product_construction(euclidean_simplex(2), euclidean_simplex(1))
    G = gram_thm3(prod)
    assert np.max(np.abs(G.entries - np.eye(6))) < 1e-12
    single = PointSet(Space(math.inf, (2, 1)), np.array([[0.0, 0.0, 0.0]]))
    assert np.array_equal(gram_thm3(single).entries, [[1.0]])
    pair = PointSet(Space(math.inf, (1, 1)), np.array([[0, 0], [1, 0.5]]))
    G = gram_thm3(pair)
    assert np.allclose(G.entries, np.eye(2) * 1.0 + np.array([[0, 0], [0, 0.0]]))
    with pytest.raises(InputError):
        gram_thm3(PointSet(Space(math.inf, (1, 1, 1)), np.zeros((1, 3))))
    with pytest.raises(InputError):
        gram_thm3(PointSet(Space(2.0, (1, 1)), np.zeros((1, 2))))


def test_gram_thm4():
    pair = PointSet(Space(4.0, (1, 1)), np.array([[0, 0], [1, 0.0]]))
    assert np.array_equal(gram_thm4(pair, 4).entries, np.eye(2))
    delta = 1e-3
    pert = PointSet(Space(4.0, (1, 1)), np.array([[0, 0], [1 + delta, 0.0]]))
    G = gram_thm4(pert, 4)
    assert abs(G.entries[0, 1] - (1 - (1 + delta) ** 4)) < 1e-12
    zero_delta = PointSet(Space(4.0, (1, 1)), np.array([[0, 0], [1.0, 0]]))
    assert gram_thm4(zero_delta, 4).entries[0, 1] == 0.0
    with pytest.raises(InputError):
        gram_thm4(pair, 3)


def test_thm1_and_thm4_are_one_rule():
    # on one-coordinate blocks 1 - ||Delta||_k^k is 1 - sum_b ||Delta_b||^k, bit for bit
    rng = np.random.default_rng(23)
    for k in (2, 4, 6):
        ps = PointSet(Space(float(k), (1, 1)), rng.uniform(-0.5, 0.5, (25, 2)))
        assert matrix_thm1(ps, k)[0].entries.tobytes() == gram_thm4(ps, k).entries.tobytes()


def test_whole_float_exponents():
    ps = PointSet(Space(4.0, (1, 2)), np.random.default_rng(29).uniform(-0.5, 0.5, (12, 3)))
    assert gram_thm4(ps, 4.0).entries.tobytes() == gram_thm4(ps, 4).entries.tobytes()
    assert independence_rank_thm4(ps, 4.0) == independence_rank_thm4(ps, 4)
    lp = PointSet(Space(4.0, (1, 1, 1)), ps.points)
    assert matrix_thm1(lp, 4.0)[0].entries.tobytes() == matrix_thm1(lp, 4)[0].entries.tobytes()
    for p in (4.5, math.nan, math.inf):
        for build in (lambda: gram_thm4(ps, p), lambda: independence_rank_thm4(ps, p),
                      lambda: matrix_thm1(lp, p)):
            with pytest.raises(InputError):
                build()


def _builder_cases():
    rng = np.random.default_rng(41)
    lp = PointSet(Space(2.5, (1,) * 7), rng.uniform(-0.5, 0.5, (40, 7)))
    pts = rng.uniform(-0.5, 0.5, (40, 7))
    P = EvenPolynomial(6, (0.5, -0.2, 0.1))
    return [lambda: matrix_thm1(lp, 4),
            lambda: matrix_thm2(lp, [1.0, 0.6], P),
            lambda: matrix_thm5(PointSet(Space(2.5, (3, 4)), pts), P),
            lambda: gram_thm3(PointSet(Space(math.inf, (3, 4)), pts)),
            lambda: gram_thm4(PointSet(Space(4.0, (3, 4)), pts), 4)]


def test_builders_chunked_give_same_bits(monkeypatch):
    for build in _builder_cases():
        whole = build()  # one chunk of all 40 rows
        monkeypatch.setattr(space_mod, "_CHUNK_BYTES", 3 * 8 * 40 * 7)  # 14 chunks of 3 rows
        split = build()
        monkeypatch.undo()
        if isinstance(whole, tuple):
            extra = [x.tobytes() if isinstance(x, np.ndarray) else repr(x)
                     for x in (split[1], whole[1])]
            assert extra[0] == extra[1]
            whole, split = whole[0], split[0]
        assert split.entries.tobytes() == whole.entries.tobytes()


def _thm1_scaled_sets():
    rng = np.random.default_rng(19)
    sets = [cross_polytope(5), lp_simplex(6, 3.7), euclidean_simplex(4)]
    for scale in (1e-200, 1e-100, 1.0, 1e100, 1e150):
        sets.append(PointSet(Space(1.0, (1,) * 5), cross_polytope(5).points * scale))
        sets.append(PointSet(Space(3.0, (1,) * 4), rng.normal(size=(9, 4)) * scale))
    return sets


def test_thm1_distance_plane_is_distance_matrix_in_lk():
    # the same reduction on the same block norms, so the bits agree at every
    # scale: (1 - a_ij)^(1/k) would read 0 at 1e-200 and inf at 1e150, k >= 4
    for ps in _thm1_scaled_sets():
        for k in (2, 4, 6):
            with np.errstate(over="ignore"):
                _, dk = matrix_thm1(ps, k)
            lk = distance_matrix(PointSet(Space(float(k), ps.space.blocks), ps.points))
            assert dk.tobytes() == lk.tobytes(), (ps.points[0, 0], k)


def test_certify_thm1_note_at_extreme_scales():
    for scale in (1e-200, 1e-300):
        ps = PointSet(Space(1.0, (1,) * 4), cross_polytope(4).points * scale)
        off = distance_matrix(PointSet(Space(2.0, (1,) * 4), ps.points))[np.triu_indices(8, 1)]
        note = certify(ps, "thm1").notes[0]
        assert note.endswith(f"measured [{off.min():.6g}, {off.max():.6g}]"), note
        assert off.min() > 0.0


def test_certify_thm1_reads_the_pairs_once(monkeypatch):
    calls, pair_map = [], space_mod.pair_map
    def counting(points, fn):
        calls.append(points.m)
        return pair_map(points, fn)
    monkeypatch.setattr(certify_mod, "pair_map", counting)
    monkeypatch.setattr(space_mod, "pair_map", counting)
    for ps in (cross_polytope(6), lp_simplex(5, 2.5)):
        calls.clear()
        certify(ps, "thm1")
        assert calls == [ps.m]


def test_exponent_cap(monkeypatch):
    # no exponent cap: an entry is one power call at any even exponent, in one pass
    calls, pair_map = [], space_mod.pair_map
    monkeypatch.setattr(certify_mod, "pair_map",
                        lambda points, fn: calls.append(1) or pair_map(points, fn))
    lp, two = cross_polytope(2), PointSet(Space(4.0, (1, 1)), np.array([[0, 0], [1.0, 0]]))
    top = int(sys.float_info.max)  # the largest even integer a double holds
    for k in (402, 10 ** 8, 10 ** 300, top):
        calls.clear()
        # 1 - |1|^k = 0, and 1 - 2 * 0.5^k rounds to 1
        assert np.array_equal(matrix_thm1(lp, k)[0].entries[0], [1.0, 0.0, 1.0, 1.0])
        assert np.array_equal(gram_thm4(two, k).entries, np.eye(2))
        assert len(calls) == 2
    # the power call reads the exponent as a double; the last has too many digits to print
    for k in (top + 2, 10 ** 400, 10 ** 5000 + 1):
        with pytest.raises(ResourceLimitError, match="above the largest double"):
            matrix_thm1(lp, k)
        with pytest.raises(ResourceLimitError, match="above the largest double"):
            gram_thm4(two, k)


def test_builders_peak_memory():
    # unchunked, these held the whole (m, m, dim) pair arrays: 33 MB each
    cp, simplex = cross_polytope(80), lp_simplex(100, 2.5)
    P = EvenPolynomial(10, (1.2, -0.8, 0.5, -0.2, 0.05))
    for build in (lambda: matrix_thm1(cp, 2), lambda: matrix_thm5(simplex, P)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, peak


def test_span_dim():
    assert span_dim("thm1", n=3, k=4) == 11
    assert span_dim("thm2", n=2, d=3, k=2) == 36
    assert span_dim("thm3", a=2, b=3) == 20
    assert certify_mod._thm4_block_monomials(1, 4) == 5
    assert span_dim("thm4", a=1, b=1, p=4) == 9
    assert span_dim("thm5", blocks=(2, 2), d=4) == 20
    with pytest.raises(InputError):
        span_dim("thm9", n=1)
    with pytest.raises(InputError, match="missing 1 required positional argument: 'k'"):
        span_dim("thm1", n=3)
    with pytest.raises(InputError, match="unexpected keyword argument 'd'"):
        span_dim("thm1", n=3, k=4, d=9)
    with pytest.raises(InputError, match="unexpected keyword argument 'p'"):
        span_dim("thm3", a=1, b=2, p=4)
    # every count is a whole number >= 1, thm1's k and thm4's p even and >= 2
    for theorem, params, message in (
            ("thm1", dict(n=2.5, k=4), "n must be an integer"),
            ("thm1", dict(n=3, k=3), "k must be a positive even integer"),
            ("thm1", dict(n=0, k=4), "n must be >= 1"),
            ("thm2", dict(n=2, d=3, k=-1), "k must be >= 1"),
            ("thm2", dict(n=2, d=0, k=2), "d must be >= 1"),
            ("thm3", dict(a=-5, b=1), "a must be >= 1"),
            ("thm3", dict(a=1, b=math.nan), "b must be >= 1"),
            ("thm4", dict(a=1, b=1, p=-2), "p must be >= 2"),
            ("thm4", dict(a=1, b=0, p=4), "b must be >= 1"),
            ("thm5", dict(blocks=(2,), d=-1), "d must be >= 1"),
            ("thm5", dict(blocks=(2, 0), d=4), "block must be >= 1")):
        with pytest.raises(InputError, match=message):
            span_dim(theorem, **params)


def test_span_dim_bit_cap(monkeypatch):
    # thm2 at the cap: (d*n)^k with d*n = 2 has about k bits
    assert span_dim("thm2", n=1, d=2, k=MAX_BOUND_BITS) == 2 ** MAX_BOUND_BITS
    with pytest.raises(ResourceLimitError, match="thm2 span"):
        span_dim("thm2", n=1, d=2, k=MAX_BOUND_BITS + 1)
    # refused at once; each took from seconds to tens of seconds to form
    for theorem, params in (("thm2", dict(n=1000, d=400, k=10 ** 6)),
                            ("thm4", dict(a=16000, b=1, p=10 ** 300)),
                            ("thm5", dict(blocks=(10 ** 6,), d=10 ** 6))):
        with pytest.raises(ResourceLimitError, match=f"the {theorem} span"):
            span_dim(theorem, **params)
    # the binomial rows at a cap of 64 bits: 8 * log2(256) = 64 is taken, 8 * log2(257) is not
    monkeypatch.setattr(bounds_mod, "MAX_BOUND_BITS", 64)
    assert span_dim("thm4", a=8, b=1, p=494) == (math.comb(255, 8) + math.comb(254, 8)
                                                 + 248 + 247 - 1)
    assert span_dim("thm5", blocks=(8,), d=248) == 2 + math.comb(255, 8) - 1
    with pytest.raises(ResourceLimitError, match=r"C\(a \+ p/2, a\) has more than 64 bits"):
        span_dim("thm4", a=8, b=1, p=496)
    with pytest.raises(ResourceLimitError, match=r"C\(a \+ d - 1, a\) has more than 64 bits"):
        span_dim("thm5", blocks=(8,), d=249)


def test_monomial_count_identity():
    for a in range(1, 6):
        for p in (2, 4, 6, 8):
            tele = monomial_count_telescoped(a, p)
            enum = monomial_count_enumerated(a, p)
            closed = certify_mod._thm4_block_monomials(a, p)
            assert tele == enum == closed


def test_independence_rank_thm4():
    sp = Space(4.0, (1, 1))
    X = np.random.default_rng(0).standard_normal((9, 2))
    no_rows = _power_sum_entry(pair_block_sq_norms(sp, np.zeros((0, 2)), X), 2)
    assert no_rows.shape == (0, 9)
    assert numerical_rank(np.vstack([no_rows, X.T, np.ones(9)])) == 3
    pair = PointSet(sp, np.array([[0, 0], [1, 0.0]]))
    assert independence_rank_thm4(pair, 4) == (5, 5)  # 2 points, x1, x2 and 1
    dup = PointSet(sp, np.array([[0, 0], [0, 0.0]]))
    assert independence_rank_thm4(dup, 4) == (4, 5)
    # the size counts the augmenting monomials with 0 < |g| < p/2 in each block
    trio = PointSet(Space(8.0, (2, 1)), np.eye(3))
    assert independence_rank_thm4(trio, 8)[1] == 3 + 9 + 3 + 1
    big = PointSet(Space(4.0, (4, 4)), np.zeros((1, 8)))
    with pytest.raises(ResourceLimitError):
        independence_rank_thm4(big, 4)


def test_independence_rank_thm3():
    prod = product_construction(euclidean_simplex(2), euclidean_simplex(2))
    assert independence_rank_thm3(prod) == (prod.m + 4 + 2,) * 2
    dup = PointSet(prod.space, np.vstack([prod.points, prod.points[:1]]))
    assert independence_rank_thm3(dup) == (prod.m + 4 + 2, prod.m + 1 + 4 + 2)


def test_select_k():
    assert select_k(1.0) == 2
    assert select_k(1.5) == 2
    assert select_k(2.0) == 2
    assert select_k(2.5) == 2
    assert select_k(3.0) == 4
    assert select_k(3.5) == 4
    assert select_k(4.2) == 4
    assert select_k(5.0) == 6
    # every double >= 2^53 is an even integer, so k = p there
    assert select_k(2.0 ** 53 - 1) == 2 ** 53
    assert select_k(2.0 ** 53) == 2 ** 53
    assert select_k(1e300) == int(1e300)
    with pytest.raises(InputError):
        select_k(math.inf)


def test_certify_thm1_simplex():
    rep = certify(lp_simplex(3, 2.0), "thm1")
    assert rep.passes and rep.numerical_rank == 4 and rep.span_upper == 5
    assert rep.diag_ok and rep.max_offdiag < rep.offdiag_threshold
    assert rep.rank_lemma_lower <= rep.numerical_rank


@pytest.mark.parametrize("c", [1.5, 2.01])
def test_certify_large_p_note_agrees_with_the_catalog(c):
    # the note says the regime holds exactly where `bound` lists thm1.2; at c <= 2
    # neither gives the theorem, and the note is left out
    held = []
    for n, p in [(1, 3.0), (2, 1.5), (2, 4.0), (3, 20.0), (3, 200.0), (4, 50.0), (4, 70.0)]:
        points = lp_simplex(n, p) if n > 1 else PointSet(Space(p, (1,)), [[0.0], [1.0]])
        notes = [note for note in certify(points, "thm1", CertifyConfig(c_absolute=c)).notes
                 if note.startswith("large-p regime")]
        reports = enumerate_bounds(Space(p, (1,) * n), 1, BoundConfig(c_absolute=c))
        listed = any(r.source == "thm1.2" for r in reports)
        assert len(notes) == (0 if n == 1 or c <= 2 else 1)
        assert any(" holds at " in note for note in notes) == listed, (n, p)
        held.append(listed)
    assert held == ([False] * 7 if c <= 2 else [False, False, True, False, True, False, True])


def test_certify_thm1_cross_polytope_documents_sandwich():
    rep = certify(cross_polytope(2), "thm1")
    assert not rep.passes
    assert any("l_2 length" in note for note in rep.notes)
    assert any("off-diagonal check failed" in note for note in rep.notes)
    # max off-diagonal is exactly 1/sqrt(4): the slack band must be reported
    assert rep.max_offdiag == rep.offdiag_threshold == 0.5
    assert any("within" in note and "threshold" in note for note in rep.notes)


def test_certify_single_point_runs_its_theorem():
    def one_and_two(space):
        sp = Space.from_string(space)
        one = np.full((1, sp.ambient_dim), 0.5)
        return PointSet(sp, one), PointSet(sp, np.vstack([one, one + np.eye(sp.ambient_dim)[0]]))

    # one point is refused where two points of its space are: no shortcut passes it
    # past its theorem's hypotheses
    for space, thm, msg in [("lp:n=3,p=3", "thm3", "requires a two-block space"),
                            ("lp:n=2,p=3", "thm4", "p must be a positive even integer, got 3"),
                            ("lp:n=2,p=inf", "thm2", "thm2 requires finite p"),
                            ("lp:n=2,p=inf", "thm5", "thm5 requires finite p")]:
        for pts in one_and_two(space):
            with pytest.raises(InputError, match=msg):
                certify(pts, thm)
    with pytest.raises(InputError, match="needs at least 2 points"):  # thm2 reads the profile
        certify(one_and_two("lp:n=2,p=2")[0], "thm2")
    # where a theorem applies, one point is its 1x1 identity certificate
    for space, thm in [("lp:n=2,p=1", "thm1"), ("lp:n=2,p=3", "thm5"), ("lp:n=2,p=4", "thm4"),
                       ("lpsum:blocks=1,2,p=inf", "thm3"), ("lpsum:blocks=2,1,p=2", "thm5")]:
        rep = certify(one_and_two(space)[0], thm)
        assert rep.passes and rep.m == rep.numerical_rank == 1
        assert (rep.max_offdiag, rep.offdiag_threshold, rep.rank_lemma_lower) == (0.0, 1.0, 1.0)
        if thm == "thm1":
            assert rep.notes[0].endswith("measured no pairs")


def test_certify_thm2():
    pts = PointSet(Space(2.0, (1,)), np.array([[0.0], [1.0]]))
    rep = certify(pts, "thm2", CertifyConfig(c=6.0))
    assert rep.passes
    # a two-distance input is gated by the same three checks: at p = 2 the approximant
    # is exact, so every pair's Y_ij is one of the a_u^p and zeroes its own factor
    tri = PointSet(Space(2.0, (1, 1)),
                   np.array([[0, 0], [1, 0], [0.5, 0.1]]))
    rep = certify(tri, "thm2", CertifyConfig(c=6.0))
    assert rep.passes and rep.diag_ok and rep.max_offdiag == 0.0
    assert rep.notes[0].startswith("k=2 distances, ") and len(rep.notes) == 2


def test_certify_thm2_paper_constant_is_desk_scale_for_p2():
    pts = PointSet(Space(2.0, (1,)), np.array([[0.0], [1.0]]))
    rep = certify(pts, "thm2")
    assert rep.passes  # c = 4 B(2) gives a modest degree for p = 2


def test_paper_constant_always_has_a_degree_window():
    # B(p) >= (2^(1/p) - 1)^(-p), the c from which choose_degree's window always holds
    # an integer p-th power, at every p that jackson_constant takes (up to about 109.65),
    # integers and the doubles just above them included; the paper's c for thm2 is
    # B(p) k 2^(p k^2 - p k + 2k) >= B(p), so _paper_c needs no clamp to the window
    grid = [*np.linspace(1.0, 109.6, 100_001).tolist(), *range(1, 110),
            *(math.nextafter(float(n), math.inf) for n in range(1, 110))]
    assert all(jackson_constant(p) >= (2.0 ** (1.0 / p) - 1.0) ** (-p) for p in grid)
    for p in (1.0, 1.5, 2.0, 7.3, 50.0, 109.6):
        assert certify_mod._paper_c(p) == jackson_constant(p)
        choose_degree(p, certify_mod._paper_c(p), 1, 1)  # finds a degree in the window


def test_certify_thm2_l1_needs_constant_override():
    # the default constant pushes the degree past the representable range
    with pytest.raises(ResourceLimitError):
        certify(cross_polytope(2), "thm2")
    rep = certify(cross_polytope(2), "thm2", CertifyConfig(c=2.0))
    assert rep.passes and rep.max_offdiag < rep.offdiag_threshold


def test_certify_thm5_fractional_p():
    emb = PointSet(Space(1.5, (1, 1)), lp_simplex(2, 1.5).points)
    rep = certify(emb, "thm5")
    assert rep.passes
    assert any("ok" in n for n in rep.notes)


def test_certify_thm3_product():
    rep = certify(product_construction(euclidean_simplex(2), euclidean_simplex(1)), "thm3")
    assert rep.passes
    assert rep.numerical_rank == 6 <= rep.span_upper == 12
    assert any("augmented family rank 11" in n for n in rep.notes)


def test_certify_thm4():
    pair = PointSet(Space(4.0, (1, 1)), np.array([[0, 0], [1, 0.0]]))
    rep = certify(pair, "thm4")
    assert rep.passes and rep.span_upper == 9
    with pytest.raises(InputError):
        certify(pair, "thm6")
    odd = PointSet(Space(3.0, (1, 1)), np.array([[0, 0], [1, 0.0]]))
    with pytest.raises(InputError):
        certify(odd, "thm4")


@pytest.mark.parametrize("theorem, a, b, p, note", [
    # thm4: a + b at most BLOKHUIS_MAX_VARS = 6, and p at most BLOKHUIS_MAX_P = 8
    ("thm4", 3, 3, 4, "augmented family rank 14 (independent iff 23)"),
    ("thm4", 4, 3, 4, "independence check skipped: expansion with a+b=7, p=4 exceeds the "
                      "tractability cap (a+b <= 6, p <= 8)"),
    ("thm4", 1, 1, 8, "augmented family rank 10 (independent iff 11)"),
    ("thm4", 1, 1, 10, "independence check skipped: expansion with a+b=2, p=10 exceeds the "
                       "tractability cap (a+b <= 6, p <= 8)"),
    # thm3: a + b at most 2 * BLOKHUIS_MAX_VARS = 12
    ("thm3", 6, 6, None, "augmented family rank 63 (independent iff 63)"),
    ("thm3", 7, 6, None, "independence check skipped: expansion with a+b=13 exceeds the cap"),
])
def test_independence_note_at_the_caps(theorem, a, b, p, note):
    prod = product_construction(euclidean_simplex(a), euclidean_simplex(b))
    if p is not None:  # thm4 reads p from the space
        prod = PointSet(Space(float(p), (a, b)), prod.points)
    rep = certify(prod, theorem)
    assert [n for n in rep.notes if "independen" in n] == [note]


def test_certify_thm5():
    pair = PointSet(Space(2.0, (2, 1)), np.array([[0, 0, 0], [1, 0, 0.0]]))
    rep = certify(pair, "thm5")
    assert rep.passes
    simplex4 = PointSet(Space(2.0, (2, 1)), lp_simplex(3, 2.0).points)
    rep = certify(simplex4, "thm5")
    assert rep.passes and rep.numerical_rank == 4


def _random_unit_set(space, m, seed=0):
    """m default_rng(seed) points of [0, 1]^dim, scaled to a largest distance of 1."""
    sp = Space.from_string(space)
    x = np.random.default_rng(seed).uniform(0.0, 1.0, (m, sp.ambient_dim))
    return PointSet(sp, x / distance_matrix(PointSet(sp, x)).max())


_HALF_CROSS = PointSet(Space(3.0, (1, 1, 1)), np.vstack([np.eye(3), -np.eye(3)]) / 2)  # 2 distances
_INVARIANT_SAMPLES = {
    "thm1": [(lp_simplex(3, 2.5), None), (cross_polytope(3), None),
             (_random_unit_set("lp:n=3,p=3", 6), None)],
    "thm2": [(lp_simplex(3, 2.5), 4.0), (cross_polytope(2), 2.0),
             (_HALF_CROSS, 2.0), (_HALF_CROSS, 10.0),
             (_random_unit_set("lp:n=2,p=3", 5), 4.0)],
    "thm3": [(product_construction(euclidean_simplex(2), euclidean_simplex(1)), None),
             (_random_unit_set("lpsum:blocks=2,1,p=inf", 6), None)],
    "thm4": [(PointSet(Space(4.0, (2, 1)), np.hstack([euclidean_simplex(2).points,
                                                     np.full((3, 1), 0.25)])), None),
             (_random_unit_set("lpsum:blocks=2,1,p=4", 6), None)],
    "thm5": [(lp_simplex(2, 3.5), None),
             (PointSet(Space(1.5, (1, 1)), lp_simplex(2, 1.5).points), None),
             (_random_unit_set("lp:n=3,p=1.5", 6), 4.0),
             (_random_unit_set("lpsum:blocks=2,1,p=3", 6), None)],
}


@pytest.mark.parametrize("theorem", sorted(_INVARIANT_SAMPLES))
def test_every_theorem_passes_by_the_same_three_checks(theorem):
    # no theorem, and no number of distances, is exempt from any of the checks
    reports = [certify(pts, theorem, CertifyConfig(c=c)) for pts, c in _INVARIANT_SAMPLES[theorem]]
    for r in reports:
        assert r.diag_ok
        assert r.passes == (r.diag_ok and r.max_offdiag < r.offdiag_threshold
                            and r.rank_lemma_lower <= r.numerical_rank + RANK_LEMMA_SLACK
                            and r.numerical_rank <= r.span_upper)
    # each theorem's samples reach both outcomes, and fail the off-diagonal check
    assert {r.passes for r in reports} == {True, False}
    assert any(r.max_offdiag >= r.offdiag_threshold for r in reports)


def test_rank_lemma_slack_edge(monkeypatch):
    # a rank lemma bound up to RANK_LEMMA_SLACK above the numerical rank is met, one
    # ulp past it is not
    tri = lp_simplex(2, 2.0)
    assert certify(tri, "thm1").numerical_rank == 3
    for lower, passes in [(3 + RANK_LEMMA_SLACK, True),
                          (np.nextafter(3 + RANK_LEMMA_SLACK, 4.0), False)]:
        monkeypatch.setattr(certify_mod, "rank_lower_bound", lambda A, lower=lower: lower)
        rep = certify(tri, "thm1")
        assert (rep.rank_lemma_lower, rep.passes) == (lower, passes)


def test_certify_wrong_space_pairings():
    pair_inf = PointSet(Space(math.inf, (1, 1)), np.array([[0, 0], [1, 0.0]]))
    with pytest.raises(InputError):
        certify(pair_inf, "thm5")
    blocks = PointSet(Space(2.0, (2, 1)), np.array([[0, 0, 0], [1, 0, 0.0]]))
    with pytest.raises(InputError):
        certify(blocks, "thm1")
    finite = PointSet(Space(2.0, (1, 1)), np.array([[0, 0], [1, 0.0]]))
    with pytest.raises(InputError):
        certify(finite, "thm3")
