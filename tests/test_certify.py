import dataclasses
import importlib
import math
import tracemalloc

import numpy as np
import pytest

from eqdist import space as space_mod
from eqdist.approx import MAX_DEGREE, EvenPolynomial
from eqdist.certify import (CertifyConfig, SymMatrix, _f_thm4, _thm1_planes,
                            blokhuis_family_size,
                            certify, elementary_symmetric, epsilon_rank_bound,
                            gram_thm3, gram_thm4, independence_rank_thm3,
                            independence_rank_thm4, matrix_thm1, matrix_thm2,
                            matrix_thm5, numerical_rank, rank_lower_bound, select_k,
                            span_dim)
from eqdist.construct import (cross_polytope, euclidean_simplex, lp_simplex,
                              product_construction)
from eqdist.errors import InputError, ResourceLimitError
from eqdist.space import PointSet, Space, distance_matrix
from monomial_counts import monomial_count_enumerated, monomial_count_telescoped

certify_mod = importlib.import_module("eqdist.certify")  # the package exports certify()


def _random_sym(rng, m):
    A = rng.normal(size=(m, m))
    return SymMatrix.from_upper(A)


def test_symmatrix_validation():
    with pytest.raises(InputError):
        SymMatrix(2, np.array([[1.0, 2.0], [2.1, 1.0]]))
    M = SymMatrix.from_upper(np.array([[1.0, 5.0], [0.0, 1.0]]))
    assert M.entries[1, 0] == 5.0


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


def test_certify_config_fields():
    assert [f.name for f in dataclasses.fields(CertifyConfig)] == ["c", "k", "p_override",
                                                                   "c_absolute"]


def test_rank_lemma_soundness_sample():
    rng = np.random.default_rng(101)
    for _ in range(200):
        m = int(rng.integers(1, 31))
        A = _random_sym(rng, m)
        assert rank_lower_bound(A) <= numerical_rank(A, 1e-9) + 1e-9


def test_epsilon_rank_bound():
    assert abs(epsilon_rank_bound(4, 0.5) - 16 / 7) < 1e-15
    for m in (1, 2, 10, 500):
        assert epsilon_rank_bound(m, 0.0) == m
        half = epsilon_rank_bound(m, m ** -0.5)
        assert abs(half - m * m / (2 * m - 1)) < 1e-9
        assert half >= m / 2


def test_epsilon_bound_matches_rank_lemma_on_sign_matrices():
    rng = np.random.default_rng(5)
    for m, eps in [(3, 0.25), (6, 0.1), (12, 0.5)]:
        signs = np.where(rng.random((m, m)) < 0.5, -1.0, 1.0)
        A = eps * signs
        np.fill_diagonal(A, 1.0)
        A = SymMatrix.from_upper(A)
        assert abs(rank_lower_bound(A) - epsilon_rank_bound(m, eps)) < 1e-12


def test_numerical_rank():
    assert numerical_rank(np.eye(5), 1e-9) == 5
    assert numerical_rank(np.ones((3, 3)), 1e-9) == 1
    assert numerical_rank(np.diag([1.0, 1e-15]), 1e-9) == 1
    assert numerical_rank(np.zeros((4, 4)), 1e-9) == 0
    with pytest.raises(InputError):
        numerical_rank(np.eye(2), 0.0)


def test_elementary_symmetric():
    assert elementary_symmetric([]) == [1.0]
    assert elementary_symmetric([1.0, 0.5]) == [1.0, 1.5, 0.5]
    x, y, z = 0.3, 1.7, -2.0
    s = elementary_symmetric([x, y, z])
    assert np.allclose(s, [1.0, x + y + z, x * y + x * z + y * z, x * y * z])


def test_sigma_sum_bound():
    rng = np.random.default_rng(31)
    for _ in range(300):
        k = int(rng.integers(1, 9))
        a = rng.uniform(0.0, 1.0, size=k)
        a[a == 0.0] = 0.5
        sig = elementary_symmetric(a.tolist())
        assert sum(sig[:k]) < 2 ** k


def test_matrix_thm1_examples():
    tri = lp_simplex(2, 2.0)
    A = matrix_thm1(tri, 2)
    assert np.max(np.abs(A.entries - np.eye(3))) < 1e-13
    single = PointSet(Space(2.0, (1, 1)), np.array([[0.3, 0.4]]))
    assert np.array_equal(matrix_thm1(single, 2).entries, [[1.0]])
    two = PointSet(Space(4.0, (1, 1)), np.array([[0, 0], [1, 0.0]]))
    assert np.array_equal(matrix_thm1(two, 4).entries, np.eye(2))
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
                A = matrix_thm1(pts, k)
                assert numerical_rank(A, 1e-9) <= span


def test_matrix_thm2_examples():
    P2 = EvenPolynomial(2, (1.0,))
    two = PointSet(Space(2.0, (1,)), np.array([[0.0], [1.0]]))
    A, diag = matrix_thm2(two, [1.0], P2)
    assert np.array_equal(A.entries, np.eye(2))
    assert diag.max_gap == 0.0 and diag.y_positive
    single = PointSet(Space(2.0, (1, 1)), np.array([[0.1, 0.2]]))
    A, _ = matrix_thm2(single, [1.0], P2)
    assert np.array_equal(A.entries, [[1.0]])


def test_matrix_thm2_reduces_to_thm1_at_k1():
    rng = np.random.default_rng(19)
    for k in (2, 4):
        pts = PointSet(Space(float(k), (1,) * 3), rng.uniform(-0.4, 0.4, (6, 3)))
        P = EvenPolynomial(k, tuple(0.0 for _ in range(k // 2 - 1)) + (1.0,))
        A2, _ = matrix_thm2(pts, [1.0], P)
        A1 = matrix_thm1(pts, k)
        assert np.array_equal(A2.entries, A1.entries)


def test_matrix_thm2_validation():
    P2 = EvenPolynomial(2, (1.0,))
    two = PointSet(Space(2.0, (1,)), np.array([[0.0], [1.0]]))
    for bad in ([], [0.9], [1.0, 1.2], [1.0, 0.4, 0.5], [1.0, 0.0]):
        with pytest.raises(InputError):
            matrix_thm2(two, bad, P2)
    inf_pts = PointSet(Space(math.inf, (1, 1)), np.array([[0, 0], [1, 0.0]]))
    with pytest.raises(InputError):
        matrix_thm2(inf_pts, [1.0], P2)


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
                    rank = numerical_rank(A, 1e-9)
                    assert rank <= span
                    if n >= 2:
                        assert rank <= (d * n) ** k


def test_matrix_thm5_examples():
    P2 = EvenPolynomial(2, (1.0,))
    pair = PointSet(Space(2.0, (2, 1)), np.array([[0, 0, 0], [1, 0, 0.0]]))
    A, diag = matrix_thm5(pair, P2)
    assert np.array_equal(A.entries, np.eye(2))
    assert diag.max_gap == 0.0
    single = PointSet(Space(3.0, (2, 2)), np.array([[0.0, 1.0, 2.0, 3.0]]))
    A, _ = matrix_thm5(single, P2)
    assert np.array_equal(A.entries, [[1.0]])


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
            assert numerical_rank(A, 1e-9) <= span


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


def _builder_cases():
    rng = np.random.default_rng(41)
    lp = PointSet(Space(2.5, (1,) * 7), rng.uniform(-0.5, 0.5, (40, 7)))
    pts = rng.uniform(-0.5, 0.5, (40, 7))
    P = EvenPolynomial(6, (0.5, -0.2, 0.1))
    return [lambda: matrix_thm1(lp, 4), lambda: _thm1_planes(lp, 4),
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
                A, dk = _thm1_planes(ps, k)
                assert A.entries.tobytes() == matrix_thm1(ps, k).entries.tobytes()
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
    calls, pair_map = [], space_mod.pair_map
    monkeypatch.setattr(certify_mod, "pair_map",
                        lambda points, fn: calls.append(1) or pair_map(points, fn))
    lp, two = cross_polytope(2), PointSet(Space(4.0, (1, 1)), np.array([[0, 0], [1.0, 0]]))
    assert MAX_DEGREE == 400
    # 1 - |1|^400 = 0, and 1 - 2 * 0.5^400 rounds to 1
    assert np.array_equal(matrix_thm1(lp, 400).entries[0], [1.0, 0.0, 1.0, 1.0])
    assert np.array_equal(gram_thm4(two, 400).entries, np.eye(2))
    assert len(calls) == 2
    for build in (lambda k: matrix_thm1(lp, k), lambda k: gram_thm4(two, k)):
        for k in (402, 10 ** 8, 10 ** 300):
            with pytest.raises(ResourceLimitError, match="exceeds the cap of 400"):
                build(k)
    assert len(calls) == 2  # refused before any pair is read


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
    assert span_dim("thm4-monomials", a=1, p=4) == 5
    assert span_dim("thm4", a=1, b=1, p=4) == 9
    assert span_dim("thm5", blocks=(2, 2), d=4) == 20
    with pytest.raises(InputError):
        span_dim("thm9", n=1)
    with pytest.raises(InputError):
        span_dim("thm1", n=3)


def test_monomial_count_identity():
    for a in range(1, 6):
        for p in (2, 4, 6, 8):
            tele = monomial_count_telescoped(a, p)
            enum = monomial_count_enumerated(a, p)
            closed = span_dim("thm4-monomials", a=a, p=p)
            assert tele == enum == closed


def test_independence_rank_thm4():
    sp = Space(4.0, (1, 1))
    X = np.random.default_rng(0).standard_normal((9, 2))
    no_rows = _f_thm4(sp, np.zeros((0, 2)), X, 4)
    assert no_rows.shape == (0, 9)
    assert numerical_rank(np.vstack([no_rows, X.T, np.ones(9)]), 1e-9) == 3
    pair = PointSet(sp, np.array([[0, 0], [1, 0.0]]))
    assert independence_rank_thm4(pair, 4) == 5 == blokhuis_family_size(2, 1, 1, 4)
    dup = PointSet(sp, np.array([[0, 0], [0, 0.0]]))
    assert independence_rank_thm4(dup, 4) < blokhuis_family_size(2, 1, 1, 4)
    big = PointSet(Space(4.0, (4, 4)), np.zeros((1, 8)))
    with pytest.raises(ResourceLimitError):
        independence_rank_thm4(big, 4)


def test_independence_rank_thm3():
    prod = product_construction(euclidean_simplex(2), euclidean_simplex(2))
    got = independence_rank_thm3(prod)
    assert got == prod.m + 4 + 2


def test_select_k():
    assert select_k(1.0) == 2
    assert select_k(1.5) == 2
    assert select_k(2.0) == 2
    assert select_k(2.5) == 2
    assert select_k(3.0) == 4
    assert select_k(3.5) == 4
    assert select_k(4.2) == 4
    assert select_k(5.0) == 6
    with pytest.raises(InputError):
        select_k(math.inf)


def test_certify_thm1_simplex():
    rep = certify(lp_simplex(3, 2.0), "thm1")
    assert rep.passes and rep.numerical_rank == 4 and rep.span_upper == 5
    assert rep.diag_ok and rep.max_offdiag < rep.offdiag_threshold
    assert rep.rank_lemma_lower <= rep.numerical_rank


def test_certify_thm1_cross_polytope_documents_sandwich():
    rep = certify(cross_polytope(2), "thm1")
    assert not rep.passes
    assert any("l_2 length" in note for note in rep.notes)
    assert any("off-diagonal check failed" in note for note in rep.notes)
    # max off-diagonal is exactly 1/sqrt(4): the slack band must be reported
    assert rep.max_offdiag == rep.offdiag_threshold == 0.5
    assert any("within" in note and "threshold" in note for note in rep.notes)


def test_certify_single_point_trivial():
    single = PointSet(Space(1.0, (1, 1)), np.array([[0.5, 0.5]]))
    for thm in ("thm1", "thm2", "thm3", "thm4", "thm5"):
        rep = certify(single, thm)
        assert rep.passes and rep.m == 1


def test_certify_thm2():
    pts = PointSet(Space(2.0, (1,)), np.array([[0.0], [1.0]]))
    rep = certify(pts, "thm2", CertifyConfig(c=6.0))
    assert rep.passes
    # a two-distance input exercises the k >= 2 structural-only path
    tri = PointSet(Space(2.0, (1, 1)),
                   np.array([[0, 0], [1, 0], [0.5, 0.1]]))
    rep = certify(tri, "thm2", CertifyConfig(c=6.0))
    assert any("not gated" in n for n in rep.notes)
    assert rep.diag_ok


def test_certify_thm2_paper_constant_is_desk_scale_for_p2():
    pts = PointSet(Space(2.0, (1,)), np.array([[0.0], [1.0]]))
    rep = certify(pts, "thm2")
    assert rep.passes  # c = max(4 B(2), ...) gives a modest degree for p = 2


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


def test_certify_thm5():
    pair = PointSet(Space(2.0, (2, 1)), np.array([[0, 0, 0], [1, 0, 0.0]]))
    rep = certify(pair, "thm5")
    assert rep.passes
    simplex4 = PointSet(Space(2.0, (2, 1)), lp_simplex(3, 2.0).points)
    rep = certify(simplex4, "thm5")
    assert rep.passes and rep.numerical_rank == 4


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
