"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with its runtime (run with `pytest tests/test_acceptance.py -v -s`)."""

import contextlib
import math
import time

import numpy as np

from eqdist import construct
from eqdist.approx import (EvenPolynomial, approximate_abs_power, choose_degree,
                           jackson_constant)
from eqdist.bounds import enumerate_bounds
from eqdist.certify import (SymMatrix, gram_thm3, gram_thm4, matrix_thm1,
                            matrix_thm2, matrix_thm5, numerical_rank,
                            rank_lower_bound, span_dim)
from eqdist.construct import (SearchConfig, cross_polytope, distance_profile,
                              euclidean_simplex, lp_simplex,
                              product_construction, search_equilateral,
                              simplex_lambda)
from eqdist.space import PointSet, Space, norm_sandwich_check
from monomial_counts import monomial_count_enumerated, monomial_count_telescoped


@contextlib.contextmanager
def criterion(num, name, limit_s):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} ({name}): FAIL [{time.time() - t0:.2f}s]")
        raise
    elapsed = time.time() - t0
    status = "PASS" if elapsed < limit_s else "FAIL (over time limit)"
    print(f"ACCEPTANCE {num} ({name}): {status} [{elapsed:.2f}s / limit {limit_s}s]")
    assert elapsed < limit_s


def _catalog_value(space, source):
    hits = [r for r in enumerate_bounds(space, 1)
            if r.source == source and r.side == "upper"]
    assert len(hits) == 1
    return hits[0].value


def test_criterion_1_bound_catalog():
    with criterion(1, "bound catalog reproduction", 1.0):
        for a, b in [(2, 3), (3, 3), (4, 5)]:
            assert _catalog_value(Space(math.inf, (a, b)), "thm1.4") == (a + 1) * (b + 1) + 1
        assert _catalog_value(Space(4.0, (1,) * 5), "swanepoel-even-p") == (4 // 2 - 1) * 5 + 1
        assert _catalog_value(Space(6.0, (1,) * 10), "swanepoel-even-p") == (6 // 2) * 10 + 1
        assert _catalog_value(Space(4.0, (2, 2)), "thm1.5") == 12


def test_criterion_2_jackson_bound():
    with criterion(2, "certified polynomial approximation", 30.0):
        for p in [1, 1.3, 1.5, 2.5, 3, 4.7]:
            for d in range(math.ceil(p), 41):
                _, cert = approximate_abs_power(p, d)
                assert cert.measured_error <= jackson_constant(p) / d ** p
        for p in (2, 4, 6):
            for d in (p, p + 1, p + 4, 40):
                _, cert = approximate_abs_power(p, d)
                assert cert.measured_error == 0.0


def test_criterion_3_rank_lemma_soundness():
    with criterion(3, "rank lemma soundness", 10.0):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            m = int(rng.integers(1, 31))
            A = rng.normal(size=(m, m))
            A = SymMatrix(m, np.triu(A) + np.triu(A, 1).T)
            assert rank_lower_bound(A) <= numerical_rank(A) + 1e-9
        m = np.arange(1, 1_000_001, dtype=np.int64)
        # 2*m^2 >= m*(2m-1), i.e. m^2/(2m-1) >= m/2, in exact integer arithmetic
        assert np.all(2 * m * m >= m * (2 * m - 1))


def test_criterion_4_span_soundness():
    with criterion(4, "span-dimension soundness", 60.0):
        rng = np.random.default_rng(4096)
        for k in (2, 4, 6):
            for n in (1, 2, 3, 4, 5, 6):
                span = span_dim("thm1", n=n, k=k)
                sp = Space(2.0, (1,) * n)
                for _ in range(200):
                    pts = PointSet(sp, rng.uniform(-0.5, 0.5, (span + 3, n)))
                    assert numerical_rank(matrix_thm1(pts, k)[0]) <= span
        for blocks, d in [((8,), 2), ((4, 4), 3), ((2, 3, 3), 4),
                          ((2, 2, 2, 2), 5), ((1,) * 8, 6), ((3, 5), 4)]:
            span = span_dim("thm5", blocks=blocks, d=d)
            sp = Space(2.5, blocks)
            for _ in range(200):
                pts = PointSet(sp, rng.uniform(-0.5, 0.5, (span + 3, sum(blocks))))
                P = EvenPolynomial(d, tuple(rng.uniform(-1, 1, d // 2)))
                A, _ = matrix_thm5(pts, P)
                assert numerical_rank(A) <= span
        # the (dn)^k form of the span bound presumes n >= 2 (where
        # (d-1)n+2 <= dn); for n = 1 the raw span ((d-1)n+2)^k applies
        for n in (1, 2, 3):
            for k in (1, 2):
                for d in (2, 3):
                    span = (d * n) ** k if n >= 2 else ((d - 1) * n + 2) ** k
                    dists = [1.0, 0.5][:k]
                    sp = Space(2.0, (1,) * n)
                    for _ in range(200):
                        m = span + 3
                        pts = PointSet(sp, rng.uniform(-0.5, 0.5, (m, n)))
                        P = EvenPolynomial(d, tuple(rng.uniform(-1, 1, d // 2)))
                        A, _ = matrix_thm2(pts, dists, P)
                        assert numerical_rank(A) <= span


def test_criterion_5_gram_identities():
    with criterion(5, "gram identities", 5.0):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                prod = product_construction(euclidean_simplex(a), euclidean_simplex(b))
                G = gram_thm3(prod)
                assert np.max(np.abs(G.entries - np.eye(prod.m))) <= 1e-10
        for p in (2, 4, 6):
            for blocks in ((1, 1), (2, 1), (3, 2)):
                dim = sum(blocks)
                pts = np.zeros((2, dim))
                pts[1, 0] = 1.0  # unit step inside the first block
                ps = PointSet(Space(float(p), blocks), pts)
                G = gram_thm4(ps, p)
                assert np.max(np.abs(G.entries - np.eye(2))) <= 1e-10


def test_criterion_6_monomial_count_identity():
    with criterion(6, "monomial-count identity", 5.0):
        for a in range(1, 6):
            for p in (2, 4, 6, 8):
                half = p // 2
                closed = math.comb(a + half, a) + math.comb(a + half - 1, a)
                assert monomial_count_telescoped(a, p) == closed
                assert monomial_count_enumerated(a, p) == closed


def test_criterion_7_constructions():
    with criterion(7, "explicit constructions", 10.0):
        for n in range(1, 21):
            prof = distance_profile(cross_polytope(n), 1e-7)
            assert len(prof) == 1 and abs(prof[0] - 1.0) <= 1e-10
        for p in (1.2, 1.5, 2, 3, 7.5):
            for n in (2, 5, 12, 30):
                prof = distance_profile(lp_simplex(n, p), 1e-7)
                assert len(prof) == 1 and abs(prof[0] - 1.0) <= 1e-10
        for a in range(1, 5):
            for b in range(1, 5):
                prod = product_construction(euclidean_simplex(a), euclidean_simplex(b))
                prof = distance_profile(prod, 1e-7)
                assert len(prof) == 1 and abs(prof[0] - 1.0) <= 1e-10
        assert abs(simplex_lambda(2, 2) - (1 + math.sqrt(3)) / 2) <= 1e-12
        assert abs(simplex_lambda(3, 2) - 1.0) <= 1e-12
        assert abs(simplex_lambda(4, 2) - (1 + math.sqrt(5)) / 4) <= 1e-12


def test_criterion_8_witness_search(monkeypatch):
    monkeypatch.setattr(construct, "MAX_ITERS", 4000)
    with criterion(8, "witness search", 120.0):
        cfg = SearchConfig(restarts=32, seed=2468, residual_target=1e-8)
        for n, p in [(2, 3.0), (3, 1.5)]:
            res = search_equilateral(Space(p, (1,) * n), n + 1, cfg)
            assert res.converged and res.residual < 1e-8, (n, p, res.residual)
        for n in (2, 3):
            res = search_equilateral(Space(1.0, (1,) * n), 2 * n, cfg)
            assert res.converged and res.residual < 1e-8, (n, res.residual)
        res = search_equilateral(Space(2.0, (1, 1)), 4,
                                 SearchConfig(restarts=32, seed=2468))
        assert not res.converged and res.residual > 1e-3


def test_criterion_9_sandwich():
    with criterion(9, "norm sandwich", 5.0):
        rng = np.random.default_rng(99)
        for _ in range(100_000):
            n = int(rng.integers(1, 65))
            x = rng.normal(size=n) * 10 ** rng.uniform(-2, 2)
            p = rng.uniform(1, 10)
            q = math.inf if rng.random() < 0.25 else rng.uniform(p, 10)
            ok, _ = norm_sandwich_check(x, p, q)
            assert ok


def test_criterion_10_degree_selection():
    with criterion(10, "degree selection window", 2.0):
        rng = np.random.default_rng(1010)
        for _ in range(10_000):
            p = rng.uniform(1, 10)
            c = (2 ** (1 / p) - 1) ** (-p) + 1e-6
            n = int(rng.integers(1, 100))
            m = int(rng.integers(1, 100_000))
            d = choose_degree(p, c, n, m)
            t = c * n * math.sqrt(m)
            assert t < d ** p < 2 * t
