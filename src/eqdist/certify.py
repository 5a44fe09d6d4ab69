"""Rank certificates for point configurations.

Each pipeline builds the symmetric matrix associated with one of the five
upper-bound arguments (tags thm1..thm5), then checks, numerically:

  * unit diagonal,
  * off-diagonal magnitudes against the 1/sqrt(m) threshold,
  * the trace-squared rank lower bound against the numerical (SVD) rank,
  * the numerical rank against the span-dimension upper bound.

The pipelines never assume their conclusions: they measure and report, so
they can be run on non-equilateral inputs as an experimentation harness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .approx import (MAX_DEGREE, MAX_MONOMIAL_DEGREE, EvenPolynomial, _jackson_bound,
                     approximate_abs_power, choose_degree, jackson_constant)
from .bounds import _require_bits, large_p_gate
from .construct import distance_profile
from .errors import (InputError, NumericalError, ResourceLimitError, require_even_exponent,
                     require_exponent, require_int, require_positive, require_real)
from .space import (PointSet, _finite_array, _outer_norm, pair_block_norms, pair_block_sq_norms,
                    pair_map)

THEOREMS = ("thm1", "thm2", "thm3", "thm4", "thm5")
# On simplex products, in-process on a 2-vCPU Xeon, the thm4 family took 2.0 ms at (a, b, p) =
# (3, 3, 8), 4.3 ms at (3, 4, 8) and 6.3 ms at (3, 3, 10), and the thm3 family 2.3 ms at
# a + b = 12 and 3.1 ms at 13: the caps guard no measured cost.
BLOKHUIS_MAX_VARS = 6
BLOKHUIS_MAX_P = 8
# A largest off-diagonal magnitude this close to 1/sqrt(m) is noted in the report.
OFFDIAG_SLACK = 1e-12
# numerical_rank keeps the singular values above RANK_RTOL * sigma_max.  Over the benchmark's
# 587 certifications, kept ones are >= 1.3e-3 sigma_max and dropped ones <= 8.5e-17 sigma_max.
RANK_RTOL = 1e-9
# rank_lower_bound(A) <= rank(A) is exact, with equality at an identity certificate, where the
# float ratio rounds up by at most about 3 m log2(m^2) 2^-53: under 1e-11 at m = 1000, and far
# below the unit between two ranks.  bench/oracle.py checks the reports with the same slack.
RANK_LEMMA_SLACK = 1e-9
# Cap on k * m(m - 1)/2, the factors 1 - Y/a_u^p of a thm2 build on m points at k distances:
# all C(100, 2) distances of 100 points.  Random points of [0, 1]^3 at p = 3 and c = 4, with
# every distance distinct, took 0.18 s in certify at m = 100, 1.0 s at 140 and 6.4 s at 200
# (one in-process run each on a 2-vCPU Xeon); the cost grows as m^4.
THM2_MAX_FACTORS = 4950 ** 2


@dataclass(frozen=True)
class SymMatrix:
    """Dense real symmetric matrix; symmetry is exact by construction."""

    dim: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        if arr.shape != (self.dim, self.dim):
            raise InputError(f"entries must be {self.dim}x{self.dim}, got {arr.shape}")
        if not np.array_equal(arr, arr.T, equal_nan=True):  # NaN pairs are refused in certify
            raise InputError("entries are not exactly symmetric")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype, copy=copy)


def rank_lower_bound(A) -> float:
    """(sum of diagonal)^2 / (sum of squared entries); at most rank(A)."""
    arr = _finite_array("matrix entries", A)
    # the ratio does not depend on scale, and a power-of-two scale is exact: with the largest
    # |entry| in [1/2, 1), no square overflows, and one that underflows is far below the sum's ulp
    arr = np.ldexp(arr, -math.frexp(float(np.max(np.abs(arr), initial=0.0)))[1])
    denom, tr = float(np.sum(arr * arr)), float(np.trace(arr))
    if denom == 0.0:
        raise InputError("rank lower bound is undefined for the zero matrix")
    return tr ** 2 / denom


def numerical_rank(A) -> int:
    """Number of singular values above RANK_RTOL * sigma_max."""
    sv = np.linalg.svd(_finite_array("matrix entries", A), compute_uv=False)
    return int(np.sum(sv > RANK_RTOL * sv.max(initial=0.0)))


# ---------------------------------------------------------------------------
# matrix builders


def _require_lp(points: PointSet, what: str) -> None:
    if not points.space.is_lp:
        raise InputError(f"{what} requires a space with all blocks of dimension 1")


def _require_two_blocks(points: PointSet, what: str) -> None:
    if points.space.n_blocks != 2:
        raise InputError(f"{what} requires a two-block space")


def _power_sum_entry(T: np.ndarray, h: int) -> np.ndarray:
    """1 - sum_b T_b^h over the last axis of the squared block norms T: thm1's
    1 - ||Delta||_k^k on one-coordinate blocks at h = k/2, thm4's
    1 - ||Delta_1||^p - ||Delta_2||^p at h = p/2, by one power call at any h."""
    return 1.0 - (T ** float(h)).sum(axis=-1)


def _thm3_entry(T: np.ndarray) -> np.ndarray:
    """(1 - T_1)(1 - T_2) over the last axis of the squared block norms T."""
    return (1.0 - T[..., 0]) * (1.0 - T[..., 1])


def _pair_planes(points: PointSet, kernel, planes) -> tuple:
    """The certificate matrix and any further (m, m) planes that planes(Q) gives, from
    one pair_map pass; Q = kernel(space, U, V) holds a chunk's (rows, cols, n_blocks)
    block norms (pair_block_norms) or squared block norms (pair_block_sq_norms).
    The matrix is the first plane, with its diagonal set to exactly 1."""
    A, *rest = pair_map(points, lambda U, V: np.stack(planes(kernel(points.space, U, V))))
    np.fill_diagonal(A, 1.0)
    return SymMatrix(len(A), A), *rest


def matrix_thm1(points: PointSet, k: int) -> tuple[SymMatrix, np.ndarray]:
    """a_ij = 1 - ||p_i - p_j||_k^k for even k, with the diagonal exactly 1, and
    the l_k distance matrix, from one pass over the pairs."""
    k = require_even_exponent("k", k)
    _require_lp(points, "matrix_thm1")
    return _pair_planes(points, pair_block_norms,
                        lambda R: (_power_sum_entry(R * R, k // 2), _outer_norm(R, float(k))))


@dataclass(frozen=True)
class ApproxGapDiagnostics:
    """How well the polynomial surrogate tracked the true p-th powers."""

    max_gap: float           # max over pairs of |X_ij - Y_ij|
    gap_bound: float         # n * B(p) / d^p
    min_y: float             # smallest off-diagonal Y_ij (nan when m = 1)


def matrix_thm2(points: PointSet, dists, P: EvenPolynomial) -> tuple[SymMatrix, ApproxGapDiagnostics]:
    """a_ij = prod_u (1 - Y_ij / a_u^p), Y_ij = sum_t P(p_it - p_jt), at distances a_1 = 1 > a_2..."""
    _require_lp(points, "matrix_thm2")
    p = points.space.p
    if math.isinf(p):
        raise InputError("matrix_thm2 requires finite p")
    return _surrogate_matrix(points, P, [a ** p for a in _unit_distances(dists)])


def _unit_distances(dists) -> list[float]:
    """thm2's distances as floats, the largest set to exactly 1; refused unless it is
    within 1e-9 of 1 and they strictly decrease in (0, 1]."""
    dists = [require_real("a distance", a) for a in dists]
    if not dists or not abs(dists[0] - 1.0) <= 1e-9:
        raise InputError(f"largest distance must be 1, got {dists[:1]}")
    dists[0] = 1.0
    if any(not (0.0 < dists[i + 1] < dists[i]) for i in range(len(dists) - 1)):
        raise InputError(f"distances must be strictly decreasing in (0, 1]: {dists}")
    return dists


def matrix_thm5(points: PointSet, P: EvenPolynomial) -> tuple[SymMatrix, ApproxGapDiagnostics]:
    """m_ij = 1 - sum_k P(||block_k(p_i - p_j)||), thm2's entry at the one distance 1."""
    if math.isinf(points.space.p):
        raise InputError("matrix_thm5 requires finite p")
    return _surrogate_matrix(points, P, (1.0,))


def _surrogate_matrix(points: PointSet, P: EvenPolynomial,
                      ap) -> tuple[SymMatrix, ApproxGapDiagnostics]:
    """The unit-diagonal matrix of prod_u (1 - Y / a_u^p) over ap = (a_u^p), Y_ij = sum_k P(r_k)
    over the block norms r_k of p_i - p_j, and how far Y strays from X_ij = sum_k r_k^p."""
    space, m = points.space, points.m
    def planes(R):
        Y = P(R).sum(axis=-1)
        return math.prod(1.0 - Y / au for au in ap), (R ** space.p).sum(axis=-1), Y

    A, X, Y = _pair_planes(points, pair_block_norms, planes)
    off = ~np.eye(m, dtype=bool)
    gap = float(np.max(np.abs(X[off] - Y[off]), initial=0.0))
    min_y = float(np.min(Y[off])) if m > 1 else math.nan
    bound = space.n_blocks * _jackson_bound(space.p, P.degree)
    return A, ApproxGapDiagnostics(gap, bound, min_y)


def gram_thm3(points: PointSet) -> SymMatrix:
    """(u,v) entry: (1 - ||Delta_1||^2)(1 - ||Delta_2||^2); identity on a
    valid unit-equilateral set in a two-block sup-sum space."""
    _require_two_blocks(points, "gram_thm3")
    if not math.isinf(points.space.p):
        raise InputError("gram_thm3 requires p = inf")
    return _pair_planes(points, pair_block_sq_norms, lambda T: (_thm3_entry(T),))[0]


def gram_thm4(points: PointSet, p: int) -> SymMatrix:
    """(u,v) entry: 1 - ||Delta_1||^p - ||Delta_2||^p for even p."""
    p = require_even_exponent("p", p)
    _require_two_blocks(points, "gram_thm4")
    return _pair_planes(points, pair_block_sq_norms, lambda T: (_power_sum_entry(T, p // 2),))[0]


# ---------------------------------------------------------------------------
# span dimensions


def _thm4_block_monomials(a: int, p) -> int:
    """The monomials one a-dimensional block adds to the thm4 span, for even p."""
    half = require_even_exponent("p", p) // 2
    _require_bits("the thm4 span term C(a + p/2, a)", a + half + 1, min(a, half))
    return math.comb(a + half, a) + math.comb(a + half - 1, a)


def _thm5_span(blocks, d) -> int:
    """The thm5 span for blocks of the given dimensions at degree d."""
    blocks, d = [require_int("block", a, 1) for a in blocks], require_int("d", d, 1)
    for a in blocks:
        _require_bits("the thm5 span term C(a + d - 1, a)", a + d, min(a, d - 1))
    return 2 + sum(math.comb(a + d - 1, a) for a in blocks) - len(blocks)


def _thm2_span(n, d, k) -> int:
    """The thm2 span: (d*n)^k, for k distances at degree d in dimension n."""
    n, d, k = (require_int(name, value, 1) for name, value in (("n", n), ("d", d), ("k", k)))
    _require_bits("the thm2 span (d*n)^k", d * n, k)
    return (d * n) ** k


# Each row reads its counts: n, d, a, b and every block a whole number >= 1, and
# thm1's k and thm4's p even integers >= 2
_SPAN_DIMS = {
    "thm1": lambda n, k: (require_even_exponent("k", k) - 1) * require_int("n", n, 1) + 2,
    "thm2": _thm2_span,
    "thm3": lambda a, b: (require_int("a", a, 1) + 2) * (require_int("b", b, 1) + 2),
    "thm4": lambda a, b, p: (_thm4_block_monomials(require_int("a", a, 1), p)
                             + _thm4_block_monomials(require_int("b", b, 1), p) - 1),
    "thm5": _thm5_span,
}


def span_dim(theorem: str, **params) -> int:
    """Span-dimension upper bound on the rank of the theorem's matrix."""
    if theorem not in _SPAN_DIMS:
        raise InputError(f"unknown span_dim theorem tag: {theorem!r}")
    try:
        return _SPAN_DIMS[theorem](**params)
    except TypeError as e:  # a missing, unexpected or mistyped parameter
        raise InputError(f"span_dim({theorem!r}): {e}") from None


# ---------------------------------------------------------------------------
# linear-independence ranks
#
# Each family is evaluated at 3 * (number of rows) seeded standard-normal
# points.  By the Schwartz-Zippel lemma, values at generic points keep the
# rank of a family of polynomials with probability 1, so the numerical rank
# of the evaluation matrix is the rank of the family.


def _low_exponents(nvars: int, half: int) -> list[tuple[int, ...]]:
    """Exponents g of the augmenting monomials x^g, 0 < |g| < half."""
    return [g for g in itertools.product(range(half), repeat=nvars) if 0 < sum(g) < half]


def _family_rank(M: np.ndarray) -> tuple[int, int]:
    """Rank and size of the family evaluated as the rows of M."""
    if not np.isfinite(M).all():
        raise NumericalError("the evaluated family has non-finite values "
                             "(a value overflows double precision)")
    return numerical_rank(M), len(M)


def independence_rank_thm4(points: PointSet, p: int) -> tuple[int, int]:
    """Rank and size of {f_u} plus the augmenting monomials x1^g (0 < |g| < p/2),
    x2^g, and 1, evaluated at seeded generic points."""
    p = require_even_exponent("p", p)
    _require_two_blocks(points, "independence_rank_thm4")
    a, b = points.space.blocks
    if a + b > BLOKHUIS_MAX_VARS or p > BLOKHUIS_MAX_P:
        raise ResourceLimitError(
            f"expansion with a+b={a + b}, p={p} exceeds the tractability cap "
            f"(a+b <= {BLOKHUIS_MAX_VARS}, p <= {BLOKHUIS_MAX_P})")
    g1, g2 = _low_exponents(a, p // 2), _low_exponents(b, p // 2)
    X = np.random.default_rng(0).standard_normal((3 * (points.m + len(g1) + len(g2) + 1), a + b))
    M = np.array([*_power_sum_entry(pair_block_sq_norms(points.space, points.points, X), p // 2),
                  *(np.prod(X[:, :a] ** g, axis=1) for g in g1),
                  *(np.prod(X[:, a:] ** g, axis=1) for g in g2),
                  np.ones(len(X))])
    return _family_rank(M)


def independence_rank_thm3(points: PointSet) -> tuple[int, int]:
    """Rank and size of the family {f_u, 1, x_k, ||x1||^2}, evaluated at seeded generic points."""
    _require_two_blocks(points, "independence_rank_thm3")
    a, b = points.space.blocks
    if a + b > 2 * BLOKHUIS_MAX_VARS:
        raise ResourceLimitError(f"expansion with a+b={a + b} exceeds the cap")
    X = np.random.default_rng(0).standard_normal((3 * (points.m + a + b + 2), a + b))
    M = np.array([*_thm3_entry(pair_block_sq_norms(points.space, points.points, X)), *X.T,
                  np.sum(X[:, :a] ** 2, axis=1), np.ones(len(X))])
    return _family_rank(M)


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class CertifyConfig:
    c: float | None = None          # approximation constant override (thm2/thm5)
    c_absolute: float = 2.01        # constant for the large-p regime note

    def __post_init__(self):
        object.__setattr__(self, "c_absolute", require_positive("c_absolute", self.c_absolute))
        if self.c is not None:
            object.__setattr__(self, "c", require_positive("c", self.c))


@dataclass(frozen=True)
class CertificateReport:
    theorem: str
    m: int
    diag_ok: bool
    max_offdiag: float
    offdiag_threshold: float
    rank_lemma_lower: float
    numerical_rank: int
    span_upper: int
    passes: bool
    notes: tuple[str, ...]

    def to_jsonable(self) -> dict:
        return {**asdict(self), "notes": list(self.notes)}


def select_k(p: float) -> int:
    """The even matrix exponent for thm1: the closest even integer to p,
    rounding up when floor(p) is odd.  Every double >= 2^53 is an even integer,
    so there k = p; an entry costs one power call at any k."""
    fp = math.floor(require_exponent("p", p))
    return fp + 1 if fp % 2 == 1 else max(fp, 2)


def _paper_c(p: float, k: int = 0) -> float:
    """The paper's constant c: for thm2 on k distances, or for thm5 with k = 0."""
    try:
        b = jackson_constant(p)
        return b * k * 2.0 ** (p * k * k - p * k + 2 * k) if k else b
    except OverflowError:
        raise NumericalError(f"the paper's constant c overflows double precision at "
                             f"p={p:g}; pass a smaller c") from None


def _independence_note(rank_and_size, *args) -> str:
    """The note on the augmented family whose rank and size rank_and_size(*args) gives."""
    try:
        return "augmented family rank {} (independent iff {})".format(*rank_and_size(*args))
    except (ResourceLimitError, NumericalError) as e:
        return f"independence check skipped: {e}"


def _approximant(p: float, c: float, n: int, m: int, notes: list[str],
                 lead: str = "") -> EvenPolynomial:
    """The certified approximant of |x|^p at the degree chosen for c, n and m,
    noted with its error after lead."""
    d = choose_degree(p, c, n, m)
    if d < math.ceil(p):
        raise InputError(f"chosen degree {d} is below ceil(p)={math.ceil(p):.6g}; "
                         "pass a larger constant c")
    cap = MAX_DEGREE if p % 2 == 0 else MAX_MONOMIAL_DEGREE  # approximate_abs_power's own cap
    if d > cap:
        raise ResourceLimitError(
            f"chosen degree {d:.6g} exceeds the cap {cap}; "
            "pass a smaller constant c to certify at desk scale")
    P, cert = approximate_abs_power(p, d)
    notes.append(f"{lead}c={c:.6g}, degree d={d}, approx error "
                 f"{cert.measured_error:.3e} <= {cert.jackson_bound:.3e}")
    return P


def certify(points: PointSet, theorem: str, config: CertifyConfig | None = None) -> CertificateReport:
    """Run the full certificate pipeline for one theorem tag."""
    cfg = config or CertifyConfig()
    if theorem not in THEOREMS:
        raise InputError(f"unknown theorem tag: {theorem!r}")
    m = points.m
    notes: list[str] = []
    space, p = points.space, points.space.p
    if theorem in ("thm2", "thm5") and math.isinf(p):
        raise InputError(f"{theorem} requires finite p")

    # overflow, inf - inf or a division by an underflowed 0.0 in a build leaves
    # non-finite entries, refused below
    with np.errstate(all="ignore"):
        if theorem == "thm1":
            k = select_k(p)
            A, dk = matrix_thm1(points, k)
            n = space.ambient_dim
            span = span_dim("thm1", n=n, k=k)
            off = dk[np.triu_indices(m, 1)]
            lo, hi = sorted((1.0, n ** (1.0 / k - 1.0 / p)))
            measured = f"[{off.min():.6g}, {off.max():.6g}]" if off.size else "no pairs"
            notes.append(f"p={p:g}, k={k}: unit l_{p:g} distances must have l_{k} length in "
                         f"[{lo:.6g}, {hi:.6g}]; measured {measured}")
            gate = large_p_gate(cfg.c_absolute, space.n_blocks)
            if gate is not None:
                notes.append(f"large-p regime p >= c*(n*ln n)^2 = {gate:.6g} "
                             f"{'holds' if p >= gate else 'does not hold'} at c={cfg.c_absolute}")
        elif theorem == "thm2":
            # matrix_thm2's refusals, each as soon as its input exists (the blocks
            # before the profile, the largest distance right after it), as the
            # approximant's refusal of its degree would hide them
            _require_lp(points, "matrix_thm2")
            if m == 1:  # no pair, so no largest distance to scale to 1
                raise InputError("distance profile needs at least 2 points")
            dists = _unit_distances(distance_profile(points))
            k = len(dists)
            factors = k * m * (m - 1) // 2
            if factors > THM2_MAX_FACTORS:
                raise ResourceLimitError(f"thm2: {k} distances over {m} points take {factors} "
                                         f"factors, above the cap of {THM2_MAX_FACTORS}")
            c = cfg.c if cfg.c is not None else _paper_c(p, k)
            P = _approximant(p, c, space.ambient_dim, m, notes, f"k={k} distances, ")
            A, gaps = matrix_thm2(points, dists, P)
            span = span_dim("thm2", n=space.ambient_dim, d=P.degree, k=k)
            notes.append(f"max |X-Y| = {gaps.max_gap:.3e} vs n*B(p)/d^p = {gaps.gap_bound:.3e} "
                         f"({'ok' if gaps.max_gap <= gaps.gap_bound else 'exceeded'})")
            if not gaps.min_y > 0.0:
                notes.append(f"surrogate Y_ij not everywhere positive (min {gaps.min_y:.3e})")
        elif theorem == "thm3":
            A = gram_thm3(points)
            a, b = space.blocks
            span = span_dim("thm3", a=a, b=b)
            notes.append(_independence_note(independence_rank_thm3, points))
        elif theorem == "thm4":
            A = gram_thm4(points, p)
            a, b = space.blocks
            span = span_dim("thm4", a=a, b=b, p=p)
            notes.append(_independence_note(independence_rank_thm4, points, p))
        else:  # thm5
            c = cfg.c if cfg.c is not None else _paper_c(p)
            P = _approximant(p, c, space.n_blocks, m, notes)
            A, gaps = matrix_thm5(points, P)
            span = span_dim("thm5", blocks=space.blocks, d=P.degree)
            notes.append(f"max per-pair gap = {gaps.max_gap:.3e} vs n*B(p)/d^p = "
                         f"{gaps.gap_bound:.3e} "
                         f"({'ok' if gaps.max_gap <= gaps.gap_bound else 'exceeded'})")

    arr = A.entries
    if not np.isfinite(arr).all():
        raise NumericalError(f"{theorem}: the certificate matrix has non-finite entries "
                             "(a value in its build overflows or underflows double precision)")
    diag_ok = bool(np.all(np.diag(arr) == 1.0))
    max_off = float(np.max(np.abs(arr[~np.eye(m, dtype=bool)]), initial=0.0))
    threshold = 1.0 / math.sqrt(m)
    if abs(max_off - threshold) <= OFFDIAG_SLACK:
        notes.append(f"max off-diagonal {max_off:.17g} is within {OFFDIAG_SLACK:g} "
                     f"of the threshold {threshold:.17g}")
    offdiag_ok = max_off < threshold
    rll, nr = rank_lower_bound(A), numerical_rank(A)
    passes = diag_ok and offdiag_ok and rll <= nr + RANK_LEMMA_SLACK and nr <= span
    if not offdiag_ok:
        notes.append(f"off-diagonal check failed: {max_off:.6g} >= 1/sqrt(m) = {threshold:.6g}")
    return CertificateReport(theorem, m, diag_ok, max_off, threshold,
                             rll, nr, span, passes, tuple(notes))
