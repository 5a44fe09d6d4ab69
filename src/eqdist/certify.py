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
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .approx import (MAX_DEGREE, EvenPolynomial, abs_power, approximate_abs_power,
                     choose_degree, int_power, jackson_constant)
from .construct import distance_profile
from .errors import InputError, NumericalError, ResourceLimitError
from .space import (PointSet, Space, _outer_norm, pair_block_norms, pair_block_sq_norms,
                    pair_map)

THEOREMS = ("thm1", "thm2", "thm3", "thm4", "thm5")
BLOKHUIS_MAX_VARS = 6
BLOKHUIS_MAX_P = 8
# A largest off-diagonal magnitude this close to 1/sqrt(m) is noted in the report.
OFFDIAG_SLACK = 1e-12
_SQRT_MAX = math.sqrt(np.finfo(float).max)  # the largest float whose square is finite


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

    @staticmethod
    def from_upper(upper: np.ndarray) -> "SymMatrix":
        """Build from an array, keeping the upper triangle and mirroring."""
        arr = np.asarray(upper, dtype=float)
        full = np.triu(arr) + np.triu(arr, 1).T
        return SymMatrix(arr.shape[0], full)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype)


def _as_matrix(A) -> np.ndarray:
    return A.entries if isinstance(A, SymMatrix) else np.asarray(A, dtype=float)


def rank_lower_bound(A) -> float:
    """(sum of diagonal)^2 / (sum of squared entries); at most rank(A)."""
    arr = _as_matrix(A)
    with np.errstate(over="ignore"):
        denom, tr = float(np.sum(arr * arr)), float(np.trace(arr))
        if math.isinf(denom) or abs(tr) > _SQRT_MAX:
            # the ratio does not depend on scale, and scaling by a power of two is exact
            arr = np.ldexp(arr, -math.frexp(float(np.max(np.abs(arr))))[1])
            denom, tr = float(np.sum(arr * arr)), float(np.trace(arr))
    if denom == 0.0:
        raise InputError("rank lower bound is undefined for the zero matrix")
    return tr ** 2 / denom


def epsilon_rank_bound(m: int, eps: float) -> float:
    """m / (1 + (m-1) eps^2): the rank bound for a unit-diagonal matrix with
    off-diagonal magnitudes eps."""
    if m < 1:
        raise InputError(f"m must be >= 1, got {m}")
    if eps < 0:
        raise InputError(f"eps must be >= 0, got {eps}")
    return m / (1.0 + (m - 1) * eps * eps)


def numerical_rank(A, tol: float = 1e-9) -> int:
    """Number of singular values above tol * sigma_max."""
    if tol <= 0:
        raise InputError(f"tol must be positive, got {tol}")
    arr = _as_matrix(A)
    if arr.size == 0:
        return 0
    sv = np.linalg.svd(arr, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > tol * sv[0]))


def elementary_symmetric(vals) -> list[float]:
    """[sigma_0, ..., sigma_k] by the stable one-pass recurrence."""
    vals = [float(v) for v in vals]
    e = [1.0] + [0.0] * len(vals)
    for i, v in enumerate(vals):
        for ell in range(i + 1, 0, -1):
            e[ell] += v * e[ell - 1]
    return e


# ---------------------------------------------------------------------------
# matrix builders


def _require_lp(points: PointSet, what: str) -> None:
    if not points.space.is_lp:
        raise InputError(f"{what} requires a space with all blocks of dimension 1")


def _unit_diagonal(A: np.ndarray) -> SymMatrix:
    """The symmetric pair array A with its diagonal set to exactly 1."""
    np.fill_diagonal(A, 1.0)
    return SymMatrix(len(A), A)


def _require_even_exponent(name: str, k: int) -> None:
    """Refuse k unless it is even, at least 2 and at most approx.MAX_DEGREE (a k-th
    power costs k/2 array products)."""
    if k % 2 != 0 or k < 2:
        raise InputError(f"{name} must be a positive even integer, got {k}")
    if k > MAX_DEGREE:
        raise ResourceLimitError(f"{name}={k:.6g} exceeds the cap of {MAX_DEGREE}")


def matrix_thm1(points: PointSet, k: int) -> SymMatrix:
    """a_ij = 1 - ||p_i - p_j||_k^k for even k; the diagonal is exactly 1."""
    return _thm1_planes(points, k)[0]


def _thm1_planes(points: PointSet, k: int) -> tuple[SymMatrix, np.ndarray]:
    """matrix_thm1 and the l_k distance matrix, from one pass over the pairs."""
    _require_even_exponent("k", k)
    _require_lp(points, "matrix_thm1")
    def planes(U, V):
        R = pair_block_norms(points.space, U, V)
        return np.stack([1.0 - abs_power(R, float(k)).sum(axis=2), _outer_norm(R, float(k))],
                        axis=-1)

    A, dk = np.moveaxis(pair_map(points, planes), -1, 0)
    return _unit_diagonal(A), dk


@dataclass(frozen=True)
class ApproxGapDiagnostics:
    """How well the polynomial surrogate tracked the true p-th powers."""

    max_gap: float           # max over pairs of |X_ij - Y_ij|
    gap_bound: float         # n * B(p) / d^p
    gap_within_bound: bool
    min_y: float             # smallest off-diagonal Y_ij (thm2 only; else nan)
    y_positive: bool


def matrix_thm2(points: PointSet, dists, P: EvenPolynomial) -> tuple[SymMatrix, ApproxGapDiagnostics]:
    """a_ij = (1/pi) prod_u (a_u^p - sum_t P(x_t - p_it)) at x = p_j."""
    _require_lp(points, "matrix_thm2")
    p = points.space.p
    if math.isinf(p):
        raise InputError("matrix_thm2 requires finite p")
    dists = [float(a) for a in dists]
    if not dists or abs(dists[0] - 1.0) > 1e-9:
        raise InputError(f"largest distance must be 1, got {dists[:1]}")
    dists[0] = 1.0
    if any(not (0.0 < dists[i + 1] < dists[i]) for i in range(len(dists) - 1)):
        raise InputError(f"distances must be strictly decreasing in (0, 1]: {dists}")
    ap = [a ** p for a in dists]
    pi = math.prod(ap)
    return _surrogate_matrix(points, P, lambda Y: math.prod(au - Y for au in ap) / pi)


def matrix_thm5(points: PointSet, P: EvenPolynomial) -> tuple[SymMatrix, ApproxGapDiagnostics]:
    """m_ij = 1 - sum_k P(||block_k(p_i - p_j)||); the diagonal is exactly 1."""
    if math.isinf(points.space.p):
        raise InputError("matrix_thm5 requires finite p")
    A, diag = _surrogate_matrix(points, P, lambda Y: 1.0 - Y)
    return A, replace(diag, min_y=math.nan, y_positive=True)


def _surrogate_matrix(points: PointSet, P: EvenPolynomial,
                      entry) -> tuple[SymMatrix, ApproxGapDiagnostics]:
    """The unit-diagonal matrix of entry(Y), Y_ij = sum_k P(r_k) over the block norms
    r_k of p_i - p_j, and how far Y strays from X_ij = sum_k r_k^p off the diagonal."""
    space, m = points.space, points.m
    def sums(U, V):
        R = pair_block_norms(space, U, V)
        Y = P(R).sum(axis=2)
        return np.stack([entry(Y), abs_power(R, space.p).sum(axis=2), Y], axis=-1)

    A, X, Y = np.moveaxis(pair_map(points, sums), -1, 0)
    off = ~np.eye(m, dtype=bool)
    gap = float(np.max(np.abs(X[off] - Y[off]))) if m > 1 else 0.0
    min_y = float(np.min(Y[off])) if m > 1 else math.nan
    bound = space.n_blocks * jackson_constant(space.p) / P.degree ** space.p
    diag = ApproxGapDiagnostics(gap, bound, gap <= bound, min_y,
                                bool(m == 1 or min_y > 0.0))
    return _unit_diagonal(A), diag


def _require_two_blocks(points: PointSet, what: str) -> None:
    if points.space.n_blocks != 2:
        raise InputError(f"{what} requires a two-block space")


def gram_thm3(points: PointSet) -> SymMatrix:
    """(u,v) entry: (1 - ||Delta_1||^2)(1 - ||Delta_2||^2); identity on a
    valid unit-equilateral set in a two-block sup-sum space."""
    _require_two_blocks(points, "gram_thm3")
    if not math.isinf(points.space.p):
        raise InputError("gram_thm3 requires p = inf")
    return _unit_diagonal(pair_map(points, lambda U, X: _f_thm3(points.space, U, X)))


def _f_thm3(space: Space, U: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(len U, len X) values f_u(x) = (1 - ||x1 - u1||^2)(1 - ||x2 - u2||^2)."""
    S = pair_block_sq_norms(space, U, X)
    return (1.0 - S[:, :, 0]) * (1.0 - S[:, :, 1])


def gram_thm4(points: PointSet, p: int) -> SymMatrix:
    """(u,v) entry: 1 - ||Delta_1||^p - ||Delta_2||^p for even p."""
    _require_even_exponent("p", p)
    _require_two_blocks(points, "gram_thm4")
    return _unit_diagonal(pair_map(points, lambda U, X: _f_thm4(points.space, U, X, p)))


def _f_thm4(space: Space, U: np.ndarray, X: np.ndarray, p: int) -> np.ndarray:
    """(len U, len X) values f_u(x) = 1 - ||x1 - u1||^p - ||x2 - u2||^p, p even."""
    S = pair_block_sq_norms(space, U, X)
    half = p // 2
    return 1.0 - int_power(S[:, :, 0], half) - int_power(S[:, :, 1], half)


# ---------------------------------------------------------------------------
# span dimensions


def span_dim(theorem: str, **params) -> int:
    """Span-dimension upper bound on the rank of the theorem's matrix."""
    try:
        if theorem == "thm1":
            n, k = params["n"], params["k"]
            return (k - 1) * n + 2
        if theorem == "thm2":
            n, d, k = params["n"], params["d"], params["k"]
            return (d * n) ** k
        if theorem == "thm3":
            a, b = params["a"], params["b"]
            return (a + 2) * (b + 2)
        if theorem == "thm4":
            a, b, p = params["a"], params["b"], params["p"]
            return (span_dim("thm4-monomials", a=a, p=p)
                    + span_dim("thm4-monomials", a=b, p=p) - 1)
        if theorem == "thm4-monomials":
            a, p = params["a"], params["p"]
            if p % 2 != 0:
                raise InputError(f"p must be even, got {p}")
            half = p // 2
            return math.comb(a + half, a) + math.comb(a + half - 1, a)
        if theorem == "thm5":
            blocks, d = params["blocks"], params["d"]
            return 2 + sum(math.comb(a + d - 1, a) for a in blocks) - len(blocks)
    except KeyError as e:
        raise InputError(f"missing parameter {e} for span_dim({theorem!r})") from e
    raise InputError(f"unknown span_dim theorem tag: {theorem!r}")


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


def blokhuis_family_size(m: int, a: int, b: int, p: int) -> int:
    """Expected rank when the augmented family is linearly independent."""
    half = p // 2
    return m + len(_low_exponents(a, half)) + len(_low_exponents(b, half)) + 1


def independence_rank_thm4(points: PointSet, p: int, tol: float = 1e-9) -> int:
    """Rank of {f_u} plus the augmenting monomials x1^g (0 < |g| < p/2),
    x2^g, and 1, evaluated at seeded generic points."""
    _require_even_exponent("p", p)
    _require_two_blocks(points, "independence_rank_thm4")
    a, b = points.space.blocks
    if a + b > BLOKHUIS_MAX_VARS or p > BLOKHUIS_MAX_P:
        raise ResourceLimitError(
            f"expansion with a+b={a + b}, p={p} exceeds the tractability cap "
            f"(a+b <= {BLOKHUIS_MAX_VARS}, p <= {BLOKHUIS_MAX_P})")
    rows = blokhuis_family_size(points.m, a, b, p)
    X = np.random.default_rng(0).standard_normal((3 * rows, a + b))
    x1, x2 = X[:, :a], X[:, a:]
    M = np.array([*_f_thm4(points.space, points.points, X, p),
                  *(np.prod(x1 ** g, axis=1) for g in _low_exponents(a, p // 2)),
                  *(np.prod(x2 ** g, axis=1) for g in _low_exponents(b, p // 2)),
                  np.ones(len(X))])
    return numerical_rank(M, tol)


def independence_rank_thm3(points: PointSet, tol: float = 1e-9) -> int:
    """Rank of {f_u, 1, x_k, ||x1||^2} for the sup-sum pipeline, evaluated at
    seeded generic points (expected m + dim + 2 when independent)."""
    _require_two_blocks(points, "independence_rank_thm3")
    a, b = points.space.blocks
    if a + b > 2 * BLOKHUIS_MAX_VARS:
        raise ResourceLimitError(f"expansion with a+b={a + b} exceeds the cap")
    rows = points.m + a + b + 2
    X = np.random.default_rng(0).standard_normal((3 * rows, a + b))
    M = np.array([*_f_thm3(points.space, points.points, X), *X.T,
                  np.sum(X[:, :a] ** 2, axis=1), np.ones(len(X))])
    return numerical_rank(M, tol)


# ---------------------------------------------------------------------------
# orchestration


@dataclass
class CertifyConfig:
    c: float | None = None          # approximation constant override (thm2/thm5)
    k: int | None = None            # even-k override (thm1)
    p_override: float | None = None  # exponent override (thm1 selection, thm4)
    c_absolute: float = 2.01        # constant for the large-p regime note


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
    rounding up when floor(p) is odd."""
    if not math.isfinite(p) or p < 1:
        raise InputError(f"need finite p >= 1, got {p}")
    fp = math.floor(p)
    return fp + 1 if fp % 2 == 1 else max(fp, 2)


def _paper_c(p: float, k: int = 0) -> float:
    """The paper's constant c: for thm2 on k distances, or for thm5 with k = 0."""
    try:
        b = jackson_constant(p)
        return max(b * k * 2.0 ** (p * k * k - p * k + 2 * k) if k else b,
                   (2.0 ** (1.0 / p) - 1.0) ** (-p))
    except OverflowError:
        raise NumericalError(f"the paper's constant c overflows double precision at "
                             f"p={p:g}; pass a smaller c") from None


def _independence_note(ranks) -> str:
    """The note on an augmented family: ranks() gives its rank and the rank if independent."""
    try:
        return "augmented family rank {} (independent iff {})".format(*ranks())
    except ResourceLimitError as e:
        return f"independence check skipped: {e}"


def _approximant(p: float, c: float, n: int, m: int, notes: list[str],
                 lead: str = "") -> EvenPolynomial:
    """The certified approximant of |x|^p at the degree chosen for c, n and m,
    noted with its error after lead."""
    d = choose_degree(p, c, n, m)
    if d > MAX_DEGREE:
        raise ResourceLimitError(
            f"chosen degree {d:.6g} exceeds the cap {MAX_DEGREE}; "
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

    if m == 1:
        return CertificateReport(theorem, 1, True, 0.0, 1.0, 1.0, 1, 1, True,
                                 ("single point: 1x1 identity certificate is trivial",))

    space = points.space
    threshold_in_passes = True
    if theorem in ("thm2", "thm5") and math.isinf(space.p):
        raise InputError(f"{theorem} requires finite p")

    # overflow or inf - inf in a build leaves non-finite entries, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        if theorem == "thm1":
            p = cfg.p_override if cfg.p_override is not None else space.p
            k = cfg.k if cfg.k is not None else select_k(p)
            A, dk = _thm1_planes(points, k)
            n = space.ambient_dim
            span = span_dim("thm1", n=n, k=k)
            off = dk[np.triu_indices(m, 1)]
            lo, hi = sorted((1.0, n ** (1.0 / k - 1.0 / p)))
            notes.append(f"p={p:g}, k={k}: unit l_{p:g} distances must have l_{k} length in "
                         f"[{lo:.6g}, {hi:.6g}]; measured [{off.min():.6g}, {off.max():.6g}]")
            if space.n_blocks > 1:
                gate = cfg.c_absolute * (space.n_blocks * math.log(space.n_blocks)) ** 2
                notes.append(f"large-p regime p >= c*(n*ln n)^2 = {gate:.6g} "
                             f"{'holds' if p >= gate else 'does not hold'} at c={cfg.c_absolute}")
        elif theorem == "thm2":
            dists = distance_profile(points)
            k = len(dists)
            c = cfg.c if cfg.c is not None else _paper_c(space.p, k)
            P = _approximant(space.p, c, space.ambient_dim, m, notes, f"k={k} distances, ")
            A, gaps = matrix_thm2(points, dists, P)
            span = span_dim("thm2", n=space.ambient_dim, d=P.degree, k=k)
            notes.append(f"max |X-Y| = {gaps.max_gap:.3e} vs n*B(p)/d^p = {gaps.gap_bound:.3e} "
                         f"({'ok' if gaps.gap_within_bound else 'exceeded'})")
            if not gaps.y_positive:
                notes.append(f"surrogate Y_ij not everywhere positive (min {gaps.min_y:.3e})")
            if k >= 2:
                threshold_in_passes = False
                notes.append("k >= 2: off-diagonal threshold reported but not gated "
                             "(finite-scale regime)")
        elif theorem == "thm3":
            A = gram_thm3(points)
            a, b = space.blocks
            span = span_dim("thm3", a=a, b=b)
            notes.append(_independence_note(lambda: (independence_rank_thm3(points),
                                                     m + a + b + 2)))
        elif theorem == "thm4":
            p = cfg.p_override if cfg.p_override is not None else space.p
            if not (math.isfinite(p) and p == int(p) and int(p) % 2 == 0):
                raise InputError(f"thm4 requires an even integer p, got {p}")
            p = int(p)
            A = gram_thm4(points, p)
            a, b = space.blocks
            span = span_dim("thm4", a=a, b=b, p=p)
            notes.append(_independence_note(lambda: (independence_rank_thm4(points, p),
                                                     blokhuis_family_size(m, a, b, p))))
        else:  # thm5
            p = space.p
            c = cfg.c if cfg.c is not None else _paper_c(p)
            P = _approximant(p, c, space.n_blocks, m, notes)
            A, gaps = matrix_thm5(points, P)
            span = span_dim("thm5", blocks=space.blocks, d=P.degree)
            notes.append(f"max per-pair gap = {gaps.max_gap:.3e} vs n*B(p)/d^p = "
                         f"{gaps.gap_bound:.3e} ({'ok' if gaps.gap_within_bound else 'exceeded'})")

    arr = A.entries
    if not np.isfinite(arr).all():
        raise NumericalError(f"{theorem}: the certificate matrix has non-finite entries "
                             "(the points overflow double precision)")
    diag_ok = bool(np.max(np.abs(np.diag(arr) - 1.0)) <= 1e-10)
    offmask = ~np.eye(m, dtype=bool)
    max_off = float(np.max(np.abs(arr[offmask])))
    threshold = 1.0 / math.sqrt(m)
    if abs(max_off - threshold) <= OFFDIAG_SLACK:
        notes.append(f"max off-diagonal {max_off:.17g} is within {OFFDIAG_SLACK:g} "
                     f"of the threshold {threshold:.17g}")
    offdiag_ok = max_off < threshold
    rll = rank_lower_bound(A)
    nr = numerical_rank(A)
    chain_ok = rll <= nr + 1e-9 and nr <= span
    passes = diag_ok and chain_ok and (offdiag_ok or not threshold_in_passes)
    if not offdiag_ok:
        notes.append(f"off-diagonal check failed: {max_off:.6g} >= 1/sqrt(m) = {threshold:.6g}")
    return CertificateReport(theorem, m, diag_ok, max_off, threshold,
                             rll, nr, span, passes, tuple(notes))
