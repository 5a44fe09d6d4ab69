"""Catalog of upper and lower bounds on equilateral and s-distance set sizes.

Every bound known for lp^n spaces and lp sums of Euclidean blocks is encoded
with its applicability conditions; ``enumerate_bounds`` returns the ones that
hold for a given (space, s).  Asymptotic bounds carry symbolic constants and
only gain a numeric value when the configuration supplies one; they stay
kind="asymptotic" regardless.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

from .errors import InputError, UnsupportedRequestError
from .space import Space

UNSPECIFIED = "unspecified"


@dataclass(frozen=True)
class Formula:
    """A symbolic bound value: constant * growth(n), optionally evaluated."""

    expression: str
    constants: dict[str, object]      # name -> float or "unspecified"
    numeric: float | None = None      # evaluated value when constants allow

    def to_jsonable(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class BoundReport:
    side: str                          # "upper" | "lower"
    kind: str                          # "explicit" | "asymptotic" | "conjecture" | "exact"
    value: int | Formula | None        # None only for the unbounded-explicit marker
    conditions: tuple[str, ...]
    source: str
    constants_used: dict[str, object] = field(default_factory=dict)
    construction: str | None = None    # lower bounds: witness construction name

    def to_jsonable(self) -> dict:
        val = self.value.to_jsonable() if isinstance(self.value, Formula) else self.value
        out = {"side": self.side, "kind": self.kind, "value": val,
               "conditions": list(self.conditions), "source": self.source,
               "constants_used": dict(self.constants_used)}
        if self.construction is not None:
            out["construction"] = self.construction
        return out


@dataclass
class BoundConfig:
    """Configured constants for the catalog.

    c_absolute plays the role of the absolute constant in the n^((2p+2)/(2p-1))
    bound; it must exceed 2 for the large-p theorem gate to be sound, so the
    gate is only applied when c_absolute > 2.  Extra named constants
    (c_p, c_ps, c_pa) turn asymptotic formulas numeric.
    """

    c_absolute: float = 2.01
    treat_asymptotic_as_explicit: bool = False
    constants: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not self.c_absolute > 0:
            raise InputError(f"c_absolute must be positive, got {self.c_absolute}")


def load_config(path: str) -> BoundConfig:
    """Parse a key=value constants file (one pair per line, # comments)."""
    settings: dict = {}
    constants: dict[str, float] = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as e:
        raise InputError(f"unreadable config file {path}: {e}") from e
    with fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"bad config line (expected key=value): {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key == "treat_asymptotic_as_explicit":
                settings["treat_asymptotic_as_explicit"] = val.lower() in ("1", "true", "yes")
                continue
            try:
                num = float(val)
            except ValueError as e:
                raise InputError(f"bad numeric value for {key}: {val!r}") from e
            if not math.isfinite(num):
                raise InputError(f"bad numeric value for {key}: {val!r}")
            if key == "c_absolute":
                settings["c_absolute"] = num
            else:
                constants[key] = num
    return BoundConfig(constants=constants, **settings)


def _exponent(p: float, a: int, b: int) -> float:
    """(2pa + 2b)/(2p - b) for 2p > b, divided through by p where 2pa overflows."""
    if math.isinf(2.0 * p * a):
        return (2.0 * a + 2.0 * b / p) / (2.0 - b / p)
    return (2.0 * p * a + 2.0 * b) / (2.0 * p - b)


def sdistance_exponent(p: float, s: int) -> float:
    """Exponent (2ps+2s)/(2p-s) of the s-distance upper bound; needs 2p > s."""
    if not 2.0 * p > s:
        raise InputError(f"exponent requires 2p > s, got p={p}, s={s}")
    return _exponent(p, s, s)


def kusner_even_upper(p: int, n: int) -> int:
    """Even-integer-p upper bound: (p/2-1)n+1 if 4 | p, else (p/2)n+1."""
    if p % 2 != 0 or p < 2:
        raise InputError(f"p must be a positive even integer, got {p}")
    half = p // 2
    return (half - 1) * n + 1 if p % 4 == 0 else half * n + 1


def _is_int(p: float) -> bool:
    return math.isfinite(p) and p == int(p)


def enumerate_bounds(space: Space, s: int, config: BoundConfig | None = None) -> list[BoundReport]:
    """All catalog bounds applicable to (space, s)."""
    if s < 1:
        raise InputError(f"s must be >= 1, got {s}")
    cfg = config or BoundConfig()
    p, nb, N = space.p, space.n_blocks, space.ambient_dim
    blocks = space.blocks
    a_max = max(blocks)
    out: list[BoundReport] = []

    def c_p_value() -> float:
        if "c_p" in cfg.constants:
            return cfg.constants["c_p"]
        return cfg.c_absolute * p

    if s == 1:
        out.append(BoundReport(
            "upper", "explicit", 2 ** N,
            ("any finite-dimensional normed space",), "petty"))

        if space.is_euclidean:
            out.append(BoundReport("upper", "exact", N + 1,
                                   ("space is Euclidean",), "exact-euclidean"))
            out.append(BoundReport("lower", "exact", N + 1,
                                   ("space is Euclidean",), "exact-euclidean",
                                   construction="euclidean-simplex"))

        if space.is_lp and p == 1.0 and nb in (3, 4):
            src = "exact-l1-n3" if nb == 3 else "exact-l1-n4"
            out.append(BoundReport("upper", "exact", 2 * nb, ("p == 1", f"n == {nb}"), src))
            out.append(BoundReport("lower", "exact", 2 * nb, ("p == 1", f"n == {nb}"), src,
                                   construction="cross-polytope"))

        if space.is_lp and math.isfinite(p):
            expo = _exponent(p, 1, 1)
            out.append(BoundReport(
                "upper", "asymptotic",
                Formula(f"c_p * n^{expo:.6g}", {"c": cfg.c_absolute, "c_p": c_p_value()},
                        numeric=c_p_value() * nb ** expo),
                ("blocks all 1", "p >= 1"), "thm1.1",
                constants_used={"c": cfg.c_absolute, "c_p": c_p_value()}))

            if nb > 1 and cfg.c_absolute > 2.0:
                gate = cfg.c_absolute * (nb * math.log(nb)) ** 2
                if p >= gate:
                    value = 2.0 * (p + 1.0) * nb  # past the largest double, p is an integer
                    out.append(BoundReport(
                        "upper", "explicit",
                        math.floor(value) if math.isfinite(value) else 2 * (int(p) + 1) * nb,
                        ("n > 1", f"p >= c*(n*ln n)^2 = {gate:.6g}"), "thm1.2",
                        constants_used={"c": cfg.c_absolute}))

            if _is_int(p) and int(p) % 2 == 0:
                out.append(BoundReport(
                    "upper", "explicit", kusner_even_upper(int(p), nb),
                    ("blocks all 1", "p is an even integer"), "swanepoel-even-p"))

            if _is_int(p) and int(p) % 2 == 1:
                num = c_p_value() * nb * math.log(nb) if nb > 1 else c_p_value()
                out.append(BoundReport(
                    "upper", "asymptotic",
                    Formula("c_p * n * ln n", {"c_p": c_p_value()}, numeric=num),
                    ("blocks all 1", "p is an odd integer"), "alon-pudlak-odd-p",
                    constants_used={"c_p": c_p_value()}))

        if math.isinf(p) and nb == 2:
            a, b = blocks
            out.append(BoundReport(
                "upper", "explicit", (a + 1) * (b + 1) + 1,
                ("two blocks", "p == inf"), "thm1.4"))

        if math.isfinite(p) and _is_int(p) and int(p) % 2 == 0:
            half = int(p) // 2
            if nb == 2:
                a, b = blocks
                out.append(BoundReport(
                    "upper", "explicit", math.comb(a + half, a) + math.comb(b + half, b),
                    ("two blocks", "p is an even integer"), "thm1.5"))
            out.append(BoundReport(
                "upper", "explicit", sum(math.comb(a + half, a) for a in blocks),
                ("p is an even integer",), "even-p-blocks"))

        if math.isfinite(p) and 2.0 * p > a_max:
            expo = _exponent(p, 1, a_max)
            out.append(_configured_bound(cfg, "c_pa", expo, nb,
                                         (f"2p > max block dim = {a_max}",), "thm1.6"))

        for rep in _lower_candidates(space):
            out.append(rep)

    if s >= 1 and space.is_euclidean:
        out.append(BoundReport(
            "upper", "explicit", math.comb(N + s, s),
            ("space is Euclidean",), "bannai-bannai-stanton"))

    if s >= 1 and space.is_lp and math.isfinite(p) and 2.0 * p > s:
        expo = sdistance_exponent(p, s)
        out.append(_configured_bound(cfg, "c_ps", expo, nb,
                                     ("blocks all 1", f"2p > s = {s}"), "thm1.3"))

    out.append(BoundReport(
        "upper", "explicit" if N == 2 else "conjecture", (s + 1) ** N,
        ("proved for dimension 2" if N == 2 else "conjectured for any Minkowski space",),
        "swanepoel-conjecture"))

    return out


def _configured_bound(cfg: BoundConfig, name: str, expo: float, nb: int,
                      conditions: tuple[str, ...], source: str) -> BoundReport:
    """The asymptotic upper bound name * n^expo, numeric when cfg sets the constant."""
    c = cfg.constants.get(name)
    shown = {name: UNSPECIFIED if c is None else c}
    return BoundReport("upper", "asymptotic",
                       Formula(f"{name} * n^{expo:.6g}", shown,
                               numeric=None if c is None else c * nb ** expo),
                       conditions, source, constants_used=dict(shown))


def _lower_candidates(space: Space) -> list[BoundReport]:
    """Constructive equilateral lower bounds applicable to the space."""
    p, nb, N = space.p, space.n_blocks, space.ambient_dim
    cands: list[BoundReport] = []
    if p == 1.0:
        cands.append(BoundReport("lower", "explicit", 2 * nb, ("p == 1",),
                                 "cross-polytope", construction="cross-polytope"))
    if math.isfinite(p) and p > 1.0 and nb >= 2:
        cands.append(BoundReport("lower", "explicit", nb + 1, ("1 < p < inf",),
                                 "lp-simplex", construction="lp-simplex"))
    if space.is_euclidean:
        cands.append(BoundReport("lower", "exact", N + 1, ("space is Euclidean",),
                                 "euclidean-simplex", construction="euclidean-simplex"))
    cands.append(BoundReport("lower", "explicit", max(space.blocks) + 1,
                             ("simplex inside the largest block",),
                             "block-simplex", construction="block-simplex"))
    if math.isinf(p):
        cands.append(BoundReport("lower", "explicit", math.prod(a + 1 for a in space.blocks),
                                 ("p == inf",), "product", construction="product"))
    return cands


def best_explicit_upper(space: Space, s: int, config: BoundConfig | None = None) -> BoundReport:
    """Minimum concrete upper bound; ties broken by source tag."""
    cfg = config or BoundConfig()
    pool = []
    for rep in enumerate_bounds(space, s, cfg):
        if rep.side != "upper":
            continue
        if rep.kind in ("explicit", "exact") and isinstance(rep.value, int):
            pool.append((rep.value, rep.source, rep))
        elif (cfg.treat_asymptotic_as_explicit and rep.kind == "asymptotic"
              and isinstance(rep.value, Formula) and rep.value.numeric is not None):
            pool.append((math.ceil(rep.value.numeric), rep.source, rep))
    if not pool:
        return BoundReport("upper", "explicit", None, (),
                           "unbounded-explicit")
    pool.sort(key=lambda t: (t[0], t[1]))
    return pool[0][2]


def lower_bound(space: Space, s: int = 1) -> BoundReport:
    """Best constructive lower bound (equilateral case only)."""
    if s != 1:
        raise UnsupportedRequestError(
            f"lower bounds are only implemented for s = 1, got s = {s}")
    cands = _lower_candidates(space)
    cands.sort(key=lambda r: (-r.value, r.construction))
    return cands[0]


def cluster_combine(per_s_bounds: Sequence[int], k: int) -> int:
    """Clustering recursion: min_i e_i * max_{0<=j<=k-i} e_j, with e_0 = 1.

    per_s_bounds[j-1] is a valid upper bound on the j-distance maximum for
    1 <= j <= k-1.
    """
    if k < 2:
        raise InputError(f"k must be >= 2, got {k}")
    if len(per_s_bounds) < k - 1:
        raise InputError(
            f"need upper bounds for s = 1..{k - 1}, got {len(per_s_bounds)} entries")
    e = [1] + [int(v) for v in per_s_bounds[: k - 1]]
    if any(v < 1 for v in e):
        raise InputError("all per-s bounds must be positive integers")
    return min(e[i] * max(e[: k - i + 1]) for i in range(1, k))
