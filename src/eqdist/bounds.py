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

from .errors import (InputError, ResourceLimitError, require_even_exponent, require_int,
                     require_positive, shown)
from .space import Space

UNSPECIFIED = "unspecified"
# Cap on the bits of every exact integer formed (_require_bits); for the
# catalog, N * log2(s + 1), the bits of the exact (s + 1)**N bound, which also
# bounds C(N + s, s).  On a 2-vCPU Xeon, `bound` on lp:n=1000000,p=3 took 0.45 s
# at s = 1, 0.82 s at s = 17 (4.17e6 bits, just inside) and 2.4 s at s = 1000.
MAX_BOUND_BITS = 1 << 22


def _require_bits(what: str, base, exponent) -> None:
    """Refuse, before it is formed, an integer of about exponent * log2(base) bits
    (base^exponent, or a binomial C(N, K) < (N + 1)^min(K, N - K)) above
    MAX_BOUND_BITS, the cap on every exact integer the library forms: a
    4-million-bit binomial takes seconds.  Compared as a quotient, so no float
    overflows."""
    if abs(base) > 1 and exponent > MAX_BOUND_BITS / math.log2(abs(base)):
        raise ResourceLimitError(f"{what} has more than {MAX_BOUND_BITS} bits, above the cap")


# What a constants file may set besides c_absolute: the named constants, and the
# flag treat_asymptotic_as_explicit in one of these spellings (any case)
_NAMED_CONSTANTS = ("c_p", "c_ps", "c_pa")
_FLAG_VALUES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


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


@dataclass(frozen=True)
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
        object.__setattr__(self, "c_absolute", require_positive("c_absolute", self.c_absolute))
        object.__setattr__(self, "constants", {name: require_positive(name, value)
                                               for name, value in self.constants.items()})


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
                if val.lower() not in _FLAG_VALUES:
                    raise InputError(f"bad value for {key}: {val!r} "
                                     "(expected true, false, 1, 0, yes or no)")
                settings[key] = _FLAG_VALUES[val.lower()]
                continue
            if key not in ("c_absolute", *_NAMED_CONSTANTS):
                raise InputError(f"unknown config key {key!r} (expected c_absolute, "
                                 f"{', '.join(_NAMED_CONSTANTS)} or treat_asymptotic_as_explicit)")
            try:
                num = float(val)
            except ValueError as e:
                raise InputError(f"bad numeric value for {key}: {val!r}") from e
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
    half = require_even_exponent("p", p) // 2
    return (half - 1 if half % 2 == 0 else half) * require_int("n", n, 1) + 1


def large_p_gate(c: float, n: int) -> float | None:
    """The thm1.2 threshold c*(n ln n)^2 on p, or None where there is none (n = 1 or c <= 2)."""
    if n == 1 or not c > 2.0:
        return None
    return c * (n * math.log(n)) ** 2


def enumerate_bounds(space: Space, s: int, config: BoundConfig | None = None) -> list[BoundReport]:
    """All catalog bounds applicable to (space, s)."""
    s = require_int("s", s, 1)
    cfg = config or BoundConfig()
    p, nb, N = space.p, space.n_blocks, space.ambient_dim
    _require_bits(f"the (s + 1)^N bound at s = {shown(s)}, N = {N}", s + 1, N)
    blocks = space.blocks
    a_max = max(blocks)
    out: list[BoundReport] = []
    c_p = cfg.constants.get("c_p", cfg.c_absolute * p)

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
                Formula(f"c_p * n^{expo:.6g}", {"c": cfg.c_absolute, "c_p": c_p},
                        numeric=c_p * nb ** expo),
                ("blocks all 1", "p >= 1"), "thm1.1",
                constants_used={"c": cfg.c_absolute, "c_p": c_p}))

            gate = large_p_gate(cfg.c_absolute, nb)
            if gate is not None and p >= gate:
                value = 2.0 * (p + 1.0) * nb  # past the largest double, p is an integer
                out.append(BoundReport(
                    "upper", "explicit",
                    math.floor(value) if math.isfinite(value) else 2 * (int(p) + 1) * nb,
                    ("n > 1", f"p >= c*(n*ln n)^2 = {gate:.6g}"), "thm1.2",
                    constants_used={"c": cfg.c_absolute}))

            if p % 2 == 0:
                out.append(BoundReport(
                    "upper", "explicit", kusner_even_upper(p, nb),
                    ("blocks all 1", "p is an even integer"), "swanepoel-even-p"))

            if p % 2 == 1:
                num = c_p * nb * math.log(nb) if nb > 1 else c_p
                out.append(BoundReport(
                    "upper", "asymptotic",
                    Formula("c_p * n * ln n", {"c_p": c_p}, numeric=num),
                    ("blocks all 1", "p is an odd integer"), "alon-pudlak-odd-p",
                    constants_used={"c_p": c_p}))

        if math.isinf(p) and nb == 2:
            a, b = blocks
            out.append(BoundReport(
                "upper", "explicit", (a + 1) * (b + 1) + 1,
                ("two blocks", "p == inf"), "thm1.4"))

        if p % 2 == 0:
            half = int(p) // 2
            # C(a + p/2, a) grows with a: the largest block's term bounds the others
            _require_bits("the even-p term C(a + p/2, a)", a_max + half + 1, min(a_max, half))
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

        out.extend(_lower_candidates(space))

    if space.is_euclidean:
        out.append(BoundReport(
            "upper", "explicit", math.comb(N + s, s),
            ("space is Euclidean",), "bannai-bannai-stanton"))

    if space.is_lp and math.isfinite(p) and 2.0 * p > s:
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
    used = {name: UNSPECIFIED if c is None else c}
    return BoundReport("upper", "asymptotic",
                       Formula(f"{name} * n^{expo:.6g}", used,
                               numeric=None if c is None else c * nb ** expo),
                       conditions, source, constants_used=dict(used))


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
              and isinstance(rep.value, Formula) and rep.value.numeric is not None
              and math.isfinite(rep.value.numeric)):  # c * n^e past the largest double bounds nothing
            pool.append((math.ceil(rep.value.numeric), rep.source, rep))
    if not pool:
        return BoundReport("upper", "explicit", None, (),
                           "unbounded-explicit")
    pool.sort(key=lambda t: (t[0], t[1]))
    return pool[0][2]


def cluster_combine(per_s_bounds: Sequence[int], k: int) -> int:
    """Clustering recursion: min_i e_i * max_{0<=j<=k-i} e_j, with e_0 = 1.

    per_s_bounds[j-1] is a valid upper bound on the j-distance maximum for
    1 <= j <= k-1.
    """
    k = require_int("k", k, 2)
    if len(per_s_bounds) < k - 1:
        raise InputError(
            f"need upper bounds for s = 1..{shown(k - 1)}, got {len(per_s_bounds)} entries")
    e = [1] + [require_int("each per-s bound", v, 1) for v in per_s_bounds[: k - 1]]
    return min(e[i] * max(e[: k - i + 1]) for i in range(1, k))
