"""Seeded job lists for the three benchmark workloads.

A workload is an endless sequence of *rounds*.  Every round of a workload has
the same composition (the same job kinds in the same numbers).  The
parameters that set the cost of the slow jobs (approx's (P, D); the
point-set sizes, exponents and catalog entries) follow low-discrepancy
sequences over the rounds, so any prefix of a run covers its range evenly.
The point-set parameters are moved by a small seeded jitter, so the seed
barely moves the cost mix; approx's (P, D) are not moved at all (see
``_approx_round``).  The seed also orders the jobs and draws search seeds,
tolerances and perturbations.  Round ``r`` of ``(workload, seed)`` is drawn
from its own generator, so the first rounds do not depend on how many are
drawn.

Point-set files are named after what they contain, so a job's argv is also a
stable key for the recorded outputs in ``baseline.json``.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np
from eqdist.approx import choose_degree, jackson_constant

WORKLOADS = ("approx-sweep", "pointset-pipeline", "witness-search")
DEFAULT_SEED = 0

# lp-simplex exponents: none is an even integer, so thm2/thm5 stay on the
# Remez path and no pointset job pays for the exact-path error measurement
P_SET = (1.5, 2.5, 3.0, 3.5, 4.5, 5.0, 6.5, 7.0)
EVEN_P = (2, 4, 6, 8)
LATTICE_POINTS, LATTICE_STEP = 21, 13   # Remez jobs per round; plus 1 even-p job
JITTER = 1 / 256         # seeded move of a point-set size, as a share of its range
MAX_DEGREE = 45          # largest degree the approximation engine accepts
CERTIFY_MAX_N = 40       # thm1 keeps its (m, m, dim) temporaries below ~2 MB
BLOKHUIS_MAX_VARS = 6    # thm4 symbolic expansion caps (a + b, p)
BLOKHUIS_MAX_P = 8

# witness-search cases that converge at 8 restarts in 25-120 ms.  Every round
# runs the same 18 cases (the four l_p^2 exponents rotate); only the search
# seeds change, so the slowest easy cases, which set p90, are in every round.
L_P2_EXPONENTS = ("1", "1.5", "2", "2.5", "3", "3.5", "inf")
EASY_SEARCH = ([("lp:n=3,p=" + p, 4) for p in ("1.5", "2", "2.5", "3", "1.5", "2")]
               + [("lp:n=3,p=inf", m) for m in (4, 5, 6)]
               + [("lpsum:blocks=1,2,p=3", 4), ("lpsum:blocks=2,1,p=1.5", 4),
                  ("lpsum:blocks=2,1,p=inf", 4), ("lpsum:blocks=2,2,p=4", 5),
                  ("lpsum:blocks=1,2,p=3", 4)])
L_P2_PER_ROUND = 4
# the README's l1^3 case, exactly as the README runs it but at the default
# 8 restarts; its seed stays 7, so the iteration-bound job that sets
# jobs_per_s is the same in every round and the seed only moves the easy jobs
HARD_SEARCH = ("lp:n=3,p=1", 6, 7, "1e-8")
IMPOSSIBLE_SEARCH = ("lp:n=2,p=2", 4)          # 4 points in the Euclidean plane


@dataclass(frozen=True)
class Job:
    """One CLI call plus what the oracle needs to judge it."""

    argv: tuple[str, ...]
    exits: frozenset[int]               # exit codes that count as expected
    check: dict = field(default_factory=dict)
    save: str | None = None             # file the stdout is written to
    perturb: tuple[str, str] | None = None   # (source file, token): build argv's file first

    @property
    def kind(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _fmt(x: float) -> str:
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def _token(rng: random.Random) -> str:
    return f"{rng.getrandbits(32):08x}"


# ---------------------------------------------------------------------------
# catalogs shared with record.py: every job the generator can emit has a key here


def window_constant(p: float) -> float:
    """(2^(1/p) - 1)^(-p): the least c for which choose_degree always finds a degree."""
    return (2.0 ** (1.0 / p) - 1.0) ** (-p)


@functools.cache
def thm2_catalog() -> list[tuple[str, tuple[str, ...], float]]:
    """(construct kind, construct flags, c) for thm2 runs with d <= 45."""
    out = []
    for n in (2, 3, 4):
        if choose_degree(1.0, 2.0, n, 2 * n) <= MAX_DEGREE:
            out.append(("cross-polytope", ("--n", str(n)), 2.0))
        for p in P_SET:
            c = float(math.ceil(window_constant(p)))
            if choose_degree(p, c, n, n + 1) <= MAX_DEGREE:
                out.append(("lp-simplex", ("--n", str(n), "--p", _fmt(p)), c))
    return out


@functools.cache
def thm5_catalog() -> list[tuple[int, float]]:
    """(n, p) of lp-simplices whose default thm5 degree is at most 45."""
    out = []
    for p in P_SET:
        c = max(jackson_constant(p), window_constant(p))
        for n in range(2, CERTIFY_MAX_N + 1):
            if choose_degree(p, c, n, n + 1) <= MAX_DEGREE:
                out.append((n, p))
    return out


@functools.cache
def thm4_shapes() -> list[tuple[int, int, int, int]]:
    """(a, b, p, block) within the symbolic-expansion caps."""
    return [(a, b, p, blk)
            for a in range(1, BLOKHUIS_MAX_VARS) for b in range(1, BLOKHUIS_MAX_VARS - a + 1)
            for p in EVEN_P if p <= BLOKHUIS_MAX_P for blk in (1, 2)]


def construct_file(kind: str, flags: tuple[str, ...]) -> str:
    return kind + "".join(f"_{f.lstrip('-')}{v}" for f, v in zip(flags[::2], flags[1::2])) + ".json"


def certify_key(source: str, theorem: str, extra: tuple[str, ...] = ()) -> str:
    return " ".join((theorem, *extra, source))


def certify_catalog() -> list[tuple[str, str, tuple[str, ...]]]:
    """Every (point-set source, theorem, extra flags) a certify job can use.

    A source is either ``construct <kind> <flags>`` or ``thm4set a b p block``.
    """
    out = []
    for n in range(2, CERTIFY_MAX_N + 1):
        out.append((f"construct cross-polytope --n {n}", "thm1", ()))
        for p in P_SET:
            out.append((f"construct lp-simplex --n {n} --p {_fmt(p)}", "thm1", ()))
    for n in range(1, CERTIFY_MAX_N + 1):
        out.append((f"construct euclidean-simplex --n {n}", "thm1", ()))
    for kind, flags, c in thm2_catalog():
        out.append((f"construct {kind} {' '.join(flags)}", "thm2", ("--c", _fmt(c))))
    for a in range(1, 7):
        for b in range(1, 7):
            out.append((f"construct product --a {a} --b {b}", "thm3", ()))
    for a, b, p, blk in thm4_shapes():
        out.append((f"thm4set {a} {b} {p} {blk}", "thm4", ()))
    for n, p in thm5_catalog():
        out.append((f"construct lp-simplex --n {n} --p {_fmt(p)}", "thm5", ()))
    return out


def bound_spaces() -> list[str]:
    """Every space a bound job can ask about."""
    out = [f"lp:n={n},p=1" for n in range(2, 201)]
    out += [f"lp:n={n},p={_fmt(p)}" for p in P_SET for n in range(2, 201)]
    out += [f"lp:n={n},p=2" for n in range(1, CERTIFY_MAX_N + 1)]
    out += [f"lpsum:blocks={a},{b},p=inf" for a in range(1, 7) for b in range(1, 7)]
    out += sorted({f"lpsum:blocks={a},{b},p={p}" for a, b, p, _ in thm4_shapes()})
    return out


# ---------------------------------------------------------------------------
# thm4 input sets: a seeded rigid motion of a regular simplex in one block


def thm4_set(a: int, b: int, p: int, blk: int, token: str) -> dict:
    """Unit-equilateral point set in the lp sum E^a + E^b for even p.

    The regular simplex lives in block ``blk`` (seeded rotation and shift);
    the other block is one seeded constant vector, so every pairwise distance
    is the Euclidean distance inside the simplex block.
    """
    rng = np.random.default_rng(int(token, 16))
    k = a if blk == 1 else b
    t = (math.sqrt(2.0) + math.sqrt(2.0 + 2.0 * k)) / (2.0 * k)
    simplex = np.vstack([np.eye(k) / math.sqrt(2.0), np.full((1, k), t)])
    q, r = np.linalg.qr(rng.normal(size=(k, k)))
    q *= np.sign(np.diag(r))
    simplex = simplex @ q + rng.uniform(-1.0, 1.0, size=k)
    other = np.tile(rng.uniform(-1.0, 1.0, size=b if blk == 1 else a), (k + 1, 1))
    pts = np.hstack([simplex, other] if blk == 1 else [other, simplex])
    return {"space": f"lpsum:blocks={a},{b},p={p}", "points": pts.tolist()}


def perturbed_copy(obj: dict, token: str) -> dict:
    """The point set with one seeded point moved by 1e-3 to 2e-3 (max norm)."""
    rng = random.Random(token)
    pts = [list(row) for row in obj["points"]]
    i = rng.randrange(len(pts))
    direction = [rng.uniform(-1.0, 1.0) for _ in pts[i]]
    scale = rng.uniform(1e-3, 2e-3) / max(abs(v) for v in direction)
    pts[i] = [x + scale * v for x, v in zip(pts[i], direction)]
    return {"space": obj["space"], "points": pts}


# ---------------------------------------------------------------------------
# rounds


def radical_inverse(i: int, base: int) -> float:
    """Van der Corput radical inverse of i: the Halton sequence coordinate."""
    out, f = 0.0, 1.0
    while i:
        f /= base
        out += f * (i % base)
        i //= base
    return out


# one irrational step per pointset parameter: the fractional parts of sqrt(prime)
STEPS = tuple(math.sqrt(p) % 1.0 for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53))


def _spread(rng: random.Random, index: int, k: int) -> float:
    """A uniform in [0, 1) for round ``index`` and parameter ``k``: the point
    ``(index + 1) * STEPS[k]`` of an additive (Kronecker) sequence, moved by a
    seeded jitter, so the first rounds of a run, however many, cover [0, 1)
    evenly."""
    return ((index + 1) * STEPS[k] + JITTER * rng.random()) % 1.0


def _pick(rng: random.Random, index: int, k: int, lo: int, hi: int) -> int:
    return lo + math.floor(_spread(rng, index, k) * (hi - lo + 1))


def _choose(rng: random.Random, index: int, k: int, options: list):
    return options[_pick(rng, index, k, 0, len(options) - 1)]


def _approx_round(rng: random.Random, index: int) -> list[Job]:
    # (P, D) of the Remez jobs form a Fibonacci lattice over the (P, D) square,
    # so every round holds nearly the same share of slow jobs (high P and high
    # D).  The lattice is shifted by the round's Halton point, so successive
    # rounds fill in new points.  (P, D) do not depend on the seed, which only
    # orders the jobs: at high D the cost of a job changes up to 4-fold when P
    # moves by 0.01, so a seeded move of P would make latency_p50 a random draw
    # from a flat stretch of the cost distribution.
    jobs = []
    su, sv = radical_inverse(index + 1, 2), radical_inverse(index + 1, 3)
    for k in range(LATTICE_POINTS):
        u = (k / LATTICE_POINTS + su) % 1.0
        v = (k * LATTICE_STEP / LATTICE_POINTS + sv) % 1.0
        p = round(1.0 + 7.0 * u, 4)
        if p.is_integer() and int(p) % 2 == 0:
            p = round(p - 1e-4, 4)
        d = math.ceil(p) + math.floor(v * (MAX_DEGREE + 1 - math.ceil(p)))
        jobs.append(Job(("approx", "--p", _fmt(p), "--d", str(d)), frozenset({0}),
                        {"p": p, "d": d}))
    p = EVEN_P[index % len(EVEN_P)]
    d = p + math.floor(su * (MAX_DEGREE + 1 - p))
    jobs.append(Job(("approx", "--p", str(p), "--d", str(d)), frozenset({0}), {"p": float(p), "d": d}))
    rng.shuffle(jobs)
    return jobs


def _bound(rng: random.Random, space: str) -> Job:
    best = rng.random() < 0.5
    argv = ("bound", "--space", space) + (("--best",) if best else ())
    return Job(argv, frozenset({0}), {"space": space, "best": best})


def _construct(kind: str, flags: tuple[str, ...], space: str, m: int) -> tuple[Job, str]:
    name = construct_file(kind, flags)
    job = Job(("construct", kind, *flags), frozenset({0}),
              {"space": space, "m": m}, save=name)
    return job, name


def _verify(rng: random.Random, name: str) -> Job:
    tol = rng.choice((None, "1e-9"))
    argv = ("verify", "--points", name) + (("--tol", tol) if tol else ())
    return Job(argv, frozenset({0}), {"tol": float(tol) if tol else 1e-7, "equilateral": True})


def _perturbed_verify(rng: random.Random, name: str) -> Job:
    token = _token(rng)
    copy = name[:-len(".json")] + f".perturbed-{token}.json"
    return Job(("verify", "--points", copy), frozenset({2}),
               {"tol": 1e-7, "equilateral": False}, perturb=(name, token))


def _certify(name: str, source: str, theorem: str, extra: tuple[str, ...] = ()) -> Job:
    return Job(("certify", "--points", name, "--theorem", theorem, *extra), frozenset({0, 2}),
               {"passes_key": certify_key(source, theorem, extra), "theorem": theorem})


def _chain(rng, kind, flags, space, m):
    """bound, construct, verify for one construction; returns (jobs, file)."""
    cjob, name = _construct(kind, flags, space, m)
    return [_bound(rng, space), cjob, _verify(rng, name)], name


def _pointset_round(rng: random.Random, index: int) -> list[Job]:
    chains: list[list[Job]] = []
    # cross-polytopes, one per size stratum, so every round holds an m = 302-400
    # verify.  Sizes, exponents and catalog entries set the cost of the slow
    # jobs, so each follows its own _spread sequence (parameters 0-15)
    sizes = ((2, CERTIFY_MAX_N), (CERTIFY_MAX_N + 1, 100), (101, 150), (151, 200))
    for k, (lo, hi) in enumerate(sizes):
        n = _pick(rng, index, k, lo, hi)
        flags = ("--n", str(n))
        chain, name = _chain(rng, "cross-polytope", flags, f"lp:n={n},p=1", 2 * n)
        if n <= CERTIFY_MAX_N:
            chain.append(_certify(name, f"construct cross-polytope --n {n}", "thm1"))
            chain.append(_perturbed_verify(rng, name))
        chains.append(chain)
    sizes = ((CERTIFY_MAX_N + 1, 120), (121, 200), (2, CERTIFY_MAX_N))
    for k, (lo, hi) in enumerate(sizes, 4):
        n, p = _pick(rng, index, k, lo, hi), _choose(rng, index, k + 3, P_SET)
        flags = ("--n", str(n), "--p", _fmt(p))
        chain, name = _chain(rng, "lp-simplex", flags, f"lp:n={n},p={_fmt(p)}", n + 1)
        if n <= CERTIFY_MAX_N:
            chain.append(_certify(name, f"construct lp-simplex {' '.join(flags)}", "thm1"))
            chain.append(_perturbed_verify(rng, name))
        chains.append(chain)
    n = _pick(rng, index, 10, 1, CERTIFY_MAX_N)
    flags = ("--n", str(n))
    chain, name = _chain(rng, "euclidean-simplex", flags, f"lp:n={n},p=2", n + 1)
    chain.append(_certify(name, f"construct euclidean-simplex --n {n}", "thm1"))
    chains.append(chain)
    a, b = _pick(rng, index, 11, 1, 6), _pick(rng, index, 12, 1, 6)
    flags = ("--a", str(a), "--b", str(b))
    chain, name = _chain(rng, "product", flags, f"lpsum:blocks={a},{b},p=inf", (a + 1) * (b + 1))
    chain.append(_certify(name, f"construct product {' '.join(flags)}", "thm3"))
    chain.append(_perturbed_verify(rng, name))
    chains.append(chain)
    kind, flags, c = _choose(rng, index, 13, thm2_catalog())
    space = f"lp:n={flags[1]},p={flags[3] if kind == 'lp-simplex' else '1'}"
    m = 2 * int(flags[1]) if kind == "cross-polytope" else int(flags[1]) + 1
    cjob, name = _construct(kind, flags, space, m)
    chains.append([cjob, _certify(name, f"construct {kind} {' '.join(flags)}", "thm2",
                                  ("--c", _fmt(c)))])
    n, p = _choose(rng, index, 14, thm5_catalog())
    flags = ("--n", str(n), "--p", _fmt(p))
    cjob, name = _construct("lp-simplex", flags, f"lp:n={n},p={_fmt(p)}", n + 1)
    chains.append([cjob, _certify(name, f"construct lp-simplex {' '.join(flags)}", "thm5")])
    a, b, p, blk = _choose(rng, index, 15, thm4_shapes())
    token = _token(rng)
    name = f"thm4set_a{a}_b{b}_p{p}_blk{blk}-{token}.json"
    space = f"lpsum:blocks={a},{b},p={p}"
    verify = Job(("verify", "--points", name), frozenset({0}),
                 {"tol": 1e-7, "equilateral": True, "setup_file": (a, b, p, blk, token)})
    chains.append([_bound(rng, space), verify,
                   _certify(name, f"thm4set {a} {b} {p} {blk}", "thm4")])
    rng.shuffle(chains)
    return [job for chain in chains for job in chain]


def _search(space: str, m: int, seed: int, target: str | None, exits: set[int]) -> Job:
    argv = ("search", "--space", space, "--m", str(m), "--seed", str(seed))
    if target:
        argv += ("--target", target)
    return Job(argv, frozenset(exits),
               {"space": space, "m": m, "target": float(target or 1e-10)})


def _search_round(rng: random.Random, index: int) -> list[Job]:
    seed = lambda: rng.randrange(2 ** 31)
    jobs = [_search(*HARD_SEARCH, {0, 2}),
            _search(*IMPOSSIBLE_SEARCH, seed(), None, {2})]
    for i in range(L_P2_PER_ROUND):
        p = L_P2_EXPONENTS[(index * L_P2_PER_ROUND + i) % len(L_P2_EXPONENTS)]
        jobs.append(_search("lp:n=2,p=" + p, 3, seed(), None, {0, 2}))
    jobs += [_search(space, m, seed(), None, {0, 2}) for space, m in EASY_SEARCH]
    rng.shuffle(jobs)
    return jobs


_ROUNDS = {"approx-sweep": _approx_round, "pointset-pipeline": _pointset_round,
           "witness-search": _search_round}


def round_jobs(workload: str, seed: int, index: int) -> list[Job]:
    """Round ``index`` of a workload; a pure function of its arguments."""
    return _ROUNDS[workload](random.Random(f"{workload}/{seed}/{index}"), index)


def setup_files(jobs: list[Job]) -> dict[str, str]:
    """Benchmark-made input files the jobs read (name -> JSON text)."""
    out = {}
    for job in jobs:
        spec = job.check.get("setup_file")
        if spec:
            out[job.argv[2]] = json.dumps(thm4_set(*spec))
    return out
