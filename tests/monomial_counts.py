"""Two independent counts of the per-block monomials in the thm4 span bound,
checked against the closed form ``span_dim("thm4-monomials", ...)``."""

import itertools
import math

from eqdist.errors import InputError


def monomial_count_telescoped(a: int, p: int) -> int:
    """C(a+p/2, a) + sum_{c=1}^{p/2} C(a-1+p/2-c, a-1): the per-block count
    written as the 'all low degrees plus one family per high degree' sum."""
    if p % 2 != 0 or p < 2 or a < 1:
        raise InputError(f"need even p >= 2 and a >= 1, got a={a}, p={p}")
    half = p // 2
    return math.comb(a + half, a) + sum(math.comb(a - 1 + half - c, a - 1)
                                        for c in range(1, half + 1))


def monomial_count_enumerated(a: int, p: int) -> int:
    """The same count by explicit generation of the exponent tuples."""
    if p % 2 != 0 or p < 2 or a < 1:
        raise InputError(f"need even p >= 2 and a >= 1, got a={a}, p={p}")
    half = p // 2
    low = sum(1 for g in itertools.product(range(half + 1), repeat=a) if sum(g) <= half)
    high = 0
    for c in range(1, half + 1):
        want = half - c
        high += sum(1 for g in itertools.product(range(want + 1), repeat=a) if sum(g) == want)
    return low + high
