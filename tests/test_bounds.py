import math

import pytest

from eqdist.bounds import (BoundConfig, Formula, best_explicit_upper,
                           cluster_combine, enumerate_bounds, kusner_even_upper,
                           load_config, lower_bound, sdistance_exponent)
from eqdist.errors import InputError, UnsupportedRequestError
from eqdist.space import Space


def _find(reports, source, side="upper"):
    hits = [r for r in reports if r.source == source and r.side == side]
    assert hits, f"no {side} report from {source}"
    return hits[0]


def test_enumerate_examples():
    r = _find(enumerate_bounds(Space(math.inf, (2, 3)), 1), "thm1.4")
    assert r.value == 13 and r.kind == "explicit"
    r = _find(enumerate_bounds(Space(4.0, (1,) * 5), 1), "swanepoel-even-p")
    assert r.value == (4 // 2 - 1) * 5 + 1 == 6
    r = _find(enumerate_bounds(Space(4.0, (2, 2)), 1), "thm1.5")
    assert r.value == math.comb(4, 2) + math.comb(4, 2) == 12


def test_petty_always_present():
    for space in [Space(1.0, (1,)), Space(math.inf, (3, 2)), Space(2.7, (1, 1, 1))]:
        r = _find(enumerate_bounds(space, 1), "petty")
        assert r.value == 2 ** space.ambient_dim


def test_exact_small_cases():
    reps = enumerate_bounds(Space(1.0, (1, 1, 1)), 1)
    assert _find(reps, "exact-l1-n3").value == 6
    assert _find(reps, "exact-l1-n3", "lower").value == 6
    reps = enumerate_bounds(Space(1.0, (1, 1, 1, 1)), 1)
    assert _find(reps, "exact-l1-n4").value == 8
    reps = enumerate_bounds(Space(2.0, (1,) * 6), 1)
    assert _find(reps, "exact-euclidean").value == 7
    assert _find(reps, "bannai-bannai-stanton").value == math.comb(7, 1) == 7


def test_best_explicit_upper_examples():
    assert best_explicit_upper(Space(2.0, (1, 1, 1)), 1).value == 4
    r = best_explicit_upper(Space(6.0, (1,) * 10), 1)
    assert r.value == 31 and r.source == "swanepoel-even-p"
    assert best_explicit_upper(Space(math.inf, (2, 3)), 1).value == 13


def test_best_explicit_ties_by_source():
    # at p=2 the even-p formula and the Euclidean exact value tie at n+1
    r = best_explicit_upper(Space(2.0, (1,) * 4), 1)
    assert r.value == 5 and r.source == "bannai-bannai-stanton"


def test_unbounded_marker_for_s_distance():
    r = best_explicit_upper(Space(1.7, (1, 1, 1)), 3)
    assert r.value is None and r.source == "unbounded-explicit"
    r = best_explicit_upper(Space(1.7, (1, 1)), 3)
    assert r.value == 16 and r.source == "swanepoel-conjecture"


def test_swanepoel_conjecture_kind():
    r = _find(enumerate_bounds(Space(1.5, (1, 1)), 2), "swanepoel-conjecture")
    assert r.kind == "explicit" and r.value == 9
    r = _find(enumerate_bounds(Space(1.5, (1, 1, 1)), 2), "swanepoel-conjecture")
    assert r.kind == "conjecture" and r.value == 27


def test_thm12_gate():
    cfg = BoundConfig(c_absolute=2.01)
    gate = 2.01 * (2 * math.log(2)) ** 2
    reps = enumerate_bounds(Space(4.0, (1, 1)), 1, cfg)
    assert 4.0 >= gate
    assert _find(reps, "thm1.2").value == math.floor(2 * 5.0 * 2)
    reps = enumerate_bounds(Space(3.8, (1, 1)), 1, cfg)
    assert not [r for r in reps if r.source == "thm1.2"]
    # gate requires c > 2, so a small c disables the theorem entirely
    reps = enumerate_bounds(Space(1000.0, (1, 1)), 1, BoundConfig(c_absolute=1.5))
    assert not [r for r in reps if r.source == "thm1.2"]


def test_even_p_split():
    assert kusner_even_upper(4, 5) == 6
    assert kusner_even_upper(6, 10) == 31
    assert kusner_even_upper(2, 9) == 10
    with pytest.raises(InputError):
        kusner_even_upper(3, 5)


def test_asymptotic_reports():
    reps = enumerate_bounds(Space(3.0, (1,) * 4), 1)
    r = _find(reps, "thm1.1")
    assert r.kind == "asymptotic" and isinstance(r.value, Formula)
    expo = (2 * 3.0 + 2) / (2 * 3.0 - 1)
    assert abs(r.value.numeric - 2.01 * 3.0 * 4 ** expo) < 1e-9
    r = _find(reps, "alon-pudlak-odd-p")
    assert r.kind == "asymptotic"
    r = _find(enumerate_bounds(Space(3.0, (2, 2)), 1), "thm1.6")
    assert r.kind == "asymptotic" and r.value.numeric is None
    assert r.constants_used["c_pa"] == "unspecified"


def test_thm13_constants_config():
    cfg = BoundConfig(constants={"c_ps": 5.0})
    r = _find(enumerate_bounds(Space(3.0, (1,) * 4), 2, cfg), "thm1.3")
    assert r.kind == "asymptotic"
    expo = sdistance_exponent(3.0, 2)
    assert abs(r.value.numeric - 5.0 * 4 ** expo) < 1e-12
    # 2p > s gate
    assert not [r for r in enumerate_bounds(Space(1.2, (1, 1)), 3, cfg)
                if r.source == "thm1.3"]


def test_sdistance_exponent_monotone():
    for p in [1.0, 1.7, 3.0, 10.0]:
        xs = [0.01 + 1.98 * p * i / 400 for i in range(400)]
        vals = [(2 * p * x + 2 * x) / (2 * p - x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_explicit_reports_are_concrete():
    spaces = [Space(1.0, (1,) * 4), Space(2.0, (2, 3)), Space(6.0, (1,) * 3),
              Space(math.inf, (2, 2)), Space(4.0, (3, 1))]
    for sp in spaces:
        for r in enumerate_bounds(sp, 1):
            if r.kind in ("explicit", "exact"):
                assert isinstance(r.value, int) and r.value >= 1
                assert "unspecified" not in set(map(str, r.constants_used.values()))


def test_lower_bound_examples():
    r = lower_bound(Space(1.0, (1,) * 7))
    assert r.value == 14 and r.construction == "cross-polytope"
    r = lower_bound(Space(3.0, (1,) * 4))
    assert r.value == 5 and r.construction == "lp-simplex"
    r = lower_bound(Space(math.inf, (2, 3)))
    assert r.value == 12 and r.construction == "product"
    with pytest.raises(UnsupportedRequestError):
        lower_bound(Space(2.0, (1, 1)), 2)


def test_upper_lower_consistency():
    ps = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, math.inf]
    blockss = [(1,), (1, 1), (1,) * 5, (1,) * 10, (2, 3), (4, 4), (2, 2, 2), (3, 1, 2)]
    for p in ps:
        for blocks in blockss:
            if sum(blocks) > 10:
                continue
            sp = Space(p, blocks)
            lo = lower_bound(sp).value
            for r in enumerate_bounds(sp, 1):
                if r.side == "upper" and isinstance(r.value, int) and r.kind in ("explicit", "exact"):
                    assert r.value >= lo, (p, blocks, r.source, r.value, lo)


def test_euclidean_exact_dominates_for_p2():
    for n in range(1, 11):
        sp = Space(2.0, (1,) * n)
        best = best_explicit_upper(sp, 1)
        assert best.value == n + 1
        for r in enumerate_bounds(sp, 1):
            if r.side == "upper" and r.kind in ("explicit", "exact"):
                assert r.value >= n + 1


def test_remark_reduces_to_two_block_formula():
    for (a, b), p in [((2, 3), 4), ((1, 1), 2), ((4, 2), 6)]:
        reps = enumerate_bounds(Space(float(p), (a, b)), 1)
        assert _find(reps, "even-p-blocks").value == _find(reps, "thm1.5").value


def test_cluster_combine():
    assert cluster_combine([7], 2) == 49
    assert cluster_combine([4, 10], 3) == 40
    assert cluster_combine([3, 20], 3) == 60
    with pytest.raises(InputError):
        cluster_combine([4], 3)
    with pytest.raises(InputError):
        cluster_combine([4, 10], 1)


def test_load_config(tmp_path):
    f = tmp_path / "constants.cfg"
    f.write_text("# constants\nc_absolute = 2.5\nc_ps = 7.25\n"
                 "treat_asymptotic_as_explicit = true\n")
    cfg = load_config(str(f))
    assert cfg.c_absolute == 2.5
    assert cfg.constants == {"c_ps": 7.25}
    assert cfg.treat_asymptotic_as_explicit
    bad = tmp_path / "bad.cfg"
    bad.write_text("c_absolute two\n")
    with pytest.raises(InputError):
        load_config(str(bad))
    with pytest.raises(InputError):
        load_config(str(tmp_path / "missing.cfg"))
    for line in ("c_absolute = -1", "c_absolute = inf", "c_ps = nan"):
        bad.write_text(line + "\n")
        with pytest.raises(InputError):
            load_config(str(bad))


def test_treat_asymptotic_as_explicit():
    # with a tiny configured constant the asymptotic bound undercuts every
    # explicit one, and the flag lets the selector use its ceiling
    cfg = BoundConfig(treat_asymptotic_as_explicit=True, constants={"c_p": 1e-9})
    got = best_explicit_upper(Space(9.0, (1,) * 3), 1, cfg)
    assert got.kind == "asymptotic"
    # off by default: the same constants never win the selection
    byv = best_explicit_upper(Space(9.0, (1,) * 3), 1, BoundConfig(constants={"c_p": 1e-9}))
    assert byv.kind in ("explicit", "exact")
