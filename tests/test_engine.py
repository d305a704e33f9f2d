import math

import pytest

from posicat import (
    BoundedAffinePerm,
    Engine,
    compute_C,
    compute_R,
    compute_Rtilde,
    enumerate_bounded,
    enumerate_theta,
    parse_perm,
)
from posicat.affine import MulResult
from posicat.errors import NotBounded, PosicatError, PreconditionViolated
from posicat.polynomial import IntPoly, ONE

FIG2 = BoundedAffinePerm.from_window([3, 6, 4, 5, 7, 8, 9])
FIG3 = BoundedAffinePerm.from_cycle([0, 3, 2, 5, 1, 4])


def test_period_one_base(engine):
    assert engine.compute_R(BoundedAffinePerm.from_window([0])) == IntPoly([1])
    assert engine.compute_C(BoundedAffinePerm.from_window([1])) == 1


def test_theta_1_2_walkthrough(engine):
    f = BoundedAffinePerm.from_window([1, 2])
    assert engine.compute_R(f) == IntPoly([-1, 1])
    assert engine.compute_Rtilde(f) == IntPoly([1])
    assert engine.compute_C(f) == 1


def test_rational_catalan_small(engine):
    assert engine.compute_Rtilde(BoundedAffinePerm.translation(2, 5)).eval_at(1) == 2
    assert engine.compute_C(BoundedAffinePerm.translation(3, 7)) == 5
    assert engine.compute_C(BoundedAffinePerm.translation(1, 2)) == 1


def test_named_instances(engine):
    assert engine.compute_C(FIG2) == 3
    e75 = parse_perm("cycle:(1,4,6,2,5,7,3)", one_based=True)
    assert engine.compute_C(e75) == 3
    assert engine.compute_C(FIG3) == 2
    assert engine.compute_Rtilde(FIG3) == IntPoly([1, 0, 1])


def test_rtilde_at_one_is_catalan(engine):
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            assert engine.compute_Rtilde(f).eval_at(1) == engine.compute_C(f)


def _q_factorial(m):
    out = ONE
    for j in range(1, m + 1):
        out = out * IntPoly([1] * j)
    return out


def test_translation_rtilde_is_rational_q_catalan(engine):
    # for coprime k, n the translation's R~ is [n-1]!_q / ([k]!_q [n-k]!_q)
    # (Armstrong, Loehr and Warrington, arXiv:1403.1845), which fixes every
    # coefficient where the q = 1 checks see only the sum
    frames = 0
    for n in range(2, 11):
        for k in range(1, n):
            if math.gcd(k, n) != 1:
                continue
            expected = _q_factorial(n - 1).exact_div(_q_factorial(k) * _q_factorial(n - k))
            assert engine.compute_Rtilde(BoundedAffinePerm.translation(k, n)) == expected, (k, n)
            frames += 1
    assert frames == 31


def test_exact_division_by_full_power(engine):
    # single-cycle permutations divide by (q-1)^(n-1)
    from posicat.polynomial import Q_MINUS_1

    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            r = engine.compute_R(f)
            assert r.exact_div(Q_MINUS_1 ** (n - 1)) == engine.compute_Rtilde(f)


def test_sigma_invariance(engine):
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            s = f.cyclic_shift()
            assert engine.compute_C(s) == engine.compute_C(f)
            assert engine.compute_Rtilde(s) == engine.compute_Rtilde(f)


def test_positivity(engine):
    for n in range(1, 6):
        for f in enumerate_bounded(n):
            assert engine.compute_C(f) >= 1


def test_decoupling_example(engine):
    f = BoundedAffinePerm.from_window([1, 4, 3, 6])
    assert engine.compute_C_decoupled(f) == 1
    assert engine.compute_C(f) == 1
    assert engine.compute_C_decoupled(FIG2) == engine.compute_C(FIG2)


def test_decoupling_exhaustive(engine):
    for n in range(1, 6):
        for f in enumerate_bounded(n):
            if f.cycle_count() > 1:
                assert engine.compute_C_decoupled(f) == engine.compute_C(f)


def test_double_crossing_recurrence_example(engine):
    g = BoundedAffinePerm.from_window([1, 4, 3, 5, 7])
    assert engine.compute_C(g) == 1
    assert engine.double_crossing_recurrence_check(g, 1)
    conj = g.conjugate_s(1).perm
    assert conj == BoundedAffinePerm.translation(2, 5)
    f1, f2, _ = g.resolve_crossing((1, 2))
    assert engine.compute_C(f1) == 1 and engine.compute_C(f2) == 1


def test_double_crossing_recurrence_exhaustive(engine):
    checked = 0
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            for i in range(n):
                if f.has_double_crossing_at(i):
                    assert engine.double_crossing_recurrence_check(f, i)
                    checked += 1
    assert checked == 94


def test_nonpositive_C_raises_posicat_error(monkeypatch):
    # the check is an explicit raise, so it also holds under python -O
    engine = Engine()
    monkeypatch.setattr(engine, "_reduce", lambda w, ring: 0)
    with pytest.raises(PosicatError):
        engine.compute_C(BoundedAffinePerm.translation(2, 5))


def test_double_crossing_recurrence_unbounded_conjugate_raises(monkeypatch, engine):
    g = BoundedAffinePerm.from_window([1, 4, 3, 5, 7])
    unbounded = MulResult((0, 4, 3, 5, 8), False, 2, None)
    monkeypatch.setattr(BoundedAffinePerm, "conjugate_s", lambda self, i: unbounded)
    with pytest.raises(NotBounded):
        engine.double_crossing_recurrence_check(g, 1)


def test_double_crossing_recurrence_precondition(engine):
    with pytest.raises(PreconditionViolated):
        engine.double_crossing_recurrence_check(BoundedAffinePerm.translation(2, 5), 0)


def test_class_invariance(engine):
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            c = engine.compute_C(f)
            rt = engine.compute_Rtilde(f)
            for member in f.c_equivalence_class():
                assert engine.compute_C(member) == c
                assert engine.compute_Rtilde(member) == rt


def test_determinism_across_cache_states():
    cold = Engine()
    warm = Engine()
    perms = list(enumerate_theta(None, 5))
    for f in perms:
        warm.compute_R(f)
    for f in perms:
        assert cold.compute_R(f) == warm.compute_R(f)
        assert cold.compute_C(f) == warm.compute_C(f)


def test_module_level_functions_share_default_engine():
    f = BoundedAffinePerm.translation(2, 7)
    assert compute_C(f) == math.comb(7, 2) // 7
    assert compute_Rtilde(f).eval_at(1) == compute_C(f)
    assert compute_R(f).eval_at(2) > 0


def test_trace_emission():
    records = []
    engine = Engine(trace_hook=records.append)
    engine.compute_C(BoundedAffinePerm.from_window([1, 2]))
    rules = [r["rule"] for r in records]
    assert rules == ["simple_factor", "remove_fixed_points", "base"]
    assert records[0]["window"] == [1, 2]


def test_cache_stats():
    engine = Engine()
    f = BoundedAffinePerm.translation(3, 7)
    engine.compute_C(f)
    misses = engine.stats["c_misses"]
    assert misses > 0 and engine.stats["c_entries"] > 0
    engine.compute_C(f.cyclic_shift())  # same sigma-orbit: pure cache hit
    assert engine.stats["c_misses"] == misses
    assert engine.stats["c_hits"] > 0


def test_larger_coprime_value(engine):
    assert engine.compute_C(BoundedAffinePerm.translation(5, 12)) == 66


def test_trace_contains_double_move():
    records = []
    eng = Engine(trace_hook=records.append)
    eng.compute_C(BoundedAffinePerm.from_cycle([0, 3, 2, 5, 1, 4]))
    rules = {r["rule"] for r in records}
    assert "double_move" in rules and "base" in rules


# C, R~ and the counters of a cold engine for seeded random cycles, taken
# from the engine before its nodes read the double-move test off f; equal
# counters mean the same reduction path.
GOLDEN = [
    ([0, 8, 4, 3, 9, 1, 7, 5, 6, 2], 2, [1, 0, 1],
     {"r_hits": 2, "r_misses": 29, "c_hits": 1, "c_misses": 29,
      "r_entries": 30, "c_entries": 30}),
    ([0, 6, 3, 1, 2, 4, 5, 7, 8, 9], 1, [1],
     {"r_hits": 0, "r_misses": 19, "c_hits": 0, "c_misses": 19,
      "r_entries": 19, "c_entries": 19}),
    ([0, 9, 8, 6, 3, 7, 1, 4, 10, 5, 2], 5, [1, 0, 1, 1, 1, 0, 1],
     {"r_hits": 11, "r_misses": 74, "c_hits": 4, "c_misses": 60,
      "r_entries": 82, "c_entries": 66}),
    ([0, 8, 2, 3, 1, 10, 4, 7, 9, 6, 5], 3, [1, 0, 1, 0, 1],
     {"r_hits": 4, "r_misses": 41, "c_hits": 2, "c_misses": 39,
      "r_entries": 42, "c_entries": 40}),
    ([0, 6, 8, 1, 7, 11, 4, 3, 5, 10, 9, 2], 7, [1, 0, 1, 1, 1, 1, 1, 0, 1],
     {"r_hits": 15, "r_misses": 82, "c_hits": 5, "c_misses": 58,
      "r_entries": 83, "c_entries": 58}),
    ([0, 3, 10, 1, 9, 11, 5, 4, 2, 7, 8, 6], 5, [1, 0, 1, 1, 1, 0, 1],
     {"r_hits": 13, "r_misses": 88, "c_hits": 4, "c_misses": 57,
      "r_entries": 89, "c_entries": 58}),
]


@pytest.mark.parametrize("cycle, c, rtilde, stats", GOLDEN)
def test_golden_values_and_cold_engine_stats(cycle, c, rtilde, stats):
    engine = Engine()
    perm = BoundedAffinePerm.from_cycle(cycle)
    assert engine.compute_C(perm) == c
    assert list(engine.compute_Rtilde(perm).coeffs) == rtilde
    assert engine.stats == stats


def test_step_builds_the_conjugate_only_for_the_chosen_index(monkeypatch):
    import posicat.engine as engine_module

    built = []
    original = engine_module._conj_s

    def counted(w, i):
        built.append((w, i))
        return original(w, i)

    monkeypatch.setattr(engine_module, "_conj_s", counted)
    records = []
    engine = Engine(trace_hook=records.append)
    engine.compute_Rtilde(BoundedAffinePerm.from_cycle(GOLDEN[2][0]))
    moves = [(tuple(r["window"]), r["i"]) for r in records if r["rule"] == "double_move"]
    assert moves and built == moves
