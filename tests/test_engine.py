import math
import re
import sys
import warnings

import pytest

import posicat.engine
from posicat import (
    BoundedAffinePerm,
    Engine,
    enumerate_theta,
    parse_perm,
)
from posicat.affine import (
    _c_class_members,
    _conj_s,
    _cycles,
    _displacements,
    _first_double_move,
    _has_double_crossing,
    _is_bounded,
    _left_s,
    _relabel_restriction,
    _remove_fixed,
    _residue_positions,
    _value_at,
)
from posicat.engine import _apart_step, _same_cycle, _same_step
from posicat.errors import NotBounded, PosicatError, PreconditionViolated
from posicat.harness import _bounded_windows
from posicat.polynomial import IntPoly, ONE, Q, Q_MINUS_1, ZERO

from poly_reference import poly_add

FIG2 = BoundedAffinePerm([3, 6, 4, 5, 7, 8, 9])
FIG3 = BoundedAffinePerm.from_cycle([0, 3, 2, 5, 1, 4])


def test_period_one_base(engine):
    assert engine.compute_R(BoundedAffinePerm([0])) == IntPoly([1])
    assert engine.compute_C(BoundedAffinePerm([1])) == 1


def test_theta_1_2_walkthrough(engine):
    f = BoundedAffinePerm([1, 2])
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
        for f in map(BoundedAffinePerm, _bounded_windows(n)):
            assert engine.compute_C(f) >= 1


def test_decoupling_example(engine):
    f = BoundedAffinePerm([1, 4, 3, 6])
    assert engine.compute_C_decoupled(f) == 1
    assert engine.compute_C(f) == 1
    assert engine.compute_C_decoupled(FIG2) == engine.compute_C(FIG2)


def test_decoupling_exhaustive(engine):
    for n in range(1, 6):
        for f in map(BoundedAffinePerm, _bounded_windows(n)):
            if f.cycle_count() > 1:
                assert engine.compute_C_decoupled(f) == engine.compute_C(f)


def test_decoupled_product_equals_the_product_over_every_cycle(engine):
    # a fixed residue restricts to a period-1 window, with C = 1 by rule 2,
    # so skipping those factors leaves the product over all cycles
    for n in range(1, 7):
        for w in _bounded_windows(n):
            f = BoundedAffinePerm(w, _validated=True)
            factors = {
                cyc: engine.compute_C(BoundedAffinePerm(_relabel_restriction(w, cyc)))
                for cyc in f._cycle_tuples()
            }
            assert all(c == 1 for cyc, c in factors.items() if len(cyc) == 1)
            assert engine.compute_C_decoupled(f) == math.prod(factors.values())


def test_decoupling_builds_one_restriction_per_cycle_of_length_two_or_more(monkeypatch):
    # the C ring decouples its own nodes through the same function, but a
    # node of a restriction's reduction has a smaller period than f; so the
    # calls on the window of f, the perm being decoupled, are the method's own
    built = []
    original = posicat.engine._relabel_restriction

    def counted(w, residues):
        if w == f.window:
            built.append(residues)
        return original(w, residues)

    monkeypatch.setattr(posicat.engine, "_relabel_restriction", counted)
    engine = Engine()
    for n in range(1, 6):
        for f in map(BoundedAffinePerm, _bounded_windows(n)):
            built.clear()
            engine.compute_C_decoupled(f)
            assert built == [cyc for cyc in f._cycle_tuples() if len(cyc) >= 2]
    # [1, 3, 2] has the 2-cycle {0, 1} and the fixed residue 2
    f = BoundedAffinePerm([1, 3, 2])
    built.clear()
    assert engine.compute_C_decoupled(f) == 1 and built == [(0, 1)]


def test_double_crossing_recurrence_example(engine):
    g = BoundedAffinePerm([1, 4, 3, 5, 7])
    assert engine.compute_C(g) == 1
    assert engine.double_crossing_recurrence_check(g, 1)
    conj = BoundedAffinePerm(_conj_s(g.window, 1, g._pos))
    assert conj == BoundedAffinePerm.translation(2, 5)
    f1, f2 = g.resolve_crossing((1, 2))
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


def test_decoupled_nonpositive_C_names_the_part(monkeypatch):
    # the parts of (1, 4, 3, 6) are the restrictions to {0, 1} and {2, 3},
    # both (1, 2); no BoundedAffinePerm is built for them, yet the message
    # names the part as one
    engine = Engine()
    monkeypatch.setattr(engine, "_reduce", lambda w, ring: 0)
    with pytest.raises(PosicatError, match=re.escape("BoundedAffinePerm([1, 2])")):
        engine.compute_C_decoupled(BoundedAffinePerm([1, 4, 3, 6]))
    with pytest.raises(PosicatError, match=re.escape("BoundedAffinePerm([1, 4, 3, 6])")):
        engine.compute_C(BoundedAffinePerm([1, 4, 3, 6]))


def test_ring_steps_equal_generic_arithmetic():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys = st.lists(st.integers(-20, 20), max_size=8).map(IntPoly)

    @hypothesis.settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @hypothesis.given(polys, polys)
    @hypothesis.example(ZERO, ZERO)
    @hypothesis.example(ONE, ZERO)
    @hypothesis.example(ZERO, ONE)
    @hypothesis.example(IntPoly([0, 0, 1]), IntPoly([0, -1]))  # x + q y = 0
    @hypothesis.example(ONE, IntPoly([0, -1]))  # (q-1)^2 x + q y = 1 - 2q
    @hypothesis.example(IntPoly([5]), IntPoly([1, 2, 3, 4]))  # y's top past x's
    def check(x, y):
        assert _same_step(x, y).coeffs == poly_add(x, Q * y).coeffs
        assert _apart_step(x, y).coeffs == poly_add(Q_MINUS_1 * Q_MINUS_1 * x, Q * y).coeffs

    check()
    assert _apart_step(ONE, IntPoly([0, -1])).coeffs == (1, -2)
    assert _same_step(IntPoly([0, 0, 1]), IntPoly([0, -1])).coeffs == ()


def test_double_crossing_recurrence_unbounded_conjugate_raises(monkeypatch, engine):
    g = BoundedAffinePerm([1, 4, 3, 5, 7])
    unbounded = (0, 4, 3, 5, 10)  # f(4) = 10 > 4 + 5
    assert not _is_bounded(unbounded)
    monkeypatch.setattr(posicat.engine, "_conj_s", lambda w, i, pos: unbounded)
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
            for w in _c_class_members(f.window):
                member = BoundedAffinePerm(w)
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


def test_trace_emission():
    records = []
    engine = Engine(trace_hook=records.append)
    engine.compute_C(BoundedAffinePerm([1, 2]))
    rules = [r["rule"] for r in records]
    assert rules == ["simple_factor", "remove_fixed_points", "base"]
    assert records[0]["window"] == [1, 2]
    assert records[-1]["window"] == [0]


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


@pytest.mark.parametrize("k, n", [(8, 21), (7, 22), (8, 23), (9, 22), (10, 23)])
def test_top_cell_catalan_is_the_rational_catalan_number(k, n):
    # for coprime k, n the translation is the top cell, with C = binom(n, k)/n;
    # each takes a cold engine well under a second since the C ring decouples
    assert math.gcd(k, n) == 1
    assert Engine().compute_C(BoundedAffinePerm.translation(k, n)) == math.comb(n, k) // n


def test_trace_contains_double_move():
    records = []
    eng = Engine(trace_hook=records.append)
    eng.compute_C(BoundedAffinePerm.from_cycle([0, 3, 2, 5, 1, 4]))
    rules = {r["rule"] for r in records}
    assert "double_move" in rules and "base" in rules


# C, R~ and the counters of a cold engine for seeded random cycles.  The
# values were taken from the engine before its nodes read the double-move
# test off f.  The R~ counters are from the engine whose nested windows are
# keyed by their normal form alone; r_hits and r_misses are unchanged since
# the engine that also keyed them by their own window.  The C counters are
# from the engine whose C ring answers a window with two or more cycles as
# the product over its cycles.  Equal counters mean the same reduction path.
GOLDEN = [
    ([0, 8, 4, 3, 9, 1, 7, 5, 6, 2], 2, [1, 0, 1],
     {"r_hits": 2, "r_misses": 4, "c_hits": 2, "c_misses": 3,
      "r_entries": 5, "c_entries": 4}),
    ([0, 6, 3, 1, 2, 4, 5, 7, 8, 9], 1, [1],
     {"r_hits": 0, "r_misses": 1, "c_hits": 0, "c_misses": 1,
      "r_entries": 2, "c_entries": 2}),
    ([0, 9, 8, 6, 3, 7, 1, 4, 10, 5, 2], 5, [1, 0, 1, 1, 1, 0, 1],
     {"r_hits": 11, "r_misses": 20, "c_hits": 8, "c_misses": 9,
      "r_entries": 21, "c_entries": 10}),
    ([0, 8, 2, 3, 1, 10, 4, 7, 9, 6, 5], 3, [1, 0, 1, 0, 1],
     {"r_hits": 4, "r_misses": 6, "c_hits": 4, "c_misses": 5,
      "r_entries": 7, "c_entries": 6}),
    ([0, 6, 8, 1, 7, 11, 4, 3, 5, 10, 9, 2], 7, [1, 0, 1, 1, 1, 1, 1, 0, 1],
     {"r_hits": 15, "r_misses": 17, "c_hits": 8, "c_misses": 9,
      "r_entries": 18, "c_entries": 10}),
    ([0, 3, 10, 1, 9, 11, 5, 4, 2, 7, 8, 6], 5, [1, 0, 1, 1, 1, 0, 1],
     {"r_hits": 13, "r_misses": 15, "c_hits": 6, "c_misses": 7,
      "r_entries": 16, "c_entries": 8}),
]


# The same for eight random 12-cycles drawn with random.Random("golden-n12").
# The values and r_hits/r_misses were taken from the engine whose nodes
# scanned the double moves one index at a time and built a residue table per
# conjugate in the class search; the other counters as for GOLDEN.
GOLDEN_12 = [
    ([0, 8, 6, 2, 1, 3, 7, 4, 10, 5, 11, 9], 7, [1, 0, 1, 1, 1, 1, 1, 0, 1],
     {"r_hits": 19, "r_misses": 22, "c_hits": 8, "c_misses": 9,
      "r_entries": 23, "c_entries": 10}),
    ([0, 11, 6, 3, 7, 9, 8, 5, 10, 2, 4, 1], 3, [1, 0, 1, 0, 1],
     {"r_hits": 5, "r_misses": 7, "c_hits": 4, "c_misses": 5,
      "r_entries": 8, "c_entries": 6}),
    ([0, 6, 2, 11, 3, 4, 9, 10, 8, 5, 7, 1], 3, [1, 0, 1, 0, 1],
     {"r_hits": 4, "r_misses": 5, "c_hits": 4, "c_misses": 5,
      "r_entries": 6, "c_entries": 6}),
    ([0, 11, 2, 3, 10, 9, 1, 8, 4, 7, 5, 6], 2, [1, 0, 1],
     {"r_hits": 2, "r_misses": 3, "c_hits": 2, "c_misses": 3,
      "r_entries": 4, "c_entries": 4}),
    ([0, 2, 9, 7, 4, 11, 10, 5, 6, 3, 1, 8], 5, [1, 0, 1, 1, 1, 0, 1],
     {"r_hits": 11, "r_misses": 16, "c_hits": 8, "c_misses": 9,
      "r_entries": 17, "c_entries": 10}),
    ([0, 1, 11, 3, 8, 4, 5, 10, 6, 2, 7, 9], 5, [1, 0, 1, 1, 1, 0, 1],
     {"r_hits": 11, "r_misses": 15, "c_hits": 7, "c_misses": 8,
      "r_entries": 16, "c_entries": 9}),
    ([0, 6, 5, 3, 7, 11, 1, 4, 10, 2, 9, 8], 7, [1, 0, 1, 1, 1, 1, 1, 0, 1],
     {"r_hits": 27, "r_misses": 33, "c_hits": 8, "c_misses": 9,
      "r_entries": 34, "c_entries": 10}),
    ([0, 1, 10, 5, 6, 9, 2, 8, 4, 7, 3, 11], 3, [1, 0, 1, 0, 1],
     {"r_hits": 4, "r_misses": 5, "c_hits": 4, "c_misses": 5,
      "r_entries": 6, "c_entries": 6}),
]


@pytest.mark.parametrize("cycle, c, rtilde, stats", GOLDEN + GOLDEN_12)
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

    def counted(w, i, pos):
        built.append((w, i))
        return original(w, i, pos)

    monkeypatch.setattr(engine_module, "_conj_s", counted)
    # each ring builds g only for the double move it takes, its first
    total = switched = 0
    for method in ("compute_Rtilde", "compute_C"):
        for cycle, *_ in GOLDEN + GOLDEN_12:
            built.clear()
            records = []
            engine = Engine(trace_hook=records.append)
            getattr(engine, method)(BoundedAffinePerm.from_cycle(cycle))
            moves = [(tuple(r["window"]), r["i"]) for r in records if r["rule"] == "double_move"]
            assert built == moves
            total += len(moves)
            switched += sum(i != _first_double_move(w, _residue_positions(w)) for w, i in moves)
    assert total > 0 and switched == 0


def test_same_cycle_is_conjugation_invariant():
    # conjugating by s_i maps the cycle of i onto the cycle of i+1, so i and
    # i+1 share a cycle of s_i f s_i exactly when they share one of f
    checked = 0
    for n in range(2, 8):
        for w in _bounded_windows(n):
            pos = _residue_positions(w)
            for i in range(n):
                assert _same_cycle(w, i) == _same_cycle(_conj_s(w, i, pos), i), (w, i)
                checked += 1
    assert checked == 109590


def _double_moves(w):
    """Each i where the built g = s_i f s_i is bounded with a double crossing
    at i, with whether i, i+1 share a cycle of g."""
    pos = _residue_positions(w)
    moves = []
    for i in range(len(w)):
        g = _conj_s(w, i, pos)
        if _is_bounded(g) and _has_double_crossing(g, i, _residue_positions(g)):
            moves.append((i, _same_cycle(g, i)))
    return moves


def test_c_ring_decouples_every_node_with_two_or_more_cycles(monkeypatch):
    # the C ring answers each normal window with two or more cycles by one
    # `decouple` record and one restriction per cycle, so it steps only on
    # single cycles and every double move it takes shares its cycle; the R~
    # ring never decouples and takes its first double move, apart or not
    built = []
    original = posicat.engine._relabel_restriction

    def counted(w, residues):
        built.append((tuple(w), tuple(residues)))
        return original(w, residues)

    monkeypatch.setattr(posicat.engine, "_relabel_restriction", counted)
    rings = {"compute_C": [], "compute_Rtilde": []}
    reduced = []
    for method, records in rings.items():
        # one engine for every bounded window with n <= 6, a cold one per cycle
        runs = [(Engine(trace_hook=records.append),
                 [BoundedAffinePerm(w) for n in range(2, 7) for w in _bounded_windows(n)])]
        runs += [(Engine(trace_hook=records.append), [BoundedAffinePerm.from_cycle(cycle)])
                 for cycle, *_ in GOLDEN + GOLDEN_12]
        for engine, perms in runs:
            if method == "compute_C":
                reduce = engine._reduce

                def recorded(w, ring, reduce=reduce):
                    reduced.append(w)
                    return reduce(w, ring)

                monkeypatch.setattr(engine, "_reduce", recorded)
            for perm in perms:
                getattr(engine, method)(perm)
    decouples = [r for r in rings["compute_C"] if r["rule"] == "decouple"]
    assert [tuple(r["window"]) for r in decouples] == [w for w in reduced if len(_cycles(w)) > 1]
    assert all(r["cycles"] == _cycles(r["window"]) for r in decouples)
    restrictions = [(tuple(r["window"]), tuple(c)) for r in decouples for c in r["cycles"]]
    assert sorted(built) == sorted(restrictions)
    apart = 0
    for method, records in rings.items():
        for record in records:
            assert method == "compute_C" or record["rule"] != "decouple"
            if record["rule"] != "double_move":
                continue
            w = tuple(record["window"])
            assert (record["i"], record["same_cycle"]) == _double_moves(w)[0], (method, w)
            if method == "compute_C":
                assert record["same_cycle"] and len(_cycles(w)) == 1
            apart += not record["same_cycle"]
    assert decouples and apart > 0


def test_translation_cold_engine_stats():
    # C(7, 16) on a cold engine; the README's `compute --stats` example
    engine = Engine()
    assert engine.compute_C(BoundedAffinePerm.translation(7, 16)) == 715
    assert engine.stats == {"r_hits": 0, "r_misses": 0, "c_hits": 312, "c_misses": 316,
                            "r_entries": 0, "c_entries": 316}


def _stepwise_normal_form(w):
    """Reference normalisation: drop the fixed residues, else pass to s_i f
    at the first simple factor i; repeat.  Returns the normal form and the
    (rule, window, i) records of the steps."""
    records = []
    while len(w) > 1:
        n = len(w)
        reduced = _remove_fixed(w)
        if reduced != w:
            records.append(("remove_fixed_points", w, None))
            w = reduced
            continue
        for i in range(n):
            if w[i] == i + 1 or _value_at(w, i + 1) == i + n:
                records.append(("simple_factor", w, i))
                w = _left_s(w, i)
                break
        else:
            break
    return w, records


def _simple_factor_case(w, i):
    """Which branch of the fused loop a simple factor at i takes."""
    n = len(w)
    d = _displacements(w)
    if i == n - 1:
        return "wrap"
    if d[i] == 1 and d[i + 1] == n - 1:
        return "two_fixed"
    return "drop_i" if d[i] == 1 else "drop_i_plus_1"


def test_normalise_matches_stepwise_reference():
    cases = set()
    windows = 0
    for n in range(1, 7):
        for f in map(BoundedAffinePerm, _bounded_windows(n)):
            w = f.window
            records = []
            engine = Engine(trace_hook=records.append)
            normal, d = engine._normalise(w, _displacements(w))
            expected, steps = _stepwise_normal_form(w)
            assert normal == expected, w
            assert d == _displacements(normal)
            assert (normal is w) == (not steps)
            got = [(r["rule"], tuple(r["window"]), r.get("i")) for r in records]
            assert got == steps, w
            cases.update(_simple_factor_case(v, i) for rule, v, i in steps if rule == "simple_factor")
            windows += 1
    assert windows == 2371
    assert cases == {"wrap", "two_fixed", "drop_i", "drop_i_plus_1"}


def test_class_search_normalises_the_member_it_takes():
    # at n <= 6 every class search ends at a member with a simple factor,
    # which the loop normalises before the member's step
    taken = 0
    for n in range(2, 7):
        for f in map(BoundedAffinePerm, _bounded_windows(n)):
            records = []
            Engine(trace_hook=records.append).compute_Rtilde(f)
            for searched, after in zip(records, records[1:]):
                if searched["rule"] != "class_search":
                    continue
                w = BoundedAffinePerm(searched["window"])
                member = BoundedAffinePerm(after["window"])
                assert after["rule"] == "simple_factor"
                assert member != w and member.window in _c_class_members(w.window)
                assert Engine().compute_Rtilde(member) == Engine().compute_Rtilde(w)
                taken += 1
    assert taken > 0


def test_engine_leaves_the_recursion_limit_alone():
    import posicat.engine as engine_module

    limit = sys.getrecursionlimit()
    Engine()
    assert sys.getrecursionlimit() == limit
    raised = max(limit, engine_module._RECURSION_LIMIT)
    during = []

    def hook(record):
        # a nested computation finds the limit raised and leaves it so
        Engine().compute_C(BoundedAffinePerm.translation(1, 3))
        during.append(sys.getrecursionlimit())

    Engine(trace_hook=hook).compute_C(BoundedAffinePerm.translation(3, 7))
    assert during and set(during) == {raised}
    assert sys.getrecursionlimit() == limit
    Engine().compute_C(BoundedAffinePerm.translation(2, 9))
    assert sys.getrecursionlimit() == limit


def test_limit_is_restored_when_the_computation_raises(monkeypatch):
    import posicat.engine as engine_module

    limit = sys.getrecursionlimit()
    engine = Engine()

    def fail(w, ring):
        assert sys.getrecursionlimit() >= engine_module._RECURSION_LIMIT
        raise RuntimeError("boom")

    monkeypatch.setattr(engine, "_step", fail)
    with pytest.raises(RuntimeError):
        engine.compute_Rtilde(BoundedAffinePerm.translation(2, 5))
    assert sys.getrecursionlimit() == limit


def test_the_recursion_guard_runs_once_per_request(monkeypatch):
    # a cold C(7, 16) reduces 316 normal windows under one raised limit
    reads, writes = [], []
    get, set_ = sys.getrecursionlimit, sys.setrecursionlimit
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: reads.append(1) or get())
    monkeypatch.setattr(sys, "setrecursionlimit", lambda n: writes.append(n) or set_(n))
    engine = Engine()
    value = engine.compute_C(BoundedAffinePerm.translation(7, 16))
    monkeypatch.undo()
    assert value == 715 and engine.stats["c_misses"] == 316
    assert len(reads) <= 1 and len(writes) <= 2


def test_no_hypothesis_recursion_limit_warning():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, database=None, max_examples=5, deadline=None)
    @hypothesis.given(st.integers(2, 9))
    def fresh_engines(n):
        assert Engine().compute_C(BoundedAffinePerm.translation(1, n)) == 1

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fresh_engines()
    assert not [w for w in caught if "recursion limit" in str(w.message)]


def test_clear_empties_tables_and_counters():
    # an engine is emptied by building a new one: it starts from empty
    # tables and zero counters, and reproduces the values and stats
    engine = Engine()
    perm = BoundedAffinePerm.from_cycle(GOLDEN[2][0])
    c = engine.compute_C(perm)
    rtilde = engine.compute_Rtilde(perm)
    assert engine.stats == GOLDEN[2][3]
    engine = Engine()
    assert engine.stats == dict.fromkeys(GOLDEN[2][3], 0)
    assert engine.compute_C(perm) == c
    assert engine.compute_Rtilde(perm) == rtilde
    assert engine.stats == GOLDEN[2][3]
