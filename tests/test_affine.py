import random

import pytest

from posicat import (
    BoundedAffinePerm,
    enumerate_theta,
    min_length_witness,
    parse_perm,
)
from posicat.harness import _bounded_windows
from posicat.affine import (
    _c_class_members,
    _canonical_key,
    _conj_s,
    _drop,
    _first_double_move,
    _has_double_crossing,
    _inverse_at,
    _is_bounded,
    _left_s,
    _length,
    _orbit_key,
    _relabel_restriction,
    _remove_fixed,
    _residue_positions,
    _right_s,
    _sigma,
    _value_at,
    _window_from_cycle,
)
from posicat.errors import (
    DegeneratePeriod,
    InvalidFrame,
    MalformedText,
    NotAnInversion,
    NotBijective,
    NotBounded,
    NotNCycle,
    NotTheta,
    PosicatError,
)

FIG2 = (3, 6, 4, 5, 7, 8, 9)


# -- references built one O(n) window at a time ---------------------------------

def _left_delta(w, i, pos):
    """Length change of s_i o f: +1 iff the values i, i+1 sit in order."""
    return 1 if _inverse_at(w, i, pos) < _inverse_at(w, i + 1, pos) else -1


def _right_delta(w, i):
    """Length change of f o s_i: +1 iff f(i) < f(i+1)."""
    return 1 if _value_at(w, i) < _value_at(w, i + 1) else -1


def _conj_ref(w, i):
    """s_i f s_i, built as two whole-window transpositions."""
    return _left_s(_right_s(w, i), i)


def _conj_delta(w, i):
    """Length change of s_i f s_i, in {-2, 0, +2}."""
    g = _right_s(w, i)
    return _right_delta(w, i) + _left_delta(g, i, _residue_positions(g))


def _class_members_ref(w):
    """The class BFS that builds each conjugate and measures its length
    change from scratch; `_c_class_members` must discover the same order."""
    seen = {w}
    queue = [w]
    for cur in queue:
        for i in range(len(w)):
            if _conj_delta(cur, i) != 0:
                continue
            g = _conj_ref(cur, i)
            if g in seen or not _is_bounded(g):
                continue
            seen.add(g)
            queue.append(g)
    return queue


def _random_cycle_windows(seed, n, count):
    """Windows of `count` seeded random single n-cycles."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rest = list(range(1, n))
        rng.shuffle(rest)
        out.append(_window_from_cycle([0] + rest))
    return out


def _sample_windows():
    """Every bounded window with 2 <= n <= 6, then 200 seeded random cycles
    at each of n = 12, 16 and 18."""
    for n in range(2, 7):
        yield from _bounded_windows(n)
    for n in (12, 16, 18):
        yield from _random_cycle_windows(f"sample-{n}", n, 200)


def brute_length(perm):
    n = perm.n
    return sum(
        1 for i in range(n) for j in range(i + 1, i + n) if perm(i) > perm(j)
    )


# -- construction -------------------------------------------------------------

def test_from_window_named_instance():
    f = BoundedAffinePerm(FIG2)
    assert f.n == 7 and f.k == 3
    assert f.is_theta
    assert (f.k, f.n - f.k) == (3, 4)


def test_from_window_identity_period_one():
    f = BoundedAffinePerm([0])
    assert f.n == 1 and f.k == 0
    assert not f.is_theta


def test_from_window_errors():
    with pytest.raises(NotBounded):
        BoundedAffinePerm([3, 1])
    with pytest.raises(NotBijective):
        BoundedAffinePerm([0, 2])
    with pytest.raises(PosicatError):
        BoundedAffinePerm([])


def test_from_cycle_fig3():
    f = BoundedAffinePerm.from_cycle([0, 3, 2, 5, 1, 4])
    assert f.window == (3, 4, 5, 8, 6, 7)
    assert f.k == 3
    assert f._cycle_tuples() == ((0, 3, 2, 5, 1, 4),)


def test_from_cycle_theta_1_2():
    f = BoundedAffinePerm.from_cycle([0, 1])
    assert f.window == (1, 2) and f.k == 1


def test_from_cycle_errors():
    with pytest.raises(NotNCycle):
        BoundedAffinePerm.from_cycle([])
    with pytest.raises(NotNCycle):
        BoundedAffinePerm.from_cycle([0, 0, 1])
    with pytest.raises(NotNCycle):
        BoundedAffinePerm.from_cycle([0, 2, 4])
    with pytest.raises(DegeneratePeriod):
        BoundedAffinePerm.from_cycle([0])


def test_from_cycle_one_based_reading():
    # the 1-based cycle on {1..7} and the 0-based window agree on f itself
    f = parse_perm("cycle:(1,4,6,2,5,7,3)", one_based=True)
    assert f.window == (3, 4, 5, 8, 6, 7, 9)
    assert [f(i) for i in range(1, 8)] == [4, 5, 8, 6, 7, 9, 10]


def test_cycle_round_trip_exhaustive():
    for n in range(2, 9):
        for f in enumerate_theta(None, n):
            [cycle] = f._cycle_tuples()
            assert cycle[0] == 0
            assert BoundedAffinePerm.from_cycle(cycle) == f
            assert sorted(v % n for v in f.window) == list(range(n))
            assert sum(f.window[i] - i for i in range(n)) == f.k * n


def test_translation():
    f = BoundedAffinePerm.translation(2, 5)
    assert f.window == (2, 3, 4, 5, 6)
    assert f.length() == 0 and f.is_theta


def test_translation_past_the_period_is_refused():
    # i -> i + 5 at period 4 has f(i) > i + n
    with pytest.raises(NotBounded, match="translation by 5"):
        BoundedAffinePerm.translation(5, 4)


# -- inversions and length ------------------------------------------------------

def test_inversions_named():
    f = BoundedAffinePerm(FIG2)
    assert [(i, j) for i, j in f.inversions()] == [(1, 2), (1, 3)]
    assert f.length() == 2


def test_inversions_translation_empty():
    assert BoundedAffinePerm.translation(3, 7).inversions() == []


def test_inversions_example_window():
    f = parse_perm("window:4,5,8,6,7,9,10", one_based=True)
    assert f.window == (3, 4, 5, 8, 6, 7, 9)
    assert [(i, j) for i, j in f.inversions()] == [(3, 4), (3, 5)]


# -- simple transpositions -------------------------------------------------------

def test_left_mul_walkthrough():
    w = _left_s((1, 2), 0)
    assert w == (0, 3) and _is_bounded(w)
    g = BoundedAffinePerm(w)
    assert g(0) == 0 and g(1) == 3


def test_length_by_shi_formula_matches_brute_force():
    # Shi's closed form shares no code with the pair scan that builds the
    # inversion multiset, so it is checked against the definition here
    for n in range(1, 7):
        for w in _bounded_windows(n):
            assert _length(w) == brute_length(BoundedAffinePerm(w)), w


def test_length_delta_rules_match_brute_force():
    for n in range(2, 6):
        for f in enumerate_theta(None, n):
            w, ell = f.window, brute_length(f)
            pos = _residue_positions(w)
            for i in range(n):
                for g, delta in (
                    (_left_s(w, i), _left_delta(w, i, pos)),
                    (_right_s(w, i), _right_delta(w, i)),
                ):
                    assert delta in (-1, 1)
                    if _is_bounded(g):
                        assert brute_length(BoundedAffinePerm(g)) - ell == delta
                g, delta = _conj_s(w, i, pos), _conj_delta(w, i)
                assert delta in (-2, 0, 2)
                if _is_bounded(g):
                    assert brute_length(BoundedAffinePerm(g)) - ell == delta


def test_conjugate_involution():
    for f in enumerate_theta(2, 5):
        for i in range(5):
            g = _conj_s(f.window, i, f._pos)
            if _is_bounded(g):
                assert _conj_s(g, i, _residue_positions(g)) == f.window


def test_cyclic_shift_properties():
    fkn = BoundedAffinePerm.translation(2, 5)
    assert fkn.cyclic_shift() == fkn
    for f in enumerate_theta(None, 6):
        g = f
        for _ in range(6):
            g = g.cyclic_shift()
        assert g == f
    for f in enumerate_theta(3, 7):
        s = f.cyclic_shift()
        assert (s.k, s.n, s.is_theta) == (f.k, f.n, True)
        assert s.length() == f.length()


def test_is_theta_is_cached(monkeypatch):
    import posicat.affine as affine

    perms = {
        BoundedAffinePerm(FIG2): True,
        BoundedAffinePerm((1, 4, 3, 6)): False,
        BoundedAffinePerm((0, 1)): False,
    }
    for f, expected in perms.items():
        assert f.is_theta is expected

    def rescan(*args):
        raise AssertionError("is_theta rescanned the window")

    monkeypatch.setattr(affine, "_is_strictly_bounded", rescan)
    monkeypatch.setattr(affine, "_cycles", rescan)
    for f, expected in perms.items():
        for _ in range(3):
            assert f.is_theta is expected
        if expected:
            f.require_theta()
        else:
            with pytest.raises(NotTheta):
                f.require_theta()


def test_theta_count_3_7():
    assert sum(1 for _ in enumerate_theta(3, 7)) == 302


def test_rotate_180():
    for f in enumerate_theta(2, 5):
        assert f.rotate_180().rotate_180() == f
    fkn = BoundedAffinePerm.translation(3, 7)
    assert fkn.rotate_180() == fkn
    fig3 = BoundedAffinePerm.from_cycle([0, 3, 2, 5, 1, 4])
    assert fig3.rotate_180().window == (2, 4, 5, 6, 9, 7)
    with pytest.raises(NotTheta):
        BoundedAffinePerm([0, 1]).rotate_180()


# -- double crossings and resolution ------------------------------------------------

def test_double_crossing_detection():
    g = BoundedAffinePerm([1, 4, 3, 5, 7])
    assert g.has_double_crossing_at(1)
    assert g.inverse_at(2) == -1 and g.inverse_at(1) == 0
    assert g(2) == 3 and g(1) == 4
    f25 = BoundedAffinePerm.translation(2, 5)
    assert not any(f25.has_double_crossing_at(i) for i in range(5))
    fig2 = BoundedAffinePerm(FIG2)
    assert not any(fig2.has_double_crossing_at(i) for i in range(7))


def test_conj_double_crossing_matches_built_conjugate():
    """The scan read off f finds the first i where the built g = s_i f s_i
    is bounded with a double crossing at i, or -1 when there is none."""
    found = missing = 0
    for w in _sample_windows():
        expected = -1
        for i in range(len(w)):
            g = _conj_ref(w, i)
            if _is_bounded(g) and _has_double_crossing(g, i, _residue_positions(g)):
                expected = i
                break
        assert _first_double_move(w, _residue_positions(w)) == expected, w
        found += expected >= 0
        missing += expected < 0
    assert found > 0 and missing > 0


def test_first_double_move_reads_every_index_by_rotation():
    """sigma^j moves index i to (i + j) mod n, so the scan of sigma^j(w)
    stops at the first move of w so shifted: index i of w is a move exactly
    when the scan of sigma^((n - i) mod n)(w) stops at 0.  The moves of w are
    the i where the built g = s_i f s_i is bounded with a double crossing at
    i, and every rotation of every window is scanned."""
    several = 0
    for w in _sample_windows():
        n = len(w)
        moves = []
        for i in range(n):
            g = _conj_ref(w, i)
            if _is_bounded(g) and _has_double_crossing(g, i, _residue_positions(g)):
                moves.append(i)
        rotated = w
        for j in range(n):
            expected = min(((i + j) % n for i in moves), default=-1)
            assert _first_double_move(rotated, _residue_positions(rotated)) == expected, (w, j)
            rotated = _sigma(rotated)
        several += len(moves) > 1
    assert several > 0


def test_conj_s_matches_two_transpositions():
    for w in _sample_windows():
        pos = _residue_positions(w)
        for i in range(len(w)):
            assert _conj_s(w, i, pos) == _conj_ref(w, i), (w, i)


def test_resolve_crossing_named():
    f = BoundedAffinePerm(FIG2)
    f1, _ = f.resolve_crossing((1, 2))
    assert (f1.k, f1.n - f1.k) == (2, 3)
    f1, _ = f.resolve_crossing((1, 3))
    assert (f1.k, f1.n - f1.k) == (1, 1)
    with pytest.raises(NotAnInversion):
        f.resolve_crossing((0, 1))


def test_resolution_type_sums_exhaustive():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            for inv in f.inversions():
                f1, f2 = f.resolve_crossing(inv)
                assert (f1.k + f2.k, f1.n - f1.k + f2.n - f2.k) == (f.k, n - f.k)
                assert f1.n + f2.n == n
                assert f1.is_theta and f2.is_theta


# -- reductions ------------------------------------------------------------------

def test_remove_fixed_points_all_fixed():
    assert _remove_fixed((0, 3)) == (0,)


def test_remove_fixed_points_mixed():
    f = BoundedAffinePerm([0, 2, 5, 7])
    reduced = _remove_fixed(f.window)
    assert reduced == (1, 2) and BoundedAffinePerm(reduced).k == f.k - 1


def test_remove_fixed_points_idempotent_without_fixed():
    assert _remove_fixed(FIG2) == FIG2


def test_remove_fixed_matches_restriction():
    # dropping the fixed residues one at a time, the last first, restricts f
    # to the others
    emptied = 0
    for n in range(1, 8):
        for w in _bounded_windows(n):
            surv = [i for i in range(n) if w[i] not in (i, i + n)]
            expected = _relabel_restriction(w, surv) if surv else (0,)
            assert _remove_fixed(w) == expected, w
            emptied += not surv
    assert emptied == sum(2 ** n for n in range(1, 8))


def _drop_chain(w):
    """Reference removal: drop each fixed residue with `_drop`, the last
    first, so each drop leaves the positions still to drop in place."""
    n = len(w)
    fixed = [i for i in range(n) if w[i] == i or w[i] == i + n]
    if len(fixed) == n:
        return (0,)
    for p in reversed(fixed):
        w = _drop(w, p)
    return w


def test_remove_fixed_matches_the_drop_chain():
    # the one-pass restriction equals k contractions on every bounded window
    # with n <= 7 that has a fixed residue
    checked = 0
    for n in range(1, 8):
        for w in _bounded_windows(n):
            if all(w[i] not in (i, i + n) for i in range(n)):
                continue
            assert _remove_fixed(w) == _drop_chain(w), w
            checked += 1
    assert checked == 13896


def test_drop_matches_simple_factor_then_removal():
    # the engine's fused contraction: at a simple factor i < n-1 whose s_i f
    # fixes one residue, dropping the position it fixes equals s_i f with
    # its fixed residue removed
    cases = {"f(i) = i+1": 0, "f(i+1) = i+n": 0}
    for n in range(2, 7):
        for w in _bounded_windows(n):
            for i in range(n - 1):
                if (w[i] == i + 1) == (w[i + 1] == i + n):
                    continue  # no simple factor at i, or one fixing two residues
                v = _left_s(w, i)
                fixed = [j for j in range(n) if v[j] in (j, j + n)]
                if len(fixed) != 1:
                    continue
                p = i if w[i] == i + 1 else i + 1
                assert fixed == [p]
                assert _drop(w, p) == _remove_fixed(v), (w, i)
                cases["f(i) = i+1" if p == i else "f(i+1) = i+n"] += 1
    assert all(cases.values()), cases


def _relabel_restriction_reference(w, residues):
    """The restriction of `_relabel_restriction` through a dict from
    residue to rank."""
    surv = sorted(residues)
    n = len(w)
    m = len(surv)
    index = {r: idx for idx, r in enumerate(surv)}
    out = []
    for s in surv:
        v = w[s]
        r = v % n
        out.append(index[r] + m * ((v - r) // n))
    return tuple(out)


def test_relabel_restriction_matches_reference():
    # every cycle and every union of cycles of every bounded window, n <= 7
    checked = 0
    for n in range(1, 8):
        for w in _bounded_windows(n):
            cycles = BoundedAffinePerm(w)._cycle_tuples()
            for mask in range(1, 1 << len(cycles)):
                residues = [r for b, c in enumerate(cycles) if mask >> b & 1 for r in c]
                got = _relabel_restriction(w, residues)
                assert got == _relabel_restriction_reference(w, residues), (w, residues)
                checked += 1
    assert checked == 238195


def test_relabel_restriction_refuses_a_set_f_does_not_preserve():
    # a residue set that is not a union of cycles raises instead of giving a
    # window, as the reference does
    refused = 0
    for n in range(2, 6):
        for w in _bounded_windows(n):
            for mask in range(1, 1 << n):
                residues = [r for r in range(n) if mask >> r & 1]
                if all(mask >> (w[r] % n) & 1 for r in residues):
                    continue
                with pytest.raises(KeyError):
                    _relabel_restriction_reference(w, residues)
                with pytest.raises(TypeError):
                    _relabel_restriction(w, residues)
                refused += 1
    assert refused == 7422


def test_cycle_tuples_are_immutable():
    # the cache itself is handed out, so it must hold tuples all the way down
    f = BoundedAffinePerm((1, 4, 3, 6))
    assert f.cycle_count() == 2
    got = f._cycle_tuples()
    assert got == ((0, 1), (2, 3))
    assert type(got) is tuple and all(type(c) is tuple for c in got)
    assert f._cycle_tuples() is got


def test_relabel_restriction():
    # (1, 4, 3, 6) has the cycles {0, 1} and {2, 3}; FIG2 is one cycle
    w = (1, 4, 3, 6)
    assert _relabel_restriction(w, [0, 1]) == (1, 2)
    assert _relabel_restriction(w, [2, 3]) == (1, 2)
    assert _relabel_restriction(FIG2, range(7)) == FIG2


# -- canonical keys and conjugation classes ----------------------------------------

def test_canonical_key_sigma_invariant():
    for f in enumerate_theta(None, 6):
        assert _canonical_key(f.cyclic_shift().window) == _canonical_key(f.window)


def _rotation_key(d):
    n = len(d)
    return min(tuple(d[(i + t) % n] for i in range(n)) for t in range(n))


def test_canonical_key_matches_rotation_reference():
    for n in range(1, 7):
        for w in _bounded_windows(n):
            assert _canonical_key(w) == _rotation_key([w[i] - i for i in range(n)]), w
    for w in _random_cycle_windows("keys-18", 18, 200):
        assert _canonical_key(w) == _rotation_key([w[i] - i for i in range(18)]), w
    # words whose minimum repeats: translations, sigma-periodic words, and
    # small alphabets at n = 18
    words = [
        (2,) * 5,
        (1, 2, 1, 2, 1, 2),
        (2, 1, 3, 1, 2, 1, 3, 1),
        (3, 1, 2, 1, 1, 2, 1, 3),
        (1, 1, 2, 1, 1, 3),
        (4, 2, 2, 4, 2, 2, 4, 2, 3),
    ]
    rng = random.Random("repeated-minimum")
    words += [tuple(rng.randrange(3) for _ in range(18)) for _ in range(300)]
    words += [tuple(rng.choice((1, 5)) for _ in range(18)) for _ in range(100)]
    repeated = 0
    for d in words:
        assert _orbit_key(d) == _rotation_key(d), d
        repeated += d.count(min(d)) > 1
    assert repeated > 300


def test_canonical_key_translation():
    assert _canonical_key(BoundedAffinePerm.translation(2, 5).window) == (2,) * 5


def test_canonical_key_separates_orbits():
    orbits = {}
    for f in enumerate_theta(2, 5):
        orbit = frozenset(
            tuple((f.window[(i - t) % 5] + t - i) + i for i in range(5))
            for t in range(5)
        )
        orbits.setdefault(_canonical_key(f.window), set()).add(f.window)
    for key, windows in orbits.items():
        shifts = set()
        w = next(iter(windows))
        g = BoundedAffinePerm(w)
        for _ in range(5):
            shifts.add(g.window)
            g = g.cyclic_shift()
        assert windows <= shifts


def test_c_equivalence_class_translation_trivial():
    w = BoundedAffinePerm.translation(2, 5).window
    assert list(_c_class_members(w)) == [w]


def test_c_equivalence_class_shares_invariants():
    for f in enumerate_theta(None, 5):
        for w in _c_class_members(f.window):
            member = BoundedAffinePerm(w)
            assert (member.length(), member.k, member.n) == (
                f.length(),
                f.k,
                f.n,
            )


def test_c_equivalence_class_two_members():
    members = list(_c_class_members((1, 3, 4, 6)))
    assert members[0] == (1, 3, 4, 6)
    assert len(set(members)) == len(members) == 2


def test_c_class_discovery_order_matches_built_conjugates():
    sizes = set()
    for n in range(1, 7):
        for w in _bounded_windows(n):
            members = list(_c_class_members(w))
            assert members == _class_members_ref(w), w
            sizes.add(len(members))
    assert max(sizes) > 10


def test_min_length_witness():
    assert min_length_witness(2, 4).length() == 1
    assert min_length_witness(2, 5) == BoundedAffinePerm.translation(2, 5)
    w = min_length_witness(3, 6)
    assert w.length() == 2 and w.is_theta
    for k, n in ((0, 5), (5, 5), (1, 1)):
        with pytest.raises(InvalidFrame):
            min_length_witness(k, n)


# -- cycle type and text formats ------------------------------------------------------

def test_parse_and_format():
    f = parse_perm("window:3,6,4,5,7,8,9")
    assert f.window == FIG2
    g = parse_perm("cycle:(0,3,2,5,1,4)")
    assert g.window == (3, 4, 5, 8, 6, 7)
    j = parse_perm('{"n": 7, "k": 3, "window": [3, 6, 4, 5, 7, 8, 9]}')
    assert j == f
    assert parse_perm(f.to_json()) == f
    with pytest.raises(PosicatError):
        parse_perm("strand:1,2,3")
    with pytest.raises(PosicatError):
        parse_perm('{"n": 6, "k": 3, "window": [3, 6, 4, 5, 7, 8, 9]}')


@pytest.mark.parametrize("text", [
    '{"x": 1}',
    '{"window": [1, 2',
    '{"window": "12"}',
    '{"window": [1.5, 2]}',
    '{"window": [true]}',
    '{"window": [1.5]}',
    '{"window": ["1"]}',
    '{"window": [null]}',
    '{"window": [1], "n": true, "k": true}',
    '{"window": [1, 2], "k": 1.0}',
    '{"window": [1, 2], "n": 2.0}',
    "window:a,b",
    "window:",
    "cycle:(0,x)",
    "cycle:()",
    "strand:1,2,3",
])
def test_parse_perm_malformed_text(text):
    with pytest.raises(MalformedText):
        parse_perm(text)
    with pytest.raises(MalformedText):
        parse_perm(text, one_based=True)


@pytest.mark.parametrize("window", [[1.7, 2.2], ["1", "2"], [None, 2], [1, 2.0]])
def test_window_non_integer_entries_raise(window):
    with pytest.raises(MalformedText):
        BoundedAffinePerm(window)
    with pytest.raises(MalformedText):
        BoundedAffinePerm(window)


@pytest.mark.parametrize("cycle", [[0, 2.5, 1], [0, "2", 1], [0, None, 1], [0, 2.0, 1]])
def test_cycle_non_integer_entries_raise(cycle):
    with pytest.raises(MalformedText):
        BoundedAffinePerm.from_cycle(cycle)


def test_integer_like_entries_are_accepted():
    # operator.index admits every integer type, bool included
    assert BoundedAffinePerm((True, 2)).window == (1, 2)
    assert BoundedAffinePerm.from_cycle(range(3)) == BoundedAffinePerm.from_cycle([0, 1, 2])
