import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from posicat import (
    BoundedAffinePerm,
    ConcaveProfile,
    Engine,
    count_avoiding_paths,
    enumerate_avoiding_paths,
    inversion_multiset,
    profile_forbidden_set,
    profile_to_perm,
    synthesize_perm,
    synthesize_profile,
    validate_profile,
)
from posicat.affine import _conj_s
from posicat.harness import cs_convex_subsets
from posicat.paths import _orbit
from posicat.invsets import (
    RECT,
    LatticeMultiset,
    _chain_heights,
    _upper_chain,
    rect_to_sheared,
)
from posicat.errors import (
    InvalidFrame,
    InvalidProfile,
    MalformedText,
    NotCentrallySymmetric,
    NotConvex,
    PathCountMismatch,
    PosicatError,
    SynthesisFailed,
    TooManyPaths,
)

F = Fraction


# -- counting ---------------------------------------------------------------------

def test_counts_named():
    assert count_avoiding_paths(3, 7, set()) == 5
    assert count_avoiding_paths(3, 7, {(1, 2), (2, 5)}) == 3
    for n in range(2, 9):
        assert count_avoiding_paths(1, n, set()) == 1


def test_counts_rational_catalan():
    for n in range(2, 10):
        for k in range(1, n):
            if math.gcd(k, n) == 1:
                assert count_avoiding_paths(k, n, set()) == math.comb(n, k) // n


def test_forbidden_below_diagonal_never_reached():
    # the sheared point (2, 5) lies strictly below the (3, 7) diagonal
    assert count_avoiding_paths(3, 7, {(2, 5)}) == 5


def test_enumerate_matches_count():
    paths = enumerate_avoiding_paths(3, 7, set())
    assert len(paths) == 5
    for path in paths:
        assert path[0] == (0, 0) and path[-1] == (3, 7)
        for (a1, b1), (a2, b2) in zip(path, path[1:]):
            assert b2 == b1 + 1 and a2 - a1 in (0, 1)
    assert len(enumerate_avoiding_paths(1, 3, set())) == 1


@pytest.mark.parametrize("k, n", [(-3, 7), (8, 7), (0, 0), (1, 0), (0, -1)])
def test_path_frames_outside_range_raise(k, n):
    with pytest.raises(InvalidFrame):
        count_avoiding_paths(k, n, set())
    with pytest.raises(InvalidFrame):
        enumerate_avoiding_paths(k, n, set())


def test_path_frames_at_the_edges_count_one_path():
    assert count_avoiding_paths(0, 4, set()) == 1
    assert enumerate_avoiding_paths(4, 4, set()) == [[(a, a) for a in range(5)]]


def test_enumerate_raises_when_listing_disagrees_with_count(monkeypatch):
    import posicat.dyck as dyck

    monkeypatch.setattr(dyck, "count_avoiding_paths", lambda k, n, forbidden: 6)
    with pytest.raises(PathCountMismatch):
        dyck.enumerate_avoiding_paths(3, 7, set())


def test_enumerate_cap():
    with pytest.raises(TooManyPaths):
        enumerate_avoiding_paths(5, 11, set(), cap=10)


def _recursive_listing(k, n, fset):
    """Reference listing by recursion, one call per column: the right step
    (0, 1) is tried before the up-right step (1, 1)."""
    import posicat.dyck as dyck

    out, path = [], [(0, 0)]

    def walk(a, b):
        if b == n:
            if a == k:
                out.append(list(path))
            return
        for step in (0, 1):
            na, nb = a + step, b + 1
            if na > k or not dyck._admissible(na, nb, k, n, fset):
                continue
            path.append((na, nb))
            walk(na, nb)
            path.pop()

    walk(0, 0)
    return out


def test_enumerate_matches_the_recursive_listing_up_to_8():
    rng = random.Random(8)
    for n in range(1, 9):
        for k in range(0, n + 1):
            interior = [(a, b) for a in range(1, k) for b in range(1, n)]
            sets = [set()] + [set(rng.sample(interior, len(interior) // 3)) for _ in range(4)]
            if 1 <= k <= n - 1:
                sets += [{rect_to_sheared(p) for p in r} for r in cs_convex_subsets(k, n)]
            for fset in sets:
                expected = _recursive_listing(k, n, frozenset(fset))
                assert enumerate_avoiding_paths(k, n, fset) == expected, (k, n, sorted(fset))


def test_enumerate_lists_past_the_recursion_limit():
    # one path: up-right first, then right along a = 1
    path = [(0, 0)] + [(1, b) for b in range(1, 1201)]
    assert enumerate_avoiding_paths(1, 1200, set()) == [path]


# -- profiles ----------------------------------------------------------------------

SAMPLE_PROFILE_25 = (F(0), F(9, 20), F(9, 10), F(13, 10), F(83, 50), F(2))


def test_validate_profile_valid_cases():
    ok, problems = validate_profile(SAMPLE_PROFILE_25, 2, 5)
    assert ok and problems == []
    ok, _ = validate_profile((F(0), F(2, 3), F(4, 3), F(2)), 2, 3)
    assert ok  # equal increments are allowed, fractional parts distinct


def test_validate_profile_rejects_fig3_path():
    # small paths of arbitrary permutations need not be concave
    orbit = _orbit(BoundedAffinePerm.from_cycle([0, 3, 2, 5, 1, 4]))
    verticals = [Fraction(v, 6) for v in orbit]
    ok, problems = validate_profile(verticals, 3, 6)
    assert not ok
    assert any("rises" in p for p in problems)


def test_validate_profile_violations():
    ok, problems = validate_profile((F(0), F(3, 2), F(2)), 2, 2)
    assert not ok and any("outside" in p for p in problems)
    ok, problems = validate_profile((F(0), F(1, 2), F(1), F(3, 2), F(2)), 2, 4)
    assert not ok and any("collide" in p for p in problems)


def _fraction_validate(heights, k, n):
    """Reference validator in Fraction arithmetic, check by check."""
    H = tuple(map(Fraction, heights))
    problems = []
    if len(H) != n + 1:
        return False, [f"expected {n + 1} heights, got {len(H)}"]
    if len(H) < 2:
        return False, [f"a profile needs at least two heights, got {len(H)}"]
    if H[0] != 0:
        problems.append(f"H_0 = {H[0]} != 0")
    if H[n].denominator != 1:
        problems.append(f"H_n = {H[n]} is not an integer")
    elif H[n] != k:
        problems.append(f"H_n = {H[n]} != {k}")
    increments = [H[i + 1] - H[i] for i in range(n)]
    for i, d in enumerate(increments):
        if not 0 < d < 1:
            problems.append(f"increment H_{i + 1} - H_{i} = {d} outside (0, 1)")
    for i in range(n - 1):
        if increments[i] < increments[i + 1]:
            problems.append(
                f"increment rises at {i + 1}: {increments[i]} < {increments[i + 1]}"
            )
    fracs = [h - math.floor(h) for h in H[:n]]
    if len(set(fracs)) != n:
        problems.append("fractional parts collide")
    return not problems, problems


def _random_heights(rng, synthesized):
    """(heights, k, n) that pass or break each profile condition.  The
    heights are a synthesized profile's, whose denominators differ, or
    concave increments on denominator 1, 2, 3, 6 or 12; then at most one
    perturbation of a height, of H_0, of H_n, of the types or of the
    length."""
    if rng.random() < 0.5:
        heights = list(rng.choice(synthesized))
    else:
        denominator = rng.choice([1, 2, 3, 6, 12])
        steps = sorted(
            (rng.randrange(-1, denominator + 2) for _ in range(rng.randrange(1, 9))),
            reverse=True,
        )
        heights = [Fraction(0)]
        for step in steps:
            heights.append(heights[-1] + Fraction(step, denominator))
    n = len(heights) - 1
    kind = rng.randrange(7)
    if kind == 1:
        heights[rng.randrange(n + 1)] += Fraction(rng.choice([-1, 1]), rng.choice([2, 3, 6]))
    elif kind == 2:
        heights[0] = Fraction(rng.choice([-1, 1]), rng.choice([1, 2, 3]))
    elif kind == 3:
        heights[-1] = math.floor(heights[-1]) + Fraction(rng.randrange(1, 6), 6)
    elif kind == 4:
        heights = [int(h) if h.denominator == 1 else h for h in heights]
    elif kind == 5:
        heights = heights[:rng.randrange(2)]
    k = math.floor(heights[-1]) if heights else 0
    n = len(heights) - 1
    return heights, k + rng.choice([0, 0, 0, 1]), n + rng.choice([0, 0, 0, 0, 1, -1])


def _assert_matches_fraction_reading(profile):
    """The forbidden set and the permutation of a valid profile against
    their definitions read in Fractions."""
    H, k, n = profile.heights, profile.k, profile.n
    region = {(a, b) for b in range(1, n) for a in range(1, k) if k - H[n - b] <= a <= H[b]}
    assert profile_forbidden_set(profile) == region
    fracs = [h - math.floor(h) for h in H[:n]]
    ranks = [sorted(fracs).index(x) for x in fracs]
    assert profile_to_perm(profile).window == BoundedAffinePerm.from_cycle(ranks).window


VIOLATION_KINDS = (
    "expected", "at least two", "H_0", "not an integer", "H_n", "outside", "rises",
    "collide",
)


def test_validate_profile_matches_the_fraction_reference():
    synthesized = [
        synthesize_profile({rect_to_sheared(p) for p in points}, k, n).heights
        for n in range(2, 8) for k in range(1, n) for points in cs_convex_subsets(k, n)
    ]
    rng = random.Random(2024)
    seen = set()
    for _ in range(3000):
        heights, k, n = _random_heights(rng, synthesized)
        got = validate_profile(heights, k, n)
        assert got == _fraction_validate(heights, k, n), (heights, k, n)
        if got[0]:
            _assert_matches_fraction_reading(ConcaveProfile(heights))
        seen.add(got[0])
        seen.update(next(kind for kind in VIOLATION_KINDS if kind in problem)
                    for problem in got[1])
    assert seen == {True, False, *VIOLATION_KINDS}


def test_profile_to_perm_named():
    assert profile_to_perm(ConcaveProfile(SAMPLE_PROFILE_25)).window == (2, 3, 4, 5, 6)
    assert profile_to_perm(ConcaveProfile((F(0), F(2, 3), F(4, 3), F(2)))).window == (2, 3, 4)
    assert profile_to_perm(ConcaveProfile((F(0), F(1, 2), F(1)))).window == (1, 2)
    with pytest.raises(InvalidProfile):
        profile_to_perm(ConcaveProfile((F(0), F(3, 2), F(2))))



def test_profile_compares_and_prints_field_by_field():
    profile = ConcaveProfile((0, F(1, 2), 1))
    assert profile == ConcaveProfile((F(0), F(1, 2), F(1)))
    assert profile != ConcaveProfile((F(0), F(2, 3), F(1)))
    assert profile != 1 and profile.__eq__(1) is NotImplemented
    assert repr(profile) == (
        "ConcaveProfile(heights=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)))"
    )


def test_profile_is_hashable_and_frozen():
    profile = ConcaveProfile((0, F(1, 2), 1))
    assert hash(profile) == hash(ConcaveProfile((F(0), F(1, 2), F(1))))
    assert hash(profile) == hash((profile.heights,))
    with pytest.raises(AttributeError):
        profile.heights = ()
    with pytest.raises(AttributeError):
        del profile.heights
    assert profile.heights == (0, F(1, 2), 1)


def test_a_profile_pickles_and_copies(duplicate):
    profile = ConcaveProfile((0, F(1, 2), 1))
    assert duplicate(profile) == profile


def test_a_tampered_profile_pickle_is_refused():
    # heights set in the private slot, past the read-only property: Fraction
    # pickles differently across Python versions, so the state is edited
    # rather than the bytes. Loading and copying used to keep the broken heights
    profile = ConcaveProfile((0, F(1, 2), 1))
    profile._heights = (F(0), F(3, 2), F(1))
    data = pickle.dumps(profile)
    for load in (lambda: pickle.loads(data), lambda: copy.copy(profile)):
        with pytest.raises(InvalidProfile):
            load()


@pytest.mark.parametrize("heights, message", [
    ((), "a profile needs at least two heights, got 0"),
    ((F(0),), "a profile needs at least two heights, got 1"),
    ((F(0), F(3, 4), F(3, 2)), "H_n = 3/2 is not an integer"),
], ids=["empty", "one", "non-integral-end"])
def test_degenerate_profiles_raise_invalid_profile(heights, message):
    with pytest.raises(InvalidProfile, match=message):
        profile_to_perm(ConcaveProfile(heights))
    with pytest.raises(InvalidProfile, match=message):
        ConcaveProfile(heights)
    k = math.floor(heights[-1]) if heights else 0
    assert validate_profile(heights, k, len(heights) - 1) == (False, [message])


@pytest.mark.parametrize("heights", [
    (0.0, 0.5, 1.0), ("0", "1/2", "1"), (0, None, 1), 5, None,
], ids=["float", "string", "None", "int-heights", "None-heights"])
@pytest.mark.parametrize("entry", [
    lambda heights: profile_to_perm(ConcaveProfile(heights)), ConcaveProfile,
    lambda heights: validate_profile(heights, 1, 2),
], ids=["profile_to_perm", "ConcaveProfile", "validate_profile"])
def test_non_rational_heights_raise(entry, heights):
    # Fraction() would read 0.5 and "1/2" and answer; heights that are not a
    # sequence raised a bare TypeError
    with pytest.raises(MalformedText):
        entry(heights)


def test_profile_forbidden_set():
    profile = ConcaveProfile(SAMPLE_PROFILE_25)
    assert profile_forbidden_set(profile) == set()


# -- synthesis ----------------------------------------------------------------------

def test_synthesize_profile_empty_2_5():
    profile = synthesize_profile(set(), 2, 5)
    ok, problems = validate_profile(profile.heights, 2, 5)
    assert ok, problems
    assert profile_forbidden_set(profile) == set()
    assert inversion_multiset(profile_to_perm(profile)).is_set()


def test_synthesize_profile_diagonal_2_4():
    profile = synthesize_profile({(1, 2)}, 2, 4)
    assert profile_forbidden_set(profile) == {(1, 2)}
    floors = [math.floor(h) for h in profile.heights]
    assert floors == [0, 0, 1, 1, 2]


def test_synthesize_profile_3_7():
    profile = synthesize_profile({(1, 2), (2, 5)}, 3, 7)
    assert profile_forbidden_set(profile) == {(1, 2), (2, 5)}


def _fraction_synthesis(points, k, n):
    """Reference search in Fractions: the exact hull heights plus the
    perturbation of each (m, s) of the schedule, every candidate checked with
    `validate_profile` and `profile_forbidden_set`; the first success wins."""
    chain = _upper_chain([(b, a) for a, b in points] + [(0, 0), (n, k)])
    hull = _chain_heights(chain, Fraction)
    denom = 8 * n * n
    for m in range(2, 64):
        c = Fraction(1, 2 ** m)
        for s in (1, 2, 3):
            heights = tuple(
                hull[b] + c * b * (n - b) * Fraction(s * denom + b, denom * s)
                for b in range(n + 1)
            )
            if not validate_profile(heights, k, n)[0]:
                continue
            if profile_forbidden_set(ConcaveProfile(heights)) == points:
                return heights
    raise AssertionError(f"schedule exhausted for {sorted(points)} in ({k}, {n})")


def _assert_matches_fraction_synthesis(rect_points, k, n):
    sheared = {rect_to_sheared(p) for p in rect_points}
    got = synthesize_profile(sheared, k, n).heights
    expected = _fraction_synthesis(sheared, k, n)
    pairs = [(h.numerator, h.denominator) for h in got]
    assert pairs == [(h.numerator, h.denominator) for h in expected], (k, n, sorted(sheared))


def test_synthesize_profile_matches_fraction_search_up_to_9():
    for n in range(2, 10):
        for k in range(1, n):
            for points in cs_convex_subsets(k, n):
                _assert_matches_fraction_synthesis(points, k, n)


def test_synthesize_profile_matches_fraction_search_at_11():
    rng = random.Random(11)
    frames = {k: cs_convex_subsets(k, 11) for k in range(1, 11)}
    for _ in range(20):
        k = rng.randrange(1, 11)
        _assert_matches_fraction_synthesis(rng.choice(frames[k]), k, 11)


def test_search_filter_agrees_with_the_full_rule_up_to_9():
    # every candidate of the schedule, not only those up to the winner: the
    # increments fall strictly, so the four conditions the search tests
    # decide what validate_profile and profile_forbidden_set decide
    import posicat.dyck as dyck

    for n in range(2, 10):
        for k in range(1, n):
            for rect in cs_convex_subsets(k, n):
                points = {rect_to_sheared(p) for p in rect}
                for m, s, q, nums in dyck._candidates(points, k, n):
                    steps = [y - x for x, y in zip(nums, nums[1:])]
                    assert all(x > y for x, y in zip(steps, steps[1:])), (k, n, m, s)
                    assert nums[0] == 0 and nums[n] == k * q
                    valid = (
                        nums[1] < q and nums[n] > nums[n - 1]
                        and len({num % q for num in nums[:n]}) == n
                    )
                    try:  # construction runs validate_profile
                        profile = ConcaveProfile(tuple(Fraction(num, q) for num in nums))
                    except InvalidProfile:
                        assert not valid, (k, n, m, s)
                        continue
                    assert valid, (k, n, m, s)
                    # the unclamped columns are the profile's forbidden region
                    assert profile_forbidden_set(profile) == {
                        (a, b) for b in range(1, n)
                        for a in range(k - nums[n - b] // q, nums[b] // q + 1)
                    }


def test_synthesize_profile_raises_when_exact_check_disagrees(monkeypatch):
    # the winner of the integer search is checked again in Fractions
    import posicat.dyck as dyck

    monkeypatch.setattr(dyck, "profile_forbidden_set", lambda profile: {(0, 0)})
    with pytest.raises(SynthesisFailed, match=r"\(m=\d+, s=\d\)"):
        synthesize_profile({(1, 2), (2, 5)}, 3, 7)


def test_synthesize_profile_raises_when_validation_reports_a_problem(monkeypatch):
    # constructing the winner's ConcaveProfile is the exact validation
    import posicat.dyck as dyck

    monkeypatch.setattr(dyck, "validate_profile", lambda heights, k, n: (False, ["injected"]))
    with pytest.raises(SynthesisFailed, match=r"\(m=\d+, s=\d\).*injected"):
        synthesize_profile({(1, 2), (2, 5)}, 3, 7)


def test_synthesize_perm_empty():
    perm = synthesize_perm(set(), 2, 5)
    assert inversion_multiset(perm).is_set()
    assert inversion_multiset(perm).entries == {}


def test_synthesize_perm_fig2_set():
    perm = synthesize_perm({(1, 1), (2, 3)}, 3, 7)
    assert inversion_multiset(perm).entries == {(1, 1): 1, (2, 3): 1}
    assert Engine().compute_C(perm) == 3
    assert count_avoiding_paths(3, 7, {(1, 2), (2, 5)}) == 3


def test_synthesize_perm_validates_its_set_once(monkeypatch):
    # the rectangular set is checked once, in the caller's frame; the
    # sheared synthesis behind it does not check it again
    import posicat.dyck as dyck

    calls = []
    original = dyck._require_cs_convex

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(dyck, "_require_cs_convex", counted)
    requests = 0
    for n in range(2, 9):
        for k in range(1, n):
            for points in cs_convex_subsets(k, n):
                calls.clear()
                synthesize_perm(points, k, n)
                assert len(calls) == 1, (k, n, points)
                requests += 1
    assert requests > 50


def test_synthesize_perm_raises_on_missed_postcondition(monkeypatch):
    # an explicit raise, so the postconditions also hold under python -O
    import posicat.dyck as dyck

    wrong = BoundedAffinePerm([1, 4, 3, 6, 5, 8])
    monkeypatch.setattr(dyck, "profile_to_perm", lambda profile: wrong)
    with pytest.raises(SynthesisFailed):
        synthesize_perm({(1, 1), (1, 2), (1, 3)}, 2, 6)


def test_synthesize_perm_rejects_asymmetric():
    with pytest.raises(NotCentrallySymmetric):
        synthesize_perm({(1, 1)}, 3, 7)


def test_synthesize_perm_rejects_nonconvex():
    # gcd(2, 4) = 2: the empty set misses the forced diagonal point
    with pytest.raises(NotConvex):
        synthesize_perm(set(), 2, 4)


def test_double_move_path_identity():
    # removing a double crossing adds the two factor frames to the forbidden
    # set; every avoiding path either passes through the new point (splitting
    # into a path pair for the factors) or avoids the bigger set
    from posicat import enumerate_theta

    checked = 0
    for n in range(2, 8):
        for f in enumerate_theta(None, n):
            if not inversion_multiset(f).is_set():
                continue
            for i in range(n):
                if not f.has_double_crossing_at(i):
                    continue
                f1, f2 = f.resolve_crossing((i, i + 1))
                conj = BoundedAffinePerm(_conj_s(f.window, i, f._pos))

                def paths(p):
                    return count_avoiding_paths(
                        p.k, p.n, inversion_multiset(p).to_sheared().points()
                    )

                assert paths(conj) == paths(f1) * paths(f2) + paths(f)
                checked += 1
    assert checked == 324


@pytest.mark.parametrize("k, n", [(0, 7), (7, 7), (-1, 7), (1, 1)])
def test_synthesize_profile_frame_outside_range_raises(k, n):
    with pytest.raises(InvalidFrame):
        synthesize_profile(set(), k, n)


def test_synthesize_profile_refuses_a_point_outside_the_box():
    # (0, 3) and (3, 4) mirror each other in (3, 7), but neither lies in
    # [1, 2] x [1, 6]
    with pytest.raises(PosicatError, match=r"point \(0, 3\) outside \[1,2\]x\[1,6\]"):
        synthesize_profile({(0, 3), (3, 4)}, 3, 7)


@pytest.mark.parametrize("synthesize, points, point", [
    (synthesize_profile, {(1, 1), (1, 2), (1, 3)}, r"\(1, [13]\)"),
    (synthesize_perm, {(1, 0), (1, 1), (1, 2)}, r"\(1, [02]\)"),
], ids=["sheared", "rect"])
def test_synthesis_refuses_a_point_off_the_rectangle_up_front(synthesize, points, point):
    # in (2, 4) the rectangle is the single point (1, 1), sheared (1, 2);
    # each set is centrally symmetric and convex in its bounding box, so
    # without the range check the whole schedule ran and SynthesisFailed
    with pytest.raises(PosicatError, match=f"^point {point} outside ") as info:
        synthesize(points, 2, 4)
    assert not isinstance(info.value, SynthesisFailed)


@pytest.mark.parametrize("points, k, n, error, message", [
    ({(1, 1)}, 3, 7, NotCentrallySymmetric, r"missing mirror of \(1, 1\)"),
    ({(1, 1), (3, 3)}, 4, 8, NotConvex, r"\[\(1, 1\), \(3, 3\)\] misses lattice points"),
], ids=["asymmetric", "nonconvex"])
def test_synthesize_perm_errors_name_rectangular_points(points, k, n, error, message):
    with pytest.raises(error, match=message):
        synthesize_perm(points, k, n)


def test_enumerate_cap_boundary():
    assert len(enumerate_avoiding_paths(3, 7, set(), cap=5)) == 5
    with pytest.raises(TooManyPaths):
        enumerate_avoiding_paths(3, 7, set(), cap=4)


POINT_ENTRY_POINTS = {
    "count_avoiding_paths": lambda pts: count_avoiding_paths(3, 7, pts),
    "enumerate_avoiding_paths": lambda pts: enumerate_avoiding_paths(3, 7, pts),
    "synthesize_profile": lambda pts: synthesize_profile(pts, 3, 7),
    "synthesize_perm": lambda pts: synthesize_perm(pts, 3, 7),
    "LatticeMultiset": lambda pts: LatticeMultiset(RECT, (3, 4), dict.fromkeys(pts, 1)),
}


@pytest.mark.parametrize("bad", [1.9, "1", None], ids=["float", "string", "None"])
@pytest.mark.parametrize("entry", sorted(POINT_ENTRY_POINTS))
def test_non_integer_point_coordinates_raise(entry, bad):
    # int() would truncate (1.9, 2) to (1, 2) and give an answer
    with pytest.raises(MalformedText):
        POINT_ENTRY_POINTS[entry]([(bad, 2)])


def test_point_coordinates_that_are_integer_like_are_accepted():
    assert count_avoiding_paths(3, 7, [(True, 2)]) == count_avoiding_paths(3, 7, [(1, 2)])


def test_enumerate_reads_a_generator_of_points_once():
    points = [(1, 2), (2, 5)]
    listed = enumerate_avoiding_paths(3, 7, (p for p in points))
    assert len(listed) == count_avoiding_paths(3, 7, points) == 3
