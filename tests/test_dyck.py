import math
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


def test_profile_to_perm_named():
    assert profile_to_perm(SAMPLE_PROFILE_25).window == (2, 3, 4, 5, 6)
    assert profile_to_perm((F(0), F(2, 3), F(4, 3), F(2))).window == (2, 3, 4)
    assert profile_to_perm((F(0), F(1, 2), F(1))).window == (1, 2)
    with pytest.raises(InvalidProfile):
        profile_to_perm((F(0), F(3, 2), F(2)))


@pytest.mark.parametrize("heights, message", [
    ((), "a profile needs at least two heights, got 0"),
    ((F(0),), "a profile needs at least two heights, got 1"),
    ((F(0), F(3, 4), F(3, 2)), "H_n = 3/2 is not an integer"),
], ids=["empty", "one", "non-integral-end"])
def test_degenerate_profiles_raise_invalid_profile(heights, message):
    with pytest.raises(InvalidProfile, match=message):
        profile_to_perm(heights)
    with pytest.raises(InvalidProfile, match=message):
        ConcaveProfile(heights)
    k = math.floor(heights[-1]) if heights else 0
    assert validate_profile(heights, k, len(heights) - 1) == (False, [message])


@pytest.mark.parametrize("heights", [
    (0.0, 0.5, 1.0), ("0", "1/2", "1"), (0, None, 1),
], ids=["float", "string", "None"])
@pytest.mark.parametrize("entry", [
    profile_to_perm, ConcaveProfile, lambda heights: validate_profile(heights, 1, 2),
], ids=["profile_to_perm", "ConcaveProfile", "validate_profile"])
def test_non_rational_heights_raise(entry, heights):
    # Fraction() would read 0.5 and "1/2" and answer
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
