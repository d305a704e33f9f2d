import itertools
import random

import pytest

from posicat import (
    BoundedAffinePerm,
    LatticeMultiset,
    a_sequence,
    enumerate_theta,
    f_min,
    intersection_count,
    inversion_multiset,
    is_centrally_symmetric,
    is_convex,
    lambda_partition,
    parse_forbidden,
    parse_perm,
)
from posicat.affine import _c_class_members
from posicat.errors import MalformedText, NotRepetitionFree, PosicatError, PreconditionViolated
from posicat.invsets import RECT, SHEARED, _upper_chain, is_convex_points, sheared_to_rect

FIG2 = BoundedAffinePerm([3, 6, 4, 5, 7, 8, 9])


def split_identity_check(perm, i):
    """Verify that resolving (i, i+1) splits the sheared multiset by slope.

    Writing delta_1 and delta_2 for the factor frames, the points of slope
    at most slope(delta_1), with delta_1 removed, determine the first
    factor's multiset via reflection closure, and dually for the second.
    Requires a repetition-free permutation with a double crossing at i.
    """
    perm.require_theta()
    i = i % perm.n
    if not perm.has_double_crossing_at(i):
        raise PreconditionViolated(f"no double crossing at {i}")
    ms = inversion_multiset(perm).to_sheared()
    if not ms.is_set():
        raise PreconditionViolated("permutation is not repetition-free")
    f1, f2 = perm.resolve_crossing((i, i + 1))
    d1 = (f1.k, f1.n)
    d2 = (f2.k, f2.n)
    fset = set(ms.points())

    def slope_le(p, q):
        return p[0] * q[1] <= q[0] * p[1]

    g1p = {p for p in fset - {d1} if slope_le(p, d1)}
    g2p = {p for p in fset - {d2} if slope_le(d2, p)}
    g1 = g1p | {(d1[0] - a, d1[1] - b) for a, b in g1p}
    g2 = g2p | {(d2[0] - a, d2[1] - b) for a, b in g2p}
    return (
        set(inversion_multiset(f1).to_sheared().points()) == g1
        and set(inversion_multiset(f2).to_sheared().points()) == g2
    )


def first_non_repetition_free(n):
    for f in enumerate_theta(None, n):
        if not inversion_multiset(f).is_set():
            return f
    return None


def test_inversion_multiset_named():
    ms = inversion_multiset(FIG2)
    assert ms.frame == RECT and ms.delta == (3, 4)
    assert ms.entries == {(1, 1): 1, (2, 3): 1}
    e75 = parse_perm("cycle:(1,4,6,2,5,7,3)", one_based=True)
    assert inversion_multiset(e75).entries == {(1, 1): 1, (2, 3): 1}


def test_inversion_multiset_translation_empty():
    assert inversion_multiset(BoundedAffinePerm.translation(2, 5)).entries == {}


def test_total_multiplicity_is_length():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            assert inversion_multiset(f).total() == f.length()


def test_repetition_free():
    assert inversion_multiset(FIG2).is_set()
    assert inversion_multiset(BoundedAffinePerm.translation(3, 7)).is_set()
    witness = first_non_repetition_free(6)
    assert witness is not None
    assert not inversion_multiset(witness).is_set()


def test_repetition_free_equals_path_criterion():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            at_most_two = all(
                intersection_count(f, (a, b)) <= 2
                for a in range(1, f.k)
                for b in range(1, n)
            )
            assert inversion_multiset(f).is_set() == at_most_two


def test_central_symmetry():
    assert is_centrally_symmetric(inversion_multiset(FIG2))
    single = LatticeMultiset(RECT, (3, 4), {(1, 1): 1})
    assert not is_centrally_symmetric(single)
    empty = LatticeMultiset(RECT, (3, 4))
    assert is_centrally_symmetric(empty)


@pytest.mark.parametrize("entries", [
    {(1.5, 2): 1.7, ("a", 2): 2},
    {(1, 2): 1.7},
    {(1, 2): "2"},
    {(1.5, 2): 1},
    {("a", 2): 2},
    {(1, 2, 3): 1},
])
def test_multiset_constructor_rejects_non_integers(entries):
    with pytest.raises(MalformedText):
        LatticeMultiset(RECT, (3, 4), entries)


def test_multiset_constructor_drops_zero_and_rejects_negative():
    ms = LatticeMultiset(RECT, (3, 4), {(1, 2): 2, (2, 1): 0})
    assert ms.entries == {(1, 2): 2} and ms.total() == 2
    with pytest.raises(PosicatError):
        LatticeMultiset(RECT, (3, 4), {(1, 2): -1})


def test_central_symmetry_exhaustive():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            assert is_centrally_symmetric(inversion_multiset(f))


def test_convexity_examples():
    assert is_convex_points({(1, 1), (2, 3)}, 3, 4)
    assert not is_convex_points(set(), 2, 2)
    full = {(a, b) for a in range(1, 3) for b in range(1, 4)}
    assert is_convex_points(full, 3, 4)
    assert not is_convex_points({(1, 1), (3, 3)}, 4, 4)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(q, a, b):
    return (
        _cross(a, b, q) == 0
        and min(a[0], b[0]) <= q[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= q[1] <= max(a[1], b[1])
    )


def _in_triangle(q, a, b, c):
    if _cross(a, b, c) == 0:
        return False  # degenerate: its segments cover it
    signs = (_cross(a, b, q), _cross(b, c, q), _cross(c, a, q))
    return all(s >= 0 for s in signs) or all(s <= 0 for s in signs)


def brute_force_convex(points, k, m):
    """Reference by Caratheodory: a lattice point lies in the hull iff it is
    a set point, lies on a segment between two set points, or lies in a
    triangle of three set points."""
    aug = set(points) | {(0, 0), (k, m)}
    xs = [p[0] for p in aug]
    ys = [p[1] for p in aug]
    for q in itertools.product(range(min(xs), max(xs) + 1), range(min(ys), max(ys) + 1)):
        if q in aug:
            continue
        if any(_on_segment(q, a, b) for a, b in itertools.combinations(aug, 2)):
            return False
        if any(_in_triangle(q, *t) for t in itertools.combinations(aug, 3)):
            return False
    return True


def convexity_inputs():
    """Every subset of the open rectangle for k, m <= 4, then a seeded
    sample of random sets, some with points outside the frame."""
    for k in range(1, 5):
        for m in range(1, 5):
            box = [(a, b) for a in range(1, k) for b in range(1, m)]
            for r in range(len(box) + 1):
                for sub in itertools.combinations(box, r):
                    yield set(sub), k, m
    rng = random.Random(5)
    for _ in range(300):
        k, m = rng.randint(0, 6), rng.randint(0, 6)
        yield {(rng.randint(-2, k + 2), rng.randint(-2, m + 2))
               for _ in range(rng.randint(0, 6))}, k, m


def test_convexity_matches_brute_force():
    convex = 0
    for points, k, m in convexity_inputs():
        expected = brute_force_convex(points, k, m)
        assert is_convex_points(points, k, m) == expected, (sorted(points), k, m)
        convex += expected
    assert convex > 100


def test_convexity_shear_invariant():
    for points, k, m in convexity_inputs():
        sheared = {(a, a + b) for a, b in points}
        assert is_convex_points(points, k, m) == is_convex_points(sheared, k, k + m)


def test_convexity_frame_independent():
    ms = inversion_multiset(FIG2)
    assert is_convex(ms)
    assert is_convex(ms.to_sheared())


def test_extremal_sets():
    assert f_min(2, 4) == {(1, 2)}
    assert f_min(2, 5) == set()


def test_f_min_always_contained():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            sheared = set(inversion_multiset(f).to_sheared().entries)
            assert f_min(f.k, n) <= sheared


def test_sigma_preserves_multiset():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            assert (
                inversion_multiset(f.cyclic_shift()).entries
                == inversion_multiset(f).entries
            )


def test_class_preserves_multiset_when_repetition_free():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            if not inversion_multiset(f).is_set():
                continue
            expected = inversion_multiset(f).entries
            for w in _c_class_members(f.window):
                assert inversion_multiset(BoundedAffinePerm(w)).entries == expected


def test_split_identity_exhaustive():
    checked = 0
    for n in range(2, 8):
        for f in enumerate_theta(None, n):
            if not inversion_multiset(f).is_set():
                continue
            for i in range(n):
                if f.has_double_crossing_at(i):
                    assert split_identity_check(f, i)
                    checked += 1
    assert checked == 324


def test_split_identity_precondition():
    with pytest.raises(PreconditionViolated):
        split_identity_check(BoundedAffinePerm.translation(2, 5), 0)


def test_resolution_types_are_hull_vertices():
    # at a double crossing, the factor frames are hull vertices of the
    # augmented sheared set
    for n in range(2, 8):
        for f in enumerate_theta(None, n):
            if not inversion_multiset(f).is_set():
                continue
            for i in range(n):
                if not f.has_double_crossing_at(i):
                    continue
                f1, f2 = f.resolve_crossing((i, i + 1))
                sheared = set(inversion_multiset(f).to_sheared().entries)
                aug = sheared | {(0, 0), (f.k, n)}
                lower = _upper_chain((-a, -b) for a, b in aug)
                hull = set(_upper_chain(aug)) | {(-a, -b) for a, b in lower}
                assert (f1.k, f1.n) in hull and (f2.k, f2.n) in hull


# -- frames and formats ------------------------------------------------------------

def test_frame_conversion_round_trip():
    ms = inversion_multiset(FIG2)
    sheared = ms.to_sheared()
    assert sheared.entries == {(1, 2): 1, (2, 5): 1}
    assert sheared.frame == SHEARED and sheared.delta == (3, 7)
    assert {sheared_to_rect(p): m for p, m in sheared.entries.items()} == ms.entries
    assert sheared.to_sheared() is sheared


def test_multiset_text_and_json():
    ms = inversion_multiset(FIG2)
    assert ms.text() == "1,1;2,3"
    assert (
        ms.as_json()
        == '{"frame": "rect", "k": 3, "m": 4, "points": [[1, 1], [2, 3]]}'
    )
    assert parse_forbidden("1,1;2,3") == [(1, 1), (2, 3)]
    assert parse_forbidden("") == []


# -- partitions ---------------------------------------------------------------------

def test_lambda_named():
    f25 = BoundedAffinePerm.translation(2, 5)
    assert lambda_partition(f25) == (1, 0)
    assert a_sequence(f25) == (1,)
    f14 = BoundedAffinePerm.translation(1, 4)
    assert lambda_partition(f14) == (0,)
    assert a_sequence(f14) == ()


def test_lambda_non_staircase_shape():
    # a 4-point symmetric convex set in the 5 x 4 rectangle whose diagram
    # has non-monotone first differences
    f = BoundedAffinePerm([1, 6, 7, 8, 9, 11, 12, 13, 14])
    assert sorted(inversion_multiset(f).points()) == [(1, 1), (2, 2), (3, 2), (4, 3)]
    assert lambda_partition(f) == (2, 1, 1, 0, 0)
    assert a_sequence(f) == (1, 0, 1, 0)


def test_lambda_weakly_decreasing_exhaustive():
    for n in range(2, 8):
        for f in enumerate_theta(None, n):
            if not inversion_multiset(f).is_set():
                continue
            lam = lambda_partition(f)
            assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
            assert all(x >= 0 for x in a_sequence(f))


def test_lambda_requires_repetition_free():
    witness = first_non_repetition_free(6)
    with pytest.raises(NotRepetitionFree):
        lambda_partition(witness)
