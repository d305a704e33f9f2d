import math

import pytest

from posicat import (
    BoundedAffinePerm,
    enumerate_theta,
    fset_from_paths,
    inversion_multiset,
    nu,
    nu_bar,
)
from posicat import paths
from posicat.affine import _c_class_members
from posicat.errors import AlphaOnDeltaLine, NonIntegralNu, NotTheta
from posicat.paths import _orbit

import statistic_reference
from path_reference import intersection_count, multiplicity_from_paths
from statistic_reference import nu_by_fractions

FIG2 = BoundedAffinePerm([3, 6, 4, 5, 7, 8, 9])
FIG3 = BoundedAffinePerm.from_cycle([0, 3, 2, 5, 1, 4])


# the small path's vertices are (r, f^r(0)/n): `_orbit` lists f^r(0) itself

def test_small_path_fig3():
    assert _orbit(FIG3) == [0, 3, 8, 11, 13, 16, 18]
    assert (FIG3.k, FIG3.n) == (3, 6)


def test_small_path_translation():
    assert _orbit(BoundedAffinePerm.translation(3, 7)) == [3 * r for r in range(8)]


def test_small_path_endpoint_exhaustive():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            orbit = _orbit(f)
            assert orbit[0] == 0
            assert orbit[n] == f.k * n
            assert all(orbit[r] < orbit[r + 1] for r in range(n))


def test_small_path_requires_theta():
    # off Theta the orbit returns to residue 0 before step n, so it is no
    # small path; that is why every path route refuses such windows
    for window in [(1, 4, 3, 6), (0, 1)]:
        n = len(window)
        assert 0 in [v % n for v in _orbit(BoundedAffinePerm(window))[1:n]]


@pytest.mark.parametrize(
    "route",
    [
        fset_from_paths,
        inversion_multiset,
        lambda f: f.resolve_crossing((1, 2)),
        nu,
    ],
    ids=["fset_from_paths", "inversion_multiset", "resolve_crossing", "nu"],
)
@pytest.mark.parametrize("window", [(1, 4, 3, 6), (0, 1)], ids=["two_cycles", "not_strict"])
def test_routes_require_theta(route, window):
    f = BoundedAffinePerm(window)
    for _ in range(2):  # the second call reads the cached verdict
        with pytest.raises(NotTheta):
            route(f)


def test_intersection_counts_fig2():
    assert intersection_count(FIG2, (1, 2)) == 2
    assert multiplicity_from_paths(FIG2, (1, 2)) == 1
    assert multiplicity_from_paths(FIG2, (2, 5)) == 1


def test_intersection_count_zero_above():
    for f in (FIG2, FIG3, BoundedAffinePerm.translation(2, 5)):
        assert intersection_count(f, (0, 1)) == 0


def test_intersection_count_delta_periodic():
    k, n = FIG2.k, FIG2.n
    for alpha in [(1, 2), (2, 5), (1, 1)]:
        shifted = (alpha[0] + k, alpha[1] + n)
        assert intersection_count(FIG2, alpha) == intersection_count(FIG2, shifted)


def test_intersection_count_even_exhaustive():
    for n in range(2, 6):
        for f in enumerate_theta(None, n):
            for a in range(1, f.k):
                for b in range(1, n):
                    count = intersection_count(f, (a, b))
                    assert count % 2 == 0
                    assert multiplicity_from_paths(f, (a, b)) == count // 2


def test_alpha_on_delta_line():
    with pytest.raises(AlphaOnDeltaLine):
        intersection_count(FIG2, (0, 0))
    with pytest.raises(AlphaOnDeltaLine):
        intersection_count(FIG2, (3, 7))
    with pytest.raises(AlphaOnDeltaLine):
        intersection_count(FIG2, (-3, -7))


def test_translation_has_no_crossings():
    f = BoundedAffinePerm.translation(2, 5)
    for a in range(1, 2):
        for b in range(1, 5):
            assert multiplicity_from_paths(f, (a, b)) == 0


def test_path_oracle_matches_resolution():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            assert fset_from_paths(f) == inversion_multiset(f).to_sheared().entries


def test_rotation_reflects_small_path():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            p = _orbit(f)
            q = _orbit(f.rotate_180())
            assert q == [f.k * n - p[n - r] for r in range(n + 1)]


# -- the rotation statistic ----------------------------------------------------------

def test_nu_translation():
    assert nu(BoundedAffinePerm.translation(2, 5)) == 0
    assert nu_bar(BoundedAffinePerm.translation(2, 5)) == 0


def test_nu_frozen_values_2_4():
    values = {
        (1, 3, 4, 6): (-1, 1),
        (2, 3, 5, 4): (0, 0),
        (2, 4, 3, 5): (-1, 1),
        (3, 2, 4, 5): (0, 0),
    }
    for window, (expect_nu, expect_bar) in values.items():
        f = BoundedAffinePerm(window)
        assert nu(f) == expect_nu
        assert nu_bar(f) == expect_bar


def test_nu_is_integral_exhaustive():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            nu(f)  # raises NonIntegralNu on failure
            assert 0 <= nu_bar(f) < math.gcd(f.k, n)


def test_nu_matches_the_fraction_reference():
    # every Theta window with n <= 8
    for n in range(2, 9):
        for f in enumerate_theta(None, n):
            assert nu(f) == nu_by_fractions(f), f


def test_nu_raises_exactly_where_the_fraction_is_not_whole(monkeypatch):
    # no Theta window has a fractional nu, so the orbit is shifted by hand:
    # f^0(0) + d for every residue d modulo 2n, at k and n even and odd
    for f in (next(enumerate_theta(2, 4)), next(enumerate_theta(2, 5))):
        orbit = _orbit(f)
        for d in range(2 * f.n):
            shifted = [orbit[0] + d] + orbit[1:]
            for module in (paths, statistic_reference):
                monkeypatch.setattr(module, "_orbit", lambda perm, o=shifted: o)
            expected = nu_by_fractions(f)
            if expected.denominator == 1:
                assert nu(f) == expected
            else:
                with pytest.raises(NonIntegralNu):
                    nu(f)


def test_nu_shift_rule_mod_gcd():
    # the cyclic shift advances nu by 1 modulo gcd(k, n); the literal
    # integer increment fails already at shift-fixed permutations
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            d = math.gcd(f.k, n)
            assert (nu(f.cyclic_shift()) - nu(f)) % d == 1 % d


def test_nu_bar_constant_on_classes():
    for n in range(2, 7):
        for f in enumerate_theta(None, n):
            if math.gcd(f.k, n) == 1:
                continue
            expected = nu_bar(f)
            for w in _c_class_members(f.window):
                assert nu_bar(BoundedAffinePerm(w)) == expected


def test_intersection_count_out_of_frame_shifts():
    # translates strictly below or above the path never cross it
    assert intersection_count(FIG2, (-1, 1)) == 0
    assert intersection_count(FIG2, (1, -1)) == 0
    assert multiplicity_from_paths(FIG2, (-1, 1)) == 0
