"""Random single cycles, and random bounded windows, past the exhaustive
range (n = 9..16).

Derandomized with a bounded example count, so every run draws the same
cycles and stays fast.  The counting formula and the synthesis round trip
need repetition-free cycles, which are 32%, 21% and 13% of the cycles at
n = 9, 10, 11 and rare beyond; those tests draw n = 9..11 and return early
on the other draws, so Hypothesis' filter health check cannot trip.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from posicat import (  # noqa: E402
    BoundedAffinePerm,
    Engine,
    count_avoiding_paths,
    fset_from_paths,
    inversion_multiset,
    multiplicity_from_paths,
    parse_perm,
    synthesize_perm,
)


def window_text(f):
    return "window:" + ",".join(map(str, f.window))


@st.composite
def single_cycles(draw, n_min=9, n_max=16):
    n = draw(st.integers(n_min, n_max))
    rest = draw(st.permutations(range(1, n)))
    return BoundedAffinePerm.from_cycle([0, *rest])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(single_cycles())
def test_path_oracle_matches_per_shift_and_resolution(f):
    fset = fset_from_paths(f)
    per_shift = {}
    for a in range(1, f.k):
        for b in range(1, f.n):
            m = multiplicity_from_paths(f, (a, b))
            if m:
                per_shift[(a, b)] = m
    assert fset == per_shift
    assert fset == inversion_multiset(f).to_sheared().entries
    assert sum(fset.values()) == f.length()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(single_cycles(9, 11))
def test_counting_formula(f):
    sheared = inversion_multiset(f).to_sheared()
    if not sheared.is_set():
        return
    assert Engine().compute_C(f) == count_avoiding_paths(f.k, f.n, sheared.points())


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(single_cycles(9, 11))
def test_synthesis_round_trip(f):
    ms = inversion_multiset(f)
    if not ms.is_set():
        return
    assert inversion_multiset(synthesize_perm(ms.points(), f.k, f.n)) == ms


@st.composite
def bounded_windows(draw, n_min=9, n_max=16):
    """A bounded window with some residues fixed (f(i) = i or i + n) and the
    others permuted, so multi-cycle windows and fixed residues both occur."""
    n = draw(st.integers(n_min, n_max))
    fixed = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    moved = [i for i in range(n) if i not in fixed]
    image = dict(zip(moved, draw(st.permutations(moved))))
    w = []
    for i in range(n):
        if i in fixed:
            w.append(i + n if draw(st.booleans()) else i)
        else:
            w.append(image[i] if image[i] > i else image[i] + n)
    return w


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(single_cycles(), bounded_windows())
def test_text_round_trip(f, w):
    assert parse_perm(window_text(f)) == f
    # k is read off the closed form: every bounded window's residues are
    # distinct mod n, so the displacement sum is a multiple of n
    g = BoundedAffinePerm(w)
    n = len(w)
    assert g.k * n == sum(w) - n * (n - 1) // 2
    assert parse_perm(window_text(g)) == g
    [cycle] = f._cycle_tuples()
    assert parse_perm("cycle:(" + ",".join(map(str, cycle)) + ")") == f
    one_based = ",".join(str(x or f.n) for x in cycle)
    assert parse_perm(f"cycle:({one_based})", one_based=True) == f
