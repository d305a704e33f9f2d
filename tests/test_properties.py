"""Random single cycles past the exhaustive range (n = 9..16).

Derandomized with a bounded example count, so every run draws the same
cycles and stays fast.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from posicat import (  # noqa: E402
    BoundedAffinePerm,
    fset_from_paths,
    inversion_multiset,
    multiplicity_from_paths,
)


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
    assert fset == inversion_multiset(f, "sheared").entries
    assert sum(fset.values()) == f.length()
