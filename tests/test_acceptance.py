"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Every check is exact; the stated time budgets are asserted.
"""

import math
import time

import pytest

from posicat import (
    BoundedAffinePerm,
    Engine,
    census_report,
    cs_convex_subsets,
    inversion_multiset,
    parse_perm,
    verify_engine,
    verify_main_theorem,
    verify_structure,
    verify_synthesis,
)


def announce(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {message}")


# -- criterion 1: rational Catalan values -------------------------------------------

def test_criterion_1_rational_catalan_values():
    engine = Engine()
    start = time.time()
    checked = 0
    for n in range(2, 13):
        for k in range(1, n):
            if math.gcd(k, n) != 1:
                continue
            value = engine.compute_C(BoundedAffinePerm.translation(k, n))
            assert value == math.comb(n, k) // n, (k, n)
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget is 1s"
    announce(1, f"{checked} coprime translation values exact in {elapsed * 1000:.0f}ms")


# -- criterion 2: named instances ----------------------------------------------------

def test_criterion_2_named_instances():
    example = parse_perm("cycle:(1,4,6,2,5,7,3)", one_based=True)
    start = time.time()
    assert Engine().compute_C(example) == 3
    first = time.time() - start

    drawn = BoundedAffinePerm([3, 6, 4, 5, 7, 8, 9])
    start = time.time()
    assert Engine().compute_C(drawn) == 3
    second = time.time() - start
    assert inversion_multiset(drawn).entries == {(1, 1): 1, (2, 3): 1}

    assert first < 0.010 and second < 0.010, (first, second)
    announce(
        2,
        f"both named instances give 3 with the drawn inversion set "
        f"({first * 1000:.2f}ms, {second * 1000:.2f}ms)",
    )


# -- criteria 3 and 4 share one exhaustive sweep --------------------------------------

@pytest.fixture(scope="module")
def main_sweep():
    report = verify_main_theorem(8)
    return report


def test_criterion_3_main_theorem_suite(main_sweep):
    assert main_sweep.checked == sum(math.factorial(n - 1) for n in range(2, 9))
    relevant = [
        f
        for f in main_sweep.failures
        if f["check"] in ("central_symmetry", "convexity", "counting_formula",
                          "total_multiplicity", "f_min_subset")
    ]
    assert relevant == []
    assert main_sweep.elapsed < 300, f"took {main_sweep.elapsed:.1f}s, budget is 5min"
    announce(
        3,
        f"symmetry, convexity and the counting formula hold over all "
        f"{main_sweep.checked} single-cycle permutations with n <= 8 "
        f"in {main_sweep.elapsed:.1f}s",
    )


def test_criterion_4_oracle_equivalence(main_sweep):
    oracle_failures = [f for f in main_sweep.failures if f["check"] == "path_oracle"]
    assert oracle_failures == []
    announce(
        4,
        "crossing-resolution and path-intersection multisets agree "
        "multiplicity by multiplicity for every n <= 8 instance",
    )


# -- criterion 5: synthesis round-trip --------------------------------------------------

def test_criterion_5_synthesis_round_trip():
    report = verify_synthesis(8)
    assert report.passed, report.failures[:3]
    assert report.elapsed < 60, f"took {report.elapsed:.1f}s, budget is 1min"

    catalog = cs_convex_subsets(4, 8)
    expected = [
        {(1, 1), (2, 2), (3, 3)},
        {(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)},
        {(1, 1), (2, 1), (2, 2), (2, 3), (3, 3)},
        {(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)},
        {(a, b) for a in range(1, 4) for b in range(1, 4)},
    ]
    assert [set(s) for s in catalog] == expected
    announce(
        5,
        f"all {report.checked} symmetric convex subsets with n <= 8 "
        f"synthesize and round-trip in {report.elapsed:.1f}s; the (4,8) "
        f"catalog lists all {len(catalog)} sets",
    )


# -- criterion 6: engine consistency ------------------------------------------------------

def test_criterion_6_engine_consistency():
    report = verify_engine(7)
    assert report.passed, report.failures[:3]
    assert report.elapsed < 300, f"took {report.elapsed:.1f}s, budget is 5min"
    announce(
        6,
        f"R~ at q=1 equals C, shift/conjugation invariance, "
        f"decoupling and the double-crossing identity hold over "
        f"{report.checked} instances with n <= 7 in {report.elapsed:.1f}s",
    )


# -- criterion 7: structural facts ----------------------------------------------------------

def test_criterion_7_minimal_lengths():
    report = verify_structure(8)
    assert report.passed, report.failures[:3]
    announce(
        7,
        f"minimal length equals gcd(k, n) - 1 and the witness achieves it "
        f"for every frame with n <= 8 ({report.checked} permutations)",
    )


# -- criterion 8: census (observational) -----------------------------------------------------

def test_criterion_8_census_emits_observations():
    report = census_report(8)
    frames = report["frames"]
    assert len(frames) == sum(n - 1 for n in range(2, 9))
    for frame in frames:
        assert {"k", "n", "gcd", "groups", "all_match_gcd"} <= set(frame)
        for group in frame["groups"]:
            assert group["class_count"] >= 1
            assert "matches_gcd" in group  # flagged, never asserted
    agree = sum(1 for f in frames if f["all_match_gcd"])
    announce(
        8,
        f"census emitted for {len(frames)} frames with n <= 8; "
        f"{agree}/{len(frames)} agree with the gcd class-count prediction "
        f"(observational)",
    )
