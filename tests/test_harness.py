import functools
import itertools
import json
import math

import pytest

from posicat import (
    BoundedAffinePerm,
    Engine,
    classes_census,
    census_report,
    cs_convex_subsets,
    enumerate_theta,
    verify_engine,
    verify_main_theorem,
    verify_structure,
    verify_synthesis,
)
from posicat import harness
from posicat.errors import PosicatError
from posicat.invsets import LatticeMultiset, is_convex_points
from posicat.polynomial import ONE


def test_cycle_counts():
    assert sum(1 for _ in enumerate_theta(None, 4)) == 6
    assert all(f.cycle_count() == 1 for f in enumerate_theta(None, 5))


def test_theta_partition_identity():
    for n in range(2, 8):
        total = sum(sum(1 for _ in enumerate_theta(k, n)) for k in range(1, n))
        assert total == math.factorial(n - 1)
    assert sum(1 for _ in enumerate_theta(1, 3)) == 1
    counts5 = [sum(1 for _ in enumerate_theta(k, 5)) for k in range(1, 5)]
    assert sum(counts5) == 24 and counts5 == [1, 11, 11, 1]


@pytest.mark.parametrize("n", [1, 0, -3])
def test_enumerate_theta_is_empty_below_period_two(n):
    # Theta(k, 1) is empty, as `from_cycle` says by raising DegeneratePeriod
    assert list(enumerate_theta(None, n)) == []
    assert list(enumerate_theta(1, n)) == []


@pytest.mark.parametrize("n", [1, 0, -3])
def test_classes_census_is_empty_below_period_two(n):
    report = classes_census(1, n)
    assert report["groups"] == [] and report["repetition_free_total"] == 0


def test_bounded_enumeration_counts():
    # permutations with fixed points doubled: sum_j C(n,j) 2^j D(n-j)
    derange = [1, 0, 1, 2, 9, 44, 265]

    def expected(n):
        return sum(
            math.comb(n, j) * 2 ** j * derange[n - j] for j in range(n + 1)
        )

    for n in range(1, 6):
        seen = set()
        for perm in map(BoundedAffinePerm, harness._bounded_windows(n)):
            seen.add(perm.window)
        assert len(seen) == expected(n)


def test_verify_main_theorem_small():
    report = verify_main_theorem(5)
    assert report.passed
    assert report.checked == sum(math.factorial(n - 1) for n in range(2, 6))
    payload = json.loads(report.to_json())
    assert payload["suite"] == "main" and payload["passed"] is True
    assert set(payload) == {"suite", "params", "checked", "failures", "passed", "elapsed"}


def test_verify_main_theorem_records_exception_and_continues(monkeypatch):
    import posicat.harness as harness

    bad = (2, 4, 3, 5)
    original = harness.fset_from_paths

    def flaky(perm):
        if perm.window == bad:
            raise RuntimeError("injected")
        return original(perm)

    monkeypatch.setattr(harness, "fset_from_paths", flaky)
    report = verify_main_theorem(5)
    assert report.checked == sum(math.factorial(n - 1) for n in range(2, 6))
    assert report.failures == [
        {"window": list(bad), "check": "exception", "expected": None,
         "actual": "RuntimeError('injected')"}
    ]


@pytest.mark.parametrize("chunk, windows, checked", [
    ("_engine_theta_chunk", "theta", 6),
    ("_engine_class_chunk", "reps", 6),
    ("_engine_bounded_chunk", "bounded", 65),
])
def test_engine_chunks_record_exception_and_continue(monkeypatch, chunk, windows, checked):
    # `chunk` labels an engine-suite phase; each runs through `_checked_chunk`
    import posicat.harness as harness

    # the translation is its own sigma-shift and its own class, and no
    # other window's checks reach it at this period
    bad = (1, 2, 3, 4)

    class FlakyEngine(Engine):
        def compute_C(self, perm):
            if perm.window == bad:
                raise RuntimeError("injected")
            return super().compute_C(perm)

    monkeypatch.setattr(harness, "Engine", FlakyEngine)
    rep_of = harness._class_reps(harness._theta_windows(4))
    assert rep_of[bad] == bad  # a one-member class
    checks, items = {
        "theta": (harness._engine_theta_checks, list(harness._theta_windows(4))),
        "reps": (functools.partial(harness._engine_class_checks, rep_of=rep_of),
                 list(rep_of)),
        "bounded": (harness._engine_bounded_checks, list(harness._bounded_windows(4))),
    }[windows]
    assert bad in items
    assert harness._checked_chunk(checks, items) == (checked, [
        {"window": list(bad), "check": "exception", "expected": None,
         "actual": "RuntimeError('injected')"}
    ])


def test_synthesis_chunk_records_missed_postconditions(monkeypatch):
    import posicat.harness as harness

    wrong = BoundedAffinePerm([1, 4, 3, 6, 5, 8])
    monkeypatch.setattr(harness, "profile_to_perm", lambda profile: wrong)
    window = list(wrong.window)
    tasks = [(2, 6, ((1, 1), (1, 2), (1, 3)))]
    assert harness._checked_chunk(harness._synthesis_checks, tasks) == (1, [
        {"window": window, "check": "repetition_free", "expected": True, "actual": False},
        {"window": window, "check": "fset_roundtrip",
         "expected": [(1, 1), (1, 2), (1, 3)], "actual": [(1, 2)]},
        {"window": window, "check": "orbit_floor", "expected": 2, "actual": 0},
    ])


def test_verify_synthesis_validates_each_profile_once(monkeypatch):
    # one exact validation per synthesized profile: profile_to_perm does not
    # check the ConcaveProfile that synthesize_profile returns again
    import posicat.dyck as dyck

    calls = []
    validate = dyck.validate_profile

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(dyck, "validate_profile", counted)
    report = verify_synthesis(6)
    assert report.passed and report.checked > 0
    assert len(calls) == report.checked


def test_verify_synthesis_records_exception_and_continues(monkeypatch):
    import posicat.harness as harness

    bad = (3, 7, ((1, 1), (2, 3)))
    original = harness.inversion_multiset

    def flaky(perm):
        if (perm.k, perm.n) == bad[:2] and original(perm).points() == list(bad[2]):
            raise RuntimeError("injected")
        return original(perm)

    monkeypatch.setattr(harness, "inversion_multiset", flaky)
    report = verify_synthesis(7)
    assert report.checked == sum(
        len(cs_convex_subsets(k, n)) for n in range(2, 8) for k in range(1, n)
    )
    assert report.failures == [
        {"window": [3, 7], "check": "synthesis_error", "expected": [(1, 1), (2, 3)],
         "actual": "RuntimeError('injected')"}
    ]
    json.loads(report.to_json())


def test_structure_records_a_short_window():
    import posicat.harness as harness

    # the translation by 2 at n = 4: length 0, below gcd(2, 4) - 1 (it has
    # two cycles, so no single-cycle window is this short)
    failures = []
    harness._structure_checks((2, 3, 4, 5), None, failures)
    assert failures == [
        {"window": [2, 3, 4, 5], "check": "min_length", "expected": ">= 1", "actual": 0}
    ]


def _plus_one(original):
    return lambda *args: original(*args) + 1


def _raising(original):
    def raising(*args):
        raise RuntimeError("injected")
    return raising


def _suite_report(suite):
    """The report of `suite` at n_max = 5; `engine_theta` and
    `engine_bounded` run one phase of the engine suite alone, since both
    phases have an `rtilde_at_1` check."""
    phases = {
        "engine_theta": (harness._engine_theta_checks, harness._theta_range(5)),
        "engine_bounded": (harness._engine_bounded_checks,
                           [w for n in range(1, 6) for w in harness._bounded_windows(n)]),
    }
    if suite in phases:
        return harness._run_suite("engine", 5, 1, phases[suite])
    return {"main": verify_main_theorem, "synthesis": verify_synthesis,
            "engine": verify_engine, "structure": verify_structure}[suite](5)


def _translation_shift(original):
    # the translation shares k and n but not, at every window, C and R~
    return lambda self: BoundedAffinePerm.translation(self.k, self.n)


def _one_class(original):
    # every window checked against the first: a class of its own
    return lambda windows: dict.fromkeys(windows, windows[0])


def _longest_member(original):
    return lambda k, n: max(enumerate_theta(k, n), key=BoundedAffinePerm.length)


FAILING_CHECKS = [
    ("total_multiplicity", "main", LatticeMultiset, "total", _plus_one),
    ("central_symmetry", "main", harness, "is_centrally_symmetric",
     lambda original: lambda ms: False),
    ("path_oracle", "main", harness, "fset_from_paths", lambda original: lambda perm: {}),
    ("f_min_subset", "main", harness, "f_min", lambda original: lambda k, n: {(0, 0)}),
    ("convexity", "main", harness, "is_convex", lambda original: lambda ms: False),
    ("counting_formula", "main", harness, "count_avoiding_paths", _plus_one),
    ("synthesis_error", "synthesis", harness, "synthesize_profile", _raising),
    ("rtilde_at_1", "engine_theta", Engine, "compute_Rtilde",
     lambda original: lambda *args: original(*args) + ONE),
    ("sigma_C", "engine_theta", BoundedAffinePerm, "cyclic_shift", _translation_shift),
    ("sigma_Rtilde", "engine_theta", BoundedAffinePerm, "cyclic_shift", _translation_shift),
    ("double_crossing_identity_0", "engine_theta", Engine,
     "double_crossing_recurrence_check", lambda original: lambda *args: False),
    ("class_C", "engine", harness, "_class_reps", _one_class),
    ("class_Rtilde", "engine", harness, "_class_reps", _one_class),
    ("positivity", "engine_bounded", Engine, "compute_C", lambda original: lambda *args: 0),
    ("rtilde_at_1", "engine_bounded", Engine, "compute_Rtilde",
     lambda original: lambda *args: original(*args) + ONE),
    ("decoupling", "engine_bounded", Engine, "compute_C_decoupled", _plus_one),
    ("witness_length", "structure", harness, "min_length_witness", _longest_member),
]


@pytest.mark.parametrize("check, suite, owner, name, replace", FAILING_CHECKS,
                         ids=[f"{suite}-{check}" for check, suite, *_ in FAILING_CHECKS])
def test_every_check_is_seen_to_fail(monkeypatch, check, suite, owner, name, replace):
    # each check passes unpatched and fails once one name it reads is wrong
    assert _suite_report(suite).passed
    monkeypatch.setattr(owner, name, replace(getattr(owner, name)))
    failed = {f["check"] for f in _suite_report(suite).failures}
    assert check in failed, failed


@pytest.mark.parametrize("suite, n_max", [
    (verify_main_theorem, 5),
    (verify_synthesis, 7),
    (verify_engine, 4),
    (verify_structure, 5),
], ids=["main", "synthesis", "engine", "structure"])
def test_suite_parallel_matches_serial(suite, n_max):
    serial = json.loads(suite(n_max, jobs=1).to_json())
    parallel = json.loads(suite(n_max, jobs=2).to_json())
    assert serial["checked"] > 4  # enough items to split across two workers
    assert parallel["params"] == {"n_max": n_max, "jobs": 2}
    for report in (serial, parallel):
        del report["elapsed"], report["params"]["jobs"]
    assert serial == parallel


@pytest.mark.parametrize("n_max", [1, 0, -3])
def test_suites_reject_n_max_below_two(n_max):
    # below period 2 no window is checked, which must not read as a pass
    for suite in (verify_main_theorem, verify_synthesis, verify_engine, verify_structure):
        with pytest.raises(PosicatError, match="n_max"):
            suite(n_max)
    with pytest.raises(PosicatError, match="n_max"):
        census_report(n_max)


def test_suites_reject_jobs_below_one():
    for suite in (verify_main_theorem, verify_synthesis, verify_engine, verify_structure):
        for jobs in (0, -1):
            with pytest.raises(PosicatError, match="jobs"):
                suite(3, jobs=jobs)


def test_verify_synthesis_small():
    report = verify_synthesis(6)
    assert report.passed
    assert report.checked == sum(
        len(cs_convex_subsets(k, n)) for n in range(2, 7) for k in range(1, n)
    )


def test_verify_engine_small():
    report = verify_engine(4)
    assert report.passed
    assert report.checked > 0


def test_verify_structure_small():
    report = verify_structure(7)
    assert report.passed


def test_cs_convex_subsets_2_4():
    assert cs_convex_subsets(2, 4) == [frozenset({(1, 1)})]


def test_cs_convex_subsets_4_8_catalog():
    catalog = cs_convex_subsets(4, 8)
    expected = [
        {(1, 1), (2, 2), (3, 3)},
        {(1, 1), (1, 2), (2, 2), (3, 2), (3, 3)},
        {(1, 1), (2, 1), (2, 2), (2, 3), (3, 3)},
        {(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)},
        {(a, b) for a in range(1, 4) for b in range(1, 4)},
    ]
    assert [set(s) for s in catalog] == expected


def test_cs_convex_subsets_match_full_filter():
    # independent oracle: filter all subsets of the rectangle directly
    for k, n in [(2, 4), (2, 5), (3, 6), (4, 8)]:
        rect = [(a, b) for a in range(1, k) for b in range(1, n - k)]
        brute = set()
        for r in range(len(rect) + 1):
            for sub in itertools.combinations(rect, r):
                s = set(sub)
                if all((k - a, n - k - b) in s for a, b in s) and is_convex_points(
                    s, k, n - k
                ):
                    brute.add(frozenset(s))
        assert brute == set(cs_convex_subsets(k, n))


def test_minimal_elements_single_orbit():
    # the minimal-length elements of each family are all related by cyclic
    # shifts and length-preserving conjugations
    from posicat import min_length_witness
    from posicat.affine import _c_class_members, _length, _sigma

    for n in range(2, 8):
        by_k = {}
        for f in enumerate_theta(None, n):
            by_k.setdefault(f.k, []).append(f.window)
        for k, windows in by_k.items():
            minimum = min(_length(w) for w in windows)
            minimal = {w for w in windows if _length(w) == minimum}
            seed = min_length_witness(k, n).window
            closure = set()
            frontier = {seed}
            while frontier:
                w = frontier.pop()
                if w in closure:
                    continue
                closure.add(w)
                frontier.add(_sigma(w))
                frontier.update(_c_class_members(w))
            assert closure == minimal, (k, n)


def test_census_2_4():
    report = classes_census(2, 4)
    assert report["gcd"] == 2
    assert len(report["groups"]) == 1
    group = report["groups"][0]
    assert group["fset_rect"] == [[1, 1]]
    assert group["class_count"] == 2
    assert group["nu_bar_per_class"] == [[1], [0]]  # classes sorted by window
    assert group["matches_gcd"] and report["all_match_gcd"]


def test_census_2_5():
    report = classes_census(2, 5)
    assert report["gcd"] == 1
    assert all(g["class_count"] == 1 for g in report["groups"])
    assert report["all_match_gcd"]


def test_census_report_structure():
    report = census_report(4)
    assert report["suite"] == "census"
    assert len(report["frames"]) == sum(n - 1 for n in range(2, 5))
    json.dumps(report)  # JSON-serialisable end to end
