import functools
import itertools
import json
import math
import sys
import time

import pytest

from posicat import (
    BoundedAffinePerm,
    Engine,
    classes_census,
    census_report,
    count_avoiding_paths,
    cs_convex_subsets,
    enumerate_theta,
    f_min,
    inversion_multiset,
    synthesize_profile,
    verify_engine,
    verify_main_theorem,
    verify_structure,
    verify_synthesis,
)
import posicat.engine
from posicat import harness
from posicat.errors import InvalidFrame, PosicatError
from posicat.invsets import LatticeMultiset, is_convex_points
from posicat.polynomial import IntPoly, ONE, Q, Q_MINUS_1

from poly_reference import poly_add


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


@pytest.mark.parametrize("k", [7, 0])
def test_classes_census_refuses_a_k_outside_the_frame(k):
    # Theta(7, 4) and Theta(0, 4) are empty: no report, not a vacuous match
    with pytest.raises(InvalidFrame, match=f"got k={k}, n=4"):
        classes_census(k, 4)


# each call puts the bad value where the entry point reads k, n, n_max or
# jobs
NON_INTEGER_ENTRY_POINTS = {
    "count_avoiding_paths": (InvalidFrame, lambda x: count_avoiding_paths(x, 7, [])),
    "synthesize_profile": (InvalidFrame, lambda x: synthesize_profile([], x, 4)),
    "cs_convex_subsets": (InvalidFrame, lambda x: cs_convex_subsets(x, 4)),
    "classes_census": (InvalidFrame, lambda x: classes_census(x, 4)),
    "f_min": (InvalidFrame, lambda x: f_min(x, 4)),
    "enumerate_theta(k)": (InvalidFrame, lambda x: enumerate_theta(x, 4)),
    "enumerate_theta(n)": (InvalidFrame, lambda x: enumerate_theta(2, x)),
    "enumerate_theta(None, n)": (InvalidFrame, lambda x: enumerate_theta(None, x)),
    "verify_main_theorem": (PosicatError, lambda x: verify_main_theorem(x)),
    "verify_structure(jobs)": (PosicatError, lambda x: verify_structure(4, jobs=x)),
    "census_report": (PosicatError, lambda x: census_report(x)),
}


@pytest.mark.parametrize("entry, bad", [
    pytest.param(entry, bad, id=f"{entry}-{kind}")
    for entry in sorted(NON_INTEGER_ENTRY_POINTS)
    for kind, bad in (("float", 2.0), ("string", "2"), ("None", None))
    # enumerate_theta reads a k of None as every k
    if not (entry == "enumerate_theta(k)" and bad is None)
])
def test_a_non_integer_frame_or_bound_is_refused(entry, bad):
    # a float k used to reach enumerate_theta's filter and yield Theta(2, 4)
    error, call = NON_INTEGER_ENTRY_POINTS[entry]
    with pytest.raises(error, match="integer"):
        call(bad)


@pytest.mark.parametrize("k", [7, 3, 0, -1])
def test_enumerate_theta_refuses_a_k_outside_the_frame_at_the_call(k):
    # raised before the generator is read, so no caller scans (n-1)! cycles
    with pytest.raises(InvalidFrame, match=f"got k={k}, n=3"):
        enumerate_theta(k, 3)


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


def _counted(monkeypatch, owner, name):
    """Wrap `owner.name` so that its calls are counted; returns the counter."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _repetition_free_sets(n_max):
    """The repetition-free windows with period <= n_max, keyed by (k, n,
    sheared inversion set)."""
    sets = {}
    for w in harness._theta_range(n_max):
        perm = BoundedAffinePerm(w)
        sheared = inversion_multiset(perm).to_sheared()
        if sheared.is_set():
            sets.setdefault((perm.k, perm.n, frozenset(sheared.entries)), []).append(w)
    return sets


def test_main_theorem_computes_convexity_and_dyck_once_per_set(monkeypatch):
    # 613 repetition-free windows with n <= 7 share 36 forbidden sets
    sets = _repetition_free_sets(7)
    assert (sum(map(len, sets.values())), len(sets)) == (613, 36)
    dyck_calls = _counted(monkeypatch, harness, "count_avoiding_paths")
    convex_calls = _counted(monkeypatch, harness, "is_convex")
    assert verify_main_theorem(7, jobs=1).passed
    assert (len(dyck_calls), len(convex_calls)) == (36, 36)
    assert {(k, n, frozenset(points)) for k, n, points in dyck_calls} == set(sets)
    # the sets are shared within one call only: a second call computes again
    assert verify_main_theorem(7, jobs=1).passed
    assert (len(dyck_calls), len(convex_calls)) == (72, 72)


def test_counting_formula_sees_a_dyck_count_wrong_on_one_set(monkeypatch):
    # a Dyck count off by one on a single (k, n, F) fails the counting
    # formula on every window of that set, and on no other window
    target = (3, 7, [(1, 2), (1, 3), (2, 4), (2, 5)])
    windows = _repetition_free_sets(7)[(3, 7, frozenset(target[2]))]
    assert len(windows) == 112
    original = harness.count_avoiding_paths

    def wrong_on_one_set(k, n, points):
        return original(k, n, points) + ((k, n, sorted(points)) == target)

    monkeypatch.setattr(harness, "count_avoiding_paths", wrong_on_one_set)
    failures = verify_main_theorem(7).failures
    assert {f["check"] for f in failures} == {"counting_formula"}
    assert sorted(f["window"] for f in failures) == sorted(map(list, windows))
    assert all(f["actual"] == f["expected"] + 1 for f in failures)


def test_total_multiplicity_sees_a_wrong_inversion_pair_list(monkeypatch):
    # the length comes from Shi's formula, not from `_inversion_pairs`, so
    # pairs dropped past the window shorten the multiset and not the length
    import posicat.affine
    import posicat.invsets

    original = posicat.affine._inversion_pairs

    def in_window_only(w):
        return ((i, j) for i, j in original(w) if j < len(w))

    monkeypatch.setattr(posicat.affine, "_inversion_pairs", in_window_only)
    monkeypatch.setattr(posicat.invsets, "_inversion_pairs", in_window_only)
    failed = {f["check"] for f in verify_main_theorem(5).failures}
    assert "total_multiplicity" in failed, failed


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

    calls = _counted(monkeypatch, dyck, "validate_profile")
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
        return harness._run_suite("engine", 5, 1, lambda: [phases[suite]])
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
     lambda original: lambda *args: poly_add(original(*args), ONE)),
    ("rtilde_symmetry", "engine_theta", BoundedAffinePerm, "length", _plus_one),
    ("sigma_C", "engine_theta", BoundedAffinePerm, "cyclic_shift", _translation_shift),
    ("sigma_Rtilde", "engine_theta", BoundedAffinePerm, "cyclic_shift", _translation_shift),
    ("double_crossing_identity_0", "engine_theta", Engine,
     "double_crossing_recurrence_check", lambda original: lambda *args: False),
    ("class_C", "engine", harness, "_class_reps", _one_class),
    ("class_Rtilde", "engine", harness, "_class_reps", _one_class),
    ("positivity", "engine_bounded", Engine, "compute_C", lambda original: lambda *args: 0),
    ("rtilde_at_1", "engine_bounded", Engine, "compute_Rtilde",
     lambda original: lambda *args: poly_add(original(*args), ONE)),
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


def test_decoupling_sees_one_wrong_cycle_factor(monkeypatch):
    # the method is left as it is; only the factor of a 2-cycle, whose
    # restriction is always (1, 2) with C = 1, is read off the translation
    # (2, 3, 4, 5, 6) with C = 2.  The C ring restricts its nodes through the
    # same function, so only the calls made by compute_C_decoupled go wrong
    original = posicat.engine._relabel_restriction
    decoupled = Engine.compute_C_decoupled.__code__

    def corrupt(w, residues):
        v = original(w, residues)
        if v == (1, 2) and sys._getframe(1).f_code is decoupled:
            return (2, 3, 4, 5, 6)
        return v

    monkeypatch.setattr(posicat.engine, "_relabel_restriction", corrupt)
    failed = {f["check"] for f in verify_engine(5).failures}
    assert failed == {"decoupling"}


# the C ring's product over the cycles of a node, wrong in two ways
RING_PRODUCT_MUTATIONS = {
    "drops_one_factor": lambda factors: math.prod(list(factors)[1:]),
    "adds_one": lambda factors: math.prod(factors) + 1,
}


@pytest.mark.parametrize("mutation, engine_n, main_n",
                         [("adds_one", 5, 6), ("drops_one_factor", 7, 7)])
def test_wrong_ring_product_is_seen_without_decoupling(monkeypatch, mutation, engine_n, main_n):
    # the R~ ring never decouples, so rtilde_at_1 sees a wrong C; the main
    # suite's Dyck count does not use the engine.  A dropped factor shows
    # only from period 7: every cycle of period 4 or less has C = 1, and a
    # node with two or more cycles and no fixed residue is a product of such
    # cycles up to period 6
    monkeypatch.setattr(posicat.engine, "prod", RING_PRODUCT_MUTATIONS[mutation])
    assert "rtilde_at_1" in {f["check"] for f in verify_engine(engine_n).failures}
    assert "counting_formula" in {f["check"] for f in verify_main_theorem(main_n).failures}


RING_STEP_MUTATIONS = {
    # (q-1) x + q y in place of (q-1)^2 x + q y
    "apart_step_one_factor": ("_apart_step", lambda x, y: poly_add(Q_MINUS_1 * x, Q * y)),
    # x + y in place of x + q y
    "same_step_without_shift": ("_same_step", poly_add),
}


@pytest.mark.parametrize("mutation", sorted(RING_STEP_MUTATIONS))
def test_rtilde_symmetry_sees_a_wrong_ring_step(monkeypatch, mutation):
    # both mutations leave R~(1), and so every q = 1 check, unchanged; only
    # the shape of the whole polynomial shows them.  The ring takes its steps
    # when an engine is built, so each chunk's engine gets the mutated one
    name, step = RING_STEP_MUTATIONS[mutation]
    monkeypatch.setattr(posicat.engine, name, step)
    failures = _suite_report("engine_theta").failures
    assert {f["check"] for f in failures} == {"rtilde_symmetry"}
    assert len(failures) == 2


@pytest.mark.parametrize("coeffs", [[1, 0, 2], [2, 0, 2], [1, 1]],
                         ids=["not_palindromic", "constant_term", "degree"])
def test_rtilde_symmetry_reads_each_condition(monkeypatch, coeffs):
    # the window's R~ is 1 + q^2; each polynomial breaks one of the three
    # conditions and keeps the other two
    w = BoundedAffinePerm.from_cycle([0, 3, 2, 5, 1, 4]).window
    failures = []
    harness._engine_theta_checks(w, Engine(), failures)
    assert failures == []
    monkeypatch.setattr(Engine, "compute_Rtilde", lambda self, perm: IntPoly(coeffs))
    harness._engine_theta_checks(w, Engine(), failures)
    assert [f for f in failures if f["check"] == "rtilde_symmetry"] == [
        {"window": list(w), "check": "rtilde_symmetry",
         "expected": "palindromic, degree 2, constant term 1", "actual": coeffs}
    ]


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


def test_suites_check_bounds_before_enumerating(monkeypatch):
    # a bad n_max or jobs is reported before any item list is built
    for name in ("_theta_range", "_class_reps", "cs_convex_subsets", "min_length_witness"):
        monkeypatch.setattr(harness, name, _raising(None))
    for suite in (verify_main_theorem, verify_synthesis, verify_engine, verify_structure):
        with pytest.raises(PosicatError, match="n_max"):
            suite(1)
        with pytest.raises(PosicatError, match="jobs"):
            suite(3, jobs=0)


@pytest.mark.parametrize("suite, name", [
    (verify_main_theorem, "_theta_range"),
    (verify_synthesis, "cs_convex_subsets"),
    (verify_engine, "_theta_range"),
    (verify_structure, "_theta_range"),
    (verify_structure, "min_length_witness"),
], ids=["main", "synthesis", "engine", "structure", "structure-witness"])
def test_suite_elapsed_includes_enumeration(monkeypatch, suite, name):
    # at n_max = 2 each wrapped name is called once, from inside the suite
    original = getattr(harness, name)

    def slow(*args):
        time.sleep(0.2)
        return original(*args)

    monkeypatch.setattr(harness, name, slow)
    report = suite(2)
    assert report.passed
    assert report.elapsed >= 0.2


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


def test_checked_counts_every_phase_item():
    # one item is one checked instance, in every phase of every suite
    theta = harness._theta_range(5)
    items = {
        "main": len(theta),
        "synthesis": sum(len(cs_convex_subsets(k, n)) for n in range(2, 6) for k in range(1, n)),
        "engine": len(theta) + len(harness._class_reps(theta))
        + sum(1 for n in range(1, 6) for _ in harness._bounded_windows(n)),
        "structure": len(theta) + sum(n - 1 for n in range(2, 6)),
    }
    assert {suite: _suite_report(suite).checked for suite in items} == items


def test_a_raising_witness_is_recorded_and_the_sweep_goes_on(monkeypatch):
    original = harness.min_length_witness
    frames = []

    def witness(k, n):
        frames.append((k, n))
        if (k, n) == (2, 4):
            raise PosicatError("boom")
        return original(k, n)

    monkeypatch.setattr(harness, "min_length_witness", witness)
    report = verify_structure(5)
    assert report.failures == [
        {"window": [2, 4], "check": "exception", "expected": None,
         "actual": "PosicatError('boom')"}
    ]
    assert frames == [(k, n) for n in range(2, 6) for k in range(1, n)]
    assert report.checked == 1 + 2 + 6 + 24 + 10  # the Theta windows and the frames


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


def _mask_scan(k, n):
    """Reference enumerator: every subset of the symmetric orbits, filtered
    by `is_convex_points`; 2^ceil(P/2) candidates for P rectangle points."""
    m = n - k
    orbits = []
    seen = set()
    for a in range(1, k):
        for b in range(1, m):
            if (a, b) not in seen:
                seen.update({(a, b), (k - a, m - b)})
                orbits.append({(a, b), (k - a, m - b)})
    out = []
    for mask in range(1 << len(orbits)):
        points = set()
        for idx, orbit in enumerate(orbits):
            if (mask >> idx) & 1:
                points |= orbit
        if is_convex_points(points, k, m):
            out.append(frozenset(points))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def test_cs_convex_subsets_match_the_mask_scan():
    for n in range(2, 11):
        for k in range(1, n):
            assert cs_convex_subsets(k, n) == _mask_scan(k, n), (k, n)


def test_cs_convex_subsets_totals_per_period():
    totals = [
        sum(len(cs_convex_subsets(k, n)) for k in range(1, n)) for n in range(2, 14)
    ]
    assert totals == [1, 2, 3, 6, 8, 16, 23, 38, 59, 94, 141, 220]


def test_cs_convex_subsets_cost_follows_the_output(monkeypatch):
    # one closure per found set and orbit, plus the first: a scan over orbit
    # subsets, 2^18 of them in this frame, would make far more
    calls = _counted(monkeypatch, harness, "_lattice_closure")
    k, n = 7, 14
    result = cs_convex_subsets(k, n)
    assert len(result) == 51  # as the mask scan finds, in about 10 s
    orbits = ((k - 1) * (n - k - 1) + 1) // 2
    assert orbits == 18
    assert 0 < len(calls) <= len(result) * orbits + 1


@pytest.mark.parametrize("k, n", [(6, 5), (-1, 3), (0, 5), (2, 2)])
def test_cs_convex_subsets_frame_outside_range_raises(k, n):
    with pytest.raises(InvalidFrame):
        cs_convex_subsets(k, n)


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
    assert group["nu_bar_bijective"] and report["all_nu_bar_bijective"]


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


def test_census_nu_bar_is_a_bijection_up_to_period_seven():
    # observed, not asserted by the census: in every group nu_bar takes each
    # value below gcd(k, n) on exactly one conjugation class
    report = census_report(7)
    groups = [g for frame in report["frames"] for g in frame["groups"]]
    assert len(groups) == 36
    assert all(g["nu_bar_bijective"] for g in groups)
    assert all(frame["all_nu_bar_bijective"] for frame in report["frames"])
    assert report["all_nu_bar_bijective"]


def test_census_flags_a_nu_bar_that_is_not_a_bijection(monkeypatch):
    # with nu_bar constant, only the groups with one class (gcd 1) still
    # read as a bijection; the census reports it and raises nothing
    monkeypatch.setattr(harness, "nu_bar", lambda perm: 0)
    report = census_report(6)
    for frame in report["frames"]:
        for group in frame["groups"]:
            assert group["nu_bar_bijective"] == (frame["gcd"] == 1)
    assert not report["all_nu_bar_bijective"] and report["all_match_gcd"]


# -- the report record --------------------------------------------------------

def test_verification_report_compares_and_prints_field_by_field():
    report = harness.VerificationReport("main", {"n_max": 2})
    assert report == harness.VerificationReport("main", {"n_max": 2}, 0, [], 0.0)
    assert report != harness.VerificationReport("main", {"n_max": 2}, checked=1)
    assert report != 0 and report.__eq__(0) is NotImplemented
    assert repr(report) == (
        "VerificationReport(suite='main', params={'n_max': 2}, checked=0, "
        "failures=[], elapsed=0.0)"
    )


def test_verification_report_failures_are_not_shared():
    first = harness.VerificationReport("main", {})
    second = harness.VerificationReport("main", {})
    first.failures.append({"check": "x"})
    assert second.failures == [] and first != second


def test_verification_report_is_unhashable():
    with pytest.raises(TypeError):
        hash(harness.VerificationReport("main", {}))
