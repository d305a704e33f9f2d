"""Exhaustive enumeration and the theorem-verification suites.

Suites run every instance in their range and report counterexamples instead
of raising, so a failure is a structured record carrying the window and the
expected/actual values.  The census is observational: it reports conjugation
class counts per inversion set and flags, without asserting, whether they
match gcd(k, n).

Parallel runs split the permutation stream across worker processes, each
with its own engine cache; reports are aggregated in sorted order so serial
and parallel runs emit identical structures.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .affine import (
    BoundedAffinePerm,
    CyclePerm,
    _c_class_windows,
    _k_of,
    _length,
    _window_from_cycle,
    min_length_witness,
    Window,
)
from .dyck import (
    _synthesis_failures,
    count_avoiding_paths,
    profile_to_perm,
    synthesize_profile,
)
from .engine import Engine
from .invsets import (
    f_min,
    inversion_multiset,
    is_centrally_symmetric,
    is_convex,
    rect_to_sheared,
)
from .paths import fset_from_paths, nu_bar

# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_cyc(n: int) -> Iterator[CyclePerm]:
    """All (n-1)! single n-cycles, as cycles (0, p_1, ..., p_{n-1})."""
    for window in _theta_windows(n):
        yield CyclePerm([v % n for v in window])


def _theta_windows(n: int, k: Optional[int] = None) -> Iterator[Window]:
    for rest in itertools.permutations(range(1, n)):
        window = _window_from_cycle((0,) + rest)
        if k is None or _k_of(window) == k:
            yield window


def enumerate_theta(k: Optional[int], n: int) -> Iterator[BoundedAffinePerm]:
    """All single-cycle strictly bounded permutations of period n, filtered
    to displacement class k when k is given."""
    for w in _theta_windows(n, k):
        yield BoundedAffinePerm(w, _validated=True)


def _bounded_windows(n: int) -> Iterator[Window]:
    """All bounded affine permutations of period n: a permutation of the
    residues plus, for each fixed residue, the choice f(i) = i or i + n."""
    for image in itertools.permutations(range(n)):
        fixed = [i for i in range(n) if image[i] == i]
        base = [v if v > i else v + n for i, v in enumerate(image)]
        for mask in range(1 << len(fixed)):
            w = list(base)
            for bit, i in enumerate(fixed):
                w[i] = i + n if (mask >> bit) & 1 else i
            yield tuple(w)


def enumerate_bounded(n: int) -> Iterator[BoundedAffinePerm]:
    """All of B(k, n) across k, including multi-cycle permutations."""
    for w in _bounded_windows(n):
        yield BoundedAffinePerm(w, _validated=True)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    suite: str
    params: dict
    checked: int = 0
    failures: list[dict] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "params": self.params,
                "checked": self.checked,
                "failures": self.failures,
                "passed": self.passed,
                "elapsed": self.elapsed,
            }
        )


def _fail(window: Window, check: str, expected, actual) -> dict:
    return {
        "window": list(window),
        "check": check,
        "expected": expected,
        "actual": actual,
    }


def default_jobs() -> int:
    env = os.environ.get("POSICAT_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _run_chunked(worker, items: list, jobs: int) -> tuple[int, list[dict]]:
    """Apply a chunk worker serially or across processes; results merge
    order-independently."""
    if jobs <= 1 or len(items) < 2 * jobs:
        return worker(items)
    import multiprocessing

    chunks = [items[i::jobs] for i in range(jobs)]
    checked = 0
    failures: list[dict] = []
    with multiprocessing.Pool(jobs) as pool:
        for c, f in pool.map(worker, chunks):
            checked += c
            failures.extend(f)
    return checked, failures


def _checked_chunk(windows: list[Window], checks) -> tuple[int, list[dict]]:
    """Run `checks(w, engine, failures)` on each window with one engine.

    A window whose checks raise is recorded as an `exception` failure and
    the sweep goes on, so every window counts as checked.
    """
    engine = Engine()
    failures: list[dict] = []
    for w in windows:
        try:
            checks(w, engine, failures)
        except Exception as exc:  # report, do not abort the sweep
            failures.append(_fail(w, "exception", None, repr(exc)))
    return len(windows), failures


def _sort_failures(failures: list[dict]) -> list[dict]:
    return sorted(failures, key=lambda f: (len(f["window"]), f["window"], f["check"]))


# ---------------------------------------------------------------------------
# main-theorem suite
# ---------------------------------------------------------------------------

def _main_theorem_chunk(windows: list[Window]) -> tuple[int, list[dict]]:
    return _checked_chunk(windows, _main_theorem_checks)


def _main_theorem_checks(w: Window, engine: Engine, failures: list[dict]) -> None:
    """Run every main-theorem check on one window, appending failure records."""
    perm = BoundedAffinePerm(w, _validated=True)
    n, k = perm.n, perm.k
    ms = inversion_multiset(perm)
    sheared = ms.to_sheared()
    # total multiplicity is the length
    if ms.total() != perm.length():
        failures.append(_fail(w, "total_multiplicity", perm.length(), ms.total()))
    # central symmetry holds for every permutation
    if not is_centrally_symmetric(ms):
        failures.append(_fail(w, "central_symmetry", "symmetric", ms.points()))
    # the geometric oracle agrees multiplicity by multiplicity
    path_fset = fset_from_paths(perm)
    if path_fset != sheared.entries:
        failures.append(
            _fail(w, "path_oracle", sorted(sheared.entries.items()),
                  sorted(path_fset.items()))
        )
    # slope-equal points always occur
    if not f_min(k, n) <= set(sheared.entries):
        failures.append(
            _fail(w, "f_min_subset", sorted(f_min(k, n)), sheared.points())
        )
    if ms.is_set():
        if not is_convex(ms):
            failures.append(_fail(w, "convexity", "convex", ms.points()))
        catalan = engine.compute_C(perm)
        dyck = count_avoiding_paths(k, n, sheared.points())
        if catalan != dyck:
            failures.append(_fail(w, "counting_formula", catalan, dyck))


def verify_main_theorem(n_max: int, jobs: int = 1) -> VerificationReport:
    """Exhaustively check, for every single-cycle permutation with period up
    to n_max: central symmetry, the path oracle, and for repetition-free
    permutations convexity and the counting formula."""
    start = time.time()
    report = VerificationReport("main", {"n_max": n_max, "jobs": jobs})
    windows = [w for n in range(2, n_max + 1) for w in _theta_windows(n)]
    checked, failures = _run_chunked(_main_theorem_chunk, windows, jobs)
    report.checked = checked
    report.failures = _sort_failures(failures)
    report.elapsed = time.time() - start
    return report


# ---------------------------------------------------------------------------
# synthesis suite
# ---------------------------------------------------------------------------

def cs_convex_subsets(k: int, n: int) -> list[frozenset[tuple[int, int]]]:
    """All centrally symmetric convex subsets of [1, k-1] x [1, n-k-1].

    Central symmetry pairs the points into orbits, so only orbit subsets are
    scanned (2^ceil(P/2) candidates) and then filtered by convexity; at the
    frame sizes the suites run this is exhaustive and fast.
    """
    m = n - k
    from .invsets import is_convex_points

    orbits: list[tuple[tuple[int, int], ...]] = []
    seen: set[tuple[int, int]] = set()
    for a in range(1, k):
        for b in range(1, m):
            p = (a, b)
            if p in seen:
                continue
            q = (k - a, m - b)
            seen.add(p)
            seen.add(q)
            orbits.append((p,) if p == q else (p, q))
    out = []
    for mask in range(1 << len(orbits)):
        points: set[tuple[int, int]] = set()
        for idx, orbit in enumerate(orbits):
            if (mask >> idx) & 1:
                points.update(orbit)
        if is_convex_points(points, k, m):
            out.append(frozenset(points))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def _synthesis_chunk(tasks: list) -> tuple[int, list[dict]]:
    failures: list[dict] = []
    for k, n, points in tasks:
        rect = set(points)
        try:
            sheared = {rect_to_sheared(p) for p in rect}
            profile = synthesize_profile(sheared, k, n)
            perm = profile_to_perm(profile)
        except Exception as exc:  # report, do not abort the sweep
            failures.append(
                {"window": [k, n], "check": "synthesis_error",
                 "expected": sorted(rect), "actual": repr(exc)}
            )
            continue
        for check, expected, actual in _synthesis_failures(
            perm, inversion_multiset(perm), profile, rect
        ):
            failures.append(_fail(perm.window, check, expected, actual))
    return len(tasks), failures


def verify_synthesis(n_max: int, jobs: int = 1) -> VerificationReport:
    """For every centrally symmetric convex subset of every frame with
    n <= n_max, synthesize a permutation and check the round-trip."""
    start = time.time()
    report = VerificationReport("synthesis", {"n_max": n_max, "jobs": jobs})
    tasks = [
        (k, n, tuple(sorted(points)))
        for n in range(2, n_max + 1)
        for k in range(1, n)
        for points in cs_convex_subsets(k, n)
    ]
    checked, failures = _run_chunked(_synthesis_chunk, tasks, jobs)
    report.checked = checked
    report.failures = _sort_failures(failures)
    report.elapsed = time.time() - start
    return report


# ---------------------------------------------------------------------------
# engine suite
# ---------------------------------------------------------------------------

def _engine_theta_chunk(windows: list[Window]) -> tuple[int, list[dict]]:
    return _checked_chunk(windows, _engine_theta_checks)


def _engine_theta_checks(w: Window, engine: Engine, failures: list[dict]) -> None:
    perm = BoundedAffinePerm(w, _validated=True)
    c = engine.compute_C(perm)
    rt = engine.compute_Rtilde(perm)
    if rt.eval_at(1) != c:
        failures.append(_fail(w, "rtilde_at_1", c, rt.eval_at(1)))
    shifted = perm.cyclic_shift()
    if engine.compute_C(shifted) != c:
        failures.append(_fail(w, "sigma_C", c, engine.compute_C(shifted)))
    if engine.compute_Rtilde(shifted) != rt:
        failures.append(
            _fail(w, "sigma_Rtilde", list(rt.coeffs),
                  list(engine.compute_Rtilde(shifted).coeffs))
        )
    for i in range(perm.n):
        if perm.has_double_crossing_at(i):
            if not engine.double_crossing_recurrence_check(perm, i):
                failures.append(_fail(w, f"double_crossing_identity_{i}", True, False))


def _engine_class_chunk(classes: list[list[Window]]) -> tuple[int, list[dict]]:
    """Class invariance: every member of each conjugation class shares C and
    the normalised polynomial.  Chunks carry whole classes, each led by its
    representative; every member counts as checked, and a class whose checks
    raise is recorded as an `exception` failure of its representative."""
    engine = Engine()
    failures: list[dict] = []
    checked = 0
    for members in classes:
        w = members[0]
        checked += len(members)
        try:
            _engine_class_checks(w, members, engine, failures)
        except Exception as exc:  # report, do not abort the sweep
            failures.append(_fail(w, "exception", None, repr(exc)))
    return checked, failures


def _engine_class_checks(
    w: Window, members: list[Window], engine: Engine, failures: list[dict]
) -> None:
    perm = BoundedAffinePerm(w, _validated=True)
    c = engine.compute_C(perm)
    rt = engine.compute_Rtilde(perm)
    for member_window in members:
        member = BoundedAffinePerm(member_window, _validated=True)
        if engine.compute_C(member) != c:
            failures.append(
                _fail(member_window, "class_C", c, engine.compute_C(member))
            )
        if engine.compute_Rtilde(member) != rt:
            failures.append(
                _fail(member_window, "class_Rtilde", list(rt.coeffs),
                      list(engine.compute_Rtilde(member).coeffs))
            )


def _engine_bounded_chunk(windows: list[Window]) -> tuple[int, list[dict]]:
    return _checked_chunk(windows, _engine_bounded_checks)


def _engine_bounded_checks(w: Window, engine: Engine, failures: list[dict]) -> None:
    perm = BoundedAffinePerm(w, _validated=True)
    c = engine.compute_C(perm)
    if c < 1:
        failures.append(_fail(w, "positivity", ">= 1", c))
    rt = engine.compute_Rtilde(perm)
    if rt.eval_at(1) != c:
        failures.append(_fail(w, "rtilde_at_1", c, rt.eval_at(1)))
    if perm.cycle_count() > 1:
        decoupled = engine.compute_C_decoupled(perm)
        if decoupled != c:
            failures.append(_fail(w, "decoupling", c, decoupled))


def _theta_classes(n: int) -> list[list[Window]]:
    """The conjugation classes that meet the single-cycle windows of period
    n, each in discovery order from its first single-cycle window."""
    classes: list[list[Window]] = []
    seen: set[Window] = set()
    for w in _theta_windows(n):
        if w in seen:
            continue
        members = _c_class_windows(w)
        seen.update(members)
        classes.append(members)
    return classes


def verify_engine(n_max: int, jobs: int = 1) -> VerificationReport:
    """Engine consistency: R~ at q = 1 against the integer-ring value C,
    shift and conjugation invariance, decoupling, and the double-crossing
    identity.  Both values come from the one R~ recurrence, evaluated in the
    polynomial and the integer ring."""
    start = time.time()
    report = VerificationReport("engine", {"n_max": n_max, "jobs": jobs})
    theta = [w for n in range(2, n_max + 1) for w in _theta_windows(n)]
    checked, failures = _run_chunked(_engine_theta_chunk, theta, jobs)
    classes = [c for n in range(2, n_max + 1) for c in _theta_classes(n)]
    c2, f2 = _run_chunked(_engine_class_chunk, classes, jobs)
    bounded = [w for n in range(1, n_max + 1) for w in _bounded_windows(n)]
    c3, f3 = _run_chunked(_engine_bounded_chunk, bounded, jobs)
    report.checked = checked + c2 + c3
    report.failures = _sort_failures(failures + f2 + f3)
    report.elapsed = time.time() - start
    return report


# ---------------------------------------------------------------------------
# structural suite (minimal lengths)
# ---------------------------------------------------------------------------

def verify_structure(n_max: int, jobs: int = 1) -> VerificationReport:
    """Minimal length over each family is gcd(k, n) - 1 and the explicit
    witness achieves it."""
    start = time.time()
    report = VerificationReport("structure", {"n_max": n_max, "jobs": jobs})
    checked = 0
    for n in range(2, n_max + 1):
        minima: dict[int, int] = {}
        for w in _theta_windows(n):
            k = _k_of(w)
            ell = _length(w)
            minima[k] = min(minima.get(k, ell), ell)
            checked += 1
        for k in range(1, n):
            expected = math.gcd(k, n) - 1
            if minima.get(k) != expected:
                report.failures.append(
                    _fail((k, n), "min_length", expected, minima.get(k))
                )
            witness = min_length_witness(k, n)
            if witness.length() != expected or not witness.is_theta:
                report.failures.append(
                    _fail(witness.window, "witness_length", expected, witness.length())
                )
    report.checked = checked
    report.elapsed = time.time() - start
    return report


# ---------------------------------------------------------------------------
# census (observational)
# ---------------------------------------------------------------------------

def classes_census(k: int, n: int) -> dict:
    """Group repetition-free permutations by inversion set and split each
    group into conjugation classes.

    Purely observational: the report records, per group, the class count,
    class sizes, the rotation statistic of each class, and whether the count
    equals gcd(k, n); nothing is asserted.
    """
    d = math.gcd(k, n)
    groups: dict[frozenset, list[Window]] = {}
    for w in _theta_windows(n, k):
        perm = BoundedAffinePerm(w, _validated=True)
        ms = inversion_multiset(perm)
        if not ms.is_set():
            continue
        groups.setdefault(frozenset(ms.points()), []).append(w)
    group_reports = []
    for fset, members in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
        remaining = set(members)
        classes: list[list[Window]] = []
        while remaining:
            seed = min(remaining)
            cls = [w for w in _c_class_windows(seed) if w in remaining]
            classes.append(sorted(cls))
            remaining.difference_update(cls)
        classes.sort()
        nu_bars = [
            sorted({nu_bar(BoundedAffinePerm(w, _validated=True)) for w in cls})
            for cls in classes
        ]
        group_reports.append(
            {
                "fset_rect": [list(p) for p in sorted(fset)],
                "members": len(members),
                "class_count": len(classes),
                "class_sizes": [len(c) for c in classes],
                "nu_bar_per_class": nu_bars,
                "matches_gcd": len(classes) == d,
            }
        )
    return {
        "k": k,
        "n": n,
        "gcd": d,
        "groups": group_reports,
        "repetition_free_total": sum(g["members"] for g in group_reports),
        "all_match_gcd": all(g["matches_gcd"] for g in group_reports),
    }


def census_report(n_max: int) -> dict:
    """Census over every frame with n <= n_max; observational only."""
    start = time.time()
    frames = [
        classes_census(k, n) for n in range(2, n_max + 1) for k in range(1, n)
    ]
    return {
        "suite": "census",
        "params": {"n_max": n_max},
        "frames": frames,
        "all_match_gcd": all(f["all_match_gcd"] for f in frames),
        "elapsed": time.time() - start,
    }
