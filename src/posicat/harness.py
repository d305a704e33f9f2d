"""Exhaustive enumeration and the theorem-verification suites.

Every `verify_*` suite is one or more phases, each a list of items and a
check `checks(item, engine)` that yields `(window, check, expected,
actual)` for each check the item fails.  One runner, `_run_suite`, drives
them all; it builds the item lists inside the report's clock, and
`_checked_chunk` turns what the checks yield into failure records.  One
item is one checked instance; an item whose checks raise is recorded as an
`exception` failure and the sweep goes on.  With `jobs` > 1 each phase's
items are striped across `jobs` worker processes, each stripe with its own
engine, and the failures are sorted once, so serial and parallel reports
differ only in `elapsed` and `params.jobs`.

The census is observational: it reports conjugation class counts per
inversion set and flags, without asserting, whether they match gcd(k, n)
and whether `nu_bar` takes each value below gcd(k, n) on exactly one class.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from typing import Iterable, Iterator, NamedTuple, Optional

from .affine import (
    BoundedAffinePerm,
    _c_class_members,
    _integers,
    _k_of,
    _length,
    _require_theta_frame,
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
from .errors import InvalidFrame, PosicatError
from .invsets import (
    _lattice_closure,
    f_min,
    inversion_multiset,
    is_centrally_symmetric,
    is_convex,
    rect_to_sheared,
    sheared_to_rect,
)
from .paths import fset_from_paths, nu_bar

# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def _theta_windows(n: int, k: Optional[int] = None) -> Iterator[Window]:
    """The windows of Theta(k, n), or across k when k is None; none for n < 2."""
    if n < 2:
        return
    for rest in itertools.permutations(range(1, n)):
        window = _window_from_cycle((0,) + rest)
        if k is None or _k_of(window) == k:
            yield window


def enumerate_theta(k: Optional[int], n: int) -> Iterator[BoundedAffinePerm]:
    """All single-cycle strictly bounded permutations of period n, filtered
    to displacement class k when k is given.

    From period two on, a k outside 1..n-1 raises InvalidFrame at the call,
    before any of the (n-1)! cycles is scanned for it; below period two
    Theta is empty for every k.  A k other than None, or an n, that is not
    an integer raises InvalidFrame at every period.
    """
    if k is None:
        (n,) = _integers((n,), "the period n", InvalidFrame)
    else:
        k, n = _integers((k, n), "the frame (k, n)", InvalidFrame)
        if n >= 2:
            _require_theta_frame(k, n)
    return (BoundedAffinePerm(w) for w in _theta_windows(n, k))


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


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class VerificationReport(NamedTuple):
    """What a suite checked and what failed.  Equal field by field, and
    unhashable since `params` is a dict.  As a NamedTuple it also equals a
    plain tuple of its five values and can be indexed; no caller does either."""

    suite: str
    params: dict
    checked: int
    failures: list[dict]
    elapsed: float

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


def _sort_failures(failures: list[dict]) -> list[dict]:
    return sorted(failures, key=lambda f: (len(f["window"]), f["window"], f["check"]))


# ---------------------------------------------------------------------------
# the suite runner
# ---------------------------------------------------------------------------

def _checked_chunk(checks, items: list) -> tuple[int, list[dict]]:
    """Run `checks(item, engine)` on each item with one engine, and record
    a failure for each `(window, check, expected, actual)` it yields.

    One item is one checked instance.  An item whose checks raise is
    recorded as an `exception` failure, after whatever its checks yielded,
    and the sweep goes on.
    """
    engine = Engine()
    failures: list[dict] = []
    for item in items:
        try:
            for failed in checks(item, engine):
                failures.append(_fail(*failed))
        except Exception as exc:  # report, do not abort the sweep
            failures.append(_fail(item, "exception", None, repr(exc)))
    return len(items), failures


def _require_n_max(n_max: int) -> None:
    """Period 2 is the first with a single-cycle window, so a bound below 2
    would check nothing and read as a passing sweep.  A bound that is not an
    integer raises PosicatError too."""
    (n_max,) = _integers((n_max,), "n_max", PosicatError)
    if n_max < 2:
        raise PosicatError(f"n_max must be at least 2, got {n_max}")


def _run_suite(suite: str, n_max: int, jobs: int, build_phases) -> VerificationReport:
    """Check `n_max` and `jobs`, start the clock, then run each `(checks,
    items)` phase of `build_phases()` through `_checked_chunk`: whole with
    `jobs` 1, else cut into `jobs` stripes that one pool of `jobs` processes
    runs.  Report the checked count and the sorted failures of all phases."""
    _require_n_max(n_max)
    (jobs,) = _integers((jobs,), "jobs", PosicatError)
    if jobs < 1:
        raise PosicatError(f"jobs must be at least 1, got {jobs}")
    start = time.perf_counter()
    phases = build_phases()
    if jobs == 1:
        results = [_checked_chunk(checks, items) for checks, items in phases]
    else:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            results = pool.starmap(_checked_chunk, [
                (checks, items[i::jobs]) for checks, items in phases for i in range(jobs)
            ])
    return VerificationReport(
        suite,
        {"n_max": n_max, "jobs": jobs},
        checked=sum(checked for checked, _ in results),
        failures=_sort_failures([f for _, failures in results for f in failures]),
        elapsed=time.perf_counter() - start,
    )


def _theta_range(n_max: int) -> list[Window]:
    """The single-cycle windows of every period 2 <= n <= n_max."""
    return [w for n in range(2, n_max + 1) for w in _theta_windows(n)]


# ---------------------------------------------------------------------------
# main-theorem suite
# ---------------------------------------------------------------------------

def _main_theorem_checks(w: Window, engine: Engine, sets: dict) -> Iterator[tuple]:
    """Run every main-theorem check on one window, yielding each it fails.

    One multiset is built per window, the RECT one of crossing resolution.
    The shear is a bijection, so the path oracle's sheared multiset is
    compared with it through `sheared_to_rect`, and the sheared points a
    record names are built only when its check fails.

    `sets` is a cache for this call.  `f_min(k, n)` and its RECT image are
    computed once per frame, under the key (k, n).  Convexity and the Dyck
    count of a repetition-free window depend on (k, n, F) alone, so they
    are computed once per forbidden set, under (k, n, frozenset of the RECT
    points).  Everything else, `C` included, is computed per window, and
    every failure is still per window.  The caller passes a fresh dict for
    each suite call (each chunk under `--jobs` unpickles its own), so no
    result outlives the call that computed it and a later call computes
    every frame and set again.
    """
    perm = BoundedAffinePerm(w)
    n, k = perm.n, perm.k
    ms = inversion_multiset(perm)
    entries = ms.entries
    # total multiplicity is the length
    if ms.total() != perm.length():
        yield w, "total_multiplicity", perm.length(), ms.total()
    # central symmetry holds for every permutation
    if not is_centrally_symmetric(ms):
        yield w, "central_symmetry", "symmetric", ms.points()
    # the geometric oracle agrees multiplicity by multiplicity
    path_fset = fset_from_paths(perm)
    if {sheared_to_rect(p): m for p, m in path_fset.items()} != entries:
        yield (w, "path_oracle", sorted((rect_to_sheared(p), m) for p, m in entries.items()),
               sorted(path_fset.items()))
    # slope-equal points always occur
    if (k, n) not in sets:
        lowest = f_min(k, n)
        sets[k, n] = (lowest, {sheared_to_rect(p) for p in lowest})
    lowest, lowest_rect = sets[k, n]
    if not lowest_rect <= entries.keys():
        yield w, "f_min_subset", sorted(lowest), sorted(map(rect_to_sheared, entries))
    if ms.is_set():
        key = (k, n, frozenset(entries))
        if key not in sets:
            sheared = [rect_to_sheared(p) for p in entries]
            sets[key] = (is_convex(ms), count_avoiding_paths(k, n, sheared))
        convex, dyck = sets[key]
        if not convex:
            yield w, "convexity", "convex", ms.points()
        catalan = engine.compute_C(perm)
        if catalan != dyck:
            yield w, "counting_formula", catalan, dyck


def verify_main_theorem(n_max: int, jobs: int = 1) -> VerificationReport:
    """Exhaustively check, for every single-cycle permutation with period up
    to n_max: central symmetry, the path oracle, and for repetition-free
    permutations convexity and the counting formula.

    `f_min` is shared by the windows of one frame, and convexity and the
    Dyck count by the windows of one forbidden set, through a dict that
    lives for this call only (one per chunk under `jobs` > 1); `C` is
    computed for every window."""
    return _run_suite("main", n_max, jobs, lambda: [
        (functools.partial(_main_theorem_checks, sets={}), _theta_range(n_max))
    ])


# ---------------------------------------------------------------------------
# synthesis suite
# ---------------------------------------------------------------------------

def cs_convex_subsets(k: int, n: int) -> list[frozenset[tuple[int, int]]]:
    """All centrally symmetric convex subsets of [1, k-1] x [1, n-k-1],
    ordered by size and then by their sorted points.  A frame outside
    1 <= k <= n-1 raises InvalidFrame.

    Convex means convex together with the corners (0, 0) and (k, n-k), as
    `is_convex_points` reads it: the set is its own lattice closure.
    Central symmetry pairs the points into orbits {p, (k, n-k) - p}.  The
    search is a closure search over sets, not a scan of orbit subsets: it
    starts from the lattice closure of the two corners alone (the lattice
    points strictly inside the diagonal), and from each set T found it adds
    one orbit not in T and takes the lattice closure of T, the orbit and the
    corners.  A closure of a centrally symmetric set is centrally symmetric,
    and it stays inside the rectangle: the corners are the only points of
    the hull on the rectangle's border.  Every centrally symmetric convex
    set S is reached: adding the orbits of its hull vertices one at a time
    gives closures inside S whose last one is S.  So the search makes at
    most one closure per found set and orbit, plus the first, and its cost
    follows the number of sets it returns.
    """
    _require_theta_frame(k, n)
    m = n - k
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
    found = [_lattice_closure((), k, m)]
    visited = set(found)
    for points in found:
        for orbit in orbits:
            if orbit[0] in points:
                continue
            closure = _lattice_closure(points.union(orbit), k, m)
            if closure not in visited:
                visited.add(closure)
                found.append(closure)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


# the largest period at which CI runs `verify main` exhaustively; past it the
# synthesis suite checks the counting formula on each set it synthesizes
MAIN_EXHAUSTIVE_N = 10


def _synthesis_checks(task: tuple, engine: Engine) -> Iterator[tuple]:
    """Synthesize a permutation for one (k, n, points) task and check the
    round trip; a task that raises yields a `synthesis_error` of (k, n), so
    every failure record has an integer window.

    Past `MAIN_EXHAUSTIVE_N` it also checks the counting formula, `C` of
    the synthesized window against the Dyck count of the requested set, on
    the sets that the main suite's exhaustive run does not reach."""
    k, n, points = task
    rect = set(points)
    try:
        sheared = {rect_to_sheared(p) for p in rect}
        profile = synthesize_profile(sheared, k, n)
        perm = profile_to_perm(profile)
        for triple in _synthesis_failures(perm, inversion_multiset(perm), profile, rect):
            yield (perm.window, *triple)
        if n > MAIN_EXHAUSTIVE_N:
            catalan = engine.compute_C(perm)
            dyck = count_avoiding_paths(k, n, sheared)
            if catalan != dyck:
                yield perm.window, "counting_formula", catalan, dyck
    except Exception as exc:  # report, do not abort the sweep
        yield (k, n), "synthesis_error", sorted(rect), repr(exc)


def verify_synthesis(n_max: int, jobs: int = 1) -> VerificationReport:
    """For every centrally symmetric convex subset of every frame with
    n <= n_max, synthesize a permutation and check the round-trip."""
    return _run_suite("synthesis", n_max, jobs, lambda: [(_synthesis_checks, [
        (k, n, tuple(sorted(points)))
        for n in range(2, n_max + 1)
        for k in range(1, n)
        for points in cs_convex_subsets(k, n)
    ])])


# ---------------------------------------------------------------------------
# engine suite
# ---------------------------------------------------------------------------

def _engine_theta_checks(w: Window, engine: Engine) -> Iterator[tuple]:
    """R~ at q = 1 against C, shift invariance, the double-crossing identity,
    and the shape of the whole polynomial: on Theta, R~ has degree exactly
    k(n-k) - length - (n-1), constant term 1, and palindromic coefficients.

    The shift has f's orbit key, so through this one engine `sigma_C` and
    `sigma_Rtilde` read f's entries back: they test `cyclic_shift` and the
    orbit key, not the recurrence, whose shift invariance
    `tests/test_engine.py` checks on separate cold engines."""
    perm = BoundedAffinePerm(w)
    c = engine.compute_C(perm)
    rt = engine.compute_Rtilde(perm)
    if rt.eval_at(1) != c:
        yield w, "rtilde_at_1", c, rt.eval_at(1)
    coeffs = rt.coeffs
    degree = perm.k * (perm.n - perm.k) - perm.length() - (perm.n - 1)
    if len(coeffs) != degree + 1 or coeffs[:1] != (1,) or coeffs != coeffs[::-1]:
        yield (w, "rtilde_symmetry",
               f"palindromic, degree {degree}, constant term 1", list(coeffs))
    shifted = perm.cyclic_shift()
    if engine.compute_C(shifted) != c:
        yield w, "sigma_C", c, engine.compute_C(shifted)
    if engine.compute_Rtilde(shifted) != rt:
        yield w, "sigma_Rtilde", list(rt.coeffs), list(engine.compute_Rtilde(shifted).coeffs)
    for i in range(perm.n):
        if perm.has_double_crossing_at(i):
            if not engine.double_crossing_recurrence_check(perm, i):
                yield w, f"double_crossing_identity_{i}", True, False


def _class_reps(windows) -> dict[Window, Window]:
    """Each member of the conjugation classes that meet `windows`, mapped to
    the first of those windows in its class; classes in discovery order,
    each led by its representative."""
    rep_of: dict[Window, Window] = {}
    for w in windows:
        if w not in rep_of:
            rep_of.update(dict.fromkeys(_c_class_members(w), w))
    return rep_of


def _engine_class_checks(
    w: Window, engine: Engine, rep_of: dict[Window, Window]
) -> Iterator[tuple]:
    """Class invariance: a member shares C and the normalised polynomial
    with its class representative `rep_of[w]`."""
    rep = BoundedAffinePerm(rep_of[w])
    member = BoundedAffinePerm(w)
    c = engine.compute_C(rep)
    if engine.compute_C(member) != c:
        yield w, "class_C", c, engine.compute_C(member)
    rt = engine.compute_Rtilde(rep)
    if engine.compute_Rtilde(member) != rt:
        yield w, "class_Rtilde", list(rt.coeffs), list(engine.compute_Rtilde(member).coeffs)


def _engine_bounded_checks(w: Window, engine: Engine) -> Iterator[tuple]:
    perm = BoundedAffinePerm(w)
    c = engine.compute_C(perm)
    if c < 1:
        yield w, "positivity", ">= 1", c
    rt = engine.compute_Rtilde(perm)
    if rt.eval_at(1) != c:
        yield w, "rtilde_at_1", c, rt.eval_at(1)
    if perm.cycle_count() > 1:
        decoupled = engine.compute_C_decoupled(perm)
        if decoupled != c:
            yield w, "decoupling", c, decoupled


def verify_engine(n_max: int, jobs: int = 1) -> VerificationReport:
    """Engine consistency: R~ at q = 1 against the integer-ring value C,
    shift and conjugation invariance, decoupling, and the double-crossing
    identity.  Both values come from the one R~ recurrence, evaluated in the
    polynomial and the integer ring."""
    def phases():
        theta = _theta_range(n_max)
        rep_of = _class_reps(theta)
        return [
            (_engine_theta_checks, theta),
            (functools.partial(_engine_class_checks, rep_of=rep_of), list(rep_of)),
            (_engine_bounded_checks,
             [w for n in range(1, n_max + 1) for w in _bounded_windows(n)]),
        ]
    return _run_suite("engine", n_max, jobs, phases)


# ---------------------------------------------------------------------------
# structural suite (minimal lengths)
# ---------------------------------------------------------------------------

def _structure_checks(w: Window, engine: Engine) -> Iterator[tuple]:
    expected = math.gcd(_k_of(w), len(w)) - 1
    ell = _length(w)
    if ell < expected:
        yield w, "min_length", f">= {expected}", ell


def _witness_checks(frame: tuple, engine: Engine) -> Iterator[tuple]:
    """The explicit witness of the frame (k, n) is a member of Theta(k, n)
    and has length gcd(k, n) - 1."""
    k, n = frame
    expected = math.gcd(k, n) - 1
    witness = min_length_witness(k, n)
    if witness.length() != expected or not witness.is_theta or witness.k != k:
        yield witness.window, "witness_length", expected, witness.length()


def verify_structure(n_max: int, jobs: int = 1) -> VerificationReport:
    """Minimal length over each family Theta(k, n) is gcd(k, n) - 1: no
    window is shorter, and the explicit witness, a member, attains it.  One
    phase checks the Theta windows, the other the frames (k, n), one item
    per frame."""
    return _run_suite("structure", n_max, jobs, lambda: [
        (_structure_checks, _theta_range(n_max)),
        (_witness_checks, [(k, n) for n in range(2, n_max + 1) for k in range(1, n)]),
    ])


# ---------------------------------------------------------------------------
# census (observational)
# ---------------------------------------------------------------------------

def _census_frame(k: int, n: int, windows: Iterable[Window]) -> dict:
    """The census of the frame (k, n) over its windows, in enumeration order."""
    d = math.gcd(k, n)
    groups: dict[frozenset, list[Window]] = {}
    for w in windows:
        perm = BoundedAffinePerm(w)
        ms = inversion_multiset(perm)
        if not ms.is_set():
            continue
        groups.setdefault(frozenset(ms.points()), []).append(w)
    group_reports = []
    for fset, members in sorted(groups.items(), key=lambda kv: sorted(kv[0])):
        rep_of = _class_reps(members)
        by_rep: dict[Window, list[Window]] = {}
        for w in members:
            by_rep.setdefault(rep_of[w], []).append(w)
        classes = sorted(sorted(cls) for cls in by_rep.values())
        nu_bars = [
            sorted({nu_bar(BoundedAffinePerm(w)) for w in cls})
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
                "nu_bar_bijective": sorted(nu_bars) == [[v] for v in range(d)],
            }
        )
    return {
        "k": k,
        "n": n,
        "gcd": d,
        "groups": group_reports,
        "repetition_free_total": sum(g["members"] for g in group_reports),
        "all_match_gcd": all(g["matches_gcd"] for g in group_reports),
        "all_nu_bar_bijective": all(g["nu_bar_bijective"] for g in group_reports),
    }


def census_report(n_max: int) -> dict:
    """Census over every frame with n <= n_max; observational only."""
    _require_n_max(n_max)
    start = time.perf_counter()
    frames = []
    for n in range(2, n_max + 1):
        # one pass over Theta(n), bucketed by k in enumeration order
        by_k: dict[int, list[Window]] = {k: [] for k in range(1, n)}
        for w in _theta_windows(n):
            by_k[_k_of(w)].append(w)
        frames += [_census_frame(k, n, ws) for k, ws in by_k.items()]
    return {
        "suite": "census",
        "params": {"n_max": n_max},
        "frames": frames,
        "all_match_gcd": all(f["all_match_gcd"] for f in frames),
        "all_nu_bar_bijective": all(f["all_nu_bar_bijective"] for f in frames),
        "elapsed": time.perf_counter() - start,
    }
