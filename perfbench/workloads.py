"""The benchmark's workloads: seeded inputs, one timed pass, and checks.

Every workload is closed-loop in one process and one thread (`jobs=1`).  A
pass is the unit the runner times and repeats; its outputs are kept and
checked after the timed section, so checking costs no timed work.  A pass
calls `between` after each request, outside the request's time; the runner
uses it to run calibration units (see `calibration.py`).

Suite workloads call one `posicat.verify_*` suite at a fixed `n_max`; the
suites are exhaustive, so their inputs do not depend on the seed, and a
pass fails when the report has failures, raises, or checks a different
number of instances than the range holds.

Frontier workloads send one request per permutation, each to a fresh
`Engine` (a cold cache).  The permutations are a fixed sample of random
single cycles, and the seed sets the order in which they are sent.  Request
costs spread over two orders of magnitude, so any change to the sample
moves the latency quantiles: a fresh sample per seed moved p90 by up to 20%
even when stratified by k and length, and shifting each cycle by a seeded
power of sigma, which changes the engine's reduction path but not the
value, still moved it by 18% (quartile distance over ten seeds).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class PassResult:
    wall_s: float
    latencies_ms: list[float]  # one per request, in input order
    started: list[float]  # perf_counter time each request started
    outputs: list
    errors: list[str]  # one entry per request that raised


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@dataclass
class SuiteWorkload:
    name: str
    function: str
    n_max: int
    checked: int  # instances in the range: a report with another count fails
    smoke_n_max: int
    smoke_checked: int

    def make_inputs(self, posicat, seed: int, smoke: bool) -> dict:
        # The suites are exhaustive over their range, so the seed selects
        # nothing; it is recorded with the inputs all the same.
        return {
            "suite": self.function,
            "n_max": self.smoke_n_max if smoke else self.n_max,
            "jobs": 1,
            "expected_checked": self.smoke_checked if smoke else self.checked,
            "seed": seed,
        }

    def prepare(self, posicat, inputs: dict) -> dict:
        return inputs

    def run_pass(self, posicat, state: dict, engine_factory: Callable,
                 wrap: Optional[Callable] = None,
                 between: Callable[[], None] = lambda: None) -> PassResult:
        suite = getattr(posicat, state["suite"])
        if wrap is not None:
            suite = wrap(f"harness.{state['suite']}", suite)
        errors = []
        report = None
        start = time.perf_counter()
        try:
            report = suite(state["n_max"], jobs=1)
        except Exception as exc:  # a raising suite is a failed pass, not a crash
            errors.append(repr(exc))
        wall = time.perf_counter() - start
        between()
        return PassResult(wall, [wall * 1e3], [start], [report], errors)

    def items(self, state: dict) -> int:
        return state["expected_checked"]

    def check(self, posicat, state: dict, results: list[PassResult]) -> tuple[int, list]:
        """Failed items over all passes, and a sample of failure records."""
        failed = 0
        sample: list = []
        for result in results:
            report = result.outputs[0]
            if report is None:
                failed += state["expected_checked"]
                sample.extend(result.errors[:1])
            elif report.checked != state["expected_checked"]:
                failed += state["expected_checked"]
                sample.append(f"checked {report.checked}, expected {state['expected_checked']}")
            elif report.failures:
                failed += len({tuple(f["window"]) for f in report.failures})
                sample.extend(report.failures[:3])
        return failed, sample[:10]


# ---------------------------------------------------------------------------
# frontier
# ---------------------------------------------------------------------------

def _random_cycle(rng: random.Random, n: int) -> list[int]:
    rest = list(range(1, n))
    rng.shuffle(rest)
    return [0] + rest


@dataclass
class FrontierWorkload:
    name: str
    request: str  # "C" or "Rtilde"
    n: int
    count: int
    smoke_n: int
    smoke_count: int

    def make_inputs(self, posicat, seed: int, smoke: bool) -> dict:
        n = self.smoke_n if smoke else self.n
        count = self.smoke_count if smoke else self.count
        sample = random.Random(f"perfbench-{self.name}-{n}-{count}")
        windows = [
            list(posicat.BoundedAffinePerm.from_cycle(_random_cycle(sample, n)).window)
            for _ in range(count)
        ]
        random.Random(seed).shuffle(windows)
        return {
            "request": self.request,
            "n": n,
            "count": count,
            "seed": seed,
            "windows": windows,
        }

    def prepare(self, posicat, inputs: dict) -> list:
        return [posicat.BoundedAffinePerm(w) for w in inputs["windows"]]

    def run_pass(self, posicat, perms: list, engine_factory: Callable,
                 wrap: Optional[Callable] = None,
                 between: Callable[[], None] = lambda: None) -> PassResult:
        method = "compute_C" if self.request == "C" else "compute_Rtilde"
        clock = time.perf_counter
        latencies = []
        started = []
        outputs = []
        errors = []
        start = clock()
        for perm in perms:
            t0 = clock()
            started.append(t0)
            try:
                value = getattr(engine_factory(), method)(perm)
            except Exception as exc:  # one failed request does not stop the pass
                value = None
                errors.append(repr(exc))
            latencies.append((clock() - t0) * 1e3)
            outputs.append(value)
            between()
        wall = clock() - start
        return PassResult(wall, latencies, started, outputs, errors)

    def items(self, perms: list) -> int:
        return len(perms)

    def references(self, posicat, perms: list) -> list[int]:
        """C of each permutation by a route independent of the request.

        For R~ requests, C from the q = 1 recurrence on a fresh engine;
        R~(1) must equal it.  For C requests at this period R~ is out of
        reach, so C is recomputed on the half-turn of the permutation
        (`rotate_180`), a different window with the same C.  Repetition-free
        permutations also get the Dyck count of their inversion set, which
        must agree as well.
        """
        refs = []
        for perm in perms:
            target = perm if self.request == "Rtilde" else perm.rotate_180()
            value = posicat.Engine().compute_C(target)
            ms = posicat.inversion_multiset(perm)
            if ms.is_set():
                dyck = posicat.count_avoiding_paths(perm.k, perm.n, ms.to_sheared().points())
                if dyck != value:
                    value = None  # the two references disagree: fail the request
            refs.append(value)
        return refs

    def check(self, posicat, perms: list, results: list[PassResult]) -> tuple[int, list]:
        refs = self.references(posicat, perms)
        failed = 0
        sample: list = []
        for result in results:
            sample.extend(result.errors[:1])
            for perm, ref, value in zip(perms, refs, result.outputs):
                got = None
                if value is not None:
                    got = value if self.request == "C" else value.eval_at(1)
                if ref is None or got != ref:
                    failed += 1
                    sample.append({"window": list(perm.window), "expected": ref, "actual": got})
        first = results[0].outputs
        for result in results[1:]:
            # later passes must repeat the first exactly, R~ coefficients too
            failed += sum(1 for a, b in zip(first, result.outputs) if a != b)
        return failed, sample[:10]


WORKLOADS = {
    w.name: w
    for w in (
        SuiteWorkload("sweep_main", "verify_main_theorem", 7, 873, 5, 33),
        FrontierWorkload("frontier_c", "C", 18, 100, 9, 12),
        FrontierWorkload("frontier_rtilde", "Rtilde", 14, 100, 8, 12),
        SuiteWorkload("engine_warm", "verify_engine", 6, 2677, 4, 106),
        SuiteWorkload("synthesis", "verify_synthesis", 10, 156, 6, 20),
    )
}
