"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts: for minutes at a
time other tenants' load slows every instruction by a third or more, so
even the fastest of many suite calls moves from run to run.  The kernel
below does not depend on the package; it does the same kinds of work the
package does (calls, tuple keys, dict probes, small objects, integer
arithmetic) on a working set of about a megabyte.  Its units run between
the workload's requests, and the runner scales each request's time by
the kernel units run nearest to it in time.  So a slow spell that slows
both cancels, and a change to the package moves only the workload.  Host
speed changes on scales from a fraction of a second to minutes; in trials
on a noisy host, scaling each request by its neighbouring units held the
spread of suite times over five runs to 2-6%, where scaling by the run's
median unit left 4-10% and the raw times spread 25-50%.

`REFERENCE_S` is the kernel's median unit time on the reference host (two
shared vCPUs, CPython 3.11.7).  Normalised times are reported in
reference seconds: the time the workload would take on that host when the
kernel runs at its reference speed.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
import time

REFERENCE_S = 0.020  # the kernel's median unit time on the reference host
INTERVAL_S = 0.08  # workload time between two kernel units
NEIGHBOURS = 5  # kernel units that set the host speed at one moment


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def weight(self) -> int:
        return self.a * 3 + self.b


def kernel() -> int:
    """One unit of fixed work; returns a checksum so nothing is skipped."""
    # nested integer loops over tuples
    inversions = 0
    for p in itertools.permutations(range(7)):
        for i in range(7):
            pi = p[i]
            for j in range(i + 1, 7):
                if pi > p[j]:
                    inversions += 1
    # a dict keyed by tuples, probed in another order
    table = {p: i for i, p in enumerate(itertools.permutations(range(7)))}
    probes = 0
    for p in itertools.permutations(range(6, -1, -1)):
        probes += table[p] ^ p[3]
    # memoised recursion that builds small objects
    memo: dict[tuple[int, int], _Node] = {}

    def node(n: int, k: int) -> _Node:
        key = (n, k)
        found = memo.get(key)
        if found is None:
            if k == 0 or k == n:
                found = _Node(n, k)
            else:
                found = _Node(node(n - 1, k - 1).weight() % 1009, node(n - 1, k).weight() % 1013)
            memo[key] = found
        return found

    nodes = sorted((_Node(i, i * i % 97) for i in range(6000)), key=_Node.weight)
    return inversions + probes + node(90, 45).a + nodes[-1].b


CHECKSUM = kernel()


class Calibrator:
    """Runs kernel units between pieces of workload and keeps their times."""

    def __init__(self):
        self.samples: list[float] = []  # unit durations
        self.times: list[float] = []  # unit midpoints, ascending
        self._due = 0.0

    def unit(self) -> None:
        start = time.perf_counter()
        value = kernel()
        end = time.perf_counter()
        if value != CHECKSUM:
            raise RuntimeError("the calibration kernel changed its result")
        self.samples.append(end - start)
        self.times.append((start + end) / 2)
        self._due = end + INTERVAL_S

    def tick(self) -> None:
        """Run a unit when the workload has run INTERVAL_S since the last."""
        if time.perf_counter() >= self._due:
            self.unit()

    def scale_at(self, moment: float) -> float:
        """Factor from the host's speed at `moment` (a perf_counter time)
        to the reference speed: REFERENCE_S over the median of the
        NEIGHBOURS units nearest to it."""
        at = bisect.bisect(self.times, moment)
        first = max(0, min(at - NEIGHBOURS // 2, len(self.times) - NEIGHBOURS))
        return REFERENCE_S / statistics.median(self.samples[first:first + NEIGHBOURS])
