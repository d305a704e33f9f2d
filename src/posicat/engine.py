"""Memoized recurrence for the normalised point count R~ and its q = 1 value.

R~_f(q) = R_f(q) / (q-1)^(n-c), where c counts the cycles of the reduction
of f; the Catalan number is C_f = R~_f(1).  One reduction computes R~ on a
window w, reading three constants of the ring it evaluates in: one, q and
(q-1)^2.

  1. normalise: while the period exceeds 1, drop every fixed residue
     (f(j) = j or f(j) = j + n), or else take the first i with f(i) = i + 1
     or f(i+1) = i + n and pass to s_i f, which acquires a fixed residue.
     Neither step changes R~, so only the normal form is reduced;
  2. period 1: R~ = 1;
  3. some i makes g = s_i f s_i bounded with a double crossing at i (then g
     is two steps longer): R~(f) = R~(f s_i) + q R~(g) when i, i+1 share a
     cycle of the reduction of g, and R~(f) = (q-1)^2 R~(f s_i) + q R~(g)
     otherwise;
  4. otherwise search the conjugation class of f breadth-first for a member
     that is not normal or where rule 2 or 3 applies; R~ is constant on the
     class.

The polynomial ring uses (1, q, (q-1)^2) and gives R~; the integer ring uses
(1, 1, 0) and gives C directly.  A zero coefficient skips its branch rather
than evaluating it, which keeps C far cheaper than R~.  R itself is
R~ (q-1)^(n-c).

Steps scan i = 0..n-1 and take the first applicable index, so traces are
reproducible.  Each recursion reduces the period or increases the length at
fixed period, and length is bounded by k(n-k), so the recursion terminates;
a class with no applicable member would contradict the constructive
reduction, hence IrreducibleElement signals a bug.

Normalisation reads the displacement word d = (f(0) - 0, ..., f(n-1) -
(n-1)): residue j is fixed iff d[j] is 0 or n, and a simple factor applies
at i iff d[i] = 1 or d[i+1] = n-1 (d[0] for i = n-1).  So a normal window
costs four native membership tests.  A simple factor at i < n-1 that fixes
one residue is fused with its removal into one contraction: drop that
residue's position and map every other value y to y - y//n - [y mod n > i].
The scan then resumes at i-1: no simple factor applies below it afterwards.
The simple factor at i = n-1, and one that fixes both i and i+1, go through
s_i f and the removal.  A single fixed residue j is dropped by the same
contraction with j in place of i; two or more go through the general
removal.  Each contraction is one O(n) comprehension and lowers the period,
so a chain costs O(n) per step it takes.

Values are cached per sigma-orbit: R~ is invariant under the cyclic shift,
and the lex-min rotation of the displacement word identifies the orbit.  The
key is the least rotation that starts at an occurrence of the word's
minimum: one rotation when the minimum is unique.  A value is stored under
the key of the request window and under the key of its normal form; the
request key is looked up first, so a repeated request is one lookup.  Windows passed through inside a chain get no entry, so
their `simple_factor` and `remove_fixed_points` trace records may repeat
where a cache keyed on every window would have stopped early.  For a
class-search hit, every visited member shares the value and is cached as
well.

A reduced node does O(n) Python-level work: one residue-position table and
one pass of `affine._first_double_move`, which reads each index's test off f
and that table in O(1) and stops at the first index that passes.  g is built
once, for that index, by editing four entries of a copy of the window
(`affine._conj_s`).  The keys cost a few native passes over the word, plus
one rotation per repeated occurrence of its minimum.  A class search builds
one residue table per member it dequeues and reads each index's length
change off it in O(1); a kept length keeps the conjugate bounded.

The reduction recurses once per double move, and its depth can pass the
interpreter's default recursion limit.  The outermost reduction of a
`compute_*` call raises the limit while it runs and restores it afterwards,
so a request answered from the table never touches it, and building an
engine changes no process-wide state.
"""

from __future__ import annotations

import sys
from typing import Callable, Optional

from .affine import (
    BoundedAffinePerm,
    _c_class_members,
    _canonical_key,
    _conj_s,
    _displacements,
    _first_double_move,
    _is_bounded,
    _left_s,
    _orbit_key,
    _relabel_restriction,
    _remove_fixed,
    _residue_positions,
    _right_s,
    Window,
)
from .errors import IrreducibleElement, NotBounded, PreconditionViolated
from .polynomial import IntPoly, ONE, Q, Q_MINUS_1

TraceHook = Callable[[dict], None]

# reductions may nest across n levels and up to k(n-k) lengths
_RECURSION_LIMIT = 20000


class _Ring:
    """The constants (one, q, (q-1)^2) of one ring, with its memo table."""

    __slots__ = ("one", "q", "q_minus_1_sq", "cache", "hits", "misses")

    def __init__(self, one, q, q_minus_1_sq):
        self.one = one
        self.q = q
        self.q_minus_1_sq = q_minus_1_sq
        self.cache: dict[Window, object] = {}
        self.hits = self.misses = 0


def _same_cycle(w: Window, i: int) -> bool:
    """Whether residues i and i+1 lie on one cycle of the reduction (n >= 2):
    walk from i until the walk meets i or i+1."""
    n = len(w)
    j = (i + 1) % n
    x = w[i] % n
    while x != i and x != j:
        x = w[x] % n
    return x == j


class Engine:
    """Holds the memo tables; computations are pure given the cache state."""

    def __init__(self, trace_hook: Optional[TraceHook] = None):
        self._rtilde = _Ring(ONE, Q, Q_MINUS_1 * Q_MINUS_1)
        self._catalan = _Ring(1, 1, 0)
        self._trace = trace_hook

    # -- public API -------------------------------------------------------------

    def compute_R(self, perm: BoundedAffinePerm) -> IntPoly:
        """Point-count polynomial R_f(q) = R~_f(q) (q - 1)^(n - c)."""
        exponent = perm.n - perm.cycle_count()
        return self._value(perm.window, self._rtilde) * Q_MINUS_1 ** exponent

    def compute_Rtilde(self, perm: BoundedAffinePerm) -> IntPoly:
        """R_f(q) / (q - 1)^(n - c) where c counts cycles of the reduction,
        computed directly by the recurrence in the polynomial ring."""
        return self._value(perm.window, self._rtilde)

    def compute_C(self, perm: BoundedAffinePerm) -> int:
        """The integer invariant; equals compute_Rtilde(f) at q = 1."""
        value = self._value(perm.window, self._catalan)
        if value < 1:
            raise IrreducibleElement(f"nonpositive C = {value} for {perm!r}: recurrence bug")
        return value

    def compute_C_decoupled(self, perm: BoundedAffinePerm) -> int:
        """Product of compute_C over the restrictions to each cycle."""
        product = 1
        for cyc in perm.cycles():
            part = _relabel_restriction(perm.window, cyc)
            product *= self.compute_C(BoundedAffinePerm(part, _validated=True))
        return product

    def double_crossing_recurrence_check(self, perm: BoundedAffinePerm, i: int) -> bool:
        """At a double crossing of f at i, the conjugate's value splits as
        C(s_i f s_i) = C(f1) C(f2) + C(f) over the resolution of (i, i+1)."""
        perm.require_theta()
        i = i % perm.n
        if not perm.has_double_crossing_at(i):
            raise PreconditionViolated(f"no double crossing at {i}")
        f1, f2 = perm.resolve_crossing((i, i + 1))
        conj = _conj_s(perm.window, i, perm._pos)
        if not _is_bounded(conj):
            raise NotBounded(f"conjugate of {perm!r} at {i} is unbounded: {list(conj)}")
        lhs = self.compute_C(BoundedAffinePerm(conj, _validated=True))
        return lhs == self.compute_C(f1) * self.compute_C(f2) + self.compute_C(perm)

    @property
    def stats(self) -> dict[str, int]:
        """Cache counters: r_* for the R~ table, c_* for the C table.  A miss
        is a normal window reduced; a hit is a request answered from the
        table, by its own key or by its normal form's."""
        return {
            "r_hits": self._rtilde.hits,
            "r_misses": self._rtilde.misses,
            "c_hits": self._catalan.hits,
            "c_misses": self._catalan.misses,
            "r_entries": len(self._rtilde.cache),
            "c_entries": len(self._catalan.cache),
        }

    def clear(self) -> None:
        """Empty both memo tables and zero their counters, so a long-lived
        process can bound an engine's memory; values do not change."""
        for ring in (self._rtilde, self._catalan):
            ring.cache.clear()
            ring.hits = ring.misses = 0

    # -- the reduction --------------------------------------------------------------

    def _emit(self, rule: str, w: Window, **extra) -> None:
        if self._trace is not None:
            record = {"rule": rule, "n": len(w), "window": list(w)}
            record.update(extra)
            self._trace(record)

    def _value(self, w: Window, ring: _Ring):
        """R~(w) in `ring`: the request's key, then its normal form's key,
        then a reduction of the normal form, stored under both keys."""
        cache = ring.cache
        d = _displacements(w)
        key = _orbit_key(d)
        value = cache.get(key)
        if value is not None:
            ring.hits += 1
            return value
        v, d = self._normalise(w, d)
        normal_key = key
        if v is not w:
            normal_key = _orbit_key(d)
            value = cache.get(normal_key)
        if value is None:
            ring.misses += 1
            value = cache[normal_key] = self._reduce(v, ring)
        else:
            ring.hits += 1
        cache[key] = value
        return value

    def _normalise(self, w: Window, d: Window) -> tuple[Window, Window]:
        """The normal form of w and its displacement word, given w's word d:
        rule 1 of the module docstring.  Returns w itself when it is normal,
        and emits the records of the steps it takes."""
        trace = self._trace
        n = len(w)
        start = 0  # no simple factor applies at an index below start
        while n > 1:
            top = n - 1
            if 0 in d or n in d:
                if trace is not None:
                    self._emit("remove_fixed_points", w)
                if d.count(0) + d.count(n) == 1:
                    j = d.index(0) if 0 in d else d.index(n)
                    w = tuple([y - y // n - (y % n > j) for y in w[:j] + w[j + 1:]])
                else:
                    w, _ = _remove_fixed(w)
                start = 0
            elif 1 in d or top in d:
                # first i >= start with d[i] == 1 or d[i+1 mod n] == n-1
                i = d.index(1, start) if 1 in d else n
                if top in d:
                    # with no n-1 past start + 1, it is d[0]: the wrap i = n-1
                    try:
                        i = min(i, d.index(top, start + 1) - 1)
                    except ValueError:
                        i = min(i, top)
                if trace is not None:
                    self._emit("simple_factor", w, i=i)
                if i == top or d[i] == 1 and d[i + 1] == top:
                    w = _left_s(w, i)  # the next pass removes what it fixes
                else:
                    if trace is not None:
                        self._emit("remove_fixed_points", _left_s(w, i))
                    p = i if d[i] == 1 else i + 1
                    w = tuple([y - y // n - (y % n > i) for y in w[:p] + w[p + 1:]])
                    start = i - 1 if i else 0
            else:
                break
            n = len(w)
            d = _displacements(w)
        return w, d

    def _step(self, w: Window, ring: _Ring):
        """R~ of the normal window w in `ring` by rule 2 or the first double
        move, or None."""
        n = len(w)
        if n == 1:
            self._emit("base", w)
            return ring.one
        pos = _residue_positions(w)
        i = _first_double_move(w, pos)
        if i < 0:
            return None
        g = _conj_s(w, i, pos)
        same_cycle = _same_cycle(g, i)
        if self._trace is not None:
            self._emit("double_move", w, i=i, same_cycle=same_cycle)
        if same_cycle:
            return self._value(_right_s(w, i), ring) + ring.q * self._value(g, ring)
        if ring.q_minus_1_sq:
            return (ring.q_minus_1_sq * self._value(_right_s(w, i), ring)
                    + ring.q * self._value(g, ring))
        return ring.q * self._value(g, ring)

    def _reduce(self, w: Window, ring: _Ring):
        limit = sys.getrecursionlimit()
        if limit < _RECURSION_LIMIT:
            # the outermost reduction raises the limit while it runs; nested
            # ones find it raised and leave it alone
            sys.setrecursionlimit(_RECURSION_LIMIT)
            try:
                return self._reduce(w, ring)
            finally:
                sys.setrecursionlimit(limit)
        value = self._step(w, ring)
        if value is not None:
            return value
        # class search: R~ is constant on the conjugation class, so the first
        # member that is not normal or admits a step determines the value.
        # Members are tried in discovery order; all members seen so far share
        # the value and are cached with it.
        self._emit("class_search", w)
        members = _c_class_members(w)
        seen = [next(members)]  # w itself
        for g in members:
            seen.append(g)
            v, _ = self._normalise(g, _displacements(g))
            value = self._step(g, ring) if v is g else self._value(v, ring)
            if value is not None:
                for member in seen:
                    ring.cache.setdefault(_canonical_key(member), value)
                return value
        raise IrreducibleElement(
            f"no reduction applies anywhere in the class of {list(w)}"
        )

