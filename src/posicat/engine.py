"""Memoized recurrence for the normalised point count R~ and its q = 1 value.

R~_f(q) = R_f(q) / (q-1)^(n-c), where c counts the cycles of the reduction
of f; the Catalan number is C_f = R~_f(1).  One reduction computes R~ on a
window w, reading the base value and the two steps of rule 3 off the ring
it evaluates in.

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

The polynomial ring gives R~: its base value is 1 and its steps are
x + q y and (q-1)^2 x + q y, for x = R~(f s_i) and y = R~(g).  Each step is
one pass over the coefficients of x and y that builds one IntPoly, so a
reduced node makes no product of polynomials.  The integer ring gives C
directly: at q = 1 the steps are x + y and y alone, and the second never
evaluates x = R~(f s_i), which keeps C far cheaper than R~.  R itself is
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
one residue is fused with its removal into one contraction,
`affine._drop(w, p)`: delete position p and the residue r = f(p) mod n
(p = i and r = i+1 when f(i) = i+1, p = i+1 and r = i when f(i+1) = i+n),
and map every other value y to y - y//n - [y mod n > r].  The scan then
resumes at i-1: no simple factor applies below it afterwards.  The simple
factor at i = n-1, and one that fixes both i and i+1, go through s_i f and
the removal.  The removal, `affine._remove_fixed`, drops each fixed residue
j with `_drop(w, j)`, the last first.  Each contraction is one O(n)
comprehension and lowers the period, so a chain costs O(n) per step it
takes.

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
from operator import add
from typing import Callable, Optional

from .affine import (
    BoundedAffinePerm,
    _c_class_members,
    _canonical_key,
    _conj_s,
    _displacements,
    _drop,
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
from .polynomial import IntPoly, ONE, Q_MINUS_1

TraceHook = Callable[[dict], None]

# reductions may nest across n levels and up to k(n-k) lengths
_RECURSION_LIMIT = 20000


def _same_step(x: IntPoly, y: IntPoly) -> IntPoly:
    """x + q y, in one pass over the coefficients."""
    a, b = x.coeffs, y.coeffs
    m = max(len(a), len(b) + 1)
    return IntPoly(map(add, a + (0,) * (m - len(a)), (0,) + b + (0,) * (m - 1 - len(b))))


def _apart_step(x: IntPoly, y: IntPoly) -> IntPoly:
    """(q-1)^2 x + q y, in one pass over the coefficients: the coefficient of
    q^j is x_j - 2 x_{j-1} + x_{j-2} + y_{j-1}."""
    a, b = x.coeffs, y.coeffs
    m = max(len(a) + 2, len(b) + 1)
    return IntPoly([
        u - 2 * v + t + z
        for u, v, t, z in zip(
            a + (0,) * (m - len(a)),
            (0,) + a + (0,) * (m - 1 - len(a)),
            (0, 0) + a + (0,) * (m - 2 - len(a)),
            (0,) + b + (0,) * (m - 1 - len(b)),
        )
    ])


class _Ring:
    """The base value of one ring and its two steps, with its memo table.

    `same(x, y)` is R~(f) from x = R~(f s_i) and y = R~(g) when i, i+1 share
    a cycle of the reduction of g, and `apart(x, y)` when they do not; an
    `apart` of None means R~(f) = y, and x is never evaluated.
    """

    __slots__ = ("one", "same", "apart", "cache", "hits", "misses")

    def __init__(self, one, same, apart):
        self.one = one
        self.same = same
        self.apart = apart
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
        self._rtilde = _Ring(ONE, _same_step, _apart_step)
        # at q = 1: x + q y is x + y, and (q-1)^2 x + q y is y
        self._catalan = _Ring(1, add, None)
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
        return self._catalan_of(perm.window)

    def compute_C_decoupled(self, perm: BoundedAffinePerm) -> int:
        """Product of C over the restrictions of f to each cycle of its
        reduction.  `_relabel_restriction` needs its residues to be a union
        of cycles, which one cycle is; each relabeled window goes to the C
        table without a `BoundedAffinePerm` of its own."""
        w = perm.window
        product = 1
        for cyc in perm._cycle_tuples():
            product *= self._catalan_of(_relabel_restriction(w, cyc))
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

    # -- the reduction --------------------------------------------------------------

    def _emit(self, rule: str, w: Window, **extra) -> None:
        if self._trace is not None:
            record = {"rule": rule, "n": len(w), "window": list(w)}
            record.update(extra)
            self._trace(record)

    def _catalan_of(self, w: Window) -> int:
        """C of the bounded window w, which must be positive."""
        value = self._value(w, self._catalan)
        if value < 1:
            raise IrreducibleElement(
                f"nonpositive C = {value} for BoundedAffinePerm({list(w)}): recurrence bug"
            )
        return value

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
                w = _remove_fixed(w)
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
                    w = _drop(w, i if d[i] == 1 else i + 1)
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
        # x = R~(f s_i) is evaluated before y = R~(g), as the trace records
        if same_cycle:
            return ring.same(self._value(_right_s(w, i), ring), self._value(g, ring))
        if ring.apart is None:
            return self._value(g, ring)
        return ring.apart(self._value(_right_s(w, i), ring), self._value(g, ring))

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

