"""Memoized recurrence for the normalised point count R~ and its q = 1 value.

R~_f(q) = R_f(q) / (q-1)^(n-c), where c counts the cycles of the reduction
of f; the Catalan number is C_f = R~_f(1).  One reduction computes R~ on a
window w, reading the base value and the two steps of rule 3 off the ring
it evaluates in.

  0. orient (the polynomial ring, a public request that misses its own key):
     when 2k < n, reduce the dual f*(j) = f^-1(j) + n instead
     (`affine._dual`), the image of f under Gr(k, n) = Gr(n-k, n).  f* is
     bounded with k(f*) = n - k and the same cycle count, and
     R~(f*) = R~(f);
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
reduced node makes no product of polynomials.  R itself is R~ (q-1)^(n-c).
Its reduction is strongly asymmetric in k: the (5, 13) top cell takes
19,910 entries and its dual (8, 13) 8,100, so rule 0 sends a request to
the side with 2k >= n.  Only the request is oriented: orienting every
normal node as well cut the misses of a random n = 14 sample further
(5,245 to 4,970) but raised them by 15-27% on two windows with 2k = n
(n = 20 and 22), whose children fall on both sides.  The integer ring does
not orient: it decouples (rule D below), and orienting its requests too
saved 17 of 3,682 misses on a random n = 18 sample, when the ring still
reduced each f s_i of rule 3 as a node, and read 9-14% slower there.

The integer ring gives C directly, and decouples:

  D. a window with two or more cycles has C = the product of C over the
     restrictions of f to its cycles, each relabeled onto [0, m) by
     `affine._relabel_restriction` and reduced as a child.

It applies D in two places.  At a double move of a single cycle f, f s_i
is f with the crossing at (i, i+1) resolved, and it has exactly two
cycles; so the step is C(f) = C(f_1) C(f_2) + C(g) over those two cycles,
and f s_i itself is never normalised, keyed or stored.  That halves the
ring's nodes: on a random n = 18 sample, 3,682 misses became 2,005.  And a
request whose normal form has two or more cycles is decoupled before rule
3.  Normalising a single cycle leaves a single cycle, and g is a conjugate
of f, so every other window the ring reduces is one cycle, where i and i+1
always share the cycle and its step is x + y.  R~ has no such rule: it is
the product over the non-crossing blocks of cycles (Ardila, Rincon and
Williams, "Positroids and non-crossing partitions"), and on every bounded
window with n <= 7 whose cycles cross it differs from the product over
cycles.  Rule D is checked, not proven here: `verify --suite engine`
compares C with R~(1) from the polynomial ring, which never decouples, on
every bounded window up to its n_max (`rtilde_at_1`).

Rule 3 holds at every double move; both rings take the first, by a fixed
scan that keeps traces reproducible.  Whether i and i+1 share a cycle of g
is read off f itself: conjugating by s_i maps the cycle of i onto the
cycle of i+1, so they share one of g exactly when they share one of f.
Each recursion reduces the period or increases the length at fixed
period, and length is bounded by k(n-k), so the recursion terminates; a
class with no applicable member would contradict the constructive
reduction, hence IrreducibleElement signals a bug.

Normalisation reads the displacement word d = (f(0) - 0, ..., f(n-1) -
(n-1)): residue j is fixed iff d[j] is 0 or n, and a simple factor applies
at i iff d[i] = 1 or d[i+1] = n-1 (d[0] for i = n-1).  So a normal window
costs four native membership tests.  The fixed residues are removed once,
on entry, by `affine._remove_fixed`, which restricts f to the other
residues in one `_relabel_restriction` pass.  Each simple factor is then
fused with the removal of what s_i f fixes (i, i+1 or both, the wrap at
i = n-1 included) into one contraction, `affine._contract(w, i)`: skip the
fixed entries and renumber every other value by one floor division.  A
contraction leaves no fixed residue, so each pass scans the new word from 0
for the next simple factor alone.  Each contraction is one O(n) pass and
lowers the period, so a chain costs O(n) per step it takes.

Values are cached per sigma-orbit: R~ is invariant under the cyclic shift,
and the lex-min rotation of the displacement word identifies the orbit.  The
key is the least rotation that starts at an occurrence of the word's
minimum: one rotation when the minimum is unique.  Only a public
`compute_*` request uses its own key: it is looked up first, and the value
is stored under it and under the key of the normal form of the window
reduced, which for an oriented request is the dual's.  So a hit costs no
dual, and a repeated request with 2k < n hits its own key.  That lookup
serves a new rotation of an orbit already requested, often a window that
is not normal, without normalising it; sending requests down the
normal-form path instead doubled the time of `verify_engine(6)`.  Every
other window, a child of a step (in the integer ring, a factor of f s_i
or g) or a class member that is not normal, is normalised first and then
looked up and stored under its normal form's key alone.  Normality depends
only on the displacement word up to rotation, so one sigma-orbit always
meets the same entry.  Windows passed through inside a chain get no entry,
so their `simple_factor` and `remove_fixed_points` trace records repeat
each time the window is met.  For a class-search hit, every normal member
visited shares the value and is cached as well.

A reduced node does O(n) Python-level work: one residue-position table and
one pass of `affine._first_double_move`, which stops at the first index that
passes.  Every node reduced is normal, so s_i moves none of f(i), f(i+1),
f^-1(i) and f^-1(i+1), g is bounded, and the test at i is f(i) < f(i+1) and
f^-1(i) < f^-1(i+1), read off f and that table in O(1).  The polynomial
ring tests that index for a shared cycle by a walk along one cycle of f.
The integer ring first walks the cycle through residue 0,
which closes in fewer than n steps only on a request's normal form with
several cycles; that one it lists in one pass (`affine._cycles`) and
decouples.  At its step it builds f s_i by swapping two entries of a copy
of the window (`affine._right_s`), lists its two cycles the same way and
relabels each in one pass.  g is built once, for the chosen index, by
editing four entries of a copy of the window (`affine._conj_s`).  The keys
cost a few native passes over the word, plus one rotation per repeated
occurrence of its minimum.  A class search builds one residue table per
member it dequeues and reads each index's length change off it in O(1); a
kept length keeps the conjugate bounded.

The reduction recurses once per double move, and its depth can pass the
interpreter's default recursion limit.  A `compute_*` request that misses
its own key raises the limit once, around all of its normalisation and
reduction, and restores it afterwards; a request nested inside a trace
hook finds it raised and leaves it alone.  So a request answered from the
table never touches the limit, no reduced node reads it, and building an
engine changes no process-wide state.
"""

from __future__ import annotations

import sys
from math import prod
from operator import add
from typing import Callable, Optional

from .affine import (
    BoundedAffinePerm,
    _c_class_members,
    _conj_s,
    _contract,
    _cycles,
    _displacements,
    _dual,
    _first_double_move,
    _left_s,
    _orbit_key,
    _relabel_restriction,
    _remove_fixed,
    _residue_positions,
    _right_s,
    Window,
)
from .errors import IrreducibleElement, PreconditionViolated
from .polynomial import IntPoly, ONE, Q_MINUS_1

TraceHook = Callable[[dict], None]

# reductions may nest across n levels and up to k(n-k) lengths
_RECURSION_LIMIT = 20000


# run on every reduced node of the polynomial ring, so they read the slot
def _same_step(x: IntPoly, y: IntPoly) -> IntPoly:
    """x + q y, in one pass over the coefficients."""
    a, b = x._coeffs, y._coeffs
    m = max(len(a), len(b) + 1)
    return IntPoly(map(add, a + (0,) * (m - len(a)), (0,) + b + (0,) * (m - 1 - len(b))))


def _apart_step(x: IntPoly, y: IntPoly) -> IntPoly:
    """(q-1)^2 x + q y, in one pass over the coefficients: the coefficient of
    q^j is x_j - 2 x_{j-1} + x_{j-2} + y_{j-1}."""
    a, b = x._coeffs, y._coeffs
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
    a cycle of the reduction of g, and `apart(x, y)` when they do not.  An
    `apart` of None marks a ring that is multiplicative over cycles (rule D
    of the module docstring): a window with two or more cycles is the
    product over its cycles, so the ring takes x as the product over the
    two cycles of f s_i, steps only on single cycles and never takes an
    apart move.  `cache` maps sigma-orbit keys to values;
    `hits` and `misses` count lookups.
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
        # at q = 1, x + q y is x + y; the ring decouples over cycles, so it
        # never needs the apart step
        self._catalan = _Ring(1, add, None)
        self._trace = trace_hook

    # -- public API -------------------------------------------------------------

    def compute_R(self, perm: BoundedAffinePerm) -> IntPoly:
        """Point-count polynomial R_f(q) = R~_f(q) (q - 1)^(n - c), with R~
        computed as by `compute_Rtilde`."""
        exponent = perm.n - perm.cycle_count()
        return self._value(perm.window, self._rtilde) * Q_MINUS_1 ** exponent

    def compute_Rtilde(self, perm: BoundedAffinePerm) -> IntPoly:
        """R_f(q) / (q - 1)^(n - c) where c counts cycles of the reduction,
        computed directly by the recurrence in the polynomial ring.  A
        request with 2k < n that misses its own key reduces the dual window,
        of type (n - k, n), which has the same R~ (rule 0 of the module
        docstring); the value is stored under the request's key as well."""
        return self._value(perm.window, self._rtilde)

    def compute_C(self, perm: BoundedAffinePerm) -> int:
        """The integer invariant; equals compute_Rtilde(f) at q = 1."""
        return self._catalan_of(perm.window)

    def compute_C_decoupled(self, perm: BoundedAffinePerm) -> int:
        """Product of C over the restrictions of f to each cycle of its
        reduction.  A fixed residue restricts to a period-1 window, whose
        positroid variety is a point, so its factor is 1 by rule 2 and it is
        skipped.  `_relabel_restriction` needs its residues to be a union of
        cycles, which one cycle is; each relabeled window goes to the C table
        without a `BoundedAffinePerm` of its own.

        The integer ring decouples too (rule D), at a request's normal form
        and at every double move, so comparing this with `compute_C`
        compares two groupings of one ring and its tables.  The guard that
        does not decouple is `R~(1)` from the polynomial ring: the engine
        suite's `rtilde_at_1`."""
        w = perm.window
        product = 1
        for cyc in perm._cycle_tuples():
            if len(cyc) > 1:
                product *= self._catalan_of(_relabel_restriction(w, cyc))
        return product

    def double_crossing_recurrence_check(self, perm: BoundedAffinePerm, i: int) -> bool:
        """At a double crossing of f at i, the conjugate's value splits as
        C(s_i f s_i) = C(f1) C(f2) + C(f) over the resolution of (i, i+1).
        The conjugate is built as a `BoundedAffinePerm`, so an unbounded one
        raises the constructor's NotBounded, which names its window."""
        perm.require_theta()
        if not perm.has_double_crossing_at(i):
            raise PreconditionViolated(f"no double crossing at {i}")
        i = i % perm.n
        f1, f2 = perm.resolve_crossing((i, i + 1))
        lhs = self.compute_C(BoundedAffinePerm(_conj_s(perm.window, i, perm._pos)))
        return lhs == self.compute_C(f1) * self.compute_C(f2) + self.compute_C(perm)

    @property
    def stats(self) -> dict[str, int]:
        """Cache counters: r_* for the R~ table, c_* for the C table.  A miss
        is a normal window reduced.  A hit is a lookup answered from the
        table: a public request by its own key or its normal form's, and a
        child of a step or a class member by its normal form's.  Entries
        count the keys stored: the request's and the normal form's for a
        public request (the dual's normal form when rule 0 orients it), the
        normal form's for every other window, and one per normal member a
        successful class search visited.  The two-cycle f s_i of a C-ring
        step is none of these: only its two factors are looked up."""
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
        """R~(w) in `ring` for a public request: the request's own key, else
        its normal form's, stored under both; in the polynomial ring a miss
        with 2k < n reduces the dual of w instead (rule 0).  See the module
        docstring.  A miss runs under the raised recursion limit, which a
        request nested inside a trace hook finds raised and leaves alone."""
        cache = ring.cache
        d = _displacements(w)
        key = _orbit_key(d)
        value = cache.get(key)
        if value is not None:
            ring.hits += 1
            return value
        n = len(w)
        if ring is self._rtilde and 2 * sum(d) < n * n:
            # 2k < n: the dual has the same R~ and the cheaper side
            g = _dual(w)
            if self._trace is not None:
                self._emit("dual", w, dual=list(g))
            w, d = g, _displacements(g)
        limit = sys.getrecursionlimit()
        if limit < _RECURSION_LIMIT:
            sys.setrecursionlimit(_RECURSION_LIMIT)
        try:
            value = cache[key] = self._normal_value(*self._normalise(w, d), ring)
        finally:
            if limit < _RECURSION_LIMIT:
                sys.setrecursionlimit(limit)
        return value

    def _child_value(self, w: Window, ring: _Ring):
        """R~(w) in `ring` for a window met inside a reduction: keyed by its
        normal form alone."""
        return self._normal_value(*self._normalise(w, _displacements(w)), ring)

    def _normal_value(self, v: Window, d: Window, ring: _Ring):
        """R~ of the normal window v, with displacement word d: its key, else
        a reduction stored under it."""
        key = _orbit_key(d)
        value = ring.cache.get(key)
        if value is None:
            ring.misses += 1
            value = ring.cache[key] = self._reduce(v, ring)
        else:
            ring.hits += 1
        return value

    def _normalise(self, w: Window, d: Window) -> tuple[Window, Window]:
        """The normal form of w and its displacement word, given w's word d:
        rule 1 of the module docstring, with the fixed residues removed once
        on entry and one `affine._contract` per simple factor.  Returns w
        itself when it is normal, and emits the records of the steps it takes."""
        trace = self._trace
        n = len(w)
        if n > 1 and (0 in d or n in d):
            if trace is not None:
                self._emit("remove_fixed_points", w)
            w = _remove_fixed(w)
            n = len(w)
            d = _displacements(w)
        while n > 1:
            top = n - 1
            if 1 not in d and top not in d:
                break
            # first i with d[i] == 1 or d[i+1 mod n] == n-1
            i = d.index(1) if 1 in d else n
            if top in d:
                # with no n-1 past d[0], it is d[0]: the wrap i = n-1
                try:
                    i = min(i, d.index(top, 1) - 1)
                except ValueError:
                    i = min(i, top)
            if trace is not None:  # the records of s_i f and of its removal
                self._emit("simple_factor", w, i=i)
                self._emit("remove_fixed_points", _left_s(w, i))
            w = _contract(w, i)
            n = len(w)
            d = _displacements(w)
        return w, d

    def _step(self, w: Window, ring: _Ring):
        """R~ of the normal window w in `ring` by rule 2 or its first double
        move, or None.  In a ring multiplicative over cycles w has one cycle,
        so every double move shares it, and x is the product over the two
        cycles of w s_i."""
        n = len(w)
        if n == 1:
            self._emit("base", w)
            return ring.one
        pos = _residue_positions(w)
        i = _first_double_move(w, pos)
        if i < 0:
            return None
        # i, i+1 share a cycle of g = s_i f s_i iff they share one of f,
        # since conjugating by s_i swaps the labels i and i+1
        same_cycle = ring.apart is None or _same_cycle(w, i)
        g = _conj_s(w, i, pos)
        if self._trace is not None:
            self._emit("double_move", w, i=i, same_cycle=same_cycle)
        # x = R~(f s_i) is evaluated before y = R~(g), as the trace records
        x = _right_s(w, i)
        if ring.apart is None:
            # resolving the crossing splits the one cycle of w in two, and
            # the ring is multiplicative over cycles: x is the product of its
            # factors, and w s_i itself is never normalised or stored
            cycles = _cycles(x)
            if self._trace is not None:
                self._emit("decouple", x, cycles=cycles)
            return ring.same(
                prod(self._child_value(_relabel_restriction(x, c), ring) for c in cycles),
                self._child_value(g, ring),
            )
        step = ring.same if same_cycle else ring.apart
        return step(self._child_value(x, ring), self._child_value(g, ring))

    def _reduce(self, w: Window, ring: _Ring):
        """R~ of the normal window w in `ring`: a step, else a class search.
        It recurses through `_child_value`, under the limit `_value` raised.
        A ring multiplicative over cycles answers two or more cycles, which
        only a request's normal form has, as the product over their
        restrictions."""
        if ring.apart is None:
            # the cycle through 0 has all n residues exactly when w is one
            # cycle: every miss but a request's normal form with several
            # cycles, the only window listed and decoupled here
            n = len(w)
            x, m = w[0] % n, 1
            while x:
                x = w[x] % n
                m += 1
            if m < n:
                cycles = _cycles(w)
                if self._trace is not None:
                    self._emit("decouple", w, cycles=cycles)
                return prod(self._child_value(_relabel_restriction(w, c), ring) for c in cycles)
        value = self._step(w, ring)
        if value is not None:
            return value
        # class search: R~ is constant on the conjugation class, so the first
        # member that is not normal or admits a step determines the value.
        # Members are tried in discovery order; the normal members seen so far
        # share the value and are cached with it, under the key of the
        # displacement word `_normalise` returned for each.
        self._emit("class_search", w)
        members = _c_class_members(w)
        next(members)  # w itself, which `_normal_value` stores on return
        seen = []
        for g in members:
            v, d = self._normalise(g, _displacements(g))
            if v is not g:
                value = self._normal_value(v, d, ring)
            else:
                seen.append(d)
                value = self._step(g, ring)
            if value is not None:
                for word in seen:
                    ring.cache.setdefault(_orbit_key(word), value)
                return value
        raise IrreducibleElement(
            f"no reduction applies anywhere in the class of {list(w)}"
        )

