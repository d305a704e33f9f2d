"""Bounded affine permutations with period n.

A bounded affine permutation is a bijection f: Z -> Z with f(i + n) = f(i) + n
and i <= f(i) <= i + n for all i.  It is stored by its window, the tuple
(f(0), ..., f(n-1)), using 0-based positions throughout.  The integer
k = (sum of displacements) / n classifies f into the family B(k, n); when
n >= 2 and the reduction modulo n is a single n-cycle, the bounds are strict
and f lies in the distinguished subfamily Theta(k, n).

Module-level functions prefixed with an underscore operate on raw window
tuples; they are the hot path shared with the recurrence engine.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter, index, sub
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    DegeneratePeriod,
    InvalidFrame,
    MalformedText,
    NotAnInversion,
    NotBijective,
    NotBounded,
    NotNCycle,
    NotTheta,
    PosicatError,
)

Window = tuple[int, ...]


# ---------------------------------------------------------------------------
# raw window helpers
# ---------------------------------------------------------------------------

def _value_at(w: Window, x: int) -> int:
    """f(x) for any integer x, via periodicity."""
    n = len(w)
    r = x % n
    return w[r] + (x - r)


def _inverse_at(w: Window, y: int, pos: Sequence[int]) -> int:
    """f^{-1}(y) given pos[r] = window index whose value is congruent to r."""
    n = len(w)
    i = pos[y % n]
    return i + (y - w[i])


def _residue_positions(w: Window) -> list[int]:
    n = len(w)
    pos = [-1] * n
    for i, v in enumerate(w):
        pos[v % n] = i
    return pos


def _k_of(w: Window) -> int:
    """k = (sum of displacements) / n, an integer for every bounded window:
    its residues are distinct mod n, so sum f(i) = sum i (mod n)."""
    n = len(w)
    return (sum(w) - n * (n - 1) // 2) // n


def _cycles(w: Window) -> list[list[int]]:
    """Cycles of the reduction modulo n, each starting at its smallest residue."""
    n = len(w)
    seen = [False] * n
    out = []
    for s in range(n):
        if seen[s]:
            continue
        cyc = []
        x = s
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = w[x] % n
        out.append(cyc)
    return out


def _inversion_pairs(w: Window) -> Iterator[tuple[int, int]]:
    """Pairs (i, j) with i in [0, n), i < j < i + n and f(i) > f(j), in order."""
    n = len(w)
    for i in range(n):
        wi = w[i]
        for j in range(i + 1, n):
            if wi > w[j]:
                yield i, j
        # f(j) = w[j - n] + n past the window
        wi -= n
        for j in range(n, i + n):
            if wi > w[j - n]:
                yield i, j


def _length(w: Window) -> int:
    """The number of inversions, by Shi's formula: the sum over
    0 <= i < j < n of |floor((f(j) - f(i)) / n)| (Shi 1986; Bjorner-Brenti,
    Combinatorics of Coxeter Groups, 8.3).  The residues are distinct mod n,
    so each term counts the inversions between i and the translates of j,
    or between j and those of i.  It shares no code with `_inversion_pairs`,
    so the inversion multiset's total is checked against an independent
    count."""
    n = len(w)
    return sum(abs((wj - wi) // n) for i, wi in enumerate(w) for wj in w[i + 1:])


def _left_s(w: Window, i: int) -> Window:
    """Window of s_i o f: the transposition acts on values."""
    n = len(w)
    i0 = i % n
    i1 = (i + 1) % n
    out = []
    for v in w:
        r = v % n
        if r == i0:
            out.append(v + 1)
        elif r == i1:
            out.append(v - 1)
        else:
            out.append(v)
    return tuple(out)


def _right_s(w: Window, i: int) -> Window:
    """Window of f o s_i: the transposition acts on positions."""
    n = len(w)
    i0 = i % n
    out = list(w)
    if i0 == n - 1:
        out[n - 1] = w[0] + n
        out[0] = w[n - 1] - n
    else:
        out[i0], out[i0 + 1] = w[i0 + 1], w[i0]
    return tuple(out)


def _conj_s(w: Window, i: int, pos: Sequence[int]) -> Window:
    """Window of s_i o f o s_i for i in [0, n) and n >= 2, given f's residue
    positions pos.

    f o s_i swaps the entries at positions i and i+1 (i = n-1 wraps to
    position 0, shifting both values by n).  s_i o then moves the value of
    residue i up by one and the value of residue i+1 down by one; f holds
    them at pos[i] and pos[i+1], and f o s_i at those positions with i and
    i+1 swapped.
    """
    n = len(w)
    i1 = i + 1 if i + 1 < n else 0
    out = list(w)
    if i1:
        out[i], out[i1] = w[i1], w[i]
    else:
        out[i], out[0] = w[0] + n, w[i] - n
    p = pos[i]
    out[i1 if p == i else i if p == i1 else p] += 1
    p = pos[i1]
    out[i1 if p == i else i if p == i1 else p] -= 1
    return tuple(out)


def _sigma(w: Window) -> Window:
    """(sigma f)(i) = f(i - 1) + 1."""
    n = len(w)
    return tuple(_value_at(w, i - 1) + 1 for i in range(n))


def _displacements(w: Window) -> Window:
    """The displacement word (f(0) - 0, ..., f(n-1) - (n-1)), entries in [0, n]."""
    return tuple(map(sub, w, range(len(w))))


def _dual(w: Window) -> Window:
    """Window of the dual g(j) = f^-1(j) + n, the image of f under the
    duality Gr(k, n) = Gr(n-k, n).

    f(i) = v puts f^-1 at r = v mod n to i + r - v, so the displacement
    word is d_g[f(i) mod n] = n - d[i].  g is bounded with k(g) = n - k,
    its reduction is that of f^-1, with the same cycle count, and the map
    is an involution that keeps normal windows normal.
    """
    n = len(w)
    out = [0] * n
    for i, v in enumerate(w):
        r = v % n
        out[r] = i + r - v + n
    return tuple(out)


def _orbit_key(d: Window) -> Window:
    """Lexicographically minimal cyclic rotation of the displacement word d.

    The displacement word of sigma^t(f) is a rotation of that of f, so equal
    keys characterise equal sigma-orbits.  The least rotation starts at an
    occurrence of min(d): a unique minimum at t gives d[t:] + d[:t] at once,
    and otherwise the rotations that start at one are compared as tuples.
    """
    m = min(d)
    t = d.index(m)
    best = d[t:] + d[:t]
    for _ in range(d.count(m) - 1):
        t = d.index(m, t + 1)
        rotation = d[t:] + d[:t]
        if rotation < best:
            best = rotation
    return best


def _relabel_restriction(w: Window, residues: Iterable[int]) -> Window:
    """Restrict f to the residue classes in `residues`, a union of cycles of
    its reduction, relabeled onto [0, m).

    The order-preserving bijection between the support and Z commutes with
    the period shift, so weak and strict bounds are both preserved.  A
    residue's rank is read from a list indexed by residue, which holds None
    off the support: a set that f does not map into itself raises TypeError
    rather than give a window.
    """
    surv = sorted(residues)
    n = len(w)
    m = len(surv)
    rank: list[Optional[int]] = [None] * n
    for idx, r in enumerate(surv):
        rank[r] = idx
    out = []
    for s in surv:
        v = w[s]
        out.append(rank[v % n] + m * (v // n))
    return tuple(out)


def _drop(w: Window, p: int) -> Window:
    """Delete position p and the residue r = w[p] mod n, mapping every other
    value y to y - y//n - [y mod n > r]: the period n-1 window on the
    positions and residues left.  When w[p] is p or p + n, this is
    `_relabel_restriction` onto the residues other than p.

    The map is one floor division, y - (y + n-1-r)//n, since y mod n + n-1-r
    reaches n exactly when y mod n > r.  Window values are distinct, so w[p]
    is skipped by value rather than sliced out.
    """
    n = len(w)
    v = w[p]
    c = n - 1 - v % n
    return tuple([y - (y + c) // n for y in w if y != v])


def _remove_fixed(w: Window) -> Window:
    """Drop all residues with f(i) = i or f(i) = i + n in one pass:
    `_relabel_restriction` onto the rest, a union of cycles since each fixed
    residue is a cycle of its own.  It gives what a chain of `_drop`s, the
    last first, would.

    When every residue is fixed the canonical period-1 identity (0,) is
    returned, so that recurrences bottom out at the n = 1 base case.
    """
    n = len(w)
    unfixed = [i for i in range(n) if w[i] != i and w[i] != i + n]
    if not unfixed:
        return (0,)
    return _relabel_restriction(w, unfixed)


def _has_double_crossing(w: Window, i: int, pos: Sequence[int]) -> bool:
    """Nested pattern a < b < i < i+1 < c < d around positions i, i+1."""
    a = _inverse_at(w, i + 1, pos)
    b = _inverse_at(w, i, pos)
    if not a < b < i:
        return False
    c = _value_at(w, i + 1)
    d = _value_at(w, i)
    return i + 1 < c < d


def _first_double_move(w: Window, pos: Sequence[int]) -> int:
    """The first i in [0, n) where g = s_i f s_i is bounded with a double
    crossing at i, or -1, for a normal window w with residue positions pos:
    n >= 2 and no displacement f(j) - j is 0, 1, n-1 or n.  Each index is
    read off w and pos in O(1), without building g.

    With s = s_i acting on values, the pattern of `_has_double_crossing` on
    g is s(f^-1(i)) < s(f^-1(i+1)) < i < i+1 < s(f(i)) < s(f(i+1)).  On a
    normal window s moves none of these four values: each would need a
    fixed residue, f(i) = i+1 or f(i+1) = i+n.  Every displacement lies in
    [2, n-2], so i+1 < f(i), f(i+1) <= i+n and f^-1(i+1) < i hold already:
    g is bounded at i and i+1, and off them it stays bounded (see
    `_c_class_members`).  So i is a move exactly when f(i) < f(i+1) and
    f^-1(i) < f^-1(i+1), with f(n) = f(0) + n at the wrap.
    """
    n = len(w)
    top = n - 1
    for i in range(n):
        i1 = i + 1 if i < top else 0
        if w[i] > (w[i1] if i1 else w[0] + n):
            continue
        # f^-1(y) = p + y - f(p) for the p = pos[y mod n] in [0, n)
        p = pos[i]
        q = pos[i1]
        if p + i - w[p] < q + i + 1 - w[q]:
            return i
    return -1


def _swap_split(w: Window, i: int, j: int) -> tuple[list[int], list[int]]:
    """Swap the values at the crossing (i, j) and find the cycle through i.

    Returns the swapped window g, with g(i) = f(j) and g(j) = f(i), and the
    residues of the cycle of its reduction through i, in cycle order.  When
    f is a single n-cycle the swap splits it in two, and the residues left
    over form the cycle through j mod n.
    """
    n = len(w)
    rj = j % n
    t = (j - rj) // n
    g = list(w)
    g[i] = w[rj] + n * t
    g[rj] = w[i] - n * t
    cyc = [i]
    x = g[i] % n
    while x != i:
        cyc.append(x)
        x = g[x] % n
    return g, cyc


def _integers(
    values: Iterable[int], what: str, error: type[PosicatError] = MalformedText
) -> tuple[int, ...]:
    """The entries of `values` through `operator.index`, so a float, string
    or None entry raises `error` instead of being truncated or compared."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise error(f"non-integer entry in {what}: {values!r}") from None


def _integer(x: int, what: str) -> int:
    """x through `_integers`, with a fast path for a plain int."""
    return x if type(x) is int else _integers((x,), what)[0]


def _window_from_cycle(cycle: Sequence[int]) -> Window:
    """Strictly bounded lift of the n-cycle given as (0, j_1, ..., j_{n-1})."""
    n = len(cycle)
    img = [0] * n
    for idx, x in enumerate(cycle):
        img[x] = cycle[(idx + 1) % n]
    # no residue is fixed, so one period lifts every value into (i, i + n)
    return tuple(v if v > i else v + n for i, v in enumerate(img))


# ---------------------------------------------------------------------------
# public types
# ---------------------------------------------------------------------------

def _refuse(self, *_):
    """Setter and deleter of every field of the four value types, each a
    property over a private slot; `object.__setattr__` meets it too."""
    raise AttributeError(f"{type(self).__name__} is immutable")


class BoundedAffinePerm:
    """Immutable bounded affine permutation, identified by its window."""

    __slots__ = ("_window", "_n", "_k", "_pos", "_cycle_cache")
    window = property(attrgetter("_window"), _refuse, _refuse)
    n = property(attrgetter("_n"), _refuse, _refuse)
    k = property(attrgetter("_k"), _refuse, _refuse)

    def __init__(self, window: Sequence[int]):
        w = _integers(window, "window")
        if not w:
            raise PosicatError("empty window")
        n = len(w)
        # every construction is checked, so the bounds test rides the loop
        # that files residues; n values miss a residue only if two collide
        pos = [-1] * n
        for i, v in enumerate(w):
            if not i <= v <= i + n:
                raise NotBounded(f"window violates i <= f(i) <= i+n: {list(w)}")
            pos[v % n] = i
        if -1 in pos:
            raise NotBijective(f"window residues collide: {list(w)}")
        self._window = w
        self._n = n
        self._k = _k_of(w)
        self._pos = pos
        self._cycle_cache: Optional[tuple[tuple[int, ...], ...]] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_cycle(cls, cycle: Sequence[int]) -> "BoundedAffinePerm":
        """The unique f in Theta(k, n) whose reduction is the given n-cycle.

        The cycle must list each of 0..n-1 exactly once; any rotation is
        accepted and normalised to start at 0.  A non-integer entry raises
        MalformedText.
        """
        cycle = list(_integers(cycle, "cycle"))
        n = len(cycle)
        if n == 1:
            raise DegeneratePeriod("period 1 admits no strictly bounded n-cycle")
        if not cycle or sorted(cycle) != list(range(n)):
            raise NotNCycle(f"not a cycle through 0..n-1 (n = {n}): {cycle}")
        z = cycle.index(0)
        cycle = cycle[z:] + cycle[:z]
        return cls(_window_from_cycle(cycle))

    @classmethod
    def translation(cls, k: int, n: int) -> "BoundedAffinePerm":
        """The length-0 element i -> i + k, with 0 <= k <= n.  A k or n that
        is not an integer raises InvalidFrame."""
        k, n = _integers((k, n), "the frame (k, n)", InvalidFrame)
        if not 0 <= k <= n:
            raise NotBounded(f"translation by {k} is unbounded for period {n}")
        return cls(tuple(i + k for i in range(n)))

    @classmethod
    def from_json(cls, text: str) -> "BoundedAffinePerm":
        """Read `{"window": [...]}`; optional `n` and `k` fields must be JSON
        integers that agree with the window.  Text of another shape raises
        MalformedText."""
        try:
            obj = json.loads(text)
        except ValueError as exc:
            raise MalformedText(f"invalid JSON permutation {text!r}: {exc}") from None
        window = obj.get("window") if isinstance(obj, dict) else None
        # a JSON boolean is not an integer, though Python's bool is an int
        if not isinstance(window, list) or not all(type(v) is int for v in window):
            raise MalformedText(f'JSON permutation "window" must be a list of integers: {text!r}')
        perm = cls(window)
        for field in ("n", "k"):
            if field not in obj:
                continue
            value, expected = obj[field], getattr(perm, field)
            if type(value) is not int or value != expected:
                raise MalformedText(f"JSON field {field}={value!r} is not the window's {expected}")
        return perm

    # -- basics --------------------------------------------------------------

    def __call__(self, x: int) -> int:
        return _value_at(self.window, _integer(x, "the argument of f"))

    def inverse_at(self, y: int) -> int:
        return _inverse_at(self.window, _integer(y, "the argument of f^-1"), self._pos)

    def __eq__(self, other) -> bool:
        return isinstance(other, BoundedAffinePerm) and self.window == other.window

    def __hash__(self) -> int:
        return hash(self.window)

    def __repr__(self) -> str:
        return f"BoundedAffinePerm({list(self.window)})"

    def __reduce__(self):
        # pickling and copying rebuild through the checked constructor
        return (BoundedAffinePerm, (self.window,))

    def _cycle_tuples(self) -> tuple[tuple[int, ...], ...]:
        """The cycles of the reduction, computed once and kept as tuples, so
        no caller can change the cached value."""
        if self._cycle_cache is None:
            self._cycle_cache = tuple(map(tuple, _cycles(self.window)))
        return self._cycle_cache

    def cycle_count(self) -> int:
        return len(self._cycle_tuples())

    @property
    def is_theta(self) -> bool:
        """A single n-cycle reduction with n >= 2, read off the cached cycles.
        The bounds are then strict: f(i) is i or i + n only at a fixed residue."""
        return self.n > 1 and len(self._cycle_tuples()) == 1

    def require_theta(self) -> None:
        if not self.is_theta:
            raise NotTheta(f"{self!r} is not a single-cycle strictly bounded permutation")

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "k": self.k, "window": list(self.window)})

    # -- inversions ----------------------------------------------------------

    def inversions(self) -> list[tuple[int, int]]:
        """All pairs (i, j) with i in [0, n), i < j < i + n, f(i) > f(j)."""
        return list(_inversion_pairs(self.window))

    def length(self) -> int:
        """The number of inversions, by `_length` on each call (not cached)."""
        return _length(self.window)

    # -- symmetries -----------------------------------------------------------

    def cyclic_shift(self) -> "BoundedAffinePerm":
        """sigma(f), with (sigma f)(i) = f(i - 1) + 1; preserves k, n, length."""
        return BoundedAffinePerm(_sigma(self.window))

    def rotate_180(self) -> "BoundedAffinePerm":
        """The half-turn g(j) = -f^{-1}(-j); an involution on Theta(k, n).

        It reflects the small path through the centre of the k x n frame:
        g^r(0) = kn - f^(n-r)(0) for r = 0..n.
        """
        self.require_theta()
        w = tuple(-self.inverse_at(-j) for j in range(self.n))
        return BoundedAffinePerm(w)

    # -- crossings -----------------------------------------------------------

    def has_double_crossing_at(self, i: int) -> bool:
        i = _integer(i, "the crossing index") % self.n
        return _has_double_crossing(self.window, i, self._pos)

    def is_inversion(self, i: int, j: int) -> bool:
        i, j = _integers((i, j), "the pair (i, j)")
        n = self.n
        return 0 <= i < n and i < j < i + n and self(i) > self(j)

    def resolve_crossing(
        self, inv: tuple[int, int]
    ) -> tuple["BoundedAffinePerm", "BoundedAffinePerm"]:
        """Swap the values at an inversion and split into the two cycles.

        The factor containing the residue of i comes first.  Both factors are
        strictly bounded single cycles of their respective periods, and their
        types (k_1, n_1 - k_1) and (k_2, n_2 - k_2) add up to (k, n - k).
        An `inv` that is not a pair of integers raises MalformedText.
        """
        self.require_theta()
        pair = _integers(inv, "the crossing (i, j)")
        if len(pair) != 2:
            raise MalformedText(f"a crossing is a pair (i, j), not {inv!r}")
        i, j = pair
        if not self.is_inversion(i, j):
            raise NotAnInversion(f"({i}, {j}) is not an inversion of {self!r}")
        gw, cyc1 = _swap_split(self.window, i, j)
        in_cyc1 = set(cyc1)
        cyc2 = [s for s in range(self.n) if s not in in_cyc1]
        f1 = BoundedAffinePerm(_relabel_restriction(gw, cyc1))
        f2 = BoundedAffinePerm(_relabel_restriction(gw, cyc2))
        return f1, f2


def _c_class_members(w: Window) -> Iterator[Window]:
    """Raw-window BFS over length-preserving bounded simple conjugations.

    Yields w first, then each member as it is discovered (not when it is
    dequeued), with conjugation indices in increasing order; consumers that
    stop early skip the rest of the search.

    Each index is read in O(1) off the dequeued member f and its residue
    positions, and s_i f s_i is built only when it passes.  With s = s_i,
    f s_i is one longer than f iff f(i) < f(i+1), s_i f s_i is one longer
    than f s_i iff s(f^-1(i)) < s(f^-1(i+1)), and the length is kept iff
    exactly one of the two holds.  A kept length keeps s_i f s_i bounded,
    so no bound is tested.  g = s_i f s_i agrees with f off the residues i,
    i+1, f^-1(i) and f^-1(i+1).  At x = f^-1(i) and x = f^-1(i+1), when x
    is not i or i+1, g(x) = f(x) + 1 or f(x) - 1 stays in [x, x+n]:
    f(x) = x + n would need x = i, and f(x) = x would need x = i+1.  At
    the positions i and i+1 only s(f(i)) <= i or s(f(i+1)) > i+n could
    break a bound.  The first needs f(i) = i+1 and the second
    f(i+1) = i+n, and either makes both length changes +1.
    """
    n = len(w)
    top = n - 1
    seen = {w}
    queue = [w]
    yield w
    qi = 0
    while qi < len(queue):
        cur = queue[qi]
        qi += 1
        pos = _residue_positions(cur)
        for i in range(n):
            i1 = i + 1 if i < top else 0
            c = cur[i]
            d = cur[i + 1] if i1 else cur[0] + n
            p = pos[i]
            a = p + i - cur[p] + (1 if p == i else -1 if p == i1 else 0)
            p = pos[i1]
            b = p + i + 1 - cur[p] + (1 if p == i else -1 if p == i1 else 0)
            if (c < d) == (a < b):
                continue
            g = _conj_s(cur, i, pos)
            if g in seen:
                continue
            seen.add(g)
            queue.append(g)
            yield g


def _require_theta_frame(k: int, n: int) -> None:
    """Theta(k, n) is nonempty only for integers 1 <= k <= n-1."""
    k, n = _integers((k, n), "the frame (k, n)", InvalidFrame)
    if not 1 <= k <= n - 1:
        raise InvalidFrame(f"need 1 <= k <= n-1, got k={k}, n={n}")


def min_length_witness(k: int, n: int) -> BoundedAffinePerm:
    """A minimal-length element of Theta(k, n): the translation times
    s_1 s_2 ... s_{d-1} where d = gcd(k, n); its length is d - 1."""
    _require_theta_frame(k, n)
    w = BoundedAffinePerm.translation(k, n).window
    for i in range(1, math.gcd(k, n)):
        w = _right_s(w, i)
    return BoundedAffinePerm(w)


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def parse_perm(text: str, one_based: bool = False) -> BoundedAffinePerm:
    """Parse `window:3,6,4`, `cycle:(0,3,2)`, or a JSON object string.

    With one_based=True, cycle entries are read on the alphabet 1..n (n plays
    the role of 0); windows are read as (f(1), ..., f(n)).  Either way the
    same affine permutation results, expressed in 0-based form.  Text that
    follows none of these forms raises MalformedText.
    """
    text = text.strip()
    if text.startswith("{"):
        return BoundedAffinePerm.from_json(text)
    if text.startswith("window:"):
        values = _parse_ints(text[len("window:"):], text)
        if one_based:
            # (f(1), ..., f(n)) determines f(0) = f(n) - n
            values = [values[-1] - len(values)] + values[:-1]
        return BoundedAffinePerm(values)
    if text.startswith("cycle:"):
        body = text[len("cycle:"):].strip()
        if body.startswith("(") and body.endswith(")"):
            body = body[1:-1]
        entries = _parse_ints(body, text)
        if one_based:
            entries = [e % len(entries) for e in entries]
        return BoundedAffinePerm.from_cycle(entries)
    raise MalformedText(f"unrecognised permutation format: {text!r}")


def _parse_ints(body: str, text: str) -> list[int]:
    """The comma-separated integers of `body`, blank entries skipped; a
    non-integer entry or no entry at all raises MalformedText naming `text`."""
    try:
        values = [int(t) for t in body.split(",") if t.strip()]
    except ValueError:
        raise MalformedText(f"non-integer entry in {text!r}") from None
    if not values:
        raise MalformedText(f"no entries in {text!r}")
    return values
