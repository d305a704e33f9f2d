"""Inversion multisets, their symmetry and convexity, and derived statistics.

The multiset of a single-cycle bounded permutation records, for every
inversion, the type (k_1, n_1 - k_1) of the first resolution factor.  Two
coordinate frames are used: RECT keeps (k_1, n_1 - k_1) inside the open
rectangle [1, k-1] x [1, n-k-1], SHEARED applies (a, b) -> (a, a + b) and
lives in [1, k-1] x [1, n-1].  The shear is unimodular, so convexity and
lattice-point counts agree between frames.
"""

from __future__ import annotations

import json
import math
from operator import attrgetter, floordiv, index
from typing import Iterable, Optional

from .affine import BoundedAffinePerm, _integers, _inversion_pairs, _refuse
from .errors import InvalidFrame, MalformedText, NotRepetitionFree, PosicatError

Point = tuple[int, int]

RECT = "rect"
SHEARED = "sheared"


def _points(points: Iterable[Point], what: str) -> list[Point]:
    """The points of `points` as integer pairs through `operator.index`, so a
    float, string or None coordinate raises MalformedText instead of being
    truncated."""
    try:
        return [(index(a), index(b)) for a, b in points]
    except (TypeError, ValueError):
        raise MalformedText(f"a point of {what} is not a pair of integers") from None


def rect_to_sheared(p: Point) -> Point:
    return (p[0], p[0] + p[1])


def sheared_to_rect(p: Point) -> Point:
    return (p[0], p[1] - p[0])


class LatticeMultiset:
    """Multiset of lattice points in a frame with its central-symmetry vector.

    `delta` is (k, n-k) in the RECT frame and (k, n) in the SHEARED frame;
    entries map points to positive multiplicities.  A delta that is not a
    pair of integers raises MalformedText, as entries that are not a dict of
    integer points and multiplicities do.  Its fields refuse assignment and
    deletion, but the entries dict is mutable, so a multiset is equal field
    by field and unhashable.
    """

    __slots__ = ("_frame", "_delta", "_entries")
    frame = property(attrgetter("_frame"), _refuse, _refuse)
    delta = property(attrgetter("_delta"), _refuse, _refuse)
    entries = property(attrgetter("_entries"), _refuse, _refuse)

    def __init__(self, frame: str, delta: Point, entries: Optional[dict[Point, int]] = None):
        if frame not in (RECT, SHEARED):
            raise PosicatError(f"unknown frame {frame!r}")
        self._frame = frame
        (self._delta,) = _points([delta], "a lattice multiset's delta")
        if entries is None:
            entries = {}
        # the rule of `_points`, in the one pass that also reads the
        # multiplicities: every window of the main sweep builds a multiset
        try:
            entries = {(index(a), index(b)): index(m) for (a, b), m in entries.items()}
        except AttributeError:
            raise MalformedText(
                f"a lattice multiset's entries must be a dict of points: {entries!r}"
            ) from None
        except (TypeError, ValueError):
            raise MalformedText(
                "a point or multiplicity of a lattice multiset is not an integer"
            ) from None
        if 0 in entries.values():
            entries = {p: m for p, m in entries.items() if m}
        self._entries = entries
        if min(entries.values(), default=0) < 0:
            raise PosicatError("negative multiplicity")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self._frame, self._delta, self._entries) == (
            other._frame, other._delta, other._entries
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(frame={self._frame!r}, delta={self._delta!r}, "
            f"entries={self._entries!r})"
        )

    def __reduce__(self):
        # pickling and copying rebuild through the checked constructor
        return (LatticeMultiset, (self._frame, self._delta, self._entries))

    # -- views ----------------------------------------------------------------

    def multiplicity(self, p: Point) -> int:
        (p,) = _points([p], "a multiplicity query")
        return self._entries.get(p, 0)

    def total(self) -> int:
        return sum(self._entries.values())

    def points(self) -> list[Point]:
        return sorted(self._entries)

    def is_set(self) -> bool:
        return all(m == 1 for m in self._entries.values())

    # -- frame conversion --------------------------------------------------------

    def to_sheared(self) -> "LatticeMultiset":
        """The same multiset in the SHEARED frame; a sheared one is its own."""
        if self._frame == SHEARED:
            return self
        k, m = self._delta
        entries = {rect_to_sheared(p): c for p, c in self._entries.items()}
        return LatticeMultiset(SHEARED, (k, k + m), entries)

    # -- text and JSON -------------------------------------------------------------

    def text(self) -> str:
        """`1,1;2,3` with entries repeated by multiplicity, sorted."""
        items: list[Point] = []
        for p in self.points():
            items.extend([p] * self._entries[p])
        return ";".join(f"{a},{b}" for a, b in items)

    def as_json(self) -> str:
        k, second = self._delta
        points: list[list[int]] = []
        for p in self.points():
            points.extend([list(p)] * self._entries[p])
        m = second if self._frame == RECT else second - k
        return json.dumps({"frame": self._frame, "k": k, "m": m, "points": points})


def parse_forbidden(text: str) -> list[Point]:
    """Parse the `1,1;2,3` point-list format; empty string means no points."""
    text = text.strip()
    if not text:
        return []
    out = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        try:
            a, b = (int(t) for t in parts)
        except ValueError:
            raise MalformedText(f"bad point {chunk!r} in forbidden set") from None
        out.append((a, b))
    return out


# ---------------------------------------------------------------------------
# the inversion multiset and its properties
# ---------------------------------------------------------------------------

def inversion_multiset(perm: BoundedAffinePerm) -> LatticeMultiset:
    """Resolve every crossing and collect the first factor's type, in the
    RECT frame (`to_sheared` gives the SHEARED one).

    The first factor is the cycle through i of the window g swapped at the
    inversion (i, j).  Its type (k_1, n_1 - k_1) is read off the raw window:
    n_1 is the cycle's length and k_1 the sum of g(s) // n over its residues
    s, which is what relabelling the cycle onto [0, n_1) would give as k.

    No swapped copy of the window is made: the cycle is walked on f's own
    window.  With j = r + tn and r = j mod n, the swap changes only
    g(i) = f(r) + tn, the walk's first step, and g(r) = f(i) - tn, which the
    walk never reads.  From the successor of r on f's one cycle, f's own
    steps reach i before they could return to r, and the walk stops at i.
    """
    perm.require_theta()
    w = perm.window
    n = perm.n
    entries: dict[Point, int] = {}
    for i, j in _inversion_pairs(w):
        r = j % n
        v = w[r] + j - r
        k1, n1 = v // n, 1
        x = v % n
        while x != i:
            v = w[x]
            k1 += v // n
            n1 += 1
            x = v % n
        p = (k1, n1 - k1)
        entries[p] = entries.get(p, 0) + 1
    return LatticeMultiset(RECT, (perm.k, perm.n - perm.k), entries)


def is_centrally_symmetric(ms: LatticeMultiset) -> bool:
    """multiplicity(p) == multiplicity(delta - p) for every point."""
    # the slots, not the properties: every window of the main sweep runs this
    dk, dn = ms._delta
    # the entries' points are integer pairs already: no `multiplicity` check
    get = ms._entries.get
    return all(get((dk - a, dn - b), 0) == m for (a, b), m in ms._entries.items())


# -- lattice convexity via one integer monotone chain ---------------------------

def _upper_chain(points: Iterable[Point]) -> list[Point]:
    """Upper-hull vertices of `points`, left to right (Andrew's monotone
    chain, integer arithmetic only).

    Only the highest point of each column can be an upper-hull vertex, so
    the chain runs over those; points on a chain edge are dropped.  The
    lower hull is the upper chain of the points with y negated.
    """
    top: dict[int, int] = {}
    for x, y in points:
        if x not in top or y > top[x]:
            top[x] = y
    chain: list[Point] = []
    for p in sorted(top.items()):
        while len(chain) >= 2:
            (x1, y1), (x2, y2) = chain[-2], chain[-1]
            if (x2 - x1) * (p[1] - y1) - (y2 - y1) * (p[0] - x1) < 0:
                break
            chain.pop()
        chain.append(p)
    return chain


def _chain_heights(chain: list[Point], div) -> list:
    """The chain's height at each integer x from its first vertex to its
    last, as div(numerator, denominator): `floordiv` gives the floors, and
    `lambda y, w: y * (L // w)` the exact heights as numerators over L, a
    common multiple of the edge widths."""
    out = []
    for (x1, y1), (x2, y2) in zip(chain, chain[1:]):
        out.extend(div(y1 * (x2 - x) + y2 * (x - x1), x2 - x1) for x in range(x1, x2))
    out.append(div(chain[-1][1], 1))
    return out


def is_convex_points(points: Iterable[Point], k: int, m: int) -> bool:
    """Lattice convexity of a point set, in either frame: together with the
    corners (0, 0) and delta = (k, m), which is (k, n-k) in the RECT frame
    and (k, n) in the SHEARED frame, it holds every lattice point of its
    hull, so the set less the corners is its own `_lattice_closure`.  The
    shear is unimodular, so both frames give the same answer."""
    points = set(points)
    return points - {(0, 0), (k, m)} == _lattice_closure(points, k, m)


def _lattice_closure(points: Iterable[Point], k: int, m: int) -> frozenset[Point]:
    """The lattice points of conv(points | {(0, 0), (k, m)}), corners
    excluded: the smallest set containing `points` less the corners that
    `is_convex_points` accepts.  Read column by column, with x = b: the
    upper monotone chain gives the floor of the hull's top, and the upper
    chain of the points with a negated the floor of minus its bottom."""
    corners = {(0, 0), (k, m)}
    aug = [*points, *corners]
    upper = _upper_chain((b, a) for a, b in aug)
    tops = _chain_heights(upper, floordiv)
    neg_bottoms = _chain_heights(_upper_chain((b, -a) for a, b in aug), floordiv)
    x0 = upper[0][0]
    return frozenset(
        (a, x0 + i)
        for i, (top, neg_bottom) in enumerate(zip(tops, neg_bottoms))
        for a in range(-neg_bottom, top + 1)
    ) - corners


def is_convex(ms: LatticeMultiset) -> bool:
    """Lattice convexity of a multiset with multiplicities all equal to 1.

    Either frame is accepted: `is_convex_points` runs in the multiset's own
    frame with corners (0, 0) and its delta.
    """
    if not ms.is_set():
        return False
    return is_convex_points(ms._entries, *ms._delta)


# -- extremal sets ----------------------------------------------------------------

def f_min(k: int, n: int) -> set[Point]:
    """Sheared-frame points of [1, k-1] x [1, n-1] with the same slope as
    (k, n): the gcd(k, n) - 1 points (j k/g, j n/g) for 1 <= j < g = gcd(k, n),
    so empty iff gcd = 1, and empty for k < 1 or n < 1.  A k or n that is
    not an integer raises InvalidFrame."""
    k, n = _integers((k, n), "the frame (k, n)", InvalidFrame)
    g = math.gcd(k, n) if min(k, n) > 0 else 1
    return {(j * k // g, j * n // g) for j in range(1, g)}


# -- partition export ----------------------------------------------------------------

def lambda_partition(perm: BoundedAffinePerm) -> tuple[int, ...]:
    """Row lengths of the boxes above the diagonal and strictly above the
    forbidden points, in the k x (n-k) rectangle.

    Box convention: row i (from the top) and column j span vertical
    [k-i, k-i+1] and horizontal [j-1, j].  The box counts when its southeast
    corner (j, k-i) satisfies (k-i)(n-k) >= kj (corner touches with the bare
    diagonal are allowed) and every multiset point (a, b) with b in
    {j-1, j} lies strictly below the box, a < k-i (corner touches with a
    point disqualify): the tops of columns j-1 and j, found in one pass over
    the points, lie below k-i.  The result is asserted weakly decreasing.
    """
    ms = inversion_multiset(perm)
    if not ms.is_set():
        raise NotRepetitionFree(f"{perm!r} has repeated inversion types")
    k = perm.k
    m = perm.n - k
    top = [-1] * (m + 1)  # the highest a in each column b = 0..m, -1 if none
    for a, b in ms.points():
        top[b] = max(top[b], a)
    rows = [sum(max(top[j - 1], top[j]) < k - i for j in range(1, (k - i) * m // k + 1))
            for i in range(1, k + 1)]
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise PosicatError(f"row counts {rows} are not weakly decreasing")
    return tuple(rows)


def a_sequence(perm: BoundedAffinePerm) -> tuple[int, ...]:
    """First differences (lambda_{i-1} - lambda_i) for i = 2..k; entries may
    fail to be weakly decreasing even though each row count is."""
    lam = lambda_partition(perm)
    return tuple(lam[i - 1] - lam[i] for i in range(1, len(lam)))
