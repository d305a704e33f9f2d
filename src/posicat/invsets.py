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
from dataclasses import dataclass, field
from operator import floordiv, index
from typing import Iterable

from .affine import BoundedAffinePerm, _inversion_pairs, _swap_split
from .errors import MalformedText, NotRepetitionFree, PosicatError

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


@dataclass
class LatticeMultiset:
    """Multiset of lattice points in a frame with its central-symmetry vector.

    `delta` is (k, n-k) in the RECT frame and (k, n) in the SHEARED frame;
    entries map points to positive multiplicities.
    """

    frame: str
    delta: Point
    entries: dict[Point, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.frame not in (RECT, SHEARED):
            raise PosicatError(f"unknown frame {self.frame!r}")
        # the rule of `_points`, in the one pass that also reads the
        # multiplicities: every window of the main sweep builds two multisets
        try:
            entries = {(index(a), index(b)): index(m) for (a, b), m in self.entries.items()}
        except (TypeError, ValueError):
            raise MalformedText(
                "a point or multiplicity of a lattice multiset is not an integer"
            ) from None
        if 0 in entries.values():
            entries = {p: m for p, m in entries.items() if m}
        self.entries = entries
        if min(entries.values(), default=0) < 0:
            raise PosicatError("negative multiplicity")

    # -- views ----------------------------------------------------------------

    def multiplicity(self, p: Point) -> int:
        return self.entries.get(tuple(p), 0)

    def total(self) -> int:
        return sum(self.entries.values())

    def points(self) -> list[Point]:
        return sorted(self.entries)

    def is_set(self) -> bool:
        return all(m == 1 for m in self.entries.values())

    # -- frame conversion --------------------------------------------------------

    def to_sheared(self) -> "LatticeMultiset":
        """The same multiset in the SHEARED frame; a sheared one is its own."""
        if self.frame == SHEARED:
            return self
        k, m = self.delta
        entries = {rect_to_sheared(p): c for p, c in self.entries.items()}
        return LatticeMultiset(SHEARED, (k, k + m), entries)

    # -- text and JSON -------------------------------------------------------------

    def text(self) -> str:
        """`1,1;2,3` with entries repeated by multiplicity, sorted."""
        items: list[Point] = []
        for p in self.points():
            items.extend([p] * self.entries[p])
        return ";".join(f"{a},{b}" for a, b in items)

    def as_json(self) -> str:
        k, second = self.delta
        points: list[list[int]] = []
        for p in self.points():
            points.extend([list(p)] * self.entries[p])
        m = second if self.frame == RECT else second - k
        return json.dumps({"frame": self.frame, "k": k, "m": m, "points": points})


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

    The first factor is the cycle through i of the window swapped at the
    inversion (i, j).  Its type (k_1, n_1 - k_1) is read off the raw window:
    n_1 is the cycle's length and k_1 the sum of g(s) // n over its residues
    s, which is what relabelling the cycle onto [0, n_1) would give as k.
    """
    perm.require_theta()
    w = perm.window
    n = perm.n
    entries: dict[Point, int] = {}
    for i, j in _inversion_pairs(w):
        g, cyc = _swap_split(w, i, j)
        k1 = sum(g[s] // n for s in cyc)
        p = (k1, len(cyc) - k1)
        entries[p] = entries.get(p, 0) + 1
    return LatticeMultiset(RECT, (perm.k, perm.n - perm.k), entries)


def is_centrally_symmetric(ms: LatticeMultiset) -> bool:
    """multiplicity(p) == multiplicity(delta - p) for every point."""
    dk, dn = ms.delta
    return all(
        ms.multiplicity((dk - p[0], dn - p[1])) == m for p, m in ms.entries.items()
    )


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
    """Lattice convexity of a point set, in either frame.

    The set is augmented with the frame corners (0, 0) and delta = (k, m),
    which is (k, n-k) in the RECT frame and (k, n) in the SHEARED frame; the
    shear is unimodular, so both give the same answer.  The augmented set is
    convex when it contains every lattice point of its hull.  With x = b,
    the hull's column at x runs from a bottom to a top given by the lower
    and upper chains and holds floor(top) - ceil(bottom) + 1 lattice points;
    the set is convex exactly when each column holds that many of its
    points.  O(P log P + width).
    """
    aug = set(points) | {(0, 0), (k, m)}
    column: dict[int, int] = {}
    for _, b in aug:
        column[b] = column.get(b, 0) + 1
    tops = _chain_heights(_upper_chain((b, a) for a, b in aug), floordiv)
    neg_bottoms = _chain_heights(_upper_chain((b, -a) for a, b in aug), floordiv)
    x0 = min(column)
    return all(
        column.get(x0 + i, 0) == top + neg_bottom + 1
        for i, (top, neg_bottom) in enumerate(zip(tops, neg_bottoms))
    )


def is_convex(ms: LatticeMultiset) -> bool:
    """Lattice convexity of a multiset with multiplicities all equal to 1.

    Either frame is accepted: `is_convex_points` runs in the multiset's own
    frame with corners (0, 0) and its delta.
    """
    if not ms.is_set():
        return False
    return is_convex_points(ms.entries, *ms.delta)


# -- extremal sets ----------------------------------------------------------------

def f_min(k: int, n: int) -> set[Point]:
    """Sheared-frame points with the same slope as (k, n); empty iff gcd = 1."""
    return {(a, b) for a in range(1, k) for b in range(1, n) if a * n == k * b}


# -- partition export ----------------------------------------------------------------

def lambda_partition(perm: BoundedAffinePerm) -> tuple[int, ...]:
    """Row lengths of the boxes above the diagonal and strictly above the
    forbidden points, in the k x (n-k) rectangle.

    Box convention: row i (from the top) and column j span vertical
    [k-i, k-i+1] and horizontal [j-1, j].  The box counts when its southeast
    corner (j, k-i) satisfies (k-i)(n-k) >= kj (corner touches with the bare
    diagonal are allowed) and every multiset point (a, b) with b in
    {j-1, j} lies strictly below the box, a < k-i (corner touches with a
    point disqualify).  The result is asserted weakly decreasing.
    """
    ms = inversion_multiset(perm)
    if not ms.is_set():
        raise NotRepetitionFree(f"{perm!r} has repeated inversion types")
    k = perm.k
    m = perm.n - perm.k
    pts = ms.points()
    rows = []
    for i in range(1, k + 1):
        cnt = 0
        for j in range(1, m + 1):
            if (k - i) * m < k * j:
                continue
            if any(b in (j - 1, j) and a >= k - i for a, b in pts):
                continue
            cnt += 1
        rows.append(cnt)
    if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
        raise PosicatError(f"row counts {rows} are not weakly decreasing")
    return tuple(rows)


def a_sequence(perm: BoundedAffinePerm) -> tuple[int, ...]:
    """First differences (lambda_{i-1} - lambda_i) for i = 2..k; entries may
    fail to be weakly decreasing even though each row count is."""
    lam = lambda_partition(perm)
    return tuple(lam[i - 1] - lam[i] for i in range(1, len(lam)))
