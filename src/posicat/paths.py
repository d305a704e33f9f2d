"""The rational path of a single-cycle permutation and its shift crossings.

The big path runs through the points with horizontal coordinate r and
vertical coordinate f^r(0)/n for all integers r; the small path is the
stretch r = 0..n.  Counting how often the big path crosses its own translate
by a lattice vector recovers the inversion multiset, which makes this module
the geometric oracle against the crossing-resolution construction.

The translate by (a, b) sits above the big path at abscissa r exactly when
a*n exceeds E_b(r) = f^r(0) - f^(r-b)(0).  `fset_from_paths` therefore builds
the orbit once and makes a single pass over (b, r): each a in [1, k-1] with
E_b(r) < a*n < E_b(r+1) is one below-to-above crossing of the (a, b)
translate.  That is O(n^2) work for the whole multiset, where asking
`multiplicity_from_paths` for each shift in turn costs O(k n^2).  Only the
orbit f^r(0) is read, never a crossing resolution, so the result stays an
independent check on `inversion_multiset`.

Points in the plane are written (a, b) with a the vertical (k-) coordinate
and b the horizontal (n-) coordinate; this convention is applied once here,
and accessors are named rather than positional to keep the axes straight.
All arithmetic is exact: vertical coordinates are integers scaled by n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .affine import BoundedAffinePerm
from .errors import AlphaOnDeltaLine, NonIntegralNu


@dataclass(frozen=True)
class RatPath:
    """Piecewise-linear path through exact rational points.

    `verticals[r]` is f^r(0)/n for r = 0..n; the horizontal coordinate of the
    r-th point is r itself.  `delta` is the frame vector (k, n).
    """

    verticals: tuple[Fraction, ...]
    delta: tuple[int, int]

    @property
    def k(self) -> int:
        return self.delta[0]

    @property
    def n(self) -> int:
        return self.delta[1]

    def as_json(self) -> list[list[int]]:
        """Each point as [r, numerator, denominator]."""
        return [[r, v.numerator, v.denominator] for r, v in enumerate(self.verticals)]

    def svg_polyline(self, scale: int = 40) -> str:
        """Tiny standalone SVG of the small path, for documentation figures."""
        pts = " ".join(
            f"{float(r) * scale},{float(self.k - v) * scale}"
            for r, v in enumerate(self.verticals)
        )
        width = self.n * scale
        height = self.k * scale
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">'
            f'<polyline points="{pts}" fill="none" stroke="black"/></svg>'
        )


def _orbit(perm: BoundedAffinePerm) -> list[int]:
    """[f^r(0) for r = 0..n]; ends at k*n for a single n-cycle."""
    w = perm.window
    n = perm.n
    x = 0
    o = [x]
    for _ in range(n):
        r = x % n
        x = w[r] + x - r
        o.append(x)
    return o


def _orbit_at(orbit: Sequence[int], k: int, n: int, r: int) -> int:
    """f^r(0) for any integer r, via f^{r+n}(0) = f^r(0) + kn."""
    q, s = divmod(r, n)
    return orbit[s] + k * n * q


def small_path(perm: BoundedAffinePerm) -> RatPath:
    """The small path of f; requires a single-cycle strictly bounded f."""
    perm.require_theta()
    n = perm.n
    orbit = _orbit(perm)
    return RatPath(tuple(Fraction(v, n) for v in orbit), (perm.k, n))


def _crossing_signs(perm: BoundedAffinePerm, alpha: tuple[int, int]) -> list[int]:
    """D(r) = f^r(0) - (a*n + f^{r-b}(0)) for r = 0..n, scaled by n.

    D(r) is the signed vertical gap at abscissa r between the big path and
    its translate by alpha = (a, b); it never vanishes when alpha is off the
    delta line, so crossings are exactly the sign changes.
    """
    a, b = alpha
    n = perm.n
    k = perm.k
    if b % n == 0 and a == k * (b // n):
        raise AlphaOnDeltaLine(f"alpha={alpha} is an integer multiple of {(k, n)}")
    orbit = _orbit(perm)
    out = []
    for r in range(n + 1):
        d = _orbit_at(orbit, k, n, r) - (a * n + _orbit_at(orbit, k, n, r - b))
        if d == 0:
            raise AlphaOnDeltaLine(f"alpha={alpha} meets an integer point of the path")
        out.append(d)
    return out


def intersection_count(perm: BoundedAffinePerm, alpha: tuple[int, int]) -> int:
    """Crossings of the big path with its alpha-translate, counted per period.

    The count is always even: the two paths exchange sides an equal number of
    times in each direction over one period.  Public with
    `multiplicity_from_paths` as the per-shift reference that the tests
    check `fset_from_paths` against.
    """
    perm.require_theta()
    signs = _crossing_signs(perm, alpha)
    return sum(
        1 for r in range(perm.n) if (signs[r] > 0) != (signs[r + 1] > 0)
    )


def multiplicity_from_paths(perm: BoundedAffinePerm, alpha: tuple[int, int]) -> int:
    """Below-to-above crossings only: the multiplicity of alpha in the
    sheared inversion multiset, independent of crossing resolution; public
    as the per-shift reference for `fset_from_paths`."""
    perm.require_theta()
    signs = _crossing_signs(perm, alpha)
    return sum(1 for r in range(perm.n) if signs[r] < 0 < signs[r + 1])


def fset_from_paths(perm: BoundedAffinePerm) -> dict[tuple[int, int], int]:
    """Sheared-frame inversion multiset {(a, b): multiplicity} via crossings.

    One pass over b in [1, n-1] and r in [0, n] of the gap
    E_b(r) = f^r(0) - f^(r-b)(0) between the big path and its horizontal
    translate by b, all scaled by n.  Lifting that translate by a puts it
    above the path where E_b(r) < a*n, so an a in [1, k-1] with
    E_b(r) < a*n < E_b(r+1) is one below-to-above crossing of the (a, b)
    translate, and equality is an integer point on the path, which raises
    AlphaOnDeltaLine as `multiplicity_from_paths` does.  The orbit f^r(0) is
    the only input, so the multiset stays independent of crossing
    resolution.  Entries come in the order of (a, b), with a outermost.
    """
    perm.require_theta()
    n = perm.n
    k = perm.k
    orbit = _orbit(perm)
    kn = k * n
    # f^s(0) for s = -n..n sits at index s + n
    ext = [v - kn for v in orbit[:n]] + orbit
    counts: dict[tuple[int, int], int] = {}
    for b in range(1, n):
        prev = None  # E_b(r - 1)
        for r in range(n + 1):
            e = ext[n + r] - ext[n + r - b]
            if 0 < e < kn and e % n == 0:
                raise AlphaOnDeltaLine(f"alpha={(e // n, b)} meets an integer point of the path")
            # path steps lie in [1, n-1], so E_b moves by less than n per
            # step and at most one a*n lies strictly between prev and e
            if prev is not None and e > prev:
                a = (e - 1) // n
                if a * n > prev and 0 < a < k:
                    counts[(a, b)] = counts.get((a, b), 0) + 1
            prev = e
    return {p: counts[p] for p in sorted(counts)}


def nu(perm: BoundedAffinePerm) -> int:
    """Pairing of the big path with the normal vector of the delta line.

    nu = sum_{r=0}^{n-1} (f^r(0) - k r)/n, minus 1/2 when k and n are both
    even.  The value is asserted integral; the sum is window-independent so
    the base window r = 0..n-1 is fixed here.
    """
    perm.require_theta()
    n = perm.n
    k = perm.k
    orbit = _orbit(perm)
    total = Fraction(sum(orbit[r] - k * r for r in range(n)), n)
    if k % 2 == 0 and n % 2 == 0:
        total -= Fraction(1, 2)
    if total.denominator != 1:
        raise NonIntegralNu(f"nu({list(perm.window)}) = {total}")
    return int(total)


def nu_bar(perm: BoundedAffinePerm) -> int:
    """nu reduced modulo gcd(k, n), in [0, gcd)."""
    return nu(perm) % math.gcd(perm.k, perm.n)
