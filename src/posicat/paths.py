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
translate.  That is O(n^2) work for the whole multiset.  Only the orbit
f^r(0) is read, never a crossing resolution, so the result stays an
independent check on `inversion_multiset`.  The tests hold a per-shift
reference, which counts the sign changes of the gap for one shift at a time,
and check `fset_from_paths` against it.

Points in the plane are written (a, b) with a the vertical (k-) coordinate
and b the horizontal (n-) coordinate; this convention is applied once here.
All arithmetic is exact: vertical coordinates are integers scaled by n, so
the small path's vertices are the orbit `_orbit(f)` = [f^r(0) for r = 0..n].
"""

from __future__ import annotations

import math

from .affine import BoundedAffinePerm
from .errors import AlphaOnDeltaLine, NonIntegralNu


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


def fset_from_paths(perm: BoundedAffinePerm) -> dict[tuple[int, int], int]:
    """Sheared-frame inversion multiset {(a, b): multiplicity} via crossings.

    One pass over b in [1, n-1] and r in [0, n] of the gap
    E_b(r) = f^r(0) - f^(r-b)(0) between the big path and its horizontal
    translate by b, all scaled by n.  Lifting that translate by a puts it
    above the path where E_b(r) < a*n, so an a in [1, k-1] with
    E_b(r) < a*n < E_b(r+1) is one below-to-above crossing of the (a, b)
    translate, and equality is an integer point on the path, which raises
    AlphaOnDeltaLine.  The orbit f^r(0) is the only input, so the multiset
    stays independent of crossing resolution.  Entries come in the order of
    (a, b), with a outermost.
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
    even, taken as 2n nu in integers and asserted integral; the sum is
    window-independent so the base window r = 0..n-1 is fixed here.
    """
    perm.require_theta()
    n = perm.n
    k = perm.k
    orbit = _orbit(perm)
    twice_n_nu = 2 * sum(orbit[r] - k * r for r in range(n)) - n * (k % 2 == n % 2 == 0)
    if twice_n_nu % (2 * n):
        raise NonIntegralNu(f"nu({list(perm.window)}) = {twice_n_nu}/{2 * n}")
    return twice_n_nu // (2 * n)


def nu_bar(perm: BoundedAffinePerm) -> int:
    """nu reduced modulo gcd(k, n), in [0, gcd)."""
    return nu(perm) % math.gcd(perm.k, perm.n)
