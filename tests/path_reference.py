"""The per-shift path reference that the tests check `fset_from_paths`
against.

For one shift alpha = (a, b) at a time, it lists the signed vertical gap
D(r) = f^r(0) - (a*n + f^(r-b)(0)) between the big path and its translate by
alpha at every abscissa r = 0..n, and counts the sign changes.  That costs
O(n) per shift and O(k n^2) for the whole multiset, where `fset_from_paths`
makes one pass over (b, r); the two share only the orbit `_orbit(f)`.
"""

from typing import Sequence

from posicat.affine import BoundedAffinePerm
from posicat.errors import AlphaOnDeltaLine
from posicat.paths import _orbit


def _orbit_at(orbit: Sequence[int], k: int, n: int, r: int) -> int:
    """f^r(0) for any integer r, via f^{r+n}(0) = f^r(0) + kn."""
    q, s = divmod(r, n)
    return orbit[s] + k * n * q


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
    times in each direction over one period.
    """
    perm.require_theta()
    signs = _crossing_signs(perm, alpha)
    return sum(
        1 for r in range(perm.n) if (signs[r] > 0) != (signs[r + 1] > 0)
    )


def multiplicity_from_paths(perm: BoundedAffinePerm, alpha: tuple[int, int]) -> int:
    """Below-to-above crossings only: the multiplicity of alpha in the
    sheared inversion multiset, independent of crossing resolution."""
    perm.require_theta()
    signs = _crossing_signs(perm, alpha)
    return sum(1 for r in range(perm.n) if signs[r] < 0 < signs[r + 1])
