"""The box-by-box diagram and the rational nu that the tests check
`lambda_partition` and `nu` against.

`lambda_by_boxes` tests every box of the k x (n-k) rectangle against every
point of the inversion set, where `lambda_partition` reads each column's
highest point once.  `nu_by_fractions` sums (f^r(0) - k r)/n as a `Fraction`
and subtracts 1/2 when k and n are both even, where `nu` works with 2n nu in
integers.  Each shares only its input with the package: the inversion
multiset for the diagram, the orbit `_orbit(f)` for nu.
"""

from fractions import Fraction

from posicat.affine import BoundedAffinePerm
from posicat.invsets import inversion_multiset
from posicat.paths import _orbit


def lambda_by_boxes(perm: BoundedAffinePerm) -> tuple[int, ...]:
    """Row i, from the top, counts the columns j whose box has its southeast
    corner (j, k-i) on or above the diagonal, (k-i)(n-k) >= kj, and has no
    point (a, b) with b in {j-1, j} and a >= k-i.  `perm` must be
    repetition-free."""
    k = perm.k
    m = perm.n - perm.k
    pts = inversion_multiset(perm).points()
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
    return tuple(rows)


def nu_by_fractions(perm: BoundedAffinePerm) -> Fraction:
    """nu as an exact rational; the package asserts it is an integer."""
    n = perm.n
    k = perm.k
    orbit = _orbit(perm)
    total = Fraction(sum(orbit[r] - k * r for r in range(n)), n)
    if k % 2 == 0 and n % 2 == 0:
        total -= Fraction(1, 2)
    return total
