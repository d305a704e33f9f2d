"""Slanted Dyck paths avoiding a forbidden set, and the inverse construction.

Paths run from (0, 0) to (k, n) in the sheared frame with right steps (0, 1)
and up-right steps (1, 1), staying weakly above the line of slope k/n; the
shear (a, b) -> (a, a + b) identifies them with up/right paths above the
diagonal of the k x (n-k) rectangle.  Lattice points ON the slanted diagonal
are admitted by the dynamic program: for every genuine inversion set the
interior diagonal points are forbidden anyway, and for arbitrary user sets
the weak rule is the documented behaviour.  Forbidden points below the
diagonal are accepted and never reached.

The inverse direction goes through concave profiles: height sequences
H_0..H_n with increments in (0, 1), weakly decreasing, and pairwise distinct
fractional parts.  Ranking the fractional parts yields a repetition-free
permutation whose inversion set is exactly the profile's forbidden region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Sequence

from .affine import BoundedAffinePerm, _require_theta_frame
from .errors import (
    InvalidFrame,
    InvalidProfile,
    MalformedText,
    NotCentrallySymmetric,
    NotConvex,
    PathCountMismatch,
    PosicatError,
    SynthesisFailed,
    TooManyPaths,
)
from .invsets import (
    LatticeMultiset,
    Point,
    _chain_heights,
    _points,
    _upper_chain,
    inversion_multiset,
    is_convex_points,
    rect_to_sheared,
)

# ---------------------------------------------------------------------------
# path counting
# ---------------------------------------------------------------------------

def _admissible(a: int, b: int, k: int, n: int, forbidden: frozenset[Point]) -> bool:
    if b == 0 or b == n:
        return (a == 0) if b == 0 else (a == k)
    return a * n >= k * b and (a, b) not in forbidden


def count_avoiding_paths(k: int, n: int, forbidden: Iterable[Point]) -> int:
    """Number of slanted Dyck paths from (0,0) to (k,n) avoiding `forbidden`
    (sheared-frame points).  Column-major dynamic program, O(k) state.  The
    frame needs n >= 1 and 0 <= k <= n, else InvalidFrame."""
    if n < 1 or not 0 <= k <= n:
        raise InvalidFrame(f"need n >= 1 and 0 <= k <= n, got k={k}, n={n}")
    fset = frozenset(_points(forbidden, "the forbidden set"))
    ways = {0: 1}
    for b in range(1, n + 1):
        nxt: dict[int, int] = {}
        for a in range(0, k + 1):
            total = ways.get(a, 0) + ways.get(a - 1, 0)
            if total and _admissible(a, b, k, n, fset):
                nxt[a] = total
        ways = nxt
    return ways.get(k, 0)


def enumerate_avoiding_paths(
    k: int, n: int, forbidden: Iterable[Point], cap: int = 10000
) -> list[list[Point]]:
    """Explicit point sequences of all avoiding paths; raises TooManyPaths
    when the count exceeds `cap`, InvalidFrame as `count_avoiding_paths`
    does, and PathCountMismatch if the listing disagrees with the count."""
    fset = frozenset(_points(forbidden, "the forbidden set"))
    total = count_avoiding_paths(k, n, fset)
    if total > cap:
        raise TooManyPaths(f"{total} paths exceed the cap of {cap}")
    out: list[list[Point]] = []
    path: list[Point] = [(0, 0)]

    def walk(a: int, b: int) -> None:
        if b == n:
            if a == k:
                out.append(list(path))
            return
        for step in (0, 1):
            na, nb = a + step, b + 1
            if na > k or not _admissible(na, nb, k, n, fset):
                continue
            path.append((na, nb))
            walk(na, nb)
            path.pop()

    walk(0, 0)
    if len(out) != total:
        raise PathCountMismatch(f"listed {len(out)} paths, counted {total} in ({k}, {n})")
    return out


# ---------------------------------------------------------------------------
# concave profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcaveProfile:
    """Exact-rational heights H_0 = 0, ..., H_n = k satisfying the three
    profile conditions.

    Construction is the one place a profile is validated: the heights become
    Fractions, `validate_profile` runs once with k = floor(H_n), and any
    violation raises InvalidProfile (a height that is not an integer or a
    rational raises MalformedText).  So a ConcaveProfile never holds an
    invalid profile, and no caller checks one again.
    """

    heights: tuple[Fraction, ...]

    def __post_init__(self):
        heights = _fractions(self.heights)
        object.__setattr__(self, "heights", heights)
        k = math.floor(heights[-1]) if heights else 0
        _, problems = validate_profile(heights, k, len(heights) - 1)
        if problems:
            raise InvalidProfile("; ".join(problems))

    @property
    def n(self) -> int:
        return len(self.heights) - 1

    @property
    def k(self) -> int:
        return int(self.heights[-1])

    def fractional_parts(self) -> list[Fraction]:
        return [h - math.floor(h) for h in self.heights[:-1]]


def _fractions(heights: Iterable[Rational]) -> tuple[Fraction, ...]:
    """The heights as Fractions.  Only `numbers.Rational` heights are read, so
    a float, string or None height raises MalformedText instead of being
    converted or rounded."""
    heights = tuple(heights)
    if not all(isinstance(h, Rational) for h in heights):
        raise MalformedText(f"a profile height is not an integer or a rational: {heights!r}")
    return tuple(map(Fraction, heights))


def validate_profile(
    heights: Sequence[Fraction | int], k: int, n: int
) -> tuple[bool, list[str]]:
    """Check the three profile conditions exactly; returns (ok, violations).
    A profile has at least two heights, H_0 and H_n with n >= 1, and H_n
    must be the integer k.  A height that is not a `numbers.Rational`
    raises MalformedText."""
    H = _fractions(heights)
    problems: list[str] = []
    if len(H) != n + 1:
        return False, [f"expected {n + 1} heights, got {len(H)}"]
    if len(H) < 2:
        return False, [f"a profile needs at least two heights, got {len(H)}"]
    if H[0] != 0:
        problems.append(f"H_0 = {H[0]} != 0")
    if H[n].denominator != 1:
        problems.append(f"H_n = {H[n]} is not an integer")
    elif H[n] != k:
        problems.append(f"H_n = {H[n]} != {k}")
    increments = [H[i + 1] - H[i] for i in range(n)]
    for i, d in enumerate(increments):
        if not 0 < d < 1:
            problems.append(f"increment H_{i + 1} - H_{i} = {d} outside (0, 1)")
    for i in range(n - 1):
        if increments[i] < increments[i + 1]:
            problems.append(
                f"increment rises at {i + 1}: {increments[i]} < {increments[i + 1]}"
            )
    fracs = [h - math.floor(h) for h in H[:n]]
    if len(set(fracs)) != n:
        problems.append("fractional parts collide")
    return not problems, problems


def profile_forbidden_set(profile: ConcaveProfile) -> set[Point]:
    """Sheared points (a, b) with k - H_{n-b} <= a <= H_b."""
    H = profile.heights
    k, n = profile.k, profile.n
    out = set()
    for b in range(1, n):
        for a in range(1, k):
            if k - H[n - b] <= a <= H[b]:
                out.add((a, b))
    return out


def profile_to_perm(profile: ConcaveProfile | Sequence[Fraction]) -> BoundedAffinePerm:
    """The permutation whose orbit of 0 is order-isomorphic to the profile's
    fractional parts: rank h_r to obtain the r-th orbit value modulo n.

    A plain sequence of heights is made a ConcaveProfile first, whose
    construction validates it (InvalidProfile, or MalformedText for a height
    that is not rational); a ConcaveProfile is valid by construction and is
    not checked again."""
    if not isinstance(profile, ConcaveProfile):
        profile = ConcaveProfile(profile)
    n = profile.n
    fracs = profile.fractional_parts()
    order = sorted(range(n), key=lambda r: fracs[r])
    rank = [0] * n
    for position, r in enumerate(order):
        rank[r] = position
    # the orbit of 0 visits residue rank[r] at time r, which is exactly the
    # cycle notation (0, j_1, ..., j_{n-1})
    return BoundedAffinePerm.from_cycle(rank)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def _require_cs_convex(points: set[Point], k: int, n: int) -> None:
    """Validate a sheared forbidden set: centrally symmetric and convex."""
    for a, b in points:
        if not (1 <= a <= k - 1 and 1 <= b <= n - 1):
            raise PosicatError(f"point {(a, b)} outside [1,{k - 1}]x[1,{n - 1}]")
        if (k - a, n - b) not in points:
            raise NotCentrallySymmetric(f"missing mirror of {(a, b)}")
    if not is_convex_points(points, k, n):
        raise NotConvex(f"{sorted(points)} misses lattice points of its hull")


def _integer_profile_ok(
    nums: list[int], q: int, k: int, n: int, columns: list[list[int]]
) -> bool:
    """Whether the heights nums[b] / q form a profile whose forbidden region
    has, in each column 1 <= b <= n-1, exactly the sorted entries
    columns[b]; the integer form of `validate_profile` plus
    `profile_forbidden_set`."""
    if nums[0] != 0 or nums[n] != k * q:
        return False
    prev = q
    for i in range(n):
        step = nums[i + 1] - nums[i]
        if not 0 < step < q or step > prev:
            return False
        prev = step
    if len({num % q for num in nums[:n]}) != n:
        return False
    for b in range(1, n):
        lo = max(1, k - nums[n - b] // q)
        hi = min(k - 1, nums[b] // q)
        if list(range(lo, hi + 1)) != columns[b]:
            return False
    return True


def synthesize_profile(
    forbidden_sheared: Iterable[Point], k: int, n: int
) -> ConcaveProfile:
    """A concave profile whose forbidden region is exactly the given set.

    The heights are the hull heights of the set plus a strictly concave
    positive perturbation eps_b = c * b(n-b) * (s*8n^2 + b) / (8n^2 * s) with
    c = 2^-m; the b-dependent factor breaks the symmetric fractional-part
    ties a centrally symmetric hull would otherwise force.  The first
    candidate of the deterministic (m, s) schedule, m = 2..63 and s = 1, 2, 3,
    that passes wins; existence is guaranteed for small enough
    perturbations, so exhausting the schedule signals a bug.  A frame outside
    1 <= k <= n-1 raises InvalidFrame.

    The search is exact in integers.  With L the lcm of the hull's edge
    widths, each hull height is hull_b / L, and a candidate's heights share
    the common denominator Q = L * 2^m * 8n^2 * s: H_b = N_b / Q with
    N_b = hull_b * 2^m * 8n^2 * s + L * b(n-b) * (8n^2 * s + b).  A candidate
    passes when N_0 = 0 and N_n = kQ, every increment lies strictly between
    0 and Q and none rises, the N_b mod Q are distinct for b < n, and for
    1 <= b <= n-1 the forbidden column
    max(1, k - floor(N_{n-b} / Q)) <= a <= min(k-1, floor(N_b / Q)) is the
    requested one.  Only the winner is turned into Fractions, and it is
    checked again exactly: constructing its ConcaveProfile validates it, and
    `profile_forbidden_set` must give back the requested set.  If that exact
    check disagrees, SynthesisFailed names (m, s).  The returned profile is
    not validated again downstream.
    """
    _require_theta_frame(k, n)
    points = set(_points(forbidden_sheared, "the forbidden set"))
    _require_cs_convex(points, k, n)
    chain = _upper_chain([(b, a) for a, b in points] + [(0, 0), (n, k)])
    lcm = math.lcm(*(x2 - x1 for (x1, _), (x2, _) in zip(chain, chain[1:])))
    hull = _chain_heights(chain, lambda y, w: y * (lcm // w))
    columns: list[list[int]] = [[] for _ in range(n)]
    for a, b in sorted(points):
        columns[b].append(a)
    denom = 8 * n * n
    for m in range(2, 64):
        for s in (1, 2, 3):
            scale = 2 ** m * denom * s
            q = lcm * scale
            nums = [
                hull[b] * scale + lcm * b * (n - b) * (denom * s + b)
                for b in range(n + 1)
            ]
            if not _integer_profile_ok(nums, q, k, n, columns):
                continue
            try:
                profile = ConcaveProfile(tuple(Fraction(num, q) for num in nums))
            except InvalidProfile as exc:
                problem = str(exc)
            else:
                if profile_forbidden_set(profile) == points:
                    return profile
                problem = "the forbidden region differs from the requested set"
            raise SynthesisFailed(
                f"candidate (m={m}, s={s}) for {sorted(points)} in ({k}, {n}) "
                f"passes the integer test but fails the exact check: {problem}"
            )
    raise SynthesisFailed(f"schedule exhausted for {sorted(points)} in ({k}, {n})")


def _synthesis_failures(
    perm: BoundedAffinePerm, ms: LatticeMultiset, profile: ConcaveProfile,
    rect: set[Point],
) -> list[tuple[str, object, object]]:
    """The postconditions of synthesis that `perm` misses, as (check,
    expected, actual): `repetition_free`, `fset_roundtrip` (its inversion
    multiset `ms`, computed by the caller, equals the requested rectangular
    set) and `orbit_floor` (its orbit floors match the profile floors)."""
    failures: list[tuple[str, object, object]] = []
    if not ms.is_set():
        failures.append(("repetition_free", True, False))
    if set(ms.points()) != rect:
        failures.append(("fset_roundtrip", sorted(rect), ms.points()))
    n = profile.n
    orbit_value = 0
    for r in range(n + 1):
        if orbit_value // n != math.floor(profile.heights[r]):
            failures.append(("orbit_floor", r, orbit_value // n))
            break
        if r < n:
            orbit_value = perm(orbit_value)
    return failures


def synthesize_perm(
    forbidden_rect: Iterable[Point], k: int, n: int
) -> BoundedAffinePerm:
    """A repetition-free permutation with the given rectangular-frame
    inversion set; the set must be centrally symmetric and convex.

    The postconditions of `_synthesis_failures` are checked, and a miss
    raises SynthesisFailed: the result is repetition-free, its inversion set
    equals the input, and its orbit floors match the profile floors.
    """
    rect = set(_points(forbidden_rect, "the forbidden set"))
    sheared = {rect_to_sheared(p) for p in rect}
    profile = synthesize_profile(sheared, k, n)
    perm = profile_to_perm(profile)
    failures = _synthesis_failures(perm, inversion_multiset(perm), profile, rect)
    if failures:
        raise SynthesisFailed(
            f"{perm!r} misses postconditions (check, expected, actual): {failures}"
        )
    return perm
