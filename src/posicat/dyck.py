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
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Sequence

from .affine import BoundedAffinePerm, _integers, _require_theta_frame
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
from .paths import _orbit

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
    frame needs integers n >= 1 and 0 <= k <= n, else InvalidFrame."""
    k, n = _integers((k, n), "the frame (k, n)", InvalidFrame)
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
    # depth-first on an explicit stack, so no period meets the recursion
    # limit.  A point's column b is its depth in the walk, and the up-right
    # step is pushed before the right step, so paths that turn right first
    # are listed first
    path: list[Point] = []
    stack: list[Point] = [(0, 0)]
    while stack:
        a, b = point = stack.pop()
        del path[b:]
        path.append(point)
        if b == n:
            if a == k:
                out.append(list(path))
            continue
        for na in (a + 1, a):
            if na <= k and _admissible(na, b + 1, k, n, fset):
                stack.append((na, b + 1))
    if len(out) != total:
        raise PathCountMismatch(f"listed {len(out)} paths, counted {total} in ({k}, {n})")
    return out


# ---------------------------------------------------------------------------
# concave profiles
# ---------------------------------------------------------------------------

class ConcaveProfile:
    """Exact-rational heights H_0 = 0, ..., H_n = k satisfying the three
    profile conditions.

    Construction is the one place a profile is validated: the heights become
    Fractions once (a height that is not an integer or a rational raises
    MalformedText), and `validate_profile` runs once on them with
    k = floor(H_n), where it finds them Fractions already and converts
    nothing.  Any violation raises InvalidProfile.  So a ConcaveProfile
    never holds an invalid profile, and no caller checks one again.  It is
    immutable, equal field by field and hashed by its heights.
    """

    def __init__(self, heights: Iterable[Rational]):
        heights = _fractions(heights)
        object.__setattr__(self, "heights", heights)
        k = math.floor(heights[-1]) if heights else 0
        _, problems = validate_profile(heights, k, len(heights) - 1)
        if problems:
            raise InvalidProfile("; ".join(problems))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.heights == other.heights

    def __hash__(self) -> int:
        return hash((self.heights,))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(heights={self.heights!r})"

    @property
    def n(self) -> int:
        return len(self.heights) - 1

    @property
    def k(self) -> int:
        return int(self.heights[-1])


def _fractions(heights: Iterable[Rational]) -> tuple[Fraction, ...]:
    """The heights as Fractions; a Fraction is kept as it is.  Only
    `numbers.Rational` heights are read, so a float, string or None height
    raises MalformedText instead of being converted or rounded."""
    heights = tuple(heights)
    if not all(type(h) in (Fraction, int) or isinstance(h, Rational) for h in heights):
        raise MalformedText(f"a profile height is not an integer or a rational: {heights!r}")
    return tuple(h if type(h) is Fraction else Fraction(h) for h in heights)


def _numerators(heights: Sequence[Fraction]) -> tuple[list[int], int]:
    """The heights on their least common denominator D, as (N, D) with
    H_b = N_b / D."""
    d = math.lcm(*(h.denominator for h in heights))
    return [h.numerator * (d // h.denominator) for h in heights], d


def validate_profile(
    heights: Sequence[Fraction | int], k: int, n: int
) -> tuple[bool, list[str]]:
    """Check the three profile conditions exactly; returns (ok, violations).
    A profile has at least two heights, H_0 and H_n with n >= 1, and H_n
    must be the integer k.  A height that is not a `numbers.Rational`
    raises MalformedText.

    The check runs in integers on one common denominator D, with
    N_b = H_b * D: N_0 = 0, N_n = kD, every increment N_{b+1} - N_b lies
    strictly between 0 and D and none rises, and the N_b mod D are distinct
    for b < n.  A violation's message, with its values as Fractions, is
    built only when that violation occurs."""
    H = _fractions(heights)
    if len(H) != n + 1:
        return False, [f"expected {n + 1} heights, got {len(H)}"]
    if len(H) < 2:
        return False, [f"a profile needs at least two heights, got {len(H)}"]
    N, d = _numerators(H)
    problems: list[str] = []
    if N[0]:
        problems.append(f"H_0 = {H[0]} != 0")
    if N[n] % d:
        problems.append(f"H_n = {H[n]} is not an integer")
    elif N[n] != k * d:
        problems.append(f"H_n = {H[n]} != {k}")
    steps = [N[i + 1] - N[i] for i in range(n)]
    for i, step in enumerate(steps):
        if not 0 < step < d:
            problems.append(
                f"increment H_{i + 1} - H_{i} = {Fraction(step, d)} outside (0, 1)"
            )
    for i in range(n - 1):
        if steps[i] < steps[i + 1]:
            problems.append(
                f"increment rises at {i + 1}: "
                f"{Fraction(steps[i], d)} < {Fraction(steps[i + 1], d)}"
            )
    if len({num % d for num in N[:n]}) != n:
        problems.append("fractional parts collide")
    return not problems, problems


def profile_forbidden_set(profile: ConcaveProfile) -> set[Point]:
    """Sheared points (a, b) with k - H_{n-b} <= a <= H_b, for
    1 <= a <= k-1 and 1 <= b <= n-1.  Since a is an integer, column b is
    the range k - floor(H_{n-b}) <= a <= floor(H_b), so the set takes n
    floors and no comparison of Fractions.  The range needs no clamp to
    [1, k-1]: the heights rise strictly to H_n = k, so floor(H_b) <= k-1
    for every b < n."""
    k, n = profile.k, profile.n
    floors = [h.numerator // h.denominator for h in profile.heights]
    return {
        (a, b) for b in range(1, n) for a in range(k - floors[n - b], floors[b] + 1)
    }


def profile_to_perm(profile: ConcaveProfile) -> BoundedAffinePerm:
    """The permutation whose orbit of 0 is order-isomorphic to the profile's
    fractional parts: rank h_r to obtain the r-th orbit value modulo n.  The
    ranks are those of N_r mod D, the fractional parts on the heights'
    common denominator D.  A ConcaveProfile is valid by construction, so
    its heights are not checked again; build one from plain heights with
    `ConcaveProfile(heights)`."""
    n = profile.n
    nums, d = _numerators(profile.heights)
    residues = [num % d for num in nums[:n]]
    order = sorted(range(n), key=residues.__getitem__)
    rank = [0] * n
    for position, r in enumerate(order):
        rank[r] = position
    # the orbit of 0 visits residue rank[r] at time r, which is exactly the
    # cycle notation (0, j_1, ..., j_{n-1})
    return BoundedAffinePerm.from_cycle(rank)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------

def _require_cs_convex(points: set[Point], k: int, n: int, rect: bool = False) -> None:
    """Validate a forbidden set of the frame (k, n): inside the rectangle,
    centrally symmetric and convex.  The points are sheared, or rectangular
    when `rect`, and every error names them as they were given.  A frame
    outside 1 <= k <= n-1 raises InvalidFrame first."""
    _require_theta_frame(k, n)
    m = n - k if rect else n
    for a, b in points:
        if not (1 <= a <= k - 1 and 1 <= b - (0 if rect else a) <= n - k - 1):
            raise PosicatError(f"point {(a, b)} outside [1,{k - 1}]x[1,{m - 1}]"
                               + ("" if rect else f" with 1 <= b - a <= {n - k - 1}"))
        if (k - a, m - b) not in points:
            raise NotCentrallySymmetric(f"missing mirror of {(a, b)}")
    if not is_convex_points(points, k, m):
        raise NotConvex(f"{sorted(points)} misses lattice points of its hull")


def _candidates(
    points: set[Point], k: int, n: int
) -> Iterator[tuple[int, int, int, list[int]]]:
    """The schedule of `synthesize_profile` in integers: (m, s, Q, N) for
    m = 2..63 and s = 1, 2, 3, in order, with heights H_b = N_b / Q.  With L
    the lcm of the hull's edge widths, each hull height is hull_b / L,
    Q = L * 2^m * 8n^2 * s and
    N_b = hull_b * 2^m * 8n^2 * s + L * b(n-b) * (8n^2 * s + b)."""
    chain = _upper_chain([(b, a) for a, b in points] + [(0, 0), (n, k)])
    lcm = math.lcm(*(x2 - x1 for (x1, _), (x2, _) in zip(chain, chain[1:])))
    hull = _chain_heights(chain, lambda y, w: y * (lcm // w))
    denom = 8 * n * n
    for m in range(2, 64):
        for s in (1, 2, 3):
            scale = 2 ** m * denom * s
            yield m, s, lcm * scale, [
                hull[b] * scale + lcm * b * (n - b) * (denom * s + b)
                for b in range(n + 1)
            ]


def synthesize_profile(
    forbidden_sheared: Iterable[Point], k: int, n: int
) -> ConcaveProfile:
    """A concave profile whose forbidden region is exactly the given set.

    The heights are the hull heights of the set plus a strictly concave
    positive perturbation eps_b = c * b(n-b) * (s*8n^2 + b) / (8n^2 * s) with
    c = 2^-m; the b-dependent factor breaks the symmetric fractional-part
    ties a centrally symmetric hull would otherwise force.  The first
    candidate of the deterministic (m, s) schedule of `_candidates` that
    passes wins; existence is guaranteed for small enough perturbations of
    a set that `_require_cs_convex` accepts, so exhausting the schedule
    signals a bug.  A frame outside 1 <= k <= n-1 raises InvalidFrame.

    The search filters the candidates in integers, testing only what one
    can fail: the first increment is below Q, the last is above 0, the N_b
    mod Q are distinct for b < n, and each forbidden column
    k - floor(N_{n-b} / Q) <= a <= floor(N_b / Q) is the requested one.
    The full rule lives in `validate_profile`: only the winner becomes
    Fractions, constructing its ConcaveProfile validates it, and
    `profile_forbidden_set` must give back the requested set.  If either
    disagrees, SynthesisFailed names (m, s).
    """
    points = set(_points(forbidden_sheared, "the forbidden set"))
    _require_cs_convex(points, k, n)
    columns: list[list[int]] = [[] for _ in range(n)]
    for a, b in sorted(points):
        columns[b].append(a)
    for m, s, q, nums in _candidates(points, k, n):
        # N_0 = 0 and N_n = kQ by construction, and the increments fall
        # strictly: the hull is concave, and the perturbation's second
        # difference, L(2n - 6b - 6 - 16n^2 s) at b+1, is negative.  So every
        # increment lies in (0, Q) once the first is below Q and the last
        # above 0, and then 0 <= N_b < kQ for b < n: no column needs a clamp
        # to [1, k-1]
        if nums[1] >= q or nums[n] <= nums[n - 1]:
            continue
        if len({num % q for num in nums[:n]}) != n:
            continue
        if any(
            list(range(k - nums[n - b] // q, nums[b] // q + 1)) != columns[b]
            for b in range(1, n)
        ):
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
    for r, (value, height) in enumerate(zip(_orbit(perm), profile.heights)):
        if value // n != math.floor(height):
            failures.append(("orbit_floor", r, value // n))
            break
    return failures


def synthesize_perm(
    forbidden_rect: Iterable[Point], k: int, n: int
) -> BoundedAffinePerm:
    """A repetition-free permutation with the given rectangular-frame
    inversion set; the set must lie in the rectangle and be centrally
    symmetric and convex, and an error names its points in this frame.

    The postconditions of `_synthesis_failures` are checked, and a miss
    raises SynthesisFailed: the result is repetition-free, its inversion set
    equals the input, and its orbit floors match the profile floors.
    """
    rect = set(_points(forbidden_rect, "the forbidden set"))
    _require_cs_convex(rect, k, n, rect=True)  # errors name the points as given
    profile = synthesize_profile({rect_to_sheared(p) for p in rect}, k, n)
    perm = profile_to_perm(profile)
    failures = _synthesis_failures(perm, inversion_multiset(perm), profile, rect)
    if failures:
        raise SynthesisFailed(
            f"{perm!r} misses postconditions (check, expected, actual): {failures}"
        )
    return perm
