"""Exception hierarchy for posicat.

Every error raised by this package derives from PosicatError, so callers can
catch one base class at API boundaries (the CLI maps them to exit code 2).
"""


class PosicatError(Exception):
    """Base class for all posicat errors."""


# --- window / cycle construction ---

class MalformedText(PosicatError):
    """Text input (a permutation or a point list) does not follow its
    documented format, a window, cycle, point or polynomial coefficient has
    a non-integer entry, or a profile height is not an integer or a
    rational."""


class InvalidFrame(PosicatError):
    """The frame (k, n) lies outside the range an operation accepts."""


class NotBounded(PosicatError):
    """Some i has f(i) < i or f(i) > i + n."""


class NotBijective(PosicatError):
    """Window residues modulo n collide."""


class NotNCycle(PosicatError):
    """Input does not describe a single n-cycle."""


class DegeneratePeriod(PosicatError):
    """Period n = 1 admits no n-cycle lift with strict bounds."""


class NotTheta(PosicatError):
    """Operation requires a single-cycle permutation with strict bounds."""


class NotAnInversion(PosicatError):
    """The given pair (i, j) is not an inversion of the permutation."""


# --- polynomials ---

class InexactDivision(PosicatError):
    """Raised only by `IntPoly.exact_div`: a remainder or a zero divisor."""


# --- engine ---

class IrreducibleElement(PosicatError):
    """No reduction step applies anywhere in the conjugation class, or the
    reduction produced a nonpositive C.

    The constructive reduction is guaranteed to make progress and C counts
    Dyck paths, so this exception always indicates an implementation bug.
    """


# --- inversion sets / paths ---

class AlphaOnDeltaLine(PosicatError):
    """Shift vector is an integer multiple of (k, n)."""


class NonIntegralNu(PosicatError):
    """The rotation statistic came out non-integral; signals a bug."""


class NotRepetitionFree(PosicatError):
    """Operation requires all inversion-multiset multiplicities to be 1."""


class PreconditionViolated(PosicatError):
    """A stated precondition (e.g. double crossing at i) does not hold."""


# --- profiles / synthesis ---

class InvalidProfile(PosicatError):
    """Height sequence fails the concave-profile conditions."""


class NotCentrallySymmetric(PosicatError):
    """Forbidden set is not invariant under the central reflection."""


class NotConvex(PosicatError):
    """Forbidden set does not contain all lattice points of its hull."""


class SynthesisFailed(PosicatError):
    """Signals a bug: `synthesize_profile` exhausted its perturbation schedule
    or its integer winner failed the exact check, or `synthesize_perm`'s
    result missed a postcondition."""


# --- enumeration ---

class TooManyPaths(PosicatError):
    """Path listing would exceed the configured cap."""


class PathCountMismatch(PosicatError):
    """Path listing found a different number of paths than the dynamic
    program counted; signals a bug."""
