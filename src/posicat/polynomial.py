"""Dense univariate integer polynomials in the variable q.

Coefficients are arbitrary-precision Python ints stored in ascending degree
with no trailing zeros; the zero polynomial is the empty tuple.  Nothing
reads a polynomial from text or JSON: one is built from its coefficients,
and a coefficient that is not an integer raises MalformedText.

The operations are the ones the package uses: `*` and `**` (R is
R~ (q-1)^(n-c)), evaluation at an integer and text.  There is no `+`: the
engine builds the R~ of a reduced node from the coefficients of its two
children in one pass (`engine._same_step` and `engine._apart_step`).  The
one non-ring operation, exact_div, has no caller in the package: it stays
only because `perfbench/tracing.py` patches it by name, and goes once that
tracer spans the ring operations instead.
InexactDivision is raised by exact_div alone, on a nonzero remainder or a
zero divisor.
"""

from __future__ import annotations

from operator import index
from typing import Iterable

from .errors import InexactDivision, MalformedText, PosicatError


class IntPoly:
    """Immutable integer polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        # through operator.index: a float or string raises, not truncated
        try:
            c = list(map(index, coeffs))
        except TypeError:
            raise MalformedText(f"polynomial coefficients must be integers: {coeffs!r}") from None
        while c and c[-1] == 0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- structure ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = IntPoly((other,))
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        # a constant equals its int (see __eq__), so it hashes like one
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- ring operations --------------------------------------------------------

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return IntPoly(out)

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise PosicatError("negative polynomial power")
        result = IntPoly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def eval_at(self, x: int) -> int:
        """Horner evaluation at an integer point."""
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def exact_div(self, divisor: "IntPoly") -> "IntPoly":
        """Quotient self / divisor in Z[q]; the remainder must vanish."""
        if divisor.is_zero:
            raise InexactDivision("division by the zero polynomial")
        if self.is_zero:
            return IntPoly()
        rem = list(self.coeffs)
        div = divisor.coeffs
        if len(rem) < len(div):
            raise InexactDivision(f"degree {len(rem) - 1} < degree {len(div) - 1}")
        out = [0] * (len(rem) - len(div) + 1)
        lead = div[-1]
        for d in range(len(out) - 1, -1, -1):
            top = rem[d + len(div) - 1]
            q, r = divmod(top, lead)
            if r != 0:
                raise InexactDivision(f"leading coefficient {top} not divisible by {lead}")
            out[d] = q
            for i, x in enumerate(div):
                rem[d + i] -= q * x
        if any(rem):
            raise InexactDivision(f"nonzero remainder {rem}")
        return IntPoly(out)

    # -- rendering ---------------------------------------------------------------

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self) -> str:
        return self.text()

    def text(self) -> str:
        """Human form in descending degree, e.g. 'q^2 + 1' or '-q + 3'."""
        if self.is_zero:
            return "0"
        parts = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            if d == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                term = f"{mag}q" if d == 1 else f"{mag}q^{d}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)


ZERO = IntPoly()
ONE = IntPoly((1,))
Q = IntPoly((0, 1))
Q_MINUS_1 = IntPoly((-1, 1))
