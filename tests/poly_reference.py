"""Polynomial addition, term by term: the tests' reference for the engine's
one-pass ring steps, x + q y and (q-1)^2 x + q y.  The package adds
polynomials only inside those steps, so IntPoly has no `+` of its own."""

from itertools import zip_longest

from posicat.polynomial import IntPoly


def poly_add(*terms: IntPoly) -> IntPoly:
    """The sum of the terms, coefficient by coefficient."""
    return IntPoly(map(sum, zip_longest(*(t.coeffs for t in terms), fillvalue=0)))
