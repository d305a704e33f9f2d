import json
import random

import pytest

from posicat.errors import InexactDivision, MalformedText, PosicatError
from posicat.polynomial import IntPoly, ONE, Q, Q_MINUS_1, ZERO

from poly_reference import poly_add


def rand_poly(rng, max_deg=6, max_coeff=9):
    return IntPoly([rng.randint(-max_coeff, max_coeff) for _ in range(rng.randint(0, max_deg))])


def test_basic_products():
    assert Q_MINUS_1 * IntPoly([1, 1]) == IntPoly([-1, 0, 1])
    assert IntPoly([1, 0, 1]).eval_at(1) == 2
    assert ZERO * IntPoly([3, 2, 1]) == ZERO


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(300):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * poly_add(b, c) == poly_add(a * b, a * c)
        assert poly_add(a, IntPoly([-1]) * a) == ZERO
        x = rng.randint(-5, 5)
        assert (a * b).eval_at(x) == a.eval_at(x) * b.eval_at(x)


def test_exact_div_inverts_mul():
    rng = random.Random(99)
    for _ in range(300):
        a, b = rand_poly(rng), rand_poly(rng)
        if b.is_zero:
            continue
        assert (a * b).exact_div(b) == a


def test_exact_div_examples():
    assert IntPoly([-1, 0, 1]).exact_div(Q_MINUS_1) == IntPoly([1, 1])
    assert Q_MINUS_1.exact_div(Q_MINUS_1) == ONE
    assert IntPoly([0, 1, 1]).exact_div(Q) == IntPoly([1, 1])


def test_exact_div_failures():
    with pytest.raises(InexactDivision):
        IntPoly([1, 1]).exact_div(Q)  # q + 1 is not divisible by q
    with pytest.raises(InexactDivision):
        IntPoly([1]).exact_div(Q_MINUS_1)
    with pytest.raises(InexactDivision):
        IntPoly([2, 1]).exact_div(IntPoly([0, 2]))  # fractional quotient
    with pytest.raises(InexactDivision):
        ONE.exact_div(ZERO)


def test_pow():
    assert Q_MINUS_1 ** 0 == ONE
    assert Q_MINUS_1 ** 3 == Q_MINUS_1 * Q_MINUS_1 * Q_MINUS_1


def test_negative_power_is_refused():
    with pytest.raises(PosicatError, match="negative polynomial power"):
        IntPoly([1, 1]) ** -1


def test_canonical_form_and_degree():
    assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
    assert ZERO.coeffs == ()
    assert not ZERO
    assert IntPoly([0]).coeffs == ()


def test_text_rendering():
    assert IntPoly([1, 0, 1]).text() == "q^2 + 1"
    assert IntPoly([-1, 1]).text() == "q - 1"
    assert IntPoly([3, -1]).text() == "-q + 3"
    assert IntPoly([0, 2]).text() == "2*q"
    assert ZERO.text() == "0"
    assert IntPoly([7]).text() == "7"


# JSON values that are not integers, as `json.loads` reads them
@pytest.mark.parametrize("build", [
    lambda: IntPoly(json.loads("[0.5]")),
    lambda: IntPoly(json.loads('"12"')),
    lambda: IntPoly([2.9, True]),
    lambda: IntPoly(json.loads('{"a": 1}')),
    lambda: IntPoly(json.loads("[1.5]")),
    lambda: IntPoly(json.loads('["1"]')),
    lambda: IntPoly(json.loads("[null]")),
], ids=["float", "string", "float-and-bool", "object",
        "json-float", "json-string", "json-null"])
def test_malformed_coefficients_raise(build):
    with pytest.raises(MalformedText):
        build()


def test_immutability_and_hash():
    p = IntPoly([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = (3,)
    assert hash(IntPoly([1, 2])) == hash(p)
    assert p == IntPoly([1, 2, 0])
    assert IntPoly([5]) == 5


@pytest.mark.parametrize("coeffs, value", [([5], 5), ([], 0), ([0, 0], 0), ([-3], -3)])
def test_constants_hash_like_their_int(coeffs, value):
    # equal values must hash alike, or sets and dicts tell them apart
    p = IntPoly(coeffs)
    assert p == value and hash(p) == hash(value)
    assert value in {p} and p in {value}
