"""Arithmetic in the exact coefficient ring."""

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmod.scalars import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussRat,
    Scalar,
    ScalarError,
    format_scalar,
    parse_gauss,
    parse_scalar,
)

fractions = st.fractions(max_denominator=50)
gauss = st.builds(GaussRat, fractions, fractions)
scalars = st.builds(lambda cs: Scalar.make(cs),
                    st.lists(gauss, max_size=4))


def test_gauss_basic():
    x = GaussRat.of("1/2", "-3")
    assert x.re == Fraction(1, 2) and x.im == Fraction(-3)
    assert x + (-x) == GR_ZERO
    assert x.conjugate().conjugate() == x
    assert GR_I * GR_I == -GR_ONE


def test_gauss_division_inverts_multiplication():
    x = GaussRat.of("3/7", "2")
    y = GaussRat.of(-2, "1/3")
    assert (x * y) / y == x
    with pytest.raises(ZeroDivisionError):
        x / GR_ZERO


def _text(re, im):
    """The printed form of re + im*i, written out from the two parts."""
    if not im:
        return str(re)
    if not re:
        return "i" if im == 1 else "-i" if im == -1 else f"{im} i"
    mag = abs(im)
    imtxt = "i" if mag == 1 else f"{mag} i"
    return f"{re} {'+' if im > 0 else '-'} {imtxt}"


def _is_canonical(z):
    return (z.d > 0 and gcd(z.a, z.b, z.d) == 1
            and (bool(z) or (z.a, z.b, z.d) == (0, 0, 1)))


parts = st.tuples(st.one_of(fractions, st.integers(-9, 9)),
                  st.one_of(fractions, st.integers(-9, 9)))


@given(parts, parts)
@settings(max_examples=300, deadline=None)
def test_gauss_matches_fraction_pair_oracle(p, q):
    # the oracle computes on (Fraction, Fraction) pairs, never on GaussRat
    (xr, xi), (yr, yi) = (tuple(map(Fraction, p)), tuple(map(Fraction, q)))
    x, y = GaussRat(*p), GaussRat(*q)
    expected = {
        "+": (xr + yr, xi + yi),
        "-": (xr - yr, xi - yi),
        "*": (xr * yr - xi * yi, xr * yi + xi * yr),
        "neg": (-xr, -xi),
        "conj": (xr, -xi),
        "x": (xr, xi),
    }
    got = {"+": x + y, "-": x - y, "*": x * y, "neg": -x,
           "conj": x.conjugate(), "x": x}
    norm = yr * yr + yi * yi
    if norm:
        expected["/"] = ((xr * yr + xi * yi) / norm,
                         (xi * yr - xr * yi) / norm)
        got["/"] = x / y
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    for op, z in got.items():
        re, im = expected[op]
        assert (z.re, z.im) == (re, im), op
        assert _is_canonical(z), op
        same = GaussRat(re, im)
        assert z == same and hash(z) == hash(same), op
        assert str(z) == _text(re, im), op
        assert bool(z) == bool(re or im), op
    assert (x == y) == ((xr, xi) == (yr, yi))


def test_gauss_is_immutable():
    x = GaussRat.of("1/2", 3)
    with pytest.raises(AttributeError):
        x.a = 2
    with pytest.raises(AttributeError):
        x.re = Fraction(1)
    assert (x.a, x.b, x.d) == (1, 6, 2)
    assert (GR_ZERO.a, GR_ZERO.b, GR_ZERO.d) == (0, 0, 1)
    assert copy.deepcopy(x) == x
    assert pickle.loads(pickle.dumps(x)) == x


@given(gauss, gauss)
@settings(max_examples=50, deadline=None)
def test_gauss_conjugation_is_multiplicative(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_scalar_structure():
    a = Scalar.var()
    s = Scalar.of(2) + a * a
    assert s.degree == 2
    assert s.coefficient(0) == GaussRat.of(2)
    assert s.coefficient(1) == GR_ZERO
    assert s.coefficient(2) == GR_ONE
    # trailing zeros are stripped, so equality is structural
    assert Scalar.make([GR_ONE, GR_ZERO]) == Scalar.of(1)


def test_scalar_evaluate_horner():
    a = Scalar.var()
    s = Scalar.of(1) - Scalar.of(4) * a + a * a
    a0 = GaussRat.of("1/2")
    assert s.evaluate(a0) == GR_ONE - GaussRat.of(2) + a0 * a0


def test_scalar_conjugate_fixes_the_variable():
    # a is a real parameter: conjugation touches coefficients only
    s = Scalar.of(0, 1) * Scalar.var()
    c = s.conjugate()
    assert c.degree == 1
    assert c.coefficient(1) == -GR_I


@given(scalars, scalars, scalars)
@settings(max_examples=40, deadline=None)
def test_scalar_ring_laws(x, y, z):
    assert x * (y + z) == x * y + x * z
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x


@given(scalars)
@settings(max_examples=40, deadline=None)
def test_format_parse_round_trip(s):
    assert parse_scalar(format_scalar(s)) == s


def test_parse_examples():
    assert parse_scalar("1/2 + 3/4 i a^2").degree == 2
    assert parse_scalar("-a") == -Scalar.var()
    assert parse_gauss("-2/3") == GaussRat.of("-2/3")
    with pytest.raises(ScalarError):
        parse_gauss("a")
    with pytest.raises(ScalarError):
        parse_scalar("1 +")


def _gauss_via_scalar(text):
    """parse_gauss through the general scalar parser alone: the reference
    for its direct path on plain numbers."""
    s = parse_scalar(text)
    if s.degree > 0:
        raise ScalarError(f"expected a constant, got {text!r}")
    return s.coefficient(0)


@pytest.mark.parametrize("text", [
    "0", "-0", "7", "-12", "3/6", "-3/4", "0/5", "03", "1/0", "-5/0", " 3",
    "+3", "- 3", "3/4 i", "(1 + i)", "a",
])
def test_parse_gauss_agrees_with_parse_scalar(text):
    # plain integers and p/q are read directly; the value, and the message
    # of a refusal, are those of the general parser
    def outcome(parse):
        try:
            x = parse(text)
        except ScalarError as exc:
            return str(exc)
        return type(x), (x.a, x.b, x.d)

    assert outcome(parse_gauss) == outcome(_gauss_via_scalar)
