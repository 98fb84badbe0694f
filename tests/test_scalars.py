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
    S_ZERO,
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


# rational text that GaussRat reads, p or p/q with an optional sign, and
# the value of each part written out as a numerator and a denominator
_GAUSS_TEXTS = [("0", 0, 1), ("-0", 0, 1), ("+5", 5, 1), ("12", 12, 1),
                ("-3/4", -3, 4), ("+2/4", 1, 2), ("0/9", 0, 1),
                ("007/014", 1, 2)]

# text that it refuses, and the message: decimals, exponents, spaces,
# signed denominators and what parse_gauss reads but a part is not
_GAUSS_REFUSALS = [
    (text, f"bad rational {text!r}; write p or p/q")
    for text in ("0.5", "1e1", "1.", ".5", " 1/2", "1/2 ", "1 /2", "1/-2",
                 "--1", "1_000", "", "inf", "nan", "1/2/3", "(1/2)", "i")
] + [("1/0", "zero denominator in '1/0'"),
     ("-3/00", "zero denominator in '-3/00'")]


@pytest.mark.parametrize("text, p, q", _GAUSS_TEXTS,
                         ids=[t for t, _, _ in _GAUSS_TEXTS])
def test_gauss_reads_rational_text(text, p, q):
    assert GaussRat.of(text) == GaussRat(text) == GaussRat.of(Fraction(p, q))
    assert GaussRat.of(0, text).im == Fraction(p, q)


@pytest.mark.parametrize("text, message", _GAUSS_REFUSALS,
                         ids=[t for t, _ in _GAUSS_REFUSALS])
def test_gauss_refuses_other_text(text, message):
    for parts in ((text,), (0, text)):
        with pytest.raises(ScalarError) as exc:
            GaussRat.of(*parts)
        assert str(exc.value) == message
        with pytest.raises(ScalarError):
            GaussRat(*parts)


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
    # zero coefficients are not stored, so equality is structural
    assert Scalar.make([GR_ONE, GR_ZERO]) == Scalar.of(1)
    assert Scalar.make([GR_ZERO, GR_ZERO, GR_ONE]).coeffs == {2: GR_ONE}


def test_scalar_is_a_term_map_of_powers():
    # the container form: a map from powers of a to nonzero coefficients
    assert Scalar() == S_ZERO and not Scalar({3: GR_ZERO})
    assert Scalar({0: GR_ONE}) == Scalar.of(1) != Scalar.of(2)
    assert repr(Scalar.of(1)) == \
        "Scalar({0: GaussRat(Fraction(1, 1), Fraction(0, 1))})"
    assert Scalar({2: GR_ONE, 0: GR_I}) == Scalar({0: GR_I, 2: GR_ONE})
    for power in (-1, 1.0, True, "1", (1,)):
        with pytest.raises(ScalarError, match="power of a"):
            Scalar({power: GR_ONE})


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


def _pair_mul(x, y):
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c


def _pair_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def _strip(cs):
    while cs and cs[-1] == (0, 0):
        cs.pop()
    return cs


def _dense(s):
    """A Scalar's coefficients, constant first, as (Fraction, Fraction)."""
    return [(s.coefficient(k).re, s.coefficient(k).im)
            for k in range(s.degree + 1)]


@given(st.lists(parts, max_size=4), st.lists(parts, max_size=4), parts)
@settings(max_examples=200, deadline=None)
def test_scalar_matches_dense_pair_oracle(xs, ys, a0):
    # the oracle computes on dense lists of (Fraction, Fraction) pairs,
    # never on GaussRat or Scalar
    xs = [tuple(map(Fraction, p)) for p in xs]
    ys = [tuple(map(Fraction, p)) for p in ys]
    a0 = tuple(map(Fraction, a0))
    x = Scalar.make([GaussRat(*p) for p in xs])
    y = Scalar.make([GaussRat(*p) for p in ys])
    m = max(len(xs), len(ys))
    xp = xs + [(0, 0)] * (m - len(xs))
    yp = ys + [(0, 0)] * (m - len(ys))
    prod = [(0, 0)] * max(len(xs) + len(ys) - 1, 0)
    for j, cj in enumerate(xs):
        for k, ck in enumerate(ys):
            prod[j + k] = _pair_add(prod[j + k], _pair_mul(cj, ck))
    expected = {
        "+": [_pair_add(p, q) for p, q in zip(xp, yp)],
        "-": [(p[0] - q[0], p[1] - q[1]) for p, q in zip(xp, yp)],
        "*": prod,
        "neg": [(-re, -im) for re, im in xs],
        "conj": [(re, -im) for re, im in xs],
        "x": list(xs),
    }
    got = {"+": x + y, "-": x - y, "*": x * y, "neg": -x,
           "conj": x.conjugate(), "x": x}
    for op, z in got.items():
        want = _strip(expected[op])
        assert _dense(z) == want, op
        assert all(z.coeffs.values()), op
        same = Scalar.make([GaussRat(*p) for p in want])
        assert z == same and hash(z) == hash(same), op
        assert bool(z) == bool(want), op
    acc = (Fraction(0), Fraction(0))
    for c in reversed(xs):
        acc = _pair_add(_pair_mul(acc, a0), c)
    v = x.evaluate(GaussRat(*a0))
    assert (v.re, v.im) == acc


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


F = Fraction


def _outcome(text):
    """``parse_gauss(text)`` as its real and imaginary Fractions, or the
    message of its refusal."""
    try:
        x = parse_gauss(text)
    except ScalarError as exc:
        return str(exc)
    return x.re, x.im


# (spelling, its value as (re, im) or the message of its refusal)
_PLAIN_CONSTANTS = [
    ("0", (0, 0)), ("-0", (0, 0)), ("7", (7, 0)), ("-12", (-12, 0)),
    ("3/6", (F(1, 2), 0)), ("-3/4", (F(-3, 4), 0)), ("0/5", (0, 0)),
    ("03", (3, 0)), ("1/0", "zero denominator in '1/0'"),
    ("-5/0", "zero denominator in '5/0'"), (" 3", (3, 0)), ("+3", (3, 0)),
    ("- 3", (-3, 0)), ("3/4 i", (0, F(3, 4))), ("(1 + i)", (1, 1)),
    ("a", "expected a constant, got 'a'"),
]


@pytest.mark.parametrize("text, want", _PLAIN_CONSTANTS,
                         ids=[text for text, _ in _PLAIN_CONSTANTS])
def test_parse_gauss_agrees_with_parse_scalar(text, want):
    # plain integers and p/q: the value written above, or the refusal
    assert _outcome(text) == want
    if not isinstance(want, str):
        assert parse_scalar(text) == Scalar.of(*want)


# (spelling, in the shape the model printer writes a constant -- RAT,
# RAT i, i, -i or RAT +/- RAT i, one space between the parts -- and its
# value as (re, im) or the message of its refusal)
_CONSTANT_SPELLINGS = [
    ("0", True, (0, 0)), ("-0", True, (0, 0)), ("7", True, (7, 0)),
    ("-3/4", True, (F(-3, 4), 0)), ("03/004", True, (F(3, 4), 0)),
    ("3/2 i", True, (0, F(3, 2))), ("-3/2 i", True, (0, F(-3, 2))),
    ("-1 i", True, (0, -1)), ("0 i", True, (0, 0)), ("i", True, (0, 1)),
    ("-i", True, (0, -1)), ("3/2 + 1/3 i", True, (F(3, 2), F(1, 3))),
    ("-1/2 + i", True, (F(-1, 2), 1)), ("1/2 - i", True, (F(1, 2), -1)),
    ("-1 - 2/3 i", True, (-1, F(-2, 3))), ("0 + 0 i", True, (0, 0)),
    ("-7/7 - 14/2 i", True, (-1, -7)),
    ("(1 + i)", False, (1, 1)), ("1/0 i", False, "zero denominator in '1/0'"),
    ("2 a", False, "expected a constant, got '2 a'"), (" i ", False, (0, 1)),
    ("1/0", False, "zero denominator in '1/0'"),
    ("3/0 + i", False, "zero denominator in '3/0'"),
    ("1 + 1/00 i", False, "zero denominator in '1/00'"),
    # a number token carries no sign, so the sign before 1/3 is the
    # second term's
    ("1 -1/3 i", False, (1, F(-1, 3))), ("1-1/3 i", False, (1, F(-1, 3))),
    ("-4 -0 i", False, (-4, 0)),
    ("1 - -1/3 i", False, (1, F(1, 3))), ("- i", False, (0, -1)),
    ("3/2i", False, (0, F(3, 2))), ("1 + -i", False, (1, -1)),
    ("+3", False, (3, 0)), ("1/2  + i", False, (F(1, 2), 1)),
    ("i 2", False, "unexpected token near ' 2'"),
    ("", False, "empty scalar"), ("1 + i + i", False, (1, 2)),
    ("2 i a", False, "expected a constant, got '2 i a'"),
    ("1/2/3", False, "bad scalar syntax near '/3'"),
]


@pytest.mark.parametrize(
    "text, printed, want", _CONSTANT_SPELLINGS,
    ids=[f"{text}-{printed}" for text, printed, _ in _CONSTANT_SPELLINGS])
def test_parse_gauss_reads_printed_constants_directly(text, printed, want):
    # the value written above, or the refusal; a spelling in the printer's
    # shape is always read
    assert _outcome(text) == want
    assert not (printed and isinstance(want, str))


def test_parse_gauss_reads_every_printed_constant_directly():
    # str(GaussRat) is the printer's spelling of a constant; it reads back
    # as the parts it was built from
    for re in ("0", "1", "-1", "3/2", "-5/12"):
        for im in ("0", "1", "-1", "1/3", "-7/4"):
            text = str(GaussRat.of(re, im))
            assert _outcome(text) == (F(re), F(im)), text


def test_a_to_the_zero_is_one():
    # a^0 is a symbol like a^2, so it stands alone as 1
    assert parse_scalar("a^0") == Scalar.of(1)
    assert parse_scalar("-a^0 + a") == Scalar.make([-GR_ONE, GR_ONE])
    assert parse_scalar("2 a^0") == Scalar.of(2)
    assert parse_gauss("a^0") == GR_ONE
    assert parse_gauss("a^0 + i") == GaussRat.of(1, 1)


# spellings that an earlier reader, whose number tokens carried a sign,
# read otherwise: (spelling, what it reads now, as a Scalar or the message
# of its refusal; the comment gives the earlier refusal)
_CHANGED_SPELLINGS = [
    # read, and refused before
    ("1 -1/3 i", Scalar.of(1, "-1/3")),        # unexpected token
    ("a^-0", Scalar.of(1)),                   # empty term
    ("a a^2", Scalar.make([0, 0, 0, GR_ONE])),  # unexpected token
    ("(- 1 + i) a", Scalar.make([0, GaussRat.of(-1, 1)])),
    ("(1 + - i)", Scalar.of(1, -1)),          # expected a coefficient
    # refused, with another message
    ("(", "expected a coefficient at the end of '('"),  # an IndexError before
    ("1 + (", "expected a coefficient at the end of '1 + ('"),
    ("-5/0", "zero denominator in '5/0'"),
    ("-2 3", "unexpected token near ' 3'"),  # unexpected token at position 1
    ("2 3 x", "unexpected token near ' 3 x'"),  # bad syntax near ' x'
    ("2 ^ 3", "bad scalar syntax near ' ^ 3'"),  # unexpected token
    ("a^", "bad scalar syntax near '^'"),  # expected an integer exponent
    ("a^1/2", "bad exponent 1/2 in term 'a^1/2'"),
    ("2 a^-1", "bad exponent -1 in term '2 a^-1'"),
]


@pytest.mark.parametrize("text, want", _CHANGED_SPELLINGS,
                         ids=[text for text, _ in _CHANGED_SPELLINGS])
def test_spellings_read_by_the_one_grammar(text, want):
    try:
        got = parse_scalar(text)
    except ScalarError as exc:
        got = str(exc)
    assert got == want
