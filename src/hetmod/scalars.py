"""Exact coefficient arithmetic: Gaussian rationals and polynomials in the
formal coupling variable ``a``.

A Gaussian rational is one normalized Gaussian-integer triple (a + b*i)/d of
Python ints (d > 0, gcd(a, b, d) = 1, zero is (0, 0, 1)), so arithmetic is
integer arithmetic plus one gcd per operation.  All linear algebra in this
package runs over these types; floats never appear.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Tuple


class ScalarError(ValueError):
    pass


def _fraction(text: str) -> Fraction:
    """Rational text such as "-3/4" as a Fraction; a zero denominator is bad
    input, not arithmetic, so it raises ScalarError."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ScalarError(f"zero denominator in {text!r}") from None


def _ratio(x) -> Tuple[int, int]:
    """Numerator and positive denominator, in lowest terms, of an exact
    rational given as an int, a Fraction or text such as "-3/4"."""
    if isinstance(x, int):
        return x, 1
    if isinstance(x, str):
        x = _fraction(x)
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise ScalarError(f"cannot build an exact rational from {x!r}")


class GaussRat:
    """A Gaussian rational (a + b*i)/d, stored as three ints ``a, b, d``.

    The triple is canonical: d > 0, gcd(a, b, d) = 1, and zero is (0, 0, 1).
    So two numbers are equal exactly when their triples are, and ``==`` and
    ``hash`` compare the triple.  Each of ``+ - * /`` is integer arithmetic
    followed by one gcd; negation and conjugation need none.  Instances are
    immutable; ``re`` and ``im`` are read-only Fraction views.

    ``GaussRat(re, im)`` and ``GaussRat.of(re, im)`` take the parts as ints,
    Fractions or rational text such as "-3/4".
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        if q == s:
            return _make(p, r, q)
        d = lcm(q, s)
        return _make(p * (d // q), r * (d // s), d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not setattr
        return GaussRat, (self.re, self.im)

    @staticmethod
    def of(re=0, im=0) -> "GaussRat":
        return GaussRat(re, im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        if other.__class__ is not GaussRat:
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def __add__(self, other: "GaussRat") -> "GaussRat":
        a, b, d = self.a, self.b, self.d
        oa, ob, od = other.a, other.b, other.d
        if d == od:
            if d == 1:
                return _make(a + oa, b + ob, 1)
            return _canonical(a + oa, b + ob, d)
        return _canonical(a * od + oa * d, b * od + ob * d, d * od)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        a, b, d = self.a, self.b, self.d
        oa, ob, od = other.a, other.b, other.d
        if d == od:
            if d == 1:
                return _make(a - oa, b - ob, 1)
            return _canonical(a - oa, b - ob, d)
        return _canonical(a * od - oa * d, b * od - ob * d, d * od)

    def __neg__(self) -> "GaussRat":
        return _make(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        a, b, d = self.a, self.b, self.d
        oa, ob, od = other.a, other.b, other.d
        d *= od
        if d == 1:
            return _make(a * oa - b * ob, a * ob + b * oa, 1)
        return _canonical(a * oa - b * ob, a * ob + b * oa, d)

    def __truediv__(self, other: "GaussRat") -> "GaussRat":
        # (a + b i)/d  /  (oa + ob i)/od  =  (a + b i)(oa - ob i) od / (d n)
        oa, ob, od = other.a, other.b, other.d
        n = oa * oa + ob * ob
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a, b = self.a, self.b
        return _canonical((a * oa + b * ob) * od, (b * oa - a * ob) * od,
                          self.d * n)

    def conjugate(self) -> "GaussRat":
        return _make(self.a, -self.b, self.d)

    def __repr__(self) -> str:
        return f"GaussRat({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im} i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imtxt = "i" if mag == 1 else f"{mag} i"
        return f"{re} {sign} {imtxt}"


_alloc = object.__new__
_set_a = GaussRat.a.__set__
_set_b = GaussRat.b.__set__
_set_d = GaussRat.d.__set__


def _make(a: int, b: int, d: int) -> GaussRat:
    """A GaussRat from a triple that is already canonical."""
    x = _alloc(GaussRat)
    _set_a(x, a)
    _set_b(x, b)
    _set_d(x, d)
    return x


def _canonical(a: int, b: int, d: int) -> GaussRat:
    """A GaussRat from any triple with d > 0."""
    g = gcd(a, b, d)
    if g == 1:
        return _make(a, b, d)
    return _make(a // g, b // g, d // g)


GR_ZERO = GaussRat()
GR_ONE = GaussRat.of(1)
GR_I = GaussRat.of(0, 1)


@dataclass(frozen=True)
class Scalar:
    """Polynomial in the formal variable ``a`` with GaussRat coefficients.

    ``coeffs[k]`` multiplies a^k; trailing zero coefficients are stripped so
    equality is structural.  The variable a stands for a real parameter, so
    conjugation acts on the coefficients only.
    """

    coeffs: tuple = ()

    @staticmethod
    def make(coeffs) -> "Scalar":
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        return Scalar(tuple(cs))

    @staticmethod
    def const(c: GaussRat) -> "Scalar":
        return Scalar.make([c])

    @staticmethod
    def of(re=0, im=0) -> "Scalar":
        return Scalar.const(GaussRat.of(re, im))

    @staticmethod
    def var() -> "Scalar":
        return Scalar.make([GR_ZERO, GR_ONE])

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1 if self.coeffs else -1

    def coefficient(self, k: int) -> GaussRat:
        return self.coeffs[k] if k < len(self.coeffs) else GR_ZERO

    def __add__(self, other: "Scalar") -> "Scalar":
        m = max(len(self.coeffs), len(other.coeffs))
        return Scalar.make(
            [self.coefficient(k) + other.coefficient(k) for k in range(m)]
        )

    def __sub__(self, other: "Scalar") -> "Scalar":
        m = max(len(self.coeffs), len(other.coeffs))
        return Scalar.make(
            [self.coefficient(k) - other.coefficient(k) for k in range(m)]
        )

    def __neg__(self) -> "Scalar":
        return Scalar(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not self.coeffs or not other.coeffs:
            return Scalar()
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, cj in enumerate(self.coeffs):
            if not cj:
                continue
            for k, ck in enumerate(other.coeffs):
                if ck:
                    out[j + k] = out[j + k] + cj * ck
        return Scalar.make(out)

    def conjugate(self) -> "Scalar":
        return Scalar(tuple(c.conjugate() for c in self.coeffs))

    def evaluate(self, a0: GaussRat) -> GaussRat:
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * a0 + c
        return acc

    def __str__(self) -> str:
        return format_scalar(self)


S_ZERO = Scalar()
S_ONE = Scalar.of(1)
S_I = Scalar.of(0, 1)
S_A = Scalar.var()


def _format_power(k: int) -> str:
    if k == 0:
        return ""
    if k == 1:
        return "a"
    return f"a^{k}"


def format_scalar(s: Scalar) -> str:
    """Canonical text form, e.g. "1/2 + 3/4 i", "-1/2 a^2", "2 + a"."""
    if not s:
        return "0"
    parts = []
    for k, c in enumerate(s.coeffs):
        if not c:
            continue
        pw = _format_power(k)
        if not pw:
            parts.append(str(c))
            continue
        if c == GR_ONE:
            parts.append(pw)
        elif c == -GR_ONE:
            parts.append(f"-{pw}")
        elif c.a and c.b:
            parts.append(f"({c}) {pw}")
        else:
            parts.append(f"{c} {pw}")
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += " - " + p[1:]
        else:
            out += " + " + p
    return out


_RAT = r"-?\d+(?:/\d+)?"
_TOKEN = re.compile(
    rf"\s*(?:(?P<rat>{_RAT})|(?P<sym>[ia+\-^()])|(?P<num>\d+))")
_PLAIN = re.compile(_RAT)    # a whole text that is one "rat" token


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ScalarError(f"bad scalar syntax near {text[pos:]!r}")
            break
        pos = m.end()
        if m.group("rat") is not None:
            out.append(("rat", _fraction(m.group("rat"))))
        elif m.group("num") is not None:
            out.append(("rat", Fraction(m.group("num"))))
        else:
            out.append((m.group("sym"), None))
    return out


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical scalar syntax.

    Accepts sums of terms like "3/2", "-1/2 i", "a^2", "2/3 a",
    "(1/2 + 3/4 i) a^3".
    """
    toks = _tokenize(text)
    if not toks:
        raise ScalarError("empty scalar")
    pos = 0

    def parse_coeff_atom():
        # rational, optionally followed by i; or bare i
        nonlocal pos
        kind, val = toks[pos]
        if kind == "rat":
            pos += 1
            if pos < len(toks) and toks[pos][0] == "i":
                pos += 1
                return GaussRat(Fraction(0), val)
            return GaussRat(val, Fraction(0))
        if kind == "i":
            pos += 1
            return GR_I
        raise ScalarError(f"expected a coefficient at token {pos}")

    def parse_term():
        # [sign] [coeff] [a[^k]]   with optional parenthesized complex coeff
        nonlocal pos
        sign = GR_ONE
        while pos < len(toks) and toks[pos][0] in "+-":
            if toks[pos][0] == "-":
                sign = -sign
            pos += 1
        coeff = None
        if pos < len(toks) and toks[pos][0] == "(":
            pos += 1
            acc = parse_coeff_atom()
            while pos < len(toks) and toks[pos][0] in "+-":
                neg = toks[pos][0] == "-"
                pos += 1
                nxt = parse_coeff_atom()
                acc = acc - nxt if neg else acc + nxt
            if pos >= len(toks) or toks[pos][0] != ")":
                raise ScalarError("unbalanced parenthesis in scalar")
            pos += 1
            coeff = acc
        elif pos < len(toks) and toks[pos][0] in ("rat", "i"):
            coeff = parse_coeff_atom()
        power = 0
        if pos < len(toks) and toks[pos][0] == "a":
            pos += 1
            power = 1
            if pos < len(toks) and toks[pos][0] == "^":
                pos += 1
                if pos >= len(toks) or toks[pos][0] != "rat":
                    raise ScalarError("expected an integer exponent after ^")
                exp = toks[pos][1]
                if exp.denominator != 1 or exp < 0:
                    raise ScalarError(f"bad exponent {exp}")
                power = int(exp)
                pos += 1
        if coeff is None:
            if power == 0:
                raise ScalarError("empty term in scalar")
            coeff = GR_ONE
        cs = [GR_ZERO] * power + [sign * coeff]
        return Scalar.make(cs)

    total = parse_term()
    while pos < len(toks):
        if toks[pos][0] not in "+-":
            raise ScalarError(f"unexpected token at position {pos}")
        total = total + parse_term()
    return total


def parse_gauss(text: str) -> GaussRat:
    """A constant in the scalar syntax.  Plain integers and p/q, which are
    most of a model file's entries, are read without the general parser;
    the value and any error are the same."""
    if _PLAIN.fullmatch(text):
        return GaussRat(_fraction(text) if "/" in text else int(text))
    s = parse_scalar(text)
    if s.degree > 0:
        raise ScalarError(f"expected a constant, got {text!r}")
    return s.coefficient(0)
