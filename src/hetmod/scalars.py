"""Exact coefficient arithmetic: Gaussian rationals and polynomials in the
formal coupling variable ``a``, and the sparse term container.

A Gaussian rational is one normalized Gaussian-integer triple (a + b*i)/d of
Python ints (d > 0, gcd(a, b, d) = 1, zero is (0, 0, 1)), so arithmetic is
integer arithmetic plus one gcd per operation.  All linear algebra in this
package runs over these types; floats never appear.

``Sparse`` is the package's one sparse term container: a shape and a map of
nonzero values, with equality, hashing, copying, ``+ - neg scale`` and the
validating ``build``/``zero`` written once.  ``Scalar`` (power of a ->
GaussRat) derives from it here, the forms in ``exterior`` and the chart
polynomials and sections in ``chartlocal``.

``read_terms`` is the one reader of written numbers and terms: signed
terms, each a coefficient and symbols of the caller's alphabet (``a^k`` in
``parse_scalar`` and ``parse_gauss``, ``z<k>`` and ``dz<k>`` in a chart).
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm

_alloc = object.__new__


class ScalarError(ValueError):
    pass


def _fraction(text: str) -> Fraction:
    """Rational text ``p`` or ``p/q``, p optionally signed, such as "-3/4",
    as a Fraction; other text, and a zero denominator, is bad input, not
    arithmetic, so it raises ScalarError."""
    p, slash, q = text.partition("/")
    digits = p[1:] if p[:1] in ("+", "-") else p
    if not digits.isdecimal() or slash and not q.isdecimal():
        raise ScalarError(f"bad rational {text!r}; write p or p/q")
    if slash and not int(q):
        raise ScalarError(f"zero denominator in {text!r}")
    return Fraction(int(p), int(q) if slash else 1)


def _ratio(x) -> tuple[int, int]:
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
    Fractions or rational text ``p`` or ``p/q`` such as "-3/4", the number
    grammar of ``read_terms`` with an optional sign; other text, such as
    "0.5" or "1e1", raises ScalarError.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        if q == s:
            return _gauss(p, r, q)
        d = lcm(q, s)
        return _gauss(p * (d // q), r * (d // s), d)

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
                return _gauss(a + oa, b + ob, 1)
            return _canonical(a + oa, b + ob, d)
        return _canonical(a * od + oa * d, b * od + ob * d, d * od)

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        a, b, d = self.a, self.b, self.d
        oa, ob, od = other.a, other.b, other.d
        if d == od:
            if d == 1:
                return _gauss(a - oa, b - ob, 1)
            return _canonical(a - oa, b - ob, d)
        return _canonical(a * od - oa * d, b * od - ob * d, d * od)

    def __neg__(self) -> "GaussRat":
        return _gauss(-self.a, -self.b, self.d)

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        a, b, d = self.a, self.b, self.d
        oa, ob, od = other.a, other.b, other.d
        d *= od
        if d == 1:
            return _gauss(a * oa - b * ob, a * ob + b * oa, 1)
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
        return _gauss(self.a, -self.b, self.d)

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


_set_a = GaussRat.a.__set__
_set_b = GaussRat.b.__set__
_set_d = GaussRat.d.__set__


def _gauss(a: int, b: int, d: int) -> GaussRat:
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
        return _gauss(a, b, d)
    return _gauss(a // g, b // g, d // g)


GR_ZERO = GaussRat()
GR_ONE = GaussRat.of(1)
GR_I = GaussRat.of(0, 1)


class FormError(ValueError):
    pass


def _acc(acc: dict, key, v) -> None:
    """acc[key] += v, leaving out zero summands and cancelled sums."""
    if not v:
        return
    c = acc.get(key)
    if c is None:
        acc[key] = v
    else:
        c = c + v
        if c:
            acc[key] = c
        else:
            del acc[key]


def _sum_terms(x: Mapping, y, sign: int = 1) -> dict:
    """x + sign * y term by term, for a mapping and (key, value) pairs of
    nonzero terms; the result holds no zero either."""
    acc = x.copy()
    for k, v in y:
        _acc(acc, k, v if sign == 1 else -v)
    return acc


class Sparse:
    """A shape and a sparse term map: the one container behind scalars,
    forms, polynomials, chart sections and mixed-degree forms.

    ``shape`` is a tuple of sizes, which a subclass names in ``_fields``
    and reads back as properties of those names.  ``terms`` is a read-only
    view of the (key, value) pairs of a dict that never holds a zero value,
    and ``coeffs`` the read-only mapping behind it, so ``bool`` is emptiness
    and ``==``/``hash`` ignore insertion order.  ``cls(*shape, terms)`` and
    ``build`` check each key with the subclass's ``_key`` and drop zero
    values; copy and pickle rebuild through ``build``.  Everything else
    builds its result through the unchecked ``_make``: the values form an
    integral domain (or are such containers), so no nonzero product
    vanishes and only a cancelled sum needs dropping.  A subclass gives its
    shape, its key check, its products and derivatives, and its printing.
    """

    __slots__ = ("shape", "terms")
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, property(lambda self, i=i: self.shape[i]))

    def __new__(cls, *args):
        return cls.build(*args)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def build(cls, *args):
        """``cls.build(*shape, terms)``, or ``cls.build(*shape)`` for zero."""
        k = len(cls._fields)
        if len(args) not in (k, k + 1):
            raise TypeError(f"{cls.__name__} takes {', '.join(cls._fields)} "
                            "and a term mapping")
        shape = args[:k]
        clean = {}
        for key, v in (args[k].items() if len(args) > k else ()):
            key = cls._key(shape, key, v)
            if v:
                clean[key] = v
        return _make(cls, shape, clean)

    @classmethod
    def zero(cls, *shape):
        return _make(cls, shape, {})

    @property
    def coeffs(self) -> Mapping:
        return self.terms.mapping

    def __reduce__(self):
        return type(self).build, self.shape + (dict(self.terms),)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.shape, frozenset(self.terms)))

    def __repr__(self) -> str:
        args = self.shape + (dict(sorted(self.terms)),)
        return f"{type(self).__name__}({', '.join(map(repr, args))})"

    def __add__(self, o):
        if type(o) is not type(self) or o.shape != self.shape:
            raise FormError(f"{type(self).__name__} shape mismatch")
        if not self.terms:
            return o
        return _make(type(self), self.shape,
                     _sum_terms(self.terms.mapping, o.terms))

    def __sub__(self, o):
        if type(o) is not type(self) or o.shape != self.shape:
            raise FormError(f"{type(self).__name__} shape mismatch")
        return _make(type(self), self.shape,
                     _sum_terms(self.terms.mapping, o.terms, -1))

    def __neg__(self):
        return _make(type(self), self.shape, {k: -v for k, v in self.terms})

    def scale(self, s):
        """Every value times the coefficient s."""
        return _make(type(self), self.shape,
                     {k: v * s for k, v in self.terms} if s else {})


_set_shape, _set_terms = Sparse.shape.__set__, Sparse.terms.__set__


def _make(cls, shape: tuple, terms: dict):
    """A ``cls`` of ``shape`` from a dict of nonzero values with canonical
    keys that no one else holds."""
    x = _alloc(cls)
    _set_shape(x, shape)
    _set_terms(x, terms.items())
    return x


class Record:
    """A record: named fields, compared, hashed, printed, copied and
    pickled by value.  Every record class of the package derives from it.

    A subclass declares its fields as class annotations, in order, and a
    class attribute of a field's name is its default; ``_fields`` collects
    the names, as ``Sparse`` names its shape.  The constructor takes the
    fields by position or by keyword.  ``==`` needs the same class, and
    ``==``, ``hash`` and ``repr`` read the fields in order.  Names in
    ``_derived`` are annotated too but are not fields: ``_derive`` returns
    their values from the fields, which are set on construction (so again
    by ``replace`` and on copy and pickle) and left out of ``==``, ``hash``
    and ``repr``.  A record is immutable; its fields live in the instance
    ``__dict__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _derived: tuple[str, ...] = ()

    def __init_subclass__(cls):
        own = [k for k in cls.__annotations__ if k not in cls._derived]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults, **{
            k: cls.__dict__[k] for k in own if k in cls.__dict__}}

    def __new__(cls, *args, **kw):
        x = _alloc(cls)
        fields = cls._fields
        if kw or len(args) != len(fields):
            args = cls._bind(args, kw)
        values = x.__dict__
        values.update(zip(fields, args))
        if cls._derived:
            values.update(x._derive())
        return x

    @classmethod
    def _bind(cls, args: tuple, kw: dict) -> list:
        """The field values in order from a call's arguments and the
        defaults; a missing, unknown or repeated argument is a TypeError."""
        fields = cls._fields
        given = dict(zip(fields, args))
        for k, v in kw.items():
            if k not in fields or k in given:
                raise TypeError(f"{cls.__name__}() got an unexpected or "
                                f"repeated argument {k!r}")
            given[k] = v
        values = {**cls._defaults, **given}
        if len(args) > len(fields) or len(values) < len(fields):
            raise TypeError(f"{cls.__name__}() takes the fields "
                            f"{', '.join(fields)}")
        return [values[k] for k in fields]

    def _values(self) -> tuple:
        return tuple(getattr(self, k) for k in self._fields)

    def replace(self, **changes):
        """A new record with the given fields changed; its derived
        values are made again from the new fields."""
        derived = sorted(changes.keys() & set(self._derived))
        if derived:
            raise ValueError(f"{type(self).__name__}.{derived[0]} is "
                             "derived from the fields; replace cannot set it")
        return type(self)(**dict(zip(self._fields, self._values()))
                          | changes)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{k}={getattr(self, k)!r}" for k in self._fields) + ")"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Scalar(Sparse):
    """Polynomial in the formal variable ``a`` with GaussRat coefficients.

    A ``Sparse`` of no shape whose terms map each power k >= 0 of a to its
    nonzero coefficient; ``make`` takes the coefficients in order of power.
    The variable a stands for a real parameter, so conjugation acts on the
    coefficients only.
    """

    __slots__ = ()

    @staticmethod
    def _key(shape, k, c):
        if type(k) is not int or k < 0:
            raise ScalarError(f"a power of a is an int >= 0, not {k!r}")
        return k

    @staticmethod
    def make(coeffs) -> "Scalar":
        return _make(Scalar, (), {k: c for k, c in enumerate(coeffs) if c})

    @staticmethod
    def const(c: GaussRat) -> "Scalar":
        return _make(Scalar, (), {0: c} if c else {})

    @staticmethod
    def of(re=0, im=0) -> "Scalar":
        return Scalar.const(GaussRat.of(re, im))

    @staticmethod
    def var() -> "Scalar":
        return _make(Scalar, (), {1: GR_ONE})

    @property
    def degree(self) -> int:
        return max(self.terms.mapping, default=-1)

    def coefficient(self, k: int) -> GaussRat:
        return self.terms.mapping.get(k, GR_ZERO)

    def __mul__(self, other: "Scalar") -> "Scalar":
        acc = {}
        for j, cj in self.terms:
            for k, ck in other.terms:
                _acc(acc, j + k, cj * ck)
        return _make(Scalar, (), acc)

    def conjugate(self) -> "Scalar":
        return _make(Scalar, (), {k: c.conjugate() for k, c in self.terms})

    def evaluate(self, a0: GaussRat) -> GaussRat:
        acc = GR_ZERO
        for k in range(self.degree, -1, -1):
            acc = acc * a0 + self.coefficient(k)
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
    for k, c in sorted(s.terms):
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


def term_lexer(symbol: str) -> re.Pattern:
    """The tokens of a written sum whose symbols match the regex ``symbol``
    (with no groups): an unsigned number ``p`` or ``p/q``, one of ``+ - ( )
    i``, a symbol, or any other character, which no term reads."""
    return re.compile(rf"\s*(?:(\d+)(?:/(\d+))?|([-+()i])|({symbol})|(\S))")


def read_terms(text: str, lexer: re.Pattern, key) -> dict:
    """The written sum ``text`` as {key: coefficient}, terms with one key
    added together and no zero kept.

    Each term after the first starts with a sign; a run of signs
    multiplies.  A term is a coefficient, then symbols, at least one of
    the two; a coefficient is a number, a number and ``i``, ``i``, or a
    parenthesized sum of those, and a number never carries a sign.
    ``key`` maps a term's symbols, in order, to its key; a ScalarError it
    raises is re-raised naming the term.  Blank text is the empty sum."""
    toks = lexer.findall(text)
    if not toks:
        return {}
    toks.append(_END)
    try:
        terms = _sum(toks, 0, key)[0]
    except _Fault as fault:
        why, first, end, place = fault.args
        spans = [m.span() for m in lexer.finditer(text)]
        rest = text[spans[first][0]:] if first < len(spans) else ""
        if end:     # the term of tokens first..end - 1
            term = text[spans[first][0]:spans[end - 1][1]].lstrip()
            why = f"{why} in term {term!r}"
        elif toks[first][4]:    # a character that no term reads
            why = f"bad scalar syntax near {rest!r}"
        elif place:
            why = f"{why} near {rest!r}" if rest else \
                f"{why} at the end of {text!r}"
        raise ScalarError(why) from None
    out = {}
    for k, (a, b, d) in terms.items():
        if a or b:
            out[k] = _canonical(a, b, d)
    return out


_END = ("",) * 5    # the token after the last, which matches nothing


class _Fault(Exception):
    """A fault: its message, its token, the token after a bad term (0 when
    the fault is not a term's), and whether the message goes on to quote
    the text from its token on."""


def _sum(toks, pos, key):
    """The terms from token ``pos`` on, summed by key as triples (a, b, d)
    of (a + b i)/d, and the position after them; with ``key`` None, the
    symbol-free sum in parentheses, up to a token after a term not a sign."""
    acc = {}
    while True:
        p, q, op, _, _ = toks[pos]
        neg = False
        while op == "+" or op == "-":
            neg ^= op == "-"
            pos += 1
            p, q, op, _, _ = toks[pos]
        start = pos
        a, b, d = -1 if neg else 1, 0, 1
        if p:
            d = int(q) if q else 1
            if not d:
                raise ScalarError(f"zero denominator in {p + '/' + q!r}")
            a = -int(p) if neg else int(p)
            pos += 1
            if toks[pos][2] == "i":
                a, b, pos = 0, a, pos + 1
        elif op == "i":
            a, b, pos = 0, a, pos + 1
        elif op == "(" and key is not None:
            inner, pos = _sum(toks, pos + 1, None)
            if toks[pos][2] != ")":
                raise _Fault("unbalanced parenthesis in scalar", pos, 0,
                             False)
            x, y, d = inner.get((), (0, 0, 1))
            a, b, pos = a * x, a * y, pos + 1
        symbols = []
        if key is not None:
            while sym := toks[pos][3]:
                symbols.append(sym)
                pos += 1
        if pos == start:
            if key is None:
                raise _Fault("expected a coefficient", pos, 0, True)
            raise _Fault("empty term in scalar", pos, 0, False)
        op = toks[pos][2]
        last = op != "+" and op != "-"
        if key is None:
            k = ()
        else:
            if last and toks[pos] is not _END:
                raise _Fault("unexpected token", pos, 0, True)
            try:
                k = key(tuple(symbols))
            except ScalarError as exc:
                raise _Fault(str(exc), start, pos, False) from None
        if k in acc:
            x, y, e = acc[k]
            a, b, d = x * d + a * e, y * d + b * e, e * d
        acc[k] = a, b, d
        if last:
            return acc, pos


def _power(symbols) -> int:
    """The power of a that a term's factors ``a`` and ``a^k`` make."""
    k = 0
    for s in symbols:
        e = _fraction(s.partition("^")[2].strip() or "1")
        if e.denominator != 1 or e < 0:
            raise ScalarError(f"bad exponent {e}")
        k += e.numerator
    return k


_POWERS = term_lexer(r"a(?:\s*\^\s*-?\d+(?:/\d+)?)?")


def _powers(text: str) -> dict:
    terms = read_terms(text, _POWERS, _power)
    if not terms and not text.strip():
        raise ScalarError("empty scalar")
    return terms


def parse_scalar(text: str) -> Scalar:
    """A polynomial in a written as a sum of terms (``read_terms``) whose
    symbols are ``a`` and ``a^k``, such as "3/2", "-1/2 i", "a^2",
    "2/3 a" or "(1/2 + 3/4 i) a^3"; ``a^0`` is 1."""
    return _make(Scalar, (), _powers(text))


def parse_gauss(text: str) -> GaussRat:
    """A constant written as ``parse_scalar`` reads it, such as "-3/4",
    "3/2 + 1/3 i" or "-i"; a power of a that does not cancel is refused."""
    terms = _powers(text)
    c = terms.pop(0, GR_ZERO)
    if terms:
        raise ScalarError(f"expected a constant, got {text!r}")
    return c
