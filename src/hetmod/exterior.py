"""Exterior (p,q)-form algebra for the invariant and the chart layer.

A term is indexed by a pair of strictly increasing tuples (holo, anti) of
1-based leg indices; the associated monomial is

    theta^{h1} ^ ... ^ theta^{hp} ^ thetabar^{a1} ^ ... ^ thetabar^{aq}

with all holomorphic legs to the left of the antiholomorphic ones.  One
class, ``Form``, holds the terms and implements their algebra for both
layers, which differ only in coefficients and printing: ``InvariantForm``
(coframe legs alpha^k, ``Scalar`` coefficients) and ``chartlocal.ChartForm``
(chart legs dz_k, dzbar_k, ``Poly`` coefficients).  Every normalization
sign of both layers is produced here, from ``sort_with_sign`` and
``merge_with_sign``, so the convention cannot drift between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub
from types import MappingProxyType
from typing import Iterable, Mapping, Tuple

from .linalg import det
from .scalars import S_ONE, S_ZERO, Scalar

_frozen = MappingProxyType
_EMPTY: Mapping = _frozen({})
_alloc = object.__new__


class FormError(ValueError):
    pass


def sort_with_sign(idx: Iterable[int]):
    """Sort a tuple of indices, returning (sign, sorted) or (0, ()) on repeat."""
    lst = list(idx)
    sign = 1
    # insertion sort; lists here have length <= n (small)
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(lst)):
        if lst[i - 1] == lst[i]:
            return 0, ()
    return sign, tuple(lst)


def merge_with_sign(left: Tuple[int, ...], right: Tuple[int, ...]):
    """Merge two sorted index tuples, counting the transposition sign."""
    sign = 1
    out = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] == right[j]:
            return 0, ()
        if left[i] < right[j]:
            out.append(left[i])
            i += 1
        else:
            # right[j] hops over the remaining left entries
            if (len(left) - i) % 2:
                sign = -sign
            out.append(right[j])
            j += 1
    out.extend(left[i:])
    out.extend(right[j:])
    return sign, tuple(out)


# keyed by leg tuples, so its size is bounded by the dimension
_merge = lru_cache(maxsize=None)(merge_with_sign)


def normalize_key(holo: Iterable[int], anti: Iterable[int]):
    """Canonical (sign, key) for an arbitrarily ordered leg list."""
    sh, h = sort_with_sign(holo)
    if sh == 0:
        return 0, ((), ())
    sa, a = sort_with_sign(anti)
    if sa == 0:
        return 0, ((), ())
    return sh * sa, (h, a)


class _Immutable:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


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


def _sum_terms(x: Mapping, y: Mapping, sign: int = 1) -> dict:
    """x + sign * y term by term, for mappings of nonzero terms; the result
    holds no zero either."""
    acc = x.copy()
    for k, v in y.items():
        _acc(acc, k, v if sign == 1 else -v)
    return acc


class Form(_Immutable):
    """A form of pure bidegree (p, q) over n legs.

    ``terms`` is a read-only view of the (key, coefficient) pairs of a dict
    that never holds a zero, and ``coeffs`` the read-only mapping behind it,
    so ``bool`` is emptiness and ``==``/``hash`` ignore insertion order.
    ``cls(n, p, q, terms)`` and ``build`` check the keys and drop zeros;
    ``monomial`` also sorts arbitrary legs, with their sign.  The arithmetic
    builds each result through the unchecked ``_form``; the coefficients
    form an integral domain, so no nonzero product vanishes.  A subclass
    gives its zero coefficient (``_zero_coeff``) and prints itself.
    """

    __slots__ = ("n", "p", "q", "terms")

    @property
    def coeffs(self) -> Mapping:
        return self.terms.mapping

    def __new__(cls, n: int, p: int, q: int, terms: Mapping = _EMPTY):
        clean = {}
        for (holo, anti), c in terms.items():
            key = holo, anti = tuple(holo), tuple(anti)
            if len(holo) != p or len(anti) != q:
                raise FormError(f"key {key} has wrong bidegree for ({p},{q})")
            # each leg tuple strictly increases within 1..n
            if not all(0 < x < y for legs in key
                       for x, y in zip(legs, legs[1:] + (n + 1,))):
                raise FormError(
                    f"legs of {key} must strictly increase within 1..{n}")
            if c:
                clean[key] = c
        return _form(cls, n, p, q, clean)

    def __reduce__(self):
        return type(self), (self.n, self.p, self.q, dict(self.terms))

    @classmethod
    def build(cls, n: int, p: int, q: int, terms: Mapping):
        return cls(n, p, q, terms)

    @classmethod
    def zero(cls, n: int, p: int, q: int):
        return _form(cls, n, p, q, {})

    @classmethod
    def monomial(cls, n: int, holo, anti, coeff):
        """coeff * theta^holo ^ thetabar^anti with legs in any order."""
        holo, anti = tuple(holo), tuple(anti)
        sign, key = normalize_key(holo, anti)
        if sign == 0:
            return _form(cls, n, len(holo), len(anti), {})
        return cls(n, len(holo), len(anti),
                   {key: coeff if sign == 1 else -coeff})

    def coeff(self, holo, anti):
        """Coefficient on an arbitrarily ordered leg list (sign included)."""
        sign, key = normalize_key(holo, anti)
        c = self.coeffs.get(key) if sign else None
        if c is None:
            return self._zero_coeff()
        return c if sign == 1 else -c

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return ((self.n, self.p, self.q) == (other.n, other.p, other.q)
                and self.terms == other.terms)

    def __hash__(self) -> int:
        return hash((self.n, self.p, self.q, frozenset(self.terms)))

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.n}, {self.p}, {self.q}, "
                f"{dict(sorted(self.terms))!r})")

    def _check_shape(self, o: "Form") -> None:
        if (type(o) is not type(self)
                or (self.n, self.p, self.q) != (o.n, o.p, o.q)):
            raise FormError(
                f"shape mismatch: ({self.p},{self.q}) vs ({o.p},{o.q})")

    def __add__(self, o: "Form") -> "Form":
        self._check_shape(o)
        if not self.terms:
            return o
        return _form(type(self), self.n, self.p, self.q,
                     _sum_terms(self.terms.mapping, o.terms.mapping))

    def __sub__(self, o: "Form") -> "Form":
        self._check_shape(o)
        return _form(type(self), self.n, self.p, self.q,
                     _sum_terms(self.terms.mapping, o.terms.mapping, -1))

    def __neg__(self) -> "Form":
        return _form(type(self), self.n, self.p, self.q,
                     {k: -v for k, v in self.terms})

    def scale(self, s) -> "Form":
        """Every coefficient times the coefficient-ring element s."""
        return _form(type(self), self.n, self.p, self.q,
                     {k: v * s for k, v in self.terms} if s else {})

    def wedge(self, o: "Form") -> "Form":
        if self.n != o.n:
            raise FormError("wedge of forms over different coframes")
        acc: dict = {}
        # crossing sign: o's holo block passes self's anti block
        cross = -1 if (o.p * self.q) % 2 else 1
        right = o.terms
        for (h1, a1), c1 in self.terms:
            for (h2, a2), c2 in right:
                sh, hh = _merge(h1, h2)
                if sh == 0:
                    continue
                sa, aa = _merge(a1, a2)
                if sa == 0:
                    continue
                v = c1 * c2
                _acc(acc, (hh, aa), v if sh * sa * cross == 1 else -v)
        return _form(type(self), self.n, self.p + o.p, self.q + o.q, acc)

    def conjugate(self) -> "Form":
        """Complex conjugate; a (p,q) form becomes a (q,p) form:
        conj(theta^h ^ thetabar^a) = thetabar^h ^ theta^a
                                   = (-1)^{pq} theta^a ^ thetabar^h."""
        odd = (self.p * self.q) % 2
        return _form(type(self), self.n, self.q, self.p,
                     {(a, h): -c.conjugate() if odd else c.conjugate()
                      for (h, a), c in self.terms})


_set_n, _set_p, _set_q, _set_terms = (
    getattr(Form, name).__set__ for name in Form.__slots__)


def _form(cls, n: int, p: int, q: int, terms: dict):
    """A ``cls`` form from a dict of nonzero terms with canonical keys that no
    one else holds."""
    x = _alloc(cls)
    _set_n(x, n)
    _set_p(x, p)
    _set_q(x, q)
    _set_terms(x, terms.items())
    return x


class InvariantForm(Form):
    """A scalar-valued invariant form of pure bidegree (p, q)."""

    __slots__ = ()

    @classmethod
    def monomial(cls, n: int, holo, anti, coeff: Scalar = S_ONE):
        return super().monomial(n, holo, anti, coeff)

    def _zero_coeff(self) -> Scalar:
        return S_ZERO

    def evaluate(self, vectors) -> Scalar:
        """Evaluate on complexified frame vectors.

        Each vector is a length-2n sequence of Scalars: components on
        (V_1..V_n, Vbar_1..Vbar_n), the frame dual to the coframe.
        """
        k = self.p + self.q
        if len(vectors) != k:
            raise FormError(f"need {k} vectors, got {len(vectors)}")
        total = S_ZERO
        for (h, a), c in self.terms:
            slots = [i - 1 for i in h] + [self.n + i - 1 for i in a]
            total = total + c * det([[v[s] for s in slots] for v in vectors],
                                    S_ONE)
        return total

    def __str__(self) -> str:
        """Terms in key order as ``(coefficient) legs``, with legs a^k and
        ab^k."""
        if not self.terms:
            return "0"
        bits = []
        for (h, a), c in sorted(self.terms):
            legs = [f"a^{i}" for i in h] + [f"ab^{i}" for i in a]
            mono = "^".join(legs) if legs else "1"
            bits.append(f"({c}) {mono}")
        return " + ".join(bits)


def _check_same(comps, n, p, q):
    for f in comps:
        if (f.n, f.p, f.q) != (n, p, q):
            raise FormError("component bidegree mismatch in tagged form")


class Valued:
    """Componentwise + - neg scale and bool over a tuple of components.

    The components are ``comps`` unless a subclass's ``_vals`` says
    otherwise; each supports the same operations (an invariant form, or a
    Valued itself), and a subclass rebuilds results through ``_like``.
    """

    __slots__ = ()

    def _vals(self) -> tuple:
        return self.comps

    def _like(self, vals: tuple):
        raise NotImplementedError

    def __add__(self, o):
        return self._like(tuple(map(add, self._vals(), o._vals())))

    def __sub__(self, o):
        return self._like(tuple(map(sub, self._vals(), o._vals())))

    def __neg__(self):
        return self._like(tuple(-x for x in self._vals()))

    def scale(self, s: Scalar):
        return self._like(tuple(x.scale(s) for x in self._vals()))

    def __bool__(self) -> bool:
        return any(self._vals())


@dataclass(frozen=True)
class LegForm(Valued):
    """An n-component value leg tensored with invariant (p,q)-forms."""

    n: int
    p: int
    q: int
    comps: Tuple[InvariantForm, ...]

    @classmethod
    def build(cls, n, p, q, comps):
        comps = tuple(comps)
        if len(comps) != n:
            raise FormError(f"{cls.__name__} needs n components")
        _check_same(comps, n, p, q)
        return cls(n, p, q, comps)

    @classmethod
    def zero(cls, n, p, q):
        return cls(n, p, q, (InvariantForm.zero(n, p, q),) * n)

    def _like(self, comps):
        return type(self)(self.n, self.p, self.q, comps)


class VectorForm(LegForm):
    """T^{1,0}-valued invariant (p,q)-form: comps[j-1] multiplies V_j."""


class CovectorForm(LegForm):
    """(T^{1,0})*-valued invariant (p,q)-form: comps[j-1] multiplies alpha^j."""


@dataclass(frozen=True)
class EndForm(Valued):
    """An r x r matrix of (p,q)-forms of either layer (invariant forms, or
    chart forms): ``flat`` holds the grid row by row, and ``entry(i, j)``
    reads it.  The products and the trace take their zero from the
    entries' class; ``zero`` builds the invariant zero."""

    n: int
    r: int
    p: int
    q: int
    flat: Tuple[Form, ...]

    @staticmethod
    def build(n, r, p, q, comps) -> "EndForm":
        grid = [tuple(row) for row in comps]
        if len(grid) != r or any(len(row) != r for row in grid):
            raise FormError("endomorphism-valued form needs an r x r grid")
        flat = tuple(f for row in grid for f in row)
        _check_same(flat, n, p, q)
        return EndForm(n, r, p, q, flat)

    @staticmethod
    def zero(n, r, p, q) -> "EndForm":
        return EndForm(n, r, p, q, (InvariantForm.zero(n, p, q),) * (r * r))

    @property
    def comps(self) -> Tuple[Tuple[Form, ...], ...]:
        """The grid as a tuple of rows, for readers that walk it by rows."""
        r = self.r
        return tuple(self.flat[i * r:(i + 1) * r] for i in range(r))

    def entry(self, i, j) -> Form:
        return self.flat[i * self.r + j]

    def _vals(self):
        return self.flat

    def _like(self, flat):
        return EndForm(self.n, self.r, self.p, self.q, flat)

    def _zero(self, p: int, q: int) -> Form:
        return type(self.flat[0]).zero(self.n, p, q)

    def mat_wedge(self, o: "EndForm") -> "EndForm":
        """Matrix product with entrywise wedge: (A ^ B)^i_j = A^i_k ^ B^k_j."""
        if self.r != o.r or self.n != o.n:
            raise FormError("shape mismatch in matrix wedge")
        r, p, q = self.r, self.p + o.p, self.q + o.q
        return EndForm(self.n, r, p, q, tuple(
            sum((self.entry(i, k).wedge(o.entry(k, j)) for k in range(r)),
                self._zero(p, q))
            for i in range(r) for j in range(r)))

    def trace(self) -> Form:
        return sum((self.entry(i, i) for i in range(self.r)),
                   self._zero(self.p, self.q))

    def is_trace_free(self) -> bool:
        return not self.trace()


def contract(v: LegForm, k: LegForm) -> InvariantForm:
    """Pair a vector leg against a covector leg (either may come first) and
    wedge the form parts in argument order."""
    if v.n != k.n:
        raise FormError("contract over different coframes")
    acc = InvariantForm.zero(v.n, v.p + k.p, v.q + k.q)
    for j in range(v.n):
        acc = acc + v.comps[j].wedge(k.comps[j])
    return acc


def end_pair_trace(a: EndForm, b: EndForm) -> Form:
    """tr(a ^ b) with entrywise wedge."""
    return a.mat_wedge(b).trace()


@dataclass(frozen=True)
class MixedForm:
    """A form of fixed total degree with components of several bidegrees.

    Exterior derivatives of pure forms live here: d maps (p,q) into
    (p+1,q) + (p,q+1), and on non-complex data a (p-1,q+2) or (p+2,q-1)
    part can appear too.
    """

    n: int
    degree: int
    parts: Tuple[Tuple[Tuple[int, int], InvariantForm], ...] = ()

    @staticmethod
    def build(n: int, degree: int, parts) -> "MixedForm":
        clean = {}
        for (p, q), f in dict(parts).items():
            if p + q != degree:
                raise FormError(f"part ({p},{q}) has wrong total degree")
            if f:
                clean[(p, q)] = f
        return MixedForm(n, degree, tuple(sorted(clean.items())))

    @staticmethod
    def of(f: InvariantForm) -> "MixedForm":
        return MixedForm.build(f.n, f.p + f.q, {(f.p, f.q): f})

    @staticmethod
    def zero(n: int, degree: int) -> "MixedForm":
        return MixedForm(n, degree)

    def part(self, p: int, q: int) -> InvariantForm:
        for key, f in self.parts:
            if key == (p, q):
                return f
        return InvariantForm.zero(self.n, p, q)

    def __bool__(self):
        return bool(self.parts)

    def __add__(self, other: "MixedForm") -> "MixedForm":
        if self.degree != other.degree:
            raise FormError("total degree mismatch")
        d = dict(self.parts)
        for key, f in other.parts:
            d[key] = d[key] + f if key in d else f
        return MixedForm.build(self.n, self.degree, d)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MixedForm(self.n, self.degree,
                         tuple((k, -f) for k, f in self.parts))

    def scale(self, s: Scalar) -> "MixedForm":
        return MixedForm.build(self.n, self.degree,
                               {k: f.scale(s) for k, f in self.parts})

    def wedge(self, other: "MixedForm") -> "MixedForm":
        out = {}
        for (p1, q1), f1 in self.parts:
            for (p2, q2), f2 in other.parts:
                key = (p1 + p2, q1 + q2)
                w = f1.wedge(f2)
                out[key] = out[key] + w if key in out else w
        return MixedForm.build(self.n, self.degree + other.degree, out)

    def conjugate(self) -> "MixedForm":
        return MixedForm.build(
            self.n, self.degree,
            {(q, p): f.conjugate() for (p, q), f in self.parts})

    def evaluate(self, vectors) -> Scalar:
        total = S_ZERO
        for _, f in self.parts:
            total = total + f.evaluate(vectors)
        return total
