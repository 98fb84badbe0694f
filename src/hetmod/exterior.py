"""Exterior (p,q)-form algebra for the invariant and the chart layer.

A term is indexed by a pair of strictly increasing tuples (holo, anti) of
1-based leg indices; the associated monomial is

    theta^{h1} ^ ... ^ theta^{hp} ^ thetabar^{a1} ^ ... ^ thetabar^{aq}

with all holomorphic legs to the left of the antiholomorphic ones.  One
class, ``Form``, implements their algebra for both layers, which differ
only in coefficients and printing: ``InvariantForm`` (coframe legs alpha^k,
``Scalar`` coefficients) and ``chartlocal.ChartForm`` (chart legs dz_k,
dzbar_k, ``Poly`` coefficients).  Every normalization sign of both layers
is produced here, from ``sort_with_sign`` and ``merge_with_sign``, so the
convention cannot drift between them: a new leg put in front of a form's
legs (``qcomplex._prepend``, the chart derivatives and couplings) takes its
sign from ``_merge``, the cached ``merge_with_sign``.

``Form`` and ``MixedForm`` (parts of several bidegrees, keyed by (p, q))
are ``scalars.Sparse`` term maps, as their ``Scalar`` coefficients are.
The gauge leg ``EndForm`` is an r x r grid of forms with componentwise
arithmetic (``Valued``), which the tests' vector and covector legs share.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from operator import add, sub

from .linalg import det
from .scalars import (S_ONE, S_ZERO, FormError, Record, Scalar, Sparse, _acc,
                      _make)


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


def merge_with_sign(left: tuple[int, ...], right: tuple[int, ...]):
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


def _legs(legs, count: int, n: int, key) -> tuple[int, ...]:
    """``legs`` as a tuple, checked to be ``count`` strictly increasing legs
    within 1..n; ``key`` names the term in the error."""
    legs = tuple(legs)
    if len(legs) != count or not all(
            0 < x < y for x, y in zip(legs, legs[1:] + (n + 1,))):
        raise FormError(f"key {key} needs {count} strictly increasing legs "
                        f"within 1..{n}")
    return legs


class Form(Sparse):
    """A form of pure bidegree (p, q) over n legs, keyed by (holo, anti)
    leg tuples.

    ``monomial`` also sorts arbitrary legs, with their sign.  A subclass
    gives its zero coefficient (``_zero_coeff``) and prints itself.
    """

    __slots__ = ()
    _fields = ("n", "p", "q")

    @staticmethod
    def _key(shape, key, value):
        n, p, q = shape
        holo, anti = key
        return _legs(holo, p, n, key), _legs(anti, q, n, key)

    @classmethod
    def monomial(cls, n: int, holo, anti, coeff):
        """coeff * theta^holo ^ thetabar^anti with legs in any order."""
        holo, anti = tuple(holo), tuple(anti)
        sign, key = normalize_key(holo, anti)
        if sign == 0:
            return cls.zero(n, len(holo), len(anti))
        return cls(n, len(holo), len(anti),
                   {key: coeff if sign == 1 else -coeff})

    def coeff(self, holo, anti):
        """Coefficient on an arbitrarily ordered leg list (sign included)."""
        sign, key = normalize_key(holo, anti)
        c = self.coeffs.get(key) if sign else None
        if c is None:
            return self._zero_coeff()
        return c if sign == 1 else -c

    def wedge(self, o: "Form") -> "Form":
        n, p, q = self.shape
        if n != o.n:
            raise FormError("wedge of forms over different coframes")
        acc: dict = {}
        # crossing sign: o's holo block passes self's anti block
        cross = -1 if (o.p * q) % 2 else 1
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
        return _make(type(self), (n, p + o.p, q + o.q), acc)

    def derivation(self, d_holo, d_anti) -> "MixedForm":
        """The degree-one derivation D that sends theta^k to the 2-form
        whose ((holo, anti), value) terms are d_holo[k-1], and thetabar^k
        to d_anti[k-1], by the Leibniz rule on the legs l_1..l_{p+q}:

            D(l_1 ^ ... ^ l_k) = sum_i (-1)^(i-1) D(l_i) ^ (the other legs),

        with the even D(l_i) moved to the front.  Each term is merged with
        the other legs, crossing sign (-1)^{|anti(D l_i)| |holo(rest)|}
        included, straight into the parts of the result."""
        n, p, q = self.shape
        parts: dict = {}
        for (holo, anti), c in self.terms:
            legs = holo + anti
            for i, leg in enumerate(legs):
                rest, k = legs[:i] + legs[i + 1:], p - (i < p)
                rh, ra = rest[:k], rest[k:]
                for (h2, a2), v in (d_holo if i < p else d_anti)[leg - 1]:
                    sh, hh = _merge(h2, rh)
                    if sh == 0:
                        continue
                    sa, aa = _merge(a2, ra)
                    if sa == 0:
                        continue
                    odd = (i + len(a2) * len(rh)) % 2
                    _acc(parts.setdefault((len(hh), len(aa)), {}), (hh, aa),
                         c * v if (sh * sa == 1) != odd else -(c * v))
        return _make(MixedForm, (n, p + q + 1), {
            k: _make(type(self), (n,) + k, t) for k, t in parts.items() if t})

    def conjugate(self) -> "Form":
        """Complex conjugate; a (p,q) form becomes a (q,p) form:
        conj(theta^h ^ thetabar^a) = thetabar^h ^ theta^a
                                   = (-1)^{pq} theta^a ^ thetabar^h."""
        n, p, q = self.shape
        odd = (p * q) % 2
        return _make(type(self), (n, q, p),
                     {(a, h): -c.conjugate() if odd else c.conjugate()
                      for (h, a), c in self.terms})


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


class EndForm(Valued, Record):
    """An r x r matrix of (p,q)-forms of either layer (invariant forms, or
    chart forms): ``flat`` holds the grid row by row, and ``entry(i, j)``
    reads it.  The products and the trace take their zero from the
    entries' class; ``zero`` builds the invariant zero."""

    n: int
    r: int
    p: int
    q: int
    flat: tuple[Form, ...]

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
    def comps(self) -> tuple[tuple[Form, ...], ...]:
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


def end_pair_trace(a: EndForm, b: EndForm) -> Form:
    """tr(a ^ b) with entrywise wedge."""
    return a.mat_wedge(b).trace()


class MixedForm(Sparse):
    """A form of fixed total degree with parts of several bidegrees: a term
    map (p, q) -> nonzero invariant (p,q)-form, whose pairs ``parts`` also
    names.  The parts keep insertion order, so printing sorts them.

    Exterior derivatives of pure forms live here: d maps (p,q) into
    (p+1,q) + (p,q+1), and on non-complex data a (p-1,q+2) or (p+2,q-1)
    part can appear too.
    """

    __slots__ = ()
    _fields = ("n", "degree")
    parts = property(lambda self: self.terms)

    @staticmethod
    def _key(shape, key, f):
        n, degree = shape
        p, q = key
        if p + q != degree or (f.n, f.p, f.q) != (n, p, q):
            raise FormError(f"part ({p},{q}) does not fit degree {degree} "
                            f"over {n} legs")
        return p, q

    @staticmethod
    def of(f: InvariantForm) -> "MixedForm":
        return _make(MixedForm, (f.n, f.p + f.q), {(f.p, f.q): f} if f else {})

    def part(self, p: int, q: int) -> InvariantForm:
        f = self.coeffs.get((p, q))
        return InvariantForm.zero(self.n, p, q) if f is None else f

    def scale(self, s: Scalar) -> "MixedForm":
        return _make(MixedForm, self.shape,
                     {k: f.scale(s) for k, f in self.terms} if s else {})

    def wedge(self, other: "MixedForm") -> "MixedForm":
        out: dict = {}
        for (p1, q1), f1 in self.terms:
            for (p2, q2), f2 in other.terms:
                _acc(out, (p1 + p2, q1 + q2), f1.wedge(f2))
        return _make(MixedForm, (self.n, self.degree + other.degree), out)

    def conjugate(self) -> "MixedForm":
        return _make(MixedForm, self.shape,
                     {(q, p): f.conjugate() for (p, q), f in self.terms})

    def evaluate(self, vectors) -> Scalar:
        total = S_ZERO
        for _, f in self.terms:
            total = total + f.evaluate(vectors)
        return total
