"""Invariant (p,q)-form algebra over a fixed complex coframe.

A term is indexed by a pair of strictly increasing tuples (holo, anti) of
1-based coframe indices; the associated monomial is

    alpha^{h1} ^ ... ^ alpha^{hp} ^ abar^{a1} ^ ... ^ abar^{aq}

with all holomorphic legs to the left of the antiholomorphic ones.  Every
normalization sign is produced at this single point (``normalize_key``) so the
convention cannot drift between operators.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub
from typing import Dict, Iterable, Tuple

from .linalg import det
from .scalars import S_ONE, S_ZERO, Scalar

Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


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


def normalize_key(holo: Iterable[int], anti: Iterable[int]):
    """Canonical (sign, key) for an arbitrarily ordered leg list."""
    sh, h = sort_with_sign(holo)
    if sh == 0:
        return 0, ((), ())
    sa, a = sort_with_sign(anti)
    if sa == 0:
        return 0, ((), ())
    return sh * sa, (h, a)


@dataclass(frozen=True)
class InvariantForm:
    """A scalar-valued invariant form of pure bidegree (p, q)."""

    n: int
    p: int
    q: int
    terms: Tuple[Tuple[Key, Scalar], ...] = ()

    @staticmethod
    def build(n: int, p: int, q: int, terms: Dict[Key, Scalar]) -> "InvariantForm":
        clean = []
        for key in sorted(terms):
            holo, anti = key
            if len(holo) != p or len(anti) != q:
                raise FormError(f"key {key} has wrong bidegree for ({p},{q})")
            if any(not 1 <= i <= n for i in holo + anti):
                raise FormError(f"coframe index out of range in {key}")
            c = terms[key]
            if c:
                clean.append((key, c))
        return InvariantForm(n, p, q, tuple(clean))

    @staticmethod
    def zero(n: int, p: int, q: int) -> "InvariantForm":
        return InvariantForm(n, p, q)

    @staticmethod
    def monomial(n, holo, anti, coeff: Scalar = S_ONE) -> "InvariantForm":
        """Form coeff * alpha^holo ^ abar^anti with legs in any order."""
        sign, key = normalize_key(holo, anti)
        p, q = len(tuple(holo)), len(tuple(anti))
        if sign == 0:
            return InvariantForm.zero(n, p, q)
        c = coeff if sign == 1 else -coeff
        return InvariantForm.build(n, p, q, {key: c})

    def coeff(self, holo, anti) -> Scalar:
        """Coefficient on an arbitrarily ordered leg list (sign included)."""
        sign, key = normalize_key(holo, anti)
        if sign == 0:
            return S_ZERO
        for k, c in self.terms:
            if k == key:
                return c if sign == 1 else -c
        return S_ZERO

    def as_dict(self) -> Dict[Key, Scalar]:
        return dict(self.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _same_shape(self, other: "InvariantForm"):
        if (self.n, self.p, self.q) != (other.n, other.p, other.q):
            raise FormError(
                f"shape mismatch: ({self.p},{self.q}) vs ({other.p},{other.q})"
            )

    def __add__(self, other: "InvariantForm") -> "InvariantForm":
        self._same_shape(other)
        d = self.as_dict()
        for k, c in other.terms:
            d[k] = d.get(k, S_ZERO) + c
        return InvariantForm.build(self.n, self.p, self.q, d)

    def __sub__(self, other: "InvariantForm") -> "InvariantForm":
        return self + (-other)

    def __neg__(self) -> "InvariantForm":
        return InvariantForm(self.n, self.p, self.q,
                             tuple((k, -c) for k, c in self.terms))

    def scale(self, s: Scalar) -> "InvariantForm":
        if not s:
            return InvariantForm.zero(self.n, self.p, self.q)
        return InvariantForm(self.n, self.p, self.q,
                             tuple((k, c * s) for k, c in self.terms))

    def wedge(self, other: "InvariantForm") -> "InvariantForm":
        if self.n != other.n:
            raise FormError("wedge of forms over different coframes")
        p, q = self.p + other.p, self.q + other.q
        out: Dict[Key, Scalar] = {}
        # crossing sign: other's holo block passes self's anti block
        cross = -1 if (other.p * self.q) % 2 else 1
        for (h1, a1), c1 in self.terms:
            for (h2, a2), c2 in other.terms:
                sh, h = merge_with_sign(h1, h2)
                if sh == 0:
                    continue
                sa, a = merge_with_sign(a1, a2)
                if sa == 0:
                    continue
                s = sh * sa * cross
                c = c1 * c2
                key = (h, a)
                out[key] = out.get(key, S_ZERO) + (c if s == 1 else -c)
        return InvariantForm.build(self.n, p, q, out)

    def conjugate(self) -> "InvariantForm":
        """Complex conjugate; a (p,q) form becomes a (q,p) form."""
        out: Dict[Key, Scalar] = {}
        for (h, a), c in self.terms:
            # conj(alpha^h ^ abar^a) = abar^h ^ alpha^a
            #                        = (-1)^{|h||a|} alpha^a ^ abar^h
            sign = -1 if (len(h) * len(a)) % 2 else 1
            cc = c.conjugate()
            out[(a, h)] = cc if sign == 1 else -cc
        return InvariantForm.build(self.n, self.q, self.p, out)

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
        if not self.terms:
            return "0"
        bits = []
        for (h, a), c in self.terms:
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
    """Endomorphism-valued invariant (p,q)-form: ``flat`` holds the r x r
    grid row by row, and ``entry(i, j)`` reads it."""

    n: int
    r: int
    p: int
    q: int
    flat: Tuple[InvariantForm, ...]

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
    def comps(self) -> Tuple[Tuple[InvariantForm, ...], ...]:
        """The grid as a tuple of rows, for readers that walk it by rows."""
        r = self.r
        return tuple(self.flat[i * r:(i + 1) * r] for i in range(r))

    def entry(self, i, j) -> InvariantForm:
        return self.flat[i * self.r + j]

    def _vals(self):
        return self.flat

    def _like(self, flat):
        return EndForm(self.n, self.r, self.p, self.q, flat)

    def mat_wedge(self, o: "EndForm") -> "EndForm":
        """Matrix product with entrywise wedge: (A ^ B)^i_j = A^i_k ^ B^k_j."""
        if self.r != o.r or self.n != o.n:
            raise FormError("shape mismatch in matrix wedge")
        r = self.r
        out = []
        for i in range(r):
            for j in range(r):
                acc = InvariantForm.zero(self.n, self.p + o.p, self.q + o.q)
                for k in range(r):
                    acc = acc + self.entry(i, k).wedge(o.entry(k, j))
                out.append(acc)
        return EndForm(self.n, r, self.p + o.p, self.q + o.q, tuple(out))

    def trace(self) -> InvariantForm:
        acc = InvariantForm.zero(self.n, self.p, self.q)
        for i in range(self.r):
            acc = acc + self.entry(i, i)
        return acc

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


def end_pair_trace(a: EndForm, b: EndForm) -> InvariantForm:
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

    def as_dict(self):
        return dict(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __add__(self, other: "MixedForm") -> "MixedForm":
        if self.degree != other.degree:
            raise FormError("total degree mismatch")
        d = self.as_dict()
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
