"""Polynomial chart calculus and the local triangular trivialization.

On models that declare a polynomial coordinate chart (coordinates z_1..z_m
with the invariant coframe pulled back to polynomial 1-forms), this module
provides:

* exact polynomial forms in z, zbar with exterior derivative and Dolbeault
  split,
* a radial homotopy solving dbar(eta) = x for dbar-closed polynomial forms,
* Chern-Simons 3-forms and their transgression identity,
* the unipotent section phi of End(Q) built from a gauge potential A, the
  coordinate connection potential Gamma and a potential tau for the torsion,
  with the conjugation identity  D = phi^{-1} o dbar o phi  checkable on
  polynomial sections,
* transitions phi_1 o phi_2^{-1} between three potential choices, which
  ``build_trivialization`` defines on every chart and rank, run through
  the same phi and phi^{-1} ops as the identity, with a holomorphy check
  and a cocycle check, phi_1 phi_2^{-1} phi_2 phi_3^{-1} = phi_1 phi_3^{-1},
  that holds only where each phi^{-1} table inverts its phi.

A chart's pullbacks, sums of ``[coefficient] [z<k> ...] dz<k>``, are read
by ``scalars.read_terms``, so a coefficient is written as a model constant.

Representation.  ``Poly``, ``ChartForm`` and ``ChartSection`` are
``scalars.Sparse`` term maps, so they share one container with the
invariant forms and scalars: no zero is ever stored, ``terms`` is a
read-only view of the (key, value) pairs and ``coeffs`` the mapping behind
it, ``bool`` is emptiness, ``==`` and ``hash`` ignore insertion order,
``+ - neg scale``, copy and pickle are the base's, and terms are sorted
only for printing.
``Poly`` and ``ChartForm`` nest (monomial -> GaussRat, leg key -> Poly),
and ``ChartForm`` is an ``exterior.Form``, so its leg signs are those of
the invariant forms; a new leg from a derivative or a coupling takes its
sign from ``exterior._merge``, as ``qcomplex._prepend``'s does.  A
``ChartSection`` is flat: (slot, dzbar legs, z exponents, zbar exponents)
-> GaussRat.  The public constructors and ``build`` validate what they are
given; everything else builds each result in one pass through the
unchecked ``scalars._make`` and never sorts.

Operators on sections.  On a monomial section e_k z^x zbar^y dzbar^L, a
coupling multiplies by a fixed monomial, which shifts (x, y), and dbar or
the nabla^+ derivative brings down a factor y_j + eps_j or x_d + delta_d,
where eps and delta are the shifts of the steps before.  So D, phi,
phi^{-1}, dbar and the residual D - phi^{-1} dbar phi are, for each slot
and legs (k, L), finite tables of (target slot, legs, z shift, zbar shift,
Poly in (x, y)): a Poly's z and zbar exponents stand for x and y.  Each is
made once per ``Trivialization`` by running the flat coupling tables on the
generic term map {(k, L, 0, 0): 1}, and is evaluated at the exponents of
every section it meets.  An empty residual table proves the identity on
every section of its slot at once, so ``operator_identity_report``
evaluates only the sections that touch a nonempty one.
"""

from __future__ import annotations

from collections.abc import Mapping
import itertools
from functools import lru_cache, partial
from math import prod
from operator import add
from types import MappingProxyType as _frozen

from .exterior import EndForm, Form, _legs, _merge, end_pair_trace
from .geometry import (
    HomogeneousModel,
    ModelError,
    bismut,
    chern_connection,
    resolve_alpha,
    torsion,
)
from .linalg import det
from .qcomplex import _offsets, fibre_basis
from .scalars import (GR_ONE, GR_ZERO, FormError, GaussRat, Record,
                      ScalarError, Sparse, _acc, _make, _sum_terms,
                      read_terms, term_lexer)

Exp = tuple[int, ...]
PKey = tuple[Exp, Exp]
Legs = tuple[tuple[int, ...], tuple[int, ...]]

_EMPTY: Mapping = _frozen({})

# the caches below are keyed by exponents and leg tuples, so their size is
# bounded by the polynomial degree and the chart dimension
_int = lru_cache(maxsize=None)(GaussRat.of)      # small exact integers


# ---------------------------------------------------------------------------
# polynomials in z and zbar


class Poly(Sparse):
    """Polynomial in z_1..z_m, zbar_1..zbar_m with Gaussian rational
    coefficients: a ``scalars.Sparse`` term map (z exponents, zbar
    exponents) -> GaussRat, so the zero polynomial has no terms.
    """

    __slots__ = ()
    _fields = ("m",)

    @staticmethod
    def _key(shape, key, value):
        (m,) = shape
        a, b = key
        if len(a) != m or len(b) != m:
            raise FormError("polynomial exponent tuple of wrong length")
        return tuple(a), tuple(b)

    @staticmethod
    def const(m: int, c: GaussRat) -> "Poly":
        z = (0,) * m
        return _make(Poly, (m,), {(z, z): c} if c else {})

    @staticmethod
    def coord(m: int, k: int, anti: bool = False) -> "Poly":
        z = [0] * m
        z[k] = 1
        zero = (0,) * m
        key = (zero, tuple(z)) if anti else (tuple(z), zero)
        return _make(Poly, (m,), {key: GR_ONE})

    def __mul__(self, o: "Poly") -> "Poly":
        acc: dict[PKey, GaussRat] = {}
        right = o.terms
        for (a1, b1), c1 in self.terms:
            for (a2, b2), c2 in right:
                _acc(acc, (tuple(map(add, a1, a2)), tuple(map(add, b1, b2))),
                     c1 * c2)
        return _make(Poly, self.shape, acc)

    def conjugate(self) -> "Poly":
        return _make(Poly, self.shape, {(b, a): c.conjugate()
                                        for (a, b), c in self.terms})

    def diff(self, k: int, anti: bool = False) -> "Poly":
        """d/dz_k, or d/dzbar_k with ``anti``."""
        out = {}
        for key, c in self.terms:
            x = key[anti]
            e = x[k]
            if e:
                x = x[:k] + (e - 1,) + x[k + 1:]
                out[(key[0], x) if anti else (x, key[1])] = (
                    c if e == 1 else c * _int(e))
        return _make(Poly, self.shape, out)

    def evaluate(self, x: Exp, y: Exp) -> GaussRat:
        """The value at the integer point z = x, zbar = y."""
        return sum((c * _int(prod(v ** e for v, e in zip(x + y, a + b)))
                    for (a, b), c in self.terms), GR_ZERO)

    def is_holomorphic(self) -> bool:
        return not any(any(b) for (_, b), _ in self.terms)

    def antiholomorphic_split(self):
        """Group terms by total zbar-degree: {degree: Poly}."""
        parts: dict[int, dict[PKey, GaussRat]] = {}
        for (a, b), c in self.terms:
            parts.setdefault(sum(b), {})[(a, b)] = c
        return {d: _make(Poly, self.shape, t) for d, t in parts.items()}

    def __str__(self) -> str:
        """``(coefficient)monomial`` terms in key order, z_k and zbar_k
        written z<k> and zb<k> as in model files."""
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in sorted(self.terms):
            mono = "".join(f"z{k + 1}^{e}" if e > 1 else f"z{k + 1}"
                           for k, e in enumerate(a) if e)
            mono += "".join(f"zb{k + 1}^{e}" if e > 1 else f"zb{k + 1}"
                            for k, e in enumerate(b) if e)
            bits.append(f"({c}){mono}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# polynomial-coefficient forms


class ChartForm(Form):
    """A (p,q)-form on the chart z_1..z_n with Poly coefficients: the legs
    are dz_k and dzbar_k, and ``exterior.Form`` does the algebra."""

    __slots__ = ()

    def _zero_coeff(self) -> Poly:
        return Poly.zero(self.n)

    @staticmethod
    def func(f: Poly) -> "ChartForm":
        return _make(ChartForm, (f.m, 0, 0), {((), ()): f} if f else {})

    def scale_poly(self, f: Poly) -> "ChartForm":
        return _make(ChartForm, self.shape,
                     {k: v * f for k, v in self.terms} if f else {})

    def scale(self, c: GaussRat) -> "ChartForm":
        return _make(ChartForm, self.shape,
                     {k: v.scale(c) for k, v in self.terms} if c else {})

    def __str__(self) -> str:
        """Terms in key order as ``[coefficient] legs``; the legs print
        dzbar_k as dzb<k>, as model files write it."""
        if not self.terms:
            return "0"
        bits = []
        for (h, a), c in sorted(self.terms):
            legs = "^".join([f"dz{k}" for k in h] + [f"dzb{k}" for k in a])
            bits.append(f"[{c}] {legs}" if legs else f"[{c}]")
        return " + ".join(bits)


def _derivative(x: ChartForm, anti: bool) -> ChartForm:
    """partial (anti=False) or dbar (anti=True) of a chart form: each new
    leg dz_k or dzbar_k enters at the front of its leg group, and a dzbar
    leg then passes the p dz legs."""
    acc: dict[Legs, Poly] = {}
    flip = anti and x.p % 2
    for (h, a), c in x.terms:
        for k in range(x.n):
            sign, legs = _merge((k + 1,), a if anti else h)
            if not sign:
                continue
            d = c.diff(k, anti)
            _acc(acc, (h, legs) if anti else (legs, a),
                 -d if (sign == -1) != flip else d)
    return _make(ChartForm, (x.n, x.p + (not anti), x.q + anti), acc)


def partial_chart(x: ChartForm) -> ChartForm:
    return _derivative(x, anti=False)


def dbar_chart(x: ChartForm) -> ChartForm:
    return _derivative(x, anti=True)


def d_chart(x: ChartForm) -> tuple[ChartForm, ChartForm]:
    return partial_chart(x), dbar_chart(x)


def dbar_homotopy(x: ChartForm) -> ChartForm:
    """A radial primitive: for dbar-closed x of antiholomorphic form degree
    q >= 1, returns eta with dbar(eta) = x.

    The operator contracts with the antiholomorphic Euler vector field and
    divides each zbar-homogeneous piece by its weight.
    """
    if x.q < 1:
        raise FormError("a primitive needs antiholomorphic degree >= 1")
    acc: dict[Legs, Poly] = {}
    psign = -1 if x.p % 2 else 1
    for (h, a), c in x.terms:
        for d, part in c.antiholomorphic_split().items():
            w = GaussRat.of(f"1/{d + x.q}")
            for v, leg in enumerate(a):
                zbar = Poly.coord(x.n, leg - 1, anti=True)
                sign = psign if v % 2 == 0 else -psign
                coeff = (part * zbar).scale(w if sign == 1 else -w)
                _acc(acc, (h, a[:v] + a[v + 1:]), coeff)
    return _make(ChartForm, (x.n, x.p, x.q - 1), acc)


# ---------------------------------------------------------------------------
# chart data derived from a model


# a pullback's symbols are words: z<k> and dz<k> are read, and any other
# word is refused by name
_PULLBACK = term_lexer(r"[^\W\d]\w*")


def _pullback_key(m: int, symbols: tuple[str, ...]) -> tuple[Exp, int]:
    """The z exponents and the leg k of a term's symbols z<k> and dz<k>."""
    z, leg = [0] * m, None
    for s in symbols:
        name = "dz" if s.startswith("dz") else "z"
        if name == "dz" and leg is not None:
            raise ScalarError("two coframe legs")
        try:
            k = int(s.removeprefix(name)) if s.startswith(name) else None
        except ValueError:
            k = None
        if k is None:
            raise ScalarError(f"cannot read {s!r}")
        if not 1 <= k <= m:
            raise ScalarError(f"{s!r} is out of range")
        if name == "z":
            z[k - 1] += 1
        else:
            leg = k
    if leg is None:
        raise ScalarError("no coframe leg")
    return tuple(z), leg


def _parse_one_form(m: int, name: str, text: str) -> tuple[Poly, ...]:
    """The pullback of coframe leg ``name``, a written sum (see
    ``scalars.read_terms``) such as '-dz3 + z1 dz2', as the polynomial
    coefficient of each dz<k>."""
    try:
        terms = read_terms(text, _PULLBACK, partial(_pullback_key, m))
    except ScalarError as exc:
        raise ModelError(
            f"chart.coframe_pullback.{name}: {exc}; a term is [coefficient] "
            f"[z<k> ...] dz<k> with 1 <= k <= {m}, and zb<k> is not read "
            "yet") from None
    row = [{} for _ in range(m)]
    zero = (0,) * m
    for (z, leg), c in terms.items():
        row[leg - 1][z, zero] = c
    return tuple(_make(Poly, (m,), t) for t in row)


def _flat_table(entries) -> dict:
    """Couplings ``(source slot, target slot, coefficient, factor)`` as
    {source: ((target, legs, z, zbar, c), ...)}: the coefficient, a function
    (Poly) or a (0,1)-form, is split into its monomial terms, each times
    the factor; terms that meet on the same target are added."""
    acc: dict = {}
    for src, dst, f, k in entries:
        forms = f.terms if isinstance(f, ChartForm) else ((((), ()), f),)
        for (_, legs), poly in forms:
            for (z, zb), c in poly.terms:
                _acc(acc.setdefault(src, {}), (dst, legs, z, zb), c * k)
    return {src: tuple(key + (c,) for key, c in t.items())
            for src, t in acc.items() if t}


class ChartData(Record):
    """Everything the trivialization needs, in chart coordinates.

    The component arrays are derived from the torsion, curvature and
    Christoffel data (``_derive``), and so is ``nabla_table``, the flat
    table (see ``_flat_table``) of the torsion-shifted derivative
    (nabla_c w)_a += GammaPlus_c[a][b] w_b in the directions ``nabla_dirs``
    that the R and Gamma couplings read.  They are made again whenever a
    ChartData is made, ``replace`` included, and ``replace`` refuses
    their names.
    """

    m_coords: int
    n: int
    rank: int
    # P[i][a]: alpha^{i+1} = sum_a P[i][a] dz^{a+1} (holomorphic Poly)
    P: tuple[tuple[Poly, ...], ...]
    Q: tuple[tuple[Poly, ...], ...]       # inverse: V_k = sum_a Q[a][k] d/dz_a
    T_chart: ChartForm                    # torsion (2,1) in chart coordinates
    F_chart: tuple[tuple[ChartForm, ...], ...]   # gauge curvature entries
    Gamma: tuple                          # Gamma[c][a][b] Poly ((1,0) Chern)
    GammaPlus: tuple                      # coordinate torsion-shifted blocks
    Tcomp: list
    Fcomp: list
    Rcomp: list
    nabla_dirs: tuple[int, ...]
    nabla_table: dict
    _derived = ("Tcomp", "Fcomp", "Rcomp", "nabla_dirs", "nabla_table")

    def _derive(self) -> dict:
        mc, r = self.m_coords, self.rank
        ms = range(mc)
        R = _gamma_r_components(mc, self.Gamma)
        trip = list(itertools.product(ms, repeat=3))
        dirs = tuple(sorted({c for j, b, c in trip if R[j][b][c]}
                            | {c for a, c, b in trip if self.Gamma[a][c][b]}))
        _, w0, n0 = _offsets(mc, r)
        # T = sum_{l<j} dz^l ^ dz^j ^ T_{lj}, antisymmetric in l, j
        T = [_split_front(x) for x in _split_front(self.T_chart)]
        return dict(
            Tcomp=[[T[l][j] - T[j][l] for j in ms] for l in ms],
            Fcomp=_split_front(self.F_chart), Rcomp=R,
            nabla_dirs=dirs,
            nabla_table=_flat_table(
                (w0 + b, n0 + c * mc + a, self.GammaPlus[c][a][b], GR_ONE)
                for c in dirs for a in ms for b in ms))


def _poly_matrix_inverse(P, m_coords: int):
    """Exact inverse of a polynomial matrix whose determinant is a nonzero
    constant (adjugate divided by the constant determinant)."""
    k = len(P)
    one = Poly.const(m_coords, GR_ONE)
    det_P = det([list(r) for r in P], one)
    const = det_P.coeffs
    zkey = ((0,) * m_coords, (0,) * m_coords)
    if set(const) != {zkey}:
        raise ModelError(
            f"chart.coframe_pullback: det P = {det_P} is not a nonzero "
            "constant, so the pullbacks are not a coframe")
    dinv = GR_ONE / const[zkey]

    def cofactor(i, j):
        minor = [[P[r][c] for c in range(k) if c != i]
                 for r in range(k) if r != j]
        return det(minor, one).scale(dinv if (i + j) % 2 == 0 else -dinv)
    return tuple(tuple(cofactor(i, j) for j in range(k)) for i in range(k))


def invariant_to_chart(coframe, f) -> ChartForm:
    """Substitute the invariant coframe by its chart pullback: ``coframe``
    holds the chart 1-forms of alpha^1..alpha^n, then of abar^1..abar^n."""
    n, mc = f.n, coframe[0].n
    acc = ChartForm.zero(mc, f.p, f.q)
    for (holo, anti), c in f.terms:
        if c.degree > 0:
            raise ModelError("chart pullback of a coupling-dependent form")
        piece = ChartForm.func(Poly.const(mc, c.coefficient(0)))
        for i in holo + tuple(n + a for a in anti):
            piece = piece.wedge(coframe[i - 1])
        acc = acc + piece
    return acc


def chart_data(m: HomogeneousModel) -> ChartData:
    def build():
        if not m.chart:
            raise ModelError(f"model {m.name} declares no polynomial chart")
        mc = int(m.chart["coords"])
        if mc != m.n:
            raise ModelError("chart must have as many coordinates as the "
                             "complex dimension")
        pullback = m.chart["coframe_pullback"]
        for name in m.coframe_names:
            if name not in pullback:
                raise ModelError(f"chart pullback missing for {name}")
        Pt = tuple(_parse_one_form(mc, name, pullback[name])
                   for name in m.coframe_names)
        Q = _poly_matrix_inverse(Pt, mc)
        pull = [ChartForm.build(mc, 1, 0, {((a + 1,), ()): c
                                           for a, c in enumerate(row)})
                for row in Pt]
        coframe = pull + [x.conjugate() for x in pull]
        # d of each pulled-back a_k is the pullback of d a_k, part by part
        for name, a_k, d in zip(m.coframe_names, pull, m.d_coframe):
            for part, deriv in (((2, 0), partial_chart), ((1, 1), dbar_chart)):
                res = deriv(a_k) - invariant_to_chart(coframe, d.part(*part))
                if res:
                    raise ModelError(
                        f"chart.coframe_pullback.{name} breaks the structure "
                        f"equations: d of the pullback minus the pullback of "
                        f"d {name} has ({part[0]},{part[1]}) part {res}")
        T_chart = invariant_to_chart(coframe, torsion(m))
        F_chart = tuple(
            tuple(invariant_to_chart(coframe, m.curvature_F.entry(i, j))
                  for j in range(m.rank))
            for i in range(m.rank)
        )

        def chart_gamma(gamma_inv):
            # nabla_{d/dz_c} d/dz_b = Gamma[c][a][b] d/dz_a with
            # d/dz_b = sum_i P[i][b] V_i and nabla_{V_j} V_i given by gamma
            out = [[[Poly.zero(mc) for _ in range(mc)] for _ in range(mc)]
                   for _ in range(mc)]
            for c in range(mc):
                for b in range(mc):
                    vcomp = [Poly.zero(mc) for _ in range(m.n)]
                    for k in range(m.n):
                        vcomp[k] = vcomp[k] + Pt[k][b].diff(c)
                    for j in range(m.n):
                        for i in range(m.n):
                            if not Pt[j][c] or not Pt[i][b]:
                                continue
                            prod = Pt[j][c] * Pt[i][b]
                            for k in range(m.n):
                                g = gamma_inv[j][k][i]
                                if g:
                                    vcomp[k] = vcomp[k] + prod.scale(g)
                    for k in range(m.n):
                        if not vcomp[k]:
                            continue
                        for a in range(mc):
                            if Q[a][k]:
                                out[c][a][b] = (out[c][a][b]
                                                + vcomp[k] * Q[a][k])
            return tuple(tuple(tuple(r) for r in g) for g in out)

        return ChartData(mc, m.n, m.rank, Pt, Q, T_chart, F_chart,
                         chart_gamma(chern_connection(m).gamma),
                         chart_gamma(bismut(m).gamma))
    return m.cached("chart_data", build)


# ---------------------------------------------------------------------------
# Chern-Simons form


def _end(grid) -> EndForm:
    """A nested r x r list of chart forms as an ``EndForm``."""
    f = grid[0][0]
    return EndForm.build(f.n, len(grid), f.p, f.q, grid)


def chern_simons(A) -> tuple[ChartForm, ChartForm]:
    """tr(A ^ dA + 2/3 A ^ A ^ A) for a matrix of (1,0)-form potentials,
    returned as its (3,0) part tr(A ^ del A) + 2/3 tr(A ^ A ^ A) and its
    (2,1) part tr(A ^ dbar A)."""
    dA = _end([[partial_chart(f) for f in row] for row in A])
    dbarA = _end([[dbar_chart(f) for f in row] for row in A])
    A = _end(A)
    cubic = A.mat_wedge(A).mat_wedge(A).trace()
    return (end_pair_trace(A, dA) + cubic.scale(GaussRat.of("2/3")),
            end_pair_trace(A, dbarA))


def cs_transgression_residual(A, F) -> tuple[ChartForm, ...]:
    """d CS(A) - tr(F ^ F), returned by bidegree; zero when F = dbar A and
    the (2,0)-part of the curvature of A vanishes for the model at hand."""
    cs30, cs21 = chern_simons(A)
    d30 = d_chart(cs30)
    d21 = d_chart(cs21)
    F = _end(F)
    res22 = d21[1] - end_pair_trace(F, F)
    res31 = d30[1] + d21[0]
    res40 = d30[0]
    return res40, res31, res22


# ---------------------------------------------------------------------------
# the trivialization


class Trivialization(Record):
    """A potential pair (A, tau) together with the chart data and coupling.

    The A components and the flat coupling tables (see ``_flat_table``) of
    the operators on sections are derived from A, tau, alpha and the chart
    data (``_derive``), and the exponent tables start empty.  They are made
    again whenever a Trivialization is made, so a copy made with
    ``replace`` stays consistent, and ``replace`` refuses their names.  The
    coefficients already carry alpha' and the sign.
    """

    model_name: str
    alpha: GaussRat
    cd: ChartData
    A: tuple[tuple[ChartForm, ...], ...]      # (1,0)-form gauge potential
    tau: tuple[tuple[Poly, ...], ...]         # tau[a][b] functions
    Acomp: list
    # the couplings of D: kappa_j += alpha' F_j[u][v] ^ gamma_vu,
    # gamma_uv += F_l[u][v] ^ w_l, kappa_j += T_lj ^ w_l and
    # kappa_j += alpha' R_j[b][c] ^ (nabla_c w)_b
    D_table: dict
    # phi (s = 1) and phi^{-1} (s = -1) are the identity plus
    # gamma_uv -= s A_a[u][v] w_a, kappa_a -= s alpha' A_a[u][v] gamma_vu,
    # kappa_a += s tau_ab w_b, kappa_a += s alpha' Gamma_a[c][b] (nabla_c w)_b
    # and, in phi^{-1} only, kappa_a += alpha' tr(A_a A_d) w_d
    phi_table: dict
    phi_inv_table: dict
    # the section operators' exponent tables (see ``_evaluate``)
    op_tables: dict
    _derived = ("Acomp", "D_table", "phi_table", "phi_inv_table",
                "op_tables")

    def _derive(self) -> dict:
        cd, al = self.cd, self.alpha
        mc, r = cd.m_coords, cd.rank
        ms, rs = range(mc), range(r)
        g0, w0, n0 = _offsets(mc, r)
        A = _a_components(self.A)
        F, G = cd.Fcomp, cd.Gamma
        gauge = [(a, u, v) for a in ms for u in rs for v in rs]
        trip = list(itertools.product(ms, repeat=3))
        D = _flat_table(itertools.chain(
            ((g0 + v * r + u, j, F[j][u][v], al) for j, u, v in gauge),
            ((w0 + j, g0 + u * r + v, F[j][u][v], GR_ONE)
             for j, u, v in gauge),
            ((w0 + l, j, cd.Tcomp[l][j], GR_ONE) for l in ms for j in ms),
            ((n0 + c * mc + b, j, cd.Rcomp[j][b][c], al)
             for j, b, c in trip)))

        def phi(s: GaussRat):
            return _flat_table(itertools.chain(
                ((w0 + a, g0 + u * r + v, A[a][u][v], -s)
                 for a, u, v in gauge),
                ((g0 + v * r + u, a, A[a][u][v], -(al * s))
                 for a, u, v in gauge),
                ((w0 + b, a, self.tau[a][b], s) for a in ms for b in ms),
                ((n0 + c * mc + b, a, G[a][c][b], al * s)
                 for a, c, b in trip),
                ((w0 + d, a, A[a][u][v] * A[d][v][u], al)
                 for a, u, v in gauge for d in ms if s != GR_ONE)))

        return dict(Acomp=A, D_table=D, phi_table=phi(GR_ONE),
                    phi_inv_table=phi(-GR_ONE), op_tables={})


def _split_front(x):
    """The x_a of x = sum_a dz^a ^ x_a, as [x_1, .., x_mc]: for a chart
    form, its terms grouped by their first dz leg with that leg taken off;
    for a (nested) list of chart forms, entry by entry, with a first."""
    if isinstance(x, ChartForm):
        parts: list[dict] = [{} for _ in range(x.n)]
        for (h, a), c in x.terms:
            parts[h[0] - 1][(h[1:], a)] = c
        return [_make(ChartForm, (x.n, x.p - 1, x.q), t) for t in parts]
    return list(zip(*map(_split_front, x)))


def _a_components(A):
    """A_a[u][v] as functions: A = sum_a dz^a A_a."""
    return [[[f.coeff((), ()) for f in row] for row in Aa]
            for Aa in _split_front(A)]


def _gamma_r_components(mc: int, Gamma):
    """R_d[c][b] = dbar of the Gamma coefficients, as (0,1)-forms keyed by
    the dz^d front leg (zero whenever Gamma is holomorphic)."""
    return [[[dbar_chart(ChartForm.func(Gamma[d][c][b])) for b in range(mc)]
             for c in range(mc)] for d in range(mc)]


def build_trivialization(m: HomogeneousModel,
                         alpha0: GaussRat | None = None,
                         shift: int = 0) -> Trivialization:
    """Solve for the potentials A (dbar A = F) and tau (torsion potential)
    by the radial homotopy.  `shift` s adds s times a fixed pair with
    dbar = 0: the trace-free (z1 dz2 - z2 dz1)(E11 - E22) on A, before tau
    is solved, when mc and the rank are at least 2, and z1 z_mc (E12 - E21)
    on tau, or z1^2 when mc = 1.  The tau part is never 0, so the shifts 0,
    1 and 2 give three distinct potential pairs."""
    cd = chart_data(m)
    a0 = resolve_alpha(m, alpha0)
    mc, r = cd.m_coords, cd.rank
    s = GaussRat.of(shift)
    A = [[dbar_homotopy(cd.F_chart[u][v]) if cd.F_chart[u][v]
          else ChartForm.zero(mc, 1, 0) for v in range(r)] for u in range(r)]
    if mc > 1 and r > 1:
        mod = (ChartForm.monomial(mc, (2,), (), Poly.coord(mc, 0).scale(s))
               - ChartForm.monomial(mc, (1,), (), Poly.coord(mc, 1).scale(s)))
        A[0][0] = A[0][0] + mod
        A[1][1] = A[1][1] - mod
    Acomp = _a_components(A)
    tau = [[Poly.zero(mc) for _ in range(mc)] for _ in range(mc)]
    for a in range(mc):
        for b in range(mc):
            rhs = _tau_rhs(cd, Acomp, a0, a, b)
            if rhs:
                tau[a][b] = dbar_homotopy(rhs).coeff((), ())
    zz = (Poly.coord(mc, mc - 1) * Poly.coord(mc, 0)).scale(s)
    if mc > 1:
        tau[0][1] = tau[0][1] + zz
        tau[1][0] = tau[1][0] - zz
    else:
        tau[0][0] = tau[0][0] + zz
    return Trivialization(m.name, a0, cd, tuple(tuple(r_) for r_ in A),
                          tuple(tuple(r_) for r_ in tau))


def _tau_rhs(cd: ChartData, Acomp, alpha: GaussRat, a: int,
             b: int) -> ChartForm:
    """The right-hand side of dbar tau_{ab} = T_{ba} - alpha tr(A_a F_b)
    + alpha tr(Gamma_a R_b), a (0,1)-form."""
    F, R, G = cd.Fcomp[b], cd.Rcomp[b], cd.Gamma[a]
    rhs = cd.Tcomp[b][a]
    for u, v in itertools.product(range(cd.rank), repeat=2):
        if Acomp[a][u][v] and F[v][u]:
            rhs = rhs - F[v][u].scale_poly(Acomp[a][u][v]).scale(alpha)
    for c, bb in itertools.product(range(cd.m_coords), repeat=2):
        if G[c][bb] and R[bb][c]:
            rhs = rhs + R[bb][c].scale_poly(G[c][bb]).scale(alpha)
    return rhs


def potential_residuals(t: Trivialization) -> dict[str, bool]:
    """dbar A = F and the torsion-potential equation, checked exactly."""
    cd = t.cd
    ms, rs = range(cd.m_coords), range(cd.rank)
    ok_A = not any(dbar_chart(t.A[u][v]) - cd.F_chart[u][v]
                   for u in rs for v in rs)
    ok_tau = not any(dbar_chart(ChartForm.func(t.tau[a][b]))
                     - _tau_rhs(cd, t.Acomp, t.alpha, a, b)
                     for a in ms for b in ms)
    return {"gauge_potential": ok_A, "torsion_potential": ok_tau}


# ---------------------------------------------------------------------------
# chart sections and the operator identity


class ChartSection(Sparse):
    """A Q-valued chart section of form degree (0,q).

    A ``scalars.Sparse`` term map (slot, dzbar legs, z exponents, zbar
    exponents) -> GaussRat, with the slots numbered as in ``_offsets``:
    covector dz^{a+1}, then gauge matrix entry (u, v), then vector
    d/dz^{a+1}, all 0-based; ``build(mc, rank, q, terms)`` checks such keys.
    ``ChartSection(mc, rank, q, kappa, gamma, w)`` takes slot -> (0,q)-form
    mappings instead, checks the slots and the bidegrees, and flattens
    them; ``kappa``, ``gamma`` and ``w`` are read-only views that regroup
    the terms into such mappings.
    """

    __slots__ = ()
    _fields = ("mc", "rank", "q")

    def __new__(cls, mc: int, rank: int, q: int,
                kappa: Mapping[int, ChartForm] = _EMPTY,
                gamma: Mapping[tuple[int, int], ChartForm] = _EMPTY,
                w: Mapping[int, ChartForm] = _EMPTY):
        g0, w0, _ = _offsets(mc, rank)

        def slot(what, k, bound):
            if not 0 <= k < bound:
                raise FormError(f"{what} {k} outside 0..{bound - 1}")
            return k

        slots = itertools.chain(
            ((slot("covector", a, mc), x) for a, x in kappa.items()),
            ((g0 + slot("gauge", u, rank) * rank + slot("gauge", v, rank), x)
             for (u, v), x in gamma.items()),
            ((w0 + slot("vector", a, mc), x) for a, x in w.items()))
        terms = {}
        for k, x in slots:
            if x and (x.n, x.p, x.q) != (mc, 0, q):
                raise FormError(f"chart section entries must be (0,{q})-forms")
            for (_, legs), f in x.terms:
                for (z, zb), c in f.terms:
                    terms[(k, legs, z, zb)] = c
        return cls.build(mc, rank, q, terms)

    @staticmethod
    def _key(shape, key, value):
        mc, rank, q = shape
        k, legs, z, zb = key
        slots = _offsets(mc, rank)[2]
        if not 0 <= k < slots:
            raise FormError(f"slot {k} outside 0..{slots - 1}")
        return (k, _legs(legs, q, mc, key)) + Poly._key((mc,), (z, zb), value)

    def _parts(self) -> tuple[Mapping, Mapping, Mapping]:
        """The terms regrouped as the kappa, gamma and w mappings."""
        mc, rank, q = self.shape
        g0, w0, _ = _offsets(mc, rank)
        groups: dict = {}
        for (k, legs, z, zb), c in self.terms:
            groups.setdefault(k, {}).setdefault(legs, {})[(z, zb)] = c
        parts: tuple[dict, dict, dict] = ({}, {}, {})
        for k, by_legs in groups.items():
            part, key = ((0, k) if k < g0 else (2, k - w0) if k >= w0
                         else (1, divmod(k - g0, rank)))
            parts[part][key] = _make(ChartForm, (mc, 0, q),
                                     {((), legs): _make(Poly, (mc,), t)
                                      for legs, t in by_legs.items()})
        return tuple(map(_frozen, parts))

    kappa = property(lambda self: self._parts()[0])
    gamma = property(lambda self: self._parts()[1])
    w = property(lambda self: self._parts()[2])

    def labelled(self) -> dict[str, str]:
        """The nonzero slots in slot order, as {label: printed form}:
        e1:dz^a (covector), e2:E(u,v) (gauge matrix unit), e3:d/dz^a
        (vector), 1-based."""
        kappa, gamma, w = self._parts()
        out = {}
        for a in sorted(kappa):
            out[f"e1:dz^{a + 1}"] = str(kappa[a])
        for u, v in sorted(gamma):
            out[f"e2:E({u + 1},{v + 1})"] = str(gamma[(u, v)])
        for a in sorted(w):
            out[f"e3:d/dz^{a + 1}"] = str(w[a])
        return out


def _bring_down(e: Exp, j: int, anti: bool) -> tuple[Poly, Exp]:
    """What d/dz_j (anti=False) or d/dzbar_j does to a monomial whose z or
    zbar exponent is shifted by e: the factor x_j + e_j or y_j + e_j, and
    the shift lowered at j."""
    f = Poly.coord(len(e), j, anti)
    return ((f + Poly.const(len(e), _int(e[j])) if e[j] else f),
            e[:j] + (e[j] - 1,) + e[j + 1:])


def _dbar(t: Trivialization, terms: Mapping) -> dict:
    """dbar of a generic term map, slot by slot (``t`` is not read)."""
    acc: dict = {}
    for (k, legs, sx, sy), f in terms.items():
        for j in range(f.m):
            sign, new = _merge((j + 1,), legs)
            if sign:
                g, low = _bring_down(sy, j, True)
                _acc(acc, (k, new, sx, low), f * g if sign == 1 else -f * g)
    return acc


def _couple(acc: dict, table: dict, terms: Mapping) -> dict:
    """acc += every coupling of a flat table applied to a generic term map:
    the shifts add, and a (0,1) coefficient leg goes in front of the legs."""
    get = table.get
    for (k, legs, sx, sy), f in terms.items():
        for dst, front, fz, fzb, fc in get(k, ()):
            sign, new = _merge(front, legs)
            if sign:
                _acc(acc, (dst, new, tuple(map(add, sx, fz)),
                           tuple(map(add, sy, fzb))),
                     f.scale(fc if sign == 1 else -fc))
    return acc


def _coupled(acc: dict, table: dict, t: Trivialization,
             terms: Mapping) -> dict:
    """acc += the couplings of ``table`` on ``terms`` and on nabla^+ of
    their vector part in the directions the couplings read, keyed by the
    nabla slot n0 + c mc + b of (nabla_c w)_b (see ``_offsets``)."""
    mc = t.cd.m_coords
    _, w0, n0 = _offsets(mc, t.cd.rank)
    nabla: dict = {}
    for (k, legs, sx, sy), f in terms.items():
        if k >= w0:
            for d in t.cd.nabla_dirs:
                g, low = _bring_down(sx, d, False)
                _acc(nabla, (n0 + d * mc + k - w0, legs, low, sy), f * g)
    nabla = _couple(nabla, t.cd.nabla_table, terms)
    return _couple(_couple(acc, table, terms), table, nabla)


def _D(t: Trivialization, terms: Mapping) -> dict:
    return _coupled(_dbar(t, terms), t.D_table, t, terms)


def _phi(t: Trivialization, terms: Mapping) -> dict:
    return _coupled(dict(terms), t.phi_table, t, terms)


def _phi_inv(t: Trivialization, terms: Mapping) -> dict:
    return _coupled(dict(terms), t.phi_inv_table, t, terms)


def _residual(t: Trivialization, terms: Mapping) -> dict:
    rhs = _phi_inv(t, _dbar(t, _phi(t, terms)))
    return _sum_terms(_D(t, terms), rhs.items(), -1)


def _table(t: Trivialization, op, k: int, legs: tuple[int, ...]) -> tuple:
    """The exponent table of ``op`` for slot k and dzbar legs L: ``op`` run
    on the generic term map {(k, L, 0, 0): 1}, as (target slot, legs, z
    shift, zbar shift, Poly in (x, y)) entries.  Made on first use and kept
    in ``t.op_tables``."""
    mc = t.cd.m_coords
    key = (op, mc, k, legs)
    table = t.op_tables.get(key)
    if table is None:
        z = (0,) * mc
        g = op(t, {(k, legs, z, z): Poly.const(mc, GR_ONE)})
        table = t.op_tables[key] = tuple(e + (f,) for e, f in g.items())
    return table


def _evaluate(t: Trivialization, op, s: ChartSection,
              q: int) -> ChartSection:
    """Each term c z^x zbar^y of ``s`` through the table of ``op`` for its
    (k, L) (``_table``), evaluated at (x, y).  On one term the entries'
    distinct keys give distinct monomials and no entry holds a zero Poly,
    so an empty table gives zero on every section of its (k, L), in every
    degree.  An entry whose shifted exponent is negative must vanish there:
    a derivative brought down the zero exponent."""
    mc, rank, _ = s.shape
    acc: dict = {}
    for (k, legs, x, y), c in s.terms:
        for dst, new, sx, sy, f in _table(t, op, k, legs):
            v = f.evaluate(x, y)
            if v:
                x2, y2 = tuple(map(add, x, sx)), tuple(map(add, y, sy))
                if min(x2) < 0 or min(y2) < 0:
                    raise FormError(f"operator table gives a negative "
                                    f"exponent {x2}, {y2} a nonzero value")
                _acc(acc, (dst, new, x2, y2), c * v)
    return _make(ChartSection, (mc, rank, q), acc)


def apply_Dbar_chart(t: Trivialization, s: ChartSection) -> ChartSection:
    """The deformation operator in chart coordinates: coordinate frames are
    holomorphic, so the diagonal is the plain dbar and the couplings use the
    chart components of F, T and R."""
    return _evaluate(t, _D, s, s.q + 1)


def apply_phi(t: Trivialization, s: ChartSection) -> ChartSection:
    return _evaluate(t, _phi, s, s.q)


def apply_phi_inverse(t: Trivialization, s: ChartSection) -> ChartSection:
    return _evaluate(t, _phi_inv, s, s.q)


def trivialization_residual(t: Trivialization,
                            s: ChartSection) -> ChartSection:
    """D s - phi^{-1} dbar (phi s); identically zero for a valid pair.

    The residual's table is D's minus that of phi^{-1} dbar phi, both run
    on the generic term map, so on a valid pair it is empty and every
    section evaluates to zero at the cost of a lookup.
    """
    return _evaluate(t, _residual, s, s.q + 1)


def _labelled_sections(t: Trivialization, degree: int):
    """Yield (slot label, fibre value, z exponents, zbar exponents) for
    every section with a single monomial slot entry of total degree up to
    the bound, monomial first and then in ``fibre_basis`` order, covering
    every covector, trace-free gauge and vector slot; ``_section`` builds
    the section itself."""
    mc, r = t.cd.m_coords, t.cd.rank
    slots = fibre_basis(mc, r, "dz^", "d/dz^")
    for total in range(degree + 1):
        for za in itertools.combinations_with_replacement(range(2 * mc),
                                                          total):
            e = [0] * (2 * mc)
            for x in za:
                e[x] += 1
            z, zb = tuple(e[:mc]), tuple(e[mc:])
            for label, value in slots:
                yield label, value, z, zb


def _section(t: Trivialization, value: Mapping, z: Exp,
             zb: Exp) -> ChartSection:
    """The (0,0)-section of fibre value ``value`` times z^z zbar^zb."""
    return _make(ChartSection, (t.cd.m_coords, t.cd.rank, 0),
                 {(k, (), z, zb): c for k, c in value.items()})


def monomial_sections(t: Trivialization, degree: int):
    """All sections with a single monomial slot entry of total degree up to
    the bound, covering every covector, trace-free gauge and vector slot."""
    return [_section(t, value, z, zb)
            for _, value, z, zb in _labelled_sections(t, degree)]


# ---------------------------------------------------------------------------
# transitions


def _slot_maps(t: Trivialization):
    """The generic term map {(k, (), 0, 0): 1} of each value slot k."""
    mc = t.cd.m_coords
    z, one = (0,) * mc, Poly.const(mc, GR_ONE)
    return [{(k, (), z, z): one}
            for k in range(_offsets(mc, t.cd.rank)[2])]


def transition(t1: Trivialization, t2: Trivialization) -> list[dict]:
    """phi_1 o phi_2^{-1} as a table: per value slot k, the term map that
    the phi ops make of the generic term of k, with Polys in its exponents
    (x, y).  The differential parts cancel, so a valid pair gives
    constants."""
    if t1.alpha != t2.alpha:
        raise ModelError("transition between different couplings")
    return [_phi(t1, _phi_inv(t2, g)) for g in _slot_maps(t2)]


def transition_holomorphic(tr: list[dict]) -> bool:
    """Every entry a constant, with no zbar shift and no new leg."""
    return all(not legs and not any(sy)
               and not any(any(a + b) for (a, b), _ in f.terms)
               for terms in tr for (_, legs, _, sy), f in terms.items())


def transition_cocycle_residual(t1: Trivialization, t2: Trivialization,
                                tr23: list[dict], tr13: list[dict]) -> bool:
    """phi_1 phi_2^{-1} applied to the transition ``tr23`` = phi_2
    phi_3^{-1} equals ``tr13`` = phi_1 phi_3^{-1} on every slot (True when
    exact): each phi^{-1} table must invert its phi."""
    return all(_phi(t1, _phi_inv(t2, x)) == y for x, y in zip(tr23, tr13))


# ---------------------------------------------------------------------------
# report


def operator_identity_report(t: Trivialization, degree: int) -> dict:
    """The chart identity on every monomial section up to ``degree``; a
    failing run also names its first failing section (slot label and
    monomial) and that section's residual, slot by slot.

    The residual of a section of fibre value {k: c_k} at z^x zbar^y is
    sum_k c_k table_k(x, y), shifted, with table_k the residual's table of
    slot k and no dzbar leg (``_table``).  So a section that touches only
    empty tables passes, in every degree: it is counted in
    ``sections_checked`` but neither built nor evaluated.  On a valid pair
    every table is empty."""
    mc, r = t.cd.m_coords, t.cd.rank
    live = {k for _, value in fibre_basis(mc, r) for k in value
            if _table(t, _residual, k, ())}
    checked = bad = 0
    first = None
    for label, value, z, zb in _labelled_sections(t, degree):
        checked += 1
        if live.isdisjoint(value):
            continue
        res = trivialization_residual(t, _section(t, value, z, zb))
        if res:
            bad += 1
            if first is None:
                mono = _make(Poly, (mc,), {(z, zb): GR_ONE})
                first = {"slot": label, "monomial": str(mono),
                         "residual": res.labelled()}
    out = {"sections_checked": checked, "failures": bad,
           "passed": bad == 0}
    if first is not None:
        out["first_failure"] = first
    return out


def trivialization_report(m: HomogeneousModel, degree: int = 3,
                          alpha0: GaussRat | None = None) -> dict:
    t0 = build_trivialization(m, alpha0, shift=0)
    pots = potential_residuals(t0)
    cs_ok = not any(cs_transgression_residual(t0.A, t0.cd.F_chart))
    ident = operator_identity_report(t0, degree)
    t1 = build_trivialization(m, alpha0, shift=1)
    t2 = build_trivialization(m, alpha0, shift=2)
    pairs = [(t0, t1), (t0, t2), (t1, t2)]
    _, tr02, tr12 = trs = [transition(x, y) for x, y in pairs]
    holo = all(map(transition_holomorphic, trs))
    cocycle = transition_cocycle_residual(t0, t1, tr12, tr02)
    return {
        "model": m.name,
        "alpha_prime": str(t0.alpha),
        "degree": degree,
        "potentials": pots,
        "chern_simons_transgression": cs_ok,
        "operator_identity": ident,
        "transitions": {
            "pairs": len(pairs),
            "holomorphic": holo,
            "cocycle": cocycle,
        },
    }
