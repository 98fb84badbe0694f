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
* transition sections phi_1 o phi_2^{-1} for different potential choices,
  with holomorphy and cocycle checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .exterior import FormError, sort_with_sign
from .geometry import (
    HomogeneousModel,
    ModelError,
    bismut,
    chern_connection,
    torsion,
)
from .scalars import GR_ONE, GR_ZERO, GaussRat, parse_gauss

Exp = Tuple[int, ...]
PKey = Tuple[Exp, Exp]


# ---------------------------------------------------------------------------
# polynomials in z and zbar


@dataclass(frozen=True)
class Poly:
    """Polynomial in z_1..z_m, zbar_1..zbar_m with Gaussian rational
    coefficients; keys are (z exponents, zbar exponents)."""

    m: int
    terms: Tuple[Tuple[PKey, GaussRat], ...] = ()

    @staticmethod
    def build(m: int, terms: Dict[PKey, GaussRat]) -> "Poly":
        clean = []
        for key in sorted(terms):
            if len(key[0]) != m or len(key[1]) != m:
                raise FormError("polynomial exponent tuple of wrong length")
            if terms[key]:
                clean.append((key, terms[key]))
        return Poly(m, tuple(clean))

    @staticmethod
    def zero(m: int) -> "Poly":
        return Poly(m)

    @staticmethod
    def const(m: int, c: GaussRat) -> "Poly":
        z = (0,) * m
        return Poly.build(m, {(z, z): c})

    @staticmethod
    def coord(m: int, k: int, anti: bool = False) -> "Poly":
        z = [0] * m
        z[k] = 1
        zero = (0,) * m
        key = (zero, tuple(z)) if anti else (tuple(z), zero)
        return Poly.build(m, {key: GR_ONE})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, o: "Poly") -> "Poly":
        acc = dict(self.terms)
        for k, v in o.terms:
            acc[k] = acc.get(k, GR_ZERO) + v
        return Poly.build(self.m, acc)

    def __sub__(self, o: "Poly") -> "Poly":
        return self + (-o)

    def __neg__(self) -> "Poly":
        return Poly(self.m, tuple((k, -v) for k, v in self.terms))

    def __mul__(self, o: "Poly") -> "Poly":
        acc: Dict[PKey, GaussRat] = {}
        for (a1, b1), c1 in self.terms:
            for (a2, b2), c2 in o.terms:
                key = (tuple(x + y for x, y in zip(a1, a2)),
                       tuple(x + y for x, y in zip(b1, b2)))
                acc[key] = acc.get(key, GR_ZERO) + c1 * c2
        return Poly.build(self.m, acc)

    def scale(self, c: GaussRat) -> "Poly":
        return Poly(self.m, tuple((k, v * c) for k, v in self.terms)
                    if c else ())

    def conjugate(self) -> "Poly":
        return Poly.build(self.m, {(b, a): c.conjugate()
                                   for (a, b), c in self.terms})

    def diff_z(self, k: int) -> "Poly":
        acc: Dict[PKey, GaussRat] = {}
        for (a, b), c in self.terms:
            if a[k]:
                aa = list(a)
                aa[k] -= 1
                key = (tuple(aa), b)
                acc[key] = acc.get(key, GR_ZERO) + c * GaussRat.of(a[k])
        return Poly.build(self.m, acc)

    def diff_zbar(self, k: int) -> "Poly":
        acc: Dict[PKey, GaussRat] = {}
        for (a, b), c in self.terms:
            if b[k]:
                bb = list(b)
                bb[k] -= 1
                key = (a, tuple(bb))
                acc[key] = acc.get(key, GR_ZERO) + c * GaussRat.of(b[k])
        return Poly.build(self.m, acc)

    def is_holomorphic(self) -> bool:
        return all(not any(b) for (_, b), _ in self.terms)

    def antiholomorphic_split(self):
        """Group terms by total zbar-degree: {degree: Poly}."""
        parts: Dict[int, Dict[PKey, GaussRat]] = {}
        for (a, b), c in self.terms:
            parts.setdefault(sum(b), {})[(a, b)] = c
        return {d: Poly.build(self.m, t) for d, t in parts.items()}

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (a, b), c in self.terms:
            mono = "".join(f"z{k + 1}^{e}" if e > 1 else f"z{k + 1}"
                           for k, e in enumerate(a) if e)
            mono += "".join(f"w{k + 1}^{e}" if e > 1 else f"w{k + 1}"
                            for k, e in enumerate(b) if e)
            bits.append(f"({c}){mono or '1'}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# polynomial-coefficient forms


@dataclass(frozen=True)
class ChartForm:
    """A (p,q)-form on the chart with Poly coefficients; legs are strictly
    increasing dz / dzbar index tuples, dz legs to the left."""

    m: int
    p: int
    q: int
    terms: Tuple[Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], Poly], ...] = ()

    @staticmethod
    def build(m, p, q, terms) -> "ChartForm":
        clean = []
        for key in sorted(terms):
            holo, anti = key
            if len(holo) != p or len(anti) != q:
                raise FormError("chart form key has the wrong bidegree")
            if terms[key]:
                clean.append((key, terms[key]))
        return ChartForm(m, p, q, tuple(clean))

    @staticmethod
    def zero(m, p, q) -> "ChartForm":
        return ChartForm(m, p, q)

    @staticmethod
    def monomial(m, holo, anti, coeff: Poly) -> "ChartForm":
        sh, holo_s = sort_with_sign(holo)
        sa, anti_s = sort_with_sign(anti)
        p, q = len(tuple(holo)), len(tuple(anti))
        if sh * sa == 0:
            return ChartForm.zero(m, p, q)
        c = coeff if sh * sa == 1 else -coeff
        return ChartForm.build(m, p, q, {(holo_s, anti_s): c})

    @staticmethod
    def func(f: Poly) -> "ChartForm":
        return ChartForm.build(f.m, 0, 0, {((), ()): f})

    def coeff(self, holo, anti) -> Poly:
        sh, holo_s = sort_with_sign(holo)
        sa, anti_s = sort_with_sign(anti)
        if sh * sa == 0:
            return Poly.zero(self.m)
        for k, c in self.terms:
            if k == (holo_s, anti_s):
                return c if sh * sa == 1 else -c
        return Poly.zero(self.m)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, o: "ChartForm") -> "ChartForm":
        if (self.m, self.p, self.q) != (o.m, o.p, o.q):
            raise FormError("chart form shapes disagree")
        acc = dict(self.terms)
        for k, v in o.terms:
            acc[k] = acc.get(k, Poly.zero(self.m)) + v
        return ChartForm.build(self.m, self.p, self.q, acc)

    def __sub__(self, o):
        return self + (-o)

    def __neg__(self):
        return ChartForm(self.m, self.p, self.q,
                         tuple((k, -v) for k, v in self.terms))

    def scale_poly(self, f: Poly) -> "ChartForm":
        acc = {}
        for k, v in self.terms:
            acc[k] = v * f
        return ChartForm.build(self.m, self.p, self.q, acc)

    def scale(self, c: GaussRat) -> "ChartForm":
        return ChartForm(self.m, self.p, self.q,
                         tuple((k, v.scale(c)) for k, v in self.terms)
                         if c else ())

    def wedge(self, o: "ChartForm") -> "ChartForm":
        from .exterior import merge_with_sign
        acc: Dict = {}
        cross = -1 if (o.p % 2) and (self.q % 2) else 1
        for (h1, a1), c1 in self.terms:
            for (h2, a2), c2 in o.terms:
                sh, hh = merge_with_sign(h1, h2)
                if sh == 0:
                    continue
                sa, aa = merge_with_sign(a1, a2)
                if sa == 0:
                    continue
                s = sh * sa * cross
                key = (hh, aa)
                v = c1 * c2
                if s == -1:
                    v = -v
                acc[key] = acc.get(key, Poly.zero(self.m)) + v
        return ChartForm.build(self.m, self.p + o.p, self.q + o.q, acc)

    def conjugate(self) -> "ChartForm":
        acc = {}
        sign = -1 if (self.p * self.q) % 2 else 1
        for (h, a), c in self.terms:
            v = c.conjugate()
            acc[(a, h)] = v if sign == 1 else -v
        return ChartForm.build(self.m, self.q, self.p, acc)

    def is_holomorphic(self) -> bool:
        return (self.q == 0
                and all(c.is_holomorphic() for _, c in self.terms))


def partial_chart(x: ChartForm) -> ChartForm:
    acc = ChartForm.zero(x.m, x.p + 1, x.q)
    for (h, a), c in x.terms:
        for k in range(x.m):
            d = c.diff_z(k)
            if d:
                acc = acc + ChartForm.monomial(x.m, (k + 1,) + h, a, d)
    return acc


def dbar_chart(x: ChartForm) -> ChartForm:
    acc = ChartForm.zero(x.m, x.p, x.q + 1)
    sign = -1 if x.p % 2 else 1
    for (h, a), c in x.terms:
        for k in range(x.m):
            d = c.diff_zbar(k)
            if d:
                if sign == -1:
                    d = -d
                acc = acc + ChartForm.monomial(x.m, h, (k + 1,) + a, d)
    return acc


def d_chart(x: ChartForm) -> Tuple[ChartForm, ChartForm]:
    return partial_chart(x), dbar_chart(x)


def dbar_homotopy(x: ChartForm) -> ChartForm:
    """A radial primitive: for dbar-closed x of antiholomorphic form degree
    q >= 1, returns eta with dbar(eta) = x.

    The operator contracts with the antiholomorphic Euler vector field and
    divides each zbar-homogeneous piece by its weight.
    """
    if x.q < 1:
        raise FormError("a primitive needs antiholomorphic degree >= 1")
    acc = ChartForm.zero(x.m, x.p, x.q - 1)
    psign = -1 if x.p % 2 else 1
    for (h, a), c in x.terms:
        for d, part in c.antiholomorphic_split().items():
            w = GaussRat.of(f"1/{d + x.q}")
            for v, leg in enumerate(a):
                zbar = Poly.coord(x.m, leg - 1, anti=True)
                sign = psign if v % 2 == 0 else -psign
                coeff = (part * zbar).scale(w)
                if sign == -1:
                    coeff = -coeff
                rest = a[:v] + a[v + 1:]
                acc = acc + ChartForm.monomial(x.m, h, rest, coeff)
    return acc


# ---------------------------------------------------------------------------
# chart data derived from a model


def _parse_one_form(m_coords: int, text: str) -> List[Tuple[Poly, int]]:
    """Parse '-dz3 + z1 dz2' into (polynomial coefficient, leg) pairs."""
    text = text.strip()
    out = []
    # split into signed terms
    terms = []
    cur = ""
    depth = 0
    for ch in text:
        if ch in "+-" and depth == 0 and cur.strip():
            terms.append(cur)
            cur = ch
        else:
            cur += ch
    if cur.strip():
        terms.append(cur)
    for term in terms:
        term = term.strip()
        sign = GR_ONE
        while term and term[0] in "+-":
            if term[0] == "-":
                sign = -sign
            term = term[1:].strip()
        factors = term.split()
        coeff = Poly.const(m_coords, sign)
        leg = None
        for f in factors:
            if f.startswith("dz"):
                if leg is not None:
                    raise ModelError(f"two coframe legs in term {term!r}")
                leg = int(f[2:])
                if not 1 <= leg <= m_coords:
                    raise ModelError(f"chart leg out of range in {term!r}")
            elif f.startswith("z"):
                k = int(f[1:])
                if not 1 <= k <= m_coords:
                    raise ModelError(f"coordinate out of range in {term!r}")
                coeff = coeff * Poly.coord(m_coords, k - 1)
            else:
                coeff = coeff.scale(parse_gauss(f))
        if leg is None:
            raise ModelError(f"term {term!r} has no coframe leg")
        out.append((coeff, leg))
    return out


@dataclass(frozen=True)
class ChartData:
    """Everything the trivialization needs, in chart coordinates."""

    m_coords: int
    n: int
    rank: int
    # P[i][a]: alpha^{i+1} = sum_a P[i][a] dz^{a+1} (holomorphic Poly)
    P: Tuple[Tuple[Poly, ...], ...]
    Q: Tuple[Tuple[Poly, ...], ...]       # inverse: V_k = sum_a Q[a][k] d/dz_a
    T_chart: ChartForm                    # torsion (2,1) in chart coordinates
    F_chart: Tuple[Tuple[ChartForm, ...], ...]   # gauge curvature entries
    Gamma: Tuple                          # Gamma[c][a][b] Poly ((1,0) Chern)
    GammaPlus: Tuple                      # coordinate torsion-shifted blocks
    Tcomp: List                           # _torsion_components(T_chart)
    Fcomp: List                           # _f_components(F_chart)
    Rcomp: List                           # _gamma_r_components(Gamma)


def _poly_matrix_inverse(P, m_coords: int):
    """Exact inverse of a polynomial matrix whose determinant is a nonzero
    constant (adjugate divided by the constant determinant)."""
    k = len(P)

    def det(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = Poly.zero(m_coords)
        for j in range(len(rows)):
            c = rows[0][j]
            if not c:
                continue
            minor = [[r[t] for t in range(len(rows)) if t != j]
                     for r in rows[1:]]
            term = c * det(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    dd = det([list(r) for r in P])
    const = dict(dd.terms)
    zkey = ((0,) * m_coords, (0,) * m_coords)
    if set(const) - {zkey} or zkey not in const:
        raise ModelError("chart coframe determinant is not a nonzero constant")
    dinv = GR_ONE / const[zkey]
    out = [[Poly.zero(m_coords)] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            minor = [[P[r][c] for c in range(k) if c != i]
                     for r in range(k) if r != j]
            cof = det(minor) if minor else Poly.const(m_coords, GR_ONE)
            s = dinv if (i + j) % 2 == 0 else -dinv
            out[i][j] = cof.scale(s)
    return tuple(tuple(r) for r in out)


def invariant_to_chart(cd: ChartData, f) -> ChartForm:
    """Substitute the invariant coframe by its chart pullback."""
    mc = cd.m_coords
    acc = ChartForm.zero(mc, f.p, f.q)
    pull = []
    for i in range(cd.n):
        form = ChartForm.zero(mc, 1, 0)
        for a in range(mc):
            if cd.P[i][a]:
                form = form + ChartForm.monomial(mc, (a + 1,), (),
                                                 cd.P[i][a])
        pull.append(form)
    pull_bar = [x.conjugate() for x in pull]
    for (holo, anti), c in f.terms:
        if c.degree > 0:
            raise ModelError("chart pullback of a coupling-dependent form")
        piece = ChartForm.func(Poly.const(mc, c.coefficient(0)))
        for i in holo:
            piece = piece.wedge(pull[i - 1])
        for i in anti:
            piece = piece.wedge(pull_bar[i - 1])
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
        P = [[Poly.zero(mc) for _ in range(mc)] for _ in range(m.n)]
        for i, name in enumerate(m.coframe_names):
            if name not in pullback:
                raise ModelError(f"chart pullback missing for {name}")
            for coeff, leg in _parse_one_form(mc, pullback[name]):
                P[i][leg - 1] = P[i][leg - 1] + coeff
                if not coeff.is_holomorphic():
                    raise ModelError("chart pullback must be holomorphic")
        Pt = tuple(tuple(r) for r in P)
        Q = _poly_matrix_inverse(Pt, mc)
        cd0 = ChartData(mc, m.n, m.rank, Pt, Q, *(None,) * 7)
        T_chart = invariant_to_chart(cd0, torsion(m))
        F_chart = tuple(
            tuple(invariant_to_chart(cd0, m.curvature_F.entry(i, j))
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
                        vcomp[k] = vcomp[k] + Pt[k][b].diff_z(c)
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

        Gamma = chart_gamma(chern_connection(m).gamma)
        GammaPlus = chart_gamma(bismut(m).gamma)
        return ChartData(mc, m.n, m.rank, Pt, Q, T_chart, F_chart,
                         Gamma, GammaPlus,
                         _torsion_components(mc, T_chart),
                         _f_components(mc, m.rank, F_chart),
                         _gamma_r_components(mc, Gamma))
    return m.cached("chart_data", build)


# ---------------------------------------------------------------------------
# Chern-Simons form


def mat_wedge_chart(A, B):
    r = len(A)
    mc = A[0][0].m
    out = [[ChartForm.zero(mc, A[0][0].p + B[0][0].p,
                           A[0][0].q + B[0][0].q) for _ in range(r)]
           for _ in range(r)]
    for i in range(r):
        for j in range(r):
            for k in range(r):
                if A[i][k] and B[k][j]:
                    out[i][j] = out[i][j] + A[i][k].wedge(B[k][j])
    return out


def mat_trace_chart(A):
    acc = A[0][0]
    for i in range(1, len(A)):
        acc = acc + A[i][i]
    return acc


def chern_simons(A) -> Tuple[ChartForm, ChartForm]:
    """tr(A ^ dA + 2/3 A ^ A ^ A) for a matrix of (1,0)-form potentials,
    returned as its (3,0) and (2,1) parts."""
    r = len(A)
    mc = A[0][0].m
    dA = [[None] * r for _ in range(r)]
    for i in range(r):
        for j in range(r):
            p1, q1 = d_chart(A[i][j])
            # combine the two parts into one mixed wedge via separate sums
            dA[i][j] = (p1, q1)
    acc = ChartForm.zero(mc, 3, 0)
    acc01 = ChartForm.zero(mc, 2, 1)
    for i in range(r):
        for j in range(r):
            p1, q1 = dA[j][i]
            acc = acc + A[i][j].wedge(p1)
            acc01 = acc01 + A[i][j].wedge(q1)
    AAA = mat_wedge_chart(mat_wedge_chart(A, A), A)
    cubic = mat_trace_chart(AAA)
    return acc + cubic.scale(GaussRat.of("2/3")), acc01


def cs_transgression_residual(A, F) -> Tuple[ChartForm, ...]:
    """d CS(A) - tr(F ^ F), returned by bidegree; zero when F = dbar A and
    the (2,0)-part of the curvature of A vanishes for the model at hand."""
    cs30, cs21 = chern_simons(A)
    d30 = d_chart(cs30)
    d21 = d_chart(cs21)
    r = len(F)
    mc = F[0][0].m
    trFF = ChartForm.zero(mc, 2, 2)
    for i in range(r):
        for j in range(r):
            trFF = trFF + F[i][j].wedge(F[j][i])
    res22 = d21[1] - trFF
    res31 = d30[1] + d21[0]
    res40 = d30[0]
    return res40, res31, res22


# ---------------------------------------------------------------------------
# the trivialization


@dataclass(frozen=True)
class Trivialization:
    """A potential pair (A, tau) together with the chart data and coupling."""

    model_name: str
    alpha: GaussRat
    cd: ChartData
    A: Tuple[Tuple[ChartForm, ...], ...]      # (1,0)-form gauge potential
    tau: Tuple[Tuple[Poly, ...], ...]         # tau[a][b] functions
    Acomp: List                               # _a_components(A)
    trAA: Tuple[Tuple[Poly, ...], ...]        # trAA[a][d] = tr(A_a A_d)


def _torsion_components(mc: int, T_chart: ChartForm):
    """T_{lj} as (0,1)-forms: T = sum_{l<j} dz^l ^ dz^j ^ T_{lj}."""
    out = [[ChartForm.zero(mc, 0, 1) for _ in range(mc)] for _ in range(mc)]
    for (h, a), c in T_chart.terms:
        l, j = h
        form = ChartForm.build(mc, 0, 1, {((), a): c})
        out[l - 1][j - 1] = out[l - 1][j - 1] + form
        out[j - 1][l - 1] = out[j - 1][l - 1] - form
    return out


def _f_components(mc: int, r: int, F_chart):
    """F_a[u][v] as (0,1)-forms: F = sum_a dz^a ^ F_a."""
    out = [[[ChartForm.zero(mc, 0, 1) for _ in range(r)] for _ in range(r)]
           for _ in range(mc)]
    for u in range(r):
        for v in range(r):
            for (h, a), c in F_chart[u][v].terms:
                out[h[0] - 1][u][v] = (out[h[0] - 1][u][v]
                                       + ChartForm.build(mc, 0, 1,
                                                         {((), a): c}))
    return out


def _a_components(A):
    """A_a[u][v] as functions: A = sum_a dz^a A_a."""
    r = len(A)
    mc = A[0][0].m
    out = [[[Poly.zero(mc) for _ in range(r)] for _ in range(r)]
           for _ in range(mc)]
    for u in range(r):
        for v in range(r):
            for (h, aa), c in A[u][v].terms:
                out[h[0] - 1][u][v] = out[h[0] - 1][u][v] + c
    return out


def _gamma_r_components(mc: int, Gamma):
    """R_d[c][b] = dbar of the Gamma coefficients, as (0,1)-forms keyed by
    the dz^d front leg (zero whenever Gamma is holomorphic)."""
    out = [[[ChartForm.zero(mc, 0, 1) for _ in range(mc)] for _ in range(mc)]
           for _ in range(mc)]
    for d in range(mc):
        for c in range(mc):
            for b in range(mc):
                f = Gamma[d][c][b]
                for k in range(mc):
                    dd = f.diff_zbar(k)
                    if dd:
                        out[d][c][b] = out[d][c][b] + ChartForm.monomial(
                            mc, (), (k + 1,), dd)
    return out


def build_trivialization(m: HomogeneousModel,
                         alpha0: Optional[GaussRat] = None,
                         shift: int = 0) -> Trivialization:
    """Solve for the potentials A (dbar A = F) and tau (torsion potential)
    by the radial homotopy; `shift` adds a holomorphic modification to both,
    producing a genuinely different potential pair for transition checks."""
    cd = chart_data(m)
    a0 = alpha0 if alpha0 is not None else m.alpha_prime
    if a0 is None:
        a0 = GaussRat.of(1)
    mc, r = cd.m_coords, cd.rank
    A = [[dbar_homotopy(cd.F_chart[u][v]) if cd.F_chart[u][v]
          else ChartForm.zero(mc, 1, 0) for v in range(r)] for u in range(r)]
    if shift:
        # add s * (z_1 dz_2 - z_2 dz_1) on the first diagonal slot pair,
        # a closed holomorphic form, keeping dbar A = F and tracelessness
        s = GaussRat.of(shift)
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
    if shift:
        s = GaussRat.of(shift)
        zz = Poly.coord(mc, 2) * Poly.coord(mc, 0)
        tau[0][1] = tau[0][1] + zz.scale(s)
        tau[1][0] = tau[1][0] - zz.scale(s)
    trAA = [[Poly.zero(mc) for _ in range(mc)] for _ in range(mc)]
    for a in range(mc):
        for d in range(mc):
            for u in range(r):
                for v in range(r):
                    trAA[a][d] = trAA[a][d] + Acomp[a][u][v] * Acomp[d][v][u]
    return Trivialization(m.name, a0, cd, tuple(tuple(r_) for r_ in A),
                          tuple(tuple(r_) for r_ in tau), Acomp,
                          tuple(tuple(r_) for r_ in trAA))


def _tau_rhs(cd: ChartData, Acomp, alpha: GaussRat, a: int,
             b: int) -> ChartForm:
    """The right-hand side of dbar tau_{ab} = T_{ba} - alpha tr(A_a F_b)
    + alpha tr(Gamma_a R_b), a (0,1)-form."""
    mc, r = cd.m_coords, cd.rank
    Fcomp, Rcomp = cd.Fcomp, cd.Rcomp
    rhs = cd.Tcomp[b][a]
    for u in range(r):
        for v in range(r):
            if Acomp[a][u][v] and Fcomp[b][v][u]:
                rhs = rhs - Fcomp[b][v][u].scale_poly(
                    Acomp[a][u][v]).scale(alpha)
    for c in range(mc):
        for bb in range(mc):
            if cd.Gamma[a][c][bb] and Rcomp[b][bb][c]:
                rhs = rhs + Rcomp[b][bb][c].scale_poly(
                    cd.Gamma[a][c][bb]).scale(alpha)
    return rhs


def potential_residuals(t: Trivialization) -> Dict[str, bool]:
    """dbar A = F and the torsion-potential equation, checked exactly."""
    cd = t.cd
    mc, r = cd.m_coords, cd.rank
    ok_A = True
    for u in range(r):
        for v in range(r):
            if dbar_chart(t.A[u][v]) - cd.F_chart[u][v]:
                ok_A = False
    ok_tau = True
    for a in range(mc):
        for b in range(mc):
            lhs = dbar_chart(ChartForm.func(t.tau[a][b]))
            if lhs - _tau_rhs(cd, t.Acomp, t.alpha, a, b):
                ok_tau = False
    return {"gauge_potential": ok_A, "torsion_potential": ok_tau}


# ---------------------------------------------------------------------------
# chart sections and the operator identity


@dataclass(frozen=True)
class ChartSection:
    """A Q-valued chart section: covector, gauge and vector parts with
    (0,q)-form ChartForm components."""

    mc: int
    rank: int
    q: int
    kappa: Tuple[ChartForm, ...]
    gamma: Tuple[Tuple[ChartForm, ...], ...]
    w: Tuple[ChartForm, ...]

    @staticmethod
    def zero(mc, rank, q) -> "ChartSection":
        z = ChartForm.zero(mc, 0, q)
        return ChartSection(mc, rank, q, (z,) * mc,
                            tuple((z,) * rank for _ in range(rank)),
                            (z,) * mc)

    def __add__(self, o):
        return ChartSection(
            self.mc, self.rank, self.q,
            tuple(x + y for x, y in zip(self.kappa, o.kappa)),
            tuple(tuple(x + y for x, y in zip(r1, r2))
                  for r1, r2 in zip(self.gamma, o.gamma)),
            tuple(x + y for x, y in zip(self.w, o.w)))

    def __sub__(self, o):
        return self + ChartSection(
            o.mc, o.rank, o.q, tuple(-x for x in o.kappa),
            tuple(tuple(-x for x in r) for r in o.gamma),
            tuple(-x for x in o.w))

    def __bool__(self):
        return (any(self.kappa) or any(any(r) for r in self.gamma)
                or any(self.w))


def nabla_plus_chart(t: Trivialization, w, c: int):
    """(1,0)-covariant derivative of the vector part in direction c using
    the coordinate coefficients of the torsion-shifted connection."""
    cd = t.cd
    mc = cd.m_coords
    out = []
    for a in range(mc):
        acc = ChartForm.zero(mc, 0, w[0].q)
        dd = ChartForm.build(mc, 0, w[a].q,
                             {k: v.diff_z(c) for k, v in w[a].terms})
        acc = acc + dd
        for b in range(mc):
            g = cd.GammaPlus[c][a][b]
            if g and w[b]:
                acc = acc + w[b].scale_poly(g)
        out.append(acc)
    return out


def apply_Dbar_chart(t: Trivialization, s: ChartSection) -> ChartSection:
    """The deformation operator in chart coordinates: coordinate frames are
    holomorphic, so the diagonal is the plain dbar and the couplings use the
    chart components of F, T and R."""
    cd = t.cd
    mc, r = cd.m_coords, cd.rank
    al = t.alpha
    Fcomp, Tcomp, Rcomp = cd.Fcomp, cd.Tcomp, cd.Rcomp
    kappa = [dbar_chart(x) for x in s.kappa]
    gamma = [[dbar_chart(s.gamma[i][j]) for j in range(r)] for i in range(r)]
    w = [dbar_chart(x) for x in s.w]
    # couplings
    for j in range(mc):
        acc = kappa[j]
        for u in range(r):
            for v in range(r):
                if Fcomp[j][u][v] and s.gamma[v][u]:
                    acc = acc + Fcomp[j][u][v].wedge(s.gamma[v][u]).scale(al)
        for l in range(mc):
            if Tcomp[l][j] and s.w[l]:
                acc = acc + Tcomp[l][j].wedge(s.w[l])
        for c in range(mc):
            npw = None
            for b in range(mc):
                if Rcomp[j][b][c]:
                    if npw is None:
                        npw = nabla_plus_chart(t, s.w, c)
                    acc = acc + Rcomp[j][b][c].wedge(npw[b]).scale(al)
        kappa[j] = acc
    for u in range(r):
        for v in range(r):
            acc = gamma[u][v]
            for j in range(mc):
                if Fcomp[j][u][v] and s.w[j]:
                    acc = acc + Fcomp[j][u][v].wedge(s.w[j])
            gamma[u][v] = acc
    return ChartSection(mc, r, s.q + 1, tuple(kappa),
                        tuple(tuple(row) for row in gamma), tuple(w))


def _phi_action(t: Trivialization, s: ChartSection,
                inverse: bool) -> ChartSection:
    cd = t.cd
    mc, r = cd.m_coords, cd.rank
    al = t.alpha
    Acomp = t.Acomp
    sgn = GaussRat.of(-1) if inverse else GR_ONE
    # gauge part: gamma -+ A W (the potential enters with a minus sign so
    # that dbar of the component matrices produces +F in the conjugation)
    gamma = [[s.gamma[u][v] for v in range(r)] for u in range(r)]
    for u in range(r):
        for v in range(r):
            for a in range(mc):
                if Acomp[a][u][v] and s.w[a]:
                    gamma[u][v] = gamma[u][v] - s.w[a].scale_poly(
                        Acomp[a][u][v]).scale(sgn)
    # covector part
    kappa = [s.kappa[a] for a in range(mc)]
    for a in range(mc):
        acc = kappa[a]
        # -alpha' A acting on the gauge part: -alpha' tr(A_a gamma)
        for u in range(r):
            for v in range(r):
                if Acomp[a][u][v] and s.gamma[v][u]:
                    acc = acc - s.gamma[v][u].scale_poly(
                        Acomp[a][u][v]).scale(al * sgn)
        # tau + alpha' Gamma . nabla+ acting on W (sign flips when inverted)
        tterm = ChartForm.zero(mc, 0, s.q)
        for b in range(mc):
            if t.tau[a][b] and s.w[b]:
                tterm = tterm + s.w[b].scale_poly(t.tau[a][b])
        for c in range(mc):
            npw = None
            for b in range(mc):
                if cd.Gamma[a][c][b]:
                    if npw is None:
                        npw = nabla_plus_chart(t, s.w, c)
                    tterm = tterm + npw[b].scale_poly(
                        cd.Gamma[a][c][b]).scale(al)
        acc = acc + tterm.scale(sgn)
        if inverse:
            # + alpha' (A.A) W = alpha' tr(A_a A_d) W^d
            for d in range(mc):
                if s.w[d] and t.trAA[a][d]:
                    acc = acc + s.w[d].scale_poly(t.trAA[a][d]).scale(al)
        kappa[a] = acc
    return ChartSection(mc, r, s.q, tuple(kappa),
                        tuple(tuple(row) for row in gamma), tuple(s.w))


def apply_phi(t: Trivialization, s: ChartSection) -> ChartSection:
    return _phi_action(t, s, inverse=False)


def apply_phi_inverse(t: Trivialization, s: ChartSection) -> ChartSection:
    return _phi_action(t, s, inverse=True)


def dbar_section(s: ChartSection) -> ChartSection:
    return ChartSection(
        s.mc, s.rank, s.q + 1,
        tuple(dbar_chart(x) for x in s.kappa),
        tuple(tuple(dbar_chart(x) for x in row) for row in s.gamma),
        tuple(dbar_chart(x) for x in s.w))


def trivialization_residual(t: Trivialization,
                            s: ChartSection) -> ChartSection:
    """D s - phi^{-1} dbar (phi s); identically zero for a valid pair."""
    lhs = apply_Dbar_chart(t, s)
    rhs = apply_phi_inverse(t, dbar_section(apply_phi(t, s)))
    return lhs - rhs


def monomial_sections(t: Trivialization, degree: int):
    """All sections with a single monomial slot entry of total degree up to
    the bound, covering every covector, trace-free gauge and vector slot."""
    cd = t.cd
    mc, r = cd.m_coords, cd.rank
    monos = []
    for total in range(degree + 1):
        for za in itertools.combinations_with_replacement(range(2 * mc),
                                                          total):
            a = [0] * mc
            b = [0] * mc
            for x in za:
                if x < mc:
                    a[x] += 1
                else:
                    b[x - mc] += 1
            monos.append(Poly.build(mc, {(tuple(a), tuple(b)): GR_ONE}))
    from .qcomplex import trace_free_basis
    out = []
    for f in monos:
        form = ChartForm.func(f)
        for a in range(mc):
            s = ChartSection.zero(mc, r, 0)
            kappa = list(s.kappa)
            kappa[a] = form
            out.append(ChartSection(mc, r, 0, tuple(kappa), s.gamma, s.w))
        for _, mat in trace_free_basis(r):
            s = ChartSection.zero(mc, r, 0)
            gamma = [list(row) for row in s.gamma]
            for (i, j), c in mat.items():
                gamma[i - 1][j - 1] = gamma[i - 1][j - 1] + form.scale(c)
            out.append(ChartSection(mc, r, 0, s.kappa,
                                    tuple(tuple(row) for row in gamma), s.w))
        for a in range(mc):
            s = ChartSection.zero(mc, r, 0)
            w = list(s.w)
            w[a] = form
            out.append(ChartSection(mc, r, 0, s.kappa, s.gamma, tuple(w)))
    return out


# ---------------------------------------------------------------------------
# transitions


@dataclass(frozen=True)
class Transition:
    """phi_1 o phi_2^{-1} for two potential pairs: unipotent with algebraic
    entries (the differential parts cancel)."""

    mc: int
    rank: int
    alpha: GaussRat
    a_diff: Tuple[Tuple[ChartForm, ...], ...]   # A_1 - A_2, (1,0)-forms
    top: Tuple[Tuple[Poly, ...], ...]           # covector <- vector block


def transition(t1: Trivialization, t2: Trivialization) -> Transition:
    if t1.alpha != t2.alpha:
        raise ModelError("transition between different couplings")
    cd = t1.cd
    mc, r = cd.m_coords, cd.rank
    a_diff = tuple(tuple(t1.A[u][v] - t2.A[u][v] for v in range(r))
                   for u in range(r))
    A1, A2 = t1.Acomp, t2.Acomp
    top = [[Poly.zero(mc) for _ in range(mc)] for _ in range(mc)]
    for a in range(mc):
        for d in range(mc):
            acc = t1.tau[a][d] - t2.tau[a][d]
            for u in range(r):
                for v in range(r):
                    acc = acc + (A2[a][u][v] * A2[d][v][u]
                                 - A1[a][u][v] * A2[d][v][u]).scale(t1.alpha)
            top[a][d] = acc
    return Transition(mc, r, t1.alpha, a_diff,
                      tuple(tuple(row) for row in top))


def transition_holomorphic(tr: Transition) -> bool:
    return (all(f.is_holomorphic() for row in tr.a_diff for f in row)
            and all(p.is_holomorphic() for row in tr.top for p in row))


def transition_cocycle_residual(t1: Trivialization, t2: Trivialization,
                                t3: Trivialization) -> bool:
    """psi_12 o psi_23 == psi_13 (True when exact)."""
    p12 = transition(t1, t2)
    p23 = transition(t2, t3)
    p13 = transition(t1, t3)
    mc, r = p12.mc, p12.rank
    for u in range(r):
        for v in range(r):
            if p12.a_diff[u][v] + p23.a_diff[u][v] - p13.a_diff[u][v]:
                return False
    D12 = _a_components([[p12.a_diff[u][v] for v in range(r)]
                         for u in range(r)])
    D23 = _a_components([[p23.a_diff[u][v] for v in range(r)]
                         for u in range(r)])
    for a in range(mc):
        for d in range(mc):
            acc = p12.top[a][d] + p23.top[a][d] - p13.top[a][d]
            for u in range(r):
                for v in range(r):
                    acc = acc + (D12[a][u][v] * D23[d][v][u]).scale(p12.alpha)
            if acc:
                return False
    return True


# ---------------------------------------------------------------------------
# report


def trivialization_report(m: HomogeneousModel, degree: int = 3,
                          alpha0: Optional[GaussRat] = None) -> Dict:
    t0 = build_trivialization(m, alpha0, shift=0)
    pots = potential_residuals(t0)
    res = cs_transgression_residual([[t0.A[u][v] for v in range(t0.cd.rank)]
                                     for u in range(t0.cd.rank)],
                                    [[t0.cd.F_chart[u][v]
                                      for v in range(t0.cd.rank)]
                                     for u in range(t0.cd.rank)])
    cs_ok = not any(res)
    sections = monomial_sections(t0, degree)
    bad = 0
    for s in sections:
        if trivialization_residual(t0, s):
            bad += 1
    t1 = build_trivialization(m, alpha0, shift=1)
    t2 = build_trivialization(m, alpha0, shift=2)
    pairs = [(t0, t1), (t0, t2), (t1, t2)]
    holo = all(transition_holomorphic(transition(x, y)) for x, y in pairs)
    cocycle = transition_cocycle_residual(t0, t1, t2)
    return {
        "model": m.name,
        "alpha_prime": str(t0.alpha),
        "degree": degree,
        "potentials": pots,
        "chern_simons_transgression": cs_ok,
        "operator_identity": {
            "sections_checked": len(sections),
            "failures": bad,
            "passed": bad == 0,
        },
        "transitions": {
            "pairs": len(pairs),
            "holomorphic": holo,
            "cocycle": cocycle,
        },
    }
