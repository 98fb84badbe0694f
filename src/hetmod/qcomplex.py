"""The deformation complex on Q = T* + End(E) + T.

Sections carry three value legs (a covector, a trace-free gauge endomorphism,
and a vector) tensored with invariant (0,p)-forms.  This module builds:

* the algebraic couplings F., T. and R-nabla+ between the legs,
* the operator Dbar (upper triangular in the three legs, the coupling slots
  weighted by the formal variable a) and its sub-operators D1, D2, H, H*,
* the Hermitian Gram matrix of the invariant section basis and the adjoint
  Dbar*, computed both from the Gram matrix and from closed index formulas,
* the volume-form pairings behind the duality identity for H and H*.

Convention: every operator that creates a new antiholomorphic leg prepends it
(left of the existing legs) before normalization.  All sign bookkeeping flows
from that single choice plus the exterior-algebra normalizer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from . import linalg
from .exterior import (
    CovectorForm,
    EndForm,
    FormError,
    InvariantForm,
    VectorForm,
    contract,
    end_pair_trace,
)
from .geometry import (
    HomogeneousModel,
    ModelError,
    _det_gauss,
    anomaly_residual,
    bismut,
    chern_connection,
    curvature_array,
    dbar_form,
    holomorphic_volume,
    metric_inverse,
    torsion_lower,
)
from .scalars import GR_ONE, GR_ZERO, GaussRat, S_A, S_ONE, S_ZERO, Scalar


@dataclass(frozen=True)
class QSection:
    """A Q-valued invariant (0,p)-form: (kappa, gamma, w)."""

    n: int
    r: int
    p: int
    kappa: CovectorForm
    gamma: EndForm
    w: VectorForm

    @staticmethod
    def build(kappa: CovectorForm, gamma: EndForm, w: VectorForm) -> "QSection":
        n, p = kappa.n, kappa.q
        if kappa.p or gamma.p or w.p:
            raise FormError("Q-section legs must be (0,p)-forms")
        if (gamma.n, gamma.q) != (n, p) or (w.n, w.q) != (n, p):
            raise FormError("Q-section legs disagree in n or degree")
        if not gamma.is_trace_free():
            raise FormError("gauge leg of a Q-section must be trace-free")
        return QSection(n, gamma.r, p, kappa, gamma, w)

    @staticmethod
    def zero(n: int, r: int, p: int) -> "QSection":
        return QSection(n, r, p, CovectorForm.zero(n, 0, p),
                        EndForm.zero(n, r, 0, p), VectorForm.zero(n, 0, p))

    def __add__(self, o: "QSection") -> "QSection":
        return QSection(self.n, self.r, self.p, self.kappa + o.kappa,
                        self.gamma + o.gamma, self.w + o.w)

    def __sub__(self, o: "QSection") -> "QSection":
        return self + (-o)

    def __neg__(self) -> "QSection":
        return QSection(self.n, self.r, self.p, -self.kappa, -self.gamma,
                        -self.w)

    def scale(self, s: Scalar) -> "QSection":
        return QSection(self.n, self.r, self.p, self.kappa.scale(s),
                        self.gamma.scale(s), self.w.scale(s))

    def __bool__(self) -> bool:
        return bool(self.kappa) or bool(self.gamma) or bool(self.w)


# ---------------------------------------------------------------------------
# model arrays


def _f_array(m: HomogeneousModel):
    """F[j][k][u][v]: coefficient of a^{j+1}^ab^{k+1} in gauge entry (u,v)."""
    def build():
        n, r = m.n, m.rank
        arr = [[[[GR_ZERO] * r for _ in range(r)] for _ in range(n)]
               for _ in range(n)]
        for u in range(r):
            for v in range(r):
                for (holo, anti), c in m.curvature_F.entry(u, v).terms:
                    val = c.coefficient(0)
                    arr[holo[0] - 1][anti[0] - 1][u][v] = val
        return arr
    return m.cached("gauge_F_array", build)


def _t_array(m: HomogeneousModel):
    """arrT[l][j][k] = T_{l j kbar} (both holomorphic legs explicit)."""
    def build():
        n = m.n
        low = torsion_lower(m)
        return [[[low[k][l][j] for k in range(n)] for j in range(n)]
                for l in range(n)]
    return m.cached("torsion_ljk", build)


def _anti_monomial(n: int, k: int) -> InvariantForm:
    return InvariantForm.monomial(n, [], [k])


def _prepend_anti(k: int, f: InvariantForm) -> InvariantForm:
    """ab^{k} ^ f (the new-leg-first convention)."""
    return _anti_monomial(f.n, k).wedge(f)


# ---------------------------------------------------------------------------
# the three leg derivatives (the Dolbeault operator on each value type)


def dbar_covector(x: CovectorForm, m: HomogeneousModel) -> CovectorForm:
    mu = chern_connection(m).mu
    n = m.n
    out = []
    for c in range(n):
        acc = dbar_form(x.comps[c], m)
        for a in range(n):
            for j in range(n):
                v = mu[a][j][c]
                if v:
                    acc = acc - _prepend_anti(a + 1, x.comps[j]).scale(
                        Scalar.const(v))
        out.append(acc)
    return CovectorForm.build(n, 0, x.q + 1, out)


def dbar_vector(x: VectorForm, m: HomogeneousModel) -> VectorForm:
    mu = chern_connection(m).mu
    n = m.n
    out = []
    for b in range(n):
        acc = dbar_form(x.comps[b], m)
        for a in range(n):
            for j in range(n):
                v = mu[a][b][j]
                if v:
                    acc = acc + _prepend_anti(a + 1, x.comps[j]).scale(
                        Scalar.const(v))
        out.append(acc)
    return VectorForm.build(n, 0, x.q + 1, out)


def dbar_end(x: EndForm, m: HomogeneousModel) -> EndForm:
    """Coefficient-wise in the declared holomorphic gauge frame."""
    return EndForm.build(
        x.n, x.r, 0, x.q + 1,
        [[dbar_form(x.comps[i][j], m) for j in range(x.r)]
         for i in range(x.r)],
    )


# ---------------------------------------------------------------------------
# algebraic couplings


def op_script_F(x, m: HomogeneousModel):
    """The curvature coupling: gauge leg -> covector leg, or vector leg ->
    gauge leg, with the new antiholomorphic index prepended."""
    n, r = m.n, m.rank
    F = _f_array(m)
    if isinstance(x, EndForm):
        comps = []
        for j in range(n):
            acc = InvariantForm.zero(n, 0, x.q + 1)
            for k in range(n):
                for u in range(r):
                    for v in range(r):
                        c = F[j][k][u][v]
                        if c:
                            acc = acc + _prepend_anti(
                                k + 1, x.comps[v][u]).scale(Scalar.const(c))
            comps.append(acc)
        return CovectorForm.build(n, 0, x.q + 1, comps)
    if isinstance(x, VectorForm):
        grid = [[InvariantForm.zero(n, 0, x.q + 1) for _ in range(r)]
                for _ in range(r)]
        for u in range(r):
            for v in range(r):
                for j in range(n):
                    for k in range(n):
                        c = F[j][k][u][v]
                        if c:
                            grid[u][v] = grid[u][v] + _prepend_anti(
                                k + 1, x.comps[j]).scale(Scalar.const(c))
        return EndForm.build(n, r, 0, x.q + 1, grid)
    raise FormError("curvature coupling acts on gauge or vector legs only")


def op_script_T(x: VectorForm, m: HomogeneousModel) -> CovectorForm:
    """Torsion coupling T_{l j kbar} W^l on the vector leg."""
    n = m.n
    arrT = _t_array(m)
    comps = []
    for j in range(n):
        acc = InvariantForm.zero(n, 0, x.q + 1)
        for l in range(n):
            for k in range(n):
                c = arrT[l][j][k]
                if c:
                    acc = acc + _prepend_anti(k + 1, x.comps[l]).scale(
                        Scalar.const(c))
        comps.append(acc)
    return CovectorForm.build(n, 0, x.q + 1, comps)


def _chern_deriv_anti(f: InvariantForm, l: int, m: HomogeneousModel
                      ) -> InvariantForm:
    """(1,0)-direction Chern derivative of the antiholomorphic legs of f."""
    mu = chern_connection(m).mu
    n = m.n
    acc = InvariantForm.zero(n, f.p, f.q)
    for (holo, anti), coeff in f.terms:
        for pos, t in enumerate(anti):
            for c in range(n):
                v = mu[l][t - 1][c]
                if v:
                    new_anti = list(anti)
                    new_anti[pos] = c + 1
                    mono = InvariantForm.monomial(
                        n, list(holo), new_anti,
                        coeff * Scalar.const(-v.conjugate()))
                    acc = acc + mono
    return acc


def nabla_plus_direction(x: VectorForm, l: int, m: HomogeneousModel
                         ) -> VectorForm:
    """Covariant (1,0)-derivative in direction l: torsion-shifted connection
    on the vector leg, Chern connection on the form legs."""
    n = m.n
    gp = bismut(m).gamma
    out = []
    for b in range(n):
        acc = _chern_deriv_anti(x.comps[b], l, m)
        for c in range(n):
            v = gp[l][b][c]
            if v:
                acc = acc + x.comps[c].scale(Scalar.const(v))
        out.append(acc)
    return VectorForm.build(n, 0, x.q, out)


def op_R_nabla_plus(x: VectorForm, m: HomogeneousModel) -> CovectorForm:
    """Chern curvature contracted with the torsion-shifted derivative."""
    n = m.n
    R = curvature_array(m)
    comps = []
    deriv = [nabla_plus_direction(x, l, m) for l in range(n)]
    for j in range(n):
        acc = InvariantForm.zero(n, 0, x.q + 1)
        for k in range(n):
            for l in range(n):
                for mm in range(n):
                    c = R[k][j][l][mm]
                    if c:
                        acc = acc + _prepend_anti(
                            k + 1, deriv[l].comps[mm]).scale(Scalar.const(c))
        comps.append(acc)
    return CovectorForm.build(n, 0, x.q + 1, comps)


def apply_Dbar(s: QSection, m: HomogeneousModel,
               diagonal: bool = False) -> QSection:
    """One application of the deformation operator; the coupling slot in the
    first row carries the formal variable a, so results stay symbolic."""
    kappa = dbar_covector(s.kappa, m)
    gamma = dbar_end(s.gamma, m)
    w = dbar_vector(s.w, m)
    if not diagonal:
        kappa = (kappa
                 + _scale_cov(op_script_F(s.gamma, m), S_A)
                 + op_script_T(s.w, m)
                 + _scale_cov(op_R_nabla_plus(s.w, m), S_A))
        gamma = gamma + op_script_F(s.w, m)
    return QSection.build(kappa, gamma, w)


def _scale_cov(x: CovectorForm, s: Scalar) -> CovectorForm:
    return x.scale(s)


# ---------------------------------------------------------------------------
# bases and coordinates


def _combos(n: int, p: int):
    return list(itertools.combinations(range(1, n + 1), p))


def trace_free_basis(r: int):
    """Ordered basis of trace-free r x r matrices: diagonal differences
    D(k) = E(k,k) - E(k+1,k+1), then off-diagonal units E(l,m)."""
    basis = []
    for k in range(1, r):
        basis.append((f"D({k})", {(k, k): GR_ONE, (k + 1, k + 1): -GR_ONE}))
    for l in range(1, r + 1):
        for mm in range(1, r + 1):
            if l != mm:
                basis.append((f"E({l},{mm})", {(l, mm): GR_ONE}))
    return basis


def endo_coordinates(entries) -> List:
    """Coordinates of a trace-free matrix of values in the trace_free_basis
    order; entries[i][j] may be Scalars or GaussRats."""
    r = len(entries)
    coords = []
    acc = None
    for k in range(r - 1):
        acc = entries[k][k] if acc is None else acc + entries[k][k]
        coords.append(acc)
    for l in range(r):
        for mm in range(r):
            if l != mm:
                coords.append(entries[l][mm])
    return coords


def _leg_label(K) -> str:
    return "abar{" + "".join(str(k) for k in K) + "}"


@dataclass(frozen=True)
class QBasis:
    """Ordered invariant basis of Q-valued (0,p)-forms with printable labels."""

    n: int
    r: int
    p: int
    labels: Tuple[str, ...]
    sections: Tuple[QSection, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)


def q_basis(m: HomogeneousModel, p: int) -> QBasis:
    def build():
        n, r = m.n, m.rank
        combos = _combos(n, p)
        labels: List[str] = []
        sections: List[QSection] = []
        for j in range(1, n + 1):
            for K in combos:
                comps = [InvariantForm.monomial(n, [], list(K))
                         if t == j - 1 else InvariantForm.zero(n, 0, p)
                         for t in range(n)]
                labels.append(f"e1:a^{j}:{_leg_label(K)}")
                sections.append(QSection.build(
                    CovectorForm.build(n, 0, p, comps),
                    EndForm.zero(n, r, 0, p), VectorForm.zero(n, 0, p)))
        for name, mat in trace_free_basis(r):
            for K in combos:
                grid = [[InvariantForm.monomial(
                    n, [], list(K), Scalar.const(mat[(i + 1, j + 1)]))
                    if (i + 1, j + 1) in mat else InvariantForm.zero(n, 0, p)
                    for j in range(r)] for i in range(r)]
                labels.append(f"e2:{name}:{_leg_label(K)}")
                sections.append(QSection.build(
                    CovectorForm.zero(n, 0, p),
                    EndForm.build(n, r, 0, p, grid),
                    VectorForm.zero(n, 0, p)))
        for j in range(1, n + 1):
            for K in combos:
                comps = [InvariantForm.monomial(n, [], list(K))
                         if t == j - 1 else InvariantForm.zero(n, 0, p)
                         for t in range(n)]
                labels.append(f"e3:V^{j}:{_leg_label(K)}")
                sections.append(QSection.build(
                    CovectorForm.zero(n, 0, p), EndForm.zero(n, r, 0, p),
                    VectorForm.build(n, 0, p, comps)))
        return QBasis(n, r, p, tuple(labels), tuple(sections))
    return m.cached(("q_basis", p), build)


def q_coordinates(s: QSection) -> List[Scalar]:
    """Coordinates of a Q-section in the q_basis order (Scalars)."""
    n, r, p = s.n, s.r, s.p
    combos = _combos(n, p)
    coords: List[Scalar] = []
    for j in range(n):
        for K in combos:
            coords.append(s.kappa.comps[j].coeff((), K))
    entry_coords = {}
    for K in combos:
        entries = [[s.gamma.comps[i][j].coeff((), K) for j in range(r)]
                   for i in range(r)]
        entry_coords[K] = endo_coordinates(entries)
    for t in range(r * r - 1):
        for K in combos:
            coords.append(entry_coords[K][t])
    for j in range(n):
        for K in combos:
            coords.append(s.w.comps[j].coeff((), K))
    return coords


def section_from_coordinates(m: HomogeneousModel, p: int,
                             coords: Sequence[Scalar]) -> QSection:
    basis = q_basis(m, p)
    if len(coords) != basis.dim:
        raise FormError("coordinate vector has the wrong length")
    acc = QSection.zero(m.n, m.rank, p)
    for c, b in zip(coords, basis.sections):
        if c:
            acc = acc + b.scale(c)
    return acc


# ---------------------------------------------------------------------------
# operator matrices


@dataclass(frozen=True)
class QOperatorMatrix:
    """A linear operator between invariant Q-section spaces, with entries
    polynomial in the formal coupling variable a."""

    source_p: int
    target_p: int
    source_labels: Tuple[str, ...]
    target_labels: Tuple[str, ...]
    entries: Tuple[Tuple[Scalar, ...], ...]  # rows: target, cols: source

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.target_labels), len(self.source_labels))

    def specialize(self, a0: GaussRat) -> List[List[GaussRat]]:
        return [[e.evaluate(a0) for e in row] for row in self.entries]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QOperatorMatrix):
            return NotImplemented
        return (self.source_p == other.source_p
                and self.target_p == other.target_p
                and self.entries == other.entries)


def _matrix_from_images(source_p, target_p, source_labels, target_labels,
                        images: List[List[Scalar]]) -> QOperatorMatrix:
    rows = len(target_labels)
    cols = len(source_labels)
    grid = [[S_ZERO] * cols for _ in range(rows)]
    for c, img in enumerate(images):
        for rr in range(rows):
            grid[rr][c] = img[rr]
    return QOperatorMatrix(source_p, target_p, tuple(source_labels),
                           tuple(target_labels),
                           tuple(tuple(row) for row in grid))


def assemble_Dbar(m: HomogeneousModel, p: int,
                  diagonal: bool = False) -> QOperatorMatrix:
    key = ("Dbar", p, diagonal)
    def build():
        src = q_basis(m, p)
        tgt = q_basis(m, p + 1)
        images = [q_coordinates(apply_Dbar(s, m, diagonal))
                  for s in src.sections]
        return _matrix_from_images(p, p + 1, src.labels, tgt.labels, images)
    return m.cached(key, build)


# ---------------------------------------------------------------------------
# Gram matrices and the adjoint


def _leg_gram(m: HomogeneousModel, p: int):
    """Gram matrix of the ab^{K} basis of (0,p) legs."""
    def build():
        A = metric_inverse(m)
        combos = _combos(m.n, p)
        out = []
        for K in combos:
            row = []
            for L in combos:
                rows = [[A[k - 1][l - 1] for l in L] for k in K]
                row.append(_det_gauss(rows))
            out.append(row)
        return out
    return m.cached(("leg_gram", p), build)


def gram(m: HomogeneousModel, p: int) -> List[List[GaussRat]]:
    """Hermitian positive Gram matrix of the q_basis, block diagonal in the
    three value legs."""
    def build():
        n, r = m.n, m.rank
        A = metric_inverse(m)
        L = _leg_gram(m, p)
        nk = len(_combos(n, p))
        ebasis = trace_free_basis(r)
        ne = len(ebasis)
        dim = (2 * n + ne) * nk
        G = linalg.zeros(dim, dim)

        def eg(b1, b2):
            acc = GR_ZERO
            for key, v in b1[1].items():
                if key in b2[1]:
                    acc = acc + v * b2[1][key].conjugate()
            return acc

        for j in range(n):
            for jp in range(n):
                v = A[jp][j]
                for a in range(nk):
                    for b in range(nk):
                        G[j * nk + a][jp * nk + b] = v * L[a][b]
        off = n * nk
        for s in range(ne):
            for t in range(ne):
                v = eg(ebasis[s], ebasis[t])
                if not v:
                    continue
                for a in range(nk):
                    for b in range(nk):
                        G[off + s * nk + a][off + t * nk + b] = v * L[a][b]
        off = (n + ne) * nk
        for j in range(n):
            for jp in range(n):
                v = m.metric[j][jp]
                for a in range(nk):
                    for b in range(nk):
                        G[off + j * nk + a][off + jp * nk + b] = v * L[a][b]
        return G
    return m.cached(("gram", p), build)


def gram_pair(m: HomogeneousModel, p: int, x: Sequence[Scalar],
              y: Sequence[Scalar]) -> Scalar:
    """<x, y> with the second slot conjugated (a treated as real)."""
    G = gram(m, p)
    acc = S_ZERO
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if yj and G[i][j]:
                acc = acc + xi * Scalar.const(G[i][j]) * yj.conjugate()
    return acc


def gram_adjoint(m: HomogeneousModel, op: QOperatorMatrix) -> QOperatorMatrix:
    """The metric adjoint: maps degree target_p back to source_p.

    With <x,y> = x^T G conj(y) and M the operator matrix, the adjoint is
    conj(G_src^{-1} M^T G_tgt), entrywise on polynomial entries (a is real).
    """
    G_src = gram(m, op.source_p)
    G_tgt = gram(m, op.target_p)
    Ginv = linalg.inverse(G_src)
    rows, cols = op.shape
    # M^T G_tgt (Scalar x GaussRat)
    mtg = [[S_ZERO] * rows for _ in range(cols)]
    for i in range(cols):
        for j in range(rows):
            acc = S_ZERO
            for k in range(rows):
                e = op.entries[k][i]
                if e and G_tgt[k][j]:
                    acc = acc + e * Scalar.const(G_tgt[k][j])
            mtg[i][j] = acc
    out = [[S_ZERO] * rows for _ in range(cols)]
    for i in range(cols):
        for j in range(rows):
            acc = S_ZERO
            for k in range(cols):
                if Ginv[i][k] and mtg[k][j]:
                    acc = acc + Scalar.const(Ginv[i][k]) * mtg[k][j]
            out[i][j] = acc.conjugate()
    return QOperatorMatrix(op.target_p, op.source_p, op.target_labels,
                           op.source_labels,
                           tuple(tuple(row) for row in out))


def assemble_Dstar(m: HomogeneousModel, p: int) -> QOperatorMatrix:
    """Adjoint of Dbar from degree p-1; cross-checked against the closed
    index formulas by assemble_Dstar_formula (see tests)."""
    if p < 1:
        raise ModelError("the adjoint lowers degree; need p >= 1")
    return m.cached(("Dstar", p),
                    lambda: gram_adjoint(m, assemble_Dbar(m, p - 1)))


# ---------------------------------------------------------------------------
# closed-formula adjoint pieces


def _interior(m: HomogeneousModel, k: int, f: InvariantForm) -> InvariantForm:
    """Metric contraction of the leg ab^{k+1} out of an anti-leg form."""
    A = metric_inverse(m)
    n = m.n
    acc = InvariantForm.zero(n, 0, f.q - 1)
    for (_, anti), coeff in f.terms:
        for pos, l in enumerate(anti):
            v = A[k][l - 1].conjugate()
            if not v:
                continue
            rest = anti[:pos] + anti[pos + 1:]
            sgn = S_ONE if pos % 2 == 0 else -S_ONE
            acc = acc + InvariantForm.monomial(
                n, [], list(rest), coeff * Scalar.const(v) * sgn)
    return acc


def op_F_star_kappa(kap: CovectorForm, m: HomogeneousModel) -> EndForm:
    """Adjoint of the gauge->covector coupling."""
    n, r = m.n, m.rank
    A = metric_inverse(m)
    F = _f_array(m)
    grid = [[InvariantForm.zero(n, 0, kap.q - 1) for _ in range(r)]
            for _ in range(r)]
    for v in range(r):
        for u in range(r):
            for j in range(n):
                for jp in range(n):
                    if not A[jp][j]:
                        continue
                    for k in range(n):
                        c = (A[jp][j] * F[j][k][u][v]).conjugate()
                        if c:
                            grid[v][u] = grid[v][u] + _interior(
                                m, k, kap.comps[jp]).scale(Scalar.const(c))
    return EndForm.build(n, r, 0, kap.q - 1, grid)


def _vector_from_paired(m: HomogeneousModel, C: List[InvariantForm],
                        q: int) -> VectorForm:
    """Solve sum_p h[p][j] X_p = C_j for the vector components X."""
    n = m.n
    A = metric_inverse(m)
    out = []
    for p_ in range(n):
        acc = InvariantForm.zero(n, 0, q)
        for j in range(n):
            if A[j][p_]:
                acc = acc + C[j].scale(Scalar.const(A[j][p_]))
        out.append(acc)
    return VectorForm.build(n, 0, q, out)


def op_F_star_gamma(g: EndForm, m: HomogeneousModel) -> VectorForm:
    """Adjoint of the vector->gauge coupling."""
    n, r = m.n, m.rank
    F = _f_array(m)
    C = [InvariantForm.zero(n, 0, g.q - 1) for _ in range(n)]
    for j in range(n):
        for k in range(n):
            for u in range(r):
                for v in range(r):
                    c = F[j][k][u][v].conjugate()
                    if c:
                        C[j] = C[j] + _interior(m, k, g.comps[u][v]).scale(
                            Scalar.const(c))
    return _vector_from_paired(m, C, g.q - 1)


def op_T_star(kap: CovectorForm, m: HomogeneousModel) -> VectorForm:
    """Adjoint of the torsion coupling."""
    n = m.n
    A = metric_inverse(m)
    arrT = _t_array(m)
    C = [InvariantForm.zero(n, 0, kap.q - 1) for _ in range(n)]
    for l in range(n):
        for j in range(n):
            for jp in range(n):
                if not A[jp][j]:
                    continue
                for k in range(n):
                    c = (A[jp][j] * arrT[l][j][k]).conjugate()
                    if c:
                        C[l] = C[l] + _interior(m, k, kap.comps[jp]).scale(
                            Scalar.const(c))
    return _vector_from_paired(m, C, kap.q - 1)


def _leg_derivative_adjoint(m: HomogeneousModel, l: int, q: int):
    """Gram adjoint (on (0,q) legs) of the Chern leg derivative in the
    (1,0)-direction l, as a matrix over the ab^{K} basis."""
    key = ("leg_deriv_adj", l, q)
    def build():
        combos = _combos(m.n, q)
        L = _leg_gram(m, q)
        nk = len(combos)
        D = linalg.zeros(nk, nk)
        for c, K in enumerate(combos):
            img = _chern_deriv_anti(
                InvariantForm.monomial(m.n, [], list(K)), l, m)
            for rr, Kp in enumerate(combos):
                val = img.coeff((), Kp)
                if val.degree > 0:
                    raise ModelError("leg derivative is not constant in a")
                D[rr][c] = val.coefficient(0)
        Linv = linalg.inverse(L)
        # adj = conj(L^{-1} D^T L)
        DT = linalg.transpose(D)
        return [[x.conjugate() for x in row]
                for row in linalg.mat_mul(linalg.mat_mul(Linv, DT), L)]
    return m.cached(key, build)


def _apply_leg_matrix(m: HomogeneousModel, mat, f: InvariantForm
                      ) -> InvariantForm:
    combos = _combos(m.n, f.q)
    acc = InvariantForm.zero(m.n, 0, f.q)
    for c, K in enumerate(combos):
        v = f.coeff((), K)
        if not v:
            continue
        for rr, Kp in enumerate(combos):
            if mat[rr][c]:
                acc = acc + InvariantForm.monomial(
                    m.n, [], list(Kp), v * Scalar.const(mat[rr][c]))
    return acc


def op_R_nabla_plus_star(kap: CovectorForm, m: HomogeneousModel) -> VectorForm:
    """Adjoint of the curvature/derivative coupling on the invariant complex:
    constant connection coefficients transpose against the Gram metric, and
    the leg-derivative part contributes through its leg-Gram adjoint."""
    n = m.n
    A = metric_inverse(m)
    R = curvature_array(m)
    gp = bismut(m).gamma
    q = kap.q - 1
    u_forms = {}
    for l in range(n):
        for mm in range(n):
            acc = InvariantForm.zero(n, 0, q)
            for j in range(n):
                for jp in range(n):
                    if not A[jp][j]:
                        continue
                    for k in range(n):
                        c = (A[jp][j] * R[k][j][l][mm]).conjugate()
                        if c:
                            acc = acc + _interior(
                                m, k, kap.comps[jp]).scale(Scalar.const(c))
            u_forms[(l, mm)] = acc
    C = [InvariantForm.zero(n, 0, q) for _ in range(n)]
    for c in range(n):
        for l in range(n):
            for mm in range(n):
                v = gp[l][mm][c].conjugate()
                if v and u_forms[(l, mm)]:
                    C[c] = C[c] + u_forms[(l, mm)].scale(Scalar.const(v))
            if u_forms[(l, c)]:
                mat = _leg_derivative_adjoint(m, l, q)
                C[c] = C[c] + _apply_leg_matrix(m, mat, u_forms[(l, c)])
    return _vector_from_paired(m, C, q)


def assemble_Dstar_formula(m: HomogeneousModel, p: int) -> QOperatorMatrix:
    """The adjoint assembled from the closed formulas: diagonal blocks are
    the Gram adjoints of the leg Dolbeault operators, coupling blocks come
    from the index formulas above.  Must equal assemble_Dstar exactly."""
    if p < 1:
        raise ModelError("the adjoint lowers degree; need p >= 1")
    src = q_basis(m, p)
    tgt = q_basis(m, p - 1)
    n, r = m.n, m.rank
    # the leg Dolbeault adjoints: Gram adjoint of the decoupled operator,
    # which is block diagonal because the Gram matrix is
    diag = gram_adjoint(m, assemble_Dbar(m, p - 1, diagonal=True))
    out = [list(row) for row in diag.entries]
    for s_idx, sec in enumerate(src.sections):
        kap, g, w = sec.kappa, sec.gamma, sec.w
        col = [S_ZERO] * tgt.dim
        if kap:
            fs = op_F_star_kappa(kap, m)
            ts = op_T_star(kap, m)
            rs = op_R_nabla_plus_star(kap, m)
            img = QSection.build(CovectorForm.zero(n, 0, p - 1), fs,
                                 VectorForm.zero(n, 0, p - 1))
            for i, v in enumerate(q_coordinates(img)):
                col[i] = col[i] + v * S_A
            img = QSection.build(CovectorForm.zero(n, 0, p - 1),
                                 EndForm.zero(n, r, 0, p - 1),
                                 ts + rs.scale(S_A))
            for i, v in enumerate(q_coordinates(img)):
                col[i] = col[i] + v
        if g:
            fv = op_F_star_gamma(g, m)
            img = QSection.build(CovectorForm.zero(n, 0, p - 1),
                                 EndForm.zero(n, r, 0, p - 1), fv)
            for i, v in enumerate(q_coordinates(img)):
                col[i] = col[i] + v
        for i in range(tgt.dim):
            if col[i]:
                out[i][s_idx] = out[i][s_idx] + col[i]
    return QOperatorMatrix(p, p - 1, src.labels, tgt.labels,
                           tuple(tuple(row) for row in out))


# ---------------------------------------------------------------------------
# sub-operators


def _q1_basis(m: HomogeneousModel, p: int):
    """(labels, (gamma, w) pairs) for the End + T subbundle."""
    basis = q_basis(m, p)
    n = m.n
    nk = len(_combos(n, p))
    start = n * nk
    labels = basis.labels[start:]
    pairs = [(s.gamma, s.w) for s in basis.sections[start:]]
    return labels, pairs


def _q1star_basis(m: HomogeneousModel, p: int):
    """(labels, (kappa, gamma) pairs) for the T* + End subbundle."""
    basis = q_basis(m, p)
    n = m.n
    nk = len(_combos(n, p))
    ne = (m.rank * m.rank - 1) * nk
    end = n * nk + ne
    labels = basis.labels[:end]
    pairs = [(s.kappa, s.gamma) for s in basis.sections[:end]]
    return labels, pairs


def _coords_end_w(m, p, gamma, w):
    s = QSection.build(CovectorForm.zero(m.n, 0, p), gamma, w)
    nk = len(_combos(m.n, p))
    return q_coordinates(s)[m.n * nk:]


def _coords_kappa_end(m, p, kappa, gamma):
    s = QSection.build(kappa, gamma, VectorForm.zero(m.n, 0, p))
    nk = len(_combos(m.n, p))
    ne = (m.rank * m.rank - 1) * nk
    return q_coordinates(s)[:m.n * nk + ne]


def _coords_covector(m, p, kappa):
    nk = len(_combos(m.n, p))
    s = QSection.build(kappa, EndForm.zero(m.n, m.rank, 0, p),
                       VectorForm.zero(m.n, 0, p))
    return q_coordinates(s)[:m.n * nk]


def assemble_Dbar1(m: HomogeneousModel, p: int) -> QOperatorMatrix:
    """[dbar_E, F; 0, dbar] on the End + T subbundle."""
    src_labels, src = _q1_basis(m, p)
    tgt_labels, _ = _q1_basis(m, p + 1)
    images = []
    for g, w in src:
        img_g = dbar_end(g, m) + op_script_F(w, m)
        img_w = dbar_vector(w, m)
        images.append(_coords_end_w(m, p + 1, img_g, img_w))
    return _matrix_from_images(p, p + 1, src_labels, tgt_labels, images)


def assemble_Dbar2(m: HomogeneousModel, p: int) -> QOperatorMatrix:
    """[dbar, a F; 0, dbar_E] on the T* + End subbundle."""
    src_labels, src = _q1star_basis(m, p)
    tgt_labels, _ = _q1star_basis(m, p + 1)
    images = []
    for kap, g in src:
        img_k = dbar_covector(kap, m) + op_script_F(g, m).scale(S_A)
        img_g = dbar_end(g, m)
        images.append(_coords_kappa_end(m, p + 1, img_k, img_g))
    return _matrix_from_images(p, p + 1, src_labels, tgt_labels, images)


def assemble_H(m: HomogeneousModel, p: int) -> QOperatorMatrix:
    """The connecting operator End + T -> T*: a F gamma + T W + a R nabla+ W."""
    src_labels, src = _q1_basis(m, p)
    tgt = q_basis(m, p + 1)
    nk = len(_combos(m.n, p + 1))
    tgt_labels = tgt.labels[:m.n * nk]
    images = []
    for g, w in src:
        img = (op_script_F(g, m).scale(S_A) + op_script_T(w, m)
               + op_R_nabla_plus(w, m).scale(S_A))
        images.append(_coords_covector(m, p + 1, img))
    return _matrix_from_images(p, p + 1, src_labels, tgt_labels, images)


def assemble_Hstar(m: HomogeneousModel, p: int) -> QOperatorMatrix:
    """The connecting operator T -> T* + End: (T W + a R nabla+ W, F W)."""
    basis = q_basis(m, p)
    nk = len(_combos(m.n, p))
    start = (m.n + m.rank * m.rank - 1) * nk
    src_labels = basis.labels[start:]
    tgt_labels, _ = _q1star_basis(m, p + 1)
    images = []
    for s in basis.sections[start:]:
        w = s.w
        img_k = op_script_T(w, m) + op_R_nabla_plus(w, m).scale(S_A)
        img_g = op_script_F(w, m)
        images.append(_coords_kappa_end(m, p + 1, img_k, img_g))
    return _matrix_from_images(p, p + 1, src_labels, tgt_labels, images)


def reassembly_residuals(m: HomogeneousModel, p: int) -> Dict[str, bool]:
    """Check that Dbar reassembles from (dbar, H; 0, D1) and from
    (D2, H*; 0, dbar); returns booleans per identity (True = exact)."""
    full = assemble_Dbar(m, p)
    n = m.n
    nk_src = len(_combos(n, p))
    nk_tgt = len(_combos(n, p + 1))
    ne = m.rank * m.rank - 1
    c1 = n * nk_src               # end of e1 columns
    r1 = n * nk_tgt
    c2 = (n + ne) * nk_src        # end of e2 columns
    r2 = (n + ne) * nk_tgt

    d1 = assemble_Dbar1(m, p)
    h = assemble_H(m, p)
    dbar_diag = assemble_Dbar(m, p, diagonal=True)
    split_ok = True
    for i in range(len(full.target_labels)):
        for j in range(len(full.source_labels)):
            if i < r1 and j < c1:
                want = dbar_diag.entries[i][j]
            elif i < r1:
                want = h.entries[i][j - c1]
            elif j < c1:
                want = S_ZERO
            else:
                want = d1.entries[i - r1][j - c1]
            if full.entries[i][j] != want:
                split_ok = False

    d2 = assemble_Dbar2(m, p)
    hs = assemble_Hstar(m, p)
    dual_ok = True
    for i in range(len(full.target_labels)):
        for j in range(len(full.source_labels)):
            if i < r2 and j < c2:
                want = d2.entries[i][j]
            elif i < r2:
                want = hs.entries[i][j - c2]
            elif j < c2:
                want = S_ZERO
            else:
                want = dbar_diag.entries[i][j]
            if full.entries[i][j] != want:
                dual_ok = False
    return {"split": split_ok, "dual": dual_ok}


# ---------------------------------------------------------------------------
# volume-form pairings and the duality identity


def _top_coefficient(f: InvariantForm) -> Scalar:
    n = f.n
    full = tuple(range(1, n + 1))
    return f.coeff(full, full)


def pairing_q1(m: HomogeneousModel, beta: EndForm, v: VectorForm,
               kappa: CovectorForm, gamma: EndForm,
               alpha: Scalar) -> Scalar:
    """(beta, V) against (kappa, gamma): coefficient of
    (V . kappa - alpha tr(beta ^ gamma)) ^ Omega on the volume monomial."""
    inner = contract(v, kappa) - end_pair_trace(beta, gamma).scale(alpha)
    return _top_coefficient(inner.wedge(holomorphic_volume(m)))


def pairing_t(m: HomogeneousModel, x: CovectorForm, w: VectorForm) -> Scalar:
    """Covector-valued form applied to a vector-valued form (covector legs
    first), integrated against Omega."""
    acc = InvariantForm.zero(m.n, x.p + w.p, x.q + w.q)
    for j in range(m.n):
        acc = acc + x.comps[j].wedge(w.comps[j])
    return _top_coefficient(acc.wedge(holomorphic_volume(m)))


def duality_residual(m: HomogeneousModel, beta: EndForm, v: VectorForm,
                     w: VectorForm, alpha: Scalar) -> Scalar:
    """(u, H* w) - (-1)^{n-p} (H u, w) for u = (beta, V) of degree n-p-1 and
    w of degree p; zero for closed inputs."""
    n = m.n
    p = w.q
    hw_k = op_script_T(w, m) + op_R_nabla_plus(w, m).scale(alpha)
    hw_g = op_script_F(w, m)
    lhs = pairing_q1(m, beta, v, hw_k, hw_g, alpha)
    hu = (op_script_F(beta, m).scale(alpha) + op_script_T(v, m)
          + op_R_nabla_plus(v, m).scale(alpha))
    rhs = pairing_t(m, hu, w)
    sign = S_ONE if (n - p) % 2 == 0 else -S_ONE
    return lhs - rhs * sign


# ---------------------------------------------------------------------------
# nilpotency and the commutation identity


def scale_gauge(m: HomogeneousModel, factor: GaussRat) -> HomogeneousModel:
    """Copy of the model with the gauge curvature scaled (breaks the anomaly
    balance unless factor is 1)."""
    return HomogeneousModel(
        name=m.name + f"[F*{factor}]",
        n=m.n,
        coframe_names=list(m.coframe_names),
        d_coframe=list(m.d_coframe),
        metric=[row[:] for row in m.metric],
        omega_coeff=m.omega_coeff,
        rank=m.rank,
        curvature_F=m.curvature_F.scale(Scalar.const(factor)),
        alpha_prime=m.alpha_prime,
        chart=m.chart,
    )


def nilpotency_report(m: HomogeneousModel, p: int = 0) -> Dict:
    """Apply Dbar twice to the full basis of degree p, symbolically in a.

    Reports whether the square vanishes, whether any residual is confined to
    the covector row, and the set of a-values (roots) where the covector
    residual vanishes for every basis section.
    """
    basis = q_basis(m, p)
    e1_only = True
    residual_cols = []
    any_nonzero = False
    for s in basis.sections:
        dd = apply_Dbar(apply_Dbar(s, m), m)
        if dd.gamma or dd.w:
            e1_only = False
        if dd:
            any_nonzero = True
        residual_cols.append(dd)
    return {
        "square_zero": not any_nonzero,
        "e1_only": e1_only,
        "residuals": residual_cols,
        "basis_labels": basis.labels,
    }


def expected_square_residual(m: HomogeneousModel, s: QSection) -> CovectorForm:
    """The anomaly (2,2)-form (in its symbolic-a version), contracted with
    the vector leg of s: half the anomaly residual with components
    A_{m kbar l jbar} producing W^l -> dz^m x ab^k ^ ab^j legs."""
    n = m.n
    A = anomaly_residual(m, None).scale(Scalar.of("1/2"))
    comps = []
    for mm in range(n):
        acc = InvariantForm.zero(n, 0, s.p + 2)
        for l in range(n):
            if not s.w.comps[l]:
                continue
            for k in range(n):
                for j in range(n):
                    c = A.coeff((mm + 1, l + 1), (k + 1, j + 1))
                    if c:
                        anti2 = InvariantForm.monomial(n, [], [k + 1, j + 1],
                                                       c * Scalar.of("1/2"))
                        acc = acc + anti2.wedge(s.w.comps[l])
        comps.append(acc)
    return CovectorForm.build(n, 0, s.p + 2, comps)


def commutation_residual(m: HomogeneousModel, w: VectorForm, l: int
                         ) -> VectorForm:
    """dbar(nabla+_l w) - R-term - nabla+_l(dbar w); the curvature term is
    R as a (0,1)-form valued in T* x End(T), contracted with the vector leg.

    The identity is pointwise in the vector leg, so the exact statement in an
    invariant frame is the one on vector fields (w of degree zero); for higher
    degrees the frame connection also acts on the spectator legs and the naive
    difference picks up leg-curvature terms."""
    n = m.n
    R = curvature_array(m)
    lhs = dbar_vector(nabla_plus_direction(w, l, m), m)
    rhs = nabla_plus_direction(dbar_vector(w, m), l, m)
    comps = []
    for k in range(n):
        acc = InvariantForm.zero(n, 0, w.q + 1)
        for kb in range(n):
            for j in range(n):
                c = R[kb][j][k][l]
                if c:
                    acc = acc + _prepend_anti(kb + 1, w.comps[j]).scale(
                        Scalar.const(c))
        comps.append(acc)
    rterm = VectorForm.build(n, 0, w.q + 1, comps)
    return lhs - rterm - rhs
