"""The second routes of hetmod's oracle pairs, which only the tests run.

The package builds Dbar from per-model tables (``qcomplex.assemble_Dbar``)
and its adjoint from the Gram matrix (``qcomplex.gram_adjoint``).  The
routes they are checked against live here, out of ``src/hetmod``, so that
no command compiles them; their logic is the package's former code:

* the value legs ``VectorForm`` and ``CovectorForm`` (``LegForm``), and
  ``contract`` that pairs them;
* Q-sections (``QSection``), the invariant basis ``q_basis`` in the order
  of ``qcomplex.q_labels``, and ``q_coordinates`` that reads a section in
  it;
* the form route of Dbar, ``apply_Dbar``: the leg Dolbeault operators and
  the couplings F., T. and R-nabla+ acting on forms, the oracle for the
  table route;
* the blocks of an operator by leg range (``leg_block``) and the check that
  Dbar is upper triangular in its legs;
* the adjoint from closed index formulas (``assemble_Dstar_formula``), the
  oracle for the Gram adjoint on the coupling blocks;
* the volume-form pairings and the duality residual of H and H*; the
  square of Dbar against the anomaly (``nilpotency_report``,
  ``expected_square_residual``); the commutation identity; and the
  symmetry of the Chern curvature;
* ``identity`` and ``transpose`` of dense matrices.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from functools import partial

from hetmod import linalg
from hetmod.exterior import (EndForm, InvariantForm, Valued, _check_same,
                             end_pair_trace)
from hetmod.geometry import (HomogeneousModel, ModelError, anomaly_residual,
                             bismut, chern_connection, curvature_array,
                             dbar_form, holomorphic_volume, metric_inverse,
                             torsion_lower, torsion_raised)
from hetmod.linalg import Matrix
from hetmod.qcomplex import (QOperatorMatrix, _chern_deriv_anti, _combos,
                             _coordinates, _cube, _f_array, _f_table,
                             _gram_factors, _leg_bounds, _leg_gram,
                             _mu_table, _offsets, _prepend, _r_table,
                             _refuse_degree, _t_table, _table,
                             assemble_Dbar, decoupled, fibre_basis,
                             gram_adjoint, q_labels)
from hetmod.scalars import (GR_ONE, GR_ZERO, S_A, S_ONE, S_ZERO, FormError,
                            Record, Scalar, _acc, _make)


# ---------------------------------------------------------------------------
# dense matrices


def identity(k: int) -> Matrix:
    m = linalg.zeros(k, k)
    for i in range(k):
        m[i][i] = GR_ONE
    return m


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


# ---------------------------------------------------------------------------
# value legs


class LegForm(Valued, Record):
    """An n-component value leg tensored with invariant (p,q)-forms."""

    n: int
    p: int
    q: int
    comps: tuple[InvariantForm, ...]

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


def contract(v: LegForm, k: LegForm) -> InvariantForm:
    """Pair a vector leg against a covector leg (either may come first) and
    wedge the form parts in argument order."""
    if v.n != k.n:
        raise FormError("contract over different coframes")
    acc = InvariantForm.zero(v.n, v.p + k.p, v.q + k.q)
    for j in range(v.n):
        acc = acc + v.comps[j].wedge(k.comps[j])
    return acc


# ---------------------------------------------------------------------------
# Q-sections and the invariant basis


class QSection(Valued, Record):
    """A Q-valued invariant (0,p)-form: comps = (kappa, gamma, w)."""

    n: int
    r: int
    p: int
    comps: tuple[CovectorForm, EndForm, VectorForm]

    kappa = property(lambda self: self.comps[0])
    gamma = property(lambda self: self.comps[1])
    w = property(lambda self: self.comps[2])

    @staticmethod
    def build(kappa: CovectorForm, gamma: EndForm, w: VectorForm) -> "QSection":
        n, p = kappa.n, kappa.q
        if kappa.p or gamma.p or w.p:
            raise FormError("Q-section legs must be (0,p)-forms")
        if (gamma.n, gamma.q) != (n, p) or (w.n, w.q) != (n, p):
            raise FormError("Q-section legs disagree in n or degree")
        if not gamma.is_trace_free():
            raise FormError("gauge leg of a Q-section must be trace-free")
        return QSection(n, gamma.r, p, (kappa, gamma, w))

    @staticmethod
    def zero(n: int, r: int, p: int) -> "QSection":
        return QSection(n, r, p, (CovectorForm.zero(n, 0, p),
                                  EndForm.zero(n, r, 0, p),
                                  VectorForm.zero(n, 0, p)))

    def _like(self, comps) -> "QSection":
        return QSection(self.n, self.r, self.p, comps)


class QBasis(Record):
    """Ordered invariant basis of Q-valued (0,p)-forms with printable labels."""

    n: int
    r: int
    p: int
    labels: tuple[str, ...]
    sections: tuple[QSection, ...]

    @property
    def dim(self) -> int:
        return len(self.labels)


def q_basis(m: HomogeneousModel, p: int) -> QBasis:
    def build():
        n, r = m.n, m.rank
        g, w, slots = _offsets(n, r)
        sections = []
        for _, value in fibre_basis(n, r):
            for K in _combos(n, p):
                comps = [InvariantForm.monomial(n, [], K,
                                                Scalar.const(value[i]))
                         if i in value else InvariantForm.zero(n, 0, p)
                         for i in range(slots)]
                sections.append(QSection.build(
                    CovectorForm.build(n, 0, p, comps[:g]),
                    EndForm(n, r, 0, p, tuple(comps[g:w])),
                    VectorForm.build(n, 0, p, comps[w:])))
        return QBasis(n, r, p, q_labels(m, p), tuple(sections))
    return m.cached(("q_basis", p), build)


def q_coordinates(s: QSection) -> list[Scalar]:
    """Coordinates of a Q-section in the q_basis order (Scalars): its value
    slots read as the coefficients ``_coordinates`` takes."""
    combos = _combos(s.n, s.p)
    index = {K: t for t, K in enumerate(combos)}
    slots = itertools.chain(s.kappa.comps, s.gamma.flat, s.w.comps)
    acc = {(j, index[K]): v for j, f in enumerate(slots)
           for (_, K), v in f.terms}
    nt = len(combos)
    out = [S_ZERO] * ((_offsets(s.n, s.r)[2] - 1) * nt)
    for t, v in _coordinates(acc, s.n, s.r, nt).items():
        out[t] = v
    return out


# ---------------------------------------------------------------------------
# the form route of Dbar


def _couple(table, srcs: Sequence[InvariantForm], q: int, leg
            ) -> list[InvariantForm]:
    """out[j] = sum of c * leg(k, srcs[i]) over the table, as (0,q)-forms."""
    nout, entries = table
    acc: list[dict] = [{} for _ in range(nout)]
    legs = {}
    for j, k, i, c in entries:
        f = srcs[i]
        if not f:
            continue
        terms = legs.get((k, i))
        if terms is None:
            terms = legs[(k, i)] = leg(k, f)
        d = acc[j]
        for key, v in terms:
            _acc(d, key, v * c)
    n = srcs[0].n
    return [_make(InvariantForm, (n, 0, q), d) for d in acc]


def dbar_leg(x, m: HomogeneousModel):
    """The Dolbeault operator on a vector or covector leg form: dbar of each
    component plus the (0,1) Chern connection."""
    table = _mu_table(m, isinstance(x, CovectorForm))
    cs = _couple(table, x.comps, x.q + 1, _prepend)
    return x.build(m.n, 0, x.q + 1,
                   [dbar_form(f, m) + c for f, c in zip(x.comps, cs)])


def dbar_end(x: EndForm, m: HomogeneousModel) -> EndForm:
    """Coefficient-wise in the declared holomorphic gauge frame."""
    return EndForm(x.n, x.r, 0, x.q + 1,
                   tuple(dbar_form(f, m) for f in x.flat))


def op_script_F(x, m: HomogeneousModel):
    """The curvature coupling: gauge leg -> covector leg, or vector leg ->
    gauge leg, with the new antiholomorphic index prepended."""
    n, q = m.n, x.q + 1
    if isinstance(x, EndForm):
        return CovectorForm.build(
            n, 0, q, _couple(_f_table(m, True), x.flat, q, _prepend))
    if isinstance(x, VectorForm):
        return EndForm(n, m.rank, 0, q, tuple(
            _couple(_f_table(m, False), x.comps, q, _prepend)))
    raise FormError("curvature coupling acts on gauge or vector legs only")


def op_script_T(x: VectorForm, m: HomogeneousModel) -> CovectorForm:
    """Torsion coupling T_{l j kbar} W^l on the vector leg."""
    return CovectorForm.build(m.n, 0, x.q + 1,
                              _couple(_t_table(m), x.comps, x.q + 1, _prepend))


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
    """Chern curvature contracted with the torsion-shifted derivative, taken
    only in the directions the curvature table reads."""
    n = m.n
    table = _r_table(m)
    deriv = [InvariantForm.zero(n, 0, x.q)] * (n * n)
    for l in sorted({i // n for _, _, i, _ in table[1]}):
        deriv[l * n:(l + 1) * n] = nabla_plus_direction(x, l, m).comps
    return CovectorForm.build(n, 0, x.q + 1,
                              _couple(table, deriv, x.q + 1, _prepend))


def apply_Dbar(s: QSection, m: HomogeneousModel,
               diagonal: bool = False) -> QSection:
    """One application of the deformation operator; the coupling slot in the
    first row carries the formal variable a, so results stay symbolic.
    With ``diagonal``, the leg Dolbeault operators alone, computed here and
    not from the coupled result: the oracle for ``decoupled``."""
    kappa = dbar_leg(s.kappa, m)
    gamma = dbar_end(s.gamma, m)
    w = dbar_leg(s.w, m)
    if not diagonal:
        kappa = (kappa + op_script_F(s.gamma, m).scale(S_A)
                 + op_script_T(s.w, m) + op_R_nabla_plus(s.w, m).scale(S_A))
        gamma = gamma + op_script_F(s.w, m)
    return QSection.build(kappa, gamma, w)


# ---------------------------------------------------------------------------
# leg blocks


def leg_block(m: HomogeneousModel, op: QOperatorMatrix, src_legs, tgt_legs
              ) -> QOperatorMatrix:
    """The block of ``op`` from the source legs src_legs = (first, end) to
    the target legs tgt_legs (``_leg_bounds`` indices: 0 = T*, 1 = End,
    2 = T, 3 = end), its columns renumbered from 0.  On Dbar, D1 is
    (1, 3) -> (1, 3), D2 (0, 2) -> (0, 2), H (1, 3) -> (0, 1), and H*
    (2, 3) -> (0, 2)."""
    lo, hi = (_leg_bounds(m, op.source_p)[t] for t in src_legs)
    tlo, thi = (_leg_bounds(m, op.target_p)[t] for t in tgt_legs)
    return QOperatorMatrix(op.source_p, op.target_p,
                           op.source_labels[lo:hi], op.target_labels[tlo:thi],
                           tuple(tuple({c - lo: x for c, x in row.items()
                                        if lo <= c < hi} for row in mk[tlo:thi])
                                 for mk in op.pencil))


def upper_triangular(m: HomogeneousModel, p: int) -> bool:
    """Whether Dbar from degree p maps no leg into an earlier one of
    (T*, End, T), in either coefficient of the coupling a."""
    src, tgt = _leg_bounds(m, p), _leg_bounds(m, p + 1)
    return not any(c < src[t] for mk in assemble_Dbar(m, p).pencil
                   for t in range(3) for row in mk[tgt[t]:tgt[t + 1]]
                   for c in row)


# ---------------------------------------------------------------------------
# the adjoint from closed index formulas


def _interior(m: HomogeneousModel, k: int, f: InvariantForm):
    """The terms of the metric contraction of the leg ab^{k+1} out of an
    anti-leg form."""
    A = metric_inverse(m)
    out = []
    for (_, anti), coeff in f.terms:
        for pos, l in enumerate(anti):
            v = A[k][l - 1].conjugate()
            if v:
                c = coeff * Scalar.const(v)
                out.append((((), anti[:pos] + anti[pos + 1:]),
                            -c if pos % 2 else c))
    return out


def op_F_star_kappa(kap: CovectorForm, m: HomogeneousModel) -> EndForm:
    """Adjoint of the gauge->covector coupling."""
    n, r = m.n, m.rank
    A = metric_inverse(m)
    F = _f_array(m)
    table = _table(m, "F*.kappa", r * r, lambda: (
        ((v * r + u, k, jp), (A[jp][j] * F[j][k][u][v]).conjugate())
        for v, u, jp, j, k in itertools.product(
            range(r), range(r), range(n), range(n), range(n))))
    q = kap.q - 1
    return EndForm(n, r, 0, q, tuple(
        _couple(table, kap.comps, q, partial(_interior, m))))


def _vector_from_paired(m: HomogeneousModel, C: list[InvariantForm],
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
    table = _table(m, "F*.gamma", n, lambda: (
        ((j, k, u * r + v), F[j][k][u][v].conjugate())
        for j, k, u, v in itertools.product(range(n), range(n),
                                            range(r), range(r))))
    q = g.q - 1
    return _vector_from_paired(
        m, _couple(table, g.flat, q, partial(_interior, m)), q)


def op_T_star(kap: CovectorForm, m: HomogeneousModel) -> VectorForm:
    """Adjoint of the torsion coupling."""
    A = metric_inverse(m)
    T = torsion_lower(m)
    table = _table(m, "T*", m.n, lambda: (
        ((l, k, jp), (A[jp][j] * T[k][l][j]).conjugate())
        for l, j, jp, k in _cube(m.n, 4)))
    q = kap.q - 1
    return _vector_from_paired(
        m, _couple(table, kap.comps, q, partial(_interior, m)), q)


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
                val = img.coeffs.get(((), Kp), S_ZERO)
                if val.degree > 0:
                    raise ModelError("leg derivative is not constant in a")
                D[rr][c] = val.coefficient(0)
        Linv = _gram_factors(m, q, inverse=True)[1]
        # adj = conj(L^{-1} D^T L)
        DT = transpose(D)
        return [[x.conjugate() for x in row]
                for row in linalg.mat_mul(linalg.mat_mul(Linv, DT), L)]
    return m.cached(key, build)


def _apply_leg_matrix(m: HomogeneousModel, mat, f: InvariantForm
                      ) -> InvariantForm:
    combos = _combos(m.n, f.q)
    acc: dict = {}
    for c, K in enumerate(combos):
        v = f.coeffs.get(((), K))
        if v is None:
            continue
        for rr, Kp in enumerate(combos):
            if mat[rr][c]:
                _acc(acc, ((), Kp), v * Scalar.const(mat[rr][c]))
    return _make(InvariantForm, (m.n, 0, f.q), acc)


def op_R_nabla_plus_star(kap: CovectorForm, m: HomogeneousModel) -> VectorForm:
    """Adjoint of the curvature/derivative coupling on the invariant complex:
    constant connection coefficients transpose against the Gram metric, and
    the leg-derivative part contributes through its leg-Gram adjoint."""
    n = m.n
    A = metric_inverse(m)
    R = curvature_array(m)
    gp = bismut(m).gamma
    q = kap.q - 1
    table = _table(m, "R*", n * n, lambda: (
        ((l * n + mm, k, jp), (A[jp][j] * R[k][j][l][mm]).conjugate())
        for l, mm, jp, j, k in _cube(n, 5)))
    u = _couple(table, kap.comps, q, partial(_interior, m))
    C = [InvariantForm.zero(n, 0, q) for _ in range(n)]
    for c in range(n):
        for l in range(n):
            for mm in range(n):
                v = gp[l][mm][c].conjugate()
                if v and u[l * n + mm]:
                    C[c] = C[c] + u[l * n + mm].scale(Scalar.const(v))
            if u[l * n + c]:
                mat = _leg_derivative_adjoint(m, l, q)
                C[c] = C[c] + _apply_leg_matrix(m, mat, u[l * n + c])
    return _vector_from_paired(m, C, q)


def _section(m: HomogeneousModel, p: int, kappa=None, gamma=None, w=None
             ) -> QSection:
    """The Q-section with the legs given and zero elsewhere."""
    return QSection.build(kappa or CovectorForm.zero(m.n, 0, p),
                          gamma or EndForm.zero(m.n, m.rank, 0, p),
                          w or VectorForm.zero(m.n, 0, p))


def assemble_Dstar_formula(m: HomogeneousModel, p: int) -> QOperatorMatrix:
    """The adjoint assembled from the closed formulas: diagonal blocks are
    the Gram adjoints of the leg Dolbeault operators, coupling blocks come
    from the index formulas above.  Must equal the Gram adjoint of Dbar from
    degree p - 1 exactly."""
    if p < 1:
        raise ModelError("the adjoint lowers degree; need p >= 1")
    src = q_basis(m, p)
    tgt = q_basis(m, p - 1)
    # the leg Dolbeault adjoints: Gram adjoint of the decoupled operator,
    # which is block diagonal because the Gram matrix is
    diag = gram_adjoint(m, decoupled(m, assemble_Dbar(m, p - 1)))
    pencil = tuple([dict(row) for row in mk] for mk in diag.pencil)
    for s_idx, sec in enumerate(src.sections):
        kap, g = sec.kappa, sec.gamma
        img = _section(m, p - 1)
        if kap:
            img = img + _section(
                m, p - 1, gamma=op_F_star_kappa(kap, m).scale(S_A),
                w=op_T_star(kap, m) + op_R_nabla_plus_star(kap, m).scale(S_A))
        if g:
            img = img + _section(m, p - 1, w=op_F_star_gamma(g, m))
        for i, v in enumerate(q_coordinates(img)):
            _refuse_degree(v.degree, "the formula adjoint")
            for k, mk in enumerate(pencil):
                _acc(mk[i], s_idx, v.coefficient(k))
    return QOperatorMatrix(p, p - 1, src.labels, tgt.labels,
                           tuple(tuple(mk) for mk in pencil))


# ---------------------------------------------------------------------------
# volume-form pairings and the duality identity


def _top_coefficient(f: InvariantForm) -> Scalar:
    full = tuple(range(1, f.n + 1))
    return f.coeffs.get((full, full), S_ZERO)


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
    return _top_coefficient(contract(x, w).wedge(holomorphic_volume(m)))


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


def nilpotency_report(m: HomogeneousModel, p: int = 0) -> dict:
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
    lhs = dbar_leg(nabla_plus_direction(w, l, m), m)
    rhs = nabla_plus_direction(dbar_leg(w, m), l, m)
    table = _table(m, ("R.comm", l), n, lambda: (
        ((k, kb, j), R[kb][j][k][l]) for k, kb, j in _cube(n, 3)))
    rterm = VectorForm.build(n, 0, w.q + 1,
                             _couple(table, w.comps, w.q + 1, _prepend))
    return lhs - rterm - rhs


# ---------------------------------------------------------------------------
# the symmetry of the Chern curvature


def chern_symmetry_residual(m: HomogeneousModel):
    """Residuals of the first-Bianchi-type symmetry of the Chern curvature
    against the (0,1) covariant derivative of the raised torsion, evaluated
    on every index tuple in the invariant frame."""
    n = m.n
    R = curvature_array(m)
    Tr = torsion_raised(m)
    ch = chern_connection(m)
    mu = ch.mu
    residuals = {}
    for k in range(n):
        for q in range(n):
            for mm in range(n):
                for l in range(n):
                    # (0,1)-covariant derivative of T^mm_{l q} in direction k
                    dT = sum(
                        (mu[k][mm][c] * Tr[c][l][q]
                         - mu[k][c][l] * Tr[mm][c][q]
                         - mu[k][c][q] * Tr[mm][l][c]
                         for c in range(n)),
                        start=GR_ZERO,
                    )
                    res = R[k][q][mm][l] - R[k][l][mm][q] - dT
                    if res:
                        residuals[(k + 1, q + 1, mm + 1, l + 1)] = res
    return {
        "zero": not residuals,
        "nonzero_count": len(residuals),
        "entries": {str(k): str(v) for k, v in residuals.items()},
    }
