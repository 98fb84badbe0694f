"""Functions that only the tests call, kept out of ``src/hetmod``: each one
makes test inputs or is an oracle with its own route to the answer."""

from typing import List, Sequence

from hetmod.exterior import FormError, InvariantForm, MixedForm
from hetmod.geometry import HomogeneousModel
from hetmod.linalg import Matrix, gauss_ints
from hetmod.qcomplex import QSection, gram, q_basis
from hetmod.scalars import GR_ZERO, S_ZERO, GaussRat, Scalar


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


def exterior_derivative_by_wedge(x: InvariantForm,
                                 m: HomogeneousModel) -> MixedForm:
    """d x by the Leibniz rule with one wedge per leg: d of the leg at
    position pos, as a MixedForm (conjugated for an antiholomorphic leg),
    wedged with the monomial of the other legs, signed (-1)^pos."""
    n = m.n
    total = MixedForm.zero(n, x.p + x.q + 1)
    for (holo, anti), c in x.terms:
        legs = [("h", i) for i in holo] + [("a", i) for i in anti]
        for pos, (kind, idx) in enumerate(legs):
            dleg = m.d_coframe[idx - 1]
            if kind == "a":
                dleg = dleg.conjugate()
            rest = legs[:pos] + legs[pos + 1:]
            rest_form = InvariantForm.monomial(
                n,
                [i for k, i in rest if k == "h"],
                [i for k, i in rest if k == "a"],
            )
            piece = dleg.wedge(MixedForm.of(rest_form))
            total = total + piece.scale(c if pos % 2 == 0 else -c)
    return total


def dense(rows, cols: int) -> Matrix:
    """Sparse rows {column: value} as dense rows of ``cols`` entries."""
    return [[row.get(c, GR_ZERO) for c in range(cols)] for row in rows]


def mat_vec(a: Matrix, v: Sequence[GaussRat]) -> List[GaussRat]:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]),
                start=GR_ZERO) for row in a]


def schur_complement(R, alpha0: GaussRat, xi: Sequence[GaussRat]) -> Matrix:
    """N = delta^2 s^2 I - s G + sum_j a_j b_j^T over Q(i), straight from
    the curvature table R[k][j][m][t] and its formula: delta clears the
    denominators of alpha' R, A_{kjt} = sum_m delta alpha' R[k][j][m][t]
    xi_m, s = sum_k xi_k conj(xi_k), G_{tu} = sum_{j,k} A_{kjt} A_{kju},
    a_{jt} = sum_k conj(xi_k) A_{kjt} and b_{jt} = sum_k xi_k A_{kjt}."""
    n = len(xi)
    idx = range(n)
    delta = GaussRat.of(gauss_ints([alpha0 * R[k][j][m][t] for k in idx
                                    for j in idx for m in idx
                                    for t in idx])[0])
    xib = [x.conjugate() for x in xi]
    A = [[[sum((delta * alpha0 * R[k][j][m][t] * xi[m] for m in idx),
               start=GR_ZERO) for t in idx] for j in idx] for k in idx]
    s = sum((x * y for x, y in zip(xi, xib)), start=GR_ZERO)
    a = [[sum((xib[k] * A[k][j][t] for k in idx), start=GR_ZERO)
          for t in idx] for j in idx]
    b = [[sum((xi[k] * A[k][j][t] for k in idx), start=GR_ZERO)
          for t in idx] for j in idx]
    N = []
    for t in idx:
        row = []
        for u in idx:
            G = sum((A[k][j][t] * A[k][j][u] for j in idx for k in idx),
                    start=GR_ZERO)
            ab = sum((a[j][t] * b[j][u] for j in idx), start=GR_ZERO)
            x = ab - s * G
            row.append(x + delta * delta * s * s if t == u else x)
        N.append(row)
    return N
