"""The deformation complex on Q = T* + End(E) + T.

Sections carry three value legs (a covector, a trace-free gauge endomorphism,
and a vector) tensored with invariant (0,p)-forms.  This module builds:

* the tables of the couplings F., T. and R-nabla+ between the legs and of
  the (0,1) Chern connection on them, per model,
* the matrix of the operator Dbar (upper triangular in the three legs, the
  coupling slots weighted by the formal variable a), which
  ``assemble_Dbar`` fills from those tables (value-slot couplings (x) maps
  on the legs ab^K), over the basis that ``q_labels`` names.  The matrix
  is a pencil D_0 + a D_1 of sparse GaussRat rows (``QOperatorMatrix``),
  assembled once per degree; the decoupled operator is its diagonal leg
  blocks (``decoupled``), the associated graded of T* in T* + End in Q,
* the Hermitian Gram matrix of the invariant section basis, a direct sum of
  Kronecker products; the lowered adjoint conj(D^T G_tgt), which the
  harmonic counts rank; and the Gram adjoint Dbar*; the Gram products are
  summed in Gaussian integers (``_gram_rows``).

The form route of Dbar, the adjoint from closed index formulas, the leg
blocks and the residual identities are the tests' second routes and live
in ``tests/oracles.py``.

Convention: every operator that creates a new antiholomorphic leg prepends it
(left of the existing legs) before normalization.  All sign bookkeeping flows
from that single choice (``_prepend``), whose sign ``exterior._merge`` gives.
"""

from __future__ import annotations

import itertools
from functools import cached_property

from . import linalg
from .exterior import InvariantForm, _merge
from .geometry import (
    HomogeneousModel,
    ModelError,
    bismut,
    chern_connection,
    curvature_array,
    dbar_form,
    metric_inverse,
    torsion_lower,
)
from .scalars import (GR_ONE, GR_ZERO, GaussRat, Record, S_ONE, S_ZERO,
                      Scalar, _acc, _canonical)


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


# ---------------------------------------------------------------------------
# the coupling tables
#
# Every coupling of Dbar has the form
#
#     out[j] += c * leg(k, src[i])
#
# over a table of nonzero model constants (j, k, i, c), where leg(k, f)
# prepends ab^{k+1} to f: the (0,1) Chern connection on a vector or covector
# leg, and the couplings F., T. and R-nabla+.  ``_slot_couplings`` reads the
# tables, and ``_leg_map`` the leg maps.


def _table(m: HomogeneousModel, key, nout: int, entries):
    """The coupling `key` of the model, built once: (nout, ((j, k, i, c)..))
    with the constants of equal (j, k, i) summed and zeros dropped.
    `entries()` yields ((j, k, i), c) with c a GaussRat."""
    def build():
        acc: dict[tuple[int, int, int], GaussRat] = {}
        for idx, c in entries():
            if c:
                acc[idx] = acc[idx] + c if idx in acc else c
        return nout, tuple((j, k, i, Scalar.const(c))
                           for (j, k, i), c in acc.items() if c)
    return m.cached(("coupling", key), build)


def _prepend(k: int, f: InvariantForm):
    """The terms of ab^{k+1} ^ f (the new-leg-first convention)."""
    new = (k + 1,)
    out = []
    for (holo, anti), c in f.terms:
        sign, legs = _merge(new, anti)
        if sign:
            out.append(((holo, legs),
                        -c if (sign == -1) != len(holo) % 2 else c))
    return out


def _cube(n: int, k: int):
    return itertools.product(range(n), repeat=k)


def _mu_table(m: HomogeneousModel, dual: bool):
    """The (0,1) Chern connection on a vector leg, or on a covector leg
    (``dual``) through minus its transpose."""
    mu = chern_connection(m).mu
    return _table(m, ("mu", dual), m.n, lambda: (
        ((b, a, j), -mu[a][j][b] if dual else mu[a][b][j])
        for a, b, j in _cube(m.n, 3)))


def _f_table(m: HomogeneousModel, gauge: bool):
    """The curvature coupling from the gauge grid (flat, read transposed) to
    the covector leg, or (not ``gauge``) from the vector leg to the grid."""
    n, r = m.n, m.rank
    F = _f_array(m)
    quad = itertools.product(range(n), range(n), range(r), range(r))
    if gauge:
        return _table(m, "F.gamma", n, lambda: (
            ((j, k, v * r + u), F[j][k][u][v]) for j, k, u, v in quad))
    return _table(m, "F.w", r * r, lambda: (
        ((u * r + v, k, j), F[j][k][u][v]) for j, k, u, v in quad))


def _t_table(m: HomogeneousModel):
    """The torsion coupling T_{l j kbar} = torsion_lower[k][l][j]."""
    T = torsion_lower(m)
    return _table(m, "T", m.n, lambda: (
        ((j, k, l), T[k][l][j]) for l, j, k in _cube(m.n, 3)))


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


def _r_table(m: HomogeneousModel):
    """The curvature coupling on the derivatives: source l * n + mm is the
    component mm of nabla+ in direction l."""
    n = m.n
    R = curvature_array(m)
    return _table(m, "R", n, lambda: (
        ((j, k, l * n + mm), R[k][j][l][mm]) for k, j, l, mm in _cube(n, 4)))


# ---------------------------------------------------------------------------
# bases and coordinates


def _combos(n: int, p: int):
    return list(itertools.combinations(range(1, n + 1), p))


def _leg_label(K) -> str:
    return "abar{" + "".join(str(k) for k in K) + "}"


def _offsets(n: int, r: int) -> tuple[int, int, int]:
    """The value-slot layout of Q's fibre, in both layers: covector a is
    slot a, gauge entry (u, v) is g0 + u r + v and vector a is w0 + a, for
    (g0, w0, n0) returned here; n0 is the number of value slots, and in a
    chart the derivative (nabla_c w)_b of the vector part is n0 + c n + b."""
    return n, n + r * r, 2 * n + r * r


def fibre_basis(n: int, r: int, covector: str = "a^", vector: str = "V^"):
    """The basis of Q's fibre in order, as (label, {slot: GaussRat}) over
    the value slots of ``_offsets``: the covector leg (labels ``covector`` +
    index), the gauge grid row by row, where the trace-free basis is the
    diagonal differences D(k) = E(k,k) - E(k+1,k+1), then the off-diagonal
    units E(u,v), and the vector leg (``vector`` + index).  Indices in
    labels are 1-based."""
    g, w, _ = _offsets(n, r)
    return ([(f"e1:{covector}{j + 1}", {j: GR_ONE}) for j in range(n)]
            + [(f"e2:D({k})", {g + (k - 1) * (r + 1): GR_ONE,
                               g + k * (r + 1): -GR_ONE})
               for k in range(1, r)]
            + [(f"e2:E({u},{v})", {g + (u - 1) * r + v - 1: GR_ONE})
               for u in range(1, r + 1) for v in range(1, r + 1) if u != v]
            + [(f"e3:{vector}{j + 1}", {w + j: GR_ONE}) for j in range(n)])


def q_labels(m: HomogeneousModel, p: int) -> tuple[str, ...]:
    """The labels of the q_basis, the invariant basis of Q-valued
    (0,p)-forms: each element of ``fibre_basis`` times each leg ab^K, in
    that order."""
    return m.cached(("q_labels", p), lambda: tuple(
        f"{label}:{_leg_label(K)}" for label, _ in fibre_basis(m.n, m.rank)
        for K in _combos(m.n, p)))


def _coordinates(acc: dict, n: int, r: int, nt: int) -> dict:
    """The nonzero q_basis coordinates {index: value} of the section with
    value-slot coefficients acc[(slot, K')] (GaussRats or Scalars).  On the
    gauge grid of each K', the coordinate of D(k) is the sum of the first
    k + 1 diagonal entries, and E(u, t) is read off its entry."""
    out = {}
    diags: dict[int, dict] = {}
    g, w, _ = _offsets(n, r)
    for (j, K), v in acc.items():
        if j < g:
            out[j * nt + K] = v
        elif j < w:
            u, t = divmod(j - g, r)
            if u == t:
                diags.setdefault(K, {})[u] = v
            else:   # after the r - 1 D(k), the E(u, t) row by row
                out[(n + r - 1 + u * (r - 1) + t - (t > u)) * nt + K] = v
        else:       # the r^2 gauge slots have r^2 - 1 coordinates
            out[(j - 1) * nt + K] = v
    for K, diag in diags.items():
        total = None
        for k in range(r - 1):
            if k in diag:
                total = diag[k] if total is None else total + diag[k]
            if total:
                out[(n + k) * nt + K] = total
    return out


# ---------------------------------------------------------------------------
# operator matrices


Rows = tuple[dict[int, GaussRat], ...]


def _refuse_degree(e: int, what: str) -> None:
    if e > 1:
        raise ModelError(f"{what} has an entry of degree {e} in the "
                         "coupling a; operators are linear in a")


class QOperatorMatrix(Record):
    """A linear operator between invariant Q-section spaces, linear in the
    formal coupling variable a: the pencil M = M_0 + a M_1.

    ``pencil`` holds M_0 and M_1 as sparse rows, one per target basis
    element, {source column: nonzero GaussRat}.  ``rows(a0)`` specializes
    the pencil over its nonzeros; ``entries``, the dense rows of Scalar, is
    derived from the pencil on first read, and only the tests and the bench
    tracer read it.
    """

    source_p: int
    target_p: int
    source_labels: tuple[str, ...]
    target_labels: tuple[str, ...]
    pencil: tuple[Rows, Rows]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.target_labels), len(self.source_labels))

    @cached_property
    def entries(self) -> tuple[tuple[Scalar, ...], ...]:
        """Dense rows of Scalar: rows are targets, columns sources."""
        out = []
        for r0, r1 in zip(*self.pencil):
            row = [S_ZERO] * len(self.source_labels)
            for c in r0.keys() | r1.keys():
                row[c] = Scalar.make([r0.get(c, GR_ZERO),
                                      r1.get(c, GR_ZERO)])
            out.append(tuple(row))
        return tuple(out)

    def rows(self, a0: GaussRat) -> list[dict[int, GaussRat]]:
        """M_0 + a0 M_1 as new sparse rows, cancelled entries dropped."""
        out = []
        for r0, r1 in zip(*self.pencil):
            row = dict(r0)
            if a0:
                for c, x in r1.items():
                    v = row[c] + a0 * x if c in row else a0 * x
                    if v:
                        row[c] = v
                    else:
                        del row[c]
            out.append(row)
        return out


# The matrix of Dbar, read off per-model tables without building a form
# (the tests check it against a form-level route).  Value slots
# are the covector leg 0..n-1, the gauge grid n..n+r^2-1 row by row and the
# vector leg after it.  Each part of Dbar feeds a value slot i into a slot j
# with a constant c and acts on the leg ab^K by a leg map: the leg dbar, or
# the prepend of ab^{k+1}, after the Chern derivative in direction l for the
# curvature term.  A column is that slot coupling (x) leg map.


def _leg_map(m: HomogeneousModel, p: int, k=None, l=None):
    """Row K holds the (index of K', GaussRat) terms of a leg map on the
    (0,p) monomial ab^K, K' over the (0,p+1) monomials: the leg dbar if k is
    None, else the prepend of ab^{k+1}, after the Chern anti-leg derivative
    in direction l unless l is None.  Built once per model by form code."""
    def image(f):
        if k is None:
            return dbar_form(f, m).terms
        return _prepend(k, f if l is None else _chern_deriv_anti(f, l, m))

    def build():
        index = {K: t for t, K in enumerate(_combos(m.n, p + 1))}
        out = []
        for K in _combos(m.n, p):
            terms = image(InvariantForm.monomial(m.n, [], K))
            if any(c.degree > 0 for _, c in terms):
                raise ModelError("a leg map is not constant in a")
            out.append([(index[Kt], c.coefficient(0))
                        for (_, Kt), c in terms])
        return out
    return m.cached(("leg_map", p, k, l), build)


def _slot_couplings(m: HomogeneousModel):
    """Per source slot i, the (j, k, l, e, c) of Dbar: slot i feeds slot j
    with c a^e times the leg map (k, l), c a GaussRat read off the model's
    constant tables."""
    def build():
        n, r = m.n, m.rank
        g, w, slots = _offsets(n, r)
        parts = [(i, i, None, None, 0, S_ONE) for i in range(slots)]
        parts += [(i, j, k, None, 0, c)
                  for j, k, i, c in _mu_table(m, True)[1]]
        parts += [(w + i, w + j, k, None, 0, c)
                  for j, k, i, c in _mu_table(m, False)[1]]
        parts += [(g + i, j, k, None, 1, c)
                  for j, k, i, c in _f_table(m, True)[1]]
        parts += [(w + i, g + j, k, None, 0, c)
                  for j, k, i, c in _f_table(m, False)[1]]
        parts += [(w + i, j, k, None, 0, c)
                  for j, k, i, c in _t_table(m)[1]]
        R = _r_table(m)[1]
        gp = bismut(m).gamma if R else ()
        for j, k, i, c in R:
            # component mm of nabla+_l w is the Chern derivative of w^mm
            # plus gp[l][mm][b] w^b
            l, mm = divmod(i, n)
            parts.append((w + mm, j, k, l, 1, c))
            parts += [(w + b, j, k, None, 1, c * Scalar.const(v))
                      for b, v in enumerate(gp[l][mm]) if v]
        out = [[] for _ in range(slots)]
        for i, j, k, l, e, c in parts:
            out[i].append((j, k, l, e, c.coefficient(0)))
        return out
    return m.cached("slot_couplings", build)


def assemble_Dbar(m: HomogeneousModel, p: int) -> QOperatorMatrix:
    """The matrix of Dbar from degree p over the q_basis, from the slot
    couplings and the leg maps, as the pencil of its coefficients of 1 and
    of a; the tests' form-level route is its oracle.
    Each source column is accumulated per power of a and value slot, then
    read into q_basis coordinates; only nonzero entries are stored."""
    def build():
        n, r = m.n, m.rank
        src, tgt = q_labels(m, p), q_labels(m, p + 1)
        nk, nt = len(_combos(n, p)), len(_combos(n, p + 1))
        couplings = [[(e, j, c, _leg_map(m, p, k, l))
                      for j, k, l, e, c in parts]
                     for parts in _slot_couplings(m)]
        for parts in couplings:
            for e, *_ in parts:
                _refuse_degree(e, "Dbar")
        pencil = tuple([{} for _ in tgt] for _ in range(2))
        col = 0
        for _, value in fibre_basis(n, r):
            for K in range(nk):
                accs: tuple[dict, dict] = ({}, {})
                for i, x in value.items():
                    for e, j, c, legs in couplings[i]:
                        cx = c * x
                        for Kt, v in legs[K]:
                            _acc(accs[e], (j, Kt), v * cx)
                for mk, acc in zip(pencil, accs):
                    for t, v in _coordinates(acc, n, r, nt).items():
                        mk[t][col] = v
                col += 1
        return QOperatorMatrix(p, p + 1, src, tgt,
                               tuple(tuple(mk) for mk in pencil))
    return m.cached(("Dbar", p), build)


# ---------------------------------------------------------------------------
# leg blocks


def _leg_bounds(m: HomogeneousModel, p: int) -> list[int]:
    """Where the kappa, gamma and w coordinates start and end in q_basis."""
    nk = len(_combos(m.n, p))
    ne = m.rank * m.rank - 1
    return [0, m.n * nk, (m.n + ne) * nk, (2 * m.n + ne) * nk]


def decoupled(m: HomogeneousModel, op: QOperatorMatrix) -> QOperatorMatrix:
    """``op`` in its own shape with only the diagonal leg blocks (T* -> T*,
    End -> End, T -> T) kept.  On Dbar, which is upper triangular in the
    legs, this is the associated graded of T* in T* + End in Q."""
    src, tgt = _leg_bounds(m, op.source_p), _leg_bounds(m, op.target_p)
    return op.replace(pencil=tuple(
        tuple({c: x for c, x in row.items() if src[t] <= c < src[t + 1]}
              for t in range(3) for row in mk[tgt[t]:tgt[t + 1]])
        for mk in op.pencil))


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
                row.append(linalg.det(rows, GR_ONE))
            out.append(row)
        return out
    return m.cached(("leg_gram", p), build)


def _gram_factors(m: HomogeneousModel, p: int, inverse: bool = False):
    """The factors of the Gram matrix G_p = (+)_b V_b (x) L_p of the q_basis.

    V_b are the value Grams of the covector, gauge and vector legs (the
    transposed inverse metric, the Gram of the trace-free basis and the
    metric), and L_p is the leg Gram.  With ``inverse``, the factors of
    G_p^{-1}, V_b^{-1} and L_p^{-1}, each inverted once per model.
    """
    def build():
        n = m.n
        A = metric_inverse(m)
        ebasis = [v for _, v in fibre_basis(n, m.rank)[n:-n]]
        return [
            [[A[jp][j] for jp in range(n)] for j in range(n)],
            [[sum((v * e2[key].conjugate() for key, v in e1.items()
                   if key in e2), start=GR_ZERO) for e2 in ebasis]
             for e1 in ebasis],
            m.metric,
        ]
    values = m.cached("value_grams", build)
    if not inverse:
        return values, _leg_gram(m, p)
    return (m.cached("value_grams_inv",
                     lambda: [linalg.inverse(V) for V in values]),
            m.cached(("leg_gram_inv", p),
                     lambda: linalg.inverse(_leg_gram(m, p))))


def _gram_rows(m: HomogeneousModel, p: int, inverse: bool = False):
    """A positive integer s and the nonzero entries (column, (re, im)) of
    each row of s conj(G_p), or of s conj(G_p^{-1}) with ``inverse``, as
    Gaussian integers expanded from the Kronecker factors: the value
    factors V_b are cleared by one lcm of their denominators and L_p by
    another, and s is the product of the two.  The rows are conjugated
    because both products that read them, ``_lowered`` and
    ``gram_adjoint``, need conj(G)."""
    def build():
        values, L = _gram_factors(m, p, inverse)
        nk = len(L)
        ds, vs = linalg.gauss_ints([x.conjugate() for V in values
                                    for row in V for x in row])
        dl, ls = linalg.gauss_ints([x.conjugate() for row in L for x in row])
        legs = [[(b, z) for b, z in enumerate(ls[a * nk:(a + 1) * nk])
                 if any(z)] for a in range(nk)]
        rows = []
        off = pos = 0
        for V in values:
            k = len(V)
            for _ in range(k):
                row = [(t, z) for t, z in enumerate(vs[pos:pos + k]) if any(z)]
                pos += k
                for leg in legs:
                    rows.append([(off + t * nk + b,
                                  (x * u - y * v, x * v + y * u))
                                 for t, (x, y) in row for b, (u, v) in leg])
            off += k * nk
        return ds * dl, rows
    return m.cached(("gram_rows", p, inverse), build)


def gram(m: HomogeneousModel, p: int) -> list[list[GaussRat]]:
    """Hermitian positive Gram matrix of the q_basis, block diagonal in the
    three value legs: G_p = (+)_b V_b (x) L_p (see ``_gram_factors``)."""
    def build():
        s, rows = _gram_rows(m, p)
        G = linalg.zeros(len(rows), len(rows))
        for i, row in enumerate(rows):
            for j, (x, y) in row:
                G[i][j] = _canonical(x, -y, s)
        return G
    return m.cached(("gram", p), build)


def _lowered(m: HomogeneousModel, target_p: int, rows):
    """A positive integer t and the sums of t conj(M^T G_tgt) as Gaussian
    integers {col: (re, im)}, one row per source column of M, a sum that
    cancels kept as (0, 0).  M maps degree target_p - 1 into degree
    target_p and is given by its sparse GaussRat rows; t is s e, for
    s conj(G_tgt) from ``_gram_rows`` and e the lcm of the denominators
    of M."""
    s, g_tgt = _gram_rows(m, target_p)
    e, flat = linalg.gauss_ints([x.conjugate() for row in rows
                                 for x in row.values()])
    ints = iter(flat)
    columns: list[list] = [[] for _ in q_labels(m, target_p - 1)]
    for r, row in enumerate(rows):
        for c in row:
            columns[c].append((next(ints), g_tgt[r]))
    return s * e, [linalg.int_row_sum(terms) if terms else {}
                   for terms in columns]


def gram_lowered(m: HomogeneousModel, target_p: int, rows
                 ) -> list[dict[int, GaussRat]]:
    """conj(M^T G_tgt) as sparse rows, one per source column of M, where M
    maps degree target_p - 1 into degree target_p and is given by its
    sparse rows.

    This is the adjoint with its source Gram left on: conj(G_src^{-1}) times
    it is the Gram adjoint of M, and no Gram factor is inverted here.  It
    is summed in Gaussian integers from one integer multiple of G_tgt and
    one of M (``_lowered``), and each entry is divided once at the end.
    """
    t, low = _lowered(m, target_p, rows)
    return [{j: _canonical(x, y, t) for j, (x, y) in row.items() if x or y}
            for row in low]


def gram_adjoint(m: HomogeneousModel, op: QOperatorMatrix) -> QOperatorMatrix:
    """The metric adjoint of an operator from degree p to p + 1: maps
    degree target_p back to source_p.

    With <x,y> = x^T G conj(y) and M the operator matrix, the adjoint is
    conj(G_src^{-1} M^T G_tgt) = conj(G_src^{-1}) conj(M^T G_tgt), the
    second factor from ``_lowered``.  Each Gram is G_p = (+)_b V_b (x) L_p,
    so G_src^{-1} comes from the inverted factors V_b^{-1} and L_p^{-1},
    and the products run over nonzero entries only, in Gaussian integers
    from integer multiples of each factor, with one division at the end.
    The coupling a is assumed real: conj leaves it alone, so the pencil
    M_0 + a M_1 is transformed one coefficient matrix at a time.
    """
    s, g_inv = _gram_rows(m, op.source_p, inverse=True)
    pencil = []
    for mk in op.pencil:
        t, low = _lowered(m, op.target_p, mk)
        pencil.append(tuple(
            {j: _canonical(x, y, s * t) for j, (x, y) in linalg.int_row_sum(
                (g, low[c].items()) for c, g in grow).items() if x or y}
            for grow in g_inv))
    return QOperatorMatrix(op.target_p, op.source_p, op.target_labels,
                           op.source_labels, tuple(pencil))


