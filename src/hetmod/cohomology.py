"""Cohomology of the deformation operator on the invariant complex.

All dimensions are exact and refer to the finite-dimensional invariant
subcomplex: each kernel dimension is a dimension minus a rank, computed over
the Gaussian rationals after specializing the coupling constant, so no
kernel vector is built.  Each D_p is specialized once, from its pencil
D_0 + a D_1 to sparse rows, and the nilpotency check, the ranks and the
harmonic stacks all read those rows.  ``serre`` reads only the ranks of the
D_p; the harmonic counts, for ``cohomology`` alone, rank each D_p over the
lowered adjoint conj(D_{p-1}^T G_p), which needs no inverse Gram matrix.
The module also implements the principal symbol of Dbar + Dbar* and an
injectivity scan over a lattice of nonzero cotangent samples, which is the
effective content of ellipticity here: one n x n Schur complement N decides
each sample.  The scan takes the samples a block at a time, builds N
column-wise across the block and tests full rank mod p for the whole block
with one division-free elimination (by delta s alone when the model has no
coupling terms); a sample that this leaves open is decided by the rank of
its N over Q(i).
Each report is built once, as the dict the CLI prints: ``system_report`` is
the ``check`` report, and ``cohomology_report`` embeds it under ``checks``
beside the ``dims`` of ``cohomology_data``.
"""

from __future__ import annotations

import itertools

from . import linalg, qcomplex
from .geometry import (
    HomogeneousModel,
    ModelError,
    anomaly_residual,
    check_heterotic_system,
    curvature_array,
    resolve_alpha,
)
from .scalars import GR_ZERO, GaussRat, Record


def q_space_dimension(m: HomogeneousModel, p: int) -> int:
    return len(qcomplex.q_labels(m, p))


def _operator_chain(m: HomogeneousModel, alpha0: GaussRat,
                    diagonal: bool = False):
    """The D_p: degree p -> p+1 for p = 0..n-1, each specialized once from
    its pencil to sparse rows {col: nonzero value}; with ``diagonal``, the
    decoupled view of each D_p."""
    ops = (qcomplex.assemble_Dbar(m, p) for p in range(m.n))
    return [(qcomplex.decoupled(m, op) if diagonal else op).rows(alpha0)
            for op in ops]


def _require_nilpotent(m: HomogeneousModel, chain, alpha0: GaussRat) -> None:
    """Refuses unless D_{p+1} D_p = 0 for every p, with the D_p as sparse
    rows.  Each product is formed one row at a time, and the first nonzero
    row ends the check."""
    for p in range(len(chain) - 1):
        right = chain[p]
        for row in chain[p + 1]:
            prod = linalg.row_sum((c, right[k].items())
                                  for k, c in row.items())
            if any(prod.values()):
                res = anomaly_residual(m, alpha0)
                raise ModelError(
                    "cohomology is undefined: the operator does not square "
                    f"to zero at coupling {alpha0} (failure first seen on "
                    f"degree {p}); the anomaly residual is {res}"
                )


def _counts(m: HomogeneousModel, alpha0: GaussRat | None,
            diagonal: bool = False):
    """The count step: the specialized chain D_p as sparse rows, the ranks
    (0, rank D_0, .., rank D_{n-1}, 0) and h_p = dim_p - rank D_p -
    rank D_{p-1}.  Refuses (with the anomaly residual in the message) when
    the operator does not square to zero at the chosen coupling."""
    a0 = resolve_alpha(m, alpha0)
    chain = _operator_chain(m, a0, diagonal)
    if not diagonal:
        _require_nilpotent(m, chain, a0)
    ranks = [0] + [linalg.rank_rows(d) for d in chain] + [0]
    return chain, ranks, [q_space_dimension(m, p) - ranks[p + 1] - ranks[p]
                          for p in range(m.n + 1)]


def _serre_pairs(h: list[int]) -> list[list]:
    """[p, n - p, h^p == h^{n-p}] for p = 0..n."""
    return [[p, len(h) - 1 - p, x == h[-1 - p]] for p, x in enumerate(h)]


def _euler(h: list[int]) -> int:
    return sum((-1) ** p * x for p, x in enumerate(h))


def cohomology_data(m: HomogeneousModel, alpha0: GaussRat | None = None,
                    diagonal: bool = False) -> dict:
    """The ``dims`` of the cohomology report: exact h^{0,p} (from
    ``_counts``, which may refuse) and harmonic dimensions, for p = 0..n.

    The harmonic space in degree p is the intersection of ker D_p and
    ker D*_{p-1}, so its dimension is dim_p - rank [D_p ; D*_{p-1}].  The
    Gram adjoint is D*_{p-1} = conj(G_{p-1})^{-1} conj(D_{p-1}^T G_p) at a
    real coupling, and G_{p-1} is Hermitian positive definite, so
    conj(G_{p-1})^{-1} is invertible: multiplying the lower block by it
    leaves the stacked rank unchanged.  So the stack ranked here is
    [D_p ; conj(D_{p-1}^T G_p)] (``qcomplex.gram_lowered``), read off the
    count step's sparse rows, and no Gram factor is inverted.  The lower
    block is summed in Gaussian integers from s G_p and e D_{p-1} for
    positive integers s and e, and the engine clears each row of the
    stack by a positive integer: a nonzero scalar on a row leaves the
    rank unchanged.  At p = 0 there is no adjoint, and the count step has
    ranked D_0.
    """
    chain, ranks, h = _counts(m, alpha0, diagonal)
    n = m.n
    harmonic = [q_space_dimension(m, 0) - ranks[1]]
    for p in range(1, n + 1):
        harmonic.append(q_space_dimension(m, p) - linalg.rank_rows(
            (chain[p] if p < n else [])
            + qcomplex.gram_lowered(m, p, chain[p - 1])))
    return {"basis": "invariant", "h": h, "harmonic": harmonic}


def serre_report(m: HomogeneousModel,
                 alpha0: GaussRat | None = None) -> dict:
    """h^p against h^{n-p} and the Euler number, from the ranks of the D_p
    alone: no Gram adjoint and no harmonic count is built."""
    h = _counts(m, alpha0)[2]
    pairs = _serre_pairs(h)
    return {"h": h, "pairs": pairs, "symmetric": all(ok for *_, ok in pairs),
            "euler": _euler(h)}


# ---------------------------------------------------------------------------
# principal symbol


def symbol_matrix(m: HomogeneousModel, xi: list[GaussRat],
                  alpha0: GaussRat) -> list[list[GaussRat]]:
    """Symbol of Dbar + Dbar* at the cotangent sample xi, acting from
    Q-valued (0,1) data to Q-valued (0,2) data plus Q-valued scalars.

    Conventions: xi_kbar means the conjugate of xi_k; the coupling terms
    contract the Chern curvature with the unconjugated xi and no metric
    factors appear (symbols are computed in a local coordinate gauge).

    The full matrix over GaussRat; ``injectivity_scan`` never builds it.
    It is the independent route the tests check ``symbol_blocks`` against.
    """
    n, r = m.n, m.rank
    if len(xi) != n:
        raise ModelError("cotangent sample has the wrong length")
    R = curvature_array(m)
    xib = [x.conjugate() for x in xi]
    ne = r * r - 1
    vals = 2 * n + ne
    pairs = list(itertools.combinations(range(n), 2))
    rows = vals * len(pairs) + vals
    cols = vals * n
    M = linalg.zeros(rows, cols)

    def col(slot: int, leg: int) -> int:
        # slot: value index in [0, vals); leg: the single (0,1) leg
        return slot * n + leg

    def wedge_row(slot: int, k: int, l: int) -> int:
        return slot * len(pairs) + pairs.index((min(k, l), max(k, l)))

    def scal_row(slot: int) -> int:
        return vals * len(pairs) + slot

    def add(row, c, v):
        M[row][c] = M[row][c] + v

    ap = alpha0
    # covector slots 0..n-1, gauge slots n..n+ne-1 (coordinates in the
    # trace-free basis), vector slots n+ne..2n+ne-1; the flat symbol acts
    # diagonally on every slot
    for slot in range(vals):
        # wedge part: xi_kbar kappa_{slot lbar} on dzbar^{k,l}
        for l in range(n):
            for k in range(n):
                if k == l or not xib[k]:
                    continue
                sgn = GaussRat.of(1) if k < l else GaussRat.of(-1)
                add(wedge_row(slot, k, l), col(slot, l), sgn * xib[k])
        # contraction part pairs against the conjugate of the wedge
        # covector: xi_k kappa_{slot kbar}
        for k in range(n):
            if xi[k]:
                add(scal_row(slot), col(slot, k), xi[k])
    # coupling into the covector wedge rows from the vector slots:
    # alpha' R_{kbar j}{}^m{}_n xi_m W^n_{lbar}
    if ap:
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if k == l:
                        continue
                    sgn = GaussRat.of(1) if k < l else GaussRat.of(-1)
                    for mm in range(n):
                        if not xi[mm]:
                            continue
                        for nn in range(n):
                            v = ap * R[k][j][mm][nn] * xi[mm]
                            if v:
                                add(wedge_row(j, k, l), col(n + ne + nn, l),
                                    sgn * v)
    # coupling into the vector contraction rows from the covector slots:
    # - alpha' R_{lbar j}{}^m{}_n xi_m kappa_{j lbar}
    if ap:
        for nn in range(n):
            for l in range(n):
                for j in range(n):
                    for mm in range(n):
                        v = ap * R[l][j][mm][nn] * xi[mm]
                        if v:
                            add(scal_row(n + ne + nn), col(j, l), -v)
    return M


_ALPHABET = (GR_ZERO, GaussRat.of(1), GaussRat.of(-1), GaussRat.of(0, 1),
             GaussRat.of(0, -1), GaussRat.of(1, 1), GaussRat.of(1, -1))


def symbol_samples(n: int):
    """Iterator over the 7^n - 1 cotangent samples with components in
    {0, +-1, +-i, 1+-i}, excluding zero; each is made when it is reached."""
    return (list(xi) for xi in itertools.product(_ALPHABET, repeat=n)
            if any(xi))


# per route: the image of re + im*i, the zero and the modulus (0 for Z[i])
_ROUTES = ((GaussRat, GR_ZERO, 0), (linalg.residue, 0, linalg.CERT_P))

SCAN_BLOCK = 7 ** 3   # samples the scan decides together


class SymbolBlocks(Record):
    """The coupling terms of ``symbol_blocks`` on each route of _ROUTES:
    ``coupling[route]`` holds A_{kjt} = sum_m c * xi_m, with c the image
    of a Gaussian integer, as (j, ((k, ((t, ((m, c), ...)), ...)), ...))
    where any, and ``delta[route]`` the image of den_R.  ``_schur``
    evaluates N on a whole block of samples, each entry one list over the
    block; ``schur`` and ``schur_mod_p`` are blocks of one."""

    n: int
    coupling: tuple[tuple, tuple]
    delta: tuple[GaussRat, int]

    def _schur(self, block: list[list[GaussRat]], route: int):
        """delta s and N = delta^2 s^2 I - s G + sum_j a_j b_j^T over a
        block of samples, column-wise in the route's ring (unreduced ints
        on the prime route): ``ds`` lists delta s, and ``N[t][u]`` the
        (t, u) entry, at each sample.  Each sample is first scaled by the
        common denominator of its components, which keeps the rank of N,
        and s = xi . conj(xi) is taken there.  N is None when there are
        no coupling terms, where it is (delta s)^2 I."""
        n = self.n
        if set(map(len, block)) - {n}:
            raise ModelError("cotangent sample has the wrong length")
        of, zero, p = _ROUTES[route]
        cols = list(zip(*block))
        if {x.d for c in cols for x in c} - {1}:
            cols = list(zip(*[[GaussRat(re, im) for re, im
                               in linalg.gauss_ints(xi)[1]] for xi in block]))
        s = [0] * len(block)
        for c in cols:
            s = [v + x.a * x.a + x.b * x.b for v, x in zip(s, c)]
        s = [of(v, 0) for v in s]
        delta = self.delta[route]
        ds = [delta * v % p for v in s] if p else [delta * v for v in s]
        if not self.coupling[route]:
            return ds, None
        y = ([[of(x.a, x.b) for x in c] for c in cols]
             + [[of(x.a, -x.b) for x in c] for c in cols])
        zeros = [zero] * len(block)
        dd = [v * v for v in ds]
        N = [[dd if t == u else zeros for u in range(n)] for t in range(n)]
        for j, legs in self.coupling[route]:
            aj, bj = {}, {}
            for k, entries in legs:
                A = []
                for t, terms in entries:
                    x = zeros
                    for m, c in terms:
                        x = [v + c * w for v, w in zip(x, y[m])]
                    A.append((t, x))
                for t, x in A:
                    Nt = N[t]
                    for u, z in A:
                        Nt[u] = [v - r * w * q for v, r, w, q
                                 in zip(Nt[u], s, x, z)]
                    aj[t] = [v + w * q for v, w, q
                             in zip(aj.get(t, zeros), y[n + k], x)]
                    bj[t] = [v + w * q for v, w, q
                             in zip(bj.get(t, zeros), y[k], x)]
            for t, x in aj.items():
                Nt = N[t]
                for u, z in bj.items():
                    Nt[u] = [v + w * q for v, w, q in zip(Nt[u], x, z)]
        return ds, N

    def _one(self, xi: list[GaussRat], route: int):
        """N at the single sample xi as dense rows; None where delta s is
        zero in the route's ring."""
        ds, N = self._schur([xi], route)
        if not (d := ds[0]):
            return None
        if N is None:
            zero = _ROUTES[route][1]
            return [[d * d if t == u else zero for u in range(self.n)]
                    for t in range(self.n)]
        return [[e[0] for e in row] for row in N]

    def schur(self, xi: list[GaussRat]) -> list[list[GaussRat]]:
        """N at xi over Z[i]; there s > 0 and delta >= 1."""
        return self._one(xi, 0)

    def schur_mod_p(self, xi: list[GaussRat]):
        """N at xi mod CERT_P as dense int rows, congruent to its residues
        and not reduced; None when s or delta is 0 mod p."""
        return self._one(xi, 1)

    def undecided_mod_p(self, block: list[list[GaussRat]]) -> list[int]:
        """The positions, in order, of the samples of ``block`` where N
        mod CERT_P does not prove that N has full rank over Q(i): delta s
        is 0 mod p there, or ``linalg.rank_drops_mod_p`` finds N short of
        full rank.  With no coupling terms N is (delta s)^2 I, so delta s
        alone decides and N is not built."""
        ds, N = self._schur(block, 1)
        out = [i for i, d in enumerate(ds) if not d] if 0 in ds else []
        if N is not None:
            out = sorted(set(out).union(linalg.rank_drops_mod_p(N)))
        return out


def symbol_blocks(m: HomogeneousModel, alpha0: GaussRat) -> SymbolBlocks:
    """The per-model coupling terms of N, the n x n Schur complement that
    decides the symbol at each sample.

    ``symbol_matrix`` splits into r^2 - 1 copies of the flat Dolbeault
    block B (the gauge slots) and the covector (+) vector block C, which
    carries the alpha' R coupling.  B is injective at every xi != 0:
    xibar ^ v = 0 forces v = c xibar, and then xi . v = c s with
    s = sum_k xi_k xibar_k > 0.  So dim ker symbol_matrix = dim ker C.
    Scaled by delta = den_R, the common denominator of alpha' R, C keeps
    its kernel and has the coupling terms
    A_{kjt} = sum_m delta alpha' R_{kbar j}^m_t xi_m, linear in xi.  With
    G = sum_{j,k} A_{kj.} A_{kj.}^T, a_j = sum_k xibar_k A_{kj.} and
    b_j = sum_k xi_k A_{kj.}: where s and delta are nonzero,
    dim ker C = dim ker N for N = delta^2 s^2 I - s G + sum_j a_j b_j^T
    (C's vector wedge rows give w_t = c_t xibar, its covector rows then fix
    u_j, and N c = 0 is left).  Over Q(i) that holds at every sample, so
    n - rank N = dim ker symbol_matrix.
    """
    n = m.n
    R = curvature_array(m)
    quads = list(itertools.product(range(n), repeat=4))
    den_R, aR = linalg.gauss_ints([alpha0 * R[k][j][mm][nn]
                                   for k, j, nn, mm in quads])
    terms = {}
    for (k, j, nn, mm), c in zip(quads, aR):
        if any(c):
            terms.setdefault(j, {}).setdefault(k, {}).setdefault(
                nn, []).append((mm, c))
    return SymbolBlocks(n, tuple(
        tuple((j, tuple((k, tuple((t, tuple((mm, of(*c)) for mm, c in v))
                                  for t, v in e.items()))
                        for k, e in legs.items()))
              for j, legs in terms.items()) for of, _, _ in _ROUTES),
        tuple(of(den_R, 0) for of, _, _ in _ROUTES))


def injectivity_scan(m: HomogeneousModel, alpha0: GaussRat,
                     limit: int | None = None) -> dict:
    """Decide injectivity of the symbol at every sample, in order, up to
    the first failure; reports the number of samples asked for (the first
    ``limit`` of ``symbol_samples``) and the first failing sample if any.

    The symbol is injective at xi iff the n x n matrix N of
    ``symbol_blocks`` has full rank over Q(i).  The samples are drawn
    ``SCAN_BLOCK`` at a time, never past ``limit``, so a scan holds one block
    however large the lattice is.  When N has full rank mod the prime
    ``linalg.CERT_P``, so has N over Q(i); ``undecided_mod_p`` tests a
    whole block that way at once.  Each sample it leaves, in order, has N
    evaluated over Z[i], and ``linalg.rank`` decides it over Q(i); a rank
    drop is never reported on the strength of the prime.  An empty scan
    is refused.
    """
    total = len(_ALPHABET) ** m.n - 1
    count = total if limit is None else min(max(limit, 0), total)
    if not count:
        raise ModelError("the symbol scan needs at least one sample")
    n = m.n
    blocks = symbol_blocks(m, alpha0)
    samples = symbol_samples(n)
    for start in range(0, count, SCAN_BLOCK):
        block = list(itertools.islice(samples,
                                      min(SCAN_BLOCK, count - start)))
        for i in blocks.undecided_mod_p(block):
            if linalg.rank(blocks.schur(block[i])) != n:
                return {"samples": count, "injective": False,
                        "first_failure": "(" + ", ".join(
                            str(x) for x in block[i]) + ")"}
    return {"samples": count, "injective": True}


# ---------------------------------------------------------------------------
# reports


def system_report(m: HomogeneousModel,
                  alpha0: GaussRat | None = None) -> dict:
    """The ``check`` report: the coupling the conditions used (alpha0, else
    the model's alpha', else "arbitrary"), whether it is 0, and the four
    conditions of ``check_heterotic_system``."""
    alpha = alpha0 if alpha0 is not None else m.alpha_prime
    conditions = check_heterotic_system(m, alpha0)
    return {
        "model": m.name,
        "alpha_prime": "arbitrary" if alpha is None else str(alpha),
        "degenerate": alpha is not None and not alpha,
        "passed": all(c["passed"] for c in conditions.values()),
        "conditions": conditions,
    }


def cohomology_report(m: HomogeneousModel,
                      alpha0: GaussRat | None = None,
                      symbol_limit: int | None = None,
                      diagonal: bool = False) -> dict:
    """Full JSON-ready report: dimensions, Serre symmetry, Euler number,
    symbol scan and the ``check`` report."""
    a0 = resolve_alpha(m, alpha0)
    dims = cohomology_data(m, a0, diagonal)
    h = dims["h"]
    return {
        "model": m.name,
        "alpha_prime": str(a0),
        "degenerate": not a0,
        "dims": dims,
        "serre": all(ok for *_, ok in _serre_pairs(h)),
        "euler": _euler(h),
        "symbol": injectivity_scan(m, a0, limit=symbol_limit),
        "checks": system_report(m, alpha0),
    }
