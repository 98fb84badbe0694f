"""Exact linear algebra over the Gaussian rationals.

One sparse elimination engine, a dense rank test mod p and a determinant:

* ``_echelon`` row-reduces sparse rows ``{col: GaussRat}`` over Q(i) and
  keeps one pivot row, scaled to a leading 1, per leading column.
  ``rank_rows`` counts its pivots on sparse rows, and ``rank`` is the same
  on a dense matrix; ``kernel_basis`` and ``inverse`` ask for the reduced
  form and read their answer off it.  ``inverse`` only ever sees small
  matrices: the metric and the Kronecker factors of the Gram matrices,
  never a Gram matrix itself.
* ``rank_mod_p`` ranks small dense int rows over F_CERT_P, division-free.
  Full rank there proves full rank over Q(i) of the Gaussian integer
  matrix they reduce; a shortfall proves nothing, and ``rank`` decides.
  ``rank_drops_mod_p`` runs the same elimination on a block of square
  matrices at once, entry by entry across the block.
* ``det``: cofactor expansion over any ring whose unit is passed in
  (GaussRat, Scalar and chart Poly entries alike), for small matrices.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import lcm

from .scalars import GR_ONE, GR_ZERO, GaussRat

Matrix = list[list[GaussRat]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[GR_ZERO for _ in range(cols)] for _ in range(rows)]


def identity(k: int) -> Matrix:
    m = zeros(k, k)
    for i in range(k):
        m[i][i] = GR_ONE
    return m


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, mid, cols = len(a), len(b), len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        for k in range(mid):
            c = ai[k]
            if not c:
                continue
            bk = b[k]
            oi = out[i]
            for j in range(cols):
                if bk[j]:
                    oi[j] = oi[j] + c * bk[j]
    return out


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def sparse_rows(a: Matrix) -> list[dict[int, GaussRat]]:
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def row_sum(terms) -> dict[int, GaussRat]:
    """The sparse row sum of x * row over the terms (x, row), where each row
    is a sequence of (index, value) pairs."""
    acc: dict[int, GaussRat] = {}
    for x, row in terms:
        for j, v in row:
            y = x * v
            acc[j] = acc[j] + y if j in acc else y
    return acc


def _echelon(rows, reduced: bool = False) -> dict[int, dict]:
    """Pivot rows by leading column, each scaled to a leading 1.

    ``rows`` are sparse ``{col: GaussRat}`` dicts with no zero values; they
    are consumed.  Each row is reduced on its leading column until that
    column has no pivot, then becomes the pivot there.  ``reduced``
    back-substitutes, so every pivot column is zero outside its pivot row.
    """
    pivots: dict[int, dict] = {}

    def eliminate(row, c):
        # row -= row[c] * pivots[c], which clears column c
        f = row[c]
        for j, y in pivots[c].items():
            v = row[j] - f * y if j in row else -f * y
            if v:
                row[j] = v
            else:
                del row[j]

    for row in rows:
        while row and (c := min(row)) in pivots:
            eliminate(row, c)
        if row:
            s = GR_ONE / row[c]
            pivots[c] = {j: x * s for j, x in row.items()}
    if reduced:
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            for j in [j for j in row if j != c and j in pivots]:
                eliminate(row, j)
    return pivots


def rank_rows(rows) -> int:
    """Rank over Q(i) of sparse rows {col: nonzero GaussRat}; the rows are
    copied, not consumed."""
    return len(_echelon([dict(row) for row in rows]))


def rank(a: Matrix) -> int:
    """Rank of a dense GaussRat matrix over Q(i)."""
    return rank_rows(sparse_rows(a))


def kernel_basis(a: Matrix, cols: int = None) -> list[list[GaussRat]]:
    """Basis of the right null space, one vector per free column."""
    if cols is None:
        cols = len(a[0]) if a else 0
    pivots = _echelon(sparse_rows(a), reduced=True)
    basis = []
    for fc in range(cols):
        if fc in pivots:
            continue
        v = [GR_ZERO] * cols
        v[fc] = GR_ONE
        for pc, row in pivots.items():
            if fc in row:
                v[pc] = -row[fc]
        basis.append(v)
    return basis


def inverse(a: Matrix) -> Matrix:
    k = len(a)
    aug = sparse_rows(a)
    for i, row in enumerate(aug):
        row[k + i] = GR_ONE
    pivots = _echelon(aug, reduced=True)
    if any(c not in pivots for c in range(k)):
        raise ValueError("matrix is singular")
    return [[pivots[i].get(k + j, GR_ZERO) for j in range(k)]
            for i in range(k)]


def det(rows, one):
    """Determinant by cofactor expansion along the first row.

    ``one`` is the unit of the entries' ring, the determinant of the empty
    matrix.  A first row of zeros gives its own first entry, a zero of the
    ring.
    """
    if len(rows) <= 1:
        return rows[0][0] if rows else one
    total = None
    for j, c in enumerate(rows[0]):
        if c:
            term = c * det([r[:j] + r[j + 1:] for r in rows[1:]], one)
            if total is None:
                total = -term if j % 2 else term
            else:
                total = total - term if j % 2 else total + term
    return rows[0][0] if total is None else total


def gauss_ints(xs: Sequence[GaussRat]) -> tuple[int, list[tuple[int, int]]]:
    """The least positive integer d that clears the denominators of xs,
    and d * xs as (re, im) int pairs."""
    den = lcm(*(x.d for x in xs))
    return den, [(x.a * (den // x.d), x.b * (den // x.d)) for x in xs]


# Reduction Z[i] -> F_p, re + im*i -> re + CERT_I*im mod CERT_P, is a ring
# homomorphism because CERT_P = 1 (mod 4) and CERT_I^2 = -1 (mod CERT_P).
# A minor that is nonzero mod p is nonzero over Q(i), so the rank mod p is
# a lower bound for the exact rank.  Residues stay below 2^30.
CERT_P = 1_000_000_009
CERT_I = 430_477_711


def residue(re: int, im: int) -> int:
    """The image of the Gaussian integer re + im*i in F_CERT_P."""
    return (re + CERT_I * im) % CERT_P


def rank_mod_p(rows) -> int:
    """Rank over F_CERT_P of dense int rows, read mod CERT_P and not
    changed.  Division-free: below a pivot a, a row with f in its column
    becomes a * row - f * pivot, so no inverse mod p is taken."""
    p, rank = CERT_P, 0
    rows = [[x % p for x in row] for row in rows]
    for c in range(len(rows[0]) if rows else 0):
        for i in range(rank, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        pivot, rows[i] = rows[i], rows[rank]
        a, rank = pivot[c], rank + 1
        for i in range(rank, len(rows)):
            if f := rows[i][c]:
                rows[i] = [(a * x - f * y) % p
                           for x, y in zip(rows[i], pivot)]
    return rank


def rank_drops_mod_p(block) -> list[int]:
    """The positions, in order, of the n x n matrices of a block whose rank
    over F_CERT_P is below n.  The block is held column-wise: ``block[t][u]``
    lists the (t, u) entries of all its matrices, as ints read mod CERT_P
    and not changed.  One division-free elimination on the diagonal pivots
    runs over the whole block: below a pivot a, a row with f in the pivot's
    column becomes a * row - f * pivot.  A matrix whose diagonal pivot is
    0 mod p needs a row swap, so ``rank_mod_p`` ranks it on its own rows."""
    p, n = CERT_P, len(block)
    rows = [[[x % p for x in e] for e in row] for row in block]
    stuck = set()
    for c in range(n):
        pivot = rows[c]
        a = pivot[c]
        if 0 in a:
            stuck.update(i for i, x in enumerate(a) if not x)
        for row in rows[c + 1:]:
            f = row[c]
            row[c + 1:] = [[(x * v - y * w) % p
                            for x, v, y, w in zip(a, e, f, g)]
                           for e, g in zip(row[c + 1:], pivot[c + 1:])]
    return [i for i in sorted(stuck)
            if rank_mod_p([[e[i] for e in row] for row in block]) < n]
