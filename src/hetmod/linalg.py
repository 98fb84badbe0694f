"""Exact linear algebra over the Gaussian rationals.

One sparse elimination engine over Z[i], a dense rank test mod p and a
determinant:

* ``_echelon`` eliminates division-free over Gaussian integers held as
  ``(re, im)`` int pairs: each GaussRat row is cleared once by the lcm of
  its denominators, and below a pivot with lead p a row with lead r
  becomes p * row - r * pivot, divided by the integer content of its
  parts (as Bareiss, Math. Comp. 22 (1968), keeps to integers).  No
  fraction and no leading 1 is formed while eliminating.  ``rank_rows``
  counts its pivots, and ``rank`` is the same on a dense matrix;
  ``kernel_basis`` and ``inverse`` read the reduced form, whose pivot rows
  only they turn into GaussRats with a leading 1 (``_monic``).
  ``inverse`` only ever sees small matrices: the metric and the Kronecker
  factors of the Gram matrices, never a Gram matrix itself.
* ``rank_mod_p`` ranks small dense int rows over F_CERT_P, division-free.
  Full rank there proves full rank over Q(i) of the Gaussian integer
  matrix they reduce; a shortfall proves nothing, and ``rank`` decides.
  ``rank_drops_mod_p`` runs the same elimination on a block of square
  matrices at once, entry by entry across the block.
* ``det``: cofactor expansion over any ring whose unit is passed in
  (GaussRat, Scalar and chart Poly entries alike), for small matrices.
* ``row_sum`` and ``int_row_sum`` sum sparse rows of GaussRats and of
  Gaussian integers (``gauss_ints`` clears a list by one integer).
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from math import gcd, lcm

from .scalars import GR_ONE, GR_ZERO, GaussRat, _canonical

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


def int_row_sum(terms) -> dict[int, tuple[int, int]]:
    """The sparse row sum of x * row over the terms (x, row), where x is a
    Gaussian integer (re, im) and each row a sequence of (index, (re, im))
    pairs; a sum that cancels is kept as (0, 0)."""
    acc: dict[int, tuple[int, int]] = {}
    for (a, b), row in terms:
        for j, (u, v) in row:
            if j in acc:
                x, y = acc[j]
                acc[j] = x + a * u - b * v, y + a * v + b * u
            else:
                acc[j] = a * u - b * v, a * v + b * u
    return acc


def _int_row(row) -> dict[int, tuple[int, int]]:
    """A sparse GaussRat row cleared by the lcm of its denominators, as
    Gaussian integers {col: (re, im)}."""
    den = lcm(*[x.d for x in row.values()])
    if den == 1:
        return {j: (x.a, x.b) for j, x in row.items()}
    out = {}
    for j, x in row.items():
        f = den // x.d
        out[j] = x.a * f, x.b * f
    return out


def _eliminate(row, pivot, c):
    """p * row - r * pivot, with p and r the entries of ``pivot`` and
    ``row`` in column c (first divided by the rational integers that
    divide both), which clears column c, divided by the rational integer
    content of its parts; both rows hold Gaussian integers."""
    if len(pivot) == 1:     # p * row - r * pivot is p times row off c
        del row[c]
        return row
    pa, pb = pivot[c]
    ra, rb = row[c]
    g = gcd(pa, pb, ra, rb)
    if g != 1:
        pa, pb, ra, rb = pa // g, pb // g, ra // g, rb // g
    out = {}
    for j, (x, y) in row.items():
        if j in pivot:
            u, v = pivot[j]
            x, y = pa * x - pb * y - ra * u + rb * v, \
                pa * y + pb * x - ra * v - rb * u
            if x or y:
                out[j] = x, y
        else:
            out[j] = pa * x - pb * y, pa * y + pb * x
    for j, (u, v) in pivot.items():
        if j not in row:
            out[j] = rb * v - ra * u, -ra * v - rb * u
    g = gcd(*chain.from_iterable(out.values()))
    if g > 1:
        for j, (x, y) in out.items():
            out[j] = x // g, y // g
    return out


def _echelon(rows, reduced: bool = False) -> dict[int, dict]:
    """Pivot rows by leading column, division-free over Z[i].

    ``rows`` are sparse ``{col: GaussRat}`` dicts with no zero values.
    Each is cleared once by the lcm of its denominators, then reduced on
    its leading column until that column has no pivot, and becomes the
    pivot there, as Gaussian integers {col: (re, im)}; no pivot is scaled
    to a leading 1.  ``reduced`` back-substitutes the same way, so every
    pivot column is zero outside its pivot row.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        if not row:
            continue
        row = _int_row(row)
        while row and (c := min(row)) in pivots:
            row = _eliminate(row, pivots[c], c)
        if row:
            pivots[c] = row
    if reduced:
        for c in sorted(pivots, reverse=True):
            row = pivots[c]
            for j in [j for j in row if j != c and j in pivots]:
                row = _eliminate(row, pivots[j], j)
            pivots[c] = row
    return pivots


def _monic(pivots) -> dict[int, dict[int, GaussRat]]:
    """Each pivot row of ``_echelon`` as GaussRats scaled to a leading 1."""
    out = {}
    for c, row in pivots.items():
        # (x + y i) / (a + b i) = (x + y i)(a - b i) / (a^2 + b^2)
        a, b = row[c]
        n = a * a + b * b
        out[c] = {j: _canonical(x * a + y * b, y * a - x * b, n)
                  for j, (x, y) in row.items()}
    return out


def rank_rows(rows) -> int:
    """Rank over Q(i) of sparse rows {col: nonzero GaussRat}; the rows are
    not changed."""
    return len(_echelon(rows))


def rank(a: Matrix) -> int:
    """Rank of a dense GaussRat matrix over Q(i)."""
    return rank_rows(sparse_rows(a))


def kernel_basis(a: Matrix, cols: int = None) -> list[list[GaussRat]]:
    """Basis of the right null space, one vector per free column."""
    if cols is None:
        cols = len(a[0]) if a else 0
    pivots = _monic(_echelon(sparse_rows(a), reduced=True))
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
    pivots = _monic(pivots)
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
