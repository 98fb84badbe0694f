"""Exact linear algebra over the Gaussian rationals.

Two engines and a determinant:

* ``rref`` / ``kernel_basis`` / ``inverse``: plain Gaussian elimination on
  GaussRat entries (exact), used wherever an explicit basis is needed.
  ``inverse`` only ever sees small matrices: the metric and the Kronecker
  factors of the Gram matrices, never a Gram matrix itself.
* ``rank``: fraction-free Bareiss elimination on Gaussian integers after
  clearing denominators (``gauss_int_rank`` is the integer entry point).
  ``certified_rank`` puts a rank certificate modulo a prime in front of it
  for matrices that are already Gaussian-integer.
* ``det``: cofactor expansion over any ring whose unit is passed in
  (GaussRat, Scalar and chart Poly entries alike), for small matrices.
"""

from __future__ import annotations

from math import lcm
from typing import List, Sequence, Tuple

from .scalars import GR_ONE, GR_ZERO, GaussRat

Matrix = List[List[GaussRat]]
IntMatrix = List[List[Tuple[int, int]]]


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


def mat_vec(a: Matrix, v: Sequence[GaussRat]) -> List[GaussRat]:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]),
                start=GR_ZERO) for row in a]


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def rref(a: Matrix) -> Tuple[Matrix, List[int]]:
    """Reduced row echelon form (copy) and the list of pivot columns."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots: List[int] = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y if y else x for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(a: Matrix, cols: int = None) -> List[List[GaussRat]]:
    """Basis of the right null space, one vector per free column."""
    if cols is None:
        cols = len(a[0]) if a else 0
    if not a:
        return [[GR_ONE if i == j else GR_ZERO for i in range(cols)]
                for j in range(cols)]
    red, pivots = rref(a)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [GR_ZERO] * cols
        v[fc] = GR_ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def inverse(a: Matrix) -> Matrix:
    k = len(a)
    aug = [row[:] + identity(k)[i] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    return [row[k:] for row in red]


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


def gauss_ints(xs: Sequence[GaussRat]) -> Tuple[int, List[Tuple[int, int]]]:
    """The least positive integer d that clears the denominators of xs,
    and d * xs as (re, im) int pairs."""
    den = lcm(*(x.d for x in xs))
    return den, [(x.a * (den // x.d), x.b * (den // x.d)) for x in xs]


def _to_gauss_int(a: Matrix) -> IntMatrix:
    """Scale a GaussRat matrix to Gaussian integers, as (re, im) int pairs."""
    cols = len(a[0]) if a else 0
    _, flat = gauss_ints([x for row in a for x in row])
    return [flat[i * cols:(i + 1) * cols] for i in range(len(a))]


def rank(a: Matrix) -> int:
    """Rank of a GaussRat matrix: clear denominators, then Bareiss."""
    return gauss_int_rank(_to_gauss_int(a))


def gauss_int_rank(a: IntMatrix) -> int:
    """Rank via fraction-free Bareiss elimination over Gaussian integers.

    Entries are (re, im) int pairs; the argument is not modified.
    """
    if not a or not a[0]:
        return 0
    m = [row[:] for row in a]
    rows, cols = len(m), len(m[0])
    rk = 0
    prev_re, prev_im = 1, 0  # previous pivot (starts at 1)
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != (0, 0)), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pre, pim = m[r][c]
        # Bareiss step: new = (pivot*old - rowval*pivcolval) / prev_pivot
        pn = prev_re * prev_re + prev_im * prev_im
        for i in range(r + 1, rows):
            fre, fim = m[i][c]
            mi = m[i]
            mr = m[r]
            for j in range(c, cols):
                xre, xim = mi[j]
                yre, yim = mr[j]
                nre = pre * xre - pim * xim - (fre * yre - fim * yim)
                nim = pre * xim + pim * xre - (fre * yim + fim * yre)
                # exact division by previous pivot (conjugate trick)
                dre = (nre * prev_re + nim * prev_im) // pn
                dim = (nim * prev_re - nre * prev_im) // pn
                mi[j] = (dre, dim)
        prev_re, prev_im = pre, pim
        rk += 1
        r += 1
        if r == rows:
            break
    return rk


# Reduction Z[i] -> F_p, re + im*i -> re + CERT_I*im mod CERT_P, is a ring
# homomorphism because CERT_P = 1 (mod 4) and CERT_I^2 = -1 (mod CERT_P).
# A minor that is nonzero mod p is nonzero over Q(i), so the rank mod p is
# a lower bound for the exact rank.  Residues stay below 2^30.
CERT_P = 1_000_000_009
CERT_I = 430_477_711


def rank_mod_p(a: IntMatrix) -> int:
    """Rank of the image of a Gaussian-integer matrix in F_CERT_P."""
    p, i_p = CERT_P, CERT_I
    m = [[(re + i_p * im) % p for re, im in row] for row in a]
    rk = 0
    # eliminate on the first column, then drop it, until none is left
    while m and m[0]:
        k = next((k for k, row in enumerate(m) if row[0]), None)
        if k is None:
            m = [row[1:] for row in m]
            continue
        pivot = m.pop(k)
        neg_inv = p - pow(pivot[0], p - 2, p)
        tail = pivot[1:]
        m = [[(x + f * y) % p for x, y in zip(row[1:], tail)]
             if (f := row[0] * neg_inv % p) else row[1:] for row in m]
        rk += 1
    return rk


def certified_rank(a: IntMatrix) -> int:
    """Exact rank of a Gaussian-integer matrix.

    Full rank mod CERT_P proves full rank over Q(i); only when the
    certificate falls short does exact Bareiss elimination decide.
    """
    rows = len(a)
    full = min(rows, len(a[0])) if rows else 0
    rk = rank_mod_p(a)
    return rk if rk == full else gauss_int_rank(a)
