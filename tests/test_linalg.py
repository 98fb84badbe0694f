"""Exact linear algebra over the Gaussian rationals.

The elimination engine behind ``rank``, ``kernel_basis`` and ``inverse``
is checked against cofactor determinants, an independent route: the rank
of a matrix is the size of its largest nonzero minor.  The dense rank mod
p is checked against ``rank``: equal where the entries are small enough
that no nonzero minor vanishes mod p, and never above it.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmod import linalg
from hetmod.scalars import GR_ONE, GR_ZERO, GaussRat, Scalar

from helpers import mat_vec


def gmat(rows):
    return [[GaussRat.of(*e) for e in row] for row in rows]


def _gauss(ints):
    """A Gaussian-integer matrix of (re, im) pairs as GaussRat entries."""
    return [[GaussRat(re, im) for re, im in row] for row in ints]


def _to_ints(m):
    """m scaled to Gaussian integers, as (re, im) int pairs."""
    cols = len(m[0])
    _, flat = linalg.gauss_ints([x for row in m for x in row])
    return [flat[i * cols:(i + 1) * cols] for i in range(len(m))]


def _residue_rows(ints):
    """A Gaussian-integer matrix mod CERT_P, as the dense rows of residues
    that ``rank_mod_p`` takes."""
    return [[linalg.residue(re, im) for re, im in row] for row in ints]


def _minor_rank(m):
    """The size of the largest nonzero minor, by cofactor expansion."""
    rows, cols = len(m), len(m[0]) if m else 0
    for k in range(min(rows, cols), 0, -1):
        for rs in combinations(range(rows), k):
            for cs in combinations(range(cols), k):
                if linalg.det([[m[i][j] for j in cs] for i in rs], GR_ONE):
                    return k
    return 0


def test_reduced_form_is_read_off_the_kernel():
    # reduced row echelon form [[1, 2], [0, 0]]: pivot column 0, free
    # column 1, so the kernel is spanned by (-2, 1)
    m = gmat([[(1, 0), (2, 0)], [(2, 0), (4, 0)]])
    assert linalg.rank(m) == 1
    assert linalg.kernel_basis(m) == [[GaussRat.of(-2), GR_ONE]]


def test_kernel_basis_spans_null_space():
    m = gmat([[(1, 0), (0, 1), (1, 1)]])
    basis = linalg.kernel_basis(m, cols=3)
    assert len(basis) == 2
    for v in basis:
        assert all(not x for x in mat_vec(m, v))


def test_kernel_of_empty_matrix():
    assert len(linalg.kernel_basis([], cols=4)) == 4


def test_inverse():
    m = gmat([[(2, 0), (1, 0)], [(1, 1), (1, 0)]])
    inv = linalg.inverse(m)
    assert linalg.mat_mul(m, inv) == linalg.identity(2)


def test_det_on_gauss_rationals_and_scalars():
    assert linalg.det([], GR_ONE) == GR_ONE
    m = gmat([[(2, 0), (1, 0)], [(1, 1), (1, 0)]])
    assert linalg.det(m, GR_ONE) == GaussRat.of(1, -1)
    # the same routine over polynomials in a: det [[a, 1], [1, a]] = a^2 - 1
    a, one = Scalar.var(), Scalar.of(1)
    assert linalg.det([[a, one], [one, a]], one) == a * a - one
    assert linalg.det([[a, one], [one, a]], one).degree == 2


def test_det_is_multiplicative_and_detects_rank():
    rng = random.Random(20261018)
    for _ in range(30):
        k = rng.randint(1, 4)
        a, b = _random_matrix(rng, k, k), _random_matrix(rng, k, k)
        da, db = linalg.det(a, GR_ONE), linalg.det(b, GR_ONE)
        assert linalg.det(linalg.mat_mul(a, b), GR_ONE) == da * db
        assert bool(da) == (linalg.rank(a) == k)


def test_rank_small_cases():
    assert linalg.rank([]) == 0
    assert linalg.rank(gmat([[(0, 0)]])) == 0
    assert linalg.rank(linalg.identity(5)) == 5
    # rank drops on a complex multiple
    m = gmat([[(1, 0), (0, 1)], [(0, 2), (-2, 0)]])
    assert linalg.rank(m) == 1


_VALUES = [GR_ZERO, GR_ONE, -GR_ONE, GaussRat.of(0, 1), GaussRat.of("1/2"),
           GaussRat.of(2, -1)]


def _random_matrix(rng, rows, cols, values=_VALUES):
    return [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]


def _planted_matrix(rng, rows, cols, values=_VALUES):
    """A random matrix with some zero rows, rows that combine two earlier
    rows, and sometimes a zero column."""
    m = _random_matrix(rng, rows, cols, values)
    for i in range(rows):
        roll = rng.random()
        if roll < 0.15:
            m[i] = [GR_ZERO] * cols
        elif roll < 0.5 and i >= 2:
            j, k = rng.sample(range(i), 2)
            a, b = rng.choice(values), rng.choice(values)
            m[i] = [a * x + b * y for x, y in zip(m[j], m[k])]
    if rng.random() < 0.3:
        c = rng.randrange(cols)
        for row in m:
            row[c] = GR_ZERO
    return m


def _planted_matrices(seed, count=60):
    rng = random.Random(seed)
    for _ in range(count):
        yield _planted_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))


# entries whose denominators exceed 10^12, so that clearing a row and
# eliminating it run through integers of several machine words
_BIG_VALUES = [
    GR_ZERO, GR_ONE, GaussRat.of(Fraction(1, 10 ** 12 + 39)),
    GaussRat.of(Fraction(-5, 3 * 10 ** 12 + 7), Fraction(2, 10 ** 13 + 1)),
    GaussRat.of(0, Fraction(7, 2 ** 41 + 1)),
    GaussRat.of(Fraction(10 ** 12 + 1, 10 ** 12 + 3), -1),
]

# Gaussian integers that are not units, one of them a rational integer
_CONTENTS = [GaussRat.of(1, 1), GaussRat.of(2, -1), GaussRat.of(3, 2),
             GaussRat.of(6)]


def _big_planted_matrices(seed, count=40):
    """Planted matrices over _BIG_VALUES in which some rows are multiplied
    by a Gaussian integer of _CONTENTS: once cleared of denominators, such
    a row shares that content, which no rational integer divides out.
    Yields each matrix and the number of its nonzero rows so multiplied."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 6)
        m = _planted_matrix(rng, rows, cols, _BIG_VALUES)
        shared = 0
        for i in range(rows):
            if rng.random() < 0.4:
                c = rng.choice(_CONTENTS)
                m[i] = [c * x for x in m[i]]
                shared += any(m[i])
        yield m, shared


def test_rank_kernel_and_inverse_with_big_denominators():
    # rank, kernel and inverse against the cofactor minors, on the big
    # entries and on square matrices of them
    drops = big = shared = 0
    for m, k in _big_planted_matrices(20261022):
        cols, rk = len(m[0]), _minor_rank(m)
        assert linalg.rank(m) == rk, m
        basis = linalg.kernel_basis(m, cols=cols)
        assert len(basis) == cols - rk
        for v in basis:
            assert all(not x for x in mat_vec(m, v))
        if basis:
            assert _minor_rank(basis) == len(basis)
        drops += rk < min(len(m), cols)
        big += any(x.d > 10 ** 12 for row in m for x in row)
        shared += k
    assert drops >= 8 and big >= 25 and shared >= 20
    rng = random.Random(20261023)
    singular = 0
    for _ in range(40):
        k = rng.randint(1, 4)
        a = _planted_matrix(rng, k, k, _BIG_VALUES)
        if rng.random() < 0.5:
            a[0] = [rng.choice(_CONTENTS) * x for x in a[0]]
        if not linalg.det(a, GR_ONE):
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                linalg.inverse(a)
            continue
        inv = linalg.inverse(a)
        assert linalg.mat_mul(inv, a) == linalg.identity(k)
        assert linalg.mat_mul(a, inv) == linalg.identity(k)
    assert 10 <= singular <= 32


def test_inverse_of_the_dense_metrics(dense_metric_builtins):
    for m in dense_metric_builtins:
        inv = linalg.inverse(m.metric)
        assert linalg.mat_mul(inv, m.metric) == linalg.identity(m.n)
        assert linalg.mat_mul(m.metric, inv) == linalg.identity(m.n)


def test_rank_is_the_largest_nonzero_minor():
    drops = 0
    for m in _planted_matrices(20261018):
        rk = _minor_rank(m)
        assert linalg.rank(m) == rk, m
        drops += rk < min(len(m), len(m[0]))
    assert drops >= 10   # the planted rows and columns do lower the rank


def test_kernel_basis_against_minors():
    for m in _planted_matrices(20261019):
        cols = len(m[0])
        basis = linalg.kernel_basis(m, cols=cols)
        assert len(basis) == cols - _minor_rank(m)
        for v in basis:
            assert all(not x for x in mat_vec(m, v))
        if basis:
            assert _minor_rank(basis) == len(basis)


def test_inverse_against_det():
    rng = random.Random(20261020)
    singular = 0
    for _ in range(60):
        k = rng.randint(1, 5)
        a = _planted_matrix(rng, k, k)
        if not linalg.det(a, GR_ONE):
            singular += 1
            with pytest.raises(ValueError, match="singular"):
                linalg.inverse(a)
            continue
        inv = linalg.inverse(a)
        assert linalg.mat_mul(inv, a) == linalg.identity(k)
        assert linalg.mat_mul(a, inv) == linalg.identity(k)
    assert 10 <= singular <= 50


@given(st.integers(min_value=1, max_value=4), st.randoms(use_true_random=False))
@settings(max_examples=25, deadline=None)
def test_kernel_dimension_plus_rank_is_width(cols, rng):
    m = _random_matrix(rng, 3, cols)
    assert len(linalg.kernel_basis(m, cols=cols)) + linalg.rank(m) == cols


def test_certificate_constants():
    p, i_p = linalg.CERT_P, linalg.CERT_I
    assert p % 4 == 1
    assert i_p * i_p % p == p - 1
    assert all(p % d for d in range(2, int(p ** 0.5) + 1))


def test_exact_rank_where_the_rank_mod_p_falls_short():
    p, i_p = linalg.CERT_P, linalg.CERT_I
    # full rank over Q(i), singular mod p: an entry equal to p, and a
    # determinant -1 - i*I that vanishes once i is sent to I
    for m in ([[(p, 0)]],
              [[(1, 0), (0, 1)], [(i_p, 0), (-1, 0)]],
              [[(1, 0), (0, 0)], [(0, 0), (0, p)], [(0, 0), (2 * p, 0)]]):
        full = len(m[0])
        assert linalg.rank_mod_p(_residue_rows(m)) < full
        assert linalg.rank(_gauss(m)) == _minor_rank(_gauss(m)) == full


def test_ranks_agree_with_minors_on_random_matrices():
    for m in _planted_matrices(20261017):
        ints = _to_ints(m)
        rk = _minor_rank(m)
        assert linalg.rank(_gauss(ints)) == rk
        assert linalg.rank_mod_p(_residue_rows(ints)) <= rk


def _gauss_int_matrix(rng, rows, cols):
    """Gaussian integers (re, im) with parts in {-1, 0, 1}; the last row is
    sometimes the sum or difference of two others, the leading entry
    sometimes 0 and sometimes a whole column."""
    m = [[(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(cols)]
         for _ in range(rows)]
    if rows >= 3 and rng.random() < 0.5:
        j, k = rng.sample(range(rows - 1), 2)
        sgn = rng.choice((-1, 1))
        m[-1] = [(a + sgn * c, b + sgn * d)
                 for (a, b), (c, d) in zip(m[j], m[k])]
    if rng.random() < 0.5:
        m[0][0] = (0, 0)
    if rng.random() < 0.3:
        c = rng.randrange(cols)
        for row in m:
            row[c] = (0, 0)
    return m


def test_rank_mod_p_against_the_exact_rank():
    # every part is at most 1 (2 in the planted row), so by Hadamard's
    # bound a nonzero minor of size <= 6 has |det| < sqrt(p), a norm below
    # p, and a nonzero residue: the rank mod p is the rank over Q(i).  The
    # rows are the unreduced images re + CERT_I * im plus a multiple of p,
    # so entries are negative and >= p
    p, i_p = linalg.CERT_P, linalg.CERT_I
    rng = random.Random(20261020)
    drops = swaps = negative = large = 0
    for _ in range(300):
        m = _gauss_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rows = [[re + i_p * im + p * rng.randint(-2, 2) for re, im in row]
                for row in m]
        copy = [list(row) for row in rows]
        rk = linalg.rank(_gauss(m))
        assert linalg.rank_mod_p(rows) == rk, m
        assert rows == copy
        drops += rk < min(len(m), len(m[0]))
        swaps += m[0][0] == (0, 0) and any(row[0] != (0, 0) for row in m)
        negative += any(x < 0 for row in rows for x in row)
        large += any(x >= p for row in rows for x in row)
    assert min(drops, swaps, negative, large) >= 30
    # by hand: a zero pivot that needs a swap, a zero column, a planted
    # combination, and unreduced entries
    assert linalg.rank_mod_p([[0, 1], [1, 0]]) == 2
    assert linalg.rank_mod_p([[0, 1, 2], [0, 2, 5]]) == 2
    assert linalg.rank_mod_p([[1, 2, 3], [4, 5, 6], [9, 12, 15]]) == 2
    assert linalg.rank_mod_p([[p + 1, -1], [-p - 2, 2 * p + 2]]) == 1
    assert linalg.rank_mod_p([[p + 1, -1], [-p - 2, 3]]) == 2
    assert linalg.rank_mod_p([[0, 0], [p, -p]]) == 0
    assert linalg.rank_mod_p([]) == 0


def test_rank_mod_p_never_exceeds_the_exact_rank():
    p, i_p = linalg.CERT_P, linalg.CERT_I
    rng, big = random.Random(20261021), 10 ** 12
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[(rng.randint(-big, big), rng.randint(-big, big))
              for _ in range(cols)] for _ in range(rows)]
        if rows >= 2:
            m[-1] = m[0]
        assert linalg.rank_mod_p([[re + i_p * im for re, im in row]
                                  for row in m]) <= linalg.rank(_gauss(m))
    # and falls short where p divides a minor that is not 0
    assert linalg.rank_mod_p([[p, 0], [0, 1]]) == 1
    assert linalg.rank(_gauss([[(p, 0), (0, 0)], [(0, 0), (1, 0)]])) == 2


def test_gauss_ints_clears_mixed_denominators():
    xs = [GaussRat.of("1/6", "-3/4"), GaussRat.of(5), GaussRat.of(0, "2/9"),
          GR_ZERO, GaussRat.of("-7/10", "1/15"), GaussRat.of("4/3", "4/3")]
    # the definition: the lcm of the Fraction denominators of every part
    den = 1
    for x in xs:
        den = lcm(den, x.re.denominator, x.im.denominator)
    assert den == 180
    assert linalg.gauss_ints(xs) == (
        den, [(int(x.re * den), int(x.im * den)) for x in xs])


def test_residue_is_a_ring_homomorphism():
    # Z[i] -> F_CERT_P: sums and products of Gaussian integers map to sums
    # and products of residues, and i maps to CERT_I
    p = linalg.CERT_P
    rng = random.Random(20261019)
    assert linalg.residue(0, 1) == linalg.CERT_I
    for _ in range(200):
        a, b, c, d = (rng.randint(-10 ** 12, 10 ** 12) for _ in range(4))
        ra, rb = linalg.residue(a, b), linalg.residue(c, d)
        assert linalg.residue(a + c, b + d) == (ra + rb) % p
        assert linalg.residue(a * c - b * d, a * d + b * c) == ra * rb % p
