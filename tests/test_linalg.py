"""Exact linear algebra over the Gaussian rationals.

The rank routine (fraction-free elimination over Gaussian integers) and the
reduced-echelon routine are independent implementations, so they serve as
oracles for each other on random input.
"""

import random
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from hetmod import linalg
from hetmod.scalars import GR_ONE, GR_ZERO, GaussRat, Scalar


def gmat(rows):
    return [[GaussRat.of(*e) for e in row] for row in rows]


def test_rref_pivots():
    m = gmat([[(1, 0), (2, 0)], [(2, 0), (4, 0)]])
    red, pivots = linalg.rref(m)
    assert pivots == [0]
    assert red[0] == [GR_ONE, GaussRat.of(2)]
    assert red[1] == [GR_ZERO, GR_ZERO]


def test_kernel_basis_spans_null_space():
    m = gmat([[(1, 0), (0, 1), (1, 1)]])
    basis = linalg.kernel_basis(m, cols=3)
    assert len(basis) == 2
    for v in basis:
        assert all(not x for x in linalg.mat_vec(m, v))


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


def _random_matrix(rng, rows, cols):
    vals = [GR_ZERO, GR_ONE, -GR_ONE, GaussRat.of(0, 1), GaussRat.of("1/2"),
            GaussRat.of(2, -1)]
    return [[rng.choice(vals) for _ in range(cols)] for _ in range(rows)]


def test_rank_agrees_with_rref_on_random_matrices():
    rng = random.Random(20260823)
    for _ in range(40):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = _random_matrix(rng, rows, cols)
        _, pivots = linalg.rref(m)
        assert linalg.rank(m) == len(pivots)


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


def test_certified_rank_falls_back_when_singular_mod_p():
    p, i_p = linalg.CERT_P, linalg.CERT_I
    # full rank over Q(i), singular mod p: an entry equal to p, and a
    # determinant -1 - i*I that vanishes once i is sent to I
    for m in ([[(p, 0)]],
              [[(1, 0), (0, 1)], [(i_p, 0), (-1, 0)]],
              [[(1, 0), (0, 0)], [(0, 0), (0, p)], [(0, 0), (2 * p, 0)]]):
        full = len(m[0])
        assert linalg.rank_mod_p(m) < full
        assert linalg.gauss_int_rank(m) == full
        assert linalg.certified_rank(m) == full


def test_certified_rank_agrees_with_rref_on_random_matrices():
    rng = random.Random(20261017)
    for _ in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols)
        _, pivots = linalg.rref(m)
        ints = linalg._to_gauss_int(m)
        assert linalg.certified_rank(ints) == len(pivots)
        assert linalg.gauss_int_rank(ints) == len(pivots)


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
