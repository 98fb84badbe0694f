"""Invariant form algebra: normalization, wedge, conjugation, contraction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmod.exterior import (
    CovectorForm,
    EndForm,
    FormError,
    InvariantForm,
    MixedForm,
    VectorForm,
    contract,
    end_pair_trace,
    merge_with_sign,
    normalize_key,
    sort_with_sign,
)
from hetmod.scalars import GR_ONE, S_I, S_ONE, Scalar

N = 3


def mono(holo, anti, coeff=S_ONE):
    return InvariantForm.monomial(N, holo, anti, coeff)


def test_sort_with_sign():
    assert sort_with_sign([2, 1]) == (-1, (1, 2))
    assert sort_with_sign([3, 1, 2]) == (1, (1, 2, 3))
    assert sort_with_sign([1, 1]) == (0, ())


def test_merge_with_sign():
    assert merge_with_sign((1, 3), (2,)) == (-1, (1, 2, 3))
    assert merge_with_sign((1,), (1,)) == (0, ())


def test_monomial_normalization():
    # legs are reordered with the transposition sign
    assert mono([2, 1], []) == -mono([1, 2], [])
    assert not mono([1, 1], [])
    assert mono([1], [3, 2]) == -mono([1], [2, 3])


def test_build_rejects_unsorted_legs():
    # stored as given, the key would read 0 in either leg order, and adding
    # the same monomial would print two terms
    with pytest.raises(FormError):
        InvariantForm.build(N, 2, 0, {((2, 1), ()): S_ONE})
    f = InvariantForm.build(N, 2, 0, {((1, 2), ()): S_ONE})
    g = f + mono([2, 1], []).scale(Scalar.of(3))
    assert str(g) == "(-2) a^1^a^2"


def test_coeff_arbitrary_order():
    f = mono([1, 2], [3], Scalar.of(5))
    assert f.coeff([2, 1], [3]) == Scalar.of(-5)
    assert f.coeff([1, 3], [3]) == Scalar()


def test_wedge_anticommutes_on_odd_degrees():
    a = mono([1], [])
    b = mono([], [2])
    assert a.wedge(b) == -(b.wedge(a))
    # even against odd commutes
    c = mono([1], [2])
    assert c.wedge(a) == a.wedge(c)


def test_wedge_shape_checks():
    with pytest.raises(FormError):
        mono([1], []) + mono([2], [1])
    with pytest.raises(FormError):
        mono([1], []).wedge(InvariantForm.monomial(2, [1], []))


def test_conjugate_involution_and_sign():
    f = mono([1], [2], S_I)
    g = f.conjugate()
    assert (g.p, g.q) == (1, 1)
    # conj(i a^1 ^ ab^2) = -i ab^1 ^ a^2 = i a^2 ^ ab^1
    assert g == InvariantForm.monomial(N, [2], [1], S_I)
    assert g.conjugate() == f


small_legs = st.lists(st.integers(min_value=1, max_value=N),
                      min_size=0, max_size=2)


@given(small_legs, small_legs, small_legs)
@settings(max_examples=40, deadline=None)
def test_wedge_associative(h1, h2, h3):
    a, b, c = mono(h1, []), mono(h2, []), mono(h3, [])
    assert a.wedge(b.wedge(c)) == a.wedge(b).wedge(c)


def test_normalize_key_matches_monomial():
    sign, key = normalize_key([3, 1], [2])
    assert sign == -1 and key == ((1, 3), (2,))


def test_contract_orders_vector_legs_first():
    v = VectorForm.build(N, 0, 1, [mono([], [1]),
                                   InvariantForm.zero(N, 0, 1),
                                   InvariantForm.zero(N, 0, 1)])
    k = CovectorForm.build(N, 0, 1, [mono([], [2]),
                                     InvariantForm.zero(N, 0, 1),
                                     InvariantForm.zero(N, 0, 1)])
    assert contract(v, k) == mono([], [1, 2])


def test_value_legs_share_arithmetic_but_stay_distinct():
    z = InvariantForm.zero(N, 0, 1)
    comps = [mono([], [1]), z, mono([], [2])]
    v = VectorForm.build(N, 0, 1, comps)
    k = CovectorForm.build(N, 0, 1, comps)
    assert v != k and v.comps == k.comps
    assert type(v + v) is VectorForm and type(-k) is CovectorForm
    assert (v + v).comps == tuple(f.scale(Scalar.of(2)) for f in comps)
    assert not v - v and bool(v)
    assert k.scale(Scalar()) == CovectorForm.zero(N, 0, 1)
    with pytest.raises(FormError):
        VectorForm.build(N, 0, 1, comps[:2])
    f, g, h = mono([1], [1]), mono([1], [2]), mono([2], [1])
    F = EndForm.build(N, 2, 1, 1, [[f, g], [h, -f]])
    assert F.flat == (f, g, h, -f) and F.comps == ((f, g), (h, -f))
    assert F.entry(1, 0) == h
    assert (F - F.scale(Scalar.of(2))).entry(0, 1) == -g


def test_end_form_trace_and_pairing():
    f = mono([1], [1])
    g = mono([1], [2])
    h = mono([2], [1])
    F = EndForm.build(N, 2, 1, 1, [[f, g], [h, -f]])
    assert F.is_trace_free()
    # tr(F ^ F) = 2 f^f + g^h + h^g, and f^f = 0 on a monomial
    assert end_pair_trace(F, F) == g.wedge(h).scale(Scalar.of(2))
    assert g.wedge(h) == h.wedge(g)


def test_mixed_form_parts():
    m = MixedForm.of(mono([1, 2], [])) + MixedForm.of(mono([1], [2]))
    assert m.part(2, 0) == mono([1, 2], [])
    assert m.part(0, 2) == InvariantForm.zero(N, 0, 2)
    with pytest.raises(FormError):
        m + MixedForm.zero(N, 3)


def test_evaluate_on_frame_vectors():
    f = mono([1, 2], [])
    e1 = [S_ONE] + [Scalar()] * (2 * N - 1)
    e2 = [Scalar(), S_ONE] + [Scalar()] * (2 * N - 2)
    assert f.evaluate([e1, e2]) == S_ONE
    assert f.evaluate([e2, e1]) == -S_ONE
