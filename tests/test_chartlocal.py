"""Coordinate-chart side: polynomial forms, the radial primitive, potential
construction and the conjugation identity for the deformation operator."""

import collections
import copy
import functools
import itertools
import json
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmod import chartlocal as cl
from hetmod import cli
from hetmod import qcomplex as qc
from hetmod.exterior import InvariantForm, MixedForm
from hetmod.geometry import ModelError, _mixed_str
from hetmod.models import parse_model_text
from hetmod.scalars import GR_ONE, GR_ZERO, S_ONE, GaussRat, Scalar


MC = 3


def zp(k):
    return cl.Poly.coord(MC, k)


def zbp(k):
    return cl.Poly.coord(MC, k, anti=True)


def cp(c):
    return cl.Poly.const(MC, GaussRat.of(c))


def test_poly_algebra():
    f = zp(0) * zbp(1) + cp(2)
    g = zp(0) - zbp(1)
    assert f * g == g * f
    assert f.diff(0) == zbp(1)
    assert f.diff(1, anti=True) == zp(0)
    assert f.diff(0, anti=True) == cl.Poly.zero(MC)
    assert f.conjugate() == zbp(0) * zp(1) + cp(2)
    assert not f.is_holomorphic()
    assert (zp(0) * zp(2) + cp(1)).is_holomorphic()


def test_poly_antiholomorphic_split():
    f = zp(0) + zp(1) * zbp(0) + zbp(0) * zbp(1)
    split = f.antiholomorphic_split()
    assert sorted(split) == [0, 1, 2]
    assert split[0] == zp(0)
    assert split[2] == zbp(0) * zbp(1)


def _random_form(rng, p, q):
    acc = cl.ChartForm.zero(MC, p, q)
    pool = [cp(1), cp(-1), zp(0), zp(1), zbp(2), zp(2) * zbp(0)]
    for _ in range(4):
        holo = rng.sample(range(1, MC + 1), p)
        anti = rng.sample(range(1, MC + 1), q)
        acc = acc + cl.ChartForm.monomial(MC, holo, anti, rng.choice(pool))
    return acc


def test_chart_differentials_square_to_zero():
    rng = random.Random(7)
    for p, q in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]:
        x = _random_form(rng, p, q)
        assert not cl.dbar_chart(cl.dbar_chart(x))
        assert not cl.partial_chart(cl.partial_chart(x))
        mixed = (cl.partial_chart(cl.dbar_chart(x))
                 + cl.dbar_chart(cl.partial_chart(x)))
        assert not mixed


def test_homotopy_inverts_dbar_on_exact_forms():
    rng = random.Random(11)
    for p, q in [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]:
        y = _random_form(rng, p, q)
        x = cl.dbar_chart(y)
        if not x:
            continue
        eta = cl.dbar_homotopy(x)
        assert cl.dbar_chart(eta) == x, (p, q)


def test_homotopy_rejects_functions():
    with pytest.raises(cl.FormError):
        cl.dbar_homotopy(cl.ChartForm.func(zp(0)))


def test_one_form_parser():
    # the coefficient of each dz<k>
    parsed = cl._parse_one_form(3, "a3", "-dz3 + z1 dz2")
    assert parsed == (cp(0), zp(0), cp(-1))
    parsed = cl._parse_one_form(3, "a1", "1/2 z1 z2 dz1")
    assert parsed == (zp(0) * zp(1) * cp("1/2"), cp(0), cp(0))
    with pytest.raises(ModelError):
        cl._parse_one_form(3, "a1", "z1 z2")
    with pytest.raises(ModelError):
        cl._parse_one_form(3, "a1", "dz9")


# pullback spellings that the splitter before the one term grammar read
# otherwise: (spelling of a1, the coefficients of dz1..dz3 or the reason
# of the refusal; the comment gives the earlier reading)
_CHANGED_PULLBACKS = [
    ("(1 + i) dz1", (cl.Poly.const(MC, GaussRat.of(1, 1)), cp(0), cp(0))),
    # cannot read '(1' in term '(1'
    ("1/2dz1", (cp("1/2"), cp(0), cp(0))),     # cannot read '1/2dz1'
    ("z1 2 dz2", "unexpected token near ' 2 dz2'"),    # 2 z1 dz2
    ("2 3 dz1", "unexpected token near ' 3 dz1'"),     # 6 dz1
    ("dz1 2", "unexpected token near ' 2'"),       # 2 dz1
    ("dz1 # 2", "bad scalar syntax near ' # 2'"),
    # cannot read '#' in term 'dz1 # 2'
    ("dz1 +", "empty term in scalar"),   # no coframe leg in term ''
]


@pytest.mark.parametrize("text, want", _CHANGED_PULLBACKS,
                         ids=[text for text, _ in _CHANGED_PULLBACKS])
def test_one_form_parser_reads_the_term_grammar(text, want):
    # a term is [coefficient] [z<k> ...] dz<k>, the coefficient as a model
    # file writes one
    try:
        got = cl._parse_one_form(3, "a1", text)
    except ModelError as exc:
        got = str(exc)
        want = (f"chart.coframe_pullback.a1: {want}; a term is [coefficient] "
                "[z<k> ...] dz<k> with 1 <= k <= 3, and zb<k> is not read "
                "yet")
    assert got == want


def test_chart_data_iwasawa(iwasawa):
    cd = cl.chart_data(iwasawa)
    assert (cd.m_coords, cd.n, cd.rank) == (3, 3, 2)
    # the only nonzero holomorphic-frame Christoffel entries
    gam = [(a, c, b) for a in range(3) for c in range(3) for b in range(3)
           if cd.Gamma[a][c][b]]
    assert gam == [(0, 2, 1)]
    assert cd.Gamma[0][2][1] == cp(-1)
    gamp = [(a, c, b) for a in range(3) for c in range(3) for b in range(3)
            if cd.GammaPlus[a][c][b]]
    assert gamp == [(1, 2, 0)]
    assert cd.GammaPlus[1][2][0] == cp(-1)
    # torsion in coordinates: dz1^dz2^(1/2 dzbar3 - 1/2 zbar1 dzbar2)
    assert cd.T_chart.coeff([1, 2], [3]) == cp("1/2")
    assert cd.T_chart.coeff([1, 2], [2]) == zbp(0).scale(GaussRat.of("-1/2"))


def test_chartless_models_refuse(torus, calabi_eckmann):
    for m in (torus, calabi_eckmann):
        with pytest.raises(ModelError):
            cl.chart_data(m)


def test_chart_breaking_a_mixed_structure_equation_refused(calabi_eckmann):
    # d a1 on calabi-eckmann is all (1,1), and a holomorphic chart cannot
    # pull it back: the (1,1) comparison names the leg and the residual
    m = calabi_eckmann.replace(chart={
        "coords": 3,
        "coframe_pullback": {"a1": "dz1", "a2": "dz2", "a3": "dz3"}})
    with pytest.raises(ModelError) as exc:
        cl.chart_data(m)
    assert str(exc.value) == (
        "chart.coframe_pullback.a1 breaks the structure equations: d of the "
        "pullback minus the pullback of d a1 has (1,1) part "
        "[(-1/2 i)] dz2^dzb2 + [(1/2)] dz3^dzb3")


def test_gauge_potential_value(iwasawa):
    t = cl.build_trivialization(iwasawa)
    i4 = GaussRat.of(0, "1/4")
    want00 = (cl.ChartForm.monomial(MC, (1,), (), zbp(0).scale(-i4))
              + cl.ChartForm.monomial(MC, (2,), (), zbp(1).scale(i4)))
    assert t.A[0][0] == want00
    assert t.A[1][1] == -want00
    assert not t.A[0][1] and not t.A[1][0]


def test_potential_residuals(iwasawa):
    t = cl.build_trivialization(iwasawa)
    assert cl.potential_residuals(t) == {"gauge_potential": True,
                                         "torsion_potential": True}
    t1 = cl.build_trivialization(iwasawa, shift=1)
    assert cl.potential_residuals(t1) == {"gauge_potential": True,
                                          "torsion_potential": True}


def test_chern_simons_transgression(iwasawa):
    t = cl.build_trivialization(iwasawa)
    A = [[t.A[u][v] for v in range(2)] for u in range(2)]
    F = [[t.cd.F_chart[u][v] for v in range(2)] for u in range(2)]
    res = cl.cs_transgression_residual(A, F)
    assert not any(res)


def _wedge_trace(X, Y):
    """tr(X ^ Y) = sum_{i,k} X[i][k] ^ Y[k][i], by the test's own loop."""
    r = len(X)
    return functools.reduce(operator.add, [X[i][k].wedge(Y[k][i])
                                           for i in range(r)
                                           for k in range(r)])


def _matrix_wedge(X, Y):
    r = len(X)
    return [[functools.reduce(operator.add, [X[i][k].wedge(Y[k][j])
                                             for k in range(r)])
             for j in range(r)] for i in range(r)]


def test_chern_simons_on_a_non_abelian_potential(iwasawa):
    # Chern & Simons (Ann. of Math. 99, 1974): for any matrix A of 1-forms,
    # d tr(A ^ dA + 2/3 A ^ A ^ A) = tr(F_A ^ F_A) with F_A = dA + A ^ A.
    # A is a polynomial (1,0) potential on iwasawa's chart whose cubic term
    # tr(A ^ A ^ A) is nonzero and not dbar-closed, so the identity checks
    # the cubic coefficient in the (3,1) part; F_A has the (2,0) part
    # del A + A ^ A and the (1,1) part dbar A.
    mc = cl.chart_data(iwasawa).m_coords

    def one(*terms):
        return functools.reduce(operator.add, [
            cl.ChartForm.monomial(mc, (leg,), (), f) for leg, f in terms])

    x = one((1, zbp(1)), (3, zp(0)))
    A = [[x, one((2, zp(0) * zbp(2)), (1, cp(1)))],
         [one((3, zbp(0)), (2, zp(1))), -x]]
    cubic = _wedge_trace(_matrix_wedge(A, A), A)
    assert cubic and cl.dbar_chart(cubic)
    d20 = [[cl.partial_chart(f) for f in row] for row in A]
    F20 = [[f + g for f, g in zip(r1, r2)]
           for r1, r2 in zip(d20, _matrix_wedge(A, A))]
    F11 = [[cl.dbar_chart(f) for f in row] for row in A]
    cs30, cs21 = cl.chern_simons(A)
    d30, d21 = cl.d_chart(cs30), cl.d_chart(cs21)
    assert d30[0] == _wedge_trace(F20, F20)
    assert d30[1] + d21[0] == _wedge_trace(F20, F11) + _wedge_trace(F11, F20)
    assert d21[1] == _wedge_trace(F11, F11)
    assert d30[1] + d21[0] and d21[1]


def test_operator_identity_low_degree(iwasawa):
    t = cl.build_trivialization(iwasawa)
    sections = cl.monomial_sections(t, 1)
    assert sections
    for s in sections:
        assert not cl.trivialization_residual(t, s)


def _cocycle(t1, t2, t3):
    """The cocycle check on phi_1 phi_2^{-1} and the transitions it reads."""
    return cl.transition_cocycle_residual(t1, t2, cl.transition(t2, t3),
                                          cl.transition(t1, t3))


def test_transitions(iwasawa):
    t0 = cl.build_trivialization(iwasawa, shift=0)
    t1 = cl.build_trivialization(iwasawa, shift=1)
    t2 = cl.build_trivialization(iwasawa, shift=2)
    for a, b in [(t0, t1), (t0, t2), (t1, t2)]:
        assert cl.transition_holomorphic(cl.transition(a, b))
    assert _cocycle(t0, t1, t2)
    # a transition with itself is the identity table
    z = (0,) * MC
    slots = range(2 * MC + t0.cd.rank ** 2)
    assert cl.transition(t0, t0) == [{(k, (), z, z): cp(1)} for k in slots]


def _zbar_in_A(t, only_A22=False):
    """``t`` with zbar_3 dz^1 added to A_11 and taken from A_22, or only
    taken from A_22."""
    mod = cl.ChartForm.monomial(MC, (1,), (), zbp(2))
    A = [list(row) for row in t.A]
    if not only_A22:
        A[0][0] = A[0][0] + mod
    A[1][1] = A[1][1] - mod
    return t.replace(A=tuple(tuple(row) for row in A))


def test_a_zbar_term_makes_a_transition_non_holomorphic(iwasawa):
    t0 = cl.build_trivialization(iwasawa, shift=0)
    t1 = cl.build_trivialization(iwasawa, shift=1)
    assert cl.transition_holomorphic(cl.transition(t0, t1))
    for bad in (_perturbed(t0), _zbar_in_A(t0)):
        assert not cl.transition_holomorphic(cl.transition(bad, t1))
        assert not cl.transition_holomorphic(cl.transition(t1, bad))


def test_cocycle_needs_each_phi_inverse_to_invert_its_phi(iwasawa):
    t0, t1, t2 = (cl.build_trivialization(iwasawa, shift=s)
                  for s in (0, 1, 2))
    # phi^{-1} without its alpha' tr(A_a A_d) entry is phi with every
    # coefficient negated, since all other entries are linear in s
    bad = t1.replace()
    object.__setattr__(bad, "phi_inv_table", {
        src: tuple(e[:-1] + (-e[-1],) for e in row)
        for src, row in t1.phi_table.items()})
    assert bad.phi_inv_table != t1.phi_inv_table
    assert _cocycle(t0, t1, t2)
    assert not _cocycle(t0, bad, t2)


def test_trivialization_report_shape(iwasawa):
    rep = cl.trivialization_report(iwasawa, degree=1)
    assert rep["model"] == "iwasawa"
    assert rep["alpha_prime"] == "-4"
    assert rep["potentials"] == {"gauge_potential": True,
                                 "torsion_potential": True}
    assert rep["chern_simons_transgression"] is True
    assert rep["operator_identity"]["passed"] is True
    assert rep["transitions"]["holomorphic"] is True
    assert rep["transitions"]["cocycle"] is True


# -- the sparse containers against a dict-of-Fraction oracle -----------------
#
# A polynomial is a dict {(z exponents, zbar exponents): (re, im)} of
# nonzero Fraction pairs and a form is {(dz legs, dzbar legs): polynomial};
# every rule below is written out here, independently of chartlocal.

PM = 2     # two coordinates keep the examples small
ZERO = (Fraction(0), Fraction(0))


def _o_clean(d):
    return {k: v for k, v in d.items() if v and v != ZERO}


def _o_cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _o_cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _o_padd(f, g, sign=1):
    out = dict(f)
    for k, v in g.items():
        out[k] = _o_cadd(out.get(k, ZERO), (sign * v[0], sign * v[1]))
    return _o_clean(out)


def _o_pmul(f, g):
    out = {}
    for (a1, b1), c1 in f.items():
        for (a2, b2), c2 in g.items():
            k = (tuple(x + y for x, y in zip(a1, a2)),
                 tuple(x + y for x, y in zip(b1, b2)))
            out[k] = _o_cadd(out.get(k, ZERO), _o_cmul(c1, c2))
    return _o_clean(out)


def _o_pscale(f, c):
    return _o_clean({k: _o_cmul(v, c) for k, v in f.items()})


def _o_pdiff(f, k, anti):
    out = {}
    for (a, b), c in f.items():
        e = list(b if anti else a)
        if e[k]:
            factor = e[k]
            e[k] -= 1
            key = (a, tuple(e)) if anti else (tuple(e), b)
            out[key] = (c[0] * factor, c[1] * factor)
    return out


def _o_pconj(f):
    return {(b, a): (c[0], -c[1]) for (a, b), c in f.items()}


def _o_sort(legs):
    """(sign, sorted legs) by counting inversions; (0, None) on a repeat."""
    if len(set(legs)) < len(legs):
        return 0, None
    inv = sum(1 for i in range(len(legs)) for j in range(i + 1, len(legs))
              if legs[i] > legs[j])
    return (-1) ** inv, tuple(sorted(legs))


def _o_facc(out, key, poly, sign):
    out[key] = _o_padd(out.get(key, {}), poly, sign)


def _o_fadd(x, y, sign=1):
    out = dict(x)
    for k, v in y.items():
        _o_facc(out, k, v, sign)
    return {k: v for k, v in out.items() if v}


def _o_dbar(x, p):
    # dbar(c dz^h ^ dw^a) = sum_k dc/dw_k dw_k ^ dz^h ^ dw^a
    out = {}
    for (h, a), c in x.items():
        for k in range(PM):
            sign, legs = _o_sort((k + 1,) + a)
            if sign:
                _o_facc(out, (h, legs), _o_pdiff(c, k, True),
                        sign * (-1) ** p)
    return {k: v for k, v in out.items() if v}


def _o_wedge(x, y):
    # (dz^h1 dw^a1) ^ (dz^h2 dw^a2): dz^h2 passes dw^a1, then both sort
    out = {}
    for (h1, a1), c1 in x.items():
        for (h2, a2), c2 in y.items():
            sh, hh = _o_sort(h1 + h2)
            sa, aa = _o_sort(a1 + a2)
            if sh and sa:
                _o_facc(out, (hh, aa), _o_pmul(c1, c2),
                        sh * sa * (-1) ** (len(a1) * len(h2)))
    return {k: v for k, v in out.items() if v}


def _o_fconj(x):
    # conj(c dz^h ^ dw^a) = conj(c) dw^h ^ dz^a = (-1)^{pq} conj(c) dz^a dw^h
    return {(a, h): _o_pscale(_o_pconj(c), ((-1) ** (len(h) * len(a)), 0))
            for (h, a), c in x.items()}


def _poly_of(d):
    return cl.Poly.build(PM, {k: GaussRat.of(*v) for k, v in d.items()})


def _form_of(d, p, q):
    return cl.ChartForm.build(PM, p, q, {k: _poly_of(v) for k, v in d.items()})


def _seen_poly(f):
    assert all(f.coeffs.values()), "a zero coefficient was stored"
    return {k: (v.re, v.im) for k, v in f.terms}


def _seen_form(x):
    terms = dict(x.terms)
    assert all(terms.values()), "a zero coefficient form was stored"
    return {k: _seen_poly(v) for k, v in terms.items()}


# invariant forms with constant coefficients, seen as chart-form dicts whose
# polynomials are constants, so the same oracle checks both form classes
CONST = ((0,) * PM, (0,) * PM)


def _constants(x):
    return {k: {CONST: next(iter(v.values()))} for k, v in x.items()}


def _inv_of(d, p, q):
    return InvariantForm.build(PM, p, q, {
        k: Scalar.const(GaussRat.of(*v[CONST])) for k, v in d.items()})


def _seen_inv(x):
    terms = dict(x.terms)
    assert all(c.degree == 0 for c in terms.values()), "not a nonzero constant"
    return {k: {CONST: (c.coefficient(0).re, c.coefficient(0).im)}
            for k, c in terms.items()}


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
coeffs = st.tuples(small, small)
exps = st.tuples(*[st.integers(0, 2)] * PM)
poly_dicts = st.dictionaries(st.tuples(exps, exps), coeffs,
                             max_size=4).map(_o_clean)


def _legs(k):
    return st.sampled_from(list(itertools.combinations(range(1, PM + 1), k)))


@st.composite
def form_dicts(draw, p, q):
    keys = st.tuples(_legs(p), _legs(q))
    raw = draw(st.dictionaries(keys, poly_dicts, max_size=3))
    return {k: v for k, v in raw.items() if v}


@given(poly_dicts, poly_dicts, coeffs, st.integers(0, PM - 1))
@settings(max_examples=100, deadline=None)
def test_poly_arithmetic_matches_oracle(f, g, c, k):
    F, G = _poly_of(f), _poly_of(g)
    assert _seen_poly(F + G) == _o_padd(f, g)
    assert _seen_poly(F - G) == _o_padd(f, g, -1)
    assert _seen_poly(-F) == _o_pscale(f, (-1, 0))
    assert _seen_poly(F * G) == _o_pmul(f, g)
    assert _seen_poly(F.scale(GaussRat.of(*c))) == _o_pscale(f, c)
    assert _seen_poly(F.diff(k)) == _o_pdiff(f, k, False)
    assert _seen_poly(F.diff(k, anti=True)) == _o_pdiff(f, k, True)
    assert _seen_poly(F.conjugate()) == _o_pconj(f)
    assert bool(F) is bool(f)
    assert (F - F) == cl.Poly.zero(PM) and not (F - F)


@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
       st.integers(0, 1), st.data())
@settings(max_examples=80, deadline=None)
def test_chart_form_arithmetic_matches_oracle(p, q, p2, q2, data):
    x = data.draw(form_dicts(p, q))
    y = data.draw(form_dicts(p, q))
    z = data.draw(form_dicts(p2, q2))
    f = data.draw(poly_dicts)
    c = data.draw(coeffs)
    X, Y, Z = _form_of(x, p, q), _form_of(y, p, q), _form_of(z, p2, q2)
    assert _seen_form(X + Y) == _o_fadd(x, y)
    assert _seen_form(X - Y) == _o_fadd(x, y, -1)
    assert _seen_form(-X) == _o_fadd({}, x, -1)
    assert _seen_form(X.scale(GaussRat.of(*c))) == {
        k: v for k, v in ((k, _o_pscale(v, c)) for k, v in x.items()) if v}
    assert _seen_form(X.scale_poly(_poly_of(f))) == {
        k: v for k, v in ((k, _o_pmul(v, f)) for k, v in x.items()) if v}
    assert _seen_form(cl.dbar_chart(X)) == _o_dbar(x, p)
    assert _seen_form(X.wedge(Z)) == _o_wedge(x, z)
    assert _seen_form(X.conjugate()) == _o_fconj(x)
    assert (X.p, X.q) == (p, q) and (X.wedge(Z).p, X.wedge(Z).q) == (
        p + p2, q + q2)
    x, y, z = _constants(x), _constants(y), _constants(z)
    X, Y, Z = _inv_of(x, p, q), _inv_of(y, p, q), _inv_of(z, p2, q2)
    assert _seen_inv(X + Y) == _o_fadd(x, y)
    assert _seen_inv(X - Y) == _o_fadd(x, y, -1)
    assert _seen_inv(-X) == _o_fadd({}, x, -1)
    assert _seen_inv(X.wedge(Z)) == _o_wedge(x, z)
    assert _seen_inv(X.conjugate()) == _o_fconj(x)


@given(poly_dicts, st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_equality_hash_and_text_ignore_insertion_order(f, rng):
    items = [(k, GaussRat.of(*v)) for k, v in f.items()]
    shuffled = items[:]
    rng.shuffle(shuffled)
    F1, F2 = cl.Poly.build(PM, dict(items)), cl.Poly.build(PM, dict(shuffled))
    assert F1 == F2 and hash(F1) == hash(F2) and str(F1) == str(F2)
    # sums built in either order
    G = _poly_of({((1, 0), (0, 1)): (1, 0)})
    assert (F1 + G) == (G + F2) and str(F1 + G) == str(G + F2)
    assert hash(F1 + G) == hash(G + F2)
    legs = [(k,) for k in range(1, PM + 1)]
    forms = [(k, F1) for k in itertools.product(legs, legs)]
    rng.shuffle(forms)
    X1 = cl.ChartForm.build(PM, 1, 1, dict(forms))
    X2 = cl.ChartForm.build(PM, 1, 1, dict(reversed(forms)))
    assert X1 == X2 and hash(X1) == hash(X2) and str(X1) == str(X2)
    # invariant forms: report text sorts the terms, whatever their order
    coeffs = [Scalar.const(c) for _, c in items] or [S_ONE]
    inv = [(k, coeffs[i % len(coeffs)]) for i, (k, _) in enumerate(forms)]
    I1 = InvariantForm.build(PM, 1, 1, dict(inv))
    I2 = InvariantForm.build(PM, 1, 1, dict(reversed(inv)))
    assert I1 == I2 and hash(I1) == hash(I2) and str(I1) == str(I2)
    J = InvariantForm.monomial(PM, [2], [1], S_ONE)
    assert (I1 + J) == (J + I2) and str(I1 + J) == str(J + I2)
    assert hash(I1 + J) == hash(J + I2)
    # chart sections: the same terms in two orders, and sums either way
    sec = [((k, (1,), z, zb), c) for (z, zb), c in items for k in (0, 4, 7)]
    rng.shuffle(sec)
    S1 = cl.ChartSection.build(PM, 2, 1, dict(sec))
    S2 = cl.ChartSection.build(PM, 2, 1, dict(reversed(sec)))
    assert S1 == S2 and hash(S1) == hash(S2)
    assert S1.labelled() == S2.labelled()
    T = cl.ChartSection.build(PM, 2, 1, {(3, (2,), (1, 0), (0, 0)): GR_ONE})
    assert (S1 + T) == (T + S2) and hash(S1 + T) == hash(T + S2)
    assert (S1 + T).labelled() == (T + S2).labelled()
    # mixed forms: parts inserted in either order, terms in either order
    K = InvariantForm.monomial(PM, [1, 2], [], S_ONE)
    M1 = MixedForm.build(PM, 2, {(1, 1): I1, (2, 0): K})
    M2 = MixedForm.build(PM, 2, {(2, 0): K, (1, 1): I2})
    assert list(M1.parts) != list(M2.parts)
    assert M1 == M2 and hash(M1) == hash(M2)
    assert _mixed_str(M1) == _mixed_str(M2)
    N = MixedForm.of(J)
    assert (M1 + N) == (N + M2) and _mixed_str(M1 + N) == _mixed_str(N + M2)


def test_containers_are_immutable_and_validated():
    f = zp(0)
    with pytest.raises(AttributeError):
        f.m = 4
    with pytest.raises(TypeError):
        f.terms[((0, 0, 0), (0, 0, 0))] = GR_ONE
    with pytest.raises(cl.FormError):
        cl.Poly.build(MC, {((1, 0), (0, 0)): GR_ONE})
    with pytest.raises(cl.FormError):
        cl.ChartForm.build(MC, 1, 0, {((1, 2), ()): cp(1)})
    with pytest.raises(cl.FormError):
        cl.ChartForm.build(MC, 2, 0, {((2, 1), ()): cp(1)})
    with pytest.raises(cl.FormError):
        cl.ChartForm.build(MC, 1, 0, {((5,), ()): cp(3)})
    with pytest.raises(cl.FormError):
        InvariantForm.build(MC, 2, 0, {((2, 1), ()): S_ONE})
    assert cl.Poly.build(MC, {((0,) * 3, (0,) * 3): GR_ZERO}) == cl.Poly(MC)
    assert copy.deepcopy(f) == f and pickle.loads(pickle.dumps(f)) == f
    x = cl.ChartForm.monomial(MC, (2,), (1,), f)
    g = InvariantForm.monomial(MC, (2,), (1,), Scalar.of(0, 3))
    y = cl.ChartForm.monomial(MC, (), (2,), f)
    s = cl.ChartSection(MC, 2, 1, {0: y}, {(1, 0): y}, {2: y})
    mf = MixedForm.of(g) + MixedForm.of(InvariantForm.monomial(MC, (1, 3), ()))
    c = Scalar.make([GaussRat.of(1, 2), GR_ZERO, GaussRat.of(-3)])
    for obj in (f, x, g, s, mf, c):
        for name in obj._fields + ("shape", "terms"):
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
        key, value = next(iter(obj.terms))
        with pytest.raises(TypeError):
            obj.coeffs[key] = value
        assert copy.deepcopy(obj) == obj and copy.copy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj
        assert type(obj).build(*obj.shape, dict(obj.terms)) == obj
    # keys that do not fit the shape are refused
    z, good = (0,) * MC, (0, (1,), (0,) * MC, (0,) * MC)
    assert cl.ChartSection.build(MC, 2, 1, {good: GR_ONE})
    for key in [(10, (1,), z, z), (-1, (1,), z, z), (0, (), z, z),
                (0, (4,), z, z), (0, (2, 1), z, z), (0, (1,), (0, 0), z),
                (0, (1,), z, (0,) * 4)]:
        with pytest.raises(cl.FormError):
            cl.ChartSection.build(MC, 2, 1, {key: GR_ONE})
    for key, part in [((1, 0), g), ((2, 0), g), ((0, 2), g)]:
        with pytest.raises(cl.FormError):
            MixedForm.build(MC, 2, {key: part})
    with pytest.raises(cl.FormError):
        MixedForm.build(MC + 1, 2, {(1, 1): g})


# -- the identity check fails when it should, and names where ----------------


def _perturbed(t):
    # add zbar_1 to tau_12: dbar tau_12 changes by dzbar_1, so the
    # torsion-potential equation and the conjugation identity both break
    tau = [list(row) for row in t.tau]
    tau[0][1] = tau[0][1] + zbp(0)
    return t.replace(tau=tuple(tuple(row) for row in tau))


def test_perturbed_potential_breaks_the_identity(iwasawa):
    t = cl.build_trivialization(iwasawa)
    bad = _perturbed(t)
    assert cl.potential_residuals(bad) == {"gauge_potential": True,
                                           "torsion_potential": False}
    sections = cl.monomial_sections(bad, 1)
    residuals = [cl.trivialization_residual(bad, s) for s in sections]
    assert any(residuals)
    # phi picks up tau_12 w^2, so the section d/dz^2 is where it shows:
    # D gives nothing new there, phi^{-1} dbar phi gives dbar(zbar_1) dz^1
    k = next(i for i, r in enumerate(residuals) if r)
    assert sections[k].w == {1: cl.ChartForm.func(cp(1))}
    assert residuals[k].labelled() == {"e1:dz^1": "[(-1)] dzb1"}
    ident = cl.operator_identity_report(bad, 1)
    assert ident["failures"] == sum(1 for r in residuals if r) > 0
    assert ident["passed"] is False
    assert ident["first_failure"] == {"slot": "e3:d/dz^2",
                                      "monomial": "(1)",
                                      "residual": {"e1:dz^1": "[(-1)] dzb1"}}
    # the unperturbed pair passes and its report carries no witness
    assert cl.operator_identity_report(t, 1) == {
        "sections_checked": len(sections), "failures": 0, "passed": True}


def test_report_counts_failures_of_a_perturbed_pair(iwasawa, monkeypatch):
    build = cl.build_trivialization

    def perturbed_first(m, alpha0=None, shift=0):
        t = build(m, alpha0, shift)
        return _perturbed(t) if shift == 0 else t

    monkeypatch.setattr(cl, "build_trivialization", perturbed_first)
    rep = cl.trivialization_report(iwasawa, degree=1)
    assert rep["potentials"]["torsion_potential"] is False
    assert rep["operator_identity"]["failures"] > 0
    assert rep["operator_identity"]["first_failure"]["slot"] == "e3:d/dz^2"


# -- the flat section operators against a ChartForm-level reference ---------
#
# The reference pushes the kappa/gamma/w views through dbar_chart, wedge and
# scale_poly, reading the couplings from the component arrays (not from the
# flat tables) in every direction; it returns a section built by the
# validating constructor.


def _put(acc, key, form):
    acc[key] = acc[key] + form if key in acc else form


def _ref_nabla(t, w, c):
    """{b: (nabla_c w)_b} = d/dz_c w_b + GammaPlus_c[b][a] w_a."""
    mc = t.cd.m_coords
    out = {}
    for a, x in w.items():
        _put(out, a, cl.ChartForm.build(mc, 0, x.q, {
            k: v.diff(c) for k, v in x.terms}))
        for b in range(mc):
            _put(out, b, x.scale_poly(t.cd.GammaPlus[c][b][a]))
    return out


def _ref_Dbar(t, s, with_R=True):
    cd, al = t.cd, t.alpha
    mc, r = cd.m_coords, cd.rank
    kappa, gamma, w = {}, {}, {}
    for a, x in s.kappa.items():
        _put(kappa, a, cl.dbar_chart(x))
    for (v, u), x in s.gamma.items():
        _put(gamma, (v, u), cl.dbar_chart(x))
        for j in range(mc):
            _put(kappa, j, cd.Fcomp[j][u][v].wedge(x).scale(al))
    for l, x in s.w.items():
        _put(w, l, cl.dbar_chart(x))
        for j in range(mc):
            _put(kappa, j, cd.Tcomp[l][j].wedge(x))
        for u, v in itertools.product(range(r), repeat=2):
            _put(gamma, (u, v), cd.Fcomp[l][u][v].wedge(x))
    for c in range(mc) if with_R else ():
        for b, y in _ref_nabla(t, s.w, c).items():
            for j in range(mc):
                _put(kappa, j, cd.Rcomp[j][b][c].wedge(y).scale(al))
    return cl.ChartSection(mc, r, s.q + 1, kappa, gamma, w)


def _ref_phi(t, s, inverse=False):
    cd, al, A = t.cd, t.alpha, t.Acomp
    mc, r = cd.m_coords, cd.rank
    sgn = GaussRat.of(-1 if inverse else 1)
    gauge = list(itertools.product(range(r), repeat=2))
    gamma, kappa = dict(s.gamma), dict(s.kappa)
    for a, x in s.w.items():
        for u, v in gauge:
            _put(gamma, (u, v), x.scale_poly(A[a][u][v].scale(-sgn)))
    for (v, u), x in s.gamma.items():
        for a in range(mc):
            _put(kappa, a, x.scale_poly(A[a][u][v].scale(-(al * sgn))))
    for b, x in s.w.items():
        for a in range(mc):
            _put(kappa, a, x.scale_poly(t.tau[a][b].scale(sgn)))
            if inverse:
                trAA = cl.Poly.zero(mc)
                for u, v in gauge:
                    trAA = trAA + A[a][u][v] * A[b][v][u]
                _put(kappa, a, x.scale_poly(trAA.scale(al)))
    for c in range(mc):
        for b, y in _ref_nabla(t, s.w, c).items():
            for a in range(mc):
                _put(kappa, a, y.scale_poly(cd.Gamma[a][c][b].scale(al * sgn)))
    return cl.ChartSection(mc, r, s.q, kappa, gamma, dict(s.w))


def _ref_dbar(s):
    return cl.ChartSection(s.mc, s.rank, s.q + 1,
                           *({k: cl.dbar_chart(x) for k, x in part.items()}
                             for part in (s.kappa, s.gamma, s.w)))


def _ref_residual(t, s):
    return _ref_Dbar(t, s) - _ref_phi(t, _ref_dbar(_ref_phi(t, s)), True)


def _compare_with_reference(t, degree):
    """Every flat operator equals the reference on every monomial section
    up to ``degree`` and on the (0,1)-sections dbar(phi s); returns the
    number of nonzero residuals."""
    failures = 0
    for s in cl.monomial_sections(t, degree):
        one = cl._evaluate(t, cl._dbar, cl.apply_phi(t, s), s.q + 1)
        assert one == _ref_dbar(_ref_phi(t, s))
        for x in (s, one):
            assert cl.apply_Dbar_chart(t, x) == _ref_Dbar(t, x)
            assert cl.apply_phi(t, x) == _ref_phi(t, x)
            assert cl.apply_phi_inverse(t, x) == _ref_phi(t, x, True)
        res, ref = cl.trivialization_residual(t, s), _ref_residual(t, s)
        assert res == ref and hash(res) == hash(ref) and res.q == 1
        failures += bool(res)
    return failures


def test_flat_operators_match_the_chart_form_reference(
        iwasawa, dense_metric_builtins):
    t = cl.build_trivialization(iwasawa)
    assert _compare_with_reference(t, 2) == 0
    assert _compare_with_reference(_perturbed(t), 2) > 0
    dense = cl.build_trivialization(dense_metric_builtins[0])
    assert dense.cd.T_chart != t.cd.T_chart     # the metric bends T only
    assert _compare_with_reference(dense, 2) > 0


def _bent(t):
    """``t`` with one Christoffel entry made non-holomorphic, so that
    R = dbar Gamma, which no chart model has, is nonzero."""
    G = [[list(row) for row in g] for g in t.cd.Gamma]
    G[0][2][1] = G[0][2][1] + zbp(1) * zp(0)
    cd = t.cd.replace(Gamma=tuple(
        tuple(tuple(row) for row in g) for g in G))
    assert any(f for g in cd.Rcomp for row in g for f in row)
    return t.replace(cd=cd)


def test_curvature_coupling_R_nabla_plus(iwasawa):
    """The operators must follow the reference on a bent Gamma, and the
    reference without its R term must not match."""
    bent = _bent(cl.build_trivialization(iwasawa))
    assert _compare_with_reference(bent, 2) > 0
    sections = cl.monomial_sections(bent, 2)
    assert any(cl.apply_Dbar_chart(bent, s) != _ref_Dbar(bent, s, False)
               for s in sections)


def test_section_views_round_trip_and_slots_are_checked():
    f = cl.ChartForm.func(zp(0) * zbp(2) + cp(2))
    g = cl.ChartForm.monomial(MC, (), (2,), zbp(0))
    s = cl.ChartSection(MC, 2, 0, {2: f}, {(1, 0): f, (0, 1): -f}, {0: f})
    assert (dict(s.kappa), dict(s.gamma), dict(s.w)) == (
        {2: f}, {(1, 0): f, (0, 1): -f}, {0: f})
    assert list(s.labelled()) == ["e1:dz^3", "e2:E(1,2)", "e2:E(2,1)",
                                  "e3:d/dz^1"]
    assert s - s == cl.ChartSection(MC, 2, 0) and not (s - s)
    assert s + s == cl.ChartSection(MC, 2, 0, {2: f + f},
                                    {(1, 0): f + f, (0, 1): -f - f},
                                    {0: f + f})
    with pytest.raises(TypeError):
        s.kappa[0] = f
    with pytest.raises(cl.FormError):
        cl.ChartSection(MC, 2, 0, {0: g})
    # slots outside the chart or the gauge matrix are refused
    for kappa, gamma, w in [({7: f}, {(5, -1): f}, {}), ({3: f}, {}, {}),
                            ({-1: f}, {}, {}), ({}, {(0, 2): f}, {}),
                            ({}, {(2, 0): f}, {}), ({}, {(-1, 0): f}, {}),
                            ({}, {}, {3: f}), ({}, {}, {-1: f})]:
        with pytest.raises(cl.FormError):
            cl.ChartSection(MC, 2, 0, kappa, gamma, w)


def test_residual_matches_the_reference_at_higher_exponents(iwasawa):
    # the exponent tables carry factors y_j + eps_j and x_d + delta_d whose
    # offsets only show on monomials of higher degree: compare the residual
    # on every vector-slot section of total degree 3 and 4, where the R,
    # Gamma and tau couplings all act
    t = cl.build_trivialization(iwasawa)
    _, w0, _ = cl._offsets(MC, 2)
    sections = [s for s in cl.monomial_sections(t, 4)
                if all(k >= w0 and sum(z) + sum(zb) >= 3
                       for (k, _, z, zb), _ in s.terms)]
    assert len(sections) == 3 * (56 + 126)
    for bad in (_perturbed(t), _bent(t)):
        failures = 0
        for s in sections:
            res = cl.trivialization_residual(bad, s)
            assert res == _ref_residual(bad, s)
            failures += bool(res)
        assert failures > 0


def _reference_scan(t, degree):
    """(total degree, slot label, monomial, residual) of every monomial
    section up to ``degree``, in the report's order (monomial first, then
    fibre value), with the residual of the ChartForm-level reference."""
    labels = [label for label, _ in qc.fibre_basis(MC, t.cd.rank, "dz^",
                                                   "d/dz^")]
    out = []
    for i, s in enumerate(cl.monomial_sections(t, degree)):
        (_, _, z, zb), _ = next(iter(s.terms))
        mono = cl.Poly.build(MC, {(z, zb): GR_ONE})
        out.append((sum(z + zb), labels[i % len(labels)], str(mono),
                    _ref_residual(t, s)))
    return out


def _report_of(scan, degree):
    rows = [row for row in scan if row[0] <= degree]
    bad = [row for row in rows if row[3]]
    out = {"sections_checked": len(rows), "failures": len(bad),
           "passed": not bad}
    if bad:
        _, label, mono, res = bad[0]
        out["first_failure"] = {"slot": label, "monomial": mono,
                                "residual": res.labelled()}
    return out


def test_report_matches_a_reference_scan_of_every_section(iwasawa):
    # the report evaluates only the sections whose value touches a slot
    # with a nonempty residual table; a scan of every section through the
    # reference must give the same counts and witness.  The failing pairs
    # have nonempty tables on vector slots (alpha' in {0, 1, 1/7}, tau and
    # Gamma bent) and on the gauge slot E(2,2), which only the second slot
    # of D(1) touches
    t = cl.build_trivialization(iwasawa)
    pairs = [t, _perturbed(t), _bent(t), _zbar_in_A(t, only_A22=True)] + [
        cl.build_trivialization(iwasawa, GaussRat.of(a))
        for a in ("0", "1", "1/7")]
    for i, pair in enumerate(pairs):
        scan = _reference_scan(pair, 2)
        assert any(row[3] for row in scan) == (i > 0)
        for degree in (0, 1, 2):
            assert (cl.operator_identity_report(pair, degree)
                    == _report_of(scan, degree))


def test_residual_tables_of_every_leg_set(iwasawa):
    # the residual's table of each value slot k and dzbar legs L with
    # q = |L| = 0..3: all 80 are empty on the valid pair; where the anomaly
    # does not balance, 2, 6 and 4 are nonempty at q = 0, 1 and 2, and each
    # nonempty table shows on a section of its (k, L) of degree <= 1, where
    # the reference agrees with the flat residual
    def tables(t):
        return {(k, L): cl._table(t, cl._residual, k, L)
                for q in range(MC + 1)
                for L in itertools.combinations(range(1, MC + 1), q)
                for k in range(cl._offsets(MC, t.cd.rank)[2])}

    valid = tables(cl.build_trivialization(iwasawa))
    assert len(valid) == 80 and not any(valid.values())
    exps = [(0,) * 2 * MC] + [tuple(int(i == j) for j in range(2 * MC))
                              for i in range(2 * MC)]
    for a in ("0", "1", "1/7"):
        t = cl.build_trivialization(iwasawa, GaussRat.of(a))
        live = [key for key, table in tables(t).items() if table]
        assert collections.Counter(len(L) for _, L in live) == {
            0: 2, 1: 6, 2: 4}
        for k, L in live:
            shown = False
            for e in exps:
                s = cl.ChartSection.build(MC, t.cd.rank, len(L),
                                          {(k, L, e[:MC], e[MC:]): GR_ONE})
                res = _ref_residual(t, s)
                assert res == cl.trivialization_residual(t, s)
                shown |= bool(res)
            assert shown, (a, k, L)


def test_a_negative_exponent_with_a_nonzero_value_is_refused(iwasawa):
    t = cl.build_trivialization(iwasawa)
    s = cl.monomial_sections(t, 0)[0]
    ((k, legs, z, zb), _), = s.terms
    assert cl.apply_phi(t, s) == s
    # a table entry that lowers z_1 with a constant coefficient, as a lost
    # derivative factor would give, must not be dropped at z_1 = 0
    t.op_tables[(cl._phi, MC, k, legs)] = ((k, legs, (-1, 0, 0), zb, cp(1)),)
    with pytest.raises(cl.FormError, match="negative exponent"):
        cl.apply_phi(t, s)


@pytest.mark.parametrize("n, rank", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1),
                                     (4, 1)])
def test_trivialize_on_flat_charts_of_every_size(tmp_path, capsys, n, rank):
    # the three potential choices exist on a line and at rank 1, where no
    # trace-free A shift does: each chart's report passes on every section
    # of degree <= 2, and its transitions compare three distinct pairs
    text = json.dumps({
        "name": "flat", "n": n, "coframe": [f"a{k + 1}" for k in range(n)],
        "d": {}, "metric": [["1" if i == j else "0" for j in range(n)]
                            for i in range(n)],
        "omega_coeff": "1", "bundle": {"rank": rank, "F": {}},
        "chart": {"coords": n, "coframe_pullback": {
            f"a{k + 1}": f"dz{k + 1}" for k in range(n)}}})
    path = tmp_path / "flat.json"
    path.write_text(text)
    code = cli.main(["trivialize", str(path), "--degree", "2"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["potentials"] == {"gauge_potential": True,
                                 "torsion_potential": True}
    assert rep["chern_simons_transgression"] is True
    monomials = (2 * n + 1) * (2 * n + 2) // 2
    assert rep["operator_identity"] == {
        "sections_checked": monomials * (2 * n + rank * rank - 1),
        "failures": 0, "passed": True}
    assert rep["transitions"] == {"pairs": 3, "holomorphic": True,
                                  "cocycle": True}
    m = parse_model_text(text)
    pairs = {(t.A, t.tau) for t in (cl.build_trivialization(m, None, shift)
                                    for shift in (0, 1, 2))}
    assert len(pairs) == 3
