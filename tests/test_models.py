"""Built-in models and the JSON model description format."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmod import linalg, models
from hetmod.exterior import EndForm, InvariantForm, MixedForm
from hetmod.geometry import ModelError, metric_inverse
from hetmod.models import (
    BUILTIN_NAMES,
    builtin_model,
    model_to_json,
    parse_model_text,
    print_model,
)
from hetmod.scalars import GR_ONE, GR_ZERO, GaussRat, Scalar


def test_builtin_names_resolve():
    for name in BUILTIN_NAMES:
        m = builtin_model(name)
        assert m.name == name
        assert m.n == 3
    with pytest.raises(ModelError):
        builtin_model("nope")


def test_builtins_are_validated_on_load(monkeypatch):
    # a built-in goes through validate_model as a model file does
    monkeypatch.setattr(models, "validate_model",
                        lambda m: [f"planted problem in {m.name}"])
    for name in BUILTIN_NAMES:
        with pytest.raises(ModelError, match=f"planted problem in {name}"):
            builtin_model(name)


def test_builtin_loads_share_no_state():
    m = builtin_model("iwasawa")
    printed = print_model(m)
    assert metric_inverse(m)[0][0] == GaussRat.of(2)
    m.chart["coords"] = 7
    m.chart["coframe_pullback"]["a3"] = "dz3"
    m._cache["hinv"] = [[GaussRat.of(9)] * 3] * 3
    m.metric[0][0] = GaussRat.of(5)
    m.d_coframe.clear()
    m2 = builtin_model("iwasawa")
    assert m2.chart is not m.chart and m2._cache is not m._cache
    assert print_model(m2) == printed
    assert metric_inverse(m2)[0][0] == GaussRat.of(2)


def test_iwasawa_shape(iwasawa):
    assert iwasawa.rank == 2
    assert str(iwasawa.alpha_prime) == "-4"
    assert iwasawa.chart is not None
    assert iwasawa.chart["coords"] == 3


def test_calabi_eckmann_shape(calabi_eckmann):
    assert calabi_eckmann.rank == 3
    assert calabi_eckmann.alpha_prime is None
    assert not calabi_eckmann.curvature_F
    assert calabi_eckmann.chart is None


def test_json_round_trip(builtins, random_flat_models,
                         dense_metric_builtins, kt_models):
    # beyond the built-ins: dense non-real metrics, nonzero off-diagonal F,
    # n = 2 and rank 1
    for m in (builtins + random_flat_models + dense_metric_builtins
              + kt_models):
        text = print_model(m)
        m2 = parse_model_text(text)
        assert m2 == m, m.name
        # and the serialization itself is a fixed point
        assert print_model(m2) == text, m.name


@given(st.randoms(use_true_random=False), st.integers(0, 99),
       st.integers(1, 4),
       st.fractions(min_value=Fraction(1, 60), max_value=60,
                    max_denominator=60))
@settings(max_examples=50, deadline=None)
def test_json_round_trip_property(rng, idx, n, scale):
    # test_json_round_trip's two assertions on generated flat models with
    # a dense non-real metric, here times a positive rational, and F, so
    # that the constants the printer writes, p/q + r/s i among them, are
    # read back by the model file's reader
    from test_cohomology import _random_flat_model
    m = _random_flat_model(rng, idx, n)
    c = GaussRat.of(scale)
    m = m.replace(metric=[[x * c for x in row] for row in m.metric])
    text = print_model(m)
    m2 = parse_model_text(text)
    assert m2 == m
    assert print_model(m2) == text


def _reversed_terms(f):
    return InvariantForm.build(f.n, f.p, f.q, dict(reversed(list(f.terms))))


def test_printed_model_ignores_term_insertion_order(builtins):
    reordered = parts_reordered = 0
    for m in builtins:
        # the parts, and the terms of each part, in reverse order
        d = [MixedForm.build(mf.n, mf.degree, {
            k: _reversed_terms(f) for k, f in reversed(list(mf.parts))})
             for mf in m.d_coframe]
        reordered += sum(list(_reversed_terms(f).terms) != list(f.terms)
                         for mf in m.d_coframe for _, f in mf.parts)
        parts_reordered += sum(list(x.parts) != list(mf.parts)
                               for x, mf in zip(d, m.d_coframe))
        F = m.curvature_F
        grid = [[_reversed_terms(F.entry(i, j)) for j in range(F.r)]
                for i in range(F.r)]
        m2 = m.replace(
            d_coframe=d,
            curvature_F=EndForm.build(F.n, F.r, F.p, F.q, grid))
        assert m2.d_coframe == m.d_coframe
        assert print_model(m2) == print_model(m)
    assert reordered and parts_reordered


def test_replaced_model_has_its_own_cache():
    m = builtin_model("iwasawa")
    assert metric_inverse(m)[0][0] == GaussRat.of(2)     # metric 1/2 I
    two = [[GaussRat.of(2) if i == j else GR_ZERO for j in range(m.n)]
           for i in range(m.n)]
    m2 = m.replace(metric=two)
    assert metric_inverse(m2)[0][0] == GaussRat.of("1/2")
    assert metric_inverse(m)[0][0] == GaussRat.of(2)
    with pytest.raises(ValueError):
        m.replace(_cache={})


def test_parse_rejects_missing_keys(iwasawa):
    data = model_to_json(iwasawa)
    del data["metric"]
    with pytest.raises(ModelError):
        parse_model_text(json.dumps(data))


def test_parse_rejects_bad_json():
    with pytest.raises(ModelError):
        parse_model_text("{not json")
    with pytest.raises(ModelError):
        parse_model_text("[1, 2]")


def test_parse_rejects_unknown_leg(iwasawa):
    data = model_to_json(iwasawa)
    data["d"]["a3"][0]["wedge"] = ["a1", "zz"]
    with pytest.raises(ModelError):
        parse_model_text(json.dumps(data))


def _torus_with(wedge, coeff, key, rows):
    """The torus's model file with one d term on a3 and one F key."""
    data = model_to_json(builtin_model("torus"))
    data["d"] = {"a3": [{"coeff": coeff, "wedge": wedge}]}
    data["bundle"]["F"] = {key: rows}
    return parse_model_text(json.dumps(data))


def test_wedge_order_carries_its_sign():
    # ab1 ^ a2 = -a2 ^ ab1: a leg list or an F key that puts an
    # antiholomorphic leg first reads with the sign of reordering it
    M = [["1", "0"], ["0", "-1"]]
    minus_M = [["-1", "0"], ["0", "1"]]
    m1 = _torus_with(["ab1", "a2"], "1", "ab2^a1", M)
    m2 = _torus_with(["a2", "ab1"], "-1", "a1^ab2", minus_M)
    assert m1.d_coframe == m2.d_coframe
    assert m1.curvature_F == m2.curvature_F
    assert print_model(m1) == print_model(m2)
    assert m1.d_coframe[2] == MixedForm.of(
        InvariantForm.monomial(3, (2,), (1,), Scalar.of(-1)))
    assert m1.curvature_F.entry(0, 0) == InvariantForm.monomial(
        3, (1,), (2,), Scalar.of(-1))


def test_parse_rejects_variable_coefficient(iwasawa):
    data = model_to_json(iwasawa)
    data["metric"][0][0] = "a"
    with pytest.raises(ModelError):
        parse_model_text(json.dumps(data))


def test_calabi_eckmann_structure_equations(calabi_eckmann):
    # Calabi & Eckmann (Ann. of Math. 58, 1953) on su(2) + su(2):
    # de1 = e2^e3, de2 = e3^e1, de3 = e1^e2 and de4 = e5^e6, de5 = e6^e4,
    # de6 = e4^e5, with a1 = e1 + i e4, a2 = e2 + i e3, a3 = e5 + i e6, so
    # e1 = (a1 + ab1)/2, e4 = (a1 - ab1)/(2i) and likewise for the others.
    # By hand:
    #   e2^e3 = (a2 + ab2)/2 ^ (a2 - ab2)/(2i) = (i/2) a2^ab2, and
    #   e5^e6 = (i/2) a3^ab3, so
    #   d a1 = e2^e3 + i e5^e6 = (i/2) a2^ab2 - 1/2 a3^ab3;
    #   d a2 = e3^e1 + i e1^e2 = i e1^a2 = (i/2) (a1 + ab1)^a2
    #        = (i/2) a1^a2 - (i/2) a2^ab1;
    #   d a3 = e6^e4 + i e4^e5 = i e4^a3 = 1/2 (a1 - ab1)^a3
    #        = 1/2 a1^a3 + 1/2 a3^ab1.
    n = 3
    half, half_i = Scalar.of("1/2"), Scalar.of(0, "1/2")

    def mono(holo, anti, c):
        return MixedForm.of(InvariantForm.monomial(n, holo, anti, c))

    want = [
        mono([2], [2], half_i) + mono([3], [3], -half),
        mono([1, 2], [], half_i) + mono([2], [1], -half_i),
        mono([1, 3], [], half) + mono([3], [1], half),
    ]
    assert calabi_eckmann.d_coframe == want


# d(e_i) for two copies of su(2): de1 = e2^e3 (cyclic), de4 = e5^e6 (cyclic)
_SU2X2_D = {1: (2, 3), 2: (3, 1), 3: (1, 2), 4: (5, 6), 5: (6, 4), 6: (4, 5)}

# the complex coframe a1 = e1 + i e4, a2 = e2 + i e3, a3 = e5 + i e6
_CE_COFRAME = (
    ((1, GR_ONE), (4, GaussRat.of(0, 1))),
    ((2, GR_ONE), (3, GaussRat.of(0, 1))),
    ((5, GR_ONE), (6, GaussRat.of(0, 1))),
)


def _su2_pair_d_coframe(n=3):
    """d a^c = sum of c * e_j ^ e_k over the real legs c e_i of a^c, with
    de_i = e_j ^ e_k and each e_i a 1-form on the complex coframe, read off
    the inverse of (a^1..a^n, ab^1..ab^n) = M e."""
    M = linalg.zeros(2 * n, 2 * n)
    for a, combo in enumerate(_CE_COFRAME):
        for i, c in combo:
            M[a][i - 1] = c
            M[n + a][i - 1] = c.conjugate()
    e = [MixedForm.build(n, 1, {
        (1, 0): InvariantForm(n, 1, 0, {((t + 1,), ()): Scalar.const(row[t])
                                        for t in range(n)}),
        (0, 1): InvariantForm(n, 0, 1, {((), (t + 1,)):
                                        Scalar.const(row[n + t])
                                        for t in range(n)})})
        for row in linalg.inverse(M)]
    out = []
    for combo in _CE_COFRAME:
        acc = MixedForm.zero(n, 2)
        for i, c in combo:
            j, k = _SU2X2_D[i]
            acc = acc + e[j - 1].wedge(e[k - 1]).scale(Scalar.const(c))
        out.append(acc)
    return out


def test_calabi_eckmann_data_is_the_su2_pair_derivation():
    # the six d terms of the built-in's text, against the real su(2)+su(2)
    # structure constants pushed through the complex coframe
    assert builtin_model("calabi-eckmann").d_coframe == _su2_pair_d_coframe()
