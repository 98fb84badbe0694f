"""Connections, torsion, curvature and the coupled-system checker.

Reference values for the nilmanifold model (torsion, gauge trace, anomaly
balance) are hard-coded below and act as oracles for the derived machinery.
"""

import itertools
import json
import re

import pytest

from hetmod import cli
from hetmod import cohomology as coh
from hetmod import geometry as geo
from hetmod.exterior import EndForm, InvariantForm, MixedForm
from hetmod.models import builtin_model, parse_model_text
from hetmod.scalars import GR_I, GR_ONE, GR_ZERO, GaussRat, S_A, S_I, Scalar

from helpers import exterior_derivative_by_wedge
from oracles import chern_symmetry_residual


def mono(holo, anti, coeff=None):
    if coeff is None:
        return InvariantForm.monomial(3, holo, anti)
    return InvariantForm.monomial(3, holo, anti, coeff)


def test_d_squared_zero_on_coframe(builtins):
    for m in builtins:
        for i, name in enumerate(m.coframe_names):
            alpha = mono([i + 1], [])
            d1 = geo.exterior_derivative(alpha, m)
            acc = MixedForm.zero(m.n, 3)
            for _, part in d1.parts:
                acc = acc + geo.exterior_derivative(part, m)
            assert not acc, f"d^2 {name} != 0 on {m.name}"


def _brackets_by_evaluation(m):
    """[e_u, e_w] from alpha^c([X,Y]) = -d(alpha^c)(X,Y), evaluating each
    d(alpha^c) on pairs of frame vectors."""
    n = m.n
    basis = [[Scalar.of(1) if i == j else Scalar() for i in range(2 * n)]
             for j in range(2 * n)]
    d_all = list(m.d_coframe) + [d.conjugate() for d in m.d_coframe]
    return [[[-d.evaluate([basis[u], basis[w]]).coefficient(0)
              for d in d_all] for w in range(2 * n)] for u in range(2 * n)]


def _non_closed_model():
    """A coframe whose d has (2,0), (1,1) and (0,2) parts with complex
    coefficients and d^2 != 0."""
    n = 3
    vals = [GaussRat.of(a, b)
            for a, b in ((1, 0), (-2, 1), (0, 3), ("1/2", -1))]
    d_coframe = []
    for c in range(n):
        parts = {}
        for (p, q), legs in (((2, 0), ([1, 2], [])), ((1, 1), ([c + 1], [3])),
                             ((0, 2), ([], [1, 3]))):
            parts[(p, q)] = InvariantForm.monomial(
                n, legs[0], legs[1], Scalar.const(vals[(c + p) % 4]))
        d_coframe.append(MixedForm.build(n, 2, parts))
    odd = geo.HomogeneousModel(
        name="non-closed", n=n, coframe_names=["a1", "a2", "a3"],
        d_coframe=d_coframe,
        metric=[[GR_ONE if i == j else GR_ZERO for j in range(n)]
                for i in range(n)],
        omega_coeff=GR_ONE, rank=1, curvature_F=EndForm.zero(n, 1, 1, 1),
        alpha_prime=None)
    dd = MixedForm.zero(n, 3)
    for _, part in d_coframe[0].parts:
        dd = dd + geo.exterior_derivative(part, odd)
    assert dd, "the test model should not satisfy d^2 = 0"
    return odd


def test_bracket_table_matches_evaluation(builtins):
    # the non-closed coframe: the table reads terms, not structure
    for m in builtins + [_non_closed_model()]:
        assert geo.bracket_table(m) == _brackets_by_evaluation(m), m.name


def test_exterior_derivative_matches_the_wedge_route(
        builtins, dense_metric_builtins, random_flat_models):
    # d of every monomial of every bidegree, with a coefficient that is
    # neither real nor constant, against one wedge per leg
    coeff = S_A + Scalar.of("2/3", -1)
    for m in (builtins + dense_metric_builtins + random_flat_models
              + [_non_closed_model()]):
        legs = [c for k in range(m.n + 1)
                for c in itertools.combinations(range(1, m.n + 1), k)]
        for holo, anti in itertools.product(legs, repeat=2):
            x = InvariantForm.monomial(m.n, holo, anti, coeff)
            want = exterior_derivative_by_wedge(x, m)
            assert geo.exterior_derivative(x, m) == want, (m.name, holo, anti)


def test_iwasawa_torsion_value(iwasawa):
    # T = i * (2,1)-part of d omega = -1/2 a^1^a^2^ab^3
    expected = mono([1, 2], [3], Scalar.of("-1/2"))
    assert geo.torsion(iwasawa) == expected


def test_iwasawa_chern_is_flat(iwasawa):
    R = geo.chern_curvature(iwasawa)
    assert not R
    gamma = geo.chern_connection(iwasawa).gamma
    assert all(not x for g in gamma for row in g for x in row)


def test_torus_everything_flat(torus):
    assert not geo.torsion(torus)
    assert not geo.chern_curvature(torus)
    b = geo.bismut(torus)
    assert all(not x for g in b.gamma for row in g for x in row)


def test_levi_civita_helper_tells_the_connections_apart(iwasawa):
    # one helper is the second route of both connections; it differs only
    # in the 3-form and its factors.  iwasawa has nonzero torsion, so fed
    # the data of one connection it must not produce the other.
    m = iwasawa
    ch, bi = geo.chern_connection(m), geo.bismut(m)
    via_chern = geo._via_levi_civita(
        m, "chern", geo.exterior_derivative(geo.omega_form(m), m),
        (GR_I, -GR_I))
    via_bismut = geo._via_levi_civita(m, "bismut", geo._dc_omega(m),
                                      (GR_ONE, GR_ONE))
    assert (via_chern.gamma, via_chern.mu) == (ch.gamma, ch.mu)
    assert (via_bismut.gamma, via_bismut.mu) == (bi.gamma, bi.mu)
    assert via_chern.gamma != bi.gamma
    assert via_bismut.gamma != ch.gamma


def _tamper_levi_civita(monkeypatch, kind, edit):
    """Make the ``kind`` route of ``_via_levi_civita`` read the lowered
    Levi-Civita table with ``edit(table, n)`` applied; the other route,
    and the cached table itself, stay as they are."""
    real_table, real_route = geo.levi_civita, geo._via_levi_civita

    def route(m, k, *args):
        if k != kind:
            return real_route(m, k, *args)
        table = dict(real_table(m))
        edit(table, m.n)
        monkeypatch.setattr(geo, "levi_civita", lambda _: table)
        try:
            return real_route(m, k, *args)
        finally:
            monkeypatch.setattr(geo, "levi_civita", real_table)
    monkeypatch.setattr(geo, "_via_levi_civita", route)


def _read_keys(table, n, block):
    """The (X, V_b, Vbar_c) keys of the route, X = V_a in block 0 and
    X = Vbar_a in block 1, that are nonzero in ``table`` and zero."""
    keys = [(u, b, n + c) for u in range(block * n, (block + 1) * n)
            for b in range(n) for c in range(n)]
    return ([k for k in keys if k in table],
            [k for k in keys if k not in table])


def _change_read_entry(block):
    def edit(table, n):
        key = _read_keys(table, n, block)[0][0]
        table[key] = table[key] + GR_ONE
    return edit


def _fill_read_zero(block):
    def edit(table, n):
        table[_read_keys(table, n, block)[1][0]] = GaussRat.of(2, -1)
    return edit


# (kind, route block, the connection, a command that builds it, and the
# message): the Bismut route is compared on its (1,0) block only, and
# calabi-eckmann's operator needs the Bismut connection, iwasawa's not
CROSS_CHECKS = [
    ("chern", 0, geo.chern_connection, ["check", "iwasawa"],
     "Chern connection routes disagree (convention bug)"),
    ("chern", 1, geo.chern_connection, ["check", "iwasawa"],
     "Chern connection routes disagree (convention bug)"),
    ("bismut", 0, geo.bismut, ["serre", "calabi-eckmann"],
     "Bismut connection routes disagree"),
]


@pytest.mark.parametrize("make_edit", [_change_read_entry, _fill_read_zero])
@pytest.mark.parametrize("kind,block,connection,argv,message", CROSS_CHECKS)
def test_levi_civita_cross_check_bites(monkeypatch, capsys, make_edit, kind,
                                       block, connection, argv, message):
    # a changed nonzero entry and a zero entry made nonzero, both at an
    # index the route reads, make the routes disagree
    m = builtin_model(argv[1])
    nonzero, zero = _read_keys(geo.levi_civita(m), m.n, block)
    assert nonzero and zero
    _tamper_levi_civita(monkeypatch, kind, make_edit(block))
    with pytest.raises(geo.ModelError, match=re.escape(message)):
        connection(builtin_model(argv[1]))
    assert cli.main(argv) == 2
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


def _metric_pairing(m):
    """g(v, e_x) on complexified frame components, built from the Hermitian
    matrix: g(V_a, Vbar_b) = h[a][b] and g(Vbar_a, V_b) = h[b][a]."""
    n = m.n

    def g(v, x):
        if x < n:
            return sum((v[n + a] * m.metric[x][a] for a in range(n)),
                       start=GR_ZERO)
        return sum((v[a] * m.metric[a][x - n] for a in range(n)),
                   start=GR_ZERO)
    return g


def test_lowered_levi_civita_is_metric_and_torsion_free(
        builtins, dense_metric_builtins, random_flat_models):
    # the two identities that determine the Levi-Civita connection, on the
    # invariant frame where g is constant:
    #   metric:        g(nabla_u e_w, e_x) + g(e_w, nabla_u e_x) = 0
    #   torsion-free:  nabla_u e_w - nabla_w e_u = [e_u, e_w]
    # with the brackets evaluated from d(alpha^c), not read off the table
    seen_bracket = False
    for m in builtins + dense_metric_builtins + random_flat_models:
        lc = geo.levi_civita(m)
        assert all(lc.values()), m.name
        L = [[[lc.get((u, w, x), GR_ZERO) for x in range(2 * m.n)]
              for w in range(2 * m.n)] for u in range(2 * m.n)]
        br = _brackets_by_evaluation(m)
        g = _metric_pairing(m)
        size = 2 * m.n
        for u in range(size):
            for w in range(size):
                for x in range(size):
                    label = (m.name, u, w, x)
                    assert not L[u][w][x] + L[u][x][w], label
                    lowered = g(br[u][w], x)
                    assert L[u][w][x] - L[w][u][x] == lowered, label
                    seen_bracket = seen_bracket or bool(lowered)
    assert seen_bracket


def test_triple_table_matches_form_evaluation(builtins,
                                              dense_metric_builtins):
    # the 3-forms of both Levi-Civita routes, read off their terms, against
    # the determinant evaluation of the form on every basis triple
    for m in builtins + dense_metric_builtins:
        size = 2 * m.n
        basis = [[Scalar.of(1) if i == j else Scalar() for i in range(size)]
                 for j in range(size)]
        forms = (geo.exterior_derivative(geo.omega_form(m), m),
                 geo._dc_omega(m))
        for form in forms:
            values = geo._frame_values(form, "test 3-form")
            for t in itertools.product(range(size), repeat=3):
                want = form.evaluate([basis[i] for i in t]).coefficient(0)
                assert values.get(t, GR_ZERO) == want, (m.name, t)
    assert any(geo._frame_values(geo._dc_omega(m), "") for m in builtins)


def test_bismut_differs_from_chern_by_raised_torsion(iwasawa):
    ch = geo.chern_connection(iwasawa).gamma
    bi = geo.bismut(iwasawa).gamma
    Tr = geo.torsion_raised(iwasawa)
    n = iwasawa.n
    for l in range(n):
        for j in range(n):
            for k in range(n):
                assert bi[l][j][k] - ch[l][j][k] == Tr[j][l][k]


def test_anomaly_balance_iwasawa(iwasawa):
    # the anomaly residual is linear in a and vanishes exactly at the
    # model's own coupling
    res = geo.anomaly_residual(iwasawa, None)
    assert res
    assert not geo.anomaly_residual(iwasawa, GaussRat.of(-4))
    assert geo.anomaly_residual(iwasawa, GaussRat.of(-3))


def test_system_checker_passes_builtins(iwasawa, torus):
    for m in (iwasawa, torus):
        conds = geo.check_heterotic_system(m)
        assert list(conds) == ["F1", "F2", "D1", "D2"]
        assert all(c["passed"] for c in conds.values()), [
            k for k, c in conds.items() if not c["passed"]]
        assert coh.system_report(m)["passed"] is True
    assert coh.system_report(iwasawa)["degenerate"] is False


def test_system_checker_alpha_override(iwasawa):
    conds = geo.check_heterotic_system(iwasawa, GaussRat.of(1))
    assert not conds["F2"]["passed"]
    assert conds["F1"]["passed"]


def test_ce_arbitrary_alpha_label(calabi_eckmann):
    rep = coh.system_report(calabi_eckmann)
    assert rep["alpha_prime"] == "arbitrary"
    conds = rep["conditions"]
    # F = 0 and tr(R^R) = 0, so the anomaly balances for every coupling
    assert conds["F2"]["passed"]
    # the complex structure is non-balanced: both dilatino-type conditions
    # fail by an exact torsion multiple
    assert not conds["F1"]["passed"]
    assert not conds["D2"]["passed"]


def test_chern_symmetry_residual_zero(builtins):
    for m in builtins:
        rep = chern_symmetry_residual(m)
        assert rep["zero"], (m.name, rep["entries"])


def test_curvature_array_sign_convention(calabi_eckmann):
    R = geo.chern_curvature(calabi_eckmann)
    arr = geo.curvature_array(calabi_eckmann)
    n = calabi_eckmann.n
    for k in range(n):
        for j in range(n):
            for l in range(n):
                for mm in range(n):
                    c = R.entry(l, mm).coeff([j + 1], [k + 1])
                    assert c == Scalar.const(-arr[k][j][l][mm])


def test_validate_model_catches_bad_metric(iwasawa):
    bad = geo.HomogeneousModel(
        name="bad",
        n=iwasawa.n,
        coframe_names=list(iwasawa.coframe_names),
        d_coframe=list(iwasawa.d_coframe),
        metric=[[GR_ZERO] * 3 for _ in range(3)],
        omega_coeff=iwasawa.omega_coeff,
        rank=iwasawa.rank,
        curvature_F=iwasawa.curvature_F,
        alpha_prime=iwasawa.alpha_prime,
    )
    assert geo.validate_model(bad)


def test_validate_model_accepts_builtins(builtins):
    for m in builtins:
        assert geo.validate_model(m) == []


def test_dolbeault_split_types(iwasawa):
    w = geo.omega_form(iwasawa)
    hol, anti = geo.dolbeault_split(w, iwasawa)
    assert (hol.p, hol.q) == (2, 1)
    assert (anti.p, anti.q) == (1, 2)
    assert anti == hol.conjugate().scale(-Scalar.of(1)) or anti == hol.conjugate()


def _flat_2_torus(F):
    return parse_model_text(json.dumps({
        "name": "flat-2-torus", "n": 2, "coframe": ["a1", "a2"], "d": {},
        "metric": [["1/2", "0"], ["0", "1/2"]], "omega_coeff": "1",
        "bundle": {"rank": 2, "F": F}, "alpha_prime": "1"}))


def test_d1_is_f_wedge_omega_to_the_n_minus_1():
    # n = 2: D1 is F ^ omega.  With F = diag(1, -1) a1^ab1 and
    # omega = i/2 (a1^ab1 + a2^ab2), F_11 ^ omega = i/2 a1^ab1^a2^ab2
    # = -i/2 a1^a2^ab1^ab2: not Hermitian-Yang-Mills.  (F ^ omega^2, the
    # n = 3 form, is a 6-form and vanishes identically here.)
    rep = coh.system_report(
        _flat_2_torus({"a1^ab1": [["1", "0"], ["0", "-1"]]}))
    conds = rep["conditions"]
    assert conds["D1"]["passed"] is False
    assert conds["D1"]["residual"] == ("[1,1]: (-1/2 i) a^1^a^2^ab^1^ab^2; "
                                       "[2,2]: (1/2 i) a^1^a^2^ab^1^ab^2")
    assert all(conds[k]["passed"] for k in ("F1", "F2", "D2"))
    assert rep["passed"] is False
    # diag(1, -1) (a1^ab1 - a2^ab2) is primitive, so it passes D1 (its
    # tr F^F is nonzero, so F2 fails at this coupling)
    conds = geo.check_heterotic_system(_flat_2_torus({
        "a1^ab1": [["1", "0"], ["0", "-1"]],
        "a2^ab2": [["-1", "0"], ["0", "1"]]}))
    assert conds["D1"] == {"passed": True, "residual": "0"}
