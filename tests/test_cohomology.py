"""Invariant cohomology of the deformation complex, symbol injectivity,
and the report layer."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetmod import chartlocal
from hetmod import cohomology as coh
from hetmod import linalg
from hetmod import qcomplex as qc
from hetmod.exterior import EndForm, InvariantForm, MixedForm
from hetmod.geometry import (HomogeneousModel, ModelError, frame_dbar_matrix,
                             resolve_alpha)
from hetmod.models import builtin_model, model_to_json, parse_model_text
from hetmod.scalars import GR_ONE, GR_ZERO, GaussRat, Scalar

import oracles as orc
from helpers import (dense, exterior_derivative_by_wedge, scale_gauge,
                     schur_complement, schur_mod_p)


def test_space_dimensions(iwasawa, calabi_eckmann):
    assert coh.q_space_dimension(iwasawa, 0) == 9
    assert [coh.q_space_dimension(iwasawa, p) for p in range(4)] == \
        [9, 27, 27, 9]
    assert coh.q_space_dimension(calabi_eckmann, 0) == 14


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_space_dimensions_by_formula(n, r):
    # Q = T* + End_0(E) + T has fibre dimension n + (r^2 - 1) + n, and the
    # invariant (0,p)-forms add a factor C(n, p); the basis sections have
    # the unit coordinate vectors, so they are a basis of that size
    m = HomogeneousModel(
        name=f"flat{n}r{r}", n=n,
        coframe_names=[f"a{k + 1}" for k in range(n)],
        d_coframe=[MixedForm.zero(n, 2) for _ in range(n)],
        metric=[[GR_ONE if i == j else GR_ZERO for j in range(n)]
                for i in range(n)],
        omega_coeff=GR_ONE, rank=r, curvature_F=EndForm.zero(n, r, 1, 1),
        alpha_prime=None)
    for p in range(n + 1):
        want = (2 * n + r * r - 1) * math.comb(n, p)
        assert coh.q_space_dimension(m, p) == want
        basis = orc.q_basis(m, p)
        assert len(basis.labels) == len(basis.sections) == want
        for i, s in enumerate(basis.sections):
            coords = orc.q_coordinates(s)
            assert coords[i] == Scalar.of(1)
            assert not any(coords[:i]) and not any(coords[i + 1:])


def test_iwasawa_dimensions(iwasawa):
    data = coh.cohomology_data(iwasawa)
    assert data["h"] == [6, 11, 11, 6]
    assert data["harmonic"] == [6, 11, 11, 6]
    assert coh._euler(data["h"]) == 0
    assert data["h"] == data["h"][::-1]


def test_torus_dimensions(torus):
    data = coh.cohomology_data(torus, GaussRat.of(1))
    assert data["h"] == [9, 27, 27, 9]
    assert data["harmonic"] == data["h"]


def test_calabi_eckmann_dimensions(calabi_eckmann):
    # the invariant subcomplex of this non-nilpotent group is concentrated
    # in low degree; see the acceptance notes for the degree-1 block
    data = coh.cohomology_data(calabi_eckmann, GaussRat.of(1))
    assert data["h"] == [8, 8, 0, 0]
    assert data["harmonic"] == data["h"]
    assert coh._euler(data["h"]) == 0


def test_iwasawa_diagonal_baseline(iwasawa):
    data = coh.cohomology_data(iwasawa, diagonal=True)
    assert data["h"] == [9, 18, 18, 9]
    assert data["harmonic"] == data["h"]


def test_refuses_without_nilpotency(iwasawa):
    bad = scale_gauge(iwasawa, GaussRat.of(2))
    with pytest.raises(ModelError, match="anomaly"):
        coh.cohomology_data(bad)
    # the diagonal truncation stays well defined
    assert coh.cohomology_data(bad, diagonal=True)["h"] == [9, 18, 18, 9]


def test_nilpotency_check_reads_every_product(iwasawa):
    # D_1 D_0 = 0 but D_2 D_1 != 0, in its second column only: the refusal
    # must come from the last product and name its degree; the D_p are
    # sparse rows {col: value}, as the count step specializes them
    one = GR_ONE
    chain = [[{0: one}, {}], [{1: one}], [{0: one}]]
    coh._require_nilpotent(iwasawa, chain[:2], GaussRat.of(1))
    with pytest.raises(ModelError, match="first seen on degree 1"):
        coh._require_nilpotent(iwasawa, chain, GaussRat.of(1))


def test_serre_report_shape(iwasawa):
    rep = coh.serre_report(iwasawa)
    assert rep["h"] == [6, 11, 11, 6]
    assert rep["symmetric"] is True
    assert rep["euler"] == 0
    assert [p for p, _, _ in rep["pairs"]] == [0, 1, 2, 3]


def _serre_or_refusal(fn, m, alpha0):
    try:
        return fn(m, alpha0)
    except ModelError as exc:
        return str(exc)


def test_serre_report_agrees_with_cohomology_data(builtins,
                                                  random_flat_models):
    # serre counts from the ranks of D_p alone; cohomology_data is the
    # full route, with the harmonic step on top of the same counts
    cases = [(m, None if a is None else GaussRat.of(a)) for m in builtins
             for a in (None, "0", "1", "-4", "1/7")]
    cases += [(m, GaussRat.of(a)) for m in random_flat_models
              for a in (1, 0)]
    cases.append((_random_flat_model(random.Random(4), 0, n=4), None))
    refused, asymmetric = [], []
    for m, a in cases:
        label = (m.name, str(a))
        rep = _serre_or_refusal(coh.serre_report, m, a)
        data = _serre_or_refusal(coh.cohomology_data, m, a)
        if isinstance(data, str):
            assert rep == data, label
            refused.append(label)
            continue
        h = data["h"]
        assert rep == {"h": h, "symmetric": h == h[::-1],
                       "euler": sum((-1) ** p * x for p, x in enumerate(h)),
                       "pairs": [[p, m.n - p, h[p] == h[m.n - p]]
                                 for p in range(m.n + 1)]}, label
        if not rep["symmetric"]:
            asymmetric.append((label, rep["h"]))
    assert ("iwasawa", "1") in refused
    assert len(refused) < len(cases) // 2, refused
    # h drops its symmetry at alpha' = 0 on both random flat models, and
    # calabi-eckmann's low-degree counts are never symmetric
    assert [x for x in asymmetric if x[0][0] != "calabi-eckmann"] == [
        ((m.name, "0"), [6, 21, 23, 8]) for m in random_flat_models]


def test_serre_builds_no_gram_adjoint(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("serre must not build a Gram adjoint")
    monkeypatch.setattr(qc, "gram_adjoint", refuse)
    m = builtin_model("iwasawa")
    assert coh.serre_report(m)["h"] == [6, 11, 11, 6]
    names = {k[0] if isinstance(k, tuple) else k for k in m._cache}
    assert not names & {"gram_rows", "value_grams", "leg_gram"}, names


def test_cohomology_data_ranks_each_matrix_once(monkeypatch):
    # the count step ranks D_0..D_{n-1}; the harmonic step ranks D_p over
    # the lowered adjoint of D_{p-1} for p = 1..n, and reads harm_0 = dim_0
    # - rank D_0 from the count step, so 2n ranks in all, each through the
    # sparse rank entry
    calls = []
    rank_rows = linalg.rank_rows

    def counted(rows):
        calls.append(len(rows))
        return rank_rows(rows)
    monkeypatch.setattr(linalg, "rank_rows", counted)
    for name in ("iwasawa", "torus"):
        calls.clear()
        m = builtin_model(name)
        data = coh.cohomology_data(m)
        assert len(calls) == 2 * m.n
        assert data["harmonic"] == data["h"]


def _harmonic_via_gram_adjoint(m, a0, diagonal):
    """The harmonic counts by the Gram-adjoint route: dim_p minus the rank
    of D_p stacked over the specialized Gram adjoint of D_{p-1}."""
    def op(p):
        full = qc.assemble_Dbar(m, p)
        return qc.decoupled(m, full) if diagonal else full

    out = []
    for p in range(m.n + 1):
        stack = op(p).rows(a0) if p < m.n else []
        if p:
            stack = stack + qc.gram_adjoint(m, op(p - 1)).rows(a0)
        out.append(coh.q_space_dimension(m, p) - linalg.rank_rows(stack))
    return out


def test_harmonic_counts_agree_with_the_gram_adjoint_route(
        builtins, random_flat_models):
    # cohomology_data ranks D_p over conj(D_{p-1}^T G_p), with no inverse
    # Gram; the stack over the Gram adjoint itself is the oracle
    cases = [(m, None if a is None else GaussRat.of(a)) for m in builtins
             for a in (None, "0", "1", "-4", "1/7")]
    cases += [(m, GaussRat.of(a)) for m in random_flat_models
              for a in (0, 1)]
    checked = 0
    for m, a in cases:
        for diagonal in (False, True):
            try:
                data = coh.cohomology_data(m, a, diagonal)
            except ModelError:
                assert not diagonal, (m.name, str(a))
                continue
            assert data["harmonic"] == _harmonic_via_gram_adjoint(
                m, resolve_alpha(m, a), diagonal), (m.name, str(a), diagonal)
            checked += 1
    assert checked > 3 * len(cases) // 2, checked


def test_lowered_adjoint_is_the_conjugate_source_gram_times_the_adjoint(
        builtins, random_flat_models, dense_metric_builtins):
    # conj(D_{p-1}^T G_p) = conj(G_{p-1}) D*_{p-1}, entry by entry, against
    # both adjoint routes; the counts alone cannot see a misplaced conj,
    # since any positive definite Gram gives the Hodge count
    for m in builtins + random_flat_models + dense_metric_builtins:
        for a0 in (coh.resolve_alpha(m, None), GaussRat.of("1/7")):
            for p in range(1, m.n + 1):
                D = qc.assemble_Dbar(m, p - 1)
                dim = coh.q_space_dimension(m, p)
                low = qc.gram_lowered(m, p, D.rows(a0))
                assert all(all(row.values()) for row in low)
                conj_gram = [[x.conjugate() for x in row]
                             for row in qc.gram(m, p - 1)]
                for adjoint in (qc.gram_adjoint(m, D),
                                orc.assemble_Dstar_formula(m, p)):
                    want = linalg.mat_mul(conj_gram,
                                          dense(adjoint.rows(a0), dim))
                    assert dense(low, dim) == want, (
                        m.name, str(a0), p)


def _dense_flat_model(n, r):
    """A closed coframe with F = 0 and the dense, non-real metric I + A^H A
    for a fixed A whose entries have denominators up to n + 2."""
    A = [[GaussRat.of(f"{(i + 2 * j) % 3 - 1}/{j + 2}",
                      f"{(i * j + 1) % 3 - 1}/{i + 3}") for j in range(n)]
         for i in range(n)]
    metric = [[sum((A[k][i].conjugate() * A[k][j] for k in range(n)),
                   start=GR_ONE if i == j else GR_ZERO) for j in range(n)]
              for i in range(n)]
    return HomogeneousModel(
        name=f"dense-flat{n}r{r}", n=n,
        coframe_names=[f"a{k + 1}" for k in range(n)],
        d_coframe=[MixedForm.zero(n, 2) for _ in range(n)],
        metric=metric, omega_coeff=GR_ONE, rank=r,
        curvature_F=EndForm.zero(n, r, 1, 1), alpha_prime=GaussRat.of(1))


@pytest.mark.parametrize("n, r", [(3, 2), (4, 1), (4, 2)])
def test_flat_counts_with_a_dense_metric(n, r):
    # with d = 0, F = 0 and a constant metric the connections, torsion and
    # curvature vanish, so Dbar is 0 on every degree: each of the
    # 2n + r^2 - 1 fibre directions carries the invariant (0,p)-forms, and
    # h^{0,p} = (2n + r^2 - 1) C(n, p) at every coupling.  The harmonic
    # count is a rank of its own, over the dense Gram factors
    m = _dense_flat_model(n, r)
    assert any(x.b for row in m.metric for x in row)
    assert max(x.d for row in m.metric for x in row) > 1
    want = [(2 * n + r * r - 1) * math.comb(n, p) for p in range(n + 1)]
    for a in (None, "0", "-1/7"):
        a0 = None if a is None else GaussRat.of(a)
        for diagonal in (False, True):
            data = coh.cohomology_data(m, a0, diagonal)
            assert data["h"] == data["harmonic"] == want, (a, diagonal)


def test_random_flat_counts_are_pinned(random_flat_models):
    # h and the harmonic count of the two random flat models, at a nonzero
    # coupling and at 0, where the F coupling drops out
    for m in random_flat_models:
        for a, want in ((1, [5, 17, 17, 5]), (0, [6, 21, 23, 8])):
            data = coh.cohomology_data(m, GaussRat.of(a))
            assert data["h"] == data["harmonic"] == want, (m.name, a)


def test_symbol_sample_count():
    assert sum(1 for _ in coh.symbol_samples(3)) == 7 ** 3 - 1


def test_symbol_samples_are_made_lazily(calabi_eckmann):
    # an iterator, so a limited scan never builds the 7^n - 1 samples
    samples = coh.symbol_samples(3)
    assert iter(samples) is samples
    head = list(itertools.islice(coh.symbol_samples(3), 30))
    assert next(samples) == head[0] == [GR_ZERO, GR_ZERO, GR_ONE]
    a0 = GaussRat.of(-4)
    # a limited scan decides the first samples in order, as the rank of
    # symbol_matrix decides them one by one
    full = coh.q_space_dimension(calabi_eckmann, 0) * calabi_eckmann.n
    drops = [xi for xi in head if linalg.rank(
        coh.symbol_matrix(calabi_eckmann, xi, a0)) < full]
    for limit in (1, 2, 30):
        first = next((xi for xi in head[:limit] if xi in drops), None)
        want = {"samples": limit, "injective": first is None}
        if first:
            want["first_failure"] = "(" + ", ".join(map(str, first)) + ")"
        assert coh.injectivity_scan(calabi_eckmann, a0, limit=limit) == want
    # "samples" counts the samples asked for, not the ones scanned before
    # the first failure
    assert coh.injectivity_scan(calabi_eckmann, a0) == {
        "samples": 342, "injective": False, "first_failure": "(0, 0, i)"}


def test_symbol_injective_at_null_covector(iwasawa):
    # xi with sum(xi_k^2) = 0 distinguishes the hermitian contraction from
    # the bilinear one; regression guard for the symbol rows
    xi = [GR_ZERO, GR_ONE, GaussRat.of(0, 1)]
    M = coh.symbol_matrix(iwasawa, xi, GaussRat.of(-4))
    assert linalg.rank(M) == coh.q_space_dimension(iwasawa, 0) * iwasawa.n


def test_symbol_scan_limited(builtins):
    for m in builtins:
        rep = coh.injectivity_scan(m, GaussRat.of(0), limit=40)
        assert rep["injective"], (m.name, rep)
        assert rep["samples"] == 40


def test_system_report_dict(iwasawa):
    rep = coh.system_report(iwasawa)
    assert list(rep) == ["model", "alpha_prime", "degenerate", "passed",
                         "conditions"]
    assert (rep["model"], rep["alpha_prime"], rep["degenerate"]) == (
        "iwasawa", "-4", False)
    assert rep["passed"] is True
    assert set(rep["conditions"]) == {"F1", "F2", "D1", "D2"}
    assert all(c == {"passed": True, "residual": "0"}
               for c in rep["conditions"].values())
    # at alpha' = 0 the anomaly residual is left, and the report says so
    rep = coh.system_report(iwasawa, GaussRat.of(0))
    assert (rep["alpha_prime"], rep["degenerate"], rep["passed"]) == (
        "0", True, False)
    assert not rep["conditions"]["F2"]["passed"]


def test_cohomology_report_shape(iwasawa):
    rep = coh.cohomology_report(iwasawa, symbol_limit=10)
    assert rep["model"] == "iwasawa"
    assert rep["dims"]["h"] == [6, 11, 11, 6]
    assert rep["dims"]["basis"] == "invariant"
    assert rep["symbol"]["injective"]
    assert rep["serre"] is True
    assert rep["euler"] == 0
    assert rep["checks"] == coh.system_report(iwasawa)
    assert rep["checks"]["passed"] is True


def _random_flat_model(rng, idx, n=3):
    """Closed coframe, random positive hermitian metric, random constant
    strictly-upper-triangular gauge curvature (so tr F^F = 0 and the
    operator is nilpotent for every coupling)."""
    r = 2
    vals = [GaussRat.of(a, b) for a in (-1, 0, 1, 2) for b in (-1, 0, 1)]
    A = [[rng.choice(vals) for _ in range(n)] for _ in range(n)]
    metric = [[GR_ONE if i == j else GR_ZERO for j in range(n)]
              for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                metric[i][j] = metric[i][j] + A[k][i].conjugate() * A[k][j]
    fgrid = [[InvariantForm.zero(n, 1, 1) for _ in range(r)]
             for _ in range(r)]
    for a in range(n):
        for b in range(n):
            c = rng.choice(vals)
            if c:
                fgrid[0][1] = fgrid[0][1] + InvariantForm.monomial(
                    n, [a + 1], [b + 1], Scalar.const(c))
    return HomogeneousModel(
        name=f"random-flat-{idx}",
        n=n,
        coframe_names=[f"a{k + 1}" for k in range(n)],
        d_coframe=[MixedForm.zero(n, 2) for _ in range(n)],
        metric=metric,
        omega_coeff=GR_ONE,
        rank=r,
        curvature_F=EndForm.build(n, r, 1, 1, fgrid),
        alpha_prime=GaussRat.of(1),
    )


def test_hodge_isomorphism_random_metrics():
    # non-diagonal Gram matrices exercise the metric-adjoint route; the
    # harmonic count must still match the quotient count in every degree
    rng = random.Random(20260823)
    for idx in range(5):
        m = _random_flat_model(rng, idx)
        from hetmod.geometry import validate_model
        assert validate_model(m) == []
        data = coh.cohomology_data(m)
        assert data["harmonic"] == data["h"], (m.name, data)
        assert coh._euler(data["h"]) == 0


# -- the certified scan against the full GaussRat symbol --------------------

ORACLE_ALPHAS = [GaussRat.of(x) for x in ("0", "1", "-1", "1/7", "-4")]


def _oracle_slice(n):
    # nine samples; the first, (0, 0, i), is where the calabi-eckmann symbol
    # loses rank at alpha' = -4
    return itertools.islice(coh.symbol_samples(n), 2, None, 38)


def _symbol_kernel(m, xi, alpha0):
    """dim ker symbol_matrix over Q(i): the oracle for n - rank N."""
    M = coh.symbol_matrix(m, xi, alpha0)
    return len(M[0]) - linalg.rank(M)


def _assert_kernel_matches_oracle(m, alpha0):
    blocks = coh.symbol_blocks(m, alpha0)
    for xi in _oracle_slice(m.n):
        label = (m.name, str(alpha0), [str(x) for x in xi])
        assert m.n - linalg.rank(blocks.schur(xi)) == _symbol_kernel(
            m, xi, alpha0), label


@pytest.mark.parametrize("name", ["iwasawa", "torus", "calabi-eckmann"])
def test_symbol_blocks_match_full_symbol(name):
    m = builtin_model(name)
    for a0 in ORACLE_ALPHAS:
        _assert_kernel_matches_oracle(m, a0)


def test_symbol_blocks_match_full_symbol_random_metrics():
    rng = random.Random(20261017)
    for idx in range(2):
        m = _random_flat_model(rng, idx)
        for a0 in (GaussRat.of(1), GaussRat.of("-2/3")):
            _assert_kernel_matches_oracle(m, a0)


def test_symbol_blocks_see_the_rank_drop(calabi_eckmann):
    # (0, 0, i) at alpha' = -4: N loses one rank, mod p and over Q(i), and
    # the full symbol has a one-dimensional kernel, so the gauge slots add
    # none
    a0 = GaussRat.of(-4)
    xi = [GR_ZERO, GR_ZERO, GaussRat.of(0, 1)]
    blocks = coh.symbol_blocks(calabi_eckmann, a0)
    N = blocks.schur(xi)
    assert (len(N), len(N[0])) == (3, 3)
    assert linalg.rank(N) == 2
    assert linalg.rank_mod_p(schur_mod_p(blocks, xi)) == 2
    assert _symbol_kernel(calabi_eckmann, xi, a0) == 1


def _residue_rows(N):
    """Gaussian-integer rows mod CERT_P, as dense rows of residues."""
    assert all(x.d == 1 for row in N for x in row)
    return [[linalg.residue(x.a, x.b) for x in row] for row in N]


def _reduced(rows):
    """``schur_mod_p``'s int rows reduced mod CERT_P."""
    return [[x % linalg.CERT_P for x in row] for row in rows]


def _record_ranks(monkeypatch, name="rank"):
    """Wrap ``linalg.rank`` (or the rank function ``name``); the list it
    returns collects every matrix that it ranks from then on."""
    ranked = []
    rank = getattr(linalg, name)

    def recording(a):
        ranked.append(a)
        return rank(a)
    monkeypatch.setattr(linalg, name, recording)
    return ranked


def _assert_schur_reduction(m, alpha0, samples):
    """At each sample, the template's N over Z[i] is the formula's N entry
    for entry, the scan's rows mod p are its reduction, and N has the
    kernel of the full symbol: n - rank N = dim ker symbol_matrix over
    Q(i).  Returns the number of samples where the symbol loses rank."""
    blocks = coh.symbol_blocks(m, alpha0)
    R = coh.curvature_array(m)
    drops = 0
    for xi in samples:
        label = (m.name, str(alpha0), [str(x) for x in xi])
        N = schur_complement(R, alpha0, xi)
        assert blocks.schur(xi) == N, label
        assert _reduced(schur_mod_p(blocks, xi)) == _residue_rows(N), label
        kernel = _symbol_kernel(m, xi, alpha0)
        assert m.n - linalg.rank(N) == kernel, label
        drops += kernel > 0
    return drops


def test_scan_schur_rows_are_the_exact_reduction_mod_p(builtins,
                                                       dense_metric_builtins):
    # the template's N over Z[i] is N built from the curvature table by its
    # formula, entry for entry, and the n x n rows the scan ranks mod p are
    # its entrywise reduction
    for m in builtins + dense_metric_builtins:
        R = coh.curvature_array(m)
        for a0 in (coh.resolve_alpha(m, None), GaussRat.of(-4),
                   GaussRat.of("1/7")):
            blocks = coh.symbol_blocks(m, a0)
            for xi in itertools.islice(coh.symbol_samples(m.n), 40):
                N = schur_complement(R, a0, xi)
                assert blocks.schur(xi) == N, (m.name, str(a0), xi)
                assert _reduced(schur_mod_p(blocks, xi)) == _residue_rows(N), (
                    m.name, str(a0), xi)


@pytest.mark.parametrize("alpha, drops", [("1", 0), ("-4", 4), ("4", 4)])
def test_schur_complement_has_the_kernel_of_the_coupled_block(
        calabi_eckmann, alpha, drops):
    samples = itertools.islice(coh.symbol_samples(3), 120)
    assert _assert_schur_reduction(calabi_eckmann, GaussRat.of(alpha),
                                   samples) == drops


def test_schur_complement_kernel_dense_metrics(dense_metric_builtins):
    for m in dense_metric_builtins:
        for a0 in (coh.resolve_alpha(m, None), GaussRat.of(-4)):
            _assert_schur_reduction(
                m, a0, itertools.islice(coh.symbol_samples(m.n), 40))


def test_schur_complement_kernel_kt_models(kt_models):
    # the coupling alone makes the symbol lose rank here, so a wrong N
    # shows
    drops = 0
    for m in kt_models:
        for a0 in [GaussRat.of(x) for x in ("1", "-1", "2", "1/2")]:
            drops += _assert_schur_reduction(
                m, a0, itertools.islice(coh.symbol_samples(m.n), 120))
    assert drops > 0


_GAUSS_INTS = [GaussRat.of(a, b) for a in (-2, -1, 0, 1, 2)
               for b in (-1, 0, 1) if a or b]


@given(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4),
                       st.sampled_from(_GAUSS_INTS), min_size=1, max_size=6))
@settings(max_examples=12, deadline=None)
def test_schur_complement_kernel_random_curvature(table):
    # any curvature table, not only one that a model gives: the reduction
    # is linear algebra on the symbol's shape
    m = builtin_model("torus")
    R = [[[[table.get((k, j, l, t), GR_ZERO) for t in range(3)]
           for l in range(3)] for j in range(3)] for k in range(3)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coh, "curvature_array", lambda _: R)
        for a0 in [GaussRat.of(x) for x in ("1", "-1", "1/2")]:
            _assert_schur_reduction(
                m, a0, itertools.islice(coh.symbol_samples(3), 60))


def test_every_rank_drop_reaches_the_exact_rank(calabi_eckmann, kt_models,
                                                monkeypatch):
    # every sample where the full symbol loses rank is decided by
    # linalg.rank on the exact N there, and the scan reports it
    cases = [(calabi_eckmann, GaussRat.of(-4))] + [
        (m, GaussRat.of(x)) for m in kt_models for x in ("1", "-1", "2")]
    drops = []
    for m, a0 in cases:
        R = coh.curvature_array(m)
        for xi in itertools.islice(coh.symbol_samples(m.n), 120):
            if _symbol_kernel(m, xi, a0):
                drops.append((m, a0, xi, schur_complement(R, a0, xi)))
    assert len(drops) >= 10
    scanned = []
    monkeypatch.setattr(coh, "symbol_samples", lambda n: iter(scanned))
    ranked = _record_ranks(monkeypatch)
    for m, a0, xi, N in drops:
        scanned[:] = [xi]
        ranked.clear()
        assert coh.injectivity_scan(m, a0, limit=1) == {
            "samples": 1, "injective": False,
            "first_failure": "(" + ", ".join(map(str, xi)) + ")"}
        assert ranked == [N], (m.name, str(a0), xi)


def test_scan_decides_blocks_that_vanish_mod_p_exactly(builtins,
                                                      monkeypatch):
    # xi = (p, 0, 0) makes s = p^2 and every entry of N a multiple of p,
    # so the scan takes the exact route, where linalg.rank over Q(i) sees
    # that N has full rank, as the full symbol's kernel says
    xi = [GaussRat.of(linalg.CERT_P), GR_ZERO, GR_ZERO]
    monkeypatch.setattr(coh, "symbol_samples", lambda n: iter([xi]))
    for m in builtins:
        a0 = coh.resolve_alpha(m, None)
        blocks = coh.symbol_blocks(m, a0)
        N = blocks.schur(xi)
        assert N == schur_complement(coh.curvature_array(m), a0, xi)
        assert all(not linalg.residue(x.a, x.b) for row in N for x in row)
        assert schur_mod_p(blocks, xi) is None
        assert linalg.rank(N) == 3
        assert _symbol_kernel(m, xi, a0) == 0
        with monkeypatch.context() as mp:
            ranked = _record_ranks(mp)
            assert coh.injectivity_scan(m, a0, limit=1) == {
                "samples": 1, "injective": True}, m.name
        assert ranked == [N], m.name


def test_scan_takes_the_exact_route_when_s_vanishes_mod_p(builtins,
                                                         monkeypatch):
    # xi = (1, I, 0) with I^2 = -1 mod p has s = 1 + I^2 = 0 mod p while
    # its residues are not 0, so N mod p proves nothing there; the scan
    # ranks the exact N, and the full symbol agrees with its verdict
    xi = [GR_ONE, GaussRat.of(linalg.CERT_I), GR_ZERO]
    monkeypatch.setattr(coh, "symbol_samples", lambda n: iter([xi]))
    for m in builtins:
        a0 = coh.resolve_alpha(m, None)
        blocks = coh.symbol_blocks(m, a0)
        assert schur_mod_p(blocks, xi) is None
        N = blocks.schur(xi)
        assert N == schur_complement(coh.curvature_array(m), a0, xi)
        assert linalg.rank(N) == 3
        assert _symbol_kernel(m, xi, a0) == 0
        with monkeypatch.context() as mp:
            ranked = _record_ranks(mp)
            assert coh.injectivity_scan(m, a0, limit=1) == {
                "samples": 1, "injective": True}, m.name
        assert ranked == [N], m.name


def test_scan_takes_the_exact_route_when_delta_vanishes_mod_p(
        calabi_eckmann, monkeypatch):
    # alpha' = 1/p puts p into the denominator delta of alpha' R, so no
    # sample has an N mod p; the verdict comes from linalg.rank alone and
    # agrees with the full symbol
    a0 = GaussRat.of(f"1/{linalg.CERT_P}")
    blocks = coh.symbol_blocks(calabi_eckmann, a0)
    assert blocks.delta[1] == 0
    assert all(schur_mod_p(blocks, xi) is None
               for xi in coh.symbol_samples(3))
    full = coh.q_space_dimension(calabi_eckmann, 0) * 3
    samples = list(_oracle_slice(3))
    oracle = [linalg.rank(coh.symbol_matrix(calabi_eckmann, xi, a0)) == full
              for xi in samples]
    assert all(oracle)
    ranked = _record_ranks(monkeypatch)
    monkeypatch.setattr(coh, "symbol_samples", lambda n: iter(samples))
    assert coh.injectivity_scan(calabi_eckmann, a0, limit=len(samples)) == {
        "samples": len(samples), "injective": True}
    R = coh.curvature_array(calabi_eckmann)
    assert ranked == [schur_complement(R, a0, xi) for xi in samples]


@pytest.mark.parametrize("alpha", ["1", "-1", "2", "1/2"])
def test_scan_matches_the_full_symbol_on_kt_models(kt_models, alpha):
    a0 = GaussRat.of(alpha)
    for m in kt_models:
        full = coh.q_space_dimension(m, 0) * m.n
        first = next((xi for xi in coh.symbol_samples(m.n) if linalg.rank(
            coh.symbol_matrix(m, xi, a0)) < full), None)
        want = {"samples": 7 ** m.n - 1, "injective": first is None}
        if first:
            want["first_failure"] = "(" + ", ".join(map(str, first)) + ")"
        assert coh.injectivity_scan(m, a0) == want, (m.name, alpha)


def _iwasawa_t2():
    """iwasawa x T^2 (n = 5): iwasawa's data with two more closed coframe
    legs, metric 1/2 I and no chart, as ``scripts/scale_models.py`` writes
    it."""
    data = model_to_json(builtin_model("iwasawa"))
    del data["chart"]
    data.update(name="iwasawa-t2", n=5, coframe=[f"a{k}" for k in range(1, 6)],
                metric=[["1/2" if i == j else "0" for j in range(5)]
                        for i in range(5)])
    return parse_model_text(json.dumps(data))


def _h0q_from_structure_constants(m):
    """h^{0,q} of the invariant forms, q = 0..n, from the structure
    constants alone: d of each (0,q) monomial ab^K by the Leibniz rule of
    ``exterior_derivative_by_wedge``, ranked by ``linalg.rank_rows``.  The
    model must be complex-parallelizable, so that d of a (0,q) form is a
    (0,q+1) form, and that is checked on every monomial."""
    n = m.n
    ranks = [0]
    for q in range(n):
        index = {L: t for t, L in enumerate(
            itertools.combinations(range(1, n + 1), q + 1))}
        rows = []
        for K in itertools.combinations(range(1, n + 1), q):
            dx = exterior_derivative_by_wedge(
                InvariantForm.monomial(n, [], list(K)), m)
            assert all(bideg == (0, q + 1) for bideg, _ in dx.parts), K
            rows.append({index[L]: c.coefficient(0)
                         for (_, L), c in dx.part(0, q + 1).terms})
        ranks.append(linalg.rank_rows(rows))
    ranks.append(0)
    return [math.comb(n, q) - ranks[q] - ranks[q + 1] for q in range(n + 1)]


def test_decoupled_counts_by_the_structure_constants(iwasawa, torus,
                                                     random_flat_models):
    # On a complex-parallelizable model every d a_k is of type (2,0), so
    # the (1,1) structure constants vanish, and frame_dbar_matrix's mu,
    # read off them, is 0.  The (0,1) Chern connection of dbar_leg on the
    # vector and covector legs is built from mu alone, so it drops out and
    # dbar_leg is dbar on each of the n components; dbar_end is dbar on
    # each gauge entry, so on the r^2 - 1 trace-free coordinates.  The
    # decoupled operator is then 2n + r^2 - 1 copies of dbar on invariant
    # (0,q)-forms.  There d ab^k = conj(d a_k) is of type (0,2), so d of a
    # (0,q) form is its dbar, and h = (2n + r^2 - 1) h^{0,q}.
    cases = [(iwasawa, [1, 2, 2, 1]), (torus, [1, 3, 3, 1]),
             (_iwasawa_t2(), [1, 4, 7, 7, 4, 1])]
    cases += [(m, [1, 3, 3, 1]) for m in random_flat_models]
    for m, want in cases:
        assert all(bideg == (2, 0) for d in m.d_coframe
                   for bideg, _ in d.parts), m.name
        assert not any(v for a in frame_dbar_matrix(m) for b in a
                       for v in b), m.name
        h0q = _h0q_from_structure_constants(m)
        assert h0q == want, m.name
        copies = 2 * m.n + m.rank ** 2 - 1
        data = coh.cohomology_data(m, diagonal=True)
        assert data["h"] == [copies * x for x in h0q], m.name
        # the diagonal blocks carry no a: the view's a-coefficient is empty
        for p in range(m.n):
            graded = qc.decoupled(m, qc.assemble_Dbar(m, p))
            assert not any(graded.pencil[1]), (m.name, p)


def test_prime_route_decides_every_sample_it_can(builtins, monkeypatch):
    # on the built-ins N mod p falls short only where N itself does: the
    # whole scan makes no exact rank call except at calabi-eckmann's rank
    # drop (0, 0, i) at alpha' = -4, where it stops.  With coupling terms
    # the block decider ranks N mod p at every sample; with none (iwasawa,
    # torus, iwasawa x T^2) delta s alone decides each sample mod p, so N
    # is not even ranked mod p there
    rank_mod_p = linalg.rank_mod_p
    ranked = _record_ranks(monkeypatch)
    ranked_mod_p = _record_ranks(monkeypatch, "rank_mod_p")
    decided = _record_ranks(monkeypatch, "rank_drops_mod_p")
    drop = [GR_ZERO, GR_ZERO, GaussRat.of(0, 1)]
    for m in builtins:
        for a in (None, "0", "1", "-4", "1/7"):
            a0 = coh.resolve_alpha(m, a and GaussRat.of(a))
            blocks = coh.symbol_blocks(m, a0)
            ranked.clear()
            ranked_mod_p.clear()
            decided.clear()
            rep = coh.injectivity_scan(m, a0)
            if (m.name, a) == ("calabi-eckmann", "-4"):
                assert rep == {"samples": 342, "injective": False,
                               "first_failure": "(0, 0, i)"}
                assert ranked == [blocks.schur(drop)]
            else:
                assert rep == {"samples": 342, "injective": True}, (m.name, a)
                assert ranked == [], (m.name, a)
            uncoupled = m.name != "calabi-eckmann" or a == "0"
            assert (blocks.coupling == ((), ())) == uncoupled
            if uncoupled:
                assert decided == [] and ranked_mod_p == [], (m.name, a)
            else:
                # every sample is in a block that the decider ranks, each
                # block as 3 x 3 entries over its samples
                assert [len(N[0][0]) for N in decided] == [342], (m.name, a)
                assert all(len(N) == len(N[0]) == 3 for N in decided)
    m = _iwasawa_t2()
    a0 = coh.resolve_alpha(m, None)
    blocks = coh.symbol_blocks(m, a0)
    assert blocks.coupling == ((), ())
    ranked.clear()
    ranked_mod_p.clear()
    decided.clear()
    assert coh.injectivity_scan(m, a0, limit=500) == {
        "samples": 500, "injective": True}
    assert ranked == [] and ranked_mod_p == [] and decided == []
    # the shortcut says what ranking N = (delta s)^2 I mod p would say
    block = list(itertools.islice(coh.symbol_samples(5), 0, None, 97))
    undecided = blocks.undecided_mod_p(block)
    for i, xi in enumerate(block):
        N = schur_mod_p(blocks, xi)
        assert N is not None and N == [[N[0][0] if t == u else 0
                                        for u in range(5)] for t in range(5)]
        assert (i in undecided) == (rank_mod_p(N) < 5)


_OFF_LATTICE = [[GaussRat.of("1/2"), GaussRat.of(0, "1/3"), GR_ZERO],
                [GaussRat.of("2/5", "-1/5"), GR_ONE, GaussRat.of(0, "-3/4")]]


def test_samples_with_denominators_are_scaled(calabi_eckmann, kt_models):
    # off the lattice, xi is scaled by the common denominator of its
    # components, which keeps the rank: N is the formula's N at that
    # multiple, on both routes, and has the kernel of the full symbol
    samples = _OFF_LATTICE
    for m, a0 in [(calabi_eckmann, GaussRat.of(1)),
                  (calabi_eckmann, GaussRat.of(-4)),
                  (kt_models[1], GaussRat.of("1/2"))]:
        blocks = coh.symbol_blocks(m, a0)
        R = coh.curvature_array(m)
        for xi in samples:
            den = linalg.gauss_ints(xi)[0]
            assert den > 1
            N = schur_complement(R, a0, [x * GaussRat.of(den) for x in xi])
            assert blocks.schur(xi) == N
            assert _reduced(schur_mod_p(blocks, xi)) == _residue_rows(N)
            assert m.n - linalg.rank(N) == _symbol_kernel(m, xi, a0)


# -- the block route against the per-sample references ----------------------


def _entries_at(cols, i):
    """The dense rows of sample i of a column-wise block."""
    return [[e[i] for e in row] for row in cols]


def _assert_block_is_per_sample(m, alpha0, block):
    """``_schur`` on the block, on both routes, is the formula's N at each
    sample scaled to Gaussian integers, entry for entry (its reduction mod
    p on the prime route), or delta s alone where there are no coupling
    terms; ``rank_drops_mod_p`` and ``undecided_mod_p`` name the samples
    that ``rank_mod_p`` finds short, one sample at a time."""
    n, p = m.n, linalg.CERT_P
    blocks = coh.symbol_blocks(m, alpha0)
    R = coh.curvature_array(m)
    ds, exact = blocks._schur(block, 0)
    ds_p, mod_p = blocks._schur(block, 1)
    uncoupled = blocks.coupling == ((), ())
    assert (exact is None) == (mod_p is None) == uncoupled
    short, undecided = [], []
    for i, xi in enumerate(block):
        label = (m.name, str(alpha0), [str(x) for x in xi])
        den = linalg.gauss_ints(xi)[0]
        N = schur_complement(R, alpha0, [x * GaussRat.of(den) for x in xi])
        if uncoupled:
            d = ds[i]
            assert N == [[d * d if t == u else GR_ZERO for u in range(n)]
                         for t in range(n)], label
        else:
            assert _entries_at(exact, i) == N, label
            rows = _entries_at(mod_p, i)
            assert _reduced(rows) == _residue_rows(N), label
            if linalg.rank_mod_p(rows) < n:
                short.append(i)
        assert ds_p[i] % p == linalg.residue(ds[i].a, ds[i].b), label
        assert blocks.schur(xi) == N, label
        assert (schur_mod_p(blocks, xi) is None) == (not ds_p[i]), label
        if not ds_p[i] or linalg.rank_mod_p(_residue_rows(N)) < n:
            undecided.append(i)
    if not uncoupled:
        assert linalg.rank_drops_mod_p(mod_p) == short
    assert blocks.undecided_mod_p(block) == undecided
    return len(undecided)


def _blocks_of(samples, size):
    samples = list(samples)
    return [samples[i:i + size] for i in range(0, len(samples), size)]


def test_block_schur_is_the_per_sample_schur(builtins, dense_metric_builtins,
                                             kt_models):
    # N column-wise against the formula's N, block by block, on both
    # routes; the kt models lose rank at some samples, and the samples
    # off the lattice are scaled by their denominators
    undecided = 0
    for m in builtins + dense_metric_builtins:
        for a0 in (coh.resolve_alpha(m, None), GaussRat.of(-4)):
            for block in _blocks_of(itertools.islice(
                    coh.symbol_samples(m.n), 0, 120, 3), 16):
                undecided += _assert_block_is_per_sample(m, a0, block)
    for m in kt_models:
        for a0 in [GaussRat.of(x) for x in ("1", "-1", "2", "1/2")]:
            for block in _blocks_of(itertools.islice(
                    coh.symbol_samples(m.n), 60), 25):
                undecided += _assert_block_is_per_sample(m, a0, block)
    lattice = next(itertools.islice(coh.symbol_samples(3), 20, None))
    calabi_eckmann = builtins[2]
    for m, a0 in [(calabi_eckmann, GaussRat.of(1)),
                  (calabi_eckmann, GaussRat.of(-4)),
                  (kt_models[1], GaussRat.of("1/2"))]:
        _assert_block_is_per_sample(m, a0, _OFF_LATTICE + [lattice])
    assert undecided > 0


def test_block_decider_falls_back_where_a_diagonal_pivot_vanishes():
    # the block's elimination takes its pivots on the diagonal; where one
    # is 0 mod p the matrix is ranked on its own rows, with row swaps, so
    # a full-rank matrix is not reported short and a short one is
    p = linalg.CERT_P
    mats = [
        [[1, 2, 0], [0, 1, 0], [0, 0, 1]],        # full, no swap
        [[0, 1, 0], [1, 0, 0], [0, 0, 1]],        # full, first pivot 0
        [[p, 1, 1], [1, 0, 1], [1, 1, 0]],        # full, first pivot p
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]],        # rank 2, second pivot 0
        [[1, 1, 0], [1, 1, 1], [0, 1, 0]],        # full, second pivot 0
        [[0, 0, 0], [0, 1, 0], [0, 0, 1]],        # rank 2, first pivot 0
        [[2, 4, 6], [1, 2, 3], [0, 0, p + 1]],    # rank 2
        [[3, 1, 4], [1, 5, 9], [2, 6, 5 + 2 * p]],  # full, no swap
    ]
    block = [[[M[t][u] for M in mats] for u in range(3)] for t in range(3)]
    assert [i for i, M in enumerate(mats)
            if linalg.rank_mod_p(M) < 3] == [3, 5, 6]
    assert linalg.rank_drops_mod_p(block) == [3, 5, 6]
    # a block of one is each matrix alone
    for i, M in enumerate(mats):
        one = [[[x] for x in row] for row in M]
        assert linalg.rank_drops_mod_p(one) == ([0] if i in (3, 5, 6)
                                                else [])


def test_scan_ranks_exactly_where_n_drops_rank_only_mod_p(torus,
                                                         monkeypatch):
    # one curvature entry c = p + 1 at xi = (1, 0, 0) gives
    # N = diag(1 - c^2, 1, 1): its first diagonal entry is 0 mod p, so the
    # block decider ranks N on its own rows and finds it short, while over
    # Q(i) N has full rank; the exact route decides the sample injective
    p = linalg.CERT_P
    R = [[[[GR_ZERO] * 3 for _ in range(3)] for _ in range(3)]
         for _ in range(3)]
    R[1][1][0][0] = GaussRat.of(p + 1)
    monkeypatch.setattr(coh, "curvature_array", lambda _: R)
    a0, xi = GR_ONE, [GR_ONE, GR_ZERO, GR_ZERO]
    N = schur_complement(R, a0, xi)
    assert N == [[GaussRat.of(1 - (p + 1) ** 2), GR_ZERO, GR_ZERO],
                 [GR_ZERO, GR_ONE, GR_ZERO], [GR_ZERO, GR_ZERO, GR_ONE]]
    blocks = coh.symbol_blocks(torus, a0)
    assert blocks.schur(xi) == N
    assert _reduced(schur_mod_p(blocks, xi)) == [[0, 0, 0], [0, 1, 0],
                                                [0, 0, 1]]
    assert blocks.undecided_mod_p([xi]) == [0]
    assert linalg.rank(N) == 3 and _symbol_kernel(torus, xi, a0) == 0
    monkeypatch.setattr(coh, "symbol_samples", lambda n: iter([xi]))
    fallback = _record_ranks(monkeypatch, "rank_mod_p")
    ranked = _record_ranks(monkeypatch)
    assert coh.injectivity_scan(torus, a0, limit=1) == {
        "samples": 1, "injective": True}
    assert [_reduced(M) for M in fallback] == [[[0, 0, 0], [0, 1, 0],
                                                [0, 0, 1]]]
    assert ranked == [N]


# -- block edges, sample order and laziness ---------------------------------


def _per_sample_scan(m, alpha0, samples, count):
    """The scan one sample at a time: a sample is decided by N mod p where
    that has full rank, else by the rank of N over Q(i), and the first
    failure ends the scan.  The reference for the block scan."""
    blocks = coh.symbol_blocks(m, alpha0)
    for xi in itertools.islice(samples, count):
        N = schur_mod_p(blocks, xi)
        if ((N is None or linalg.rank_mod_p(N) < m.n)
                and linalg.rank(blocks.schur(xi)) < m.n):
            return {"samples": count, "injective": False,
                    "first_failure": "(" + ", ".join(map(str, xi)) + ")"}
    return {"samples": count, "injective": True}


@pytest.mark.parametrize("size", [coh.SCAN_BLOCK, 7])
def test_block_scan_matches_the_per_sample_scan(kt_models, kt4,
                                                calabi_eckmann, monkeypatch,
                                                size):
    # at limits on either side of a block edge.  In blocks of 7, kt3 at
    # alpha' = 1 first fails at the last sample of the first block (6),
    # at alpha' = 2 four times in one block (49..52), and calabi-eckmann
    # at alpha' = -4 twice in its first block (2, 3)
    monkeypatch.setattr(coh, "SCAN_BLOCK", size)
    cases = [(m, GaussRat.of(a)) for m in kt_models + [kt4]
             for a in ("1", "2")]
    cases += [(calabi_eckmann, GaussRat.of(-4)),
              (calabi_eckmann, GaussRat.of(1)), (kt4, GaussRat.of("1/2"))]
    for m, a0 in cases:
        total = 7 ** m.n - 1
        for limit in (1, size - 1, size, size + 1, 2 * size + 1, total):
            count = min(limit, total)
            assert coh.injectivity_scan(m, a0, limit=limit) == (
                _per_sample_scan(m, a0, coh.symbol_samples(m.n), count)), (
                m.name, str(a0), size, limit)


def test_block_scan_reports_the_first_failure_of_its_block(kt4,
                                                           monkeypatch):
    # kt4 at alpha' = 1 fails at two samples; placed in the middle of the
    # second block, and both in one block in either order, the scan names
    # the first in sample order and ranks no sample after it exactly
    a0 = GaussRat.of(1)
    lattice = list(coh.symbol_samples(4))
    fails = [xi for xi in lattice
             if _per_sample_scan(kt4, a0, iter([xi]), 1)["injective"] is False]
    assert len(fails) == 2
    passes = [xi for xi in lattice if xi not in fails]
    B = coh.SCAN_BLOCK
    mid = B + B // 2
    orders = [passes[:mid] + [fails[1]] + passes[mid:],
              passes[:B + 5] + [fails[1]] + passes[B + 5:B + 40] + [fails[0]]
              + passes[B + 40:],
              passes[:B + 5] + [fails[0]] + passes[B + 5:B + 40] + [fails[1]]
              + passes[B + 40:]]
    blocks = coh.symbol_blocks(kt4, a0)
    ranked = _record_ranks(monkeypatch)
    for seq in orders:
        monkeypatch.setattr(coh, "symbol_samples", lambda n: iter(seq))
        first = next(xi for xi in seq if xi in fails)
        want = _per_sample_scan(kt4, a0, iter(seq), len(lattice))
        ranked.clear()
        rep = coh.injectivity_scan(kt4, a0)
        assert rep == want
        assert rep["first_failure"] == "(" + ", ".join(map(str, first)) + ")"
        assert ranked == [blocks.schur(first)]


def test_limited_scan_draws_at_most_limit_samples(kt4, calabi_eckmann,
                                                  monkeypatch):
    # the samples come from an iterator that refuses to be drawn past the
    # limit; an injective scan draws exactly the samples asked for, and
    # one that fails draws no more
    lattice = coh.symbol_samples
    drawn = []

    def strict(limit):
        def samples(n):
            for xi in lattice(n):
                if len(drawn) == limit:
                    raise AssertionError("a sample past the limit was drawn")
                drawn.append(xi)
                yield xi
        return samples

    B = coh.SCAN_BLOCK
    for m, a in [(kt4, "1/2"), (calabi_eckmann, "1"), (kt4, "2")]:
        a0 = GaussRat.of(a)
        for limit in (1, B - 1, B, B + 1, 2 * B + 1, 7 ** m.n - 1):
            count = min(limit, 7 ** m.n - 1)
            drawn.clear()
            monkeypatch.setattr(coh, "symbol_samples", strict(count))
            rep = coh.injectivity_scan(m, a0, limit=limit)
            assert rep["samples"] == count
            if rep["injective"]:
                assert len(drawn) == count, (m.name, a, limit)
            else:
                assert len(drawn) <= count, (m.name, a, limit)


def test_scan_refuses_empty(iwasawa):
    for limit in (0, -1):
        with pytest.raises(ModelError, match="at least one sample"):
            coh.injectivity_scan(iwasawa, GaussRat.of(0), limit=limit)


def test_scan_reports_first_failure_in_sample_order(calabi_eckmann):
    rep = coh.injectivity_scan(calabi_eckmann, GaussRat.of(-4), limit=30)
    assert rep == {"samples": 30, "injective": False,
                   "first_failure": "(0, 0, i)"}


def test_non_real_coupling_is_refused(torus, iwasawa):
    # the adjoint treats the coupling variable as real, so a non-real
    # coupling from the Python API has no answer; model files refuse one too
    with pytest.raises(ModelError, match="must be real"):
        coh.cohomology_data(torus, GaussRat.of(0, 1))
    with pytest.raises(ModelError, match="must be real"):
        coh.cohomology_report(torus, GaussRat.of(2, -1), symbol_limit=1)
    with pytest.raises(ModelError, match="must be real"):
        chartlocal.build_trivialization(iwasawa, GaussRat.of(0, 1))
    data = coh.cohomology_data(torus, GaussRat.of("1/7"))
    assert data["h"] == [9, 27, 27, 9]
