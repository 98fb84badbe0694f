"""The deformation operator on invariant Q-sections and its adjoint.

Two independent routes exist for the adjoint (the Gram-matrix route and the
closed index formulas), and two for the operator matrix itself (the tables
of assemble_Dbar versus the form code, apply_Dbar on every basis section),
so each pair acts as an oracle for the other.  The blocks D1, D2, H, H* and
the decoupled view are cut from the one assembled matrix by leg range; the
tests find the same blocks by the q_basis labels, check that the matrix is
upper triangular in the legs, and check the decoupled view against
apply_Dbar's own decoupled mode.
"""

import itertools
import random

import pytest

from hetmod import cohomology as coh
from hetmod import linalg
from hetmod import qcomplex as qc
from hetmod.exterior import EndForm, InvariantForm
from hetmod.geometry import ModelError, bismut, validate_model
from hetmod.scalars import GaussRat, S_ONE, S_ZERO, Scalar
import oracles as orc
from helpers import gram_pair, scale_gauge, section_from_coordinates
from oracles import VectorForm
from test_cohomology import _iwasawa_t2, _random_flat_model


def test_q_basis_dimensions(iwasawa, calabi_eckmann):
    # value fiber: n covector slots + (r^2 - 1) gauge slots + n vector slots
    assert orc.q_basis(iwasawa, 0).dim == 9
    assert orc.q_basis(iwasawa, 1).dim == 27
    assert orc.q_basis(iwasawa, 2).dim == 27
    assert orc.q_basis(iwasawa, 3).dim == 9
    assert orc.q_basis(calabi_eckmann, 1).dim == 42


def test_coordinates_round_trip(builtins):
    for m in builtins:
        basis = orc.q_basis(m, 1)
        for i, s in enumerate(basis.sections):
            coords = orc.q_coordinates(s)
            assert coords[i] == S_ONE
            assert sum(1 for c in coords if c) == 1
            assert section_from_coordinates(m, 1, coords) == s


def _dbar(m, p, diagonal):
    """Dbar from degree p, or its decoupled view with ``diagonal``."""
    op = qc.assemble_Dbar(m, p)
    return qc.decoupled(m, op) if diagonal else op


def _assert_tables_match_forms(m, p, diagonal):
    """assemble_Dbar (slot couplings and leg maps), or its decoupled view,
    against apply_Dbar (form code), column by column."""
    op = _dbar(m, p, diagonal)
    basis = orc.q_basis(m, p)
    assert op.source_labels == basis.labels
    assert op.target_labels == orc.q_basis(m, p + 1).labels
    for j, s in enumerate(basis.sections):
        col = orc.q_coordinates(orc.apply_Dbar(s, m, diagonal))
        assert [row[j] for row in op.entries] == col, (m.name, p, diagonal,
                                                       basis.labels[j])


def test_prepend_is_the_wedge_with_the_new_leg():
    # both routes of Dbar put a new leg in front through _prepend, so no
    # comparison of the two can see a sign slip in it: check it against
    # the form algebra's wedge on every monomial of every bidegree
    seen = set()
    c = Scalar.of(2, -3)
    for n in range(1, 5):
        legs = [x for k in range(n + 1)
                for x in itertools.combinations(range(1, n + 1), k)]
        for holo, anti in itertools.product(legs, repeat=2):
            f = InvariantForm.monomial(n, holo, anti, c)
            for k in range(n):
                want = InvariantForm.monomial(n, [], [k + 1]).wedge(f)
                got = qc._prepend(k, f)
                assert dict(got) == dict(want.terms), (n, holo, anti, k)
                seen.update("+" if v == c else "-" for _, v in got)
                if not got:
                    seen.add("repeat")
    assert seen == {"+", "-", "repeat"}


def test_matrix_matches_direct_application(builtins, random_flat_models,
                                           dense_metric_builtins):
    for m in builtins + random_flat_models + dense_metric_builtins:
        for p in range(m.n):
            for diagonal in (False, True):
                _assert_tables_match_forms(m, p, diagonal)


def test_dense_metric_variants_reach_every_coupling(dense_metric_builtins):
    # the Bismut shift acts on both variants, and on calabi-eckmann together
    # with the curvature term (the built-in calabi-eckmann has no shift);
    # iwasawa is holomorphically parallelizable, so its Chern curvature
    # vanishes for every invariant metric
    iw, ce = dense_metric_builtins
    assert qc._r_table(ce)[1] and not qc._r_table(iw)[1]
    for m in (iw, ce):
        assert any(v for a in bismut(m).gamma for b in a for v in b), m.name


def test_flat_model_at_n4():
    # beyond the built-ins: n = 4, rank 2, a dense Hermitian metric and a
    # nonzero strictly upper-triangular F
    m = _random_flat_model(random.Random(4), 0, n=4)
    assert validate_model(m) == [] and m.curvature_F
    for p in range(m.n):
        _assert_tables_match_forms(m, p, False)
    data = coh.cohomology_data(m)
    assert data["h"] == data["h"][::-1], data["h"]
    assert data["harmonic"] == data["h"]
    assert coh._euler(data["h"]) == 0


def test_pencil_rows_are_the_dense_view_specialized(builtins,
                                                    random_flat_models):
    # rows(a0) is M_0 + a0 M_1 over the nonzeros, with the entries that
    # vanish at a0 dropped: at a0 = 0 every a-weighted entry goes
    for m in builtins + random_flat_models:
        for p in range(m.n):
            for diagonal in (False, True):
                op = _dbar(m, p, diagonal)
                for a0 in (GaussRat.of(0), GaussRat.of(1)):
                    want = [{c: x.evaluate(a0) for c, x in enumerate(row)
                             if x.evaluate(a0)} for row in op.entries]
                    assert op.rows(a0) == want, (m.name, p, diagonal, a0)
    # an entry 1 - a cancels at a0 = 1 and must not be left as a zero
    one = GaussRat.of(1)
    op = qc.QOperatorMatrix(0, 1, ("x", "y"), ("z",),
                            (({0: one, 1: one},), ({0: -one},)))
    assert op.rows(one) == [{1: one}]
    assert op.entries == ((S_ONE - Scalar.var(), S_ONE),)


def test_pencil_refuses_a_squared(iwasawa):
    # an a^2 slot coupling reaches the assembly: refused, not truncated
    m = iwasawa.replace(name="iwasawa-a2")
    parts = [list(x) for x in qc._slot_couplings(m)]
    parts[0].append((0, 0, None, 2, GaussRat.of(1)))   # a^2 ab^1 ^ .
    m._cache["slot_couplings"] = parts
    with pytest.raises(ModelError, match="degree 2 in the coupling"):
        qc.assemble_Dbar(m, 0)
    with pytest.raises(ModelError, match="degree 2 in the coupling"):
        coh.cohomology_data(m)


# the leg of each q_basis label, in the order of _leg_bounds: T*, End, T
_LEGS = ("e1", "e2", "e3")


def test_block_reassembly(builtins, random_flat_models,
                          dense_metric_builtins):
    # each block is Dbar on its source and target legs, found here by the
    # labels e1 (T*), e2 (End) and e3 (T); the decoupled view keeps, in
    # Dbar's shape, the entries whose source and target are on one leg
    blocks = {"D1": ((1, 3), (1, 3)), "D2": ((0, 2), (0, 2)),
              "H": ((1, 3), (0, 1)), "H*": ((2, 3), (0, 2))}
    for m in builtins + random_flat_models + dense_metric_builtins:
        for p in range(m.n):
            assert orc.upper_triangular(m, p), (m.name, p)
            full = qc.assemble_Dbar(m, p)
            for name, (src, tgt) in blocks.items():
                op = orc.leg_block(m, full, src, tgt)
                cols = [j for j, label in enumerate(full.source_labels)
                        if label[:2] in _LEGS[slice(*src)]]
                rows = [i for i, label in enumerate(full.target_labels)
                        if label[:2] in _LEGS[slice(*tgt)]]
                assert op.source_labels == tuple(
                    full.source_labels[j] for j in cols), name
                assert op.target_labels == tuple(
                    full.target_labels[i] for i in rows), name
                assert op.entries == tuple(
                    tuple(full.entries[i][j] for j in cols) for i in rows)
            graded = qc.decoupled(m, full)
            assert (graded.source_labels, graded.target_labels) == (
                full.source_labels, full.target_labels)
            assert graded.entries == tuple(
                tuple(x if full.source_labels[j][:2] == tlabel[:2]
                      else S_ZERO for j, x in enumerate(row))
                for tlabel, row in zip(full.target_labels, full.entries))


def test_block_reassembly_sees_a_broken_pencil(builtins, random_flat_models):
    # one stray entry below the diagonal blocks in the cached pencil makes
    # Dbar fail to be upper triangular; one changed T -> T entry leaves it
    # triangular, and the decoupled view, read off the same pencil, then
    # disagrees with the form route's own decoupled operator
    for base in builtins + random_flat_models:
        for p in range(base.n):
            _, c1, c2, _ = qc._leg_bounds(base, p)
            _, r1, r2, _ = qc._leg_bounds(base, p + 1)
            for broken, row, col in (("split", r1, c1 - 1), ("dual", r2, c2)):
                m = base.replace(name=f"{base.name}-{broken}")
                op = qc.assemble_Dbar(m, p)
                rows = [dict(r) for r in op.pencil[0]]
                v = rows[row].get(col, GaussRat.of(0)) + GaussRat.of(1)
                if v:
                    rows[row][col] = v
                else:
                    del rows[row][col]
                m._cache[("Dbar", p)] = op.replace(
                    pencil=(tuple(rows), op.pencil[1]))
                if broken == "split":
                    assert not orc.upper_triangular(m, p), (m.name, p)
                    continue
                assert orc.upper_triangular(m, p), (m.name, p)
                with pytest.raises(AssertionError):
                    _assert_tables_match_forms(m, p, diagonal=True)


def _block_counts(m, legs):
    """h^p, p = 0..n, of the block of Dbar on the legs (first, end) at the
    model's coupling, from the ranks of the block's rows alone."""
    a0 = coh.resolve_alpha(m, None)
    ranks = [0] + [linalg.rank_rows(orc.leg_block(
        m, qc.assemble_Dbar(m, p), legs, legs).rows(a0))
        for p in range(m.n)] + [0]
    dims = [bounds[legs[1]] - bounds[legs[0]]
            for bounds in (qc._leg_bounds(m, p) for p in range(m.n + 1))]
    return [dims[p] - ranks[p] - ranks[p + 1] for p in range(m.n + 1)]


# the blocks of the filtration T* in T* + End in Q, by leg range
_FILTRATION = {"T*": (0, 1), "End": (1, 2), "T": (2, 3), "sub": (0, 2),
               "quotient": (1, 3), "Q": (0, 3)}


def test_q_filtration_block_counts(builtins):
    # Dbar is upper triangular in (T*, End, T), so T* and the sub T* + End
    # are subcomplexes and End + T and T quotient complexes; the diagonal
    # blocks are the E_1 page of the filtration's spectral sequence
    want = {
        "iwasawa": {"T*": [3, 6, 6, 3], "End": [3, 6, 6, 3],
                    "T": [3, 6, 6, 3], "sub": [5, 11, 10, 4],
                    "quotient": [4, 10, 11, 5], "Q": [6, 11, 11, 6]},
        "torus": {"T*": [3, 9, 9, 3], "End": [3, 9, 9, 3],
                  "T": [3, 9, 9, 3], "sub": [6, 18, 18, 6],
                  "quotient": [6, 18, 18, 6], "Q": [9, 27, 27, 9]},
        "calabi-eckmann": {"T*": [0, 1, 1, 0], "End": [8, 8, 0, 0],
                           "T": [1, 1, 0, 0], "sub": [8, 9, 1, 0],
                           "quotient": [9, 9, 0, 0], "Q": [8, 8, 0, 0]},
    }
    for m in builtins:
        got = {name: _block_counts(m, legs)
               for name, legs in _FILTRATION.items()}
        assert got == want[m.name], m.name
        assert got["Q"] == coh.cohomology_data(m)["h"], m.name


def test_sub_and_quotient_are_serre_dual_on_solutions(iwasawa,
                                                      calabi_eckmann):
    # on a solution the sub T* + End and the quotient End + T have
    # Serre-dual counts, h^p(sub) = h^{n-p}(quotient); on iwasawa neither
    # is symmetric alone, and calabi-eckmann, which fails check, is not
    # dual
    t2 = _iwasawa_t2()
    pinned = {"iwasawa": ([5, 11, 10, 4], [4, 10, 11, 5]),
              "iwasawa-t2": ([7, 29, 51, 49, 26, 6], [6, 26, 49, 51, 29, 7])}
    for m in (iwasawa, t2):
        assert coh.system_report(m, None)["passed"], m.name
        sub, quotient = (_block_counts(m, _FILTRATION[name])
                         for name in ("sub", "quotient"))
        assert (sub, quotient) == pinned[m.name]
        assert sub == quotient[::-1], m.name
        if m is iwasawa:
            assert sub != sub[::-1] and quotient != quotient[::-1]
    assert not coh.system_report(calabi_eckmann, None)["passed"]
    sub, quotient = (_block_counts(calabi_eckmann, _FILTRATION[name])
                     for name in ("sub", "quotient"))
    assert sub != quotient[::-1]


def test_adjoint_formula_matches_gram_route(builtins, random_flat_models):
    for m in builtins + random_flat_models:
        for p in (1, 2, 3):
            via_gram = qc.gram_adjoint(m, qc.assemble_Dbar(m, p - 1))
            via_formula = orc.assemble_Dstar_formula(m, p)
            assert via_gram.entries == via_formula.entries, (m.name, p)


def test_adjoint_identity_symbolic(iwasawa):
    # <Dbar x, y> = <x, D* y> as polynomials in a, for all basis pairs
    p = 0
    D = qc.assemble_Dbar(iwasawa, p)
    Ds = qc.gram_adjoint(iwasawa, D)
    src = orc.q_basis(iwasawa, p)
    tgt = orc.q_basis(iwasawa, p + 1)
    for i in range(src.dim):
        x = [Scalar() for _ in range(src.dim)]
        x[i] = S_ONE
        Dx = [D.entries[k][i] for k in range(tgt.dim)]
        for j in range(tgt.dim):
            y = [Scalar() for _ in range(tgt.dim)]
            y[j] = S_ONE
            Dsy = [Ds.entries[k][j] for k in range(src.dim)]
            lhs = gram_pair(iwasawa, p + 1, Dx, y)
            rhs = gram_pair(iwasawa, p, x, Dsy)
            assert lhs == rhs


def test_gram_is_hermitian_positive_diagonal(builtins):
    for m in builtins:
        G = qc.gram(m, 1)
        ct = [[G[j][i].conjugate() for j in range(len(G))]
              for i in range(len(G))]
        assert G == ct
        for i in range(len(G)):
            assert G[i][i].im == 0 and G[i][i].re > 0


def test_nilpotency_report(iwasawa, torus, calabi_eckmann):
    # flat torus and the balanced-anomaly gauge-trivial model square to zero
    # identically in a; the nilmanifold square is confined to the covector
    # row and vanishes exactly at the model's own coupling
    assert orc.nilpotency_report(torus)["square_zero"]
    assert orc.nilpotency_report(calabi_eckmann)["square_zero"]
    rep = orc.nilpotency_report(iwasawa)
    assert not rep["square_zero"]
    assert rep["e1_only"]
    a0 = GaussRat.of(-4)
    for s in rep["residuals"]:
        assert all(not c.evaluate(a0)
                   for c in orc.q_coordinates(s)), "residual survives at a=-4"


def test_square_matches_anomaly_contraction(iwasawa):
    basis = orc.q_basis(iwasawa, 0)
    for s in basis.sections:
        dd = orc.apply_Dbar(orc.apply_Dbar(s, iwasawa), iwasawa)
        want = orc.expected_square_residual(iwasawa, s)
        assert dd.kappa == want
        assert not dd.gamma and not dd.w


def test_gauge_scaling_breaks_nilpotency(iwasawa):
    m2 = scale_gauge(iwasawa, GaussRat.of(2))
    rep = orc.nilpotency_report(m2)
    assert not rep["square_zero"]
    assert rep["e1_only"]
    # the rescaled curvature moves the balancing coupling away from the
    # model's own value, so the square no longer vanishes at a = -4
    a0 = GaussRat.of(-4)
    survives = any(c.evaluate(a0)
                   for s in rep["residuals"]
                   for c in orc.q_coordinates(s))
    assert survives


def test_commutation_identity_on_vector_fields(builtins):
    for m in builtins:
        for j in range(m.n):
            comps = [InvariantForm.monomial(m.n, [], [])
                     if t == j else InvariantForm.zero(m.n, 0, 0)
                     for t in range(m.n)]
            w = VectorForm.build(m.n, 0, 0, comps)
            for l in range(m.n):
                assert not orc.commutation_residual(m, w, l), (m.name, j, l)


def test_duality_residual_flat_model(torus):
    # on the flat torus every constant section is closed, so the pairing
    # identity must hold for arbitrary constant inputs
    n, r = torus.n, torus.rank
    beta = EndForm.build(n, r, 0, 2, [
        [InvariantForm.monomial(n, [], [1, 2]) if (i, j) == (0, 1)
         else InvariantForm.zero(n, 0, 2) for j in range(r)]
        for i in range(r)])
    v = VectorForm.build(n, 0, 2, [
        InvariantForm.monomial(n, [], [1, 3]),
        InvariantForm.zero(n, 0, 2),
        InvariantForm.monomial(n, [], [2, 3]),
    ])
    w = VectorForm.build(n, 0, 0, [
        InvariantForm.monomial(n, [], []),
        InvariantForm.zero(n, 0, 0),
        InvariantForm.monomial(n, [], []),
    ])
    assert not orc.duality_residual(torus, beta, v, w, Scalar.of(1))
    assert not orc.duality_residual(torus, beta, v, w, Scalar.var())
