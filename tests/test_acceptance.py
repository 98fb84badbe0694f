"""End-to-end acceptance gate.

Each test here pins one headline claim of the package against exact values
that were derived independently (by hand, or by a second computational route
frozen in the module tests).  Nothing in this file is tuned to the
implementation: if a convention inside the package changes, these numbers
must not.
"""

import json
import random
import time

import pytest

from hetmod import chartlocal as cl
from hetmod import cohomology as coh
from hetmod import geometry as geo
from hetmod import linalg
from hetmod import qcomplex as qc
from hetmod.exterior import InvariantForm
from hetmod.geometry import ModelError
from hetmod.models import builtin_model
from hetmod.scalars import GR_ZERO, GaussRat, Scalar

import oracles as orc
from helpers import dense, mat_vec, scale_gauge, section_from_coordinates
from oracles import VectorForm

ALPHAS = [GaussRat.of(-4), GaussRat.of(1), GaussRat.of("1/7")]


# -- (1) nilmanifold degree-1 count, exact and fast --------------------------

def test_01_iwasawa_degree_one_count():
    m = builtin_model("iwasawa")   # fresh model: no warm caches
    start = time.time()
    data = coh.cohomology_data(m, GaussRat.of(-4))
    elapsed = time.time() - start
    assert data["harmonic"][1] == 11
    assert data["h"][1] == 11
    assert elapsed < 5.0


# -- (2) kernel count in degree one ------------------------------------------

def test_02_iwasawa_degree_one_kernel(iwasawa):
    M = dense(qc.assemble_Dbar(iwasawa, 1).rows(GaussRat.of(-4)), 27)
    assert len(linalg.kernel_basis(M, cols=27)) == 14


# -- (3) the full dimension table --------------------------------------------

def test_03_iwasawa_dimension_table(iwasawa):
    data = coh.cohomology_data(iwasawa)
    assert data["h"] == [6, 11, 11, 6]
    assert data["harmonic"] == [6, 11, 11, 6]
    assert data["h"] == data["h"][::-1]           # h^p = h^{n-p}
    assert coh._euler(data["h"]) == 0


# -- (4) diagonal comparison point -------------------------------------------

def test_04_iwasawa_diagonal_baseline(iwasawa):
    data = coh.cohomology_data(iwasawa, diagonal=True)
    assert data["h"][1] == 18


# -- (5) the square of the operator is exactly the anomaly -------------------

def test_05_square_is_anomaly_contraction():
    for name in ("iwasawa", "calabi-eckmann"):
        m = builtin_model(name)
        for s in orc.q_basis(m, 0).sections:
            dd = orc.apply_Dbar(orc.apply_Dbar(s, m), m)
            assert not dd.gamma and not dd.w
            assert dd.kappa == orc.expected_square_residual(m, s), name


def test_05_iwasawa_square_vanishes_only_at_its_coupling(iwasawa):
    rep = orc.nilpotency_report(iwasawa)
    assert not rep["square_zero"]
    assert rep["e1_only"]
    a0 = GaussRat.of(-4)
    for s in rep["residuals"]:
        assert all(not c.evaluate(a0) for c in orc.q_coordinates(s))


def test_05_perturbed_gauge_field_breaks_nilpotency(iwasawa):
    for factor in (GaussRat.of(2), GaussRat.of("3/2")):
        rep = orc.nilpotency_report(scale_gauge(iwasawa, factor))
        assert not rep["square_zero"], factor
        assert rep["e1_only"], factor
        a0 = GaussRat.of(-4)
        assert any(c.evaluate(a0) for s in rep["residuals"]
                   for c in orc.q_coordinates(s)), factor


# -- (6) the product-of-spheres reference package ----------------------------

def test_06_ce_chern_curvature_entries(calabi_eckmann):
    R = geo.chern_curvature(calabi_eckmann)
    q = Scalar.of("1/4")
    iq = Scalar.of("0", "1/4")
    want = {
        (0, 0): (InvariantForm.monomial(3, [2], [2], q)
                 + InvariantForm.monomial(3, [3], [3], q)),
        (1, 1): InvariantForm.monomial(3, [2], [2], q),
        (1, 2): InvariantForm.monomial(3, [2], [3], -iq),
        (2, 1): InvariantForm.monomial(3, [3], [2], iq),
        (2, 2): InvariantForm.monomial(3, [3], [3], q),
    }
    for i in range(3):
        for j in range(3):
            expected = want.get((i, j), InvariantForm.zero(3, 1, 1))
            assert R.entry(i, j) == expected, (i, j)


def test_06_ce_pontryagin_trace_vanishes(calabi_eckmann):
    from hetmod.exterior import end_pair_trace
    R = geo.chern_curvature(calabi_eckmann)
    assert not end_pair_trace(R, R)


def test_06_ce_bismut_connection_vanishes(calabi_eckmann):
    b = geo.bismut(calabi_eckmann)
    assert all(not x for g in b.gamma for row in g for x in row)


def test_06_ce_torsion_residual_forms(calabi_eckmann):
    # the failing first-order conditions miss by exactly (e4 - e1) ^ (...)
    # where e1 = (a1 + ab1)/2 and e4 = -(i/2)(a1 - ab1) in the real frame
    from hetmod.exterior import MixedForm
    m = calabi_eckmann
    half = Scalar.of("1/2")
    ihalf = Scalar.of("0", "1/2")
    e1 = (MixedForm.of(InvariantForm.monomial(3, [1], [], half))
          + MixedForm.of(InvariantForm.monomial(3, [], [1], half)))
    e4 = (MixedForm.of(InvariantForm.monomial(3, [1], [], -ihalf))
          + MixedForm.of(InvariantForm.monomial(3, [], [1], ihalf)))
    factor = e4 - e1
    Omega = geo.holomorphic_volume(m)
    assert geo.exterior_derivative(Omega, m) == factor.wedge(
        MixedForm.of(Omega))
    omega = geo.omega_form(m)
    om2 = omega.wedge(omega)
    assert geo.exterior_derivative(om2, m) == factor.wedge(
        MixedForm.of(om2))


@pytest.mark.xfail(
    strict=True,
    reason="the group-invariant subcomplex of this non-nilpotent group does "
           "not compute the full Dolbeault-type cohomology: the gauge block "
           "contributes an 8-dimensional invariant class in degree 1 (see "
           "the companion test below for the honest count)")
def test_06_ce_low_degree_counts_vanish(calabi_eckmann):
    data = coh.cohomology_data(calabi_eckmann, GaussRat.of(1))
    assert data["harmonic"][1] == 0


def test_06_ce_honest_invariant_counts(calabi_eckmann):
    # the honest invariant counts, with the degree-1 mechanism pinned down:
    # every class is a constant trace-free gauge endomorphism tensored with
    # the invariant antiholomorphic direction ab^1
    data = coh.cohomology_data(calabi_eckmann, GaussRat.of(1))
    assert data["h"] == [8, 8, 0, 0]
    assert data["harmonic"] == [8, 8, 0, 0]
    assert data["harmonic"][2] == 0
    M = dense(qc.assemble_Dbar(calabi_eckmann, 1).rows(GaussRat.of(1)), 42)
    ker = linalg.kernel_basis(M, cols=42)
    labels = orc.q_basis(calabi_eckmann, 1).labels
    rank_prev = linalg.rank_rows(
        qc.assemble_Dbar(calabi_eckmann, 0).rows(GaussRat.of(1)))
    assert len(ker) - rank_prev == 8
    gauge_ab1 = {i for i, lab in enumerate(labels)
                 if lab.startswith("e2:") and lab.endswith("abar{1}")}
    assert len(gauge_ab1) == 8
    for i in gauge_ab1:
        vec = [GR_ZERO] * 42
        vec[i] = GaussRat.of(1)
        assert all(not x for x in mat_vec(M, vec))


# -- (7) exact adjointness at several couplings ------------------------------

def test_07_adjoint_identity_all_models(builtins, random_flat_models):
    for m in builtins + random_flat_models:
        for p in range(3):
            D = qc.assemble_Dbar(m, p)
            Ds = qc.gram_adjoint(m, D)
            G_src = qc.gram(m, p)
            G_tgt = qc.gram(m, p + 1)
            for a0 in ALPHAS:
                Ma = dense(D.rows(a0), D.shape[1])
                Sa = dense(Ds.rows(a0), Ds.shape[1])
                lhs = linalg.mat_mul(orc.transpose(Ma), G_tgt)
                conj_S = [[x.conjugate() for x in row] for row in Sa]
                rhs = linalg.mat_mul(G_src, conj_S)
                assert lhs == rhs, (m.name, p, str(a0))


# -- (8) the volume-form duality pairing -------------------------------------

def _closed_pairs(m, a0, count, rng):
    n = m.n
    # u in ker D1 (End + T, degree 2), w in ker of the T -> T block of D_0
    op = orc.leg_block(m, qc.assemble_Dbar(m, 2), (1, 3), (1, 3))
    D1 = dense(op.rows(a0), op.shape[1])
    ker_u = linalg.kernel_basis(D1, cols=len(D1[0]))
    op = orc.leg_block(m, qc.assemble_Dbar(m, 0), (2, 3), (2, 3))
    rows_e3 = dense(op.rows(a0), op.shape[1])
    ker_w = linalg.kernel_basis(rows_e3, cols=n)
    vals = [GaussRat.of(a, b) for a in (-2, -1, 0, 1, 2) for b in (-1, 0, 1)]
    for _ in range(count):
        vec = [GR_ZERO] * len(ker_u[0])
        for b in ker_u:
            c = rng.choice(vals)
            vec = [x + c * y for x, y in zip(vec, b)]
        coords = [Scalar() for _ in range(n * 3)]
        coords += [Scalar.const(x) for x in vec]
        u = section_from_coordinates(m, 2, coords)
        wv = [GR_ZERO] * n
        for b in ker_w:
            c = rng.choice(vals)
            wv = [x + c * y for x, y in zip(wv, b)]
        w = VectorForm.build(n, 0, 0, [
            InvariantForm.monomial(n, [], [], Scalar.const(x)) if x
            else InvariantForm.zero(n, 0, 0) for x in wv])
        yield u, w


def test_08_duality_pairing_random_closed_pairs(builtins):
    rng = random.Random(20260823)
    for m in builtins:
        a0 = m.alpha_prime if m.alpha_prime is not None else GaussRat.of(1)
        for u, w in _closed_pairs(m, a0, 50, rng):
            res = orc.duality_residual(m, u.gamma, u.w, w, Scalar.const(a0))
            assert not res, m.name


# -- (9) connection identities -----------------------------------------------

def test_09_commutation_identity(builtins):
    for m in builtins:
        for j in range(m.n):
            comps = [InvariantForm.monomial(m.n, [], [])
                     if t == j else InvariantForm.zero(m.n, 0, 0)
                     for t in range(m.n)]
            w = VectorForm.build(m.n, 0, 0, comps)
            for l in range(m.n):
                assert not orc.commutation_residual(m, w, l), (m.name, j, l)


def test_09_curvature_symmetry(builtins):
    for m in builtins:
        assert orc.chern_symmetry_residual(m)["zero"], m.name


# -- (10) symbol injectivity -------------------------------------------------

def test_10_symbol_full_scan_at_zero_coupling(builtins):
    for m in builtins:
        rep = coh.injectivity_scan(m, GaussRat.of(0))
        assert rep == {"samples": 342, "injective": True}, m.name


def test_10_symbol_flat_curvature_any_coupling(iwasawa, torus):
    # with R = 0 the coupling enters the symbol trivially, so injectivity
    # holds at every coupling; spot-check several values on a sample slice
    for m in (iwasawa, torus):
        for a0 in ALPHAS + [GaussRat.of(5)]:
            rep = coh.injectivity_scan(m, a0, limit=60)
            assert rep["injective"], (m.name, str(a0))


def test_10_symbol_report_structure(iwasawa):
    rep = coh.injectivity_scan(iwasawa, GaussRat.of(0), limit=3)
    assert set(rep) == {"samples", "injective"}
    assert rep["samples"] == 3


# -- (11) local trivialization on the chart ----------------------------------

def test_11_iwasawa_trivialization_full():
    m = builtin_model("iwasawa")
    rep = cl.trivialization_report(m, degree=3)
    assert rep["potentials"] == {"gauge_potential": True,
                                 "torsion_potential": True}
    assert rep["chern_simons_transgression"] is True
    assert rep["operator_identity"]["failures"] == 0
    assert rep["operator_identity"]["sections_checked"] >= 500
    assert rep["transitions"] == {"pairs": 3, "holomorphic": True,
                                  "cocycle": True}


# -- (12) deterministic reports ----------------------------------------------

def test_12_reports_byte_stable():
    def snapshot():
        out = {}
        for name in ("iwasawa", "torus"):
            m = builtin_model(name)   # fresh caches each time
            a0 = None if name == "iwasawa" else GaussRat.of(1)
            rep = coh.cohomology_report(m, a0, symbol_limit=25)
            out[name] = json.dumps(rep, indent=2, sort_keys=True)
        m = builtin_model("iwasawa")
        out["triv"] = json.dumps(cl.trivialization_report(m, degree=1),
                                 indent=2, sort_keys=True)
        return out
    assert snapshot() == snapshot()
