"""The record classes (``scalars.Record``): construction, equality and
hashing, immutability, copy and pickle, and ``replace`` with its derived
values, on one instance of every record class of the package."""

import copy
import pickle

import pytest

from hetmod import chartlocal as cl
from hetmod import cohomology as coh
from hetmod import geometry as geo
from hetmod import qcomplex as qc
from hetmod.exterior import CovectorForm, EndForm, LegForm, VectorForm
from hetmod.models import builtin_model
from hetmod.scalars import GaussRat, Record

RECORD_CLASSES = {
    "LegForm", "VectorForm", "CovectorForm", "EndForm",
    "HomogeneousModel", "ConnectionData", "QSection", "QBasis",
    "QOperatorMatrix", "SymbolBlocks", "ChartData", "Trivialization"}


@pytest.fixture(scope="module")
def records():
    """One instance of each record class, from a fresh iwasawa."""
    m = builtin_model("iwasawa")
    t = cl.build_trivialization(m, shift=1)
    return [LegForm.zero(3, 0, 1), VectorForm.zero(3, 0, 1),
            CovectorForm.zero(3, 1, 0), m.curvature_F, m,
            geo.chern_connection(m), qc.QSection.zero(3, 2, 1),
            qc.q_basis(m, 1), qc.assemble_Dbar(m, 0),
            coh.symbol_blocks(m, GaussRat.of(-4)), t.cd, t]


def _same_fields(x):
    """A second record of x's class, made from x's fields by keyword."""
    return type(x)(**{k: getattr(x, k) for k in x._fields})


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_is_covered(records):
    assert {type(x).__name__ for x in records} == RECORD_CLASSES
    assert all(isinstance(x, Record) for x in records)
    # every record class the package defines (all its modules are loaded
    # here); a report is the dict it prints, not a record
    assert {c.__name__ for c in _subclasses(Record)
            if c.__module__.startswith("hetmod.")} == RECORD_CLASSES


def test_equal_fields_give_equal_records_and_hashes(records):
    for x in records:
        y = _same_fields(x)
        assert y == x and not y != x and y is not x, type(x)
        assert type(x)(*x._values()) == x
        if type(x) is geo.HomogeneousModel:
            with pytest.raises(TypeError):
                hash(x)
        elif type(x) is qc.QOperatorMatrix:
            # its pencil rows are dicts, so it hashes as its fields do
            with pytest.raises(TypeError):
                hash(x._values())
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(y) == hash(x) == hash(x._values()), type(x)


def test_no_equality_across_classes(records):
    for x in records:
        assert x != x._values()
        for y in records:
            if y is not x:
                assert x != y, (type(x), type(y))
    # the same fields under another class are another value
    fields = (3, 0, 1, LegForm.zero(3, 0, 1).comps)
    assert VectorForm(*fields) != CovectorForm(*fields)
    assert VectorForm(*fields) != LegForm(*fields)
    assert VectorForm(*fields) == VectorForm(*fields)


def test_unequal_fields_give_unequal_records(records):
    m, c = records[4], records[5]
    assert m.replace(name="other") != m
    assert c.replace(kind="bismut") != c


def test_frozen_records_refuse_assignment(records):
    for x in records:
        for name in x._fields[:1] + x._derived[:1] + ("new_attribute",):
            with pytest.raises(AttributeError):
                setattr(x, name, None)
            with pytest.raises(AttributeError):
                delattr(x, name)


def test_copy_and_pickle_keep_the_value(records):
    for x in records:
        for y in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x, type(x)
            for name in x._derived:
                if name not in ("_cache", "op_tables"):
                    assert getattr(y, name) == getattr(x, name), name
    t = records[-1]
    assert pickle.loads(pickle.dumps(t)).op_tables == {}


def test_constructor_arguments_and_defaults(records):
    m = records[4]
    fields = {k: getattr(m, k) for k in m._fields if k != "chart"}
    assert geo.HomogeneousModel(**fields).chart is None
    c = records[5]
    assert repr(c) == (f"ConnectionData(kind={c.kind!r}, n={c.n!r}, "
                       f"gamma={c.gamma!r}, mu={c.mu!r})")
    g, mu = c.gamma, c.mu
    assert geo.ConnectionData("chern", 3, g, mu=mu) == c
    with pytest.raises(TypeError):
        geo.ConnectionData("chern", 3, g)                   # missing
    with pytest.raises(TypeError):
        geo.ConnectionData("chern", 3, g, mu, "extra")      # too many
    with pytest.raises(TypeError):
        geo.ConnectionData("chern", 3, g, mu, kind="x")     # repeated
    with pytest.raises(TypeError):
        geo.ConnectionData("chern", 3, g, mu=mu, bad=1)     # unknown


def test_replace_rebuilds_derived_values(records):
    m, t = records[4], records[-1]
    cd = t.cd
    assert m._cache and "_cache" not in repr(m)
    m2 = m.replace(name="copy")
    assert m2.name == "copy" and m2.metric is m.metric
    assert m2._cache == {} and m2._cache is not m._cache

    # torsion-free chart data: every derived torsion component is zero
    assert any(f for row in cd.Tcomp for f in row)
    flat = cd.replace(T_chart=type(cd.T_chart).zero(*cd.T_chart.shape))
    assert not any(f for row in flat.Tcomp for f in row)
    assert flat.Fcomp == cd.Fcomp and flat.nabla_table == cd.nabla_table
    assert "Tcomp" not in repr(cd) and "nabla_table" not in repr(cd)

    # a Trivialization on the new chart data reads its derived tables
    t2 = t.replace(cd=flat)
    assert t2.D_table != t.D_table and t2.phi_table == t.phi_table
    assert t2.op_tables == {} and t2.op_tables is not t.op_tables
    t3 = t.replace(tau=tuple(tuple(-x for x in row) for row in t.tau))
    assert t3.phi_table != t.phi_table and t3.D_table == t.D_table
    assert t.replace() == t


def test_replace_refuses_derived_and_unknown_names(records):
    derived = {type(x): x._derived for x in records if x._derived}
    assert {c.__name__: d for c, d in derived.items()} == {
        "HomogeneousModel": ("_cache",),
        "ChartData": ("Tcomp", "Fcomp", "Rcomp", "nabla_dirs",
                      "nabla_table"),
        "Trivialization": ("Acomp", "D_table", "phi_table", "phi_inv_table",
                           "op_tables")}
    for x in records:
        for name in x._derived:
            with pytest.raises(ValueError, match=name):
                x.replace(**{name: {}})
        with pytest.raises(TypeError):
            x.replace(no_such_field=0)
