"""The contract of the value records: construction, defaults, freezing,
equality, hashing and repr, for every record class in src/commvar."""

import ast
from collections import Counter
from pathlib import Path

import pytest

from commvar import census, gf, matgf, typea_group, weyl
from commvar.errors import Record
from commvar.polyring import Poly

# field names in order, as the records were declared when they were dataclasses
FIELDS = {
    census.CensusLimits: ("max_classes", "max_brute"),
    census.ClassRep: ("spec", "n", "data"),
    census.DimensionFit: ("fitted", "raw", "residual"),
    census.CountReport: (
        "variety", "n", "p", "counts", "fit", "expected_dimension", "extra",
        "point_count_polynomial",
    ),
    matgf.RrefResult: ("matrix", "rank", "pivots"),
    matgf.AffineMatSpace: ("particular", "basis"),
    matgf.InvariantFactors: ("factors",),
    matgf.JordanType: ("spec", "entries"),
    typea_group.ZetaInstance: ("spec", "n", "d", "zeta"),
    typea_group.CentralCommutatorRecord: (
        "d_matrix", "rho", "commutator", "expected", "rho_order_ok",
    ),
    typea_group.SolutionCoset: ("x", "zeta", "witness", "centralizer_order"),
    typea_group.GroupDims: ("n", "d", "dim_pairs", "dim_twisted_classes"),
    weyl.WeylPair: ("p", "alpha", "beta", "a", "b"),
    weyl.BlockPair: ("p", "r", "scalars", "x", "y"),
    weyl.KernelActionRecord: (
        "p", "l_matrix", "multiplier", "multiplier_ok", "xp_matches_l", "xp_nonzero",
    ),
    weyl.SolutionFamily: ("x", "y", "degree_bound", "space"),
    weyl.ComponentDims: (
        "p", "n", "r", "dim_scalar_commutator", "dim_commuting", "pgl_components",
        "sl_dimension", "psl_times_k_components", "psl_times_k_applicable",
        "equal_dimension_exception",
    ),
}
RECORDS = list(FIELDS)
FROZEN = [cls for cls in RECORDS if cls is not census.CountReport]


def _values(cls, offset=0):
    return tuple(10 * offset + i for i in range(len(FIELDS[cls])))


def test_every_record_class_is_listed():
    listed = {cls.__name__ for cls in RECORDS}
    declared = {
        name
        for mod in (census, matgf, typea_group, weyl)
        for name, obj in vars(mod).items()
        if isinstance(obj, type) and issubclass(obj, Record) and obj is not Record
    }
    assert declared == listed and len(listed) == 17


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_in_field_order(cls):
    names, values = FIELDS[cls], _values(cls)
    rec = cls(*values)
    assert tuple(getattr(rec, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == rec
    assert cls(values[0], **dict(zip(names[1:], values[1:]))) == rec
    with pytest.raises(TypeError):
        cls(*values, 99)
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: 1})
    if cls not in (census.CensusLimits, census.CountReport):
        with pytest.raises(TypeError):
            cls(*values[:-1])


def test_defaults():
    assert census.CensusLimits() == census.CensusLimits(200_000, 1 << 26)
    assert census.CensusLimits(5) == census.CensusLimits(5, 1 << 26)
    assert census.CensusLimits(max_brute=7) == census.CensusLimits(200_000, 7)
    assert census.DEFAULT_LIMITS == census.CensusLimits()
    assert repr(census.CensusLimits()) == "CensusLimits(max_classes=200000, max_brute=67108864)"
    # records of different classes differ even with equal field values
    assert census.DimensionFit(1, 2, 3) != matgf.RrefResult(1, 2, 3)
    with pytest.raises(TypeError):
        census.CountReport("lie", 2, 2, [], None)
    a = census.CountReport("lie", 2, 2, [], None, 5)
    b = census.CountReport("lie", 2, 2, [], None, 5)
    assert a.extra == {} and a.point_count_polynomial is None
    assert a.extra is not b.extra
    a.extra["d"] = 2
    assert b.extra == {} and census.CountReport("lie", 2, 2, [], None, 5).extra == {}


def test_count_report_is_mutable_and_unhashable():
    rep = census.CountReport("lie", 2, 2, [], None, 5)
    rep.expected_dimension = 6
    rep.extra = {"d": 1}
    assert rep == census.CountReport("lie", 2, 2, [], None, 6, {"d": 1})
    with pytest.raises(TypeError):
        hash(rep)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_records_refuse_assignment(cls):
    rec = cls(*_values(cls))
    name = FIELDS[cls][0]
    with pytest.raises(AttributeError):
        setattr(rec, name, -1)
    with pytest.raises(AttributeError):
        delattr(rec, name)
    with pytest.raises(AttributeError):
        rec.not_a_field = 1
    assert getattr(rec, name) == 0


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equality_by_field_value(cls):
    a, b = cls(*_values(cls)), cls(*_values(cls))
    assert a == b and not a != b
    assert a != cls(*_values(cls, 1))
    assert a != _values(cls)
    if cls in FROZEN:
        assert hash(a) == hash(b)
        assert len({a, b, cls(*_values(cls, 1))}) == 2


def test_invariant_factors_hash_in_a_counter():
    spec = gf.field(3)
    f, g = Poly(spec, [1, 1]), Poly(spec, [2, 0, 1])
    tally = Counter([matgf.InvariantFactors((f, g)), matgf.InvariantFactors((f, g)),
                     matgf.InvariantFactors((g,))])
    assert tally[matgf.InvariantFactors((Poly(spec, [1, 1]), Poly(spec, [2, 0, 1])))] == 2
    assert len(tally) == 2
    assert list(matgf.InvariantFactors((f, g))) == [f, g]
    assert matgf.InvariantFactors((f,)) != (f,)


def test_cached_properties_leave_class_rep_equality_alone():
    spec = gf.field(2)
    m = matgf.Mat(spec, [[0, 1], [1, 1]])
    a, b = census.ClassRep.from_matrix(m), census.ClassRep.from_matrix(m)
    assert a.representative.n_rows == 2
    assert a == b and hash(a) == hash(b)
    assert "representative" not in repr(a)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr(cls):
    rec = cls(*_values(cls))
    fields = ", ".join("%s=%r" % (name, value) for name, value in zip(FIELDS[cls], _values(cls)))
    assert repr(rec) == "%s(%s)" % (cls.__name__, fields)


def test_src_generates_no_code():
    # the records share their methods; nothing in src compiles code at run time
    src = Path(census.__file__).parent
    offenders = [
        "%s:%d %s" % (path.name, node.lineno, node.func.id)
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("exec", "eval", "compile")
    ]
    assert offenders == []
