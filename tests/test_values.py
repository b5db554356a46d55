"""The contracts of the package's value types: frozen namedtuples that
validate, hash and compare by value, and mutable result records with their
own default containers and field-wise equality."""

from fractions import Fraction

import pytest

from crepant.cartan import CurveClass
from crepant.geometry import BaseRing, Geometry, GradedClass, default_geometry
from crepant.mckay import GroupSpec, character_table, mckay_graph
from crepant.orbifold import ConventionFlags
from crepant.quantum import QSeries
from crepant.verify import A2Solution, A2SolveResult, AffineSystem, HomReport


def frozen_values():
    geom = default_geometry(2)
    return [geom.base, GradedClass(geom.base, (Fraction(1), Fraction(0))), geom,
            CurveClass((1, 1)), ConventionFlags(), QSeries(Fraction(1)), GroupSpec("E", 6),
            character_table(GroupSpec("A", 2)), mckay_graph(GroupSpec("A", 2))]


@pytest.mark.parametrize("value", frozen_values(), ids=lambda v: type(v).__name__)
def test_fields_of_a_frozen_value_cannot_be_assigned(value):
    for name in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


@pytest.mark.parametrize("make", [
    lambda: GroupSpec("E", 6),
    lambda: default_geometry(3),
    lambda: BaseRing("projective_space", 2),
    lambda: ConventionFlags("1/(n+1)"),
], ids=["GroupSpec", "Geometry", "BaseRing", "ConventionFlags"])
def test_values_hash_and_compare_by_value(make):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_values_differ_by_any_field():
    assert GroupSpec("E", 6) != GroupSpec("E", 7)
    assert default_geometry(2) != default_geometry(2, BaseRing("point"))
    assert ConventionFlags() != ConventionFlags("1")
    assert BaseRing("projective_space", 1) != BaseRing("projective_space", 2)


def test_character_table_cache_keys_on_the_spec_value():
    assert character_table(GroupSpec("E", 6)) is character_table(GroupSpec.parse("e6"))


def test_classes_are_unhashable():
    geom = default_geometry(2)
    one = GradedClass(geom.base, (Fraction(1), Fraction(0)))
    with pytest.raises(TypeError):
        hash(one)


def test_each_datum_is_a_field_once():
    assert Geometry._fields == ("n", "base", "l", "m", "k")
    assert CurveClass._fields == ("mult",)
    assert CurveClass((1, 0, 2)).n == 3


def test_classes_have_no_tuple_arithmetic():
    # a namedtuple inherits tuple + and *, which would concatenate or repeat
    geom = default_geometry(2)
    g = GradedClass(geom.base, (Fraction(1), Fraction(0)))
    for op in (lambda: g + g, lambda: 2 * g):
        with pytest.raises(TypeError):
            op()


@pytest.mark.parametrize("value", [v for v in frozen_values() if type(v) is not QSeries],
                         ids=lambda v: type(v).__name__)
def test_value_types_have_no_tuple_arithmetic(value):
    # tuple + and * would concatenate or repeat, also with a plain tuple on
    # the left, which defers to a subclass's reflected operator
    name = type(value).__name__
    ops = [lambda: value + value, lambda: value + (1,), lambda: (1,) + value,
           lambda: value * 2, lambda: 2 * value]
    if not isinstance(value, GradedClass):  # the cup product
        ops.append(lambda: value * value)
    for op in ops:
        with pytest.raises(TypeError, match=f"^{name} has no \\+ or \\*$"):
            op()


def test_qseries_operands_are_exact_or_a_type_error():
    # QSeries keeps + and - with a QSeries or a rational constant and * by an
    # int or a Fraction; a tuple does not reach its `atoms`, and a float or a
    # string is not parsed through Fraction() onto the exact path
    series = QSeries.from_dict(Fraction(1), {(1, 1): Fraction(2)})
    ops = [lambda: (1,) + series, lambda: series + (1,), lambda: series - (1,),
           lambda: series + 0.5, lambda: 0.5 + series, lambda: series - 0.5,
           lambda: series * 0.1, lambda: 0.1 * series, lambda: series * "3",
           lambda: "3" * series, lambda: series * series]
    for op in ops:
        with pytest.raises(TypeError, match="^QSeries has no \\+ or \\*$"):
            op()
    assert series + series == 2 * series == series * Fraction(2)
    assert (series - series).is_zero() and series + 1 - 1 == series
    assert Fraction(1, 2) + series == QSeries.from_dict(Fraction(3, 2), {(1, 1): Fraction(2)})


def test_graded_classes_over_different_bases_do_not_multiply():
    one = GradedClass(BaseRing("projective_space", 1), (Fraction(1), Fraction(0)))
    other = GradedClass(BaseRing("projective_space", 2), (Fraction(1), Fraction(0), Fraction(0)))
    for a, b in ((one, other), (other, one)):
        with pytest.raises(ValueError, match="different bases"):
            a * b
    assert (one * one).coeffs == one.coeffs


def test_records_get_their_own_containers():
    a, b = HomReport(True), HomReport(True)
    a.violations.append(("1 * 1", "pure.h^0", 1))
    a.notes["det"] = "1"
    assert (b.violations, b.notes) == ([], {})
    first, second = AffineSystem(Fraction(1), []), AffineSystem(Fraction(1), [])
    first.rows.append([Fraction(1)])
    assert second.rows == []
    first, second = A2SolveResult([], []), A2SolveResult([], [])
    first.candidates.append(None)
    assert second.candidates == []


def test_affine_systems_compare_field_by_field():
    spans = [(1, 1), (1, 2), (2, 2)]
    system = AffineSystem(Fraction(1), spans, rank=1, rows=[[1, 0, 0, 2]])
    assert system == AffineSystem(Fraction(1), list(spans), 1, [[1, 0, 0, 2]])
    for field, value in [("det", Fraction(2)), ("spans", spans[:2]), ("rank", 2),
                         ("rows", [[1, 0, 0, 3]]), ("solution", {}), ("point", ()),
                         ("inconsistent", ("1 * 1", "pure.h^0", 1))]:
        other = AffineSystem(Fraction(1), spans, rank=1, rows=[[1, 0, 0, 2]])
        setattr(other, field, value)
        assert system != other, field
    assert system != HomReport(True)
    with pytest.raises(TypeError):
        hash(system)


def test_records_show_their_fields():
    assert repr(HomReport(False)) == "HomReport(passed=False, violations=[], notes={})"
    assert repr(A2Solution(1, 2, 3)) == "A2Solution(q=1, a=2, b=3)"
    assert A2Solution(1, 2, 3) == A2Solution(1, 2, 3) != A2Solution(1, 2, 4)
