"""The frozen value-record base and the package's records built on it."""

import dataclasses
import importlib
import inspect
import pkgutil
import re
from fractions import Fraction

import pytest

import repcheck
from repcheck._record import Record
from repcheck.characters import CharTable, trivial_character
from repcheck.classify import Family, ObstructionRecord, Verdict, Witness, family_by_name
from repcheck.groups import ConjClassPartition, GroupHom, builtin_group
from repcheck.quantum import Effect, OutcomeRecord, ProtocolTrace, PureState, bell_state
from repcheck.verify import CheckResult


class Point(Record):
    x: int
    y: int = 0


class Pair(Record):
    x: int
    y: int = 0


class Tagged(Record):
    # string annotations, as under ``from __future__ import annotations``
    tag: "str"
    parts: "tuple[int, ...]" = ()


class Nested(Record):
    rows: "tuple[tuple[int, ...], ...]"
    origin: "Optional[Point]" = None


def test_records_of_two_classes_with_equal_fields_are_unequal():
    assert Point(1, 2) == Point(1, 2)
    assert Point(1, 2) != Pair(1, 2)
    assert Point(1, 2) != (1, 2)
    assert (1, 2) != Point(1, 2)


def test_the_hash_agrees_with_equality():
    assert hash(Point(1, 2)) == hash(Point(x=1, y=2))
    assert len({Point(1, 2), Point(1, 2), Point(1, 3)}) == 2
    assert hash(PureState(bell_state().vector)) == hash(bell_state())


def test_the_repr_is_the_dataclass_format():
    assert repr(Point(1)) == "Point(x=1, y=0)"
    assert repr(Tagged(tag="a", parts=(2,))) == "Tagged(tag='a', parts=(2,))"


def test_a_record_refuses_assignment_and_deletion():
    p = Point(1, 2)
    with pytest.raises(AttributeError, match="frozen"):
        p.x = 3
    with pytest.raises(AttributeError, match="frozen"):
        p.z = 3
    with pytest.raises(AttributeError, match="frozen"):
        del p.x
    assert p == Point(1, 2)


@pytest.mark.parametrize("args,kwargs,why", [
    ((), {}, "missing field 'x'"),
    ((1,), {"z": 2}, "unknown field 'z'"),
    ((1,), {"x": 2}, "repeated field 'x'"),
    ((1, 2, 3), {}, "has 2 fields, got 3 values"),
], ids=["missing", "unknown", "repeated", "too-many"])
def test_a_missing_unknown_or_repeated_field_is_a_type_error(args, kwargs, why):
    with pytest.raises(TypeError, match=f"^Point .*{why}$"):
        Point(*args, **kwargs)


def test_a_field_that_fits_its_annotation_is_stored():
    assert Nested(((1,), ())).rows == ((1,), ())
    assert Nested((), Point(1)).origin == Point(1)
    assert Tagged("a").parts == ()


_TARGET = family_by_name("D4_125").target


@pytest.mark.parametrize("make,message", [
    (lambda: Point("1"), "Point x must be int, got str"),
    (lambda: Point(1, y=None), "Point y must be int, got NoneType"),
    (lambda: Tagged("a", [2]), "Tagged parts must be tuple[int, ...], got list"),
    (lambda: Tagged("a", (2, "3")), "Tagged parts must be tuple[int, ...], got a tuple holding str"),
    (lambda: Nested(((1,), (2, "x"))),
     "Nested rows must be tuple[tuple[int, ...], ...], got a tuple holding a tuple holding str"),
    (lambda: Nested((), 3), "Nested origin must be Optional[Point], got int"),
    (lambda: GroupHom("x", "x", "x"), "GroupHom source must be GroupTable, got str"),
    (lambda: Family(5, _TARGET), "Family name must be str, got int"),
    (lambda: Witness("chi5", "trivial", None, (0,) * 5), "Witness character must be ClassFunction, got NoneType"),
    (lambda: Verdict(Family("x", _TARGET), True, "w", (), ()), "Verdict witness must be Optional[Witness], got str"),
    (lambda: CheckResult("x", 1, "y"), "CheckResult ok must be bool, got int"),
    (lambda: ObstructionRecord("dimension", "d", ()), "ObstructionRecord kind must be ObstructionKind, got str"),
    (lambda: CharTable(builtin_group("K4"), ("chi1",), [trivial_character(builtin_group("K4"))]),
     "CharTable irreducibles must be tuple[ClassFunction, ...], got list"),
    (lambda: ConjClassPartition(((0,),), (0,), (1,), (0.0,)),
     "ConjClassPartition class_of must be tuple[int, ...], got a tuple holding float"),
], ids=["class", "class-keyword", "tuple", "tuple-entry", "nested-tuple", "optional",
        "GroupHom", "Family", "Witness", "Verdict", "CheckResult", "ObstructionRecord", "CharTable",
        "ConjClassPartition"])
def test_a_field_that_does_not_fit_its_annotation_is_a_type_error_naming_it(make, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("hint", ["list[int]", "tuple[int, str]", "Unknown", "Sequence[int]", list[int], 3])
def test_an_annotation_of_another_form_is_refused_when_the_class_is_made(hint):
    message = f"Bad.x: {hint!r} is not a class, tuple[X, ...] or Optional[X]"
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        type("Bad", (Record,), {"__annotations__": {"x": hint}, "__module__": __name__})


def test_a_class_attribute_is_the_field_default():
    assert Point(1).y == 0
    w = Witness("chi5", "trivial", trivial_character(builtin_group("D4")), (0, 0, 0, 0, 1))
    assert w.also == ()


def test_an_effect_matrix_is_derived_not_a_field():
    e = Effect("x", Fraction(1, 2), bell_state())
    assert Effect._fields == ("label", "scale", "vector")
    assert e == Effect("x", Fraction(1, 2), bell_state())
    with pytest.raises(AttributeError, match="frozen"):
        e.matrix = None
    assert "matrix" not in repr(e)


def test_only_the_two_protocol_records_are_dataclasses():
    """The records are built on Record; OutcomeRecord and ProtocolTrace stay
    dataclasses, as the benchmark's tests call dataclasses.replace on them."""
    found = set()
    for info in pkgutil.iter_modules(repcheck.__path__):
        module = importlib.import_module(f"repcheck.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.add(cls)
    assert found == {OutcomeRecord, ProtocolTrace}
