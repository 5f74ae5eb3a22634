"""The frozen value-record base and the package's records built on it."""

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import repcheck
from repcheck._record import Record
from repcheck.classify import Witness
from repcheck.quantum import Effect, OutcomeRecord, ProtocolTrace, PureState, bell_state


class Point(Record):
    x: int
    y: int = 0


class Pair(Record):
    x: int
    y: int = 0


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
    assert repr(Point(x="a", y=(2,))) == "Point(x='a', y=(2,))"


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


def test_a_class_attribute_is_the_field_default():
    assert Point(1).y == 0
    w = Witness("chi5", "trivial", None, (0, 0, 0, 0, 1))
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
