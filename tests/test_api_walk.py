"""The public API refuses wrong-type input with a TypeError or a ValueError.

One walk covers every public function and class of six modules, and every
public method of one instance of each value class: each is called with a
str, a tuple, None and a float in every required positional slot (one slot
when all have defaults).  A callable with no positional parameter has no
input to refuse and is skipped.  Dunder methods are not walked: an
operator returns NotImplemented and ``m[i]`` raises IndexError, which is
Python's protocol.  A new public callable is covered without a new test.
"""

import inspect
from enum import Enum

from repcheck import characters, classify, cyclo, groups, matrices, quantum
from repcheck._record import Record
from repcheck.characters import char_table, trivial_character
from repcheck.classify import classify as classify_family, family_by_name
from repcheck.cyclo import ONE, ZERO
from repcheck.groups import builtin_group, central_quotient, conjugacy_classes
from repcheck.quantum import PureState, bell_state, pauli, povm_construction, teleport

MODULES = (cyclo, groups, characters, classify, matrices, quantum)
BAD = ("x", (1, 2), None, 1.5)

_RECORD = "a plain record stores its fields unchecked; the package builds it"
_INTS = "int entries are valid input by design"
_MISS = "a lookup by an unknown name or label misses"
# callable -> (the bad values, the outcome allowed instead of a refusal, why)
ALLOWED = {
    **{name: (BAD, "returns", _RECORD)
       for name in ("groups.ConjClassPartition", "groups.GroupHom", "characters.CharTable",
                    "classify.ObstructionRecord", "classify.Witness", "classify.Verdict",
                    "quantum.OutcomeRecord", "quantum.ProtocolTrace")},
    "matrices.outer": (((1, 2),), "returns", _INTS),
    "ExactMatrix.diag": (((1, 2),), "returns", _INTS),
    "classify.family_by_name": (("x",), "KeyError", _MISS),
    "ProtocolTrace.by_label": (BAD, "KeyError", _MISS),
}
_ALLOWED_OUTCOME = {(name, bad): outcome for name, (bads, outcome, _) in ALLOWED.items() for bad in bads}


def _arity(obj) -> int:
    """How many bad values to pass: each required positional parameter, or
    one when every positional parameter has a default."""
    if isinstance(obj, type) and issubclass(obj, Record):
        return sum(name not in obj._defaults for name in obj._fields) or 1
    params = [p for p in inspect.signature(obj).parameters.values()
              if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    if not params:
        return 0
    return sum(p.default is p.empty for p in params) or 1


def _public_callables():
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in vars(mod).items():
            if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type) and issubclass(obj, BaseException):
                continue
            yield f"{short}.{name}", obj


def _one_instance_each() -> list:
    d4 = builtin_group("D4")
    obstructed = classify_family(family_by_name("D4_135"))
    trace = teleport(PureState((ONE, ZERO)))
    effects, inst = povm_construction()
    return [
        cyclo.CycloNum(1, 2), d4, conjugacy_classes(d4), central_quotient(d4, builtin_group("K4")),
        trivial_character(d4), char_table(d4), obstructed.obstructions[0], obstructed.family,
        classify_family(family_by_name("D4_125")).witness, obstructed, pauli(2), bell_state(),
        trace.outcomes[0], trace, effects[0], inst,
    ]


def _public_methods(instances):
    for x in instances:
        for name in dir(x):
            method = getattr(x, name)
            if not name.startswith("_") and callable(method) and not isinstance(method, type):
                yield f"{type(x).__name__}.{name}", method


def _outcome(fn, args) -> str:
    try:
        fn(*args)
    except (TypeError, ValueError):
        return "refused"
    except Exception as exc:  # noqa: BLE001 - the outcome is what is checked
        return type(exc).__name__
    return "returns"


def test_every_public_callable_refuses_wrong_types():
    instances = _one_instance_each()
    value_classes = {obj for _, obj in _public_callables()
                     if isinstance(obj, type) and not issubclass(obj, Enum)}
    assert value_classes == {type(x) for x in instances}, "one instance per value class"

    walked, outcomes = set(), {}
    for name, fn in [*_public_callables(), *_public_methods(instances)]:
        n = _arity(fn)
        if n:
            walked.add(name)
            for bad in BAD:
                outcomes[name, bad] = _outcome(fn, [bad] * n)
    unexpected = {case: got for case, got in outcomes.items()
                  if got != "refused" and _ALLOWED_OUTCOME.get(case) != got}
    assert unexpected == {}
    # every allowed case is one the walk meets, so the list cannot go stale
    assert {case for case, allowed in _ALLOWED_OUTCOME.items() if outcomes.get(case) != allowed} == set()
    assert {"groups.find_isomorphism", "quantum.matrix_group_mod_phases",
            "quantum.iterate_swap_detailed", "GroupTable.element_order"} <= walked
