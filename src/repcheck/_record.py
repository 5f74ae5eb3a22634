"""The package's frozen value records, built without generated code.

A record's fields are the annotations of its own class body, in order; a
class attribute of that name is the field's default, and the annotation its
type check (see ``_check``), which a record with its own ``__init__`` skips.
Instances are equal only to instances of the same class with equal fields,
hash on those fields (once, on first use), print as ``Name(field=value,
...)`` and refuse assignment and deletion.  ``__post_init__`` runs once the
fields are set; it may add a derived attribute with ``object.__setattr__``.
"""

from __future__ import annotations

import builtins
import sys
from functools import cached_property
from operator import attrgetter


def _check(hint, record: type, field: str):
    """Resolved once per field, for hint a class, tuple[X, ...] or Optional[X]
    (or that text, over the record's module): a function giving None for a
    value that fits, else what the value is, down to its first misfit entry."""
    text = hint.replace(" ", "") if isinstance(hint, str) else ""
    if text.startswith("tuple[") and text.endswith(",...]"):
        entry = _check(text[6:-5], record, field)
        return lambda v: (next(("a tuple holding " + got for got in map(entry, v) if got), None)
                          if isinstance(v, tuple) else type(v).__name__)
    if text.startswith("Optional[") and text.endswith("]"):
        inner = _check(text[9:-1], record, field)
        return lambda v: None if v is None else inner(v)
    cls = vars(sys.modules[record.__module__]).get(text, vars(builtins).get(text)) if text else hint
    if issubclass(type(cls), type):  # not isinstance: Python 3.10 calls list[int] a type
        return lambda v: None if isinstance(v, cls) else type(v).__name__
    raise TypeError(f"{record.__name__}.{field}: {hint!r} is not a class, tuple[X, ...] or Optional[X]")


class Record:
    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}
        # one getter per class reads every field, for __eq__ and __hash__
        cls._key = attrgetter(*cls._fields)
        cls._checks = [(name, _check(hint, cls, name), getattr(hint, "__name__", hint))
                       for name, hint in cls.__annotations__.items()]

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__} has {len(cls._fields)} fields, got {len(args)} values")
        values = dict(zip(cls._fields, args))
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif name in cls._defaults:
                values[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        for name in kwargs:
            why = "repeated" if name in values else "unknown"
            raise TypeError(f"{cls.__name__} got {why} field {name!r}")
        for name, check, text in cls._checks:
            if got := check(values[name]):
                raise TypeError(f"{cls.__name__} {name} must be {text}, got {got}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    @cached_property
    def _hash(self) -> int:
        return hash(self._key(self))

    def __hash__(self) -> int:
        # frozen, so hashed once on first use
        return self._hash

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}: records are frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}: records are frozen")
