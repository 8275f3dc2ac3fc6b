"""``record``: the class decorator of every frozen value class in the library.

It gives a class the methods of a frozen data class of the standard
library, built from closures, so no process loads the module that makes
those (and ``inspect``, which it imports) or compiles generated source at
start-up.  The fields are the class body's annotated names, in order.

* ``__init__`` takes them positionally or by keyword and raises the
  ``TypeError`` of a Python ``__init__`` of that signature for a missing or
  unknown argument; then it calls ``self.__post_init__()`` when the class
  defines one, looked up at each call.
* ``__eq__`` holds only between instances of the same class with equal
  field tuples, and ``__hash__`` is the hash of that tuple.
* ``__repr__`` is ``Name(field=value, ...)``.
* Assigning or deleting an attribute raises ``FrozenError``, an
  ``AttributeError``.
* ``__match_args__`` names the fields.

A field whose default is ``private(factory)`` may be left out, gets a fresh
``factory()`` per instance, and takes no part in ``==``, ``hash`` or ``repr``.
"""
from __future__ import annotations

from operator import attrgetter


class FrozenError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


class private:
    """The default of a field outside ``==``, ``hash`` and ``repr``: each instance gets ``factory()``."""

    def __init__(self, factory):
        self.factory = factory


def _bind(cls, names, defaults, args, kwargs) -> list:
    """The field values of ``cls(*args, **kwargs)`` when not every field is
    given positionally, or the TypeError of a Python ``__init__``, checked in
    its order: keywords, then the positional count, then missing fields."""
    where = f"{cls.__qualname__}.__init__()"
    given = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in given:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
        given[name] = value
    if len(args) > len(names):
        low, high = len(names) - len(defaults) + 1, len(names) + 1  # self counts
        takes = f"from {low} to {high}" if low < high else high
        raise TypeError(f"{where} takes {takes} positional argument{'s' * (high > 1)} but {len(args) + 1} were given")
    missing = [repr(n) for n in names if n not in given and n not in defaults]
    if missing:
        *rest, last = missing
        listed = f"{', '.join(rest)}{',' * (len(rest) > 1)} and {last}" if rest else last
        raise TypeError(f"{where} missing {len(missing)} required positional argument{'s' * bool(rest)}: {listed}")
    return [given[n] if n in given else defaults[n]() for n in names]


def record(cls):
    """``cls`` with the methods the module docstring lists."""
    names = tuple(cls.__annotations__)
    defaults = {n: d.factory for n in names if isinstance(d := vars(cls).get(n), private)}
    compared = tuple(n for n in names if n not in defaults)
    count, post_init = len(names), hasattr(cls, "__post_init__")
    # the class twice, then the compared fields: a tuple for any number of
    # fields, equal only within one class, and its [2:] is the field tuple
    row = attrgetter("__class__", "__class__", *compared)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls, names, defaults, args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return row(self) == row(other)

    def __hash__(self):
        return hash(row(self)[2:])

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(compared, row(self)[2:]))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenError(f"cannot delete field {name!r}")

    for fn in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__match_args__ = names
    return cls
