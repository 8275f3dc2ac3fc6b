"""``record``: the class decorator of every frozen value class in the library.

It gives a class the methods of a frozen data class of the standard
library, built from closures, so no process loads the module that makes
those (and ``inspect``, which it imports) or compiles generated source at
start-up.  The fields are the class body's annotated names, in order; none
has a default.

* ``__init__`` takes each field once, by position or by keyword, and raises
  a ``TypeError`` naming the class and its fields otherwise; then it calls
  ``self.__post_init__()`` when the class defines one, looked up at each call.
* ``__eq__`` holds only between instances of the same class with equal
  field tuples, and ``__hash__`` is the hash of that tuple.
* ``__repr__`` is ``Name(field=value, ...)``.
* Assigning or deleting an attribute raises ``FrozenError``, an
  ``AttributeError``.
* ``__match_args__`` names the fields.

A value derived from the fields belongs in a ``functools.cached_property``,
which each instance computes afresh and which is not a field.
"""
from __future__ import annotations

from operator import attrgetter


class FrozenError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


def record(cls):
    """``cls`` with the methods the module docstring lists."""
    names = tuple(cls.__annotations__)
    count, post_init = len(names), hasattr(cls, "__post_init__")
    # the class twice, then the fields: a tuple for any number of fields,
    # equal only within one class, and its [2:] is the field tuple
    row = attrgetter("__class__", "__class__", *names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            rest = names[len(args):]
            if len(args) > count or kwargs.keys() != set(rest):
                raise TypeError(f"{cls.__qualname__}({', '.join(names)}): give each field once, by position or keyword")
            args += tuple(kwargs[n] for n in rest)
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
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(names, row(self)[2:]))
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
