"""The reference for ``soficwreath._record.record``: a twin of each record
class made by ``dataclasses.dataclass(frozen=True)``.

``twin(cls)`` builds a new class from ``cls``'s own namespace, without the
methods ``record`` adds, and decorates it with the standard library's
dataclass; a ``private(factory)`` default becomes
``field(default_factory=factory, compare=False, repr=False)``.  The twin
keeps every other method, ``__post_init__`` included, so the two classes
differ only in how their record methods were made.  ``twin_of(x)`` is the
twin instance with the same field values.
"""
import dataclasses
from functools import lru_cache

from soficwreath._record import private

ADDED = {"__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__", "__match_args__",
         "__dict__", "__weakref__"}


@lru_cache(maxsize=None)
def twin(cls):
    namespace = {"__qualname__": cls.__qualname__}
    for name, value in vars(cls).items():
        if name not in ADDED:
            if isinstance(value, private):
                value = dataclasses.field(default_factory=value.factory, compare=False, repr=False)
            namespace[name] = value
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, cls.__bases__, namespace))


def twin_of(x):
    return twin(type(x))(*[getattr(x, name) for name in x.__match_args__])
