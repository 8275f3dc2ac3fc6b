"""Groups the library manipulates.

Elements are plain hashable Python values: ints, tuples, and the
``NamedTuple`` records ``FinSuppMap`` and ``WreathElement``, which build, hash
and compare in C and so equal the plain tuple of their fields (nothing in the
library compares them with one).  A ``Group`` object owns the operations on
them.  Equality of elements is structural equality of canonical forms, so
values from two handles to the same group compare equal.

Concrete groups: cyclic, symmetric, the integers, free groups (reduced
words), Cayley-table groups, finitely supported direct sums indexed by a
group, and wreath products built from a lamp group and a base group.
"""
from __future__ import annotations

import itertools
import json
from functools import cached_property
from typing import Any, Iterable, Iterator, NamedTuple

from ._record import record
from .jsonutil import all_ints, checked, is_int
from .perm import gather, invert, points


class Group:
    """Interface: identity/mul/inv plus a deterministic total ordering key.

    ``key`` must be injective on any finite window and stable across runs;
    it fixes enumeration order everywhere downstream.  ``elements`` is only
    available for finite groups.  ``key`` and ``encode`` default to the
    element itself.
    """

    def identity(self):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def key(self, a):
        return a

    def elements(self) -> Iterator:
        raise NotImplementedError(f"{type(self).__name__} is not finitely enumerable")

    def encode(self, a):
        """JSON-compatible canonical form of an element."""
        return a

    def decode(self, data):
        raise NotImplementedError

    def show(self, a) -> str:
        """Compact JSON of ``encode(a)``, which ``decode`` reads back: how every message prints an element."""
        return json.dumps(self.encode(a), separators=(",", ":"))

    def descriptor(self) -> dict:
        raise NotImplementedError

    def sort(self, els: Iterable) -> tuple:
        return tuple(sorted(els, key=self.key))

    def is_identity(self, a) -> bool:
        return a == self.identity()


@record
class CyclicGroup(Group):
    """Z/n as the integers 0, ..., n-1 under addition mod n."""
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cyclic group order must be >= 1")

    def identity(self):
        return 0

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return (-a) % self.n

    def elements(self):
        return iter(range(self.n))

    def decode(self, data):
        if not is_int(data) or not 0 <= data < self.n:
            raise ValueError(f"not an element of cyclic({self.n}): {data!r}")
        return data

    def descriptor(self):
        return {"kind": "cyclic", "n": self.n}


@record
class SymmetricGroup(Group):
    """Permutations of {0,...,k-1} as tuples, composed right-to-left."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("symmetric group degree must be >= 1")

    def identity(self):
        return points(self.k)

    mul = staticmethod(gather)
    inv = staticmethod(invert)

    def elements(self):
        return itertools.permutations(range(self.k))

    def encode(self, a):
        return list(a)

    def decode(self, data):
        a = tuple(data)
        if not all(map(is_int, a)) or sorted(a) != list(range(self.k)):
            raise ValueError(f"not an element of symmetric({self.k}): {data!r}")
        return a

    def descriptor(self):
        return {"kind": "symmetric", "k": self.k}


@record
class IntegerGroup(Group):
    """The integers under addition."""
    def identity(self):
        return 0

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def decode(self, data):
        if not is_int(data):
            raise ValueError(f"not an integer: {data!r}")
        return data

    def descriptor(self):
        return {"kind": "integers"}


@record
class FreeGroup(Group):
    """Free group of the given rank.

    Elements are reduced words: tuples of nonzero letters, letter ``+i``
    standing for generator ``i-1`` and ``-i`` for its inverse.  Multiplying
    always reduces, so equality is structural.
    """

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("free group rank must be >= 1")

    def identity(self):
        return ()

    def mul(self, a, b):
        out = list(a)
        for letter in b:
            if out and out[-1] == -letter:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def inv(self, a):
        return tuple(-letter for letter in reversed(a))

    def key(self, a):
        return (len(a), a)

    def ball(self, radius: int) -> tuple:
        """All reduced words of length <= radius, in key order."""
        words = {()}
        frontier = [()]
        letters = [i for i in range(1, self.rank + 1)] + [-i for i in range(1, self.rank + 1)]
        for _ in range(radius):
            frontier = [
                w
                for prev in frontier
                for letter in letters
                if len(w := self.mul(prev, (letter,))) == len(prev) + 1
            ]
            words.update(frontier)
        return self.sort(words)

    def encode(self, a):
        return list(a)

    def decode(self, data):
        word = tuple(data)
        for x, y in zip(word, word[1:]):
            if x == -y:
                raise ValueError(f"word not reduced: {data!r}")
        for letter in word:
            if not is_int(letter) or letter == 0 or abs(letter) > self.rank:
                raise ValueError(f"bad letter {letter!r} for rank {self.rank}")
        return word

    def descriptor(self):
        return {"kind": "free", "rank": self.rank}


@record
class TableGroup(Group):
    """Finite group given by its Cayley table: table[a][b] = a*b.  Any
    iterable of rows is accepted and stored as a tuple of tuples."""

    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        n = len(self.table)
        full = set(range(n))
        for i, row in enumerate(self.table):
            if len(row) != n or set(row) != full:
                raise ValueError(f"invalid Cayley table: row {i} is not a bijection")
        for j in range(n):
            if {row[j] for row in self.table} != full:
                raise ValueError(f"invalid Cayley table: column {j} is not a bijection")
        self._identity_index  # force identity lookup so bad tables fail fast

    @cached_property
    def _identity_index(self) -> int:
        n = len(self.table)
        for e in range(n):
            if all(self.table[e][x] == x for x in range(n)) and all(
                self.table[x][e] == x for x in range(n)
            ):
                return e
        raise ValueError("invalid Cayley table: no two-sided identity")

    def identity(self):
        return self._identity_index

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.table[a].index(self._identity_index)  # rows are bijections

    def elements(self):
        return iter(range(len(self.table)))

    def decode(self, data):
        if not is_int(data) or not 0 <= data < len(self.table):
            raise ValueError(f"not an element index: {data!r}")
        return data

    def descriptor(self):
        return {"kind": "table", "table": [list(r) for r in self.table]}


class FinSuppMap(NamedTuple):
    """Finitely supported map from a base group's index set into a lamp group.

    Canonical form: entries sorted by the index group's key, values never the
    lamp identity.  ``DirectSum.make`` canonicalises any mapping, and the
    ``DirectSum`` operations return canonical maps; build through those
    rather than directly.
    """

    entries: tuple[tuple[Any, Any], ...]

    def support(self) -> tuple:
        return tuple(x for x, _ in self.entries)

    def is_identity(self) -> bool:
        return not self.entries


@record
class DirectSum(Group):
    """Finitely supported maps index -> lamp under pointwise multiplication."""

    lamp: Group
    index: Group

    def make(self, mapping) -> FinSuppMap:
        items = mapping.items() if hasattr(mapping, "items") else mapping
        out = {}
        for x, g in items:
            if x in out:
                raise ValueError(f"duplicate index {x!r}")
            if not self.lamp.is_identity(g):
                out[x] = g
        return FinSuppMap(tuple(sorted(out.items(), key=lambda item: self.index.key(item[0]))))

    def identity(self):
        return FinSuppMap(())

    def mul(self, a: FinSuppMap, b: FinSuppMap) -> FinSuppMap:
        return self.mul_shift(a, self.index.identity(), b)

    def inv(self, a: FinSuppMap) -> FinSuppMap:
        return self.make({x: self.lamp.inv(g) for x, g in a.entries})

    def shift(self, h, a: FinSuppMap) -> FinSuppMap:
        """Translate the support: the result maps h*x to a(x).

        Equivalently result(y) = a(h^{-1} y); this is the index-shift action
        of the base group by automorphisms.
        """
        return self.mul_shift(self.identity(), h, a)

    def mul_shift(self, a: FinSuppMap, h, b: FinSuppMap) -> FinSuppMap:
        """The lamp product ``a * shift(h, b)`` in one pass and one sort.

        Pointwise, result(y) = a(y) * b(h^{-1} y).  ``mul`` is the case h = 1,
        ``shift`` the case a = 1, and ``WreathProduct.mul`` the general one.

        >>> lamps = DirectSum(cyclic(3), integers())
        >>> a, b = lamps.make({0: 1, 5: 2}), lamps.make({-1: 2, 3: 1})
        >>> lamps.mul_shift(a, 1, b).entries  # 1 + 2 = 0 at index 0
        ((4, 1), (5, 2))
        >>> lamps.mul_shift(a, 1, b) == lamps.mul(a, lamps.shift(1, b))
        True
        """
        lamp, index = self.lamp, self.index
        out = dict(a.entries)
        for x, g in b.entries:
            y = index.mul(h, x)
            out[y] = lamp.mul(out[y], g) if y in out else g
            if lamp.is_identity(out[y]):
                del out[y]
        return FinSuppMap(tuple(sorted(out.items(), key=lambda item: index.key(item[0]))))

    def key(self, a: FinSuppMap):
        return tuple((self.index.key(x), self.lamp.key(g)) for x, g in a.entries)

    def elements(self):
        idx = tuple(self.index.sort(self.index.elements()))
        for values in itertools.product(tuple(self.lamp.elements()), repeat=len(idx)):
            yield self.make(zip(idx, values))

    def encode(self, a: FinSuppMap):
        return [[self.index.encode(x), self.lamp.encode(g)] for x, g in a.entries]

    def decode(self, data):
        return self.make([(self.index.decode(x), self.lamp.decode(g)) for x, g in data])

    def descriptor(self):
        return {"kind": "direct-sum", "lamp": self.lamp.descriptor(), "index": self.index.descriptor()}


class WreathElement(NamedTuple):
    """A lamp configuration together with a base-group element."""

    left: FinSuppMap
    right: Any


@record
class WreathProduct(Group):
    """Wreath product of a lamp group by a base group.

    The product twists the right factor's lamps by the left factor's base
    element: (f, h)(f', h') = (f * shift_h(f'), h h').
    """

    lamp: Group
    base: Group

    @cached_property
    def lamps(self) -> DirectSum:
        return DirectSum(self.lamp, self.base)

    def element(self, mapping, h) -> WreathElement:
        left = mapping if isinstance(mapping, FinSuppMap) else self.lamps.make(mapping)
        return WreathElement(left, h)

    def identity(self):
        return WreathElement(self.lamps.identity(), self.base.identity())

    def mul(self, a: WreathElement, b: WreathElement) -> WreathElement:
        return WreathElement(self.lamps.mul_shift(a.left, a.right, b.left), self.base.mul(a.right, b.right))

    def inv(self, a: WreathElement) -> WreathElement:
        h_inv = self.base.inv(a.right)
        return WreathElement(self.lamps.shift(h_inv, self.lamps.inv(a.left)), h_inv)

    def key(self, a: WreathElement):
        return (self.base.key(a.right), self.lamps.key(a.left))

    def elements(self):
        for h in self.base.sort(self.base.elements()):
            for f in self.lamps.elements():
                yield WreathElement(f, h)

    def encode(self, a: WreathElement):
        return {"left": self.lamps.encode(a.left), "right": self.base.encode(a.right)}

    def decode(self, data):
        return WreathElement(self.lamps.decode(data["left"]), self.base.decode(data["right"]))

    def descriptor(self):
        return {"kind": "wreath", "lamp": self.lamp.descriptor(), "base": self.base.descriptor()}


# the public names are the classes, which check their own arguments
cyclic, symmetric, integers, free = CyclicGroup, SymmetricGroup, IntegerGroup, FreeGroup
finite_from_table, wreath_product = TableGroup, WreathProduct


def _is_table(table) -> bool:
    return isinstance(table, list) and all(isinstance(row, list) and all_ints(row) for row in table)


_KINDS = {
    "cyclic": lambda d: cyclic(checked(d["n"], is_int, "group n", "an integer")),
    "symmetric": lambda d: symmetric(checked(d["k"], is_int, "group k", "an integer")),
    "integers": lambda d: integers(),
    "free": lambda d: free(checked(d["rank"], is_int, "group rank", "an integer")),
    "table": lambda d: finite_from_table(checked(d["table"], _is_table, "group table", "a list of lists of integers")),
    "direct-sum": lambda d: DirectSum(group_from_descriptor(d["lamp"]), group_from_descriptor(d["index"])),
    "wreath": lambda d: WreathProduct(group_from_descriptor(d["lamp"]), group_from_descriptor(d["base"])),
}


def group_from_descriptor(desc: dict) -> Group:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise ValueError(f"bad group descriptor: {desc!r}")
    kind = desc["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown group kind {kind!r}")
    return _KINDS[kind](desc)
