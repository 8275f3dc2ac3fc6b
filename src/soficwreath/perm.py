"""Permutations of {0, ..., n-1} and the normalized Hamming metric.

A permutation is stored in word form: ``image[i]`` is where point ``i`` goes.
Composition is right-to-left throughout the library: ``(s * t)(i) = s(t(i))``,
i.e. the right factor acts first.  Every distance is an exact ``Fraction``.

Three kernels on word-form tuples make every identity, product and inverse
word in the library, for ``Permutation``, ``SymmetricGroup``, the good-block
test and the oracle alike: ``points(n)``, one ``tuple(range(n))`` per degree;
``gather(image, indices)``, the word ``image[i]`` for each index; and
``invert(image)``, filled from ``points(n)``.  ``gather`` and ``invert`` check
nothing.  ``Permutation(...)`` and the public constructors check the bijection
and store picks from ``points(n)``; ``compose`` and ``inverse`` skip the check
through ``_trusted``, as products and inverses of bijections are bijections.
So every image of degree n holds the int objects of ``points(n)``, and tuple
``==``, which treats identical entries as equal, compares by pointer.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, cached_property
from operator import eq, itemgetter

from ._record import record
from .jsonutil import all_ints, is_int


@cache
def points(n: int) -> tuple[int, ...]:
    """``tuple(range(n))``, made once per degree: the entries of every image of degree n."""
    return tuple(range(n))


def gather(image: tuple, indices: tuple[int, ...]) -> tuple:
    """``image[i]`` for each i of the non-empty ``indices``, in one C-level call."""
    return itemgetter(*indices)(image) if len(indices) > 1 else (image[indices[0]],)


def invert(image: tuple[int, ...]) -> tuple[int, ...]:
    """The word form of the inverse of the bijection ``image``, filled from ``points(n)``."""
    inverse = [0] * len(image)
    for i, x in zip(points(len(image)), image):
        inverse[x] = i
    return tuple(inverse)


@record
class Permutation:
    """A bijection of {0, ..., n-1} in word form.

    >>> Permutation((1, 2, 0)) * Permutation((1, 2, 0))
    Permutation(image=(2, 0, 1))
    """

    image: tuple[int, ...]

    def __post_init__(self):
        image = self.image if isinstance(self.image, tuple) else tuple(self.image)
        n = len(image)
        if n == 0:
            raise ValueError("empty carrier")
        try:  # the picks from points(n) are the stored image; an index out of range fails here
            shared = gather(points(n), image)
        except (IndexError, TypeError):
            shared = ()
        ints = all(issubclass(t, int) for t in set(map(type, image)))
        if len(set(shared)) != n or not ints or min(image) < 0:  # a negative index would wrap
            raise ValueError(f"not a bijection of range({n}): {image}")
        object.__setattr__(self, "image", shared)

    @classmethod
    def _trusted(cls, image: tuple[int, ...]) -> "Permutation":
        p = object.__new__(cls)  # unchecked: see the module docstring
        object.__setattr__(p, "image", image)
        return p

    @property
    def degree(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._trusted(points(n)) if n >= 1 else cls(())  # cls(()) raises "empty carrier"

    def __call__(self, i: int) -> int:
        return self.image[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    @cached_property
    def _inverse(self) -> "Permutation":
        return Permutation._trusted(invert(self.image))

    def inverse(self) -> "Permutation":
        """The inverse, computed once per instance and kept: the image never changes."""
        return self._inverse

    def is_identity(self) -> bool:
        return self.image == points(len(self.image))

    def fixed_points(self) -> int:
        return sum(map(eq, self.image, points(len(self.image))))

    def distance(self, other: "Permutation") -> Fraction:
        return hamming(self, other)

    def to_json(self) -> dict:
        return {"degree": self.degree, "image": list(self.image)}

    @classmethod
    def from_json(cls, data: dict) -> "Permutation":
        if not is_int(data["degree"]) or not all_ints(data["image"]):
            raise ValueError("permutation degree and image entries must be JSON integers")
        p = cls(tuple(data["image"]))
        if p.degree != data["degree"]:
            raise ValueError(f"degree field {data['degree']} does not match image of length {p.degree}")
        return p


def _check_degrees(s: Permutation, t: Permutation):
    if len(s.image) != len(t.image):
        raise ValueError(f"carrier mismatch: degree {len(s.image)} vs {len(t.image)}")


def compose(s: Permutation, t: Permutation) -> Permutation:
    """Compose two permutations, right factor first: (s*t)(i) = s(t(i))."""
    _check_degrees(s, t)
    return Permutation._trusted(gather(s.image, t.image))


def hamming(s: Permutation, t: Permutation) -> Fraction:
    """Fraction of points where s and t disagree; equal images are at
    distance 0 after one comparison.

    >>> hamming(Permutation((1, 0, 2)), Permutation.identity(3))
    Fraction(2, 3)
    """
    if s.image == t.image:
        return Fraction(0)
    return Fraction(s.degree - agreement_count(s, t), s.degree)


def agreement_fraction(s: Permutation, t: Permutation) -> Fraction:
    """1 - hamming(s, t): the fraction of points where s and t agree."""
    return Fraction(agreement_count(s, t), s.degree)


def agreement_count(s: Permutation, t: Permutation) -> int:
    """Number of points where s and t agree, counted in one C-level pass."""
    _check_degrees(s, t)
    return sum(map(eq, s.image, t.image))


def random_permutation(degree: int, seed: int) -> Permutation:
    """Uniformly random permutation, deterministic for a fixed seed.

    A Fisher-Yates shuffle driven by ``random.Random(seed)`` (Mersenne Twister).
    """
    return draw_permutation(degree, random.Random(seed))


def draw_permutation(degree: int, rng: random.Random) -> Permutation:
    """Like random_permutation but drawing from a caller-owned stream."""
    image = list(range(degree))
    rng.shuffle(image)
    return Permutation(tuple(image))


def transposition(n: int, i: int, j: int) -> Permutation:
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"bad transposition ({i} {j}) on {n} points")
    img = list(range(n))
    img[i], img[j] = img[j], img[i]
    return Permutation(tuple(img))
