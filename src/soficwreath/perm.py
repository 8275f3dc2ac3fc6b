"""Permutations of {0, ..., n-1} and the normalized Hamming metric.

A permutation is stored in word form: ``image[i]`` is where point ``i`` goes.
Composition is right-to-left throughout the library: ``(s * t)(i) = s(t(i))``,
i.e. the right factor acts first.  Every distance is an exact ``Fraction``
(number of differing points over the carrier size); floating point views are
derived from those, never the other way around.  ``Permutation(...)`` and the
public constructors check the bijection; ``compose`` and ``inverse`` skip it
through ``_trusted``, as products and inverses of bijections are bijections.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import count
from operator import eq, itemgetter

from ._record import record
from .jsonutil import all_ints, is_int


@record
class Permutation:
    """A bijection of {0, ..., n-1} in word form.

    >>> Permutation((1, 2, 0)) * Permutation((1, 2, 0))
    Permutation(image=(2, 0, 1))
    """

    image: tuple[int, ...]

    def __post_init__(self):
        if not isinstance(self.image, tuple):
            object.__setattr__(self, "image", tuple(self.image))
        n = len(self.image)
        if n == 0:
            raise ValueError("empty carrier")
        seen = [False] * n
        for x in self.image:
            if not isinstance(x, int) or not 0 <= x < n or seen[x]:
                raise ValueError(f"not a bijection of range({n}): {self.image}")
            seen[x] = True

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
        return cls(tuple(range(n)))

    def __call__(self, i: int) -> int:
        return self.image[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def inverse(self) -> "Permutation":
        """The inverse, computed once per instance and kept: the image never changes."""
        inv = self.__dict__.get("_inverse")
        if inv is None:
            image = [0] * len(self.image)
            for i, x in enumerate(self.image):
                image[x] = i
            inv = self.__dict__["_inverse"] = Permutation._trusted(tuple(image))
        return inv

    def is_identity(self) -> bool:
        return all(map(eq, self.image, count()))

    def fixed_points(self) -> int:
        return sum(map(eq, self.image, count()))

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


def _gather(s: Permutation, t: Permutation) -> tuple[int, ...]:
    """The image of s * t, ``s.image[t.image[i]]`` for every i, in one C-level call."""
    _check_degrees(s, t)
    return itemgetter(*t.image)(s.image) if len(s.image) > 1 else s.image


def compose(s: Permutation, t: Permutation) -> Permutation:
    """Compose two permutations, right factor first: (s*t)(i) = s(t(i))."""
    return Permutation._trusted(_gather(s, t))


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

    Fisher-Yates shuffle driven by ``random.Random(seed)`` (Mersenne
    Twister), so the output is reproducible across runs.
    """
    return draw_permutation(degree, random.Random(seed))


def draw_permutation(degree: int, rng: random.Random) -> Permutation:
    """Like random_permutation but drawing from a caller-owned stream."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    points = list(range(degree))
    rng.shuffle(points)
    return Permutation(tuple(points))


def transposition(n: int, i: int, j: int) -> Permutation:
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValueError(f"bad transposition ({i} {j}) on {n} points")
    img = list(range(n))
    img[i], img[j] = img[j], img[i]
    return Permutation(tuple(img))
