"""Coordinate-wise permutations of the product carrier A^B x B.

A ``CoordAction`` sends the point (a, b), with a = (a_c) a tuple of
A-coordinates indexed by B, to (a', beta(b)) where a'_c = tau[b][c](a_c).
The image block depends only on b, and each A-coordinate transforms
independently given b.  This class of permutations is closed under
composition and inversion, and its normalized Hamming distances factorize:
for fixed b the coordinates are independent, so the agreeing fraction of the
fiber over b is a product of per-coordinate agreement fractions.  That makes
exact metric evaluation possible on carriers of size |A|^|B| * |B| that could
never be materialized.

Sparsity is canonical: tau is a mapping block -> coordinate -> permutation
that stores no identity permutations and no empty blocks, so structural
equality is semantic equality.

``expand_explicit`` is the brute-force oracle.  Its point encoding is fixed:
point (a, b) has index  b * |A|^|B| + sum_c a_c * |A|^c  with coordinates
c = 0, ..., |B|-1 ascending.  Nothing else depends on this encoding.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .perm import Permutation, draw_permutation

EXPANSION_CAP = 10**6

Tau = dict[int, dict[int, Permutation]]


@dataclass(frozen=True)
class CoordAction:
    a_size: int
    b_size: int
    beta: Permutation
    tau: Tau  # block -> coordinate -> lamp permutation; never mutated

    def __post_init__(self):
        if self.a_size < 1 or self.b_size < 1:
            raise ValueError("sizes must be >= 1")
        if self.beta.degree != self.b_size:
            raise ValueError(f"carrier mismatch: beta degree {self.beta.degree}, expected {self.b_size}")
        for b, entries in self.tau.items():
            if not 0 <= b < self.b_size or not entries:
                raise ValueError(f"bad tau block {b}")
            for c, p in entries.items():
                if not 0 <= c < self.b_size:
                    raise ValueError(f"bad coordinate {c}")
                if p.degree != self.a_size:
                    raise ValueError(f"carrier mismatch: tau[{b}][{c}] degree {p.degree}, expected {self.a_size}")
                if p.is_identity():
                    raise ValueError(f"non-canonical tau: identity stored at [{b}][{c}]")

    def tau_map(self) -> Tau:
        return self.tau

    def is_identity(self) -> bool:
        return self.beta.is_identity() and not self.tau

    def carrier_size(self) -> int:
        return self.a_size**self.b_size * self.b_size

    def __mul__(self, other: "CoordAction") -> "CoordAction":
        return compose_actions(self, other)

    def inverse(self) -> "CoordAction":
        tau = {
            self.beta(b): {c: p.inverse() for c, p in entries.items()}
            for b, entries in self.tau.items()
        }
        return CoordAction(self.a_size, self.b_size, self.beta.inverse(), tau)

    def distance(self, other: "CoordAction") -> Fraction:
        return action_distance(self, other)

    def fixed_fraction(self) -> Fraction:
        return fixed_fraction(self)

    def apply(self, a: tuple[int, ...], b: int) -> tuple[tuple[int, ...], int]:
        """Act on one explicit point; used by tests and the oracle."""
        entries = self.tau.get(b, {})
        image = tuple(entries[c](x) if c in entries else x for c, x in enumerate(a))
        return image, self.beta(b)

    def to_json(self) -> dict:
        return {
            "a_size": self.a_size,
            "b_size": self.b_size,
            "beta": list(self.beta.image),
            "tau": [
                [b, [[c, list(p.image)] for c, p in sorted(self.tau[b].items())]]
                for b in sorted(self.tau)
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CoordAction":
        tau = {
            b: {c: Permutation(tuple(img)) for c, img in entries} for b, entries in data["tau"]
        }
        return coord_action(data["a_size"], data["b_size"], Permutation(tuple(data["beta"])), tau)


def coord_action(a_size: int, b_size: int, beta: Permutation | None = None, tau=None) -> CoordAction:
    """Canonicalizing constructor: prunes identity entries and empty blocks."""
    if beta is None:
        beta = Permutation.identity(b_size)
    canonical = {}
    for b, entries in (tau or {}).items():
        kept = {c: p for c, p in entries.items() if not p.is_identity()}
        if kept:
            canonical[b] = kept
    return CoordAction(a_size, b_size, beta, canonical)


def identity_action(a_size: int, b_size: int) -> CoordAction:
    return coord_action(a_size, b_size)


def _check_sizes(w: CoordAction, v: CoordAction):
    if (w.a_size, w.b_size) != (v.a_size, v.b_size):
        raise ValueError(
            f"carrier mismatch: ({w.a_size}, {w.b_size}) vs ({v.a_size}, {v.b_size})"
        )


def compose_actions(second: CoordAction, first: CoordAction) -> CoordAction:
    """The action "first, then second"; cost O(|B| * sparsity * |A|)."""
    _check_sizes(second, first)
    tau = {}
    for b in set(first.tau) | {b for b in range(first.b_size) if first.beta(b) in second.tau}:
        one = first.tau.get(b, {})
        entries = dict(one)
        for c, p2 in second.tau.get(first.beta(b), {}).items():
            p1 = one.get(c)
            entries[c] = p2 if p1 is None else p2 * p1
        tau[b] = entries
    return coord_action(first.a_size, first.b_size, second.beta * first.beta, tau)


def _pair_agreement(p: Permutation | None, q: Permutation | None, a_size: int) -> Fraction:
    if p is None:
        p, q = q, p
    if q is None:
        return Fraction(p.fixed_points(), a_size)
    return p.agreement(q)


def action_distance(w: CoordAction, v: CoordAction) -> Fraction:
    """Exact normalized Hamming distance on the carrier A^B x B.

    Blocks where the two base images differ disagree on their whole fiber.
    Where they agree, the agreeing fraction of the fiber is the product over
    coordinates of the per-coordinate agreement fractions (absent entries are
    the identity).  All arithmetic is over denominators bounded by |A|.
    """
    _check_sizes(w, v)
    agree = Fraction(0)
    for b in range(w.b_size):
        if w.beta(b) != v.beta(b):
            continue
        one, two = w.tau.get(b, {}), v.tau.get(b, {})
        fiber = Fraction(1)
        for c in set(one) | set(two):
            fiber *= _pair_agreement(one.get(c), two.get(c), w.a_size)
            if fiber == 0:
                break
        agree += fiber
    return 1 - agree / w.b_size


def fixed_fraction(w: CoordAction) -> Fraction:
    """Fraction of carrier points fixed by w; equals 1 - distance to identity."""
    return 1 - action_distance(w, identity_action(w.a_size, w.b_size))


def expand_explicit(w: CoordAction, cap: int = EXPANSION_CAP) -> Permutation:
    """Materialize w as a permutation of b * |A|^|B| + sum_c a_c * |A|^c."""
    a_space = w.a_size**w.b_size
    total = a_space * w.b_size
    if total > cap:
        raise ValueError(f"carrier too large for expansion: {total} > cap {cap}")
    pow_a = [w.a_size**c for c in range(w.b_size)]
    image = [0] * total
    for b in range(w.b_size):
        src = b * a_space
        dst = w.beta(b) * a_space
        entries = [(pow_a[c], w.a_size, p.image) for c, p in w.tau.get(b, {}).items()]
        if not entries:
            for t in range(a_space):
                image[src + t] = dst + t
            continue
        for t in range(a_space):
            shifted = t
            for pw, base, img in entries:
                digit = (t // pw) % base
                shifted += (img[digit] - digit) * pw
            image[src + t] = dst + shifted
    return Permutation(tuple(image))


def random_coord_action(a_size: int, b_size: int, rng: random.Random, density: float = 0.5) -> CoordAction:
    """Random instance for property tests: seeded, canonical by construction."""
    beta = draw_permutation(b_size, rng)
    tau = {}
    if a_size >= 2:
        for b in range(b_size):
            entries = {
                c: draw_permutation(a_size, rng)
                for c in range(b_size)
                if rng.random() < density
            }
            if entries:
                tau[b] = entries
    return coord_action(a_size, b_size, beta, tau)
