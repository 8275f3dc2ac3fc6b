"""Coordinate-wise permutations of the product carrier A^B x B.

A ``CoordAction`` sends the point (a, b), with a = (a_c) a tuple of
A-coordinates indexed by B, to (a', beta(b)) where a'_c = tau[b][c](a_c).
The image block depends only on b, and each A-coordinate transforms
independently given b.  This class of permutations is closed under
composition and inversion, and its normalized Hamming distances factorize:
for fixed b the coordinates are independent, so the number of agreeing
points in the fiber over b, out of |A|^k for the k coordinates touched there,
is a product of k integer per-coordinate agreement counts.  The distance sums
those integer numerators over one common denominator and builds one
``Fraction`` per call.  That makes exact metric evaluation possible on
carriers of size |A|^|B| * |B| that could never be materialized.

Sparsity is canonical: tau maps block -> coordinate -> permutation and stores
no identity permutations and no empty blocks, so structural equality is
semantic equality: equal actions are at distance 0.  ``CoordAction(...)``
checks this; ``compose_actions`` stores neither and skips the check.

In the construction a few lamp permutations recur at most coordinates, so
each kernel does its per-permutation work once per distinct permutation
object, or pair of objects, in one call.  The tables are keyed by ``id()``,
which is sound because the operands hold every key object for the whole
call, and they are dropped when the call returns.  ``compose_actions``
reuses a block dict that only one operand touches, so actions share block
dicts: tau and its block dicts are never mutated once an action is built.

``explicit_image`` (and ``expand_explicit``) is the brute-force oracle.  Its
point encoding is fixed: point (a, b) has index  b * |A|^|B| + sum_c a_c * |A|^c
with c = 0, ..., |B|-1 ascending.  Nothing else depends on this encoding.
"""
from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import compress, count
from operator import eq

from ._record import record
from .perm import Permutation, agreement_count, compose

EXPANSION_CAP = 10**6

Tau = dict[int, dict[int, Permutation]]
_ZERO = Fraction(0)  # the distance of equal actions, shared: a Fraction is immutable


@record
class CoordAction:
    """A permutation of A^B x B: the base permutation ``beta`` and the sparse lamp maps ``tau``."""
    a_size: int
    b_size: int
    beta: Permutation
    tau: Tau  # block -> coordinate -> lamp permutation; never mutated, block dicts may be shared

    def __post_init__(self):
        if self.a_size < 1 or self.b_size < 1:
            raise ValueError("sizes must be >= 1")
        if self.beta.degree != self.b_size:
            raise ValueError(f"carrier mismatch: beta degree {self.beta.degree}, expected {self.b_size}")
        checked = set()  # ids of the entry objects whose degree and identity passed
        for b, entries in self.tau.items():
            if not 0 <= b < self.b_size or not entries:
                raise ValueError(f"bad tau block {b}")
            for c, p in entries.items():
                if not 0 <= c < self.b_size:
                    raise ValueError(f"bad coordinate {c}")
                if id(p) in checked:
                    continue
                if p.degree != self.a_size:
                    raise ValueError(f"carrier mismatch: tau[{b}][{c}] degree {p.degree}, expected {self.a_size}")
                if p.is_identity():
                    raise ValueError(f"non-canonical tau: identity stored at [{b}][{c}]")
                checked.add(id(p))

    def tau_map(self) -> Tau:
        return self.tau

    def is_identity(self) -> bool:
        return not self.tau and self.beta.is_identity()

    def __mul__(self, other: "CoordAction") -> "CoordAction":
        return compose_actions(self, other)

    def distance(self, other: "CoordAction") -> Fraction:
        return action_distance(self, other)


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
    """The action "first, then second"; cost O(|B| * sparsity * |A|).

    A block that only one side touches keeps that side's block dict, shared
    with the operand.  Where both touch a coordinate, ``compose(p2, p1)`` and
    its identity test run once per distinct pair of permutation objects, and
    each coordinate reads the result with one table lookup.  An identity
    operand returns the other one, which is immutable.
    """
    _check_sizes(second, first)
    if first.is_identity():
        return second
    if second.is_identity():
        return first
    beta = first.beta.image
    moved_into = compress(count(), map(second.tau.__contains__, beta))
    products = {}  # (id(p2), id(p1)) -> p2 * p1, or False for the identity
    tau = {}
    for b in first.tau.keys() | moved_into:
        one, two = first.tau.get(b), second.tau.get(beta[b])
        if one is None or two is None:  # one side only: already canonical
            tau[b] = one or two
            continue
        entries = dict(one)
        for c, p2 in two.items():
            p1 = entries.get(c)
            if p1 is None:  # an entry from one side only is canonical
                entries[c] = p2
                continue
            key = (id(p2), id(p1))
            if (p := products.get(key)) is None:
                p = compose(p2, p1)
                p = products[key] = not p.is_identity() and p
            if p:
                entries[c] = p
            else:
                del entries[c]
        if entries:
            tau[b] = entries
    w = object.__new__(CoordAction)  # canonical by construction: skip the check
    vars(w).update(a_size=first.a_size, b_size=first.b_size, beta=second.beta * first.beta, tau=tau)
    return w


def action_distance(w: CoordAction, v: CoordAction) -> Fraction:
    """Exact normalized Hamming distance on the carrier A^B x B.

    Equal actions are at distance 0 after one comparison, in which shared
    permutations compare by identity.  Otherwise, blocks where the two base
    images differ disagree on their whole fiber.  Where they agree, the fiber
    over a block touched at k coordinates agrees on the product of the k
    integer per-coordinate agreement counts (absent entries are the identity)
    out of |A|^k points; each distinct pair of permutation objects is counted
    once per call.  Blocks with equal base images and equal entry dicts,
    untouched ones included, agree everywhere and are counted in bulk.  The
    numerators are summed per k and divided once, over |A|^max_k * |B|.

    >>> shift = coord_action(2, 3, beta=Permutation((1, 2, 0)))
    >>> action_distance(shift, identity_action(2, 3))
    Fraction(1, 1)
    """
    _check_sizes(w, v)
    w_beta, v_beta = w.beta.image, v.beta.image
    if w_beta == v_beta and w.tau == v.tau:
        return _ZERO
    agree = Counter()  # k -> sum of fiber agreement counts out of |A|^k
    agree[0] = sum(map(eq, w_beta, v_beta))
    counts = {}  # (id(p), id(q)) -> agreement count
    for b in w.tau.keys() | v.tau.keys():
        if w_beta[b] != v_beta[b]:
            continue
        one, two = w.tau.get(b, {}), v.tau.get(b, {})
        if one == two:  # agrees on the whole fiber: stays in the bulk count
            continue
        agree[0] -= 1
        coords, fiber = one.keys() | two.keys(), 1
        for c in coords:
            p, q = one.get(c), two.get(c)  # an absent entry is the identity
            key = (id(p), id(q))
            if key not in counts:
                counts[key] = (p or q).fixed_points() if p is None or q is None else agreement_count(p, q)
            fiber *= counts[key]
            if not fiber:
                break
        if fiber:
            agree[len(coords)] += fiber
    top = max(agree)
    numerator = sum(n * w.a_size ** (top - k) for k, n in agree.items())
    denominator = w.a_size**top * w.b_size
    return Fraction(denominator - numerator, denominator)


def fixed_fraction(w: CoordAction) -> Fraction:
    """Fraction of carrier points fixed by w; equals 1 - distance to identity."""
    return 1 - action_distance(w, identity_action(w.a_size, w.b_size))


def explicit_image(w: CoordAction, cap: int = EXPANSION_CAP) -> tuple[int, ...]:
    """The image of w on b * |A|^|B| + sum_c a_c * |A|^c.  Each touched block's
    fiber is the product of its coordinate maps, built from the highest."""
    a_space = w.a_size**w.b_size
    total = a_space * w.b_size
    if total > cap:
        raise ValueError(f"carrier too large for expansion: {total} > cap {cap}")
    image = []
    for b, target in enumerate(w.beta.image):
        dst = target * a_space
        entries = w.tau.get(b)
        if entries is None:
            image.extend(range(dst, dst + a_space))
            continue
        fiber = [dst]
        for c in reversed(range(w.b_size)):
            step, p = w.a_size**c, entries.get(c)
            offsets = range(0, w.a_size * step, step) if p is None else [d * step for d in p.image]
            fiber = [x + o for x in fiber for o in offsets]
        image.extend(fiber)
    return tuple(image)


def expand_explicit(w: CoordAction, cap: int = EXPANSION_CAP) -> Permutation:
    """Materialize w as a checked permutation of b * |A|^|B| + sum_c a_c * |A|^c."""
    return Permutation(explicit_image(w, cap))
