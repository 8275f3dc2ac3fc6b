"""Reference implementations that tests compare the library against.

``action_distance`` multiplies one ``Fraction`` per coordinate and adds one
per block, where the library sums integer counts; ``compose_actions`` copies
every entry and lets ``coord_action`` prune identities, where the library
prunes only real products; ``check_bijection`` is the ``seen``-list walk that
any faster bijection check in ``Permutation`` must agree with;
``check_coord_action`` restates ``CoordAction``'s check, for the values that
``compose_actions`` and ``lamp_action`` build unchecked; ``apply`` acts on one
explicit point of the carrier; ``inverse_action`` inverts every entry and
the base, which only tests need.  They follow the definitions term by term and
are slower.  ``expand_explicit`` computes the image of each carrier point
digit by digit, where the library builds each block's fiber as a product of
per-coordinate maps.
"""
from fractions import Fraction

from soficwreath.bigperm import EXPANSION_CAP, CoordAction, coord_action
from soficwreath.perm import Permutation


def check_bijection(image: tuple) -> None:
    """Raise exactly what ``Permutation`` raises for an invalid image."""
    n = len(image)
    if n == 0:
        raise ValueError("empty carrier")
    seen = [False] * n
    for x in image:
        if not isinstance(x, int) or not 0 <= x < n or seen[x]:
            raise ValueError(f"not a bijection of range({n}): {image}")
        seen[x] = True


def check_coord_action(a_size: int, b_size: int, beta: Permutation, tau) -> None:
    """Raise exactly what ``CoordAction`` raises for invalid fields."""
    if a_size < 1:  # a b_size < 1 fails the beta check, as no permutation has degree 0
        raise ValueError("sizes must be >= 1")
    if beta.degree != b_size:
        raise ValueError(f"carrier mismatch: beta degree {beta.degree}, expected {b_size}")
    for b, entries in tau.items():
        if not 0 <= b < b_size or not entries:
            raise ValueError(f"bad tau block {b}")
        for c, p in entries.items():
            if not 0 <= c < b_size:
                raise ValueError(f"bad coordinate {c}")
            if p.degree != a_size:
                raise ValueError(f"carrier mismatch: tau[{b}][{c}] degree {p.degree}, expected {a_size}")
            if p.is_identity():
                raise ValueError(f"non-canonical tau: identity stored at [{b}][{c}]")


def apply(w: CoordAction, a: tuple[int, ...], b: int) -> tuple[tuple[int, ...], int]:
    """Image of the point (a, b) under w, one coordinate at a time."""
    entries = w.tau.get(b, {})
    image = tuple(entries[c](x) if c in entries else x for c, x in enumerate(a))
    return image, w.beta(b)


def compose_actions(second: CoordAction, first: CoordAction) -> CoordAction:
    """The action "first, then second", canonicalized after the fact."""
    tau = {}
    for b in set(first.tau) | {b for b in range(first.b_size) if first.beta(b) in second.tau}:
        one = first.tau.get(b, {})
        entries = dict(one)
        for c, p2 in second.tau.get(first.beta(b), {}).items():
            p1 = one.get(c)
            entries[c] = p2 if p1 is None else p2 * p1
        tau[b] = entries
    return coord_action(first.a_size, first.b_size, second.beta * first.beta, tau)


def inverse_action(w: CoordAction) -> CoordAction:
    """The inverse of w: block beta(b) undoes the coordinate maps of block b."""
    tau = {w.beta(b): {c: p.inverse() for c, p in entries.items()} for b, entries in w.tau.items()}
    return CoordAction(w.a_size, w.b_size, w.beta.inverse(), tau)


def _pair_agreement(p: Permutation | None, q: Permutation | None, a_size: int) -> Fraction:
    if p is None:
        p, q = q, p
    if q is None:
        return Fraction(sum(1 for i, x in enumerate(p.image) if x == i), a_size)
    return Fraction(sum(1 for x, y in zip(p.image, q.image) if x == y), a_size)


def action_distance(w: CoordAction, v: CoordAction) -> Fraction:
    """Normalized Hamming distance as a sum over blocks of products of fractions."""
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


def expand_explicit(w: CoordAction, cap: int = EXPANSION_CAP) -> Permutation:
    """Materialize w point by point: read the digits of each index, move the
    touched ones, and place the result in the image block."""
    a_space = w.a_size**w.b_size
    total = a_space * w.b_size
    if total > cap:
        raise ValueError(f"carrier too large for expansion: {total} > cap {cap}")
    pow_a = [w.a_size**c for c in range(w.b_size)]
    image = [0] * total
    for b in range(w.b_size):
        src = b * a_space
        dst = w.beta(b) * a_space
        entries = [(pow_a[c], p.image) for c, p in w.tau.get(b, {}).items()]
        for t in range(a_space):
            shifted = t
            for pw, img in entries:
                digit = (t // pw) % w.a_size
                shifted += (img[digit] - digit) * pw
            image[src + t] = dst + shifted
    return Permutation(tuple(image))
