"""Reference oracles for the ``sofic`` checkers and the good-block lemma,
computed point by point.

``sofic.is_sofic_approx`` builds each product rule(g) rule(h) through one
C-level gather and measures it and each margin with ``Permutation.distance``.
This module composes each product point by point, ``s.image[t.image[i]]``, and counts the moved points
of each value as the definitions read, so it shares no kernel
with ``perm``.  ``compute_good_blocks`` inverts every rule value point by point
and tests each block of the carrier with one set comprehension per pair of
positions, where ``construct.compute_good_blocks`` drops blocks in bulk and
skips a pair whose images are equal.  Tests compare the results field by
field.
"""
from fractions import Fraction

from soficwreath.construct import GoodBlock
from soficwreath.sofic import DefectReport, SoficApprox


def product_image(s, t) -> tuple:
    """The image of s * t, right factor first, one point at a time."""
    return tuple(s.image[t.image[i]] for i in range(len(t.image)))


def product_distance(s, t, u) -> Fraction:
    """d(s * t, u): the fraction of points where s(t(i)) != u(i)."""
    image = product_image(s, t)
    return Fraction(sum(1 for i, x in enumerate(image) if x != u.image[i]), len(image))


def moved_fraction(p) -> Fraction:
    """d(p, id): the fraction of points i with p(i) != i."""
    return Fraction(sum(1 for i, x in enumerate(p.image) if x != i), len(p.image))


def is_sofic_approx(s: SoficApprox, window, eps) -> DefectReport:
    eps = Fraction(eps)
    els = s.group.sort(window)
    worst, mult_witness = Fraction(0), None
    for g in els:
        for h in els:
            d = product_distance(s.evaluate(g), s.evaluate(h), s.evaluate(s.group.mul(g, h)))
            if mult_witness is None or d > worst:
                worst, mult_witness = d, (g, h)
    margin, free_witness = None, None
    for g in els:
        if not s.group.is_identity(g):
            d = moved_fraction(s.evaluate(g))
            if margin is None or d < margin:
                margin, free_witness = d, g
    return DefectReport(
        eps=eps,
        window=els,
        mult_defect=worst,
        mult_witness=mult_witness,
        free_margin=margin,
        free_witness=free_witness,
    )


def inverse_image(p) -> tuple:
    """The image of p^{-1}, point by point."""
    inv = [None] * len(p.image)
    for i, x in enumerate(p.image):
        inv[x] = i
    return tuple(inv)


def compute_good_blocks(sigma_B: SoficApprox, positions) -> GoodBlock:
    """With Q(x) = sigma_B(x)^{-1}: b is injective when the anchors Q(h) b of
    distinct positions differ, compatible when Q(h1 h2) b = Q(h2) Q(h1) b for
    all positions h1, h2."""
    base = sigma_B.group
    positions = base.sort(set(positions))
    needed = {*positions, *(base.mul(h1, h2) for h1 in positions for h2 in positions)}
    inv = {h: inverse_image(sigma_B.evaluate(h)) for h in needed}
    n = sigma_B.carrier_size

    injective = set(range(n))
    for i, h1 in enumerate(positions):
        for h2 in positions[i + 1 :]:
            q1, q2 = inv[h1], inv[h2]
            injective -= {b for b in injective if q1[b] == q2[b]}

    compatible = set(range(n))
    for h1 in positions:
        q1 = inv[h1]
        for h2 in positions:
            q2 = inv[h2]
            qp = inv[base.mul(h1, h2)]
            compatible -= {b for b in compatible if qp[b] != q2[q1[b]]}

    return GoodBlock(
        injective=frozenset(injective),
        compatible=frozenset(compatible),
        good=frozenset(injective & compatible),
    )
