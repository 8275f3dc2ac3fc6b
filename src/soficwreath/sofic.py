"""Sofic approximations: windowed rules group -> Sym(carrier) and their checkers.

A ``SoficApprox`` maps each element of an explicit finite window to a
permutation of a common carrier.  Evaluating outside the window is an error,
never a silent identity; the one place the theory extends by the identity is
the lamp action in ``construct`` and it does so explicitly.

The one checker, ``is_sofic_approx``, measures with exact rationals how far
a rule is from a free action by a homomorphism on a given window, and
``sofic_verdict`` is the one pass rule on what it measures:

* multiplicative: max over pairs of d(rule(g) rule(h), rule(gh)) < eps;
* free: min over non-identity g of d(rule(g), id) > 1 - eps;
* rule(1) = id, which ``SoficApprox`` enforces on a window that holds 1.

All inequalities are strict and compared as exact ``Fraction`` values.  The
pair defects are counted as agreeing points and build no product.
``require_sofic`` raises ``CertificateError`` naming each part that fails.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Any, Mapping

from .groups import Group, FreeGroup, group_from_descriptor, integers
from .jsonutil import checked, is_positive_int
from .perm import Permutation, product_agreement, transposition


class WindowViolationError(ValueError):
    """An evaluation or check needed an element outside the declared window."""


class CertificateError(RuntimeError):
    """An approximation failed a certificate it was required to hold."""


@dataclass(frozen=True)
class SoficApprox:
    """A rule from a finite window of a group to permutations of one carrier."""
    group: Group
    carrier_size: int
    window: frozenset
    rule: Mapping[Any, Permutation]

    def __post_init__(self):
        if set(self.rule) != set(self.window):
            raise ValueError("rule must be defined exactly on the window")
        for g, p in self.rule.items():
            if p.degree != self.carrier_size:
                raise ValueError(f"carrier mismatch: rule({g!r}) has degree {p.degree}, expected {self.carrier_size}")
        ident = self.group.identity()
        if ident in self.window and not self.rule[ident].is_identity():
            raise ValueError("rule(identity) must be the identity permutation")

    def evaluate(self, g) -> Permutation:
        if g not in self.window:
            raise WindowViolationError(f"element {g!r} outside the declared window")
        return self.rule[g]

    def sorted_window(self) -> tuple:
        return self.group.sort(self.window)

    def to_json(self) -> dict:
        window = self.sorted_window()
        return {
            "group": self.group.descriptor(),
            "carrier_size": self.carrier_size,
            "window": [self.group.encode(g) for g in window],
            "rule": [[self.group.encode(g), self.evaluate(g).to_json()] for g in window],
        }

    @classmethod
    def from_json(cls, data: dict) -> "SoficApprox":
        group = group_from_descriptor(data["group"])
        carrier_size = checked(data["carrier_size"], is_positive_int, "carrier_size", "a positive integer")
        rule, window = {}, set()
        for k, p in data["rule"]:
            rule[_new_element(group, k, rule, "rule")] = Permutation.from_json(p)
        for k in data["window"]:
            window.add(_new_element(group, k, window, "window"))
        return cls(group, carrier_size, frozenset(window), rule)


def _new_element(group: Group, data, seen, what: str):
    """Decode an element that ``seen`` must not hold yet: a rule listing one
    twice would otherwise keep its last entry without a word."""
    g = group.decode(data)
    if g in seen:
        raise ValueError(f"element {data!r} is listed twice in an approximation's {what}")
    return g


@dataclass(frozen=True)
class DefectReport:
    """Exact evidence for a (window, eps) sofic check, with witnesses.

    The multiplicative defect is the worst pair distance, the freeness margin
    the smallest distance to the identity over non-identity elements (None
    when the window holds none).
    """

    eps: Fraction
    window: tuple
    mult_defect: Fraction
    mult_witness: tuple | None
    free_margin: Fraction | None
    free_witness: Any

    @property
    def passed(self) -> bool:
        margins = () if self.free_margin is None else (self.free_margin,)
        return sofic_verdict(True, (self.mult_defect,), margins, self.eps)


def sofic_verdict(identity_pass: bool, defects, margins, eps: Fraction) -> bool:
    """The one pass rule of a certificate on its measured numbers: rule(1) =
    id, every pair defect < eps and every freeness margin > 1 - eps."""
    return identity_pass and all(d < eps for d in defects) and all(m > 1 - eps for m in margins)


def _require_window(s: SoficApprox, needed, what: str):
    missing = [g for g in needed if g not in s.window]
    if missing:
        raise WindowViolationError(f"{what} needs elements outside the window: {missing[:5]!r}")


def is_sofic_approx(s: SoficApprox, window, eps: Fraction) -> DefectReport:
    """Measure the rule on the window: the worst d(rule(g) rule(h), rule(gh))
    over pairs and the least d(rule(g), id) over non-identity g.

    Each pair is counted with ``product_agreement``, which builds no product.
    On a tie the witness is the first extreme in sorted order.
    """
    eps = Fraction(eps)
    if s.group.identity() not in s.window:
        raise WindowViolationError("sofic check needs the identity inside the window")
    els = s.group.sort(window)
    _require_window(s, els, "sofic check")
    products = [(g, h, s.group.mul(g, h)) for g in els for h in els]
    _require_window(s, (gh for _, _, gh in products), "sofic check (products)")
    fewest, mult_witness = min(
        ((product_agreement(s.evaluate(g), s.evaluate(h), s.evaluate(gh)), (g, h)) for g, h, gh in products),
        key=itemgetter(0),
        default=(s.carrier_size, None),
    )
    identity = Permutation.identity(s.carrier_size)
    free_margin, free_witness = min(
        ((s.evaluate(g).distance(identity), g) for g in els if not s.group.is_identity(g)),
        key=itemgetter(0),
        default=(None, None),
    )
    return DefectReport(
        eps=eps,
        window=els,
        mult_defect=1 - Fraction(fewest, s.carrier_size),
        mult_witness=mult_witness,
        free_margin=free_margin,
        free_witness=free_witness,
    )


def require_sofic(s: SoficApprox, window, eps: Fraction, label: str) -> DefectReport:
    report = is_sofic_approx(s, window, eps)
    if not report.passed:
        parts = []
        if not report.mult_defect < report.eps:
            parts.append(f"multiplicative defect {report.mult_defect} at pair {report.mult_witness!r}")
        if report.free_margin is not None and not report.free_margin > 1 - report.eps:
            parts.append(f"freeness margin {report.free_margin} at {report.free_witness!r}")
        raise CertificateError(f"{label} fails its ({len(report.window)}-element window, {eps}) certificate: " + "; ".join(parts))
    return report


# ---------------------------------------------------------------------------
# generators


def regular_rep(group: Group) -> SoficApprox:
    """Left multiplication of a finite group on itself, in key order."""
    els = group.sort(group.elements())
    index = {g: i for i, g in enumerate(els)}
    rule = {g: Permutation(tuple(index[group.mul(g, x)] for x in els)) for g in els}
    return SoficApprox(group, len(els), frozenset(els), rule)


def cyclic_quotient(n: int, window=None) -> SoficApprox:
    """The integers acting on n points by k -> shift by k mod n."""
    if n < 1:
        raise ValueError("carrier size must be >= 1")
    if window is None:
        window = range(-(n - 1), n)
    window = frozenset(window)
    rule = {k: Permutation((*range(k % n, n), *range(k % n))) for k in window}
    return SoficApprox(integers(), n, window, rule)


def quotient_by_images(group: FreeGroup, images, window) -> SoficApprox:
    """Evaluate reduced words in one assigned permutation per generator."""
    images = list(images)
    if len(images) != group.rank:
        raise ValueError(f"need {group.rank} images, got {len(images)}")
    degree = images[0].degree
    for p in images:
        if p.degree != degree:
            raise ValueError("carrier mismatch: images must share a degree")
    inverses = [p.inverse() for p in images]

    def value(word):
        out = Permutation.identity(degree)
        for letter in word:
            out = out * (images[letter - 1] if letter > 0 else inverses[-letter - 1])
        return out

    window = frozenset(group.decode(list(w)) for w in window)
    return SoficApprox(group, degree, window, {w: value(w) for w in window})


def perturb(s: SoficApprox, rate, seed: int) -> SoficApprox:
    """Post-compose each non-identity rule value, with probability ``rate``,
    with one random transposition.

    Each hit moves that value by exactly 2/carrier in the metric.  The value
    at the group identity is never touched, preserving rule(1) = id.
    """
    rate = Fraction(rate)
    if not 0 <= rate <= 1:
        raise ValueError("rate must lie in [0, 1]")
    rng = random.Random(seed)
    rule = {}
    for g in s.sorted_window():
        p = s.evaluate(g)
        if not s.group.is_identity(g) and s.carrier_size >= 2 and rng.random() < rate:
            i, j = rng.sample(range(s.carrier_size), 2)
            p = transposition(s.carrier_size, i, j) * p
        rule[g] = p
    return SoficApprox(s.group, s.carrier_size, s.window, rule)
