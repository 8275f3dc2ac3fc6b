"""Sofic approximations: windowed rules group -> Sym(carrier) and their checkers.

A ``SoficApprox`` maps each element of an explicit finite window, the key set
of its ``rule``, to a permutation of a common carrier.  Evaluating outside the
window is an error, never a silent identity; the one place the theory extends
by the identity is the lamp action in ``construct`` and it does so explicitly.

The one checker, ``is_sofic_approx``, measures with exact rationals how far
a rule is from a free action by a homomorphism on a given window.  Both
levels of certificate, this one and the wreath certificate of ``verify``,
share its helpers: ``pair_defects`` walks the pairs, ``worst`` picks the
witness, and ``failing_parts`` is the pass rule, the definition's first two parts:

* multiplicative: every pair defect d(rule(g) rule(h), rule(gh)) < eps;
* free: every d(rule(g), id) > 1 - eps over non-identity g;
* rule(1) = id, which ``SoficApprox`` and ``build`` enforce.

All inequalities are strict and compared as exact ``Fraction`` values.
``require_sofic`` raises ``CertificateError`` naming each part that fails.
"""
from __future__ import annotations

import random
from fractions import Fraction
from operator import itemgetter
from typing import Any, Mapping

from ._record import record
from .groups import Group, FreeGroup, group_from_descriptor, integers
from .jsonutil import checked, is_positive_int
from .perm import Permutation, points, transposition


class WindowViolationError(ValueError):
    """An evaluation or check needed an element outside the declared window."""


class CertificateError(RuntimeError):
    """An approximation failed a certificate it was required to hold."""


@record
class SoficApprox:
    """A rule from a finite window of a group, the keys of ``rule``, to permutations of one carrier."""
    group: Group
    carrier_size: int
    rule: Mapping[Any, Permutation]

    def __post_init__(self):
        for g, p in self.rule.items():
            if p.degree != self.carrier_size:
                raise ValueError(f"carrier mismatch: rule({g!r}) has degree {p.degree}, expected {self.carrier_size}")
        ident = self.group.identity()
        if ident in self.rule and not self.rule[ident].is_identity():
            raise ValueError("rule(identity) must be the identity permutation")

    def evaluate(self, g) -> Permutation:
        try:
            return self.rule[g]
        except KeyError:
            raise WindowViolationError(f"element {self.group.show(g)} outside the declared window") from None

    def sorted_window(self) -> tuple:
        return self.group.sort(self.rule)

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
        if window != rule.keys():
            raise ValueError("rule must be defined exactly on the window")
        return cls(group, carrier_size, rule)


def _new_element(group: Group, data, seen, what: str):
    """Decode an element that ``seen`` must not hold yet: a rule listing one
    twice would otherwise keep its last entry without a word."""
    g = group.decode(data)
    if g in seen:
        raise ValueError(f"element {data!r} is listed twice in an approximation's {what}")
    return g


@record
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

    def _failures(self, show=repr):
        """The ``failing_parts`` lines; a window without pairs or margins checks none."""
        defects = () if self.mult_witness is None else ((self.mult_defect, self.mult_witness),)
        margins = () if self.free_margin is None else ((self.free_margin, self.free_witness),)
        return failing_parts(self.eps, defects, margins, show)

    @property
    def passed(self) -> bool:
        return not any(self._failures())


def pair_defects(value, mul, window):
    """``(d(value(g) value(h), value(gh)), (g, h))`` for every pair of the
    window, in row-major order, for ``Permutation`` or ``CoordAction`` values."""
    return (((value(g) * value(h)).distance(value(mul(g, h))), (g, h)) for g in window for h in window)


def worst(pairs):
    """Max of (defect, witness), the first one on a tie; empty -> (0, None).  Zeros are never compared."""
    best = next(pairs := iter(pairs), (Fraction(0), None))
    for record in pairs:
        if record[0] and record[0] > best[0]:
            best = record
    return best


def failing_parts(eps: Fraction, defects, margins, show=repr):
    """The one pass rule of a certificate: a line for each part that fails.
    ``defects`` holds (defect, (g, h)) and ``margins`` (margin, g); a pair
    defect fails unless < eps, a margin unless > 1 - eps.  ``show`` renders
    the elements of a failing part, as ``Group.show`` wherever a line is printed.
    A certificate passes when none fails."""
    for d, (g, h) in defects:
        if not d < eps:
            yield f"multiplicative defect {d} at pair ({show(g)}, {show(h)})"
    for m, g in margins:
        if not m > 1 - eps:
            yield f"freeness margin {m} at {show(g)}"


def _require_window(s: SoficApprox, needed, what: str):
    missing = [g for g in needed if g not in s.rule]
    if missing:
        shown = ", ".join(map(s.group.show, missing[:5]))
        raise WindowViolationError(f"{what} needs elements outside the window: {shown}")


def is_sofic_approx(s: SoficApprox, window, eps: Fraction) -> DefectReport:
    """Measure the rule on the window: the worst d(rule(g) rule(h), rule(gh))
    over pairs and the least d(rule(g), id) over non-identity g.

    On a tie the witness is the first extreme in sorted order.
    """
    eps = Fraction(eps)
    if s.group.identity() not in s.rule:
        raise WindowViolationError("sofic check needs the identity inside the window")
    els = s.group.sort(window)
    _require_window(s, els, "sofic check")
    _require_window(s, (s.group.mul(g, h) for g in els for h in els), "sofic check (products)")
    mult_defect, mult_witness = worst(pair_defects(s.evaluate, s.group.mul, els))
    identity = Permutation.identity(s.carrier_size)
    free_margin, free_witness = min(
        ((s.evaluate(g).distance(identity), g) for g in els if not s.group.is_identity(g)),
        key=itemgetter(0),
        default=(None, None),
    )
    return DefectReport(eps, els, mult_defect, mult_witness, free_margin, free_witness)


def require_sofic(s: SoficApprox, window, eps: Fraction, label: str) -> DefectReport:
    report = is_sofic_approx(s, window, eps)
    parts = list(report._failures(s.group.show))
    if parts:
        raise CertificateError(f"{label} fails its ({len(report.window)}-element window, {eps}) certificate: " + "; ".join(parts))
    return report


# ---------------------------------------------------------------------------
# generators


def regular_rep(group: Group) -> SoficApprox:
    """Left multiplication of a finite group on itself, in key order."""
    els = group.sort(group.elements())
    index = {g: i for i, g in enumerate(els)}
    rule = {g: Permutation(tuple(index[group.mul(g, x)] for x in els)) for g in els}
    return SoficApprox(group, len(els), rule)


def cyclic_quotient(n: int, window=None) -> SoficApprox:
    """The integers acting on n points by k -> shift by k mod n."""
    if n < 1:
        raise ValueError("carrier size must be >= 1")
    if window is None:
        window = range(-(n - 1), n)
    pts = points(n)
    rule = {k: Permutation(pts[k % n :] + pts[: k % n]) for k in window}
    return SoficApprox(integers(), n, rule)


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

    words = {group.decode(list(w)) for w in window}
    return SoficApprox(group, degree, {w: value(w) for w in words})


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
    return SoficApprox(s.group, s.carrier_size, rule)
