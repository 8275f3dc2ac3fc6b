"""Reference implementation of ``verify.oracle_check`` that tests compare against.

The library expands each distinct value once, and expands a product
``rule(u) * rule(v)`` only when it differs from ``rule(uv)``.  This reference
expands every value and every product again, point by point through
``coord_oracle.expand_explicit``, composes the expansions with
``Permutation.__mul__`` and measures with ``Permutation.distance``.  It
returns the same mismatch lines in the same order, each element written as
compact JSON of the group's encoding.  It composes every lamp-window pair
of expansions too, for the worst explicit ``lamp_mult`` distance.
"""
import json
from itertools import product
from operator import itemgetter

from coord_oracle import expand_explicit
from soficwreath.bigperm import EXPANSION_CAP
from soficwreath.groups import WreathElement
from soficwreath.perm import Permutation


def oracle_check(approx, certificate, cap: int = EXPANSION_CAP) -> list[str]:
    wreath = approx.wreath
    targets = approx.windows.targets
    identity = wreath.identity()
    if (
        certificate.window != targets
        or [u for _, u in certificate.free_margins] != [u for u in targets if u != identity]
        or len(certificate.mult_defects) != len(targets) ** 2
    ):
        raise ValueError("certificate is not for the approximation's target window")
    ident = Permutation.identity(approx.carrier_size())

    def expand(u):
        return expand_explicit(approx.rule(u), cap)

    def show(u, group=wreath):
        return json.dumps(group.encode(u), separators=(",", ":"))

    def lamp_only(f):
        return expand(WreathElement(f, wreath.base.identity()))

    mismatches = []
    if expand(identity) != ident:
        mismatches.append("identity mismatch: rule(identity) does not expand to the identity")
    for d_fact, u in certificate.free_margins:
        d_expl = expand(u).distance(ident)
        if d_fact != d_expl:
            mismatches.append(f"freeness distance mismatch at {show(u)}: {d_fact} vs {d_expl}")
    for (u, v), (d_fact, listed) in zip(product(targets, repeat=2), certificate.mult_defects):
        pair = f"pair ({show(u)}, {show(v)})"
        if listed != (u, v):
            raise ValueError(f"certificate does not list {pair} in order")
        composed = expand(u) * expand(v)
        if expand_explicit(approx.rule(u) * approx.rule(v), cap) != composed:
            mismatches.append(f"composition mismatch at {pair}")
            continue
        d_expl = composed.distance(expand(wreath.mul(u, v)))
        if d_fact != d_expl:
            mismatches.append(f"distance mismatch at {pair}: {d_fact} vs {d_expl}")
    lamps, lamp_els, bullet = wreath.lamps, approx.windows.lamp_window, certificate.details.almost_hom.lamp_mult
    d_expl, (f, g) = max(
        (((lamp_only(f) * lamp_only(g)).distance(lamp_only(lamps.mul(f, g))), (f, g)) for f in lamp_els for g in lamp_els),
        key=itemgetter(0),
    )
    if (bullet.defect, bullet.witness) != (d_expl, (f, g)):
        f0, g0 = bullet.witness
        mismatches.append(
            f"lamp_mult mismatch: {bullet.defect} at pair ({show(f0, lamps)}, {show(g0, lamps)})"
            f" vs {d_expl} at pair ({show(f, lamps)}, {show(g, lamps)})"
        )
    return mismatches
