"""Reference implementation of ``verify.oracle_check`` that tests compare against.

The library expands each distinct value once, and expands a product
``rule(u) * rule(v)`` only when it differs from ``rule(uv)``.  This reference
expands every value and every product again, point by point through
``coord_oracle.expand_explicit``, composes the expansions with
``Permutation.__mul__`` and measures with ``Permutation.distance``.  It
returns the same mismatch lines in the same order, each element written as
compact JSON of the group's encoding.  It measures each freeness entry's
base margin on the expansion of its base-only value, and the four hypothesis
bullets by running ``verify.splitting_hypotheses`` on the expansions.
"""
import json
from itertools import product

from coord_oracle import expand_explicit
from soficwreath.bigperm import EXPANSION_CAP
from soficwreath.groups import WreathElement
from soficwreath.perm import Permutation
from soficwreath.verify import splitting_hypotheses


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

    mismatches = []
    if expand(identity) != ident:
        mismatches.append("identity mismatch: rule(identity) does not expand to the identity")
    for entry in certificate.details.freeness:
        u = entry.element
        d_expl = expand(u).distance(ident)
        if entry.margin != d_expl:
            mismatches.append(f"freeness distance mismatch at {show(u)}: {entry.margin} vs {d_expl}")
        if entry.base_margin is not None:
            d_expl = expand(WreathElement(wreath.lamps.identity(), u.right)).distance(ident)
            if entry.base_margin != d_expl:
                mismatches.append(f"base margin mismatch at {show(u)}: {entry.base_margin} vs {d_expl}")
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
    lamps, base, hom = wreath.lamps, wreath.base, certificate.details.almost_hom
    bullets = {"lamp_mult": (lamps, lamps), "base_mult": (base, base), "split": (lamps, base), "intertwine": (lamps, base)}
    for (name, (g0, g1)), (d_expl, (x, y)) in zip(bullets.items(), splitting_hypotheses(expand, wreath, approx.windows)):
        bullet = getattr(hom, name)
        if (bullet.defect, bullet.witness) != (d_expl, (x, y)):
            x0, y0 = bullet.witness
            mismatches.append(
                f"{name} mismatch: {bullet.defect} at pair ({show(x0, g0)}, {show(y0, g1)})"
                f" vs {d_expl} at pair ({show(x, g0)}, {show(y, g1)})"
            )
    return mismatches
