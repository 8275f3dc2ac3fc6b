"""Reference implementation of ``verify.oracle_check`` that tests compare against.

The library expands each distinct value once, and expands a product
``rule(u) * rule(v)`` only when it differs from ``rule(uv)``.  This reference
expands every value and every product again, point by point through
``coord_oracle.expand_explicit``, composes the expansions with
``Permutation.__mul__`` and measures with ``Permutation.distance``.  It
returns the same mismatch lines in the same order, each element written as
compact JSON of the group's encoding.
"""
import json
from itertools import product

from coord_oracle import expand_explicit
from soficwreath.bigperm import EXPANSION_CAP
from soficwreath.perm import Permutation


def oracle_check(approx, certificate, cap: int = EXPANSION_CAP) -> list[str]:
    wreath = approx.wreath
    targets = approx.windows.targets
    identity = wreath.identity()
    if (
        certificate.window != targets
        or [u for u, _ in certificate.free_margins] != [u for u in targets if u != identity]
        or len(certificate.mult_defects) != len(targets) ** 2
    ):
        raise ValueError("certificate is not for the approximation's target window")
    ident = Permutation.identity(approx.carrier_size())

    def expand(u):
        return expand_explicit(approx.rule(u), cap)

    def show(u):
        return json.dumps(wreath.encode(u), separators=(",", ":"))

    mismatches = []
    if certificate.identity_pass != (expand(identity) == ident):
        mismatches.append(f"identity mismatch: certificate says {certificate.identity_pass}")
    for u, d_fact in certificate.free_margins:
        d_expl = expand(u).distance(ident)
        if d_fact != d_expl:
            mismatches.append(f"freeness distance mismatch at {show(u)}: {d_fact} vs {d_expl}")
    for (u, v), (cu, cv, d_fact) in zip(product(targets, repeat=2), certificate.mult_defects):
        pair = f"pair ({show(u)}, {show(v)})"
        if (cu, cv) != (u, v):
            raise ValueError(f"certificate does not list {pair} in order")
        composed = expand(u) * expand(v)
        if expand_explicit(approx.rule(u) * approx.rule(v), cap) != composed:
            mismatches.append(f"composition mismatch at {pair}")
            continue
        d_expl = composed.distance(expand(wreath.mul(u, v)))
        if d_fact != d_expl:
            mismatches.append(f"distance mismatch at {pair}: {d_fact} vs {d_expl}")
    return mismatches
