"""Reference oracle for the ``sofic`` checkers: every product built in full.

``sofic.is_multiplicative`` counts the points where rule(g) rule(h) agrees
with rule(gh) and never builds the product.  This module builds each product
as a ``Permutation`` and measures it with ``hamming``, as the definition
reads; tests compare the two reports field by field.
"""
from dataclasses import replace
from fractions import Fraction

from soficwreath.perm import hamming
from soficwreath.sofic import DefectReport, SoficApprox, is_free


def is_multiplicative(s: SoficApprox, window, eps) -> DefectReport:
    eps = Fraction(eps)
    els = s.group.sort(window)
    worst, witness = Fraction(0), None
    for g in els:
        for h in els:
            d = hamming(s.evaluate(g) * s.evaluate(h), s.evaluate(s.group.mul(g, h)))
            if witness is None or d > worst:
                worst, witness = d, (g, h)
    return DefectReport(eps=eps, window=els, mult_defect=worst, mult_witness=witness, mult_pass=worst < eps)


def is_sofic_approx(s: SoficApprox, window, eps) -> DefectReport:
    freeness = is_free(s, window, eps)
    return replace(
        is_multiplicative(s, window, eps),
        free_margin=freeness.free_margin,
        free_witness=freeness.free_witness,
        free_pass=freeness.free_pass,
        identity_pass=s.evaluate(s.group.identity()).is_identity(),
    )
