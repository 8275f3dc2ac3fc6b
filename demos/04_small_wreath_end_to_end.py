"""End to end on a finite example, cross-checked against brute force.

Z/2 wreath Z/3 has 24 elements and the assembled approximation acts on a
carrier of 2^3 * 3 = 24 points, small enough to materialize every value and
confirm the factorized arithmetic point by point.
"""
from fractions import Fraction

from soficwreath import (
    build,
    cyclic,
    oracle_check,
    regular_rep,
    verify_construction,
    wreath_product,
)

lamp, base = cyclic(2), cyclic(3)
wreath = wreath_product(lamp, base)
targets = list(wreath.elements())
print("group order:", len(targets))

approx = build(regular_rep(lamp), regular_rep(base), targets, eps=Fraction(1, 2))
print("derived positions window:", approx.windows.positions)
print("good blocks:", sorted(approx.block.good), "of", approx.b_size)
print("input tolerance:", approx.budget.input_tolerance)

certificate = verify_construction(approx)
print("certificate pass:", certificate.passed)
print("worst multiplicative defect:", certificate.worst_defect[0])
print("least freeness margin:", certificate.min_margin[0])

# Brute-force cross-check: expand every value to an explicit permutation of
# the 24-point carrier and confirm all 576 pair distances of the certificate.
mismatches = oracle_check(approx, certificate)
print("oracle mismatches over", len(targets) ** 2, "pairs:", len(mismatches))
assert not mismatches
