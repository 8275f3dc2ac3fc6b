"""Windowed permutation rules and their exact defect reports.

A rule maps each element of a finite window to a permutation of a carrier.
One checker measures how close it is to a free action by a homomorphism:
the worst multiplicative defect over pairs, the least freeness margin
against the identity, and whether rule(1) is the identity.
"""
from fractions import Fraction

from soficwreath import (
    CertificateError,
    cyclic,
    cyclic_quotient,
    is_sofic_approx,
    perturb,
    regular_rep,
    symmetric,
)
from soficwreath.sofic import require_sofic

# A finite group acting on itself by left multiplication is exact: defect 0,
# margin 1, for every tolerance.
exact = regular_rep(symmetric(3))
report = is_sofic_approx(exact, list(symmetric(3).elements()), Fraction(1, 1000))
print("regular representation of Sym(3):")
print("  defect:", report.mult_defect, " margin:", report.free_margin, " pass:", report.passed)

# The integers have no finite free action, but shifts modulo n come close:
# exact multiplication, and full margin as long as the window avoids
# nonzero multiples of n.
shifts = cyclic_quotient(8)
window = [-3, -1, 0, 1, 3]
report = is_sofic_approx(shifts, window, Fraction(1, 100))
print("shifts mod 8 on a small window:")
print("  defect:", report.mult_defect, " margin:", report.free_margin, " pass:", report.passed)

# The check evaluates 8 + 8 too, so the rule must cover 16.
multiple = is_sofic_approx(cyclic_quotient(8, window=range(-16, 17)), [8], Fraction(1, 2))
print("  ...but shift by 8 is the identity: margin", multiple.free_margin, " pass:", multiple.passed)

# Perturbation damages a rule by one random transposition per hit value;
# each hit moves the value by exactly 2/carrier.
noisy = perturb(regular_rep(cyclic(5)), rate=Fraction(1, 2), seed=7)
report = is_sofic_approx(noisy, [1, 2], Fraction(1, 10))
print("perturbed shifts on 5 points:")
print("  worst defect", report.mult_defect, "at pair", report.mult_witness)
print("  least margin", report.free_margin, "at", report.free_witness)

# A required certificate names each part that fails, with its witness.
try:
    require_sofic(noisy, [1, 2], Fraction(1, 10), "perturbed shifts")
except CertificateError as exc:
    print("  certificate failure:", exc)
