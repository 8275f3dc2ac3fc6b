"""The point of the sparse representation: carriers that cannot exist.

Approximating (integers wreath integers) through shifts on 64 points puts
the combined rule on a carrier of 64^64 * 64 points - about 10^117.  The
coordinate-wise representation stores a handful of degree-64 permutations
per value, and every Hamming distance is still computed exactly.
"""
import time
from fractions import Fraction

from soficwreath import build, cyclic_quotient, integers, verify_construction, wreath_product

wreath = wreath_product(integers(), integers())
light = wreath.element({0: 1}, 0)
step_right = wreath.element({}, 1)
step_left = wreath.element({}, -1)

targets = {wreath.identity(), light, step_right, step_left}
for a in (light, step_right, step_left):
    for b in (light, step_right, step_left):
        targets.add(wreath.mul(a, b))
print("targets (generators closed under length-2 products):", len(targets))

start = time.perf_counter()
approx = build(cyclic_quotient(64), cyclic_quotient(64), targets, eps=Fraction(1, 10))
carrier = approx.carrier_size()
print(f"carrier size: {carrier:.3e}  ({carrier.bit_length()} bits)")
print("positions window:", approx.windows.positions)
print("good blocks:", len(approx.block.good), "of", approx.b_size)

certificate = verify_construction(approx)
elapsed = time.perf_counter() - start
print("certificate pass:", certificate.passed)
print("worst defect:", certificate.worst_defect[0], " least margin:", certificate.min_margin[0])
print(f"built and verified in {elapsed:.2f}s without materializing anything")

# A glimpse of the sparse values: the lit lamp touches one coordinate per
# block, the steps touch none.
value = approx.rule(light)
print("rule(light): base part identity,", len(value.tau), "blocks with one write each")
value = approx.rule(step_right)
assert not value.tau
print("rule(step): pure base shift, tau empty")
