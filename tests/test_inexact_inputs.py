"""The construction end to end on inexact inputs, in the theorem's regime eps <= 1.

The lamps of ``Z wr Z/b`` come from a perturbed ``cyclic_quotient`` on
-2m..2m, where m is the largest lamp value of the derived windows, so every
product the lamp certificate needs is in its window; the base is the regular
representation of ``Z/b``.  ``build`` certifies the lamp input at the input
tolerance: where that certificate fails it must raise ``CertificateError``,
and where it holds, the wreath certificate must pass with every splitting
defect within its bound.  The drawn lamp carriers are small, so most
perturbed inputs fail; the example is one that passes with nonzero pairs.
"""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import soficwreath as sw
from soficwreath.verify import verify_construction

# 20,000 lamp points, every lamp value perturbed: the input passes its
# certificate, and some pair defect of the wreath certificate is nonzero
INEXACT = (3, 20_000, 1, 7, Fraction(1, 2), (({0: 1}, 0), ({0: 2, 1: -1}, 1), ({}, 1), ({2: 1}, 2)))


@st.composite
def cases(draw):
    b = draw(st.sampled_from([2, 3]))
    lamps = st.dictionaries(st.integers(0, b - 1), st.sampled_from([-2, -1, 1, 2]), max_size=2)
    targets = draw(st.lists(st.tuples(lamps, st.integers(0, b - 1)), min_size=1, max_size=3))
    size = draw(st.integers(1, 8000))
    rate = draw(st.sampled_from([0, Fraction(1, 2), 1]))
    return b, size, rate, draw(st.integers(0, 99)), draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2)])), targets


@example(INEXACT)
@settings(max_examples=12, deadline=None)
@given(cases())
def test_perturbed_lamps_build_only_when_certified_and_then_pass(case):
    b, size, rate, seed, eps, targets = case
    wreath = sw.wreath_product(sw.integers(), sw.cyclic(b))
    targets = [wreath.element(f, h) for f, h in targets]
    windows = sw.derive_windows(wreath, targets)
    m = max(map(abs, windows.lamp_values))
    lamps = sw.perturb(sw.cyclic_quotient(size, range(-2 * m, 2 * m + 1)), rate, seed)
    tolerance = sw.make_budget(eps, len(windows.positions)).input_tolerance
    base = sw.regular_rep(sw.cyclic(b))
    if not sw.is_sofic_approx(lamps, windows.lamp_values, tolerance).passed:
        with pytest.raises(sw.CertificateError, match="^lamp approximation fails"):
            sw.build(lamps, base, targets, eps)
        return
    cert = verify_construction(sw.build(lamps, base, targets, eps))
    assert cert.passed and cert.details.within_bounds
    if case == INEXACT:
        assert any(d for *_, d in cert.mult_defects)
