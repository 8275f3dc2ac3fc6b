"""The construction end to end on inexact inputs, in the theorem's regime eps <= 1.

The lamps of ``Z wr Z/b``, b in {2, 3, 4}, come from a perturbed
``cyclic_quotient`` on -2m..2m, where m is the largest lamp value of the
derived windows, so every product the lamp certificate needs is in its
window; the base is the regular representation of ``Z/b``.  ``build``
certifies the lamp input at the input tolerance: where that certificate
fails it must raise ``CertificateError``, and where it holds, the wreath
certificate must pass with every splitting defect within its bound.  The
drawn lamp carriers are small, so most perturbed inputs fail; two examples,
for b = 3 and b = 4, pass with nonzero pairs.

The base of ``Z/2 wr Z`` comes from a perturbed ``cyclic_quotient``, fixed at
one size that passes and one that ``build`` rejects.  Its perturbed blocks
are not compatible, so they leave the good set, and pairs whose base images
differ there have a nonzero defect.

``detailed_reports`` computes the ``lamp_mult`` bullet from sigma_A's
agreement counts; on the perturbed lamps, with and without a good block, and
on perturbed Sym(3) lamps, whose values do not commute, it must be the bullet
that ``check_almost_homomorphism`` measures by composing each lamp-only pair.
"""
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import soficwreath as sw
from helpers import report_witnesses, shown_witnesses, without_lowest_good_block
from soficwreath.cli import OK, main
from soficwreath.perm import Permutation
from soficwreath.verify import check_almost_homomorphism, detailed_reports, verify_construction

# 20,000 lamp points, every lamp value perturbed: the input passes its
# certificate, and some pair defect of the wreath certificate is nonzero
INEXACT = (3, 20_000, 1, 7, Fraction(1, 2), (({0: 1}, 0), ({0: 2, 1: -1}, 1), ({}, 1), ({2: 1}, 2)))
# the same on Z/4, with the last target lit at position 3
INEXACT_ON_FOUR = (4, *INEXACT[1:5], (*INEXACT[5][:3], ({3: 1}, 3)))
# the same on 4,000 lamp points: the input's defect 3/2000 is over its tolerance 1/1728
UNCERTIFIED = (3, 4_000, *INEXACT[2:])


@st.composite
def cases(draw):
    b = draw(st.sampled_from([2, 3, 4]))
    lamps = st.dictionaries(st.integers(0, b - 1), st.sampled_from([-2, -1, 1, 2]), max_size=2)
    targets = draw(st.lists(st.tuples(lamps, st.integers(0, b - 1)), min_size=1, max_size=3))
    size = draw(st.integers(1, 8000))
    rate = draw(st.sampled_from([0, Fraction(1, 2), 1]))
    return b, size, rate, draw(st.integers(0, 99)), draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2)])), targets


def perturbed_lamps(case):
    """The ``build`` arguments of a drawn case, and whether its lamp input holds
    its certificate at the input tolerance."""
    b, size, rate, seed, eps, targets = case
    wreath = sw.wreath_product(sw.integers(), sw.cyclic(b))
    targets = [wreath.element(f, h) for f, h in targets]
    windows = sw.derive_windows(wreath, targets)
    m = max(map(abs, windows.lamp_values))
    lamps = sw.perturb(sw.cyclic_quotient(size, range(-2 * m, 2 * m + 1)), rate, seed)
    tolerance = sw.make_budget(eps, len(windows.positions)).input_tolerance
    certified = sw.is_sofic_approx(lamps, windows.lamp_values, tolerance).passed
    return (lamps, sw.regular_rep(sw.cyclic(b)), targets, eps), certified


@example(INEXACT)
@example(INEXACT_ON_FOUR)
@example(UNCERTIFIED)
@settings(max_examples=12, deadline=None)
@given(cases())
def test_perturbed_lamps_build_only_when_certified_and_then_pass(case):
    inputs, certified = perturbed_lamps(case)
    if not certified:
        with pytest.raises(sw.CertificateError, match="^lamp approximation fails"):
            sw.build(*inputs)
        return
    cert = verify_construction(sw.build(*inputs))
    assert cert.passed and cert.details.within_bounds
    if case in (INEXACT, INEXACT_ON_FOUR):
        assert any(d for d, _ in cert.mult_defects)


def lamp_bullets(approx):
    """The ``lamp_mult`` bullet that ``detailed_reports`` computes, and the one
    ``check_almost_homomorphism`` measures by composition."""
    computed = detailed_reports(approx, ()).almost_hom.lamp_mult
    return computed, check_almost_homomorphism(approx.rule, approx.wreath, approx.windows, approx.eps).lamp_mult


@example(INEXACT)
@example(INEXACT_ON_FOUR)
@settings(max_examples=4, deadline=None)
@given(cases())
def test_lamp_bullet_is_the_composed_one_with_and_without_a_good_block(case):
    inputs, certified = perturbed_lamps(case)
    if not certified:
        return
    approx = sw.build(*inputs)
    short = without_lowest_good_block(approx)
    assert len(short.block.good) < short.b_size
    (full, composed), (fewer, fewer_composed) = lamp_bullets(approx), lamp_bullets(short)
    assert full == composed and fewer == fewer_composed
    if case == INEXACT:  # 3 of 3 good blocks, then 2 of 3, with nonzero lamp terms
        assert (full.defect, fewer.defect) == (Fraction(59991, 10**8), Fraction(19997, 5 * 10**7))


def test_lamp_bullet_of_noncommuting_lamps_is_the_composed_one():
    # Sym(3) acting on 3,000 copies of its regular representation, each value
    # perturbed by a transposition, lighting two positions of Z/2 with two
    # transpositions that do not commute
    sym3 = sw.symmetric(3)
    regular = sw.regular_rep(sym3).rule
    copies = {g: Permutation(tuple(6 * k + i for k in range(3000) for i in p.image)) for g, p in regular.items()}
    lamps = sw.perturb(sw.SoficApprox(sym3, 18_000, copies), 1, 0)
    wreath = sw.wreath_product(sym3, sw.cyclic(2))
    targets = [wreath.element({0: (1, 0, 2), 1: (0, 2, 1)}, 0), wreath.element({}, 1)]
    computed, composed = lamp_bullets(sw.build(lamps, sw.regular_rep(sw.cyclic(2)), targets, Fraction(1, 2)))
    assert computed == composed
    assert computed.defect == Fraction(5999, 9_000_000)


def perturbed_base(size: int):
    """Lamps, base and targets of ``Z/2 wr Z`` on a perturbed base of ``size`` blocks."""
    wreath = sw.wreath_product(sw.cyclic(2), sw.integers())
    targets = [wreath.element({0: 1}, 0), wreath.element({}, 1)]
    return sw.regular_rep(sw.cyclic(2)), sw.perturb(sw.cyclic_quotient(size, range(-8, 9)), 1, 2), targets


@pytest.fixture(scope="module")
def perturbed_base_pass():
    """The built approximation on 16,000 perturbed base blocks and its certificate."""
    approx = sw.build(*perturbed_base(16_000), 1)
    return approx, verify_construction(approx)


def test_perturbed_base_passes_with_nonzero_pairs(perturbed_base_pass):
    approx, cert = perturbed_base_pass
    assert len(approx.block.injective) == 16_000
    assert len(approx.block.good) == 15_952  # the compatible set removes 48 blocks
    assert cert.passed and cert.details.within_bounds
    assert [d for d, _ in cert.mult_defects] == [0, 0, Fraction(3, 1600), Fraction(3, 8000)]
    hom = cert.details.almost_hom
    assert (hom.base_mult.defect, hom.intertwine.defect) == (Fraction(3, 8000), Fraction(3, 1600))


def test_text_report_names_the_nonzero_witnesses(perturbed_base_pass, tmp_path, capsys):
    approx, cert = perturbed_base_pass
    path = tmp_path / "certificate.json"
    path.write_text(json.dumps(cert.to_json(approx.wreath)))
    assert main(["report", "--certificate", str(path)]) == OK
    shown = shown_witnesses(capsys.readouterr().out, approx.wreath)
    assert shown == report_witnesses(cert)
    identity = approx.wreath.identity()
    assert shown["multiplicativity:"] == cert.mult_defects[2][1] != (identity, identity)  # the worst, 3/1600


def test_perturbed_base_on_fewer_blocks_is_rejected():
    # the base input's defect 3/4000 is over its tolerance 1/2400
    with pytest.raises(sw.CertificateError, match=r"^base approximation fails .*1/2400.*defect 3/4000"):
        sw.build(*perturbed_base(8_000), 1)
