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

The drawn cases, ``INEXACT``, ``INEXACT_ON_FOUR`` and the 16,000-block base
come from the ``closed_forms`` registry, where ``test_closed_forms.py``
checks the construction's hypothesis bullets against composition on them.
"""
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings

import soficwreath as sw
from closed_forms import INEXACT, INEXACT_ON_FOUR, cases, perturbed_base, perturbed_base_approx, perturbed_lamps
from helpers import report_witnesses, shown_witnesses
from soficwreath.cli import OK, main
from soficwreath.verify import verify_construction

# the same on 4,000 lamp points: the input's defect 3/2000 is over its tolerance 1/1728
UNCERTIFIED = (3, 4_000, *INEXACT[2:])


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


@pytest.fixture(scope="module")
def perturbed_base_pass():
    """The built approximation on 16,000 perturbed base blocks and its certificate."""
    approx = perturbed_base_approx()
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
