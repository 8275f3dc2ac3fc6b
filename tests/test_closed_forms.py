"""Each closed form in ``src/`` against the composed walk it replaces, through
the harness of ``closed_forms``: defect and witness, bullet by bullet, on every
registry fixture, with and without its lowest good block.  A trace count shows
that ``verify_construction`` takes the closed forms and composes only the
certificate and conclusion pairs.
"""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import closed_forms
from closed_forms import INEXACT, INEXACT_ON_FOUR, cases
from helpers import without_lowest_good_block
from soficwreath import bigperm
from soficwreath.verify import verify_construction


# one row per FIXTURES name and the two inexact lamp cases; ``pinned`` holds
# the lamp_mult defects with all good blocks and with the lowest one out
@pytest.mark.parametrize("short", [False, True], ids=["all_good", "lowest_good_block_out"])
@example(case="z2_wr_z3", pinned=None)
@example(case="z3_wr_z2", pinned=None)
# 3 of 3 good blocks, then 2 of 3, with nonzero lamp terms
@example(case=INEXACT, pinned=(Fraction(59991, 10**8), Fraction(19997, 5 * 10**7)))
@example(case=INEXACT_ON_FOUR, pinned=None)
@example(case="perturbed_base", pinned=None)
@example(case="sym3_lamps", pinned=(Fraction(5999, 9_000_000), None))
@example(case="fixed_point_lamps", pinned=None)
@settings(max_examples=4, deadline=None)
@given(case=cases(), pinned=st.none())
def test_closed_forms_are_the_composed_walks(case, pinned, short):
    approx = closed_forms.approximation(case)
    if approx is None:  # a drawn lamp input that fails its certificate builds nothing
        return
    if short:
        approx = without_lowest_good_block(approx)
        assert len(approx.block.good) < approx.b_size
    computed, composed = closed_forms.bullets(approx)
    assert computed == composed
    if pinned is not None and pinned[short] is not None:
        assert computed["lamp_mult"][0] == pinned[short]


def test_verify_composes_only_the_certificate_and_conclusion_pairs(lamplighter, monkeypatch):
    calls = []
    compose = bigperm.compose_actions

    def counted(second, first):
        calls.append(None)
        return compose(second, first)

    monkeypatch.setattr(bigperm, "compose_actions", counted)
    verify_construction(lamplighter)
    windows = lamplighter.windows
    assert len(calls) == len(windows.targets) ** 2 + len(windows.closure) ** 2
