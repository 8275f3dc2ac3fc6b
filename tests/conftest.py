import random
from fractions import Fraction

import pytest

import soficwreath as sw
from closed_forms import small_exact


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture(scope="session")
def small_wreath():
    """Exact Z/2 wr Z/3 built from regular representations, all 24 targets."""
    return small_exact(2, 3)


@pytest.fixture(scope="session")
def lamplighter_targets():
    """Z wr Z generators plus all their pairwise products."""
    wreath = sw.wreath_product(sw.integers(), sw.integers())
    gens = [wreath.element({0: 1}, 0), wreath.element({}, 1), wreath.element({}, -1)]
    targets = {wreath.identity(), *gens}
    for a in gens:
        for b in gens:
            targets.add(wreath.mul(a, b))
    return wreath, sorted(targets, key=wreath.key)


@pytest.fixture(scope="session")
def lamplighter(lamplighter_targets):
    """Z wr Z through shift quotients on 64 points; never expandable."""
    _, targets = lamplighter_targets
    return sw.build(sw.cyclic_quotient(64), sw.cyclic_quotient(64), targets, Fraction(1, 10))
