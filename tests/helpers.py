"""Constructions that only tests use, kept out of the library."""
import random

from soficwreath.groups import Group, WreathElement
from soficwreath.perm import Permutation, draw_permutation
from soficwreath.sofic import SoficApprox


def random_rule(group: Group, window, degree: int, seed: int) -> SoficApprox:
    """Independent uniform permutation per window element (identity stays id)."""
    rng = random.Random(seed)
    rule = {}
    for g in group.sort(window):
        rule[g] = (
            Permutation.identity(degree) if group.is_identity(g) else draw_permutation(degree, rng)
        )
    return SoficApprox(group, degree, frozenset(window), rule)


def projections(a: WreathElement):
    """Split a wreath element into (lamp configuration, base element).

    The base projection is a homomorphism; the lamp projection is not.
    """
    return a.left, a.right
