"""Constructions that only tests use, kept out of the library."""
import random

from soficwreath.bigperm import CoordAction, coord_action
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


def random_coord_action(a_size: int, b_size: int, rng: random.Random, density: float = 0.5) -> CoordAction:
    """Random instance for property tests: seeded, canonical by construction."""
    beta = draw_permutation(b_size, rng)
    tau = {}
    if a_size >= 2:
        for b in range(b_size):
            entries = {
                c: draw_permutation(a_size, rng)
                for c in range(b_size)
                if rng.random() < density
            }
            if entries:
                tau[b] = entries
    return coord_action(a_size, b_size, beta, tau)


def projections(a: WreathElement):
    """Split a wreath element into (lamp configuration, base element).

    The base projection is a homomorphism; the lamp projection is not.
    """
    return a.left, a.right
