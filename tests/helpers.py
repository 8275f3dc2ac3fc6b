"""Constructions that only tests use, kept out of the library."""
import json
import random

from fractions import Fraction

from hypothesis import strategies as st

import soficwreath as sw
from soficwreath.bigperm import CoordAction, coord_action
from soficwreath.construct import GoodBlock
from soficwreath.groups import Group, WreathElement
from soficwreath.perm import Permutation, draw_permutation
from soficwreath.sofic import SoficApprox


def replace(obj, **changes):
    """A copy of the record ``obj`` with ``changes`` to its fields, as
    ``dataclasses.replace`` makes one: every other field is passed on, and
    the constructor checks the result.  A ``cached_property`` is not a field,
    so the copy computes its own."""
    return type(obj)(**{name: changes.pop(name, getattr(obj, name)) for name in obj.__match_args__}, **changes)


def random_rule(group: Group, window, degree: int, seed: int) -> SoficApprox:
    """Independent uniform permutation per window element (identity stays id)."""
    rng = random.Random(seed)
    rule = {}
    for g in group.sort(window):
        rule[g] = (
            Permutation.identity(degree) if group.is_identity(g) else draw_permutation(degree, rng)
        )
    return SoficApprox(group, degree, rule)


def good_block_inputs(base: Group, positions, block_tolerance, input_tolerance):
    """The windows and budget of a build over ``base`` whose positions window
    is exactly ``positions``: the targets are the base moves (1, h), h in
    ``positions``, which must hold the identity and each inverse.  The budget
    carries the two tolerances at eps = 13 block_tolerance, which ``Budget``
    accepts whenever input_tolerance < block_tolerance / (4 w^2)."""
    wreath = sw.wreath_product(sw.cyclic(2), base)
    windows = sw.derive_windows(wreath, [wreath.element({}, h) for h in positions])
    assert list(windows.positions) == list(positions)
    budget = sw.Budget(13 * block_tolerance, block_tolerance, input_tolerance, len(positions))
    return windows, budget


def collapsed_rule(group: Group, window, degree: int, seed: int) -> SoficApprox:
    """Each non-identity element goes to the identity or to one shared
    permutation, so distinct elements collide and most products are wrong."""
    rng = random.Random(seed)
    shared = draw_permutation(degree, rng)
    ident = Permutation.identity(degree)
    rule = {g: ident if group.is_identity(g) else rng.choice((ident, shared)) for g in group.sort(window)}
    return SoficApprox(group, degree, rule)


@st.composite
def windowed_approximations(draw):
    """An approximation and a check window (or positions) whose pairwise
    products lie in its window, as the input certificates and the good-block
    lemma need.

    Rule values are perturbed shifts, random, collapsed, or perturbed regular
    representations of S_3 or quotients of a free group, on carriers of
    degree 1 to 12, so products are often inexact, rarely commute, defects
    tie between pairs, and anchors of distinct positions often collide.
    """
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rate = draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)]))
    kind = draw(st.sampled_from(["shift", "random", "collapsed", "symmetric", "free"]))
    if kind == "symmetric":
        group = sw.symmetric(3)
        approx = sw.perturb(sw.regular_rep(group), rate, seed)
        candidates = group.sort(group.elements())
    elif kind == "shift":
        radius = draw(st.integers(min_value=1, max_value=3))
        n = draw(st.integers(min_value=1, max_value=12))
        approx = sw.perturb(sw.cyclic_quotient(n, range(-2 * radius, 2 * radius + 1)), rate, seed)
        candidates = tuple(range(-radius, radius + 1))
    elif kind == "free":
        group = sw.free(2)
        degree = draw(st.integers(min_value=1, max_value=6))
        images = [Permutation(tuple(draw(st.permutations(range(degree))))) for _ in range(2)]
        approx = sw.perturb(sw.quotient_by_images(group, images, group.ball(2)), rate, seed)
        candidates = group.ball(1)
    else:
        group = sw.cyclic(draw(st.integers(min_value=1, max_value=5)))
        candidates = group.sort(group.elements())
        make = random_rule if kind == "random" else collapsed_rule
        approx = make(group, candidates, draw(st.integers(min_value=1, max_value=6)), seed)
    window = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=6))
    return approx, window


def without_lowest_good_block(approx):
    """``approx`` with its lowest good block taken out of the good set, so
    that the lamps it anchors are not written there and many pairs have a
    nonzero defect."""
    block = approx.block
    short = GoodBlock(block.injective, block.compatible, block.good - {min(block.good)})
    return replace(approx, block=short)


@st.composite
def small_wreath_approximations(draw):
    """A built approximation of Z/a wr Z/b, a and b in {2, 3}, on carriers of
    at most 81 points, so that every value expands.

    Each input is the regular representation, perturbed at a drawn rate, and
    eps is large enough that perturbed inputs pass their certificates.  The
    targets are up to five drawn elements, and about half of the draws take
    the lowest good block out, so products are often inexact.
    """
    lamp, base = (sw.cyclic(draw(st.sampled_from([2, 3]))) for _ in range(2))
    wreath = sw.wreath_product(lamp, base)
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rates = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1)])
    sigma_A = sw.perturb(sw.regular_rep(lamp), draw(rates), seed)
    sigma_B = sw.perturb(sw.regular_rep(base), draw(rates), seed + 1)
    elements = wreath.sort(wreath.elements())
    targets = draw(st.lists(st.sampled_from(elements), min_size=1, max_size=5, unique=True))
    approx = sw.build(sigma_A, sigma_B, targets, Fraction(10**6))
    if approx.block.good and draw(st.booleans()):
        approx = without_lowest_good_block(approx)
    return approx


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


@st.composite
def pooled_actions(draw) -> list[CoordAction]:
    """Three actions on one carrier whose entries come from a small pool of
    shared ``Permutation`` objects, as lamp actions in the construction do.

    The pool holds two distinct objects with equal images.  Base images come
    from a pool of two, and each block of a later action is often the first
    action's block dict itself or an equal copy, so equal blocks, repeated
    entry pairs and shared block dicts are all common.
    """
    a_size = draw(st.integers(min_value=2, max_value=4))
    b_size = draw(st.integers(min_value=1, max_value=8))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pool = [draw_permutation(a_size, rng) for _ in range(3)]
    pool = [p for p in pool if not p.is_identity()] or [Permutation((1, 0, *range(2, a_size)))]
    pool.append(Permutation(pool[0].image))  # equal to pool[0], a different object
    betas = [draw_permutation(b_size, rng), draw_permutation(b_size, rng)]

    def fresh_block():
        return {c: rng.choice(pool) for c in rng.sample(range(b_size), rng.randint(1, min(b_size, 3)))}

    template = {b: fresh_block() for b in range(b_size) if rng.random() < 0.7}
    actions = []
    for _ in range(3):
        tau = {}
        for b in range(b_size):
            pick = rng.random()
            if pick < 0.4 and b in template:
                tau[b] = template[b]  # the same dict object
            elif pick < 0.6 and b in template:
                tau[b] = dict(template[b])  # an equal copy
            elif pick < 0.85:
                tau[b] = fresh_block()
        actions.append(CoordAction(a_size, b_size, rng.choice(betas), tau))
    return actions


def rejection(check, value):
    """The ValueError message check raises on value, or None if it accepts."""
    try:
        check(value)
    except ValueError as err:
        return str(err)
    return None


def projections(a: WreathElement):
    """Split a wreath element into (lamp configuration, base element).

    The base projection is a homomorphism; the lamp projection is not.
    """
    return a.left, a.right


def with_values(cert, defect=None, margin=None):
    """``cert`` with the defect of its first pair and the margin of its first
    freeness entry replaced when given: a built rule always passes, so a
    failing certificate is made by hand."""
    (d, pair), *pairs = cert.mult_defects
    first, *entries = cert.details.freeness
    first = replace(first, margin=first.margin if margin is None else margin)
    details = replace(cert.details, freeness=(first, *entries))
    pairs = ((d if defect is None else defect, pair), *pairs)
    return replace(cert, mult_defects=pairs, details=details)


def shown_elements(line: str) -> list:
    """The elements a failure line prints after its first " at ", each read with
    ``json.loads``: the two of "pair (A, B)", else the one before any ": ".
    Compact JSON holds no ", ", ": " or ")", so those split the line."""
    rest = line.split(" at ", 1)[1]
    if rest.startswith("pair ("):
        return [json.loads(text) for text in rest[len("pair (") : rest.index(")")].split(", ")]
    return [json.loads(rest.split(": ", 1)[0])]


def shown_witnesses(report: str, wreath) -> dict:
    """Each witness pair that ``report --format text`` prints, decoded with the
    groups of its two elements: the worst pair of the ``multiplicativity:``
    line and each bullet's pair, by the line's first word."""
    lamps, base = wreath.lamps, wreath.base
    groups = {
        "multiplicativity:": (wreath, wreath),
        "lamp_mult": (lamps, lamps),
        "base_mult": (base, base),
        "split": (lamps, base),
        "intertwine": (lamps, base),
        "conclusion": (wreath, wreath),
    }
    shown = {}
    for line in report.splitlines():
        name = line.split(maxsplit=1)[0] if line.strip() else None
        if name in groups:
            shown[name] = tuple(g.decode(x) for g, x in zip(groups[name], shown_elements(line)))
    return shown


def report_witnesses(certificate) -> dict:
    """The witness pairs ``shown_witnesses`` must read back from ``certificate``."""
    hom = certificate.details.almost_hom
    names = ("lamp_mult", "base_mult", "split", "intertwine", "conclusion")
    return {"multiplicativity:": certificate.worst_defect[1]} | {n: getattr(hom, n).witness for n in names}
