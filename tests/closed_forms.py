"""The differential harness: each closed form in ``src/`` beside the composed
walk it replaces, and one registry of approximations to compare them on.

The one pair today is ``verify.construction_records``, the construction's four
hypothesis bullets in closed form, against ``verify.splitting_hypotheses``
composing and measuring each bullet's values.  The registry holds:

* the small exact wreaths Z/2 wr Z/3 and Z/3 wr Z/2, all elements as targets;
* perturbed lamps of Z wr Z/b, b in {2, 3, 4}, drawn by ``cases``, of which
  ``INEXACT`` and ``INEXACT_ON_FOUR`` are two;
* Z/2 wr Z on 16,000 perturbed base blocks, 48 of which are not good;
* perturbed Sym(3) lamps, whose values do not commute;
* exact lamps of Z wr Z/3 that fix one point of 2,000, so that the lamp term
  of intertwine differs between supports of one and of two positions.

``test_closed_forms.py`` compares the pair on each, with and without its
lowest good block.  A named fixture is built once per session.
"""
from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

import soficwreath as sw
from soficwreath.perm import Permutation
from soficwreath.verify import construction_records, splitting_hypotheses

HYPOTHESES = ("lamp_mult", "base_mult", "split", "intertwine")

# 20,000 lamp points, every lamp value perturbed: the input passes its
# certificate, and some pair defect of the wreath certificate is nonzero
INEXACT = (3, 20_000, 1, 7, Fraction(1, 2), (({0: 1}, 0), ({0: 2, 1: -1}, 1), ({}, 1), ({2: 1}, 2)))
# the same on Z/4, with the last target lit at position 3
INEXACT_ON_FOUR = (4, *INEXACT[1:5], (*INEXACT[5][:3], ({3: 1}, 3)))


def bullets(approx) -> tuple[dict, dict]:
    """The four hypothesis bullets of ``approx`` by name, ``(defect, witness)``
    each: from ``construction_records``, and composed."""
    args = approx.rule, approx.wreath, approx.windows
    computed = splitting_hypotheses(*args, construction_records(approx))
    return dict(zip(HYPOTHESES, computed)), dict(zip(HYPOTHESES, splitting_hypotheses(*args)))


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


def perturbed_base(size: int):
    """Lamps, base and targets of ``Z/2 wr Z`` on a perturbed base of ``size`` blocks."""
    wreath = sw.wreath_product(sw.cyclic(2), sw.integers())
    targets = [wreath.element({0: 1}, 0), wreath.element({}, 1)]
    return sw.regular_rep(sw.cyclic(2)), sw.perturb(sw.cyclic_quotient(size, range(-8, 9)), 1, 2), targets


@cache
def perturbed_base_approx():
    """The approximation on 16,000 perturbed base blocks, which passes."""
    return sw.build(*perturbed_base(16_000), 1)


@cache
def small_exact(lamp_order: int, base_order: int):
    """All of Z/lamp wr Z/base as targets, on regular representations."""
    lamp, base = sw.cyclic(lamp_order), sw.cyclic(base_order)
    wreath = sw.wreath_product(lamp, base)
    return sw.build(sw.regular_rep(lamp), sw.regular_rep(base), list(wreath.elements()), Fraction(1, 2))


@cache
def sym3_lamps():
    """Sym(3) acting on 3,000 copies of its regular representation, each value
    perturbed by a transposition, lighting two positions of Z/2 with two
    transpositions that do not commute."""
    sym3 = sw.symmetric(3)
    regular = sw.regular_rep(sym3).rule
    copies = {g: Permutation(tuple(6 * k + i for k in range(3000) for i in p.image)) for g, p in regular.items()}
    lamps = sw.perturb(sw.SoficApprox(sym3, 18_000, copies), 1, 0)
    wreath = sw.wreath_product(sym3, sw.cyclic(2))
    targets = [wreath.element({0: (1, 0, 2), 1: (0, 2, 1)}, 0), wreath.element({}, 1)]
    return sw.build(lamps, sw.regular_rep(sw.cyclic(2)), targets, Fraction(1, 2))


@cache
def fixed_point_lamps():
    """``INEXACT``'s targets on lamps that rotate points 1..1999 and fix point 0:
    an exact action of Z, and free enough for the input tolerance 1/1728."""
    wreath = sw.wreath_product(sw.integers(), sw.cyclic(3))
    targets = [wreath.element(f, h) for f, h in INEXACT[5]]
    m = max(map(abs, sw.derive_windows(wreath, targets).lamp_values))
    rotation = {v: Permutation((0, *(1 + (i + v) % 1999 for i in range(1999)))) for v in range(-2 * m, 2 * m + 1)}
    return sw.build(sw.SoficApprox(sw.integers(), 2000, rotation), sw.regular_rep(sw.cyclic(3)), targets, INEXACT[4])


FIXTURES = {
    "z2_wr_z3": lambda: small_exact(2, 3),
    "z3_wr_z2": lambda: small_exact(3, 2),
    "perturbed_base": perturbed_base_approx,
    "sym3_lamps": sym3_lamps,
    "fixed_point_lamps": fixed_point_lamps,
}


def approximation(case):
    """The approximation a case names: a ``FIXTURES`` name, or a ``cases``
    draw, which builds only when its lamp input is certified (else None)."""
    if isinstance(case, str):
        return FIXTURES[case]()
    inputs, certified = perturbed_lamps(case)
    return sw.build(*inputs) if certified else None
