"""Executable certificates for the wreath construction.

Three layers of checks, all exact:

* ``check_almost_homomorphism``: a rule on the wreath product is close to
  multiplicative on a window whenever its two restrictions are close to
  multiplicative, mixed values split, and the base conjugation intertwines
  with the index shift.  The checker measures the four hypotheses (at eps/6),
  in ``splitting_hypotheses``, and the conclusion (at eps) independently.  For
  the construction, ``construction_records`` gives the four hypotheses' records
  in closed form, on invariants ``build`` establishes, and composing checks them
  (the Tier-1 harness and ``oracle_check``).
* ``verify_construction`` / ``detailed_reports``: the assembled rule is a
  sofic approximation on its target window, with per-pair defects, per
  element freeness margins, and the budget decomposition behind them; each
  margin is measured once and then broken down.  A ``Certificate`` keeps the
  ``(d, (u, v))`` of ``sofic.pair_defects``; its ``(m, u)`` are read from ``details``.
  ``to_json`` writes format 1, and ``certificate_from_json``, its one reader,
  checks every stored copy by re-encoding what it decodes.
* ``oracle_check``: on carriers small enough to expand, the rule's products
  agree with explicit permutations, and so do a certificate's pair defects,
  margins, base margins and four hypothesis bullets, the bullets through
  ``splitting_hypotheses``.  The costly conclusion bullet is not re-measured.

Checks accept rule values that are either ``Permutation`` or ``CoordAction``;
both compose with ``*`` and measure with ``.distance``.  The pair walk, the
witness rule and the pass rule are those of the input certificates, in ``sofic``.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from itertools import count, product, repeat
from math import prod
from operator import eq, itemgetter
from typing import Any, Callable

from ._record import record
from .bigperm import EXPANSION_CAP, expand_explicit, explicit_image, identity_action
from .construct import Budget, WindowSets, WreathApprox, make_budget
from .groups import WreathElement, WreathProduct, group_from_descriptor
from .jsonutil import checked, frac_from_json, frac_to_json, is_positive_int, same_json
from .perm import Permutation, agreement_count, gather
from .sofic import CertificateError, failing_parts, pair_defects, worst


@record
class BulletReport:
    """One checked bound: the worst defect, its witness and the threshold it must stay under."""
    defect: Fraction
    witness: Any
    threshold: Fraction

    @property
    def passed(self) -> bool:
        return self.defect < self.threshold

    def to_json(self, groups) -> dict:
        return {
            "defect": frac_to_json(self.defect),
            "witness": [g.encode(x) for g, x in zip(groups, self.witness)] if self.witness is not None else None,
            "threshold": frac_to_json(self.threshold),
            "pass": self.passed,
        }


@record
class AlmostHomReport:
    """The four splitting hypotheses, checked at eps/6, and the conclusion, checked at eps."""
    eps: Fraction
    lamp_mult: BulletReport
    base_mult: BulletReport
    split: BulletReport
    intertwine: BulletReport
    conclusion: BulletReport

    @property
    def hypotheses_pass(self) -> bool:
        return all(b.passed for b in (self.lamp_mult, self.base_mult, self.split, self.intertwine))

    def to_json(self, wreath: WreathProduct) -> dict:
        out = {"eps": frac_to_json(self.eps)} | {n: getattr(self, n).to_json(g) for n, g in _witness_groups(wreath)}
        conclusion = out.pop("conclusion")
        return {**out, "hypotheses_pass": self.hypotheses_pass, "conclusion": conclusion}


_HYPOTHESES = ("lamp_mult", "base_mult", "split", "intertwine")


def _witness_groups(wreath: WreathProduct):
    """Each bullet's name with the groups of its witness's two elements, in field order."""
    lamps, base = wreath.lamps, wreath.base
    groups = (lamps, lamps), (base, base), (lamps, base), (lamps, base), (wreath, wreath)
    return zip((*_HYPOTHESES, "conclusion"), groups)


def _almost_hom_report(eps: Fraction, worst) -> AlmostHomReport:
    """The five (defect, witness) pairs, in ``_witness_groups`` order, checked:
    the four hypotheses at eps/6 and the conclusion at eps."""
    thresholds = (eps / 6,) * 4 + (eps,)
    return AlmostHomReport(eps, *(BulletReport(d, w, t) for (d, w), t in zip(worst, thresholds)))


def splitting_hypotheses(
    rule: Callable[[WreathElement], Any], wreath: WreathProduct, windows: WindowSets, records=None
) -> tuple:
    """The four splitting hypotheses' worst ``(defect, witness)`` pairs, in
    ``_witness_groups`` order, measured on the lamp and mover windows.  Pairs
    run in the windows' sorted order, which fixes every witness.  Given
    ``records``, each bullet name's ``(d, (x, y))`` records in that order, as
    ``construction_records`` computes them, nothing is composed; else, as for
    any other rule and for the oracle's expansions, each bullet is composed."""
    if records is not None:
        return tuple(worst(records[name]) for name in _HYPOTHESES)
    lamps, base = wreath.lamps, wreath.base
    lamp_els, mover_els = windows.lamp_window, windows.mover_window

    def lamp_only(f):
        return rule(WreathElement(f, base.identity()))

    def base_only(h):
        return rule(WreathElement(lamps.identity(), h))

    lamp_mult = worst(pair_defects(lamp_only, lamps.mul, lamp_els))
    base_mult = worst(pair_defects(base_only, base.mul, mover_els))
    split = worst(
        (rule(WreathElement(f, h)).distance(lamp_only(f) * base_only(h)), (f, h)) for f in lamp_els for h in mover_els
    )
    intertwine = worst(
        ((base_only(h) * lamp_only(f)).distance(lamp_only(lamps.shift(h, f)) * base_only(h)), (f, h))
        for f in lamp_els for h in mover_els
    )
    return lamp_mult, base_mult, split, intertwine


def check_almost_homomorphism(
    rule: Callable[[WreathElement], Any], wreath: WreathProduct, windows: WindowSets, eps, records=None
) -> AlmostHomReport:
    """The four ``splitting_hypotheses``, from ``records`` if given, and the conclusion, composed over the closure."""
    hypotheses = splitting_hypotheses(rule, wreath, windows, records)
    conclusion = worst(pair_defects(rule, wreath.mul, windows.closure))
    return _almost_hom_report(Fraction(eps), (*hypotheses, conclusion))


# ---------------------------------------------------------------------------
# certificates for the assembled construction


@record
class FreenessEntry:
    """How the freeness margin of one non-identity target decomposes."""
    element: WreathElement
    margin: Fraction  # distance of the rule value from the identity
    base_margin: Fraction | None  # d(sigma_B(h), id) when the base part moves
    anchor_position: Any  # chosen support position when only lamps act
    bound: Fraction | None  # block_tolerance + input_tolerance when only lamps act

    @property
    def fixed_fraction(self) -> Fraction | None:
        """The fraction of points the value fixes, 1 - margin, when only lamps act."""
        return None if self.base_margin is not None else 1 - self.margin

    @property
    def base_dominated(self) -> bool | None:
        return None if self.base_margin is None else self.margin >= self.base_margin

    @property
    def within_bound(self) -> bool | None:
        return None if self.base_margin is not None else self.fixed_fraction <= self.bound

    def to_json(self, wreath: WreathProduct) -> dict:
        fixed = self.fixed_fraction
        return {
            "element": wreath.encode(self.element),
            "margin": frac_to_json(self.margin),
            "base_margin": frac_to_json(self.base_margin) if self.base_margin is not None else None,
            "anchor_position": None if self.anchor_position is None else wreath.base.encode(self.anchor_position),
            "fixed_fraction": frac_to_json(fixed) if fixed is not None else None,
            "bound": frac_to_json(self.bound) if self.bound is not None else None,
            "base_dominated": self.base_dominated,
            "within_bound": self.within_bound,
        }


@record
class DetailedReport:
    """The budget decomposition behind a certificate: the four splitting
    defects beside the bounds the construction proves for them, read from the
    budget, and the per-element freeness decompositions."""
    almost_hom: AlmostHomReport
    budget: Budget
    freeness: tuple[FreenessEntry, ...]

    @property
    def bounds(self) -> dict[str, Fraction]:
        b = self.budget
        return {
            "lamp": b.block_tolerance + b.window_size * b.input_tolerance,
            "base": b.input_tolerance,
            "split": Fraction(0),
            "intertwine": 2 * b.block_tolerance,
        }

    @property
    def within_bounds(self) -> bool:
        """Each splitting defect is at most its bound; distances are >= 0, so split's bound 0 is equality."""
        a = self.almost_hom
        bullets = a.lamp_mult, a.base_mult, a.split, a.intertwine
        return all(b.defect <= bound for b, bound in zip(bullets, self.bounds.values()))

    def to_json(self, wreath: WreathProduct) -> dict:
        return {
            "multiplicativity": {
                "almost_hom": self.almost_hom.to_json(wreath),
                "bounds": {name: frac_to_json(bound) for name, bound in self.bounds.items()},
                "within_bounds": self.within_bounds,
            },
            "freeness": [e.to_json(wreath) for e in self.freeness],
        }


@record
class Certificate:
    """Exact per-pair defects and per-element margins of the assembled rule on its targets."""
    window: tuple[WreathElement, ...]
    mult_defects: tuple[tuple[Fraction, tuple[WreathElement, WreathElement]], ...]
    details: DetailedReport

    @property
    def eps(self) -> Fraction:
        return self.details.budget.eps

    @property
    def free_margins(self) -> tuple[tuple[Fraction, WreathElement], ...]:
        return tuple((e.margin, e.element) for e in self.details.freeness)

    @property
    def worst_defect(self) -> tuple[Fraction, Any]:
        return worst(self.mult_defects)

    @property
    def min_margin(self) -> tuple[Fraction | None, Any]:
        return min(self.free_margins, key=itemgetter(0), default=(None, None))

    @cached_property
    def passed(self) -> bool:
        return not any(failing_parts(self.eps, self.mult_defects, self.free_margins))

    def violations(self, wreath: WreathProduct) -> list[str]:
        return list(failing_parts(self.eps, self.mult_defects, self.free_margins, wreath.show))

    def to_json(self, wreath: WreathProduct) -> dict:
        """The format-1 certificate.  Do not mutate it: it shares one dict per window element and
        per distinct defect or margin, which ``dump_indented`` writes once per depth.  Values are
        keyed by their integer ratio, which hashes faster than a Fraction."""
        enc = {u: wreath.encode(u) for u in self.window}
        margins = self.free_margins
        values = {x.as_integer_ratio(): x for x in [d for d, _ in self.mult_defects] + [m for m, _ in margins]}
        fracs = {ratio: frac_to_json(x) for ratio, x in values.items()}
        return {
            "kind": "sofic-certificate",
            "format": 1,
            "group": wreath.descriptor(),
            "window": [enc[u] for u in self.window],
            "eps": frac_to_json(self.eps),
            "identity_pass": True,  # format 1 keeps the key; build rejects a rule(1) other than the identity
            "mult_defects": [
                {"pair": [enc[u], enc[v]], "defect": fracs[d.as_integer_ratio()]} for d, (u, v) in self.mult_defects
            ],
            "free_margins": [{"element": enc[u], "margin": fracs[m.as_integer_ratio()]} for m, u in margins],
            "budget": self.details.budget.to_json(),
            "details": self.details.to_json(wreath),
            "pass": self.passed,
            "seed": None,  # format 1 keeps the key; nothing seeds a certificate
        }


def certificate_from_json(data) -> tuple[Certificate, WreathProduct]:
    """The one reader of format 1.  It decodes what ``verify_construction``
    measures: group, window, a defect per window pair in row-major order, the
    bullet defects and witnesses, each margin and base margin of
    ``details.freeness``, ``eps`` and the budget's ``window_size``.  The rest is
    rebuilt as ``verify`` builds it, ``"identity_pass": true`` too, and ``to_json``
    must give back ``data``: else a ValueError names the first top-level key
    that differs.  A stored ``pass`` other than ``passed`` is a CertificateError."""

    def distance(node: dict, key: str, path: str) -> Fraction:
        return checked(frac_from_json(node[key]), lambda d: 0 <= d <= 1, f"certificate {path}.{key}", "in [0, 1]")

    if not isinstance(data, dict) or data.get("kind") != "sofic-certificate" or not same_json(data.get("format"), 1):
        raise ValueError("not a sofic certificate")
    eps = frac_from_json(data["eps"])
    if eps <= 0:
        raise ValueError(f"certificate eps must be positive, got {eps}")
    checked(data["pass"], lambda x: type(x) is bool, "pass", "a boolean")
    wreath = group_from_descriptor(data["group"])
    if not isinstance(wreath, WreathProduct):
        raise ValueError("certificate group must be a wreath product")
    window = tuple(map(wreath.decode, data["window"]))
    if not window or window != wreath.sort(set(window)):
        raise ValueError("certificate window must list distinct elements in the group's order")
    stored = data["mult_defects"]
    if len(stored) != len(window) ** 2:
        raise ValueError(f"certificate lists {len(stored)} pairs for a window of {len(window)}")
    defects = (distance(entry, "defect", f"mult_defects.{i}") for i, entry in enumerate(stored))
    mult_defects = tuple(zip(defects, product(window, repeat=2)))
    window_size = checked(data["budget"]["window_size"], is_positive_int, "budget window_size", "a positive integer")
    budget = make_budget(eps, window_size)
    hom = data["details"]["multiplicativity"]["almost_hom"]
    worst = []
    for name, groups in _witness_groups(wreath):
        # every window holds the identity, so every bullet has a witness
        witness = checked(hom[name]["witness"], lambda w: type(w) is list and len(w) == 2, f"{name} witness", "a pair")
        worst.append((distance(hom[name], "defect", name), tuple(g.decode(x) for g, x in zip(groups, witness))))
    others, entries = [u for u in window if u != wreath.identity()], data["details"]["freeness"]
    if len(entries) != len(others):
        raise ValueError(f"certificate lists {len(entries)} freeness entries for {len(others)} non-identity elements")
    freeness = tuple(
        _freeness_entry(wreath, budget, u, distance(e, "margin", at), lambda: distance(e, "base_margin", at))
        for u, e, at in zip(others, entries, map("details.freeness.{}".format, count()))
    )
    details = DetailedReport(_almost_hom_report(eps, worst), budget, freeness)
    certificate = Certificate(window, mult_defects, details)

    encoded = certificate.to_json(wreath)
    for key in [*encoded, *data]:
        if key != "pass" and (key not in data or key not in encoded or not same_json(data[key], encoded[key])):
            raise ValueError(f"certificate {key} differs from the encoding of its measured values")
    if data["pass"] != certificate.passed:
        raise CertificateError(f'stored "pass": {str(data["pass"]).lower()} disagrees with the listed checks')
    return certificate, wreath


def lamp_pair_defects(approx: WreathApprox):
    """The construction's ``lamp_mult`` records ``(d, (f, g))`` over the lamp window,
    on the invariants of ``construction_records``: with P_f(x) = sigma_A(f(x)) and
    a_x = agreement_count(P_f(x) P_g(x), P_fg(x)) for x in supp f & supp g,
    d(f, g) = |good|/|B| (1 - prod_x a_x/|A|).  Both sides have the identity base
    move, fix every block outside the good set, and write at each good block b on
    the anchors sigma_B(x)^-1 b, distinct for distinct x; an x that only one of f
    and g lights has a_x = |A|.  Each a_x is counted once per pair of lamp values,
    in a table kept for one walk."""
    lamp, sigma_A, a_size = approx.wreath.lamp, approx.sigma_A, approx.a_size
    good, b_size = len(approx.block.good), approx.b_size

    @cache
    def agreement(a, b) -> int:
        return agreement_count(sigma_A.evaluate(a) * sigma_A.evaluate(b), sigma_A.evaluate(lamp.mul(a, b)))

    maps = [(f, dict(f.entries)) for f in approx.windows.lamp_window]
    for f, at_f in maps:
        for g, at_g in maps:
            shared = at_f.keys() & at_g.keys()
            agree, top = prod(agreement(at_f[x], at_g[x]) for x in shared), a_size ** len(shared)
            yield Fraction(good * (top - agree), b_size * top), (f, g)


def construction_records(approx: WreathApprox) -> dict:
    """The construction's four hypothesis records by bullet name, in the order of
    ``splitting_hypotheses``'s walks, from sigma_A, sigma_B and the good blocks
    without composing.  They rest on what ``build`` establishes: sigma_B(1) = id;
    every lamp-window support, and its shift by each mover, lies in the positions;
    good blocks are injective and compatible on the positions.  ``lamp_mult`` is
    ``lamp_pair_defects``; ``base_mult`` walks beta = sigma_B(h) on the mover window,
    as a base-only value has an empty tau; ``split`` is 0, as ``lamp_action`` builds
    (f, h) as the lamp-only value after the base move; and, with k = |supp f|,

        intertwine(f, h) = 2 |good - beta^-1(good)| (|A|^k - prod_x fix(f(x))) / (|B| |A|^k),

    fix(g) the fixed points of sigma_A(g).  Where b and beta(b) are both good, both
    sides write alike, by compatibility; where only one is, one side writes on k
    distinct anchors, by injectivity.  As beta is a bijection, those blocks number
    twice the good blocks that beta moves out of the good set."""
    windows, sigma_B, good = approx.windows, approx.sigma_B, approx.block.good
    lamp_els, mover_els = windows.lamp_window, windows.mover_window
    leaving = {h: len(good.difference(map(sigma_B.evaluate(h).inverse().image.__getitem__, good))) for h in mover_els}
    fix = {g: approx.sigma_A.evaluate(g).fixed_points() for g in windows.lamp_values}

    def intertwine():
        for f in lamp_els:
            top = approx.a_size ** len(f.entries)
            moved = top - prod(fix[g] for _, g in f.entries)
            for h in mover_els:
                yield Fraction(2 * leaving[h] * moved, approx.b_size * top), (f, h)

    return {
        "lamp_mult": lamp_pair_defects(approx),
        "base_mult": pair_defects(sigma_B.evaluate, approx.wreath.base.mul, mover_els),
        "split": zip(repeat(Fraction(0)), product(lamp_els, mover_els)),
        "intertwine": intertwine(),
    }


def detailed_reports(approx: WreathApprox, free_margins) -> DetailedReport:
    """Budget decomposition: the four splitting defects with their structural
    bounds, and the decomposition of each freeness margin in ``free_margins``,
    the (margin, element) records that ``verify_construction`` measured.  The
    four bullets come from ``construction_records``, and only the conclusion
    bullet is composed, as ``check_almost_homomorphism`` measures it."""
    wreath, budget = approx.wreath, approx.budget
    almost = check_almost_homomorphism(approx.rule, wreath, approx.windows, budget.eps, construction_records(approx))
    base_ident = Permutation.identity(approx.b_size)
    entries = tuple(
        _freeness_entry(wreath, budget, u, margin, lambda: approx.sigma_B.evaluate(u.right).distance(base_ident))
        for margin, u in free_margins
    )
    return DetailedReport(almost_hom=almost, budget=budget, freeness=entries)


def _freeness_entry(wreath: WreathProduct, budget: Budget, u: WreathElement, margin, base_margin) -> FreenessEntry:
    """The decomposition of the margin of ``u``: ``base_margin()`` when its base
    part moves, else the anchor of its lamps and the lamp-only bound."""
    if not wreath.base.is_identity(u.right):
        return FreenessEntry(u, margin, base_margin(), None, None)
    support = u.left.support()
    anchor = min(support, key=wreath.base.key) if support else None
    return FreenessEntry(u, margin, None, anchor, budget.block_tolerance + budget.input_tolerance)


def verify_construction(approx: WreathApprox) -> Certificate:
    """Exhaustive exact certificate of the assembled rule on its targets.

    >>> from .construct import build
    >>> from .groups import WreathProduct, cyclic
    >>> from .sofic import regular_rep
    >>> wreath = WreathProduct(cyclic(2), cyclic(2))
    >>> approx = build(regular_rep(cyclic(2)), regular_rep(cyclic(2)), list(wreath.elements()), Fraction(1, 2))
    >>> certificate = verify_construction(approx)
    >>> certificate.passed, certificate.worst_defect[0], certificate.min_margin[0]
    (True, Fraction(0, 1), Fraction(1, 1))
    """
    wreath = approx.wreath
    targets = approx.windows.targets

    ident = identity_action(approx.a_size, approx.b_size)
    mult_defects = tuple(pair_defects(approx.rule, wreath.mul, targets))
    free_margins = tuple((approx.rule(u).distance(ident), u) for u in targets if u != wreath.identity())
    return Certificate(targets, mult_defects, detailed_reports(approx, free_margins))


def oracle_check(approx: WreathApprox, certificate: Certificate, cap: int = EXPANSION_CAP) -> list[str]:
    """Cross-check every distance of ``certificate`` against explicit expansion.

    Each distinct value is expanded once, when first needed, and each
    ``rule(u) * rule(v)`` must expand to the composition of the expansions;
    it is expanded only when it differs from ``rule(uv)``.  Each pair defect,
    margin and base margin is re-measured on the expansions, and so are the
    four hypothesis bullets, defect and witness, by ``splitting_hypotheses``.
    The conclusion bullet is not: its closure walk would add about a tenth to
    a finite-oracle ``verify``.  Raises ValueError for another target window
    or a carrier over ``cap``; one line per mismatch.
    """
    wreath = approx.wreath
    targets = approx.windows.targets
    identity = wreath.identity()
    if (
        certificate.window != targets
        or [u for _, u in certificate.free_margins] != [u for u in targets if u != identity]
        or len(certificate.mult_defects) != len(targets) ** 2
    ):
        raise ValueError("certificate is not for the approximation's target window")
    n = approx.carrier_size()

    @cache
    def expand(u):
        return expand_explicit(approx.rule(u), cap)

    def pair(witness, groups=(wreath, wreath)):
        return "pair ({}, {})".format(*(g.show(x) for g, x in zip(groups, witness)))

    def differs(d: Fraction, moved: int) -> bool:  # d != moved / n in integers: no Fraction for a match
        return d.numerator * n != moved * d.denominator

    mismatches = []
    if not expand(identity).is_identity():
        mismatches.append("identity mismatch: rule(identity) does not expand to the identity")
    for e in certificate.details.freeness:
        u, base_only = e.element, WreathElement(wreath.lamps.identity(), e.element.right)
        if differs(e.margin, moved := n - expand(u).fixed_points()):
            mismatches.append(f"freeness distance mismatch at {wreath.show(u)}: {e.margin} vs {Fraction(moved, n)}")
        if e.base_margin is not None and differs(e.base_margin, moved := n - expand(base_only).fixed_points()):
            mismatches.append(f"base margin mismatch at {wreath.show(u)}: {e.base_margin} vs {Fraction(moved, n)}")
    values = [(v, approx.rule(v), expand(v)) for v in targets]
    for (d_fact, listed), ((u, ru, eu), (v, rv, ev)) in zip(certificate.mult_defects, product(values, repeat=2)):
        if listed != (u, v):
            raise ValueError(f"certificate does not list {pair((u, v))} in order")
        w, ruv, composed = wreath.mul(u, v), ru * rv, gather(eu.image, ev.image)
        if (expand(w).image if ruv == approx.rule(w) else explicit_image(ruv, cap)) != composed:
            mismatches.append(f"composition mismatch at {pair((u, v))}")
            continue
        if differs(d_fact, moved := n - sum(map(eq, composed, expand(w).image))):
            mismatches.append(f"distance mismatch at {pair((u, v))}: {d_fact} vs {Fraction(moved, n)}")
    for (name, groups), (d, witness) in zip(_witness_groups(wreath), splitting_hypotheses(expand, wreath, approx.windows)):
        bullet = getattr(certificate.details.almost_hom, name)
        if bullet.defect != d or bullet.witness != witness:
            mismatches.append(
                f"{name} mismatch: {bullet.defect} at {pair(bullet.witness, groups)} vs {d} at {pair(witness, groups)}"
            )
    return mismatches
