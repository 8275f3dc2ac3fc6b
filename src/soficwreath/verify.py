"""Executable certificates for the wreath construction.

Three layers of checks, all exact:

* ``check_almost_homomorphism``: a rule on the wreath product is close to
  multiplicative on a window whenever its two restrictions are close to
  multiplicative, mixed values split, and the base conjugation intertwines
  with the index shift.  The checker measures the four hypotheses (at eps/6)
  and the conclusion (at eps) independently and reports both.
* ``verify_construction`` / ``detailed_reports``: the assembled rule is a
  sofic approximation on its target window, with per-pair defects, per
  element freeness margins, and the budget decomposition behind them.
* ``oracle_check``: on carriers small enough to expand, a certificate's
  distances and the rule's products agree with explicit permutations.

Checks accept rule values that are either ``Permutation`` or ``CoordAction``;
both compose with ``*`` and measure with ``.distance``.  The good-block
lemma, ``check_good_block_bound`` with its ``GoodBlockReport``, lives in
``construct``, whose ``build`` runs it; this module re-exports both names.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq, itemgetter
from typing import Any, Callable

from .bigperm import EXPANSION_CAP, expand_explicit, explicit_image
from .construct import Budget, GoodBlockReport, WindowSets, WreathApprox, check_good_block_bound  # noqa: F401
from .groups import WreathElement, WreathProduct
from .jsonutil import frac_to_json, frac_from_json
from .perm import Permutation


def _worst(pairs):
    """Max of (defect, witness), the first one on a tie; empty -> (0, None)."""
    return max(pairs, key=itemgetter(0), default=(Fraction(0), None))


@dataclass(frozen=True)
class BulletReport:
    """One checked bound: the worst defect, its witness and the threshold it must stay under."""
    defect: Fraction
    witness: Any
    threshold: Fraction

    @property
    def passed(self) -> bool:
        return self.defect < self.threshold

    def to_json(self, encode) -> dict:
        return {
            "defect": frac_to_json(self.defect),
            "witness": encode(self.witness) if self.witness is not None else None,
            "threshold": frac_to_json(self.threshold),
            "pass": self.passed,
        }


@dataclass(frozen=True)
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
        def enc_pair(w):
            return [wreath.encode(u) for u in w]

        def enc_lamp_pair(w):
            return [wreath.lamps.encode(f) for f in w]

        def enc_base_pair(w):
            return [wreath.base.encode(h) for h in w]

        def enc_mixed(w):
            return [wreath.lamps.encode(w[0]), wreath.base.encode(w[1])]

        return {
            "eps": frac_to_json(self.eps),
            "lamp_mult": self.lamp_mult.to_json(enc_lamp_pair),
            "base_mult": self.base_mult.to_json(enc_base_pair),
            "split": self.split.to_json(enc_mixed),
            "intertwine": self.intertwine.to_json(enc_mixed),
            "hypotheses_pass": self.hypotheses_pass,
            "conclusion": self.conclusion.to_json(enc_pair),
        }


def check_almost_homomorphism(
    rule: Callable[[WreathElement], Any], wreath: WreathProduct, windows: WindowSets, eps
) -> AlmostHomReport:
    """Measure the four splitting hypotheses on the lamp and mover windows and,
    independently, the multiplicativity of the rule on the closure window.
    Pairs run in the windows' sorted order, which fixes every witness."""
    eps = Fraction(eps)
    lamps, base = wreath.lamps, wreath.base
    lamp_els, mover_els, closure_els = windows.lamp_window, windows.mover_window, windows.closure

    def lamp_only(f):
        return rule(WreathElement(f, base.identity()))

    def base_only(h):
        return rule(WreathElement(lamps.identity(), h))

    lamp_mult = _worst(
        (
            (lamp_only(f) * lamp_only(g)).distance(lamp_only(lamps.mul(f, g))),
            (f, g),
        )
        for f in lamp_els
        for g in lamp_els
    )
    base_mult = _worst(
        (
            (base_only(h) * base_only(k)).distance(base_only(base.mul(h, k))),
            (h, k),
        )
        for h in mover_els
        for k in mover_els
    )
    split = _worst(
        (rule(WreathElement(f, h)).distance(lamp_only(f) * base_only(h)), (f, h))
        for f in lamp_els
        for h in mover_els
    )
    intertwine = _worst(
        (
            (base_only(h) * lamp_only(f)).distance(lamp_only(lamps.shift(h, f)) * base_only(h)),
            (f, h),
        )
        for f in lamp_els
        for h in mover_els
    )
    conclusion = _worst(
        ((rule(u) * rule(v)).distance(rule(wreath.mul(u, v))), (u, v))
        for u in closure_els
        for v in closure_els
    )

    sixth = eps / 6
    return AlmostHomReport(
        eps=eps,
        lamp_mult=BulletReport(*lamp_mult, threshold=sixth),
        base_mult=BulletReport(*base_mult, threshold=sixth),
        split=BulletReport(*split, threshold=sixth),
        intertwine=BulletReport(*intertwine, threshold=sixth),
        conclusion=BulletReport(*conclusion, threshold=eps),
    )


# ---------------------------------------------------------------------------
# certificates for the assembled construction


@dataclass(frozen=True)
class FreenessEntry:
    """How the freeness margin of one non-identity target decomposes."""
    element: WreathElement
    margin: Fraction  # distance of the rule value from the identity
    base_margin: Fraction | None  # d(sigma_B(h), id) when the base part moves
    anchor_position: Any  # chosen support position when only lamps act
    fixed_fraction: Fraction | None
    bound: Fraction | None  # block_tolerance + input_tolerance

    @property
    def base_dominated(self) -> bool | None:
        if self.base_margin is None:
            return None
        return self.margin >= self.base_margin

    @property
    def within_bound(self) -> bool | None:
        if self.fixed_fraction is None:
            return None
        return self.fixed_fraction <= self.bound

    def to_json(self, wreath: WreathProduct) -> dict:
        return {
            "element": wreath.encode(self.element),
            "margin": frac_to_json(self.margin),
            "base_margin": frac_to_json(self.base_margin) if self.base_margin is not None else None,
            "anchor_position": wreath.base.encode(self.anchor_position)
            if self.anchor_position is not None
            else None,
            "fixed_fraction": frac_to_json(self.fixed_fraction)
            if self.fixed_fraction is not None
            else None,
            "bound": frac_to_json(self.bound) if self.bound is not None else None,
            "base_dominated": self.base_dominated,
            "within_bound": self.within_bound,
        }


@dataclass(frozen=True)
class MultiplicativityReport:
    """The splitting defects beside the bounds the construction proves for them."""
    almost_hom: AlmostHomReport
    lamp_bound: Fraction  # block_tolerance + window_size * input_tolerance
    base_bound: Fraction  # input_tolerance
    split_bound: Fraction  # exactly zero by construction
    intertwine_bound: Fraction  # 2 * block_tolerance

    @property
    def within_bounds(self) -> bool:
        a = self.almost_hom
        return (
            a.lamp_mult.defect <= self.lamp_bound
            and a.base_mult.defect <= self.base_bound
            and a.split.defect == self.split_bound == 0
            and a.intertwine.defect <= self.intertwine_bound
        )

    def to_json(self, wreath: WreathProduct) -> dict:
        return {
            "almost_hom": self.almost_hom.to_json(wreath),
            "bounds": {
                "lamp": frac_to_json(self.lamp_bound),
                "base": frac_to_json(self.base_bound),
                "split": frac_to_json(self.split_bound),
                "intertwine": frac_to_json(self.intertwine_bound),
            },
            "within_bounds": self.within_bounds,
        }


@dataclass(frozen=True)
class DetailedReport:
    """The budget decomposition behind a certificate: multiplicativity and freeness."""
    multiplicativity: MultiplicativityReport
    freeness: tuple[FreenessEntry, ...]

    def to_json(self, wreath: WreathProduct) -> dict:
        return {
            "multiplicativity": self.multiplicativity.to_json(wreath),
            "freeness": [e.to_json(wreath) for e in self.freeness],
        }


@dataclass(frozen=True)
class Certificate:
    """Exact per-pair defects and per-element margins of the assembled rule on its targets."""
    eps: Fraction
    window: tuple[WreathElement, ...]
    identity_pass: bool
    mult_defects: tuple[tuple[WreathElement, WreathElement, Fraction], ...]
    free_margins: tuple[tuple[WreathElement, Fraction], ...]
    budget: Budget
    details: DetailedReport

    @property
    def worst_defect(self) -> tuple[Fraction, Any]:
        return _worst((d, (u, v)) for u, v, d in self.mult_defects)

    @property
    def min_margin(self) -> tuple[Fraction | None, Any]:
        witness, margin = min(self.free_margins, key=itemgetter(1), default=(None, None))
        return margin, witness

    @property
    def mult_pass(self) -> bool:
        return self.worst_defect[0] < self.eps

    @property
    def free_pass(self) -> bool:
        margin, _ = self.min_margin
        return margin is None or margin > 1 - self.eps

    @property
    def passed(self) -> bool:
        return self.identity_pass and self.mult_pass and self.free_pass

    def violations(self, wreath: WreathProduct) -> list[str]:
        out = []
        if not self.identity_pass:
            out.append("rule(identity) is not the identity")
        for u, v, d in self.mult_defects:
            if d >= self.eps:
                out.append(f"multiplicative defect {d} at pair ({wreath.encode(u)}, {wreath.encode(v)})")
        for u, m in self.free_margins:
            if m <= 1 - self.eps:
                out.append(f"freeness margin {m} at {wreath.encode(u)}")
        return out

    def to_json(self, wreath: WreathProduct) -> dict:
        """The format-1 certificate.  Do not mutate it: it shares one dict per window element and
        per distinct defect or margin, which ``dump_indented`` writes once per depth.  Values are
        keyed by their integer ratio, which hashes faster than a Fraction."""
        enc = {u: wreath.encode(u) for u in self.window}
        values = {x.as_integer_ratio(): x for x in [d for *_, d in self.mult_defects] + [m for _, m in self.free_margins]}
        fracs = {ratio: frac_to_json(x) for ratio, x in values.items()}
        return {
            "kind": "sofic-certificate",
            "format": 1,
            "group": wreath.descriptor(),
            "window": [enc[u] for u in self.window],
            "eps": frac_to_json(self.eps),
            "identity_pass": self.identity_pass,
            "mult_defects": [
                {"pair": [enc[u], enc[v]], "defect": fracs[d.as_integer_ratio()]} for u, v, d in self.mult_defects
            ],
            "free_margins": [{"element": enc[u], "margin": fracs[m.as_integer_ratio()]} for u, m in self.free_margins],
            "budget": self.budget.to_json(),
            "details": self.details.to_json(wreath),
            "pass": self.passed,
            "seed": None,  # format 1 keeps the key; nothing seeds a certificate
        }


def detailed_reports(approx: WreathApprox) -> DetailedReport:
    """Budget decomposition: the four splitting defects with their structural
    bounds, and per-element freeness decompositions."""
    wreath = approx.wreath
    windows = approx.windows
    budget = approx.budget

    almost = check_almost_homomorphism(approx.rule, wreath, windows, budget.eps)
    mult = MultiplicativityReport(
        almost_hom=almost,
        lamp_bound=budget.block_tolerance + len(windows.positions) * budget.input_tolerance,
        base_bound=budget.input_tolerance,
        split_bound=Fraction(0),
        intertwine_bound=2 * budget.block_tolerance,
    )

    ident = approx.identity_value()
    base_ident = Permutation.identity(approx.b_size)
    entries = []
    for u in windows.targets:
        if u == wreath.identity():
            continue
        margin = approx.rule(u).distance(ident)
        if not wreath.base.is_identity(u.right):
            base_margin = approx.sigma_B.evaluate(u.right).distance(base_ident)
            entries.append(FreenessEntry(u, margin, base_margin, None, None, None))
        else:
            support = u.left.support()
            anchor = min(support, key=wreath.base.key) if support else None
            # the fixed fraction is 1 - d(rule(u), id), and margin is that distance
            entries.append(
                FreenessEntry(
                    u,
                    margin,
                    None,
                    anchor,
                    1 - margin,
                    budget.block_tolerance + budget.input_tolerance,
                )
            )
    return DetailedReport(multiplicativity=mult, freeness=tuple(entries))


def verify_construction(approx: WreathApprox) -> Certificate:
    """Exhaustive exact certificate of the assembled rule on its targets."""
    wreath = approx.wreath
    targets = approx.windows.targets

    identity_pass = approx.rule(wreath.identity()) == approx.identity_value()
    mult_defects = tuple(
        (u, v, (approx.rule(u) * approx.rule(v)).distance(approx.rule(wreath.mul(u, v))))
        for u in targets
        for v in targets
    )
    ident = approx.identity_value()
    free_margins = tuple(
        (u, approx.rule(u).distance(ident)) for u in targets if u != wreath.identity()
    )
    return Certificate(
        eps=approx.budget.eps,
        window=targets,
        identity_pass=identity_pass,
        mult_defects=mult_defects,
        free_margins=free_margins,
        budget=approx.budget,
        details=detailed_reports(approx),
    )


def certificate_from_json(data: dict) -> dict:
    """Light validation for stored certificates (used by the report command)."""
    if not isinstance(data, dict) or data.get("kind") != "sofic-certificate" or data.get("format") != 1:
        raise ValueError("not a sofic certificate")
    frac_from_json(data["eps"])  # validates shape
    return data


def oracle_check(approx: WreathApprox, certificate: Certificate, cap: int = EXPANSION_CAP) -> list[str]:
    """Cross-check every distance of ``certificate`` against explicit expansion.

    Each value is expanded once, when first needed (a product of two targets
    may fall outside the closure), and each ``rule(u) * rule(v)`` must expand
    to the composition of the expansions.  Raises ValueError for another
    target window or a carrier over ``cap``; returns one line per mismatch.
    """
    wreath = approx.wreath
    targets = approx.windows.targets
    identity = wreath.identity()
    if (
        certificate.window != targets
        or [u for u, _ in certificate.free_margins] != [u for u in targets if u != identity]
        or len(certificate.mult_defects) != len(targets) ** 2
    ):
        raise ValueError("certificate is not for the approximation's target window")
    n = approx.carrier_size()
    explicit = {}

    def expand(u):
        if (value := explicit.get(u)) is None:
            value = explicit[u] = expand_explicit(approx.rule(u), cap)
        return value

    def pair(u, v):
        return f"pair ({wreath.encode(u)}, {wreath.encode(v)})"

    mismatches = []
    if certificate.identity_pass != expand(identity).is_identity():
        mismatches.append(f"identity mismatch: certificate says {certificate.identity_pass}")
    for u, d_fact in certificate.free_margins:
        d_expl = Fraction(n - expand(u).fixed_points(), n)
        if d_fact != d_expl:
            mismatches.append(f"freeness distance mismatch at {wreath.encode(u)}: {d_fact} vs {d_expl}")
    values = [(v, approx.rule(v), expand(v).image) for v in targets]
    defects = iter(certificate.mult_defects)
    for u, ru, eu in values:
        for v, rv, ev in values:
            cu, cv, d_fact = next(defects)
            if (cu, cv) != (u, v):
                raise ValueError(f"certificate does not list {pair(u, v)} in order")
            product = tuple([eu[x] for x in ev])  # a product of checked bijections
            if explicit_image(ru * rv, cap) != product:
                mismatches.append(f"composition mismatch at {pair(u, v)}")
                continue
            d_expl = Fraction(n - sum(map(eq, product, expand(wreath.mul(u, v)).image)), n)
            if d_fact != d_expl:
                mismatches.append(f"distance mismatch at {pair(u, v)}: {d_fact} vs {d_expl}")
    return mismatches
