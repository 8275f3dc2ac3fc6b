"""Assemble a wreath-product approximation from lamp and base approximations.

Given approximations sigma_A of the lamp group on carrier A and sigma_B of
the base group on carrier B, the combined rule acts on A^B x B:

* the base element moves the block: (a, b) -> (a, sigma_B(h) b);
* a lamp configuration f acts at each good block b by rewriting, for every
  position x in its support, the coordinate sigma_B(x)^{-1} b with
  sigma_A(f(x)).

Anchoring coordinates at the *inverse* image sigma_B(x)^{-1} b is what makes
the construction compatible with the index-shift action: moving the block by
h carries the anchor of position x at b to the anchor of position h x at
sigma_B(h) b, exactly where the shifted configuration writes its value.  The
good-block conditions below are stated for the same inverse maps so that, on
a good block, the anchors of distinct positions never collide and anchors
compose with the base rule.

Everything is driven by window sets derived from the finite target set:
the closure adds the identity and inverses; the lamp/mover windows collect
projections and their shifts; the positions window collects every support a
shifted lamp configuration can occupy; the lamp-value and base windows are
what the two input approximations must certify.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, count
from operator import eq, ne

from .bigperm import CoordAction, coord_action, identity_action
from .groups import FinSuppMap, WreathElement, WreathProduct, group_from_descriptor
from .jsonutil import frac_to_json, frac_from_json
from .perm import Permutation, _gather
from .sofic import CertificateError, DefectReport, SoficApprox, _require_window, require_sofic


@dataclass(frozen=True)
class WindowSets:
    """The finite windows derived from a target set of wreath elements.

    All fields are tuples sorted by the relevant group key, so enumeration
    order (in particular the order of the positions window, which fixes the
    factor order of lamp products) is deterministic.
    """

    targets: tuple[WreathElement, ...]
    closure: tuple[WreathElement, ...]  # targets + identity + inverses
    lamp_window: tuple[FinSuppMap, ...]  # shifted lamp projections
    mover_window: tuple  # base projections of the closure
    positions: tuple  # base elements whose blocks lamps may touch
    lamp_values: tuple  # lamp-group window sigma_A must certify
    base_window: tuple  # base-group window sigma_B must certify


def derive_windows(wreath: WreathProduct, targets) -> WindowSets:
    """Compute every window the construction and its certificates need.

    By construction the positions hold the identity and every shifted support
    h x (h in the mover window, x in the support of a lamp-window map), and
    the base window holds the positions, their inverses and their quotients.
    """
    targets = wreath.sort(set(targets))
    if not targets:
        raise ValueError("target set must be nonempty")
    base, lamps = wreath.base, wreath.lamps

    closure = set(targets) | {wreath.identity()} | {wreath.inv(u) for u in targets}
    mover = {u.right for u in closure}
    lamp_proj = {u.left for u in closure}
    lamp_window = {lamps.shift(h, f) for h in mover | {base.identity()} for f in lamp_proj}

    positions = set(mover)
    for f in lamp_window:
        for h in mover:
            positions.update(base.mul(h, x) for x in f.support())

    lamp_values = {g for f in lamp_window for _, g in f.entries}
    lamp_values.add(wreath.lamp.identity())  # freeness bookkeeping needs rule(1) = id certified

    return WindowSets(
        targets=targets,
        closure=wreath.sort(closure),
        lamp_window=tuple(sorted(lamp_window, key=lamps.key)),
        mover_window=base.sort(mover),
        positions=base.sort(positions),
        lamp_values=wreath.lamp.sort(lamp_values),
        base_window=base.sort(derive_base_window(base, positions)),
    )


def derive_base_window(base, positions) -> set:
    """What sigma_B must certify: positions, inverses, quotients h1^{-1} h2."""
    window = {base.mul(base.inv(h1), h2) for h1 in positions for h2 in positions}
    return window | set(positions) | {base.inv(h) for h in positions}


@dataclass(frozen=True)
class Budget:
    """Tolerances: the target eps, the good-block loss, and the input grade.

    The invariants keep each derived tolerance strictly inside its allowed
    range: block_tolerance < eps/12, input_tolerance < eps/(48 w^2) and
    < block_tolerance/(4 w^2), where w is the positions-window size.
    """

    eps: Fraction
    block_tolerance: Fraction
    input_tolerance: Fraction
    window_size: int

    def __post_init__(self):
        w2 = Fraction(self.window_size**2)
        if not (self.eps > 0 and self.block_tolerance > 0 and self.input_tolerance > 0):
            raise ValueError("tolerances must be positive")
        if not self.block_tolerance < self.eps / 12:
            raise ValueError(f"block tolerance {self.block_tolerance} not < eps/12")
        if not self.input_tolerance < self.eps / (48 * w2):
            raise ValueError(f"input tolerance {self.input_tolerance} not < eps/(48 w^2)")
        if not self.input_tolerance < self.block_tolerance / (4 * w2):
            raise ValueError(f"input tolerance {self.input_tolerance} not < block/(4 w^2)")

    def to_json(self) -> dict:
        return {
            "eps": frac_to_json(self.eps),
            "block_tolerance": frac_to_json(self.block_tolerance),
            "input_tolerance": frac_to_json(self.input_tolerance),
            "window_size": self.window_size,
        }


def make_budget(eps, window_size: int) -> Budget:
    """Concrete tolerances strictly inside the open bounds.

    block = eps/13 (< eps/12) and input = eps/(96 w^2), which is below both
    eps/(48 w^2) and (eps/13)/(4 w^2) = eps/(52 w^2).
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if window_size < 1:
        raise ValueError("window size must be >= 1")
    return Budget(eps, eps / 13, eps / (96 * window_size**2), window_size)


@dataclass(frozen=True)
class GoodBlock:
    """Blocks where the base rule is injective and compatible across positions.

    With Q(x) = sigma_B(x)^{-1}:
      injective:  Q(h1) b != Q(h2) b for all distinct h1, h2 in the window;
      compatible: Q(h1 h2) b = Q(h2) Q(h1) b for all h1, h2 in the window;
      good = injective & compatible.
    On good blocks distinct positions anchor distinct coordinates, and the
    anchors transform correctly under the base rule.
    """

    injective: frozenset[int]
    compatible: frozenset[int]
    good: frozenset[int]

    def to_json(self) -> dict:
        return {
            "injective": sorted(self.injective),
            "compatible": sorted(self.compatible),
            "good": sorted(self.good),
        }


def compute_good_blocks(sigma_B: SoficApprox, positions) -> GoodBlock:
    base = sigma_B.group
    positions = base.sort(set(positions))
    needed = {*positions, *(base.mul(h1, h2) for h1 in positions for h2 in positions)}
    _require_window(sigma_B, needed, "good-block computation")

    inv = {h: sigma_B.evaluate(h).inverse() for h in needed}
    n = sigma_B.carrier_size

    injective = set(range(n))
    for i, h1 in enumerate(positions):
        for h2 in positions[i + 1 :]:
            injective.difference_update(compress(count(), map(eq, inv[h1].image, inv[h2].image)))

    compatible = set(range(n))
    for h1 in positions:
        for h2 in positions:
            qp, q2q1 = inv[base.mul(h1, h2)].image, _gather(inv[h2], inv[h1])
            if q2q1 != qp:  # equal images: every block is compatible at this pair
                compatible.difference_update(compress(count(), map(ne, qp, q2q1)))

    return GoodBlock(
        injective=frozenset(injective),
        compatible=frozenset(compatible),
        good=frozenset(injective & compatible),
    )


@dataclass(frozen=True)
class GoodBlockReport:
    """The good-block lemma's verdict: the good blocks, the base certificate and the bound."""
    carrier_size: int
    block_tolerance: Fraction
    input_tolerance: Fraction
    block: GoodBlock
    certificate: DefectReport

    @property
    def bound_pass(self) -> bool:
        return len(self.block.good) >= (1 - self.block_tolerance) * self.carrier_size


def check_good_block_bound(
    sigma_B: SoficApprox, positions, block_tolerance, input_tolerance
) -> GoodBlockReport:
    """Certify sigma_B on the derived base window, then check the good-block
    count against (1 - block_tolerance) |B|, which the certificate forces when
    input_tolerance < block_tolerance / (4 w^2), w the number of positions.

    >>> from .sofic import cyclic_quotient
    >>> report = check_good_block_bound(cyclic_quotient(64), range(-2, 3), Fraction(1, 10), Fraction(1, 1024))
    >>> len(report.block.good), report.bound_pass, report.certificate.passed
    (64, True, True)
    """
    block_tolerance = Fraction(block_tolerance)
    input_tolerance = Fraction(input_tolerance)
    base = sigma_B.group
    positions = base.sort(set(positions))
    w2 = len(positions) ** 2
    if not input_tolerance < block_tolerance / (4 * w2):
        raise ValueError(
            f"input tolerance {input_tolerance} not < block tolerance/(4 w^2) = {block_tolerance / (4 * w2)}"
        )
    base_window = derive_base_window(base, positions)
    certificate = require_sofic(sigma_B, base_window, input_tolerance, "base approximation")
    block = compute_good_blocks(sigma_B, positions)
    return GoodBlockReport(
        carrier_size=sigma_B.carrier_size,
        block_tolerance=block_tolerance,
        input_tolerance=input_tolerance,
        block=block,
        certificate=certificate,
    )


# ---------------------------------------------------------------------------
# the coordinate actions


def lamp_action(
    sigma_A: SoficApprox,
    sigma_B: SoficApprox,
    positions,
    block: GoodBlock,
    f: FinSuppMap,
) -> CoordAction:
    """The lamp-side action: at every good block b, for each position x in the
    support of f, coordinate sigma_B(x)^{-1} b gets sigma_A(f(x)).

    On a good block distinct positions anchor distinct coordinates, so the
    writes commute, and dropping the identity values before the loop leaves
    tau canonical as built.  Total: configurations supported outside the
    positions window act as the identity.
    """
    a_size, b_size = sigma_A.carrier_size, sigma_B.carrier_size
    if not set(f.support()) <= set(positions):
        return identity_action(a_size, b_size)
    writes = []
    for x, g in f.entries:
        if not (p := sigma_A.evaluate(g)).is_identity():
            writes.append((sigma_B.evaluate(x).inverse().image, p))
    tau = {b: {q[b]: p for q, p in writes} for b in block.good} if writes else {}
    return CoordAction(a_size, b_size, Permutation.identity(b_size), tau)


def base_action(sigma_B: SoficApprox, h, a_size: int) -> CoordAction:
    """The base-side action: move the block by sigma_B(h), touch no lamps."""
    return coord_action(a_size, sigma_B.carrier_size, beta=sigma_B.evaluate(h))


@dataclass(frozen=True)
class WreathApprox:
    """The assembled approximation of the wreath product.

    ``rule`` composes the lamp action after the base action; values are
    cached per element.  The rule is evaluable on the closure window and all
    its pairwise products.
    """

    wreath: WreathProduct
    sigma_A: SoficApprox
    sigma_B: SoficApprox
    windows: WindowSets
    block: GoodBlock
    budget: Budget
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def a_size(self) -> int:
        return self.sigma_A.carrier_size

    @property
    def b_size(self) -> int:
        return self.sigma_B.carrier_size

    def carrier_size(self) -> int:
        return self.a_size**self.b_size * self.b_size

    def lamp(self, f: FinSuppMap) -> CoordAction:
        return lamp_action(self.sigma_A, self.sigma_B, self.windows.positions, self.block, f)

    def base(self, h) -> CoordAction:
        return base_action(self.sigma_B, h, self.a_size)

    def rule(self, u: WreathElement) -> CoordAction:
        if (value := self._cache.get(u)) is None:
            value = self._cache[u] = self.lamp(u.left) * self.base(u.right)
        return value

    def identity_value(self) -> CoordAction:
        return identity_action(self.a_size, self.b_size)

    def to_json(self) -> dict:
        wreath = self.wreath
        return {
            "format": 1,
            "kind": "wreath-approx",
            "group": wreath.descriptor(),
            "lamp_approx": self.sigma_A.to_json(),
            "base_approx": self.sigma_B.to_json(),
            "targets": [wreath.encode(u) for u in self.windows.targets],
            "eps": frac_to_json(self.budget.eps),
            "derived": self.derived_json(),
        }

    def derived_json(self) -> dict:
        """The ``derived`` section of ``to_json``: what ``build`` re-derives."""
        wreath, windows = self.wreath, self.windows
        return {
            "windows": {
                "closure": [wreath.encode(u) for u in windows.closure],
                "lamp_window": [wreath.lamps.encode(f) for f in windows.lamp_window],
                "mover_window": [wreath.base.encode(h) for h in windows.mover_window],
                "positions": [wreath.base.encode(h) for h in windows.positions],
                "lamp_values": [wreath.lamp.encode(g) for g in windows.lamp_values],
                "base_window": [wreath.base.encode(h) for h in windows.base_window],
            },
            "block": self.block.to_json(),
            "budget": self.budget.to_json(),
        }


def build(sigma_A: SoficApprox, sigma_B: SoficApprox, targets, eps) -> WreathApprox:
    """Derive windows, certify the inputs, and assemble the approximation.

    The input approximations must hold their certificates at the derived
    input tolerance; a failed certificate is an error, not a warning.
    """
    wreath = WreathProduct(sigma_A.group, sigma_B.group)
    windows = derive_windows(wreath, targets)
    budget = make_budget(eps, len(windows.positions))

    require_sofic(sigma_A, windows.lamp_values, budget.input_tolerance, "lamp approximation")
    good = check_good_block_bound(sigma_B, windows.positions, budget.block_tolerance, budget.input_tolerance)
    # certified inputs force this bound; a violation would be a library bug
    if not good.bound_pass:
        raise AssertionError("good-block bound violated despite certified inputs")

    return WreathApprox(
        wreath=wreath,
        sigma_A=sigma_A,
        sigma_B=sigma_B,
        windows=windows,
        block=good.block,
        budget=budget,
    )


def wreath_approx_from_json(data: dict) -> WreathApprox:
    """Rebuild from a stored bundle, re-deriving everything derivable.

    The stored derived sections are cross-checked against the fresh
    derivation; a mismatch means the artifact was edited and is reported as
    a certificate failure.
    """
    if data.get("kind") != "wreath-approx" or data.get("format") != 1:
        raise ValueError("not a wreath-approx artifact")
    wreath = group_from_descriptor(data["group"])
    if not isinstance(wreath, WreathProduct):
        raise ValueError("artifact group is not a wreath product")
    sigma_A = SoficApprox.from_json(data["lamp_approx"])
    sigma_B = SoficApprox.from_json(data["base_approx"])
    targets = [wreath.decode(u) for u in data["targets"]]
    eps = frac_from_json(data["eps"])
    approx = build(sigma_A, sigma_B, targets, eps)
    stored = data.get("derived")
    if stored is not None and stored != approx.derived_json():
        raise CertificateError("artifact derived data does not match a fresh derivation")
    return approx
