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

from fractions import Fraction
from functools import cached_property
from itertools import compress, count
from operator import eq, ne

from ._record import private, record
from .bigperm import CoordAction, identity_action
from .groups import FinSuppMap, WreathElement, WreathProduct, group_from_descriptor
from .jsonutil import frac_to_json, frac_from_json, same_json
from .perm import Permutation, _gather
from .sofic import CertificateError, SoficApprox, _require_window, require_sofic


@record
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

    The positions hold the mover window, which holds 1, and every shifted
    support h x (h a mover, x in the support of a lamp-window map), so their
    quotients h1^-1 h2, the base window, hold every position and its inverse.
    """
    targets = wreath.sort(set(targets))
    if not targets:
        raise ValueError("target set must be nonempty")
    base, lamps = wreath.base, wreath.lamps

    closure = set(targets) | {wreath.identity()} | {wreath.inv(u) for u in targets}
    mover = {u.right for u in closure}
    lamp_proj = {u.left for u in closure}
    lamp_window = {lamps.shift(h, f) for h in mover for f in lamp_proj}

    positions = mover | {base.mul(h, x) for f in lamp_window for h in mover for x in f.support()}
    # freeness bookkeeping needs rule(1) = id certified
    lamp_values = {wreath.lamp.identity(), *(g for f in lamp_window for _, g in f.entries)}

    base_window = {base.mul(base.inv(h1), h2) for h1 in positions for h2 in positions}

    return WindowSets(
        targets=targets,
        closure=wreath.sort(closure),
        lamp_window=tuple(sorted(lamp_window, key=lamps.key)),
        mover_window=base.sort(mover),
        positions=base.sort(positions),
        lamp_values=wreath.lamp.sort(lamp_values),
        base_window=base.sort(base_window),
    )


@record
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
    if window_size < 1:
        raise ValueError("window size must be >= 1")
    return Budget(eps, eps / 13, eps / (96 * window_size**2), window_size)


@record
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


def check_good_block_bound(sigma_B: SoficApprox, windows: WindowSets, budget: Budget) -> GoodBlock:
    """The good-block lemma: certify sigma_B on the base window at the input
    tolerance, then return the good blocks of the positions window.  As
    ``Budget`` keeps input_tolerance < block_tolerance / (4 w^2), the
    certificate forces at least (1 - block_tolerance) |B| good blocks; fewer
    would be a library bug.

    >>> from .groups import cyclic, integers, wreath_product
    >>> from .sofic import cyclic_quotient
    >>> wreath = wreath_product(cyclic(2), integers())
    >>> windows = derive_windows(wreath, [wreath.element({}, 2)])
    >>> windows.positions, windows.base_window
    ((-2, 0, 2), (-4, -2, 0, 2, 4))
    >>> len(check_good_block_bound(cyclic_quotient(64), windows, make_budget(1, 3)).good)
    64
    """
    require_sofic(sigma_B, windows.base_window, budget.input_tolerance, "base approximation")
    block = compute_good_blocks(sigma_B, windows.positions)
    if len(block.good) < (1 - budget.block_tolerance) * sigma_B.carrier_size:
        raise AssertionError("good-block bound violated despite certified inputs")
    return block


# ---------------------------------------------------------------------------
# the coordinate actions


def lamp_action(
    sigma_A: SoficApprox,
    sigma_B: SoficApprox,
    positions,
    block: GoodBlock,
    f: FinSuppMap,
    beta: Permutation,
) -> CoordAction:
    """The value of (f, h), with beta = sigma_B(h), in one step: beta moves the
    block, and at each block b with beta(b) good, for each position x in the
    support of f, coordinate sigma_B(x)^{-1} beta(b) gets sigma_A(f(x)).  The
    identity beta gives the lamp-only value, and a support outside the
    positions window leaves only the base move.  On a good block distinct
    positions anchor distinct coordinates, so the writes commute, and tau is
    canonical as built.  The value is the lamp-only one after the base move:

    >>> from .groups import DirectSum, cyclic
    >>> from .sofic import regular_rep
    >>> sigma_A, sigma_B = regular_rep(cyclic(2)), regular_rep(cyclic(3))
    >>> block, f = compute_good_blocks(sigma_B, range(3)), DirectSum(cyclic(2), cyclic(3)).make({0: 1, 2: 1})
    >>> def value(h): return lamp_action(sigma_A, sigma_B, range(3), block, f, sigma_B.evaluate(h))
    >>> value(1) == value(0) * CoordAction(2, 3, sigma_B.evaluate(1), {})
    True
    """
    a_size, b_size = sigma_A.carrier_size, sigma_B.carrier_size
    if not set(f.support()) <= set(positions):
        return CoordAction(a_size, b_size, beta, {})
    writes = []
    for x, g in f.entries:
        if not (p := sigma_A.evaluate(g)).is_identity():
            writes.append((sigma_B.evaluate(x).inverse().image, p))
    good = block.good
    tau = {b: {q[i]: p for q, p in writes} for b, i in enumerate(beta.image) if i in good} if writes else {}
    return CoordAction(a_size, b_size, beta, tau)


@record
class WreathApprox:
    """The assembled approximation of the wreath product.

    ``rule`` builds the value of (f, h) in one step with ``lamp_action``:
    sigma_B(h) moves the block, and the lamps of f rewrite the anchored
    coordinates at each block that it moves onto a good one.  Values are
    cached per element.  The rule is evaluable on the closure window and all
    its pairwise products.  ``wreath`` is derived from the inputs' groups, ``budget`` from ``eps``.
    """

    sigma_A: SoficApprox
    sigma_B: SoficApprox
    windows: WindowSets
    block: GoodBlock
    eps: Fraction
    _cache: dict = private(dict)

    @cached_property
    def wreath(self) -> WreathProduct:
        return WreathProduct(self.sigma_A.group, self.sigma_B.group)

    @cached_property
    def budget(self) -> Budget:
        return make_budget(self.eps, len(self.windows.positions))

    @property
    def a_size(self) -> int:
        return self.sigma_A.carrier_size

    @property
    def b_size(self) -> int:
        return self.sigma_B.carrier_size

    def carrier_size(self) -> int:
        return self.a_size**self.b_size * self.b_size

    def rule(self, u: WreathElement) -> CoordAction:
        if (value := self._cache.get(u)) is None:
            beta = self.sigma_B.evaluate(u.right)
            value = lamp_action(self.sigma_A, self.sigma_B, self.windows.positions, self.block, u.left, beta)
            self._cache[u] = value
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
            "eps": frac_to_json(self.eps),
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
    input tolerance, and rule(1) must be the identity: else a CertificateError.
    """
    windows = derive_windows(WreathProduct(sigma_A.group, sigma_B.group), targets)
    budget = make_budget(eps, len(windows.positions))

    require_sofic(sigma_A, windows.lamp_values, budget.input_tolerance, "lamp approximation")
    approx = WreathApprox(sigma_A, sigma_B, windows, check_good_block_bound(sigma_B, windows, budget), budget.eps)
    if approx.rule(approx.wreath.identity()) != approx.identity_value():
        raise CertificateError("rule(identity) is not the identity")
    return approx


def wreath_approx_from_json(data: dict) -> WreathApprox:
    """Rebuild from a stored bundle, re-deriving everything derivable.

    The stored derived sections are cross-checked against the fresh
    derivation; a mismatch means the artifact was edited and is reported as
    a certificate failure.  The stored ``group`` must be the one ``build`` uses.
    """
    if data.get("kind") != "wreath-approx" or not same_json(data.get("format"), 1):
        raise ValueError("not a wreath-approx artifact")
    wreath = group_from_descriptor(data["group"])
    sigma_A = SoficApprox.from_json(data["lamp_approx"])
    sigma_B = SoficApprox.from_json(data["base_approx"])
    if wreath != WreathProduct(sigma_A.group, sigma_B.group):
        raise ValueError("artifact group is not the wreath product of its lamp_approx and base_approx groups")
    targets = [wreath.decode(u) for u in data["targets"]]
    eps = frac_from_json(data["eps"])
    approx = build(sigma_A, sigma_B, targets, eps)
    stored = data.get("derived")
    if stored is not None and not same_json(stored, approx.derived_json()):
        raise CertificateError("artifact derived data does not match a fresh derivation")
    return approx
