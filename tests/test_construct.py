import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import soficwreath as sw
import sofic_oracle
from helpers import windowed_approximations
from lamp_oracle import block_lamp_action, lamp_factor
from soficwreath import construct
from soficwreath.bigperm import CoordAction, identity_action
from soficwreath.construct import (
    WreathApprox,
    compute_good_blocks,
    derive_windows,
    lamp_action,
    make_budget,
    wreath_approx_from_json,
)
from soficwreath.perm import Permutation
from soficwreath.sofic import SoficApprox


S3 = sw.symmetric(3)
BASES_AND_INDICES = [
    (sw.cyclic(5), tuple(range(5))),
    (sw.integers(), tuple(range(-3, 4))),
    (sw.free(2), sw.free(2).ball(1)),
    (S3, S3.sort(S3.elements())),
]


@st.composite
def wreath_targets(draw):
    """A wreath product over an abelian, free or non-abelian base, and one to
    three targets with up to two lit lamps each."""
    lamp = draw(st.sampled_from([sw.cyclic(2), sw.cyclic(3), S3]))
    base, indices = draw(st.sampled_from(BASES_AND_INDICES))
    wreath = sw.wreath_product(lamp, base)
    lamps = st.dictionaries(st.sampled_from(indices), st.sampled_from(lamp.sort(lamp.elements())), max_size=2)
    targets = st.lists(st.builds(wreath.element, lamps, st.sampled_from(indices)), min_size=1, max_size=3)
    return wreath, draw(targets)


class TestDeriveWindows:
    @settings(max_examples=150, deadline=None)
    @given(wreath_targets())
    def test_window_invariants(self, case):
        """Positions hold the identity and every shifted support; the base
        window holds the positions, their inverses and their quotients."""
        wreath, targets = case
        base, w = wreath.base, derive_windows(wreath, targets)
        positions, base_window = set(w.positions), set(w.base_window)
        assert base.identity() in positions
        assert positions <= base_window
        assert {base.inv(h) for h in positions} <= base_window
        assert {base.mul(base.inv(h1), h2) for h1 in positions for h2 in positions} <= base_window
        for f in w.lamp_window:
            for h in w.mover_window:
                assert {base.mul(h, x) for x in f.support()} <= positions

    def test_identity_only_target(self):
        wreath = sw.wreath_product(sw.cyclic(2), sw.cyclic(2))
        w = derive_windows(wreath, [wreath.identity()])
        assert w.closure == (wreath.identity(),)
        assert [f.entries for f in w.lamp_window] == [()]
        assert w.mover_window == (0,)
        assert w.positions == (0,)
        assert w.lamp_values == (0,)  # the lamp identity is always certified
        assert w.base_window == (0,)

    def test_two_generator_mod_two(self):
        wreath = sw.wreath_product(sw.cyclic(2), sw.cyclic(2))
        w = derive_windows(wreath, [wreath.element({0: 1}, 0), wreath.element({}, 1)])
        assert len(w.closure) == 3  # both generators are involutions
        assert [f.entries for f in w.lamp_window] == [(), ((0, 1),), ((1, 1),)]
        assert w.mover_window == (0, 1)
        assert w.positions == (0, 1)
        assert w.lamp_values == (0, 1)
        assert w.base_window == (0, 1)

    def test_two_generator_lamplighter(self):
        wreath = sw.wreath_product(sw.cyclic(2), sw.integers())
        w = derive_windows(wreath, [wreath.element({0: 1}, 0), wreath.element({}, 1)])
        assert w.mover_window == (-1, 0, 1)
        assert [f.entries for f in w.lamp_window] == [(), ((-1, 1),), ((0, 1),), ((1, 1),)]
        assert w.positions == (-2, -1, 0, 1, 2)
        assert w.lamp_values == (0, 1)
        assert w.base_window == tuple(range(-4, 5))

    def test_rejects_empty_targets(self):
        wreath = sw.wreath_product(sw.cyclic(2), sw.cyclic(2))
        with pytest.raises(ValueError, match="nonempty"):
            derive_windows(wreath, [])

    def test_closure_contains_identity_and_inverses(self):
        wreath = sw.wreath_product(sw.cyclic(3), sw.cyclic(4))
        u = wreath.element({1: 2}, 3)
        w = derive_windows(wreath, [u])
        assert wreath.identity() in w.closure
        assert wreath.inv(u) in w.closure


class TestBudget:
    def test_worked_example(self):
        budget = make_budget(Fraction("0.12"), 2)
        assert Fraction("0.12") / (48 * 4) == Fraction(1, 1600)
        assert budget.input_tolerance == Fraction("0.12") / 384 == Fraction(1, 3200)
        assert budget.input_tolerance < Fraction(1, 1600)

    def test_unit_example(self):
        budget = make_budget(1, 1)
        assert budget.input_tolerance == Fraction(1, 96) < Fraction(1, 48)

    @pytest.mark.parametrize("eps", [Fraction(1, 1000), Fraction(3, 100), Fraction(1, 2), 1])
    def test_block_tolerance_strictly_inside(self, eps):
        budget = make_budget(eps, 3)
        assert budget.block_tolerance == Fraction(eps, 13) < Fraction(eps, 12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            make_budget(0, 2)
        with pytest.raises(ValueError):
            make_budget(Fraction(-1, 2), 2)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="eps/12"):
            sw.Budget(Fraction(1, 2), Fraction(1, 24), Fraction(1, 10000), 2)
        with pytest.raises(ValueError, match="48"):
            sw.Budget(Fraction(1, 2), Fraction(1, 32), Fraction(1, 300), 2)


class TestGoodBlocks:
    def test_regular_rep_all_blocks_good(self):
        block = compute_good_blocks(sw.regular_rep(sw.cyclic(3)), [0, 1, 2])
        assert block.injective == block.compatible == block.good == frozenset(range(3))

    def test_shift_quotient_all_blocks_good(self):
        block = compute_good_blocks(sw.cyclic_quotient(8), [-1, 0, 1])
        assert block.good == frozenset(range(8))

    def test_identity_collision_empties_injective(self):
        group = sw.cyclic(3)
        rule = {
            0: Permutation.identity(3),
            1: Permutation.identity(3),
            2: Permutation((1, 2, 0)),
        }
        collapsed = SoficApprox(group, 3, rule)
        block = compute_good_blocks(collapsed, [0, 1])
        assert block.injective == frozenset()
        assert block.good == frozenset()

    def test_window_precondition(self):
        with pytest.raises(sw.WindowViolationError):
            compute_good_blocks(sw.cyclic_quotient(8, window=range(-2, 3)), [-2, 2])

    @settings(max_examples=200)
    @given(windowed_approximations())
    def test_matches_pointwise_oracle(self, case):
        approx, positions = case
        assert compute_good_blocks(approx, positions) == sofic_oracle.compute_good_blocks(approx, positions)

    def test_non_abelian_base_composes_anchors_in_order(self):
        # Q(x) = sigma_B(x)^{-1}, so Q(gh) = Q(h) Q(g); Q(g) Q(h) = Q(hg)
        # differs from it at every point for each non-commuting g, h
        group = sw.symmetric(3)
        elements = group.sort(group.elements())
        block = compute_good_blocks(sw.regular_rep(group), elements)
        assert block.compatible == frozenset(range(6))
        assert block == sofic_oracle.compute_good_blocks(sw.regular_rep(group), elements)

    def test_good_blocks_recheckable_pointwise(self):
        approx = sw.perturb(sw.cyclic_quotient(16), Fraction(1, 2), seed=4)
        positions = [-1, 0, 1]
        block = compute_good_blocks(approx, positions)
        inv = {h: approx.evaluate(h).inverse() for h in positions}
        for b in range(16):
            anchors = [inv[h](b) for h in positions]
            injective = len(set(anchors)) == len(anchors)
            compatible = all(
                approx.evaluate(h1 + h2).inverse()(b) == inv[h2](inv[h1](b))
                for h1 in positions
                for h2 in positions
            )
            assert (b in block.injective) == injective
            assert (b in block.compatible) == compatible
            assert (b in block.good) == (injective and compatible)


@pytest.fixture
def mod2_setup():
    lamp = base = sw.cyclic(2)
    sigma_A, sigma_B = sw.regular_rep(lamp), sw.regular_rep(base)
    positions = (0, 1)
    block = compute_good_blocks(sigma_B, positions)
    return sigma_A, sigma_B, positions, block


class TestLampFactor:
    def test_identity_value_gives_identity(self, mod2_setup):
        sigma_A, sigma_B, _, _ = mod2_setup
        assert lamp_factor(sigma_A, sigma_B, 0, 1, 0) == identity_action(2, 2)

    def test_single_write(self, mod2_setup):
        sigma_A, sigma_B, _, _ = mod2_setup
        action = lamp_factor(sigma_A, sigma_B, 1, 0, 0)
        assert action.beta.is_identity()
        assert action.tau_map() == {0: {0: Permutation((1, 0))}}

    def test_distinct_positions_commute_on_good_blocks(self):
        sigma_A = sw.regular_rep(sw.cyclic(2))
        sigma_B = sw.regular_rep(sw.cyclic(3))
        for b in range(3):
            one = lamp_factor(sigma_A, sigma_B, 1, 1, b)
            two = lamp_factor(sigma_A, sigma_B, 1, 2, b)
            assert one * two == two * one


class TestBlockLampAction:
    def test_empty_configuration(self, mod2_setup):
        sigma_A, sigma_B, positions, block = mod2_setup
        f = sw.DirectSum(sw.cyclic(2), sw.cyclic(2)).identity()
        assert block_lamp_action(sigma_A, sigma_B, positions, block, f, 0) == identity_action(2, 2)

    def test_two_writes(self, mod2_setup):
        sigma_A, sigma_B, positions, block = mod2_setup
        sums = sw.DirectSum(sw.cyclic(2), sw.cyclic(2))
        f = sums.make({0: 1, 1: 1})
        action = block_lamp_action(sigma_A, sigma_B, positions, block, f, 0)
        swap = Permutation((1, 0))
        assert action.tau_map() == {0: {0: swap, 1: swap}}

    def test_factor_order_irrelevant_on_good_blocks(self, mod2_setup):
        sigma_A, sigma_B, positions, block = mod2_setup
        sums = sw.DirectSum(sw.cyclic(2), sw.cyclic(2))
        f = sums.make({0: 1, 1: 1})
        forward = block_lamp_action(sigma_A, sigma_B, positions, block, f, 1)
        backward = block_lamp_action(sigma_A, sigma_B, tuple(reversed(positions)), block, f, 1)
        assert forward == backward

    def test_rejects_bad_block(self, mod2_setup):
        sigma_A, _, positions, _ = mod2_setup
        group = sw.cyclic(2)
        collapsed = SoficApprox(group, 2, {0: Permutation.identity(2), 1: Permutation.identity(2)})
        block = compute_good_blocks(collapsed, positions)
        sums = sw.DirectSum(group, group)
        with pytest.raises(ValueError, match="not good"):
            block_lamp_action(sigma_A, collapsed, positions, block, sums.make({0: 1}), 0)

    def test_rejects_support_escape(self, mod2_setup):
        sigma_A, sigma_B, _, block = mod2_setup
        sums = sw.DirectSum(sw.cyclic(2), sw.cyclic(2))
        with pytest.raises(ValueError, match="escapes"):
            block_lamp_action(sigma_A, sigma_B, (0,), block, sums.make({1: 1}), 0)


class TestLampAction:
    def test_support_outside_positions_acts_trivially(self, mod2_setup):
        sigma_A, sigma_B, _, block = mod2_setup
        sums = sw.DirectSum(sw.cyclic(2), sw.cyclic(2))
        action = lamp_action(sigma_A, sigma_B, (0,), block, sums.make({1: 1}), Permutation.identity(2))
        assert action == identity_action(2, 2)

    def test_empty_configuration(self, mod2_setup):
        sigma_A, sigma_B, positions, block = mod2_setup
        sums = sw.DirectSum(sw.cyclic(2), sw.cyclic(2))
        action = lamp_action(sigma_A, sigma_B, positions, block, sums.identity(), Permutation.identity(2))
        assert action == identity_action(2, 2)

    def test_per_block_writes(self, mod2_setup):
        sigma_A, sigma_B, positions, block = mod2_setup
        sums = sw.DirectSum(sw.cyclic(2), sw.cyclic(2))
        action = lamp_action(sigma_A, sigma_B, positions, block, sums.make({0: 1}), Permutation.identity(2))
        swap = Permutation((1, 0))
        assert action.tau_map() == {0: {0: swap}, 1: {1: swap}}
        assert action.beta.is_identity()

    def test_tau_supported_inside_good_blocks(self):
        sigma_A = sw.regular_rep(sw.cyclic(2))
        sigma_B = sw.perturb(sw.cyclic_quotient(16), Fraction(1, 2), seed=13)
        positions = (-1, 0, 1)
        block = compute_good_blocks(sigma_B, positions)
        sums = sw.DirectSum(sw.cyclic(2), sw.integers())
        action = lamp_action(sigma_A, sigma_B, positions, block, sums.make({-1: 1, 1: 1}), Permutation.identity(16))
        assert set(action.tau_map()) <= set(block.good)

    def test_agrees_with_block_oracle_on_every_good_block(self):
        lamp = sw.cyclic(3)
        sigma_A = sw.regular_rep(lamp)
        positions = (-1, 0, 1)
        sums = sw.DirectSum(lamp, sw.integers())
        configurations = [
            sums.make({x: g for x, g in zip(positions, values) if g})
            for values in itertools.product(range(3), repeat=len(positions))
        ]
        for seed in (4, 13):
            sigma_B = sw.perturb(sw.cyclic_quotient(16), Fraction(1, 2), seed=seed)
            block = compute_good_blocks(sigma_B, positions)
            assert block.good
            for f in configurations:
                action = lamp_action(sigma_A, sigma_B, positions, block, f, Permutation.identity(16))
                assert action.beta.is_identity()
                for b in block.good:
                    oracle = block_lamp_action(sigma_A, sigma_B, positions, block, f, b)
                    assert set(oracle.tau) <= {b}
                    assert action.tau.get(b, {}) == oracle.tau.get(b, {})

    def test_one_step_value_is_lamps_after_base_move(self):
        # block 10 is not good, so the moves by -1 and 1 carry good blocks onto bad ones
        sigma_A, positions = sw.regular_rep(sw.cyclic(3)), (-1, 0, 1)
        sigma_B = sw.perturb(sw.cyclic_quotient(16), Fraction(1, 2), seed=4)
        block = compute_good_blocks(sigma_B, positions)
        f = sw.DirectSum(sw.cyclic(3), sw.integers()).make({-1: 1, 1: 2})
        lamp_only = lamp_action(sigma_A, sigma_B, positions, block, f, Permutation.identity(16))
        for h in positions:
            beta = sigma_B.evaluate(h)
            one_step = lamp_action(sigma_A, sigma_B, positions, block, f, beta)
            assert one_step == lamp_only * sw.CoordAction(3, 16, beta, {})


def base_only(sigma_A: SoficApprox, sigma_B: SoficApprox):
    """h -> rule((1, h)) of the assembly of sigma_A and sigma_B, for any
    inputs: the approximation is put together without certifying them."""
    wreath = sw.wreath_product(sigma_A.group, sigma_B.group)
    windows = derive_windows(wreath, [wreath.identity()])
    block = compute_good_blocks(sigma_B, windows.positions)
    approx = WreathApprox(sigma_A, sigma_B, windows, block, 1)
    return lambda h: approx.rule(wreath.element({}, h))


class TestBaseAction:
    def test_identity(self):
        rule = base_only(sw.regular_rep(sw.cyclic(2)), sw.regular_rep(sw.cyclic(3)))
        assert rule(0) == identity_action(2, 3)

    def test_shift(self):
        action = base_only(sw.regular_rep(sw.cyclic(2)), sw.regular_rep(sw.cyclic(3)))(1)
        assert action.beta == Permutation((1, 2, 0))
        assert action.tau == {}

    def test_distance_to_identity_matches_base_rule(self):
        sigma_B = sw.perturb(sw.cyclic_quotient(12), Fraction(1, 2), seed=8)
        rule = base_only(sw.regular_rep(sw.cyclic(5)), sigma_B)
        for h in (-2, 0, 1, 3):
            action = rule(h)
            assert action.distance(identity_action(5, 12)) == sigma_B.evaluate(h).distance(
                Permutation.identity(12)
            )


class TestEquivariance:
    @pytest.mark.parametrize(
        "lamp,base",
        [(sw.cyclic(2), sw.cyclic(3)), (sw.cyclic(3), sw.symmetric(3))],
        ids=["Z2-Z3", "Z3-S3"],
    )
    def test_shifted_configuration_writes_the_same_block_map(self, lamp, base):
        wreath = sw.wreath_product(lamp, base)
        sigma_A, sigma_B = sw.regular_rep(lamp), sw.regular_rep(base)
        nonid = next(g for g in lamp.elements() if g != lamp.identity())
        targets = [wreath.element({base.identity(): nonid}, h) for h in base.elements()]
        windows = derive_windows(wreath, targets)
        block = compute_good_blocks(sigma_B, windows.positions)
        lamps = wreath.lamps
        for f in windows.lamp_window:
            for h in windows.mover_window:
                shifted = lamps.shift(h, f)
                mover = sigma_B.evaluate(h)
                for b in block.good:
                    b2 = mover(b)
                    if b2 not in block.good:
                        continue
                    lhs = block_lamp_action(sigma_A, sigma_B, windows.positions, block, shifted, b2)
                    rhs = block_lamp_action(sigma_A, sigma_B, windows.positions, block, f, b)
                    assert lhs.tau.get(b2, {}) == rhs.tau.get(b, {})

    def test_lamplighter_equivariance(self, lamplighter):
        approx = lamplighter
        lamps = approx.wreath.lamps
        windows = approx.windows

        def lamp(f):
            return approx.rule(sw.WreathElement(f, 0))

        mover = {h: approx.sigma_B.evaluate(h) for h in windows.mover_window}
        for f in windows.lamp_window:
            for h in windows.mover_window:
                shifted = lamps.shift(h, f)
                for b in list(approx.block.good)[::7]:
                    b2 = mover[h](b)
                    if b2 not in approx.block.good:
                        continue
                    assert lamp(shifted).tau.get(b2, {}) == lamp(f).tau.get(b, {})


class TestBuild:
    def test_exact_small_wreath(self, small_wreath):
        approx = small_wreath
        assert approx.block.good == frozenset(range(3))
        assert approx.rule(approx.wreath.identity()) == approx.identity_value()

    def test_rule_evaluable_on_closure_products(self, small_wreath):
        wreath = small_wreath.wreath
        for u in small_wreath.windows.closure:
            for v in small_wreath.windows.closure:
                value = small_wreath.rule(wreath.mul(u, v))
                assert value.a_size == 2 and value.b_size == 3

    def test_identity_only_targets(self):
        lamp, base = sw.cyclic(2), sw.cyclic(3)
        wreath = sw.wreath_product(lamp, base)
        approx = sw.build(
            sw.regular_rep(lamp), sw.regular_rep(base), [wreath.identity()], Fraction(1, 2)
        )
        assert approx.rule(wreath.identity()) == approx.identity_value()

    def test_rejects_a_rule_of_identity_that_moves_points(self, monkeypatch):
        # a lamp action that moves every block of the empty configuration at
        # beta = id: build checks rule(1) = id once, so no certificate has to
        lamp, base = sw.cyclic(2), sw.cyclic(3)
        wreath = sw.wreath_product(lamp, base)
        built = construct.lamp_action

        def moving(sigma_A, sigma_B, positions, block, f, beta):
            if f.is_identity() and beta.is_identity():
                return CoordAction(2, 3, Permutation((1, 2, 0)), {})
            return built(sigma_A, sigma_B, positions, block, f, beta)

        monkeypatch.setattr(construct, "lamp_action", moving)
        with pytest.raises(sw.CertificateError, match=r"^rule\(identity\) is not the identity$"):
            sw.build(sw.regular_rep(lamp), sw.regular_rep(base), list(wreath.elements()), Fraction(1, 2))

    def test_rejects_uncertified_base(self):
        lamp, base = sw.cyclic(2), sw.cyclic(3)
        wreath = sw.wreath_product(lamp, base)
        noisy = sw.perturb(sw.regular_rep(base), 1, seed=6)  # one transposition on 3 points
        with pytest.raises(sw.CertificateError, match="base approximation"):
            sw.build(sw.regular_rep(lamp), noisy, list(wreath.elements()), Fraction(1, 2))

    def test_rejects_base_with_collapsed_rule(self):
        # a base rule equal to the identity at two window elements cannot hold
        # its freeness certificate, so the empty good-block set is unreachable
        lamp = sw.cyclic(2)
        group = sw.cyclic(3)
        rule = {
            0: Permutation.identity(3),
            1: Permutation.identity(3),
            2: Permutation((1, 2, 0)),
        }
        collapsed = SoficApprox(group, 3, rule)
        wreath = sw.wreath_product(lamp, group)
        with pytest.raises(sw.CertificateError):
            sw.build(
                sw.regular_rep(lamp),
                collapsed,
                [wreath.element({0: 1}, 1)],
                Fraction(1, 2),
            )

    def test_rejects_window_too_small(self):
        lamp = sw.cyclic(2)
        wreath = sw.wreath_product(lamp, sw.integers())
        narrow = sw.cyclic_quotient(64, window=range(-2, 3))
        with pytest.raises(sw.WindowViolationError):
            sw.build(
                sw.regular_rep(lamp),
                narrow,
                [wreath.element({0: 1}, 0), wreath.element({}, 1)],
                Fraction(1, 10),
            )

    def test_lamp_rule_multiplicative_within_budget(self, small_wreath):
        approx = small_wreath
        budget = approx.budget
        bound = budget.block_tolerance + len(approx.windows.positions) * budget.input_tolerance
        lamps = approx.wreath.lamps

        def lamp(f):
            return approx.rule(sw.WreathElement(f, 0))

        for f in approx.windows.lamp_window:
            for g in approx.windows.lamp_window:
                defect = (lamp(f) * lamp(g)).distance(lamp(lamps.mul(f, g)))
                assert defect <= bound


class TestArtifactSerialization:
    def test_round_trip(self, small_wreath):
        data = small_wreath.to_json()
        again = wreath_approx_from_json(data)
        assert again.windows == small_wreath.windows
        assert again.block == small_wreath.block
        assert again.budget == small_wreath.budget
        for u in small_wreath.windows.closure:
            assert again.rule(u) == small_wreath.rule(u)

    def test_tampered_derived_data_detected(self, small_wreath):
        data = small_wreath.to_json()
        data["derived"]["block"]["good"] = data["derived"]["block"]["good"][:-1]
        with pytest.raises(sw.CertificateError, match="fresh derivation"):
            wreath_approx_from_json(data)

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError, match="artifact"):
            wreath_approx_from_json({"kind": "something", "format": 1})
