import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import soficwreath as sw
import sofic_oracle
from soficwreath.perm import Permutation, hamming, transposition
from soficwreath.sofic import (
    SoficApprox,
    WindowViolationError,
    is_sofic_approx,
    require_sofic,
)
from helpers import random_rule, shown_elements, windowed_approximations


tolerances = st.builds(Fraction, st.integers(min_value=1, max_value=12), st.just(12))


class TestGenerators:
    def test_regular_rep_cyclic_two(self):
        approx = sw.regular_rep(sw.cyclic(2))
        assert approx.evaluate(1) == Permutation((1, 0))
        assert approx.evaluate(0) == Permutation.identity(2)

    def test_cyclic_quotient_shift(self):
        approx = sw.cyclic_quotient(4)
        assert approx.evaluate(3) == Permutation((3, 0, 1, 2))
        assert approx.evaluate(-1) == Permutation((3, 0, 1, 2))

    def test_quotient_by_images_is_word_evaluation(self):
        group = sw.free(2)
        images = [Permutation((1, 2, 0, 3)), Permutation((0, 1, 3, 2))]
        approx = sw.quotient_by_images(group, images, group.ball(2))
        assert approx.evaluate((1, 2)) == images[0] * images[1]
        assert approx.evaluate((-1,)) == images[0].inverse()
        assert approx.evaluate(()) == Permutation.identity(4)

    def test_quotient_by_images_of_unequal_degrees_is_refused(self):
        group = sw.free(2)
        with pytest.raises(ValueError, match="images must share a degree"):
            sw.quotient_by_images(group, [Permutation((1, 0)), Permutation((1, 2, 0))], group.ball(1))

    @pytest.mark.parametrize("n", [0, -2])
    def test_cyclic_quotient_on_no_points_is_refused(self, n):
        with pytest.raises(ValueError, match="carrier size must be >= 1"):
            sw.cyclic_quotient(n)

    def test_perturb_zero_rate_is_identity_map(self):
        approx = sw.regular_rep(sw.cyclic(5))
        assert sw.perturb(approx, 0, seed=3).rule == approx.rule

    def test_perturb_moves_by_one_transposition(self):
        approx = sw.regular_rep(sw.cyclic(5))
        noisy = sw.perturb(approx, 1, seed=3)
        for g in approx.sorted_window():
            d = noisy.evaluate(g).distance(approx.evaluate(g))
            assert d == (0 if g == 0 else Fraction(2, 5))

    def test_perturb_at_rate_one_moves_a_two_point_carrier(self):
        # the one transposition of two points swaps them: the shift becomes the identity
        approx = sw.regular_rep(sw.cyclic(2))
        noisy = sw.perturb(approx, 1, seed=0)
        assert noisy.evaluate(1).is_identity()
        assert noisy.evaluate(1).distance(approx.evaluate(1)) == 1

    def test_perturb_keeps_identity_and_is_deterministic(self):
        approx = sw.regular_rep(sw.symmetric(3))
        noisy = sw.perturb(approx, Fraction(1, 2), seed=9)
        assert noisy.evaluate(approx.group.identity()).is_identity()
        again = sw.perturb(approx, Fraction(1, 2), seed=9)
        assert noisy.rule == again.rule

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=-100, max_value=100))
    def test_cyclic_quotient_is_shift_by_k_mod_n(self, n, k):
        assert sw.cyclic_quotient(n, [k]).evaluate(k).image == tuple((i + k) % n for i in range(n))

    def test_random_rule_keeps_identity(self):
        approx = random_rule(sw.cyclic(4), range(4), degree=10, seed=5)
        assert approx.evaluate(0).is_identity()


class TestSoficApproxInvariants:
    def test_identity_rule_must_be_identity(self):
        with pytest.raises(ValueError, match="identity"):
            SoficApprox(sw.cyclic(2), 2, {0: Permutation((1, 0)), 1: Permutation((1, 0))})

    def test_degrees_must_agree(self):
        with pytest.raises(ValueError, match="carrier mismatch"):
            SoficApprox(sw.cyclic(2), 2, {0: Permutation.identity(2), 1: Permutation((1, 2, 0))})

    def test_evaluate_outside_window(self):
        approx = sw.cyclic_quotient(8, window=range(-2, 3))
        with pytest.raises(WindowViolationError):
            approx.evaluate(5)


class TestMultiplicative:
    def test_regular_rep_has_zero_defect(self):
        approx = sw.regular_rep(sw.cyclic(3))
        report = is_sofic_approx(approx, [0, 1, 2], Fraction(1, 100))
        assert report.mult_defect == 0
        assert report.passed

    def test_constant_identity_rule_is_multiplicative_but_not_free(self):
        group = sw.cyclic(2)
        approx = SoficApprox(group, 2, {0: Permutation.identity(2), 1: Permutation.identity(2)})
        report = is_sofic_approx(approx, [0, 1], Fraction(1, 2))
        assert report.mult_defect == 0 < report.eps
        assert report.free_margin == 0 and not report.passed

    def test_perturbed_shift_defect_matches_enumeration(self):
        group = sw.cyclic(5)
        approx = sw.regular_rep(group)
        rule = dict(approx.rule)
        rule[1] = transposition(5, 0, 1) * rule[1]  # swap two outputs of the generator
        noisy = SoficApprox(group, 5, rule)
        report = is_sofic_approx(noisy, [1, 2], Fraction(1, 2))
        expected = max(
            hamming(noisy.evaluate(g) * noisy.evaluate(h), noisy.evaluate((g + h) % 5))
            for g in (1, 2)
            for h in (1, 2)
        )
        assert report.mult_defect == expected > 0

    def test_product_acts_right_factor_first(self):
        # rule(1) rule(2) differs from rule(2) rule(1), so only the product
        # s(t(i)) agrees with rule(3) at every point
        group = sw.cyclic(4)
        a, b = Permutation((1, 0, 2)), Permutation((0, 2, 1))
        rule = {0: Permutation.identity(3), 1: a, 2: b, 3: a * b}
        approx = SoficApprox(group, 3, rule)
        report = is_sofic_approx(approx, [1, 2], Fraction(1, 2))
        assert hamming(rule[1] * rule[2], rule[3]) == 0 < hamming(rule[2] * rule[1], rule[3])
        assert report == sofic_oracle.is_sofic_approx(approx, [1, 2], Fraction(1, 2))

    @given(windowed_approximations(), tolerances)
    def test_matches_built_product_oracle(self, case, eps):
        approx, window = case
        assert is_sofic_approx(approx, window, eps) == sofic_oracle.is_sofic_approx(approx, window, eps)

    def test_window_violation_never_extends(self):
        approx = sw.cyclic_quotient(8, window=range(-2, 3))
        with pytest.raises(WindowViolationError, match="products"):
            is_sofic_approx(approx, [-2, 2], Fraction(1, 2))


class TestFree:
    def test_regular_rep_margin_one(self):
        report = is_sofic_approx(sw.regular_rep(sw.cyclic(3)), [1, 2], Fraction(1, 100))
        assert report.free_margin == 1
        assert report.passed

    def test_identity_valued_element_fails(self):
        group = sw.cyclic(2)
        approx = SoficApprox(group, 2, {0: Permutation.identity(2), 1: Permutation.identity(2)})
        report = is_sofic_approx(approx, [1], Fraction(1, 2))
        assert report.mult_defect == 0
        assert report.free_margin == 0
        assert report.free_witness == 1
        assert not report.passed

    def test_identity_only_window_passes_vacuously(self):
        report = is_sofic_approx(sw.regular_rep(sw.cyclic(3)), [0], Fraction(1, 2))
        assert report.free_margin is None
        assert report.passed


class TestWitnessTies:
    """On a tie the witness is the first extreme in sorted order."""

    RULE = {
        0: Permutation.identity(4),
        1: Permutation((1, 2, 3, 0)),
        2: transposition(4, 0, 1),
        3: transposition(4, 2, 3),
    }

    def test_is_free_names_first_least_margin(self):
        approx = SoficApprox(sw.cyclic(4), 4, self.RULE)
        report = is_sofic_approx(approx, [3, 2, 1, 0], Fraction(1, 2))
        assert report.free_margin == Fraction(1, 2)  # at 2 and at 3
        assert report.free_witness == 2

    def test_is_multiplicative_names_first_worst_pair(self):
        swap = transposition(4, 0, 1)
        rule = {0: Permutation.identity(4), 1: swap, 2: transposition(4, 2, 3), 3: swap}
        approx = SoficApprox(sw.cyclic(4), 4, rule)
        report = is_sofic_approx(approx, [3, 2, 1, 0], Fraction(1, 2))
        pairs = [(g, h) for g in range(4) for h in range(4)]
        defects = [hamming(rule[g] * rule[h], rule[(g + h) % 4]) for g, h in pairs]
        worst = max(defects)
        assert defects.count(worst) > 1 and defects.index(worst) > 0  # a tie, not at the first pair
        assert report.mult_defect == worst
        assert report.mult_witness == pairs[defects.index(worst)]


class TestSoficCheck:
    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 10), Fraction(1, 1000)])
    def test_regular_rep_passes_every_eps(self, eps):
        group = sw.symmetric(3)
        report = is_sofic_approx(sw.regular_rep(group), list(group.elements()), eps)
        assert report.passed
        assert report.mult_defect == 0
        assert report.free_margin == 1

    def test_shift_quotient_off_multiples(self):
        approx = sw.cyclic_quotient(8)
        report = is_sofic_approx(approx, [-3, -1, 0, 1, 3], Fraction(1, 1000))
        assert report.passed
        assert report.free_margin == 1

    def test_shift_quotient_fails_on_multiples(self):
        approx = sw.cyclic_quotient(8, window=range(-16, 17))
        report = is_sofic_approx(approx, [8], Fraction(1, 2))
        assert report.free_margin == 0 and not report.passed

    def test_random_free_rule_report_is_internally_consistent(self):
        group = sw.free(2)
        window = group.ball(2)
        approx = random_rule(group, window, degree=64, seed=11)
        # products of ball(2) live in ball(4)
        full = random_rule(group, group.ball(4), degree=64, seed=11)
        report = is_sofic_approx(full, window, Fraction(1, 4))
        recomputed_defect = max(
            hamming(full.evaluate(g) * full.evaluate(h), full.evaluate(group.mul(g, h)))
            for g in window
            for h in window
        )
        recomputed_margin = min(
            hamming(full.evaluate(g), Permutation.identity(64)) for g in window if g != ()
        )
        assert report.mult_defect == recomputed_defect
        assert report.free_margin == recomputed_margin
        assert approx.evaluate(()).is_identity()

    def test_identity_must_be_in_window(self):
        approx = sw.cyclic_quotient(8, window=[1, 2, 3, 4])
        with pytest.raises(WindowViolationError):
            is_sofic_approx(approx, [1, 2], Fraction(1, 2))

    def test_window_errors_print_elements_as_json_the_group_decodes(self):
        # free-group words are tuples in memory and lists in configs and artifacts
        group = sw.free(2)
        approx = sw.quotient_by_images(group, [Permutation((1, 0)), Permutation((0, 1))], group.ball(1))
        with pytest.raises(WindowViolationError) as caught:
            approx.evaluate((1, 1))
        assert str(caught.value) == "element [1,1] outside the declared window"
        with pytest.raises(WindowViolationError, match="products") as caught:
            is_sofic_approx(approx, group.ball(1), Fraction(1, 2))
        head, listed = str(caught.value).split(": ", 1)
        assert head == "sofic check (products) needs elements outside the window"
        elements = [group.decode(json.loads(text)) for text in listed.split(", ")]
        assert len(elements) == 5 and not set(elements) & set(approx.rule)
        assert listed == ", ".join(map(group.show, elements))

    def test_require_sofic_raises_with_witness(self):
        group = sw.cyclic(2)
        approx = SoficApprox(group, 2, {0: Permutation.identity(2), 1: Permutation.identity(2)})
        with pytest.raises(sw.CertificateError, match="freeness margin"):
            require_sofic(approx, [0, 1], Fraction(1, 2), "test approximation")

    def test_require_sofic_names_every_failing_part(self):
        # rule(1) = id makes rule(1) rule(1) miss rule(2) everywhere and gives
        # 1 no margin: both parts fail, at the first pair and element in order
        swap = Permutation((1, 0))
        ident = Permutation.identity(2)
        rule = {0: ident, 1: ident, 2: swap, 3: ident}
        approx = SoficApprox(sw.cyclic(4), 2, rule)
        with pytest.raises(sw.CertificateError) as raised:
            require_sofic(approx, [0, 1, 2, 3], Fraction(1, 2), "test approximation")
        assert str(raised.value) == (
            "test approximation fails its (4-element window, 1/2) certificate: "
            "multiplicative defect 1 at pair (1, 1); freeness margin 0 at 1"
        )

    def test_require_sofic_prints_elements_that_decode_to_the_witnesses(self):
        # free-group words are tuples in memory and lists in JSON: each part
        # prints its witness as compact JSON, which decode reads back
        group = sw.free(2)
        approx = random_rule(group, group.ball(2), 5, 3)
        report = is_sofic_approx(approx, group.ball(1), Fraction(1, 2))
        with pytest.raises(sw.CertificateError) as raised:
            require_sofic(approx, group.ball(1), Fraction(1, 2), "free")
        assert str(raised.value) == (
            "free fails its (5-element window, 1/2) certificate: "
            "multiplicative defect 1 at pair ([-2], [-1]); freeness margin 2/5 at [2]"
        )
        parts = str(raised.value).split(" certificate: ", 1)[1].split("; ")
        decoded = [tuple(map(group.decode, shown_elements(part))) for part in parts]
        assert decoded == [report.mult_witness, (report.free_witness,)]


class TestStrictPassRule:
    """Every pair defect must be < eps and every freeness margin > 1 - eps:
    a value on the bound fails, and one just inside it passes."""

    # rule(1) = (0 1 2)(3 4): rule(1) rule(1) = (0 2 1) misses rule(0) = id on
    # 3 of 5 points, and rule(1) moves every point
    CUBE = SoficApprox(sw.cyclic(2), 5, {0: Permutation.identity(5), 1: Permutation((1, 2, 0, 4, 3))})
    # rule(1) = (0 1) squares to the identity and moves 2 of 4 points
    SWAP = SoficApprox(sw.cyclic(2), 4, {0: Permutation.identity(4), 1: transposition(4, 0, 1)})

    def test_defect_equal_to_eps_fails(self):
        eps = Fraction(3, 5)
        report = is_sofic_approx(self.CUBE, [0, 1], eps)
        assert (report.mult_defect, report.mult_witness, report.free_margin) == (eps, (1, 1), 1)
        assert not report.passed
        with pytest.raises(sw.CertificateError) as raised:
            require_sofic(self.CUBE, [0, 1], eps, "cube")
        assert str(raised.value) == (
            "cube fails its (2-element window, 3/5) certificate: multiplicative defect 3/5 at pair (1, 1)"
        )
        inside = eps + Fraction(1, 100)
        assert is_sofic_approx(self.CUBE, [0, 1], inside).passed
        assert require_sofic(self.CUBE, [0, 1], inside, "cube").mult_defect == eps

    def test_margin_equal_to_one_minus_eps_fails(self):
        eps = Fraction(1, 2)
        report = is_sofic_approx(self.SWAP, [0, 1], eps)
        assert (report.mult_defect, report.free_margin, report.free_witness) == (0, 1 - eps, 1)
        assert not report.passed
        with pytest.raises(sw.CertificateError) as raised:
            require_sofic(self.SWAP, [0, 1], eps, "swap")
        assert str(raised.value) == "swap fails its (2-element window, 1/2) certificate: freeness margin 1/2 at 1"
        inside = eps + Fraction(1, 100)
        assert is_sofic_approx(self.SWAP, [0, 1], inside).passed
        assert require_sofic(self.SWAP, [0, 1], inside, "swap").free_margin == 1 - eps

    def test_empty_window_has_no_pair_and_passes(self):
        approx = sw.regular_rep(sw.cyclic(3))
        report = require_sofic(approx, [], Fraction(1, 2), "empty")
        assert (report.window, report.mult_defect, report.mult_witness) == ((), 0, None)
        assert (report.free_margin, report.free_witness) == (None, None)
        assert report.passed


class TestSerialization:
    def test_round_trip(self):
        approx = sw.cyclic_quotient(6, window=range(-2, 3))
        data = approx.to_json()
        again = SoficApprox.from_json(data)
        assert again == approx

    def test_regular_rep_on_free_quotient_round_trip(self):
        group = sw.free(2)
        images = [Permutation((1, 2, 0)), Permutation((0, 2, 1))]
        approx = sw.quotient_by_images(group, images, group.ball(1))
        assert SoficApprox.from_json(approx.to_json()) == approx

    def test_bool_entries_write_json_the_reader_accepts(self):
        approx = SoficApprox(sw.cyclic(2), 2, {0: Permutation((False, True)), 1: Permutation((True, False))})
        assert SoficApprox.from_json(json.loads(json.dumps(approx.to_json()))) == approx

    def test_rule_window_must_agree(self):
        # the window is the rule's key set: a stored window list naming other
        # elements, in either direction, is rejected on load
        data = sw.cyclic_quotient(6, window=range(-2, 3)).to_json()
        for window in ([-2, -1, 0, 1, 2, 3], [-2, -1, 0, 1]):
            with pytest.raises(ValueError, match="^rule must be defined exactly on the window$"):
                SoficApprox.from_json({**data, "window": window})

    def test_report_witnesses_belong_to_window(self):
        group = sw.cyclic(5)
        approx = sw.perturb(sw.regular_rep(group), 1, seed=2)
        report = is_sofic_approx(approx, [1, 2, 3], Fraction(1, 1000))
        window = set(report.window)
        assert set(report.mult_witness) <= window
        assert report.free_witness in window
        assert 0 <= report.mult_defect <= 1
        assert 0 <= report.free_margin <= 1
