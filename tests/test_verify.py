import dataclasses
from fractions import Fraction

import pytest

import soficwreath as sw
from helpers import random_rule
from soficwreath import bigperm
from soficwreath.construct import GoodBlock
from soficwreath.perm import Permutation, transposition
from soficwreath.verify import (
    check_almost_homomorphism,
    check_good_block_bound,
    detailed_reports,
    oracle_check,
    verify_construction,
)


@pytest.fixture(scope="module")
def wreath24():
    wreath = sw.wreath_product(sw.cyclic(2), sw.cyclic(3))
    targets = [wreath.element({0: 1}, 0), wreath.element({}, 1)]
    windows = sw.derive_windows(wreath, targets)
    return wreath, windows, sw.regular_rep(wreath)


class TestAlmostHomomorphism:
    def test_exact_rule_has_zero_defects(self, wreath24):
        wreath, windows, exact = wreath24
        report = check_almost_homomorphism(exact.evaluate, wreath, windows, Fraction(1, 10))
        for bullet in (report.lamp_mult, report.base_mult, report.split, report.intertwine):
            assert bullet.defect == 0 and bullet.passed
        assert report.conclusion.defect == 0 and report.conclusion.passed
        assert report.hypotheses_pass

    def test_deliberate_split_violation_names_witness(self, wreath24):
        wreath, windows, exact = wreath24
        # corrupt the value at one mixed element (g, h) with g, h nontrivial
        victim = next(
            u
            for u in (wreath.element(f, h) for f in windows.lamp_window for h in windows.mover_window)
            if not u.left.is_identity() and not wreath.base.is_identity(u.right)
        )
        rule = dict(exact.rule)
        rule[victim] = transposition(24, 0, 1) * rule[victim]

        report = check_almost_homomorphism(rule.__getitem__, wreath, windows, Fraction(1, 10))
        assert report.split.defect == Fraction(2, 24)
        assert not report.split.passed
        assert report.split.witness == (victim.left, victim.right)
        assert not report.hypotheses_pass

    def test_perturbed_rules_keep_hypotheses_and_conclusion(self):
        # seeded reproduction on a bigger wreath so one transposition per
        # value stays inside the eps/6 budgets: the widest hypothesis
        # compares four values, and 4 * 2/384 = 1/48 < (1/7)/6
        wreath = sw.wreath_product(sw.cyclic(2), sw.cyclic(6))
        targets = [wreath.element({0: 1}, 0), wreath.element({}, 1)]
        windows = sw.derive_windows(wreath, targets)
        exact = sw.regular_rep(wreath)
        eps = Fraction(1, 7)
        for seed in range(50):
            noisy = sw.perturb(exact, Fraction(1, 2), seed=seed)
            report = check_almost_homomorphism(noisy.evaluate, wreath, windows, eps)
            assert report.hypotheses_pass
            assert report.conclusion.passed

    def test_coord_action_rule_dispatch(self, small_wreath):
        approx = small_wreath
        report = check_almost_homomorphism(approx.rule, approx.wreath, approx.windows, approx.budget.eps)
        assert report.split.defect == 0  # exact by construction, not just small
        assert report.conclusion.defect == 0
        assert report.hypotheses_pass


class TestWitnessTies:
    """On a tie the witness is the first extreme in the checked order."""

    def test_bullet_names_first_worst_pair(self, wreath24):
        wreath, windows, exact = wreath24
        mixed = [
            u
            for u in (wreath.element(f, h) for f in windows.lamp_window for h in windows.mover_window)
            if not u.left.is_identity() and not wreath.base.is_identity(u.right)
        ]
        rule = dict(exact.rule)
        for victim in mixed[1:3]:  # two equal split defects, neither at the first mixed pair
            rule[victim] = transposition(24, 0, 1) * rule[victim]
        report = check_almost_homomorphism(rule.__getitem__, wreath, windows, Fraction(1, 10))
        assert report.split.defect == Fraction(2, 24)
        assert report.split.witness == (mixed[1].left, mixed[1].right)

    def test_certificate_extremes_name_first_on_tie(self, small_wreath):
        cert = verify_construction(small_wreath)
        u0, u1, u2, u3 = cert.window[:4]
        third, half = Fraction(1, 3), Fraction(1, 2)
        tied = dataclasses.replace(
            cert,
            mult_defects=((u0, u0, Fraction(0)), (u0, u1, third), (u1, u0, third), (u1, u1, Fraction(1, 4))),
            free_margins=((u1, Fraction(1)), (u2, half), (u3, half)),
        )
        assert tied.worst_defect == (third, (u0, u1))
        assert tied.min_margin == (half, u2)


class TestGoodBlockBound:
    def test_regular_rep_has_full_slack(self):
        report = check_good_block_bound(
            sw.regular_rep(sw.cyclic(3)), [0, 1, 2], Fraction(1, 8), Fraction(1, 300)
        )
        assert len(report.block.good) == 3
        assert report.bound_pass

    def test_shift_quotient_all_blocks(self):
        report = check_good_block_bound(
            sw.cyclic_quotient(64), range(-2, 3), Fraction(1, 10), Fraction(1, 1024)
        )
        assert len(report.block.good) == 64
        assert report.bound_pass

    def test_perturbed_quotients_meet_bound(self):
        window = range(-4, 5)
        for seed in range(50):
            noisy = sw.perturb(sw.cyclic_quotient(2048, window), Fraction(1, 2), seed=seed)
            report = check_good_block_bound(noisy, [-1, 0, 1], Fraction(1, 8), Fraction(1, 320))
            assert report.bound_pass
            assert report.certificate.passed

    def test_tolerance_hypothesis_enforced(self):
        with pytest.raises(ValueError, match="not <"):
            check_good_block_bound(
                sw.cyclic_quotient(64), range(-2, 3), Fraction(1, 10), Fraction(1, 100)
            )

    def test_failing_certificate_raises(self):
        junk = random_rule(sw.integers(), range(-4, 5), degree=16, seed=3)
        with pytest.raises(sw.CertificateError):
            check_good_block_bound(junk, [-1, 0, 1], Fraction(1, 2), Fraction(1, 200))


class TestVerifyConstruction:
    def test_exact_small_wreath_is_exact(self, small_wreath):
        cert = verify_construction(small_wreath)
        assert cert.passed
        assert cert.identity_pass
        assert all(d == 0 for _, _, d in cert.mult_defects)
        assert all(m == 1 for _, m in cert.free_margins)
        assert len(cert.mult_defects) == 24 * 24
        assert len(cert.free_margins) == 23

    def test_small_wreath_matches_explicit_expansion(self, small_wreath):
        approx = small_wreath
        wreath = approx.wreath
        explicit = {u: sw.expand_explicit(approx.rule(u)) for u in approx.windows.closure}
        ident = Permutation.identity(24)
        targets = approx.windows.targets[::5]  # sample; the acceptance suite does all
        for u in targets:
            assert approx.rule(u).distance(approx.identity_value()) == explicit[u].distance(ident)
            for v in targets:
                product = explicit[u] * explicit[v]
                assert sw.expand_explicit(approx.rule(u) * approx.rule(v)) == product
                assert (approx.rule(u) * approx.rule(v)).distance(
                    approx.rule(wreath.mul(u, v))
                ) == product.distance(explicit[wreath.mul(u, v)])

    def test_lamplighter_factorized_only(self, lamplighter):
        cert = verify_construction(lamplighter)
        assert cert.passed
        assert cert.worst_defect[0] == 0
        assert cert.min_margin[0] == 1
        assert lamplighter.carrier_size() > 10**100  # never materialized

    def test_free_quotient_inputs_certified_implies_output_certified(self):
        lamp, base = sw.free(2), sw.cyclic(3)
        wreath = sw.wreath_product(lamp, base)
        targets = [wreath.element({0: (1,)}, 0), wreath.element({0: (2,)}, 1)]
        # generator images that factor through shifts: every short word acts
        # fixed-point-freely, so the input certificate holds
        shift1 = Permutation(tuple((i + 1) % 60 for i in range(60)))
        shift7 = Permutation(tuple((i + 7) % 60 for i in range(60)))
        sigma_A = sw.quotient_by_images(lamp, [shift1, shift7], lamp.ball(2))
        approx = sw.build(sigma_A, sw.regular_rep(base), targets, Fraction(1, 4))
        cert = verify_construction(approx)
        assert cert.passed

    def test_free_quotient_uncertified_inputs_rejected(self):
        lamp, base = sw.free(2), sw.cyclic(3)
        wreath = sw.wreath_product(lamp, base)
        targets = [wreath.element({0: (1,)}, 0), wreath.element({0: (2,)}, 1)]
        # random images almost surely have fixed points on 60 points, so the
        # freeness side of the certificate fails at the derived tolerance
        sigma_A = sw.quotient_by_images(
            lamp,
            [sw.random_permutation(60, 100), sw.random_permutation(60, 101)],
            lamp.ball(2),
        )
        with pytest.raises(sw.CertificateError, match="lamp approximation"):
            sw.build(sigma_A, sw.regular_rep(base), targets, Fraction(1, 4))

    def test_certificate_json_schema(self, small_wreath):
        cert = verify_construction(small_wreath)
        data = cert.to_json(small_wreath.wreath)
        assert data["kind"] == "sofic-certificate"
        assert data["pass"] is True
        assert data["seed"] is None
        assert len(data["mult_defects"]) == 576
        assert all(entry["defect"] == {"num": 0, "den": 1} for entry in data["mult_defects"])
        assert all(entry["margin"] == {"num": 1, "den": 1} for entry in data["free_margins"])

    def test_violations_listed_for_failing_window(self, small_wreath):
        # verify at an absurd tolerance: freeness margins 1 cannot exceed 1 - eps for eps <= 0 is
        # impossible, so instead check violations() by tightening multiplicativity on a noisy rule
        cert = verify_construction(small_wreath)
        assert cert.violations(small_wreath.wreath) == []


class TestDetailedReports:
    def test_split_defect_exactly_zero(self, small_wreath):
        report = detailed_reports(small_wreath)
        assert report.multiplicativity.almost_hom.split.defect == 0
        assert report.multiplicativity.within_bounds

    def test_exact_inputs_have_zero_defects_within_budgets(self, lamplighter):
        report = detailed_reports(lamplighter)
        hom = report.multiplicativity.almost_hom
        assert hom.lamp_mult.defect == 0
        assert hom.base_mult.defect == 0
        assert hom.intertwine.defect == 0
        assert report.multiplicativity.within_bounds

    def test_lamp_only_entries_have_tiny_fixed_fraction(self, small_wreath):
        report = detailed_reports(small_wreath)
        lamp_entries = [e for e in report.freeness if e.fixed_fraction is not None]
        assert lamp_entries
        for entry in lamp_entries:
            assert entry.fixed_fraction == 0  # exact inputs: bound kappa + eps' with zero slack used
            assert entry.within_bound
            assert entry.anchor_position in entry.element.left.support()

    def test_base_moving_entries_dominate_base_margin(self, small_wreath, lamplighter):
        for approx in (small_wreath, lamplighter):
            report = detailed_reports(approx)
            base_entries = [e for e in report.freeness if e.base_margin is not None]
            assert base_entries
            for entry in base_entries:
                assert entry.margin >= entry.base_margin
                assert entry.base_dominated

    def test_report_json_round_trip_shape(self, small_wreath):
        data = detailed_reports(small_wreath).to_json(small_wreath.wreath)
        assert set(data) == {"multiplicativity", "freeness"}
        assert data["multiplicativity"]["within_bounds"] is True


def one_block_short(lamp_order: int, base_order: int):
    """All of Z/lamp wr Z/base on regular representations, with the lowest
    good block taken out of the good set, so that many pairs have a nonzero
    defect.  Lamp order 3 gives two distinct lamp permutations, which the
    per-call tables of the kernels key by pairs of objects."""
    lamp, base = sw.cyclic(lamp_order), sw.cyclic(base_order)
    wreath = sw.wreath_product(lamp, base)
    approx = sw.build(sw.regular_rep(lamp), sw.regular_rep(base), list(wreath.elements()), Fraction(1, 2))
    block = approx.block
    short = GoodBlock(block.injective, block.compatible, block.good - {min(block.good)})
    return dataclasses.replace(approx, block=short, _cache={})


class TestOracleCheck:
    @pytest.mark.parametrize(
        "lamp_order, base_order, nonzero, worst",
        [(2, 3, 336, Fraction(2, 3)), (3, 2, 144, Fraction(1))],
        ids=["z2_wr_z3", "z3_wr_z2"],
    )
    def test_confirms_nonzero_defects(self, lamp_order, base_order, nonzero, worst):
        approx = one_block_short(lamp_order, base_order)
        cert = verify_construction(approx)
        assert sum(1 for _, _, d in cert.mult_defects if d) == nonzero
        assert cert.worst_defect[0] == worst
        assert oracle_check(approx, cert) == []

    def test_tampered_distance_is_reported(self):
        approx = one_block_short(2, 3)
        cert = verify_construction(approx)
        u, v, d = cert.mult_defects[100]
        defects = list(cert.mult_defects)
        defects[100] = (u, v, d + Fraction(1, 24))
        tampered = dataclasses.replace(cert, mult_defects=tuple(defects))
        pair = f"({approx.wreath.encode(u)}, {approx.wreath.encode(v)})"
        assert oracle_check(approx, tampered) == [
            f"distance mismatch at pair {pair}: {d + Fraction(1, 24)} vs {d}"
        ]

    def test_tampered_margin_and_identity_are_reported(self):
        approx = one_block_short(2, 3)
        cert = verify_construction(approx)
        u, m = cert.free_margins[0]
        tampered = dataclasses.replace(
            cert, identity_pass=False, free_margins=((u, m / 2),) + cert.free_margins[1:]
        )
        assert oracle_check(approx, tampered) == [
            "identity mismatch: certificate says False",
            f"freeness distance mismatch at {approx.wreath.encode(u)}: {m / 2} vs {m}",
        ]

    def test_distances_are_read_from_the_given_certificate(self, small_wreath):
        # same target window, every distance of the exact approximation: the
        # 336 pairs and the 7 lamp-only margins the missing block moves disagree
        approx = one_block_short(2, 3)
        mismatches = oracle_check(approx, verify_construction(small_wreath))
        assert len(mismatches) == 336 + 7
        assert sum(line.startswith("distance mismatch at pair (") for line in mismatches) == 336
        assert sum(line.startswith("freeness distance mismatch at ") for line in mismatches) == 7

    def test_wrong_composition_is_reported(self, monkeypatch):
        approx = one_block_short(3, 2)
        cert = verify_construction(approx)
        compose = bigperm.compose_actions

        def drop_one_block(second, first):
            w = compose(second, first)
            tau = {b: entries for b, entries in w.tau.items() if b != min(w.tau)}
            return bigperm.CoordAction(w.a_size, w.b_size, w.beta, tau)

        monkeypatch.setattr(bigperm, "compose_actions", drop_one_block)
        mismatches = oracle_check(approx, cert)
        assert mismatches
        assert all(line.startswith("composition mismatch at pair (") for line in mismatches)

    def test_certificate_for_another_window_is_rejected(self, small_wreath):
        approx = one_block_short(3, 2)
        with pytest.raises(ValueError, match="not for the approximation's target window"):
            oracle_check(approx, verify_construction(small_wreath))
        cert = verify_construction(approx)
        for shorter in (
            dataclasses.replace(cert, mult_defects=cert.mult_defects[:-1]),
            dataclasses.replace(cert, free_margins=cert.free_margins[1:]),
        ):
            with pytest.raises(ValueError, match="not for the approximation's target window"):
                oracle_check(approx, shorter)
        first, second, *rest = cert.mult_defects
        swapped = dataclasses.replace(cert, mult_defects=(second, first, *rest))
        with pytest.raises(ValueError, match="does not list pair"):
            oracle_check(approx, swapped)
