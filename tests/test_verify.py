from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import soficwreath as sw
import verify_oracle
from helpers import (
    good_block_inputs,
    random_rule,
    replace,
    shown_elements,
    small_wreath_approximations,
    with_values,
    without_lowest_good_block,
)
from soficwreath import bigperm
from soficwreath.construct import check_good_block_bound
from soficwreath.perm import Permutation, transposition
from soficwreath.verify import (
    BulletReport,
    FreenessEntry,
    check_almost_homomorphism,
    detailed_reports,
    oracle_check,
    verify_construction,
)


def with_freeness(cert, freeness):
    """``cert`` with ``freeness`` as its details' freeness entries, and so as
    the source of its ``free_margins``."""
    return replace(cert, details=replace(cert.details, freeness=tuple(freeness)))


def with_lamp_bullet(cert, **changes):
    """``cert`` with ``changes`` to the fields of its ``lamp_mult`` bullet."""
    hom = cert.details.almost_hom
    bullet = replace(hom.lamp_mult, **changes)
    return replace(cert, details=replace(cert.details, almost_hom=replace(hom, lamp_mult=bullet)))


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
        tied = with_freeness(
            replace(
                cert,
                mult_defects=(
                    (Fraction(0), (u0, u0)), (third, (u0, u1)), (third, (u1, u0)), (Fraction(1, 4), (u1, u1))
                ),
            ),
            (FreenessEntry(u, m, None, None, None) for u, m in ((u1, Fraction(1)), (u2, half), (u3, half))),
        )
        assert tied.worst_defect == (third, (u0, u1))
        assert tied.min_margin == (half, u2)


class TestGoodBlockBound:
    def test_regular_rep_has_full_slack(self):
        windows, budget = good_block_inputs(sw.cyclic(3), [0, 1, 2], Fraction(1, 8), Fraction(1, 300))
        block = check_good_block_bound(sw.regular_rep(sw.cyclic(3)), windows, budget)
        assert len(block.good) == 3

    def test_shift_quotient_all_blocks(self):
        windows, budget = good_block_inputs(sw.integers(), range(-2, 3), Fraction(1, 10), Fraction(1, 1024))
        block = check_good_block_bound(sw.cyclic_quotient(64), windows, budget)
        assert len(block.good) == 64

    def test_perturbed_quotients_meet_bound(self):
        windows, budget = good_block_inputs(sw.integers(), [-1, 0, 1], Fraction(1, 8), Fraction(1, 320))
        window = range(-4, 5)
        for seed in range(50):
            noisy = sw.perturb(sw.cyclic_quotient(2048, window), Fraction(1, 2), seed=seed)
            block = check_good_block_bound(noisy, windows, budget)
            assert len(block.good) >= (1 - Fraction(1, 8)) * 2048

    def test_tolerance_hypothesis_enforced(self):
        with pytest.raises(ValueError, match=r"not < block/\(4 w\^2\)"):
            sw.Budget(Fraction(100), Fraction(1, 10), Fraction(1, 100), 5)

    def test_failing_certificate_raises(self):
        junk = random_rule(sw.integers(), range(-4, 5), degree=16, seed=3)
        windows, budget = good_block_inputs(sw.integers(), [-1, 0, 1], Fraction(1, 2), Fraction(1, 200))
        with pytest.raises(sw.CertificateError, match="base approximation"):
            check_good_block_bound(junk, windows, budget)


class TestVerifyConstruction:
    def test_exact_small_wreath_is_exact(self, small_wreath):
        cert = verify_construction(small_wreath)
        assert cert.passed
        assert all(d == 0 for d, _ in cert.mult_defects)
        assert all(m == 1 for m, _ in cert.free_margins)
        assert len(cert.mult_defects) == 24 * 24
        assert len(cert.free_margins) == 23

    def test_small_wreath_matches_explicit_expansion(self, small_wreath):
        approx = small_wreath
        wreath = approx.wreath
        explicit = {u: sw.expand_explicit(approx.rule(u)) for u in approx.windows.closure}
        ident = Permutation.identity(24)
        targets = approx.windows.targets[::5]  # sample; the acceptance suite does all
        for u in targets:
            assert approx.rule(u).distance(sw.identity_action(approx.a_size, approx.b_size)) == explicit[u].distance(ident)
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

    def test_verdict_is_computed_once_per_instance(self, small_wreath):
        # passed is cached on the instance; replace builds a new one
        cert = verify_construction(small_wreath)
        assert cert.passed is True
        (_, pair), *rest = cert.mult_defects
        failing = replace(cert, mult_defects=((Fraction(1), pair), *rest))
        assert failing.passed is False
        assert cert.passed is True

    def test_violations_listed_for_failing_window(self, small_wreath):
        # a built rule always passes, so the failing values are set by hand:
        # one line per failing part, pairs before margins
        cert = verify_construction(small_wreath)
        assert cert.violations(small_wreath.wreath) == []
        failing = with_values(cert, Fraction(1), Fraction(0))
        assert failing.passed is False
        assert failing.violations(small_wreath.wreath) == [
            'multiplicative defect 1 at pair ({"left":[],"right":0}, {"left":[],"right":0})',
            'freeness margin 0 at {"left":[[0,1]],"right":0}',
        ]

    @pytest.mark.parametrize("part", ["defect", "margin"])
    def test_value_on_the_bound_fails(self, small_wreath, part):
        # eps = 1/2: a pair defect of 1/2 or a margin of 1 - 1/2 fails, one just inside passes
        cert = verify_construction(small_wreath)
        eps, wreath = cert.eps, small_wreath.wreath
        assert eps == Fraction(1, 2)
        bound, inside = (eps, eps - Fraction(1, 100)) if part == "defect" else (1 - eps, 1 - eps + Fraction(1, 100))
        inside = with_values(cert, **{part: inside})
        assert inside.passed is True and inside.violations(wreath) == []
        on_bound = with_values(cert, **{part: bound})
        assert on_bound.passed is False
        assert on_bound.violations(wreath) == [
            'multiplicative defect 1/2 at pair ({"left":[],"right":0}, {"left":[],"right":0})'
            if part == "defect"
            else 'freeness margin 1/2 at {"left":[[0,1]],"right":0}'
        ]


class TestFailureLines:
    """Every element a failure line prints is compact JSON of the group's
    encoding: ``json.loads`` and ``decode`` give back the witness."""

    @staticmethod
    def decoded(wreath, lines):
        return [tuple(map(wreath.decode, shown_elements(line))) for line in lines]

    def test_violations_decode_to_their_witnesses(self, small_wreath):
        cert = verify_construction(small_wreath)
        failing = replace(
            with_freeness(cert, [replace(e, margin=Fraction(0)) for e in cert.details.freeness]),
            mult_defects=tuple((Fraction(1), pair) for _, pair in cert.mult_defects),
        )
        lines = failing.violations(small_wreath.wreath)
        assert len(lines) == len(cert.mult_defects) + len(cert.free_margins)
        assert self.decoded(small_wreath.wreath, lines) == [
            *(pair for _, pair in cert.mult_defects), *((u,) for _, u in cert.free_margins)
        ]

    def test_oracle_mismatches_decode_to_their_witnesses(self):
        approx = one_block_short(2, 3)
        cert = verify_construction(approx)
        tampered = replace(
            with_freeness(cert, [replace(e, margin=e.margin / 2 + Fraction(1, 7)) for e in cert.details.freeness]),
            mult_defects=tuple(((d + Fraction(1, 7)) % 1, pair) for d, pair in cert.mult_defects),
        )
        lines = oracle_check(approx, tampered)
        assert len(lines) == len(cert.free_margins) + len(cert.mult_defects)
        assert self.decoded(approx.wreath, lines) == [
            *((u,) for _, u in cert.free_margins), *(pair for _, pair in cert.mult_defects)
        ]


class TestDetailedReports:
    def test_bounds_are_the_budget_formulas(self, small_wreath):
        # the proof's bounds, written out: with w positions, block tolerance
        # kappa = eps/13 and input tolerance eps/(96 w^2), lamp is kappa + w
        # times the input tolerance, base the input tolerance, split 0 and
        # intertwine 2 kappa
        report = verify_construction(small_wreath).details
        eps, w = Fraction(1, 2), len(small_wreath.windows.positions)
        assert (report.budget.eps, w) == (eps, 3)
        kappa, input_tolerance = eps / 13, eps / (96 * w**2)
        assert report.bounds == {
            "lamp": kappa + w * input_tolerance,
            "base": input_tolerance,
            "split": 0,
            "intertwine": 2 * kappa,
        }
        assert report.bounds["lamp"] == Fraction(1, 26) + Fraction(1, 576)

    # one block short of good, a filter on b in the good set in place of its
    # image sigma_B(h) b gives split defects of 2/3 and 1
    @pytest.mark.parametrize("short", [None, (2, 3), (3, 2)], ids=["exact", "z2_wr_z3_short", "z3_wr_z2_short"])
    def test_split_defect_exactly_zero(self, small_wreath, short):
        approx = one_block_short(*short) if short else small_wreath
        report = verify_construction(approx).details
        assert report.almost_hom.split.defect == 0
        if not short:
            assert report.within_bounds

    def test_exact_inputs_have_zero_defects_within_budgets(self, lamplighter):
        report = verify_construction(lamplighter).details
        hom = report.almost_hom
        assert hom.lamp_mult.defect == 0
        assert hom.base_mult.defect == 0
        assert hom.intertwine.defect == 0
        assert report.within_bounds

    def test_lamp_only_entries_have_tiny_fixed_fraction(self, small_wreath):
        report = verify_construction(small_wreath).details
        lamp_entries = [e for e in report.freeness if e.fixed_fraction is not None]
        assert lamp_entries
        for entry in lamp_entries:
            assert entry.fixed_fraction == 0  # exact inputs: bound kappa + eps' with zero slack used
            assert entry.within_bound
            assert entry.anchor_position in entry.element.left.support()

    def test_base_moving_entries_dominate_base_margin(self, small_wreath, lamplighter):
        for approx in (small_wreath, lamplighter):
            report = verify_construction(approx).details
            base_entries = [e for e in report.freeness if e.base_margin is not None]
            assert base_entries
            for entry in base_entries:
                assert entry.margin >= entry.base_margin
                assert entry.base_dominated

    def test_breaks_down_the_margins_it_is_given(self, small_wreath):
        # the margins verify_construction measured are read, not measured again
        margins = [(m / 2, u) for m, u in verify_construction(small_wreath).free_margins]
        report = detailed_reports(small_wreath, margins)
        assert [(e.margin, e.element) for e in report.freeness] == margins
        for entry in report.freeness:
            assert entry.fixed_fraction == (None if entry.base_margin is not None else 1 - entry.margin)

    def test_report_json_round_trip_shape(self, small_wreath):
        data = verify_construction(small_wreath).details.to_json(small_wreath.wreath)
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
    return without_lowest_good_block(approx)


class TestVerdictBoundaries:
    """A bullet passes only strictly under its threshold, and a lamp-only
    fixed fraction may reach its bound."""

    def test_defect_equal_to_the_threshold_fails(self):
        threshold = Fraction(1, 12)  # eps/6 at eps = 1/2
        assert not BulletReport(threshold, None, threshold).passed
        assert BulletReport(threshold - Fraction(1, 10**9), None, threshold).passed

    def test_fixed_fraction_equal_to_the_bound_holds(self):
        wreath = sw.wreath_product(sw.cyclic(2), sw.cyclic(3))
        u, bound = wreath.element({0: 1}, 0), Fraction(1, 26) + Fraction(1, 864)
        assert FreenessEntry(u, 1 - bound, None, 0, bound).within_bound
        assert not FreenessEntry(u, 1 - bound - Fraction(1, 10**9), None, 0, bound).within_bound


class TestOracleCheck:
    @pytest.mark.parametrize(
        "lamp_order, base_order, nonzero, worst",
        [(2, 3, 336, Fraction(2, 3)), (3, 2, 144, Fraction(1))],
        ids=["z2_wr_z3", "z3_wr_z2"],
    )
    def test_confirms_nonzero_defects(self, lamp_order, base_order, nonzero, worst):
        approx = one_block_short(lamp_order, base_order)
        cert = verify_construction(approx)
        assert sum(1 for d, _ in cert.mult_defects if d) == nonzero
        assert cert.worst_defect[0] == worst
        assert oracle_check(approx, cert) == []

    def test_tampered_distance_is_reported(self):
        approx = one_block_short(2, 3)
        cert = verify_construction(approx)
        d, (u, v) = cert.mult_defects[100]
        defects = list(cert.mult_defects)
        defects[100] = (d + Fraction(1, 24), (u, v))
        tampered = replace(cert, mult_defects=tuple(defects))
        pair = f"({approx.wreath.show(u)}, {approx.wreath.show(v)})"
        assert oracle_check(approx, tampered) == [
            f"distance mismatch at pair {pair}: {d + Fraction(1, 24)} vs {d}"
        ]

    def test_tampered_margin_and_identity_are_reported(self):
        # rule(identity) cached as a base shift, which build would reject; the
        # certificate's pairs and margins are measured on the same values, but its
        # lamp_mult bullet is computed from sigma_A, so the oracle finds that too
        approx = one_block_short(2, 3)
        shift = bigperm.CoordAction(2, 3, Permutation((1, 2, 0)), {})
        approx._cache[approx.wreath.identity()] = shift
        cert = verify_construction(approx)
        first, *rest = cert.details.freeness
        u, m = first.element, first.margin
        tampered = with_freeness(cert, (replace(first, margin=m / 2), *rest))
        expected = [
            "identity mismatch: rule(identity) does not expand to the identity",
            f"freeness distance mismatch at {approx.wreath.show(u)}: {m / 2} vs {m}",
            "lamp_mult mismatch: 0 at pair ([], []) vs 1 at pair ([], [])",
        ]
        assert oracle_check(approx, tampered) == verify_oracle.oracle_check(approx, tampered) == expected

    def test_tampered_lamp_bullet_is_reported(self):
        # sigma_A is exact, so every lamp-only pair is at distance 0 and the first is the witness
        approx = one_block_short(3, 2)
        cert = verify_construction(approx)
        first, second = approx.windows.lamp_window[:2]
        assert cert.details.almost_hom.lamp_mult == BulletReport(0, (first, first), Fraction(1, 12))
        show = approx.wreath.lamps.show
        at_first = f"pair ({show(first)}, {show(first)})"
        for tampered, listed in (
            (with_lamp_bullet(cert, defect=Fraction(1, 7)), f"1/7 at {at_first}"),
            (with_lamp_bullet(cert, witness=(first, second)), f"0 at pair ({show(first)}, {show(second)})"),
        ):
            assert oracle_check(approx, tampered) == verify_oracle.oracle_check(approx, tampered) == [
                f"lamp_mult mismatch: {listed} vs 0 at {at_first}"
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

    @settings(max_examples=40, deadline=None)
    @given(small_wreath_approximations(), st.data())
    def test_matches_a_reference_that_expands_every_product(self, approx, data):
        cert = verify_construction(approx)
        assert oracle_check(approx, cert) == verify_oracle.oracle_check(approx, cert) == []
        i = data.draw(st.integers(min_value=0, max_value=len(cert.mult_defects) - 1))
        defects = list(cert.mult_defects)
        d, pair = defects[i]
        defects[i] = ((d + Fraction(1, 7)) % 1, pair)  # another distance in [0, 1)
        tampered = replace(cert, mult_defects=tuple(defects))
        mismatches = oracle_check(approx, tampered)
        assert mismatches == verify_oracle.oracle_check(approx, tampered)
        assert len(mismatches) == 1 and mismatches[0].startswith("distance mismatch at pair (")

    def test_certificate_for_another_window_is_rejected(self, small_wreath):
        approx = one_block_short(3, 2)
        with pytest.raises(ValueError, match="not for the approximation's target window"):
            oracle_check(approx, verify_construction(small_wreath))
        cert = verify_construction(approx)
        for shorter in (
            replace(cert, mult_defects=cert.mult_defects[:-1]),
            with_freeness(cert, cert.details.freeness[1:]),
        ):
            with pytest.raises(ValueError, match="not for the approximation's target window"):
                oracle_check(approx, shorter)
        first, second, *rest = cert.mult_defects
        swapped = replace(cert, mult_defects=(second, first, *rest))
        with pytest.raises(ValueError, match="does not list pair"):
            oracle_check(approx, swapped)
