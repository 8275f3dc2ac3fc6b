"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import soficwreath as sw
from helpers import good_block_inputs, random_coord_action
from soficwreath.bigperm import expand_explicit
from soficwreath.construct import check_good_block_bound
from soficwreath.perm import Permutation, draw_permutation, hamming
from soficwreath.verify import (
    check_almost_homomorphism,
    oracle_check,
    verify_construction,
)


@contextmanager
def criterion(number, name, limit_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL after {time.perf_counter() - start:.2f}s")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} ({name}): PASS in {elapsed:.2f}s (limit {limit_seconds}s)")
    assert elapsed < limit_seconds


def test_criterion_1_exactness_end_to_end():
    with criterion(1, "exactness end-to-end", 1.0):
        lamp, base = sw.cyclic(2), sw.cyclic(3)
        wreath = sw.wreath_product(lamp, base)
        targets = list(wreath.elements())
        assert len(targets) == 24
        sigma_A, sigma_B = sw.regular_rep(lamp), sw.regular_rep(base)

        for eps in (Fraction(1, 2), Fraction(1, 10), Fraction(1, 100)):
            approx = sw.build(sigma_A, sigma_B, targets, eps)
            cert = verify_construction(approx)
            assert cert.passed
            assert all(defect == 0 for defect, _ in cert.mult_defects)
            assert all(margin == 1 for margin, _ in cert.free_margins)

            assert oracle_check(approx, cert) == []


def test_criterion_2_oracle_equivalence():
    with criterion(2, "factorized evaluation vs explicit oracle", 30.0):
        rng = random.Random(987654)
        size_pool = (
            [(a, b) for a in (1, 2, 3, 4) for b in (1, 2, 3, 4, 5)] * 19  # 380 small
            + [(2, 10), (2, 12), (3, 8), (4, 6), (5, 5), (10, 3), (50, 2), (1, 8)] * 15  # 120 larger
        )
        assert len(size_pool) >= 500
        checked = 0
        for a_size, b_size in size_pool:
            assert a_size**b_size * b_size <= 10**5
            w = random_coord_action(a_size, b_size, rng)
            v = random_coord_action(a_size, b_size, rng)
            ew, ev = expand_explicit(w), expand_explicit(v)
            assert w.distance(v) == hamming(ew, ev)  # exact rational equality
            assert expand_explicit(w * v) == ew * ev
            checked += 1
        assert checked >= 500


def test_criterion_3_good_block_bound_reproduction():
    with criterion(3, "good-block bound over 200 seeded perturbations", 10.0):
        block_tolerance = Fraction(1, 8)
        input_tolerance = Fraction(1, 320)
        positions = [-1, 0, 1]
        assert input_tolerance < block_tolerance / (4 * len(positions) ** 2)
        windows, budget = good_block_inputs(sw.integers(), positions, block_tolerance, input_tolerance)
        clean = sw.cyclic_quotient(2048, window=range(-4, 5))
        for seed in range(200):
            noisy = sw.perturb(clean, Fraction(1, 2), seed=seed)
            block = check_good_block_bound(noisy, windows, budget)  # raises unless sigma_B is certified
            assert len(block.good) >= (1 - block_tolerance) * 2048


def test_criterion_4_almost_homomorphism_reproduction():
    with criterion(4, "splitting hypotheses imply multiplicativity, 200 seeds", 30.0):
        wreath = sw.wreath_product(sw.cyclic(2), sw.cyclic(6))
        targets = [wreath.element({0: 1}, 0), wreath.element({}, 1)]
        windows = sw.derive_windows(wreath, targets)
        exact = sw.regular_rep(wreath)
        eps = Fraction(1, 7)  # one transposition per value: 4 * 2/384 < eps/6
        for seed in range(200):
            noisy = sw.perturb(exact, Fraction(1, 2), seed=seed)
            report = check_almost_homomorphism(noisy.evaluate, wreath, windows, eps)
            assert report.hypotheses_pass  # the four bullets hold at eps/6
            assert report.conclusion.passed  # and multiplicativity at eps follows


def test_criterion_5_budget_fidelity():
    with criterion(5, "budget bounds strict across the sweep", 5.0):
        eps_values = [Fraction(1, 1000), Fraction(1, 100), Fraction(3, 100), Fraction(12, 100), Fraction(1, 10), Fraction(1, 2), Fraction(1)]
        for eps in eps_values:
            for window_size in range(1, 21):
                budget = sw.make_budget(eps, window_size)
                assert budget.input_tolerance < eps / (48 * window_size**2)
                assert budget.block_tolerance < eps / 12
                assert budget.input_tolerance < budget.block_tolerance / (4 * window_size**2)

        worked = sw.make_budget(Fraction("0.12"), 2)
        assert Fraction("0.12") / (48 * 2**2) == Fraction(1, 1600) == Fraction("0.000625")
        assert worked.input_tolerance == Fraction(1, 3200)


def test_criterion_6_infinite_groups_factorized(lamplighter_targets):
    with criterion(6, "integers wreath integers via shift quotients", 5.0):
        _, targets = lamplighter_targets
        approx = sw.build(
            sw.cyclic_quotient(64), sw.cyclic_quotient(64), targets, Fraction(1, 10)
        )
        assert approx.carrier_size() == 64**64 * 64  # far beyond any expansion cap
        cert = verify_construction(approx)
        assert cert.passed
        assert cert.worst_defect[0] == 0
        assert cert.min_margin[0] == 1


def test_criterion_7_metric_and_structure(small_wreath, lamplighter):
    with criterion(7, "metric axioms, commutation, equivariance", 10.0):
        rng = random.Random(24601)

        # Hamming metric axioms and bi-invariance over 10^4 random triples
        for _ in range(10_000):
            degree = rng.randint(2, 12)
            s, t, u = (draw_permutation(degree, rng) for _ in range(3))
            d = hamming(s, t)
            assert 0 <= d <= 1
            assert (d == 0) == (s == t)
            assert d == hamming(t, s)
            assert hamming(s, u) <= d + hamming(t, u)
            assert hamming(u * s, u * t) == d == hamming(s * u, t * u)

        # disjoint-coordinate actions commute, 10^3 instances
        for _ in range(1_000):
            coords = list(range(5))
            rng.shuffle(coords)
            cut = rng.randint(0, 5)
            left = {b: {c: draw_permutation(2, rng) for c in coords[:cut]} for b in range(5)}
            right = {b: {c: draw_permutation(2, rng) for c in coords[cut:]} for b in range(5)}
            w = sw.coord_action(2, 5, tau=left)
            v = sw.coord_action(2, 5, tau=right)
            assert w * v == v * w

        # equivariance: the shifted configuration writes the same block map
        for approx in (small_wreath, lamplighter):
            lamps = approx.wreath.lamps
            windows = approx.windows

            def lamp(f):
                return approx.rule(sw.WreathElement(f, approx.wreath.base.identity()))

            for f in windows.lamp_window:
                for h in windows.mover_window:
                    shifted = lamps.shift(h, f)
                    mover = approx.sigma_B.evaluate(h)
                    for b in approx.block.good:
                        b_image = mover(b)
                        if b_image not in approx.block.good:
                            continue
                        assert lamp(shifted).tau.get(b_image, {}) == lamp(f).tau.get(b, {})


def test_criterion_8_freeness_decomposition(small_wreath, lamplighter):
    with criterion(8, "base freeness lower bound", 10.0):
        fixtures = [small_wreath, lamplighter]
        lamp, base = sw.free(2), sw.cyclic(3)
        wreath = sw.wreath_product(lamp, base)
        shift1 = Permutation(tuple((i + 1) % 60 for i in range(60)))
        shift7 = Permutation(tuple((i + 7) % 60 for i in range(60)))
        fixtures.append(
            sw.build(
                sw.quotient_by_images(lamp, [shift1, shift7], lamp.ball(2)),
                sw.regular_rep(base),
                [wreath.element({0: (1,)}, 0), wreath.element({0: (2,)}, 1)],
                Fraction(1, 4),
            )
        )
        checked = 0
        for approx in fixtures:
            base_identity = Permutation.identity(approx.b_size)
            for u in approx.windows.targets:
                if approx.wreath.base.is_identity(u.right):
                    continue
                lhs = approx.rule(u).distance(approx.identity_value())
                rhs = approx.sigma_B.evaluate(u.right).distance(base_identity)
                assert lhs >= rhs  # exact rational comparison
                checked += 1
        assert checked > 0
