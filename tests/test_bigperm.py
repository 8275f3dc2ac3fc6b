import copy
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import coord_oracle
from helpers import pooled_actions, random_coord_action, rejection
from soficwreath.bigperm import (
    CoordAction,
    action_distance,
    compose_actions,
    coord_action,
    expand_explicit,
    explicit_image,
    fixed_fraction,
    identity_action,
)
from soficwreath.perm import Permutation, draw_permutation, hamming


def swap(n=2, i=0, j=1):
    img = list(range(n))
    img[i], img[j] = img[j], img[i]
    return Permutation(tuple(img))


small_actions = st.tuples(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2**32 - 1),
)


def make_pair(a_size, b_size, seed):
    rng = random.Random(seed)
    return (
        random_coord_action(a_size, b_size, rng),
        random_coord_action(a_size, b_size, rng),
    )


# carriers from 1 to 4^6 * 6 points, against caps of 100 and 10**4
expandable_actions = st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.sampled_from([0, 0.3, 1]),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([100, 10**4]),
)


class TestCanonicalForm:
    def test_identity_entries_pruned(self):
        action = coord_action(2, 3, tau={0: {1: Permutation.identity(2)}, 2: {}})
        assert action == identity_action(2, 3)
        assert action.tau == {}

    def test_rejects_stored_identity(self):
        with pytest.raises(ValueError, match="non-canonical"):
            CoordAction(2, 2, Permutation.identity(2), {0: {0: Permutation.identity(2)}})

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError, match="carrier mismatch"):
            coord_action(2, 2, tau={0: {0: Permutation((1, 2, 0))}})
        with pytest.raises(ValueError, match="carrier mismatch"):
            coord_action(2, 3, beta=Permutation((1, 0)))

    def test_structural_equality_after_compose(self):
        w = coord_action(2, 2, tau={0: {0: swap()}})
        assert w * w == identity_action(2, 2)


class TestCompose:
    def test_identity_neutral(self, rng):
        w = random_coord_action(3, 4, rng)
        assert w * identity_action(3, 4) == w
        assert identity_action(3, 4) * w == w

    @given(small_actions)
    def test_identity_operand_matches_reference(self, params):
        a_size, b_size, seed = params
        w, v = make_pair(a_size, b_size, seed)
        one = identity_action(a_size, b_size)
        for second, first in ((one, w), (w, one), (one, v), (v, one), (one, one)):
            composed = compose_actions(second, first)
            assert composed == coord_oracle.compose_actions(second, first)
            assert composed is second or composed is first  # no new action is built

    def test_identity_operand_still_checks_sizes(self):
        with pytest.raises(ValueError, match="carrier mismatch"):
            compose_actions(identity_action(2, 3), random_coord_action(3, 3, random.Random(1)))

    def test_inverse_law(self, rng):
        for _ in range(20):
            w = random_coord_action(3, 4, rng)
            assert w * coord_oracle.inverse_action(w) == identity_action(3, 4)
            assert coord_oracle.inverse_action(w) * w == identity_action(3, 4)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="carrier mismatch"):
            compose_actions(identity_action(2, 3), identity_action(2, 4))

    @settings(max_examples=60)
    @given(small_actions)
    def test_compose_commutes_with_expansion(self, params):
        a_size, b_size, seed = params
        w2, w1 = make_pair(a_size, b_size, seed)
        assert expand_explicit(w2 * w1) == expand_explicit(w2) * expand_explicit(w1)

    def test_semantics_pointwise(self, rng):
        w2, w1 = make_pair(3, 3, 77)
        for b in range(3):
            for a in [(0, 1, 2), (2, 2, 0), (1, 0, 1)]:
                step = coord_oracle.apply(w2, *coord_oracle.apply(w1, a, b))
                assert coord_oracle.apply(w2 * w1, a, b) == step


class TestDistance:
    def test_equal_actions_distance_zero(self, rng):
        w = random_coord_action(2, 5, rng)
        assert w.distance(w) == 0

    def test_pure_fixed_point_free_shift(self):
        shift = coord_action(4, 3, beta=Permutation((1, 2, 0)))
        assert shift.distance(identity_action(4, 3)) == 1

    @settings(max_examples=60)
    @given(small_actions)
    def test_matches_explicit_hamming(self, params):
        a_size, b_size, seed = params
        w, v = make_pair(a_size, b_size, seed)
        assert w.distance(v) == hamming(expand_explicit(w), expand_explicit(v))

    @settings(max_examples=40)
    @given(small_actions)
    def test_metric_axioms_and_bi_invariance(self, params):
        a_size, b_size, seed = params
        rng = random.Random(seed)
        w, v, u = (random_coord_action(a_size, b_size, rng) for _ in range(3))
        d = w.distance(v)
        assert 0 <= d <= 1
        assert (d == 0) == (w == v)
        assert d == v.distance(w)
        assert w.distance(u) <= d + v.distance(u)
        assert (u * w).distance(u * v) == d == (w * u).distance(v * u)

    def test_disjoint_coordinate_actions_commute(self, rng):
        # identity base parts with per-block disjoint touched coordinates
        for _ in range(50):
            coords = list(range(6))
            rng.shuffle(coords)
            cut = rng.randint(0, 6)
            left = {
                b: {c: draw_permutation(3, rng) for c in coords[:cut] if rng.random() < 0.7}
                for b in range(6)
            }
            right = {
                b: {c: draw_permutation(3, rng) for c in coords[cut:] if rng.random() < 0.7}
                for b in range(6)
            }
            w = coord_action(3, 6, tau=left)
            v = coord_action(3, 6, tau=right)
            assert w * v == v * w


class TestFixedFraction:
    def test_identity(self):
        assert fixed_fraction(identity_action(3, 4)) == 1

    def test_fixed_point_free_base(self):
        shift = coord_action(3, 4, beta=Permutation((1, 2, 3, 0)))
        assert fixed_fraction(shift) == 0

    @settings(max_examples=60)
    @given(small_actions)
    def test_matches_explicit_count(self, params):
        a_size, b_size, seed = params
        w, _ = make_pair(a_size, b_size, seed)
        explicit = expand_explicit(w)
        assert fixed_fraction(w) == Fraction(explicit.fixed_points(), explicit.degree)

    @settings(max_examples=40)
    @given(small_actions)
    def test_complements_identity_distance(self, params):
        a_size, b_size, seed = params
        w, _ = make_pair(a_size, b_size, seed)
        assert fixed_fraction(w) == 1 - w.distance(identity_action(a_size, b_size))


class TestExpansion:
    def test_identity_expands_to_identity(self):
        assert expand_explicit(identity_action(2, 2)) == Permutation.identity(8)

    def test_pure_base_swap_with_trivial_lamps(self):
        # |A| = 1 collapses the lamp part: two points swap
        action = coord_action(1, 2, beta=Permutation((1, 0)))
        assert expand_explicit(action) == Permutation((1, 0))

    def test_single_block_swap(self):
        # |A| = 2, |B| = 1: carrier has 2 points, the tau swap exchanges them
        action = coord_action(2, 1, tau={0: {0: swap()}})
        assert expand_explicit(action) == Permutation((1, 0))

    def test_encoding_order(self):
        # point (a0, a1, b) -> index b*4 + a0 + 2*a1; swap at block 0, coord 1
        action = coord_action(2, 2, tau={0: {1: swap()}})
        explicit = expand_explicit(action)
        assert explicit.image[:4] == (2, 3, 0, 1)
        assert explicit.image[4:] == (4, 5, 6, 7)

    def test_cap(self):
        with pytest.raises(ValueError, match="too large"):
            expand_explicit(identity_action(2, 30))
        with pytest.raises(ValueError, match="too large"):
            expand_explicit(identity_action(2, 4), cap=10)

    @settings(max_examples=150)
    @given(expandable_actions)
    def test_matches_point_by_point_reference(self, params):
        """Untouched blocks (density 0 leaves them all), moved blocks and the
        cap error, against the digit-by-digit expansion."""
        a_size, b_size, density, seed, cap = params
        w = random_coord_action(a_size, b_size, random.Random(seed), density)
        error = rejection(lambda x: coord_oracle.expand_explicit(x, cap), w)
        assert rejection(lambda x: explicit_image(x, cap), w) == error
        assert rejection(lambda x: expand_explicit(x, cap), w) == error
        if error is None:
            reference = coord_oracle.expand_explicit(w, cap)
            assert explicit_image(w, cap) == reference.image
            assert expand_explicit(w, cap) == reference


large_actions = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.sampled_from([0, 0.3, 1]),
    st.integers(min_value=0, max_value=2**32 - 1),
)


class TestAgainstReferenceKernels:
    """The integer kernels against the Fraction-per-coordinate references."""

    @settings(max_examples=80)
    @given(large_actions)
    def test_kernels_match_references(self, params):
        a_size, b_size, density, seed = params
        rng = random.Random(seed)
        w, v, u = (random_coord_action(a_size, b_size, rng, density) for _ in range(3))
        # sharing w's base image compares every touched block's fiber
        same_base = CoordAction(a_size, b_size, w.beta, v.tau)
        for second, first in [(w, v), (v, w), (w, coord_oracle.inverse_action(w)), (same_base, w), (u, same_base)]:
            assert compose_actions(second, first) == coord_oracle.compose_actions(second, first)
        for x, y in [(w, v), (w, same_base), (w, w * u), (u * w, u * same_base), (w, w)]:
            assert action_distance(x, y) == coord_oracle.action_distance(x, y)
        identity = identity_action(a_size, b_size)
        assert fixed_fraction(w) == 1 - coord_oracle.action_distance(w, identity)

    def test_fixed_case_against_expansion(self):
        swap01, cyc, cyc_inv = Permutation((1, 0, 2)), Permutation((1, 2, 0)), Permutation((2, 0, 1))
        # block 0 is touched at two coordinates, blocks 1 and 2 at one
        w = coord_action(3, 3, tau={0: {0: cyc, 1: swap01}, 1: {2: cyc}})
        v = coord_action(3, 3, tau={0: {0: cyc_inv}, 1: {2: cyc_inv}, 2: {1: swap01}})
        z = coord_action(3, 3, tau={0: {0: swap01, 1: swap01}})
        u = coord_action(3, 3, beta=Permutation((0, 2, 1)), tau={2: {0: cyc}})
        # cyc * cyc_inv cancels at [0][0] and empties block 1: both pruned
        assert (w * v).tau == {0: {1: swap01}, 2: {1: swap01}}
        # cyc against cyc_inv agrees nowhere, so blocks 0 and 1 contribute 0
        assert w.distance(v) == Fraction(8, 9)
        assert w.distance(z) == Fraction(5, 9)
        # |A| = 1: the lamp factor is trivial and only the base moves
        trivial = coord_action(1, 3, beta=Permutation((1, 0, 2)))
        assert trivial.distance(identity_action(1, 3)) == Fraction(2, 3)
        assert trivial * trivial == identity_action(1, 3)
        for family in [[w, v, z, u, w * v, identity_action(3, 3)], [trivial, identity_action(1, 3)]]:
            for x in family:
                for y in family:
                    explicit = hamming(expand_explicit(x), expand_explicit(y))
                    assert x.distance(y) == explicit == coord_oracle.action_distance(x, y)
                    assert expand_explicit(x * y) == expand_explicit(x) * expand_explicit(y)
                    assert x * y == coord_oracle.compose_actions(x, y)


# Entries for a tau on 3 blocks with |A| = 3: two distinct objects with equal
# images, a third valid one, an identity and one of the wrong degree.
entry_pool = [
    Permutation((1, 2, 0)),
    Permutation((1, 2, 0)),
    Permutation((0, 2, 1)),
    Permutation.identity(3),
    Permutation((1, 0)),
]
in_range, any_index = st.integers(min_value=0, max_value=2), st.integers(min_value=-1, max_value=3)
shared_entry_taus = st.one_of(
    st.dictionaries(in_range, st.dictionaries(in_range, st.sampled_from(entry_pool[:3]), min_size=1)),
    st.dictionaries(any_index, st.dictionaries(any_index, st.sampled_from(entry_pool), max_size=4), max_size=4),
)


class TestSharedEntries:
    """The per-call tables, the equal-block bulk count and shared block dicts,
    on entries drawn from a small pool of shared permutation objects."""

    @settings(max_examples=80)
    @given(pooled_actions())
    def test_pooled_kernels_match_references(self, actions):
        w, v, u = actions
        # compositions share block dicts with their operands and each other
        wu, vu, uw = w * u, v * u, u * w
        family = [w, v, u, wu, vu, uw, wu * v]
        for x in family:
            for y in family:
                assert action_distance(x, y) == coord_oracle.action_distance(x, y)
        for second, first in [(w, v), (v, w), (u, wu), (wu, vu), (uw, w), (w, coord_oracle.inverse_action(w))]:
            assert compose_actions(second, first) == coord_oracle.compose_actions(second, first)

    @settings(max_examples=60)
    @given(pooled_actions())
    def test_compose_leaves_operands_unchanged(self, actions):
        w, v, u = actions
        for second, first in [(w, v), (v, w), (w * v, u), (u, w * v), (w, w)]:
            before = copy.deepcopy((second.tau, first.tau))
            compose_actions(second, first)
            assert (second.tau, first.tau) == before

    @settings(max_examples=300)
    @given(shared_entry_taus)
    def test_entry_checks_match_full_loop(self, tau):
        """Same decision and message as checking every entry in full, with
        bad and identity entries repeated as the same object."""
        beta = Permutation((2, 0, 1))
        assert rejection(lambda t: CoordAction(3, 3, beta, t), tau) == rejection(
            lambda t: coord_oracle.check_coord_action(3, 3, beta, t), tau
        )


@st.composite
def action_families(draw) -> list[CoordAction]:
    """Canonical actions on one carrier, the identity among them: either
    random ones with |A| and |B| from 1 (so degree-1 lamps and bases, and
    actions with no lamp entries) or three from ``pooled_actions``, whose
    block dicts are shared."""
    if draw(st.booleans()):
        actions = draw(pooled_actions())
    else:
        a_size, b_size = draw(st.integers(min_value=1, max_value=3)), draw(st.integers(min_value=1, max_value=4))
        rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
        actions = [random_coord_action(a_size, b_size, rng) for _ in range(3)]
    w, v, u = actions
    return [w, v, u, identity_action(w.a_size, w.b_size), w * v, (w * v) * u]


class TestTrustedCompose:
    """``compose_actions`` builds its result without ``CoordAction``'s check;
    every result must pass that check, hold checked permutations, and equal
    the product that ``coord_oracle`` canonicalizes after the fact."""

    @settings(max_examples=150)
    @given(action_families())
    def test_results_pass_the_checked_constructors(self, family):
        for second in family:
            for first in family:
                w = compose_actions(second, first)
                assert CoordAction(w.a_size, w.b_size, w.beta, w.tau) == w
                assert w == coord_oracle.compose_actions(second, first)
                for p in [w.beta, *(p for entries in w.tau.values() for p in entries.values())]:
                    assert Permutation(p.image) == p


class TestPerformance:
    def test_large_sparse_carrier_under_a_second(self):
        rng = random.Random(5)
        tau_a = {b: {rng.randrange(1000): draw_permutation(50, rng) for _ in range(5)} for b in range(1000)}
        tau_b = {b: {rng.randrange(1000): draw_permutation(50, rng) for _ in range(5)} for b in range(1000)}
        w = coord_action(50, 1000, beta=draw_permutation(1000, rng), tau=tau_a)
        v = coord_action(50, 1000, beta=draw_permutation(1000, rng), tau=tau_b)
        start = time.perf_counter()
        composed = w * v
        d = w.distance(v)
        f = fixed_fraction(composed)
        elapsed = time.perf_counter() - start
        assert 0 <= d <= 1 and 0 <= f <= 1
        assert elapsed < 1.0
