import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import soficwreath as sw
from coord_oracle import check_bijection
from helpers import rejection
from sofic_oracle import inverse_image, product_distance, product_image
from soficwreath.perm import (
    Permutation,
    agreement_count,
    agreement_fraction,
    compose,
    draw_permutation,
    gather,
    hamming,
    invert,
    points,
    random_permutation,
    transposition,
)


def perm(*image):
    return Permutation(tuple(image))


perms = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.permutations(range(n)).map(lambda img: Permutation(tuple(img)))
)


# Images that mix valid ints with bools, negatives, duplicates, out-of-range
# ints, floats and None, plus valid permutations with 0 and 1 spelled as bools.
entries = st.one_of(st.integers(min_value=-2, max_value=9), st.booleans(), st.just(1.0), st.none())
images = st.one_of(
    st.lists(entries, max_size=8).map(tuple),
    st.integers(min_value=1, max_value=8).flatmap(lambda n: st.permutations(range(n))).map(tuple),
    st.integers(min_value=1, max_value=8)
    .flatmap(lambda n: st.permutations(range(n)))
    .map(lambda img: tuple(x == 1 if x < 2 else x for x in img)),
)


def same_degree_perms(count):
    return st.integers(min_value=1, max_value=8).flatmap(
        lambda n: st.tuples(
            *[st.permutations(range(n)).map(lambda img: Permutation(tuple(img)))] * count
        )
    )


class TestCompose:
    def test_identity_neutral(self):
        assert compose(Permutation.identity(3), perm(1, 0, 2)) == perm(1, 0, 2)

    def test_three_cycle_squared(self):
        assert compose(perm(1, 2, 0), perm(1, 2, 0)) == perm(2, 0, 1)

    def test_involution_squared(self):
        assert compose(perm(1, 0, 2), perm(1, 0, 2)) == Permutation.identity(3)

    def test_right_factor_first(self):
        s, t = perm(1, 2, 0), perm(0, 2, 1)
        assert all((s * t)(i) == s(t(i)) for i in range(3))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="carrier mismatch"):
            compose(perm(0, 1), perm(0, 1, 2))

    @given(same_degree_perms(3))
    def test_associative(self, triple):
        s, t, u = triple
        assert (s * t) * u == s * (t * u)

    @given(perms)
    def test_inverse_law(self, s):
        assert s.inverse() * s == Permutation.identity(s.degree)


class TestTrustedResults:
    """``compose`` and ``inverse`` build their results without the bijection
    check, so the check runs here: each result must pass ``Permutation``, be
    the product or inverse point by point, and equal and hash like the checked
    value with its image."""

    @given(same_degree_perms(2))
    def test_products_and_inverses_pass_the_check(self, pair):
        s, t = pair
        built = [
            (product_image(s, t), s * t),
            (product_image(t, s), compose(t, s)),
            (inverse_image(s), s.inverse()),
            (inverse_image(Permutation(product_image(s, t))), (s * t).inverse()),
        ]
        for image, p in built:
            checked = Permutation(p.image)
            assert type(p.image) is tuple and p.image == image
            assert p == checked and hash(p) == hash(checked) and repr(p) == repr(checked)


class TestHamming:
    def test_identical(self):
        assert hamming(perm(2, 0, 1), perm(2, 0, 1)) == 0

    def test_transposition_vs_identity(self):
        assert hamming(perm(1, 0, 2), Permutation.identity(3)) == Fraction(2, 3)

    def test_inverse_three_cycles(self):
        assert hamming(perm(1, 2, 0), perm(2, 0, 1)) == 1

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="carrier mismatch"):
            hamming(perm(0, 1), perm(0, 1, 2))

    @given(same_degree_perms(2))
    def test_metric_basics(self, pair):
        s, t = pair
        d = hamming(s, t)
        assert 0 <= d <= 1
        assert (d == 0) == (s == t)
        assert d == hamming(t, s)

    @given(same_degree_perms(3))
    def test_triangle(self, triple):
        s, t, u = triple
        assert hamming(s, u) <= hamming(s, t) + hamming(t, u)

    @given(same_degree_perms(3))
    def test_bi_invariance(self, triple):
        s, t, u = triple
        assert hamming(u * s, u * t) == hamming(s, t) == hamming(s * u, t * u)

    def test_product_factor_order(self):
        s, t = perm(1, 0, 2), perm(0, 2, 1)
        assert s * t != t * s
        assert hamming(s * t, s * t) == 0
        assert hamming(t * s, s * t) == 1

    @given(perms)
    def test_identity_distance_counts_fixed_points(self, s):
        assert hamming(s, Permutation.identity(s.degree)) == 1 - Fraction(
            s.fixed_points(), s.degree
        )


@st.composite
def product_triples(draw):
    """(s, t, u) of one degree, 1 to 8, where u is s * t exactly, s * t with
    two points swapped, t * s, or any permutation, so the distance is often
    above 0."""
    s, t, other = draw(same_degree_perms(3))
    exact = Permutation(product_image(s, t))
    kind = draw(st.sampled_from(["exact", "swapped", "reversed", "random"]))
    if kind == "swapped" and s.degree >= 2:
        i, j = draw(st.lists(st.integers(min_value=0, max_value=s.degree - 1), min_size=2, max_size=2, unique=True))
        return s, t, transposition(s.degree, i, j) * exact
    return s, t, {"reversed": Permutation(product_image(t, s)), "random": other}.get(kind, exact)


@st.composite
def fresh_images(draw):
    """Two images of one degree, 1, 2 or 257 to 600, whose entries are fresh
    int objects, as JSON decoding makes them above 256."""
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(min_value=257, max_value=600)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    images = []
    for _ in range(2):
        image = [int(str(x)) for x in range(n)]
        rng.shuffle(image)
        images.append(tuple(image))
    return tuple(images)


class TestGatherKernels:
    """The word-form kernels ``gather`` and ``invert``, ``compose`` built on
    ``gather``, and the distance of a product, exact or not, are checked here
    against point-by-point products and inverses."""

    @given(same_degree_perms(2))
    def test_compose_matches_pointwise(self, pair):
        s, t = pair
        assert compose(s, t).image == product_image(s, t)

    @settings(max_examples=200)
    @given(product_triples())
    def test_product_distance_matches_pointwise(self, triple):
        s, t, u = triple
        image = product_image(s, t)
        assert hamming(s * t, u) == Fraction(sum(1 for i in range(u.degree) if image[i] != u.image[i]), u.degree)

    @settings(max_examples=20, deadline=None)
    @given(fresh_images())
    @example(((0,), (0,)))
    @example(((1, 0), (1, 0)))
    def test_gather_and_invert_match_the_references(self, pair):
        a, b = pair
        s, t = SimpleNamespace(image=a), SimpleNamespace(image=b)
        assert gather(a, b) == product_image(s, t) and gather(b, a) == product_image(t, s)
        inverse = invert(a)
        assert type(inverse) is tuple and inverse == inverse_image(s)
        assert all(x is points(len(a))[x] for x in inverse)

    def test_inexact_product_is_counted(self):
        s, t = perm(1, 2, 0, 3), perm(0, 1, 3, 2)
        assert hamming(s * t, s * t) == 0
        assert hamming(s * t, transposition(4, 0, 3) * (s * t)) == Fraction(1, 2)
        assert hamming(s * t, t * s) == Fraction(3, 4)

    def test_degree_one(self):
        one = Permutation.identity(1)
        assert compose(one, one) == one
        assert hamming(one * one, one) == 0
        with pytest.raises(ValueError, match="carrier mismatch"):
            compose(one, perm(1, 0))


class TestInverse:
    @given(perms)
    def test_kept_inverse_equals_a_fresh_one(self, s):
        kept = s.inverse()
        assert s.inverse() is kept
        fresh = Permutation(s.image).inverse()
        assert fresh is not kept and fresh == kept
        assert kept.image == inverse_image(s)
        assert s * kept == Permutation.identity(s.degree)

    def test_kept_inverse_changes_no_field(self):
        s = perm(2, 0, 1)
        before = (repr(s), hash(s), s.to_json())
        s.inverse()
        assert (repr(s), hash(s), s.to_json()) == before
        assert s == perm(2, 0, 1)


class TestAgreement:
    def test_identical(self):
        assert agreement_fraction(perm(1, 2, 0), perm(1, 2, 0)) == 1

    def test_transposition(self):
        assert agreement_fraction(perm(1, 0, 2), Permutation.identity(3)) == Fraction(1, 3)

    def test_free_cycle(self):
        assert agreement_fraction(perm(1, 2, 0), Permutation.identity(3)) == 0

    @given(same_degree_perms(2))
    def test_complements_hamming(self, pair):
        s, t = pair
        assert agreement_fraction(s, t) + hamming(s, t) == 1

    @given(same_degree_perms(2))
    def test_count_matches_pointwise_loop(self, pair):
        s, t = pair
        count = sum(1 for i in range(s.degree) if s(i) == t(i))
        assert agreement_count(s, t) == count
        assert agreement_fraction(s, t) == Fraction(count, s.degree)

    def test_count_degree_mismatch(self):
        with pytest.raises(ValueError, match="carrier mismatch"):
            agreement_count(perm(0, 1), perm(0, 1, 2))


class TestRandomPermutation:
    def test_degree_one(self):
        assert random_permutation(1, 7) == Permutation.identity(1)

    def test_deterministic(self):
        assert random_permutation(5, 42) == random_permutation(5, 42)

    def test_seed_changes_output(self):
        draws_a = {random_permutation(5, 42 + i) for i in range(8)}
        assert len(draws_a) > 1

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            random_permutation(0, 1)

    def test_uniform_chi_square(self):
        # 10^4 draws of degree 3 against uniform on the 6 permutations;
        # threshold is the 0.999 quantile of chi^2 with 5 degrees of freedom.
        rng = random.Random(1234)
        counts = {}
        for _ in range(10_000):
            image = draw_permutation(3, rng).image
            counts[image] = counts.get(image, 0) + 1
        assert len(counts) == 6
        expected = 10_000 / 6
        chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
        assert chi2 < 20.515


class TestValidationAndJson:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            perm(0, 0, 1)
        with pytest.raises(ValueError):
            perm(0, 2)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Permutation(())

    def test_image_cannot_be_assigned_or_deleted(self):
        s = perm(1, 2, 0)
        with pytest.raises(AttributeError, match="cannot assign to field 'image'"):
            s.image = (0, 1, 2)
        with pytest.raises(AttributeError, match="cannot delete field 'image'"):
            del s.image
        assert s.image == (1, 2, 0) and s.inverse().image == (2, 0, 1)

    def test_bool_entries_count_as_ints(self):
        p = Permutation((True, False))
        assert p.degree == 2 and p.image == (1, 0) and all(type(x) is int for x in p.image)
        assert p.to_json() == {"degree": 2, "image": [1, 0]} and Permutation.from_json(p.to_json()) == p
        with pytest.raises(ValueError, match="not a bijection"):
            Permutation((1, True))

    @settings(max_examples=300)
    @given(images)
    @example((0, -1))  # a negative index wraps to the missing point
    @example((-2, 1, 0))
    def test_bijection_check_matches_seen_loop(self, image):
        assert rejection(Permutation, image) == rejection(check_bijection, image)

    @given(images)
    def test_every_accepted_image_round_trips_through_json(self, image):
        if rejection(check_bijection, image) is None:
            p = Permutation(image)
            assert Permutation.from_json(json.loads(json.dumps(p.to_json()))) == p

    @given(perms)
    def test_round_trip(self, s):
        assert Permutation.from_json(s.to_json()) == s

    def test_json_shape(self):
        assert perm(1, 0).to_json() == {"degree": 2, "image": [1, 0]}

    @pytest.mark.parametrize(
        "data",
        [{"degree": 2, "image": [True, False]}, {"degree": True, "image": [0]}, {"degree": 1.0, "image": [0]}],
        ids=["bool_image", "bool_degree", "float_degree"],
    )
    def test_json_entries_must_be_integers(self, data):
        with pytest.raises(ValueError, match="must be JSON integers"):
            Permutation.from_json(data)

    def test_json_degree_mismatch(self):
        with pytest.raises(ValueError):
            Permutation.from_json({"degree": 3, "image": [1, 0]})

    def test_transposition_moves_two_points(self):
        t = transposition(5, 1, 3)
        assert hamming(t, Permutation.identity(5)) == Fraction(2, 5)

    def test_transposition_refuses_points_outside_the_carrier_or_equal(self):
        for i, j in ((1, 1), (0, 5), (5, 0), (-1, 2)):
            with pytest.raises(ValueError, match=rf"bad transposition \({i} {j}\) on 5 points"):
                transposition(5, i, j)


@st.composite
def wide_images(draw):
    """A valid image of degree 257 to 600, above CPython's shared small ints,
    whose entries are fresh int objects as JSON decoding makes them, and a copy
    with one entry made negative (so that it would wrap to the point it names),
    repeated, out of range, a bool or a float, or left as it is."""
    n = draw(st.integers(min_value=257, max_value=600))
    image = [int(str(x)) for x in range(n)]
    random.Random(draw(st.integers(min_value=0, max_value=2**32))).shuffle(image)
    i = draw(st.integers(min_value=0, max_value=n - 1))
    kind = draw(st.sampled_from(["negative", "repeated", "too large", "bool", "float", "unchanged"]))
    edited = list(image)
    edited[i] = {
        "negative": image[i] - n,
        "repeated": image[i - 1],
        "too large": n,
        "bool": image[i] == 1,
        "float": float(image[i]),
        "unchanged": image[i],
    }[kind]
    return tuple(image), tuple(edited)


def shares_points(p: Permutation) -> bool:
    """Every entry of p's image is the int object of ``points(p.degree)``."""
    pts = points(p.degree)
    return all(x is pts[x] for x in p.image)


class TestSharedPoints:
    """Every permutation of degree n holds the int objects of ``points(n)``,
    whichever constructor or kernel made it; checked above 256 points, where
    equal ints are distinct objects unless the library shares them."""

    @settings(max_examples=20, deadline=None)
    @given(wide_images(), st.integers(min_value=0, max_value=2**32))
    @example((tuple(range(257)), (*range(256), -1)), 0)  # -1 would wrap to the missing point 256
    def test_every_constructor_shares_points(self, images, seed):
        image, edited = images
        assert rejection(Permutation, edited) == rejection(check_bijection, edited)
        n, rng = len(image), random.Random(seed)
        s = Permutation(image)
        t = Permutation.from_json(json.loads(json.dumps(draw_permutation(n, rng).to_json())))
        identity = Permutation.identity(n)
        assert s.image == image and identity.image == tuple(range(n))
        assert compose(s, t).image == product_image(s, t) and s.inverse().image == inverse_image(s)
        assert hamming(s, t) == product_distance(identity, s, t)
        assert agreement_count(s, t) == n - product_distance(identity, s, t) * n
        group = sw.free(2)
        built = [
            s, t, identity, s * t, t.inverse(), (s * t).inverse(),
            transposition(n, 0, n - 1), draw_permutation(n, rng),
            *sw.cyclic_quotient(n, range(-2, 3)).rule.values(),
            *sw.quotient_by_images(group, [s, t], group.ball(2)).rule.values(),
        ]
        assert all(map(shares_points, built))

    def test_regular_rep_shares_points(self):
        approx = sw.regular_rep(sw.cyclic(300))
        assert all(map(shares_points, approx.rule.values()))
