from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import soficwreath as sw
from soficwreath import construct
import group_oracle
from group_oracle import wreath_mul
from helpers import projections
from soficwreath.groups import group_from_descriptor
from soficwreath.perm import Permutation


KLEIN = [
    [0, 1, 2, 3],
    [1, 0, 3, 2],
    [2, 3, 0, 1],
    [3, 2, 1, 0],
]


def sample(group, rng, size=40):
    """Deterministic grab-bag of elements for axiom checks."""
    if isinstance(group, sw.Group) and type(group).__name__ == "IntegerGroup":
        return [rng.randint(-50, 50) for _ in range(size)]
    if isinstance(group, sw.groups.FreeGroup):
        out = []
        for _ in range(size):
            word = group.identity()
            for _ in range(rng.randint(0, 6)):
                letter = rng.choice([1, 2, -1, -2][: 2 * group.rank])
                word = group.mul(word, (letter,))
            out.append(word)
        return out
    els = list(group.elements())
    return [rng.choice(els) for _ in range(size)]


@pytest.mark.parametrize(
    "group",
    [
        sw.cyclic(1),
        sw.cyclic(6),
        sw.symmetric(3),
        sw.integers(),
        sw.free(2),
        sw.finite_from_table(KLEIN),
    ],
    ids=["cyclic1", "cyclic6", "sym3", "integers", "free2", "klein"],
)
def test_group_axioms(group, rng):
    els = sample(group, rng)
    e = group.identity()
    for a, b, c in zip(els, els[1:], els[2:]):
        assert group.mul(group.mul(a, b), c) == group.mul(a, group.mul(b, c))
        assert group.mul(a, e) == a == group.mul(e, a)
        assert group.mul(a, group.inv(a)) == e == group.mul(group.inv(a), a)


def test_ordering_keys_injective(rng):
    for group in [sw.cyclic(6), sw.symmetric(3), sw.integers(), sw.free(2)]:
        els = set(sample(group, rng))
        assert len({group.key(a) for a in els}) == len(els)


class TestConcreteGroups:
    def test_cyclic_trivial(self):
        assert list(sw.cyclic(1).elements()) == [0]

    def test_cyclic_six(self):
        group = sw.cyclic(6)
        assert group.mul(2, 3) == 5
        assert group.mul(3, 3) == 0

    def test_symmetric_order(self):
        assert len(list(sw.symmetric(3).elements())) == 6

    def test_symmetric_on_one_point_is_the_trivial_group(self):
        group = sw.symmetric(1)
        assert list(group.elements()) == [(0,)] == [group.identity()]

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_symmetric_composes_and_inverts_as_permutations(self, k):
        group = sw.symmetric(k)
        elements = [Permutation(a) for a in group.elements()]
        assert group.identity() == Permutation.identity(k).image
        for s in elements:
            assert group.inv(s.image) == s.inverse().image
            for t in elements:
                assert group.mul(s.image, t.image) == (s * t).image

    def test_free_reduction(self):
        group = sw.free(2)
        a, b = (1,), (2,)
        assert group.mul(group.mul(a, group.inv(a)), b) == b
        assert group.mul((1, 2), (-2, -1)) == ()

    def test_free_ball_sizes(self):
        group = sw.free(2)
        assert len(group.ball(0)) == 1
        assert len(group.ball(1)) == 5
        assert len(group.ball(2)) == 17

    def test_free_key_orders_by_length_then_lex(self):
        group = sw.free(1)
        assert group.sort([(1, 1), (), (1,), (-1,)]) == ((), (-1,), (1,), (1, 1))

    def test_table_group_klein(self):
        group = sw.finite_from_table(KLEIN)
        assert group.identity() == 0
        assert group.mul(1, 2) == 3
        assert all(group.inv(x) == x for x in range(4))

    def test_table_rejects_non_bijective_row(self):
        with pytest.raises(ValueError, match="row"):
            sw.finite_from_table([[0, 0], [1, 1]])

    def test_table_rejects_non_bijective_column(self):
        # rows are permutations but column 0 repeats
        with pytest.raises(ValueError, match="not a bijection"):
            sw.finite_from_table([[0, 1, 2], [0, 2, 1], [1, 0, 2]])

    def test_table_rejects_missing_identity(self):
        # latin square of (a, b) -> b - a mod 3: no two-sided identity
        with pytest.raises(ValueError, match="identity"):
            sw.finite_from_table([[0, 1, 2], [2, 0, 1], [1, 2, 0]])

    def test_groups_of_different_kinds_never_compare_equal(self):
        lamp, base = sw.cyclic(2), sw.integers()
        assert sw.cyclic(2) != sw.symmetric(2) and sw.cyclic(2) != 2
        assert sw.groups.DirectSum(lamp, base) != sw.wreath_product(lamp, base)
        assert sw.cyclic(2) == sw.cyclic(2) and len({sw.cyclic(2), sw.symmetric(2)}) == 2

    def test_constructor_validation(self):
        for bad in (lambda: sw.cyclic(0), lambda: sw.symmetric(0), lambda: sw.free(0)):
            with pytest.raises(ValueError):
                bad()

    @pytest.mark.parametrize(
        "cls, arg, message",
        [
            (sw.groups.CyclicGroup, 0, "cyclic group order must be >= 1"),
            (sw.groups.CyclicGroup, -3, "cyclic group order must be >= 1"),
            (sw.groups.SymmetricGroup, 0, "symmetric group degree must be >= 1"),
            (sw.groups.FreeGroup, 0, "free group rank must be >= 1"),
        ],
        ids=["cyclic0", "cyclic-3", "symmetric0", "free0"],
    )
    def test_built_directly_the_class_checks_its_argument(self, cls, arg, message):
        with pytest.raises(ValueError, match=message):
            cls(arg)


class TestFinSuppMaps:
    def setup_method(self):
        self.sums = sw.DirectSum(sw.cyclic(2), sw.integers())

    def test_identity_values_dropped(self):
        assert self.sums.make({0: 1, 5: 0}) == self.sums.make({0: 1})

    def test_entries_sorted_by_index_key(self):
        f = self.sums.make({3: 1, -2: 1, 0: 1})
        assert f.support() == (-2, 0, 3)

    def test_duplicate_index_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            self.sums.make([(0, 1), (0, 1)])

    def test_pointwise_mul_and_inverse(self, rng):
        for _ in range(30):
            f = self.sums.make({rng.randint(-3, 3): 1 for _ in range(rng.randint(0, 4))})
            g = self.sums.make({rng.randint(-3, 3): 1 for _ in range(rng.randint(0, 4))})
            fg = self.sums.mul(f, g)
            assert set(fg.support()) <= set(f.support()) | set(g.support())
            assert self.sums.mul(f, self.sums.inv(f)) == self.sums.identity()

    def test_shift_by_identity(self):
        f = self.sums.make({0: 1, 2: 1})
        assert self.sums.shift(0, f) == f

    def test_shift_moves_delta(self):
        assert self.sums.shift(1, self.sums.make({0: 1})) == self.sums.make({1: 1})

    def test_shift_cyclic_example(self):
        sums = sw.DirectSum(sw.symmetric(3), sw.cyclic(3))
        a, b = (1, 0, 2), (1, 2, 0)
        f = sums.make({0: a, 1: b})
        assert sums.shift(2, f) == sums.make({2: a, 0: b})

    def test_shift_is_action_by_automorphisms(self, rng):
        sums = sw.DirectSum(sw.cyclic(3), sw.cyclic(4))
        for _ in range(30):
            f = sums.make({rng.randrange(4): rng.randrange(3) for _ in range(rng.randint(0, 3))})
            g = sums.make({rng.randrange(4): rng.randrange(3) for _ in range(rng.randint(0, 3))})
            h, k = rng.randrange(4), rng.randrange(4)
            assert sums.shift(h, sums.mul(f, g)) == sums.mul(sums.shift(h, f), sums.shift(h, g))
            assert sums.shift(sums.index.mul(h, k), f) == sums.shift(h, sums.shift(k, f))
            assert set(sums.shift(h, f).support()) == {
                sums.index.mul(h, x) for x in f.support()
            }


class TestWreathProduct:
    def setup_method(self):
        self.wreath = sw.wreath_product(sw.cyclic(2), sw.integers())

    def test_identity_neutral(self):
        u = self.wreath.element({0: 1, 3: 1}, -2)
        assert self.wreath.mul(u, self.wreath.identity()) == u

    def test_lamplighter_product(self):
        u = self.wreath.element({0: 1}, 1)
        v = self.wreath.element({0: 1}, -1)
        assert self.wreath.mul(u, v) == self.wreath.element({0: 1, 1: 1}, 0)

    def test_inverse_law(self, rng):
        for _ in range(30):
            u = self.wreath.element(
                {rng.randint(-3, 3): 1 for _ in range(rng.randint(0, 3))}, rng.randint(-3, 3)
            )
            assert self.wreath.mul(u, self.wreath.inv(u)) == self.wreath.identity()

    def test_associativity(self, rng):
        els = [
            self.wreath.element(
                {rng.randint(-2, 2): 1 for _ in range(rng.randint(0, 2))}, rng.randint(-2, 2)
            )
            for _ in range(30)
        ]
        for u, v, t in zip(els, els[1:], els[2:]):
            assert self.wreath.mul(self.wreath.mul(u, v), t) == self.wreath.mul(
                u, self.wreath.mul(v, t)
            )

    def test_projections_definition(self):
        f = self.wreath.lamps.make({0: 1})
        u = self.wreath.element(f, 4)
        assert projections(u) == (f, 4)
        assert projections(self.wreath.identity()) == (
            self.wreath.lamps.identity(),
            0,
        )

    def test_base_projection_is_homomorphism(self, rng):
        for _ in range(30):
            u = self.wreath.element({rng.randint(-2, 2): 1}, rng.randint(-3, 3))
            v = self.wreath.element({rng.randint(-2, 2): 1}, rng.randint(-3, 3))
            assert self.wreath.mul(u, v).right == u.right + v.right

    def test_lamp_projection_is_not_homomorphism(self):
        # moving then lighting shifts the lamp: projections multiply only
        # after the twist, so the straight product of projections differs.
        u = self.wreath.element({}, 1)
        v = self.wreath.element({0: 1}, 0)
        product = self.wreath.mul(u, v)
        assert product.left == self.wreath.lamps.make({1: 1})
        assert product.left != self.wreath.lamps.mul(u.left, v.left)

    def test_enumeration_count(self):
        finite = sw.wreath_product(sw.cyclic(2), sw.cyclic(3))
        els = list(finite.elements())
        assert len(els) == 24
        assert len(set(els)) == 24

    @settings(max_examples=200)
    @given(st.data())
    def test_mul_matches_shift_then_multiply(self, data):
        """Integer, free, symmetric and table groups on either side; small
        element pools make shifted supports overlap and values cancel."""
        lamp, base = (data.draw(st.sampled_from(MUL_GROUPS)) for _ in range(2))
        wreath = sw.wreath_product(lamp, base)

        def element():
            mapping = data.draw(st.dictionaries(elements(base), elements(lamp), max_size=4))
            return wreath.element(mapping, data.draw(elements(base)))

        a, b = element(), element()
        product = wreath.mul(a, b)
        assert product == wreath_mul(wreath, a, b)
        assert product.left == wreath.lamps.make(product.left.entries)


S3 = sw.symmetric(3)
S3_ELEMENTS = S3.sort(S3.elements())
S3_TABLE = sw.finite_from_table(  # S3 again, as a Cayley table on indices
    [[S3_ELEMENTS.index(S3.mul(g, h)) for h in S3_ELEMENTS] for g in S3_ELEMENTS]
)
MUL_GROUPS = [sw.integers(), sw.free(2), S3, S3_TABLE, sw.finite_from_table(KLEIN)]


def elements(group):
    if isinstance(group, sw.groups.IntegerGroup):
        return st.integers(min_value=-3, max_value=3)
    if isinstance(group, sw.groups.FreeGroup):
        letters = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=3)
        return letters.map(lambda word: group.mul((), tuple(word)))
    return st.sampled_from(list(group.elements()))


@settings(max_examples=200)
@given(st.data())
def test_lamp_products_match_pointwise_reference(data):
    """Non-abelian lamps over cyclic, integer, free and table index groups:
    ``mul``, ``shift``, ``inv`` and the wreath product, which all run the one
    ``mul_shift`` kernel, against the pointwise reference."""
    index = data.draw(st.sampled_from([sw.cyclic(4), sw.integers(), sw.free(2), S3_TABLE]))
    wreath = sw.wreath_product(S3, index)
    lamps = wreath.lamps

    def config():
        return lamps.make(data.draw(st.dictionaries(elements(index), elements(S3), max_size=4)))

    f, g = config(), config()
    h, k = data.draw(elements(index)), data.draw(elements(index))
    assert lamps.mul(f, g) == group_oracle.mul_shift(lamps, f, index.identity(), g)
    assert lamps.shift(h, g) == group_oracle.mul_shift(lamps, lamps.identity(), h, g)
    assert lamps.mul_shift(f, h, g) == group_oracle.mul_shift(lamps, f, h, g)
    assert lamps.inv(f) == group_oracle.inv(lamps, f)
    assert lamps.mul(f, lamps.inv(f)) == lamps.identity()
    a, b = wreath.element(f, h), wreath.element(g, k)
    assert wreath.mul(a, b) == group_oracle.wreath_mul(wreath, a, b)


class TestElementValues:
    """``FinSuppMap`` and ``WreathElement`` are ``NamedTuple`` records: equal
    values built any way hash alike, print as before and cannot be changed."""

    def setup_method(self):
        self.wreath = sw.wreath_product(sw.cyclic(2), sw.cyclic(3))
        self.u = self.wreath.element({1: 1}, 2)

    def copies(self):
        wreath, u = self.wreath, self.u
        return [
            wreath.decode(wreath.encode(u)),
            wreath.mul(wreath.element({1: 1}, 0), wreath.element({}, 2)),
            wreath.inv(wreath.inv(u)),
            wreath.element(wreath.lamps.make({1: 1}), 2),
        ]

    def test_equal_elements_hash_alike(self):
        for copy in self.copies():
            assert copy == self.u and hash(copy) == hash(self.u)
            assert copy.left == self.u.left and hash(copy.left) == hash(self.u.left)
        assert len({self.u, *self.copies()}) == 1

    def test_equal_elements_share_one_rule_value(self, monkeypatch):
        approx = sw.build(sw.regular_rep(sw.cyclic(2)), sw.regular_rep(sw.cyclic(3)), [self.u], Fraction(1, 2))
        built, calls = construct.lamp_action, []

        def counted(*args):
            calls.append(args)
            return built(*args)

        monkeypatch.setattr(construct, "lamp_action", counted)
        value = approx.rule(self.u)
        assert all(approx.rule(copy) is value for copy in self.copies())
        assert len(calls) == 1

    def test_repr_names_the_fields(self):
        assert repr(self.u) == "WreathElement(left=FinSuppMap(entries=((1, 1),)), right=2)"
        assert repr(self.wreath.identity()) == "WreathElement(left=FinSuppMap(entries=()), right=0)"

    def test_fields_cannot_be_assigned(self):
        for record, field in [(self.u, "left"), (self.u, "right"), (self.u.left, "entries")]:
            with pytest.raises(AttributeError):
                setattr(record, field, ())
        assert self.u == self.wreath.element({1: 1}, 2)


class TestSerialization:
    @pytest.mark.parametrize(
        "group",
        [sw.cyclic(6), sw.symmetric(3), sw.integers(), sw.free(2), sw.finite_from_table(KLEIN)],
        ids=["cyclic6", "sym3", "integers", "free2", "klein"],
    )
    def test_descriptor_round_trip(self, group):
        assert group_from_descriptor(group.descriptor()) == group

    def test_wreath_descriptor_round_trip(self):
        wreath = sw.wreath_product(sw.cyclic(2), sw.integers())
        assert group_from_descriptor(wreath.descriptor()) == wreath

    def test_element_round_trip(self, rng):
        wreath = sw.wreath_product(sw.free(2), sw.cyclic(3))
        u = wreath.element({0: (1, 2), 2: (-2,)}, 1)
        data = wreath.encode(u)
        assert data == {"left": [[0, [1, 2]], [2, [-2]]], "right": 1}
        assert wreath.decode(data) == u

    def test_decode_rejects_unreduced_word(self):
        with pytest.raises(ValueError, match="reduced"):
            sw.free(2).decode([1, -1])

    def test_decode_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sw.cyclic(3).decode(5)

    @pytest.mark.parametrize(
        "group, valid, with_bool",
        [
            (sw.cyclic(3), 1, True),
            (sw.symmetric(2), [1, 0], [True, False]),
            (sw.integers(), 1, True),
            (sw.free(1), [1], [True]),
            (sw.finite_from_table(KLEIN), 0, False),
        ],
        ids=["cyclic3", "sym2", "integers", "free1", "klein"],
    )
    def test_decode_rejects_booleans(self, group, valid, with_bool):
        assert group.encode(group.decode(valid)) == valid
        with pytest.raises(ValueError):
            group.decode(with_bool)

    def test_unknown_descriptor(self):
        with pytest.raises(ValueError):
            group_from_descriptor({"kind": "nope"})
