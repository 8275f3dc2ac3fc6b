import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from soficwreath.jsonutil import all_ints, dump_indented, is_int, parse_fraction


def dumped(tree) -> str:
    pieces = []
    dump_indented(tree, pieces.append)
    return "".join(pieces)


# Text with non-ASCII, control characters, quotes, backslashes and lone surrogates.
text = st.text(
    st.one_of(
        st.characters(blacklist_categories=()),
        st.sampled_from('"\\\n\t\x00\x1f\x7fé \U0001f600'),
    ),
    max_size=6,
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(min_value=2**64, max_value=2**200),
    text,
)


class Shared:
    """Marks where the one shared object goes."""


def trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4) | st.dictionaries(text, children, max_size=4),
        max_leaves=24,
    )


def place(tree, shared):
    if isinstance(tree, Shared):
        return shared
    if isinstance(tree, list):
        return [place(x, shared) for x in tree]
    if isinstance(tree, dict):
        return {k: place(v, shared) for k, v in tree.items()}
    return tree


# The shared object is a list or dict (possibly empty, possibly a plain list of
# ints) that may itself hold one inner shared object several times; the outer
# tree names it any number of times at any depths.
@st.composite
def shared_trees(draw):
    inner = draw(st.lists(st.integers()) | trees(scalars).filter(lambda t: isinstance(t, (list, dict))))
    shared = place(draw(trees(scalars | st.builds(Shared))), inner)
    if not isinstance(shared, (list, dict)):
        shared = [shared]
    return place(draw(trees(scalars | st.builds(Shared))), shared)


class TestDumpIndented:
    @settings(max_examples=200)
    @given(shared_trees())
    def test_matches_stdlib(self, tree):
        assert dumped(tree) == json.dumps(tree, indent=1)

    @pytest.mark.parametrize(
        "layout",
        [
            lambda s: [s, s],  # same depth
            lambda s: {"a": s, "b": [s]},  # different depths
            lambda s: [s, [s], s, [[s]], s],  # three and more times, depths interleaved
            lambda s: [[s, s], s, [s, s]],  # the second meeting is not at the first depth
        ],
        ids=["same_depth", "two_depths", "many_times", "kept_then_other_depth"],
    )
    @pytest.mark.parametrize("shared", [{"left": [[0, 1]], "right": -3}, [1, 2], [], {}], ids=repr)
    def test_shared_nodes(self, layout, shared):
        tree = layout(shared)
        assert dumped(tree) == json.dumps(tree, indent=1)

    def test_dicts_of_one_size_keep_their_own_keys(self):
        # the heads are kept per key tuple: other keys, or the same keys in
        # another order, are encoded afresh
        tree = [{"num": 1, "den": 2}, {"pair": [0], "defect": {"num": 0, "den": 1}}, {"den": 3, "num": 4}, {"x": {}}]
        assert dumped(tree) == json.dumps(tree, indent=1)

    @pytest.mark.parametrize("scalar", [None, True, False, 0, -7, 2**64 + 1, "é\"\n", ""])
    def test_scalar_root(self, scalar):
        assert dumped(scalar) == json.dumps(scalar, indent=1)

    @pytest.mark.parametrize(
        "tree",
        [1.5, [0, 0.5], {"a": (1, 2)}, {1: "x"}, [{None: 1}], {"a": [{"b": float("nan")}]}, [{"a": 1}, {1: 2}]],
        ids=["float", "float_in_list", "tuple", "int_key", "none_key", "nested_nan", "int_key_after_str_key"],
    )
    def test_rejects_what_the_stdlib_would_convert(self, tree):
        with pytest.raises(TypeError):
            dumped(tree)


@given(st.lists(st.one_of(st.integers(), st.booleans(), st.none(), st.just(1.0), st.text(max_size=1))))
def test_all_ints_agrees_with_is_int(values):
    assert all_ints(values) == all(map(is_int, values))


LIMIT = sys.get_int_max_str_digits()


class TestParseFraction:
    """A run of more digits than ``int`` may read is refused before ``Fraction``
    builds ten to its length, with a message that names the value by its two
    ends, as ``reprlib.repr`` cuts a long string."""

    @pytest.mark.parametrize(
        "value",
        [
            "0." + "0" * 1_000_000 + "1",
            "1e" + "9" * (LIMIT + 1),
            "1e-" + "1_1" * (LIMIT // 2 + 1),
            "1/" + "3" * (LIMIT + 1),
            "7" * (LIMIT + 1) + ".5",
        ],
        ids=["fraction_part", "exponent", "exponent_with_underscores", "denominator", "integer_part"],
    )
    def test_a_run_over_the_digit_limit_is_refused(self, value):
        with pytest.raises(ValueError) as raised:
            parse_fraction(value)
        assert str(raised.value) == f"'{value[:12]}...{value[-13:]}' has a run of more than {LIMIT} digits"

    def test_runs_at_the_limit_are_read(self):
        assert parse_fraction("0." + "0" * (LIMIT - 1) + "1") == Fraction(1, 10**LIMIT)
        assert parse_fraction("1/" + "1" * LIMIT) == Fraction(1, int("1" * LIMIT))
        with pytest.raises(ValueError, match=f"exceeds {LIMIT} in magnitude"):
            parse_fraction("1e" + "9" * LIMIT)  # a readable exponent, still too large

    @pytest.mark.parametrize(
        "value, expected",
        [("1/10", Fraction(1, 10)), ("0.125", Fraction(1, 8)), ("1e-3", Fraction(1, 1000)), ("12_5", Fraction(125))],
    )
    def test_short_numerals(self, value, expected):
        assert parse_fraction(value) == expected

    def test_an_int_is_read_as_itself(self):
        assert parse_fraction(3) == 3
        assert type(parse_fraction(-7)) is Fraction

    @pytest.mark.parametrize("value", [True, False])
    def test_a_boolean_is_refused(self, value):
        # bool is an int subclass: without its own check True would read as 1
        with pytest.raises(ValueError, match=f"^not a rational: {value}$"):
            parse_fraction(value)
