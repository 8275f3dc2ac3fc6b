"""``record`` against its reference: every record class in ``src/`` behaves
as its frozen dataclass twin of ``record_oracle`` does.

Each class gets two different instances from the library itself; each
check compares what the record does with what its twin does on the same
field values: ``repr``, ``hash`` (or the error of hashing a dict field),
``==`` and ``!=`` within and across classes, the error of assigning or
deleting an attribute, and the ``TypeError`` of each bad constructor call.
"""
import dataclasses
import itertools
from fractions import Fraction

import pytest

import soficwreath as sw
from record_oracle import twin, twin_of
from soficwreath import bigperm, construct, groups, perm, sofic, verify
from soficwreath._record import FrozenError, private, record


def record_classes():
    for module in (perm, groups, bigperm, sofic, construct, verify):
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__ and "__match_args__" in vars(value):
                if not issubclass(value, tuple):  # the NamedTuple elements of groups
                    yield value


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the type and text of what it raises;
    ``FrozenError`` and the dataclass ``FrozenInstanceError`` both count as
    the ``AttributeError`` they subclass."""
    try:
        return "returns", fn(*args)
    except (FrozenError, dataclasses.FrozenInstanceError) as e:
        return "raises", AttributeError, str(e)
    except Exception as e:  # noqa: BLE001 - the error is the outcome
        return "raises", type(e), str(e)


@pytest.fixture(scope="module")
def samples():
    """Two different instances of every record class."""
    wreath = sw.wreath_product(sw.cyclic(2), sw.cyclic(3))
    sigma_A, sigma_B = sw.regular_rep(sw.cyclic(2)), sw.regular_rep(sw.cyclic(3))
    u, v = wreath.element({1: 1}, 2), wreath.element({0: 1}, 0)
    one, two = (sw.build(sigma_A, sigma_B, targets, Fraction(1, 2)) for targets in ([u], [u, v]))
    first, second = sw.verify_construction(one), sw.verify_construction(two)
    pairs = [
        (sw.Permutation((1, 0, 2)), sw.Permutation((0, 1, 2))),
        (sw.cyclic(2), sw.cyclic(3)),
        (sw.symmetric(2), sw.symmetric(3)),
        (sw.integers(), sw.integers()),
        (sw.free(1), sw.free(2)),
        (sw.finite_from_table([[0, 1], [1, 0]]), sw.finite_from_table([[0]])),
        (sw.DirectSum(sw.cyclic(2), sw.integers()), sw.DirectSum(sw.cyclic(2), sw.cyclic(3))),
        (wreath, sw.wreath_product(sw.integers(), sw.cyclic(3))),
        (one.rule(u), one.rule(v)),
        (sigma_A, sigma_B),
        (sw.is_sofic_approx(sigma_B, [0, 1], Fraction(1, 2)), sw.is_sofic_approx(sigma_B, [0, 2], Fraction(1, 2))),
        (one.windows, two.windows),
        (one.budget, sw.make_budget(1, 3)),
        (one.block, sw.compute_good_blocks(sw.cyclic_quotient(4), [0, 1])),
        (one, two),
        (first.details.almost_hom.lamp_mult, first.details.almost_hom.conclusion),
        (first.details.almost_hom, second.details.almost_hom),
        (second.details.freeness[0], second.details.freeness[1]),
        (first.details, second.details),
        (first, second),
    ]
    return {type(a): (a, b) for a, b in pairs}


def test_every_record_class_has_samples(samples):
    assert set(samples) == set(record_classes())
    assert len(samples) == 20


def test_repr_hash_and_match_args_are_the_twins(samples):
    for a, b in samples.values():
        for x in (a, b):
            assert repr(x) == repr(twin_of(x))
            assert outcome(hash, x) == outcome(hash, twin_of(x)), type(x)
        assert type(a).__match_args__ == twin(type(a)).__match_args__


def test_equality_within_and_across_classes_is_the_twins(samples):
    values = [x for pair in samples.values() for x in pair]
    for x, y in itertools.product(values, repeat=2):
        tx, ty = twin_of(x), twin_of(y)
        assert (x == y, x != y) == (tx == ty, tx != ty), (type(x), type(y))
    # one field of the same value, two kinds of group, as the groups row of the README promises
    assert sw.cyclic(2) != sw.symmetric(2) and sw.cyclic(2) == sw.cyclic(2)
    assert sw.cyclic(2) != (2,) and sw.Permutation((0,)) != twin_of(sw.Permutation((0,)))


def test_assigning_or_deleting_any_attribute_raises_as_the_twin(samples):
    for a, _ in samples.values():
        for name in (*a.__match_args__, "not_a_field"):
            assert outcome(setattr, a, name, 0) == outcome(setattr, twin_of(a), name, 0), (type(a), name)
            assert outcome(delattr, a, name) == outcome(delattr, twin_of(a), name), (type(a), name)
            assert outcome(setattr, a, name, 0)[1] is AttributeError


def test_bad_constructor_calls_raise_the_twins_type_error(samples):
    checked = []
    for cls, (a, _) in samples.items():
        fields = [getattr(a, name) for name in cls.__match_args__]
        later = dict(zip(cls.__match_args__[1:], fields[1:]))
        calls = [
            ((), {}),
            (fields[:1], {}),
            ((*fields, 0, 0), {}),
            (fields, {"not_a_field": 0}),
            (fields, dict(zip(cls.__match_args__, fields))),
            ((), later),
            ((), {**later, "extra": 0}),
        ]
        for args, kwargs in calls:
            expected = outcome(lambda: twin(cls)(*args, **kwargs))
            if expected[:2] == ("raises", TypeError):
                checked.append(expected[2])
                assert outcome(lambda: cls(*args, **kwargs)) == expected, (cls, args, kwargs)
    assert len(checked) > 100 and any("from 6 to 7 positional arguments" in text for text in checked)
    assert any("missing 5 required positional arguments" in text for text in checked)


def test_keywords_build_the_same_value(samples):
    for cls, (a, _) in samples.items():
        fields = dict(zip(cls.__match_args__, (getattr(a, name) for name in cls.__match_args__)))
        assert cls(**fields) == a and repr(cls(**fields)) == repr(a)


def test_post_init_is_looked_up_at_each_call(monkeypatch):
    calls = []
    monkeypatch.setattr(sw.Permutation, "__post_init__", lambda self: calls.append(self.image))
    sw.Permutation((0, 0))  # the replacement checks nothing
    assert calls == [(0, 0)]
    monkeypatch.undo()
    with pytest.raises(ValueError, match="not a bijection"):
        sw.Permutation((0, 0))


def test_a_private_field_is_fresh_optional_and_left_out(samples):
    one, two = samples[construct.WreathApprox]
    fields = [getattr(one, name) for name in one.__match_args__[:-1]]
    again, other = construct.WreathApprox(*fields), construct.WreathApprox(*fields)
    assert again._cache == {} and again._cache is not other._cache and one._cache
    assert again == one != two and "_cache" not in repr(one) and repr(again) == repr(one) == repr(twin_of(one))
    assert twin(construct.WreathApprox)(*fields)._cache == {}


def test_a_class_whose_only_field_is_private():
    @record
    class Cached:
        cache: dict = private(dict)

    assert Cached() == Cached() and hash(Cached()) == hash(()) and repr(Cached()).endswith(".Cached()")
    assert Cached().cache == {} and Cached.__match_args__ == ("cache",)
    assert Cached({1: 2}).cache == {1: 2} == Cached(cache={1: 2}).cache
