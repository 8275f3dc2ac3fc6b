"""Small JSON helpers shared by the serialization code.

Rationals travel as ``{"num": p, "den": q}`` so that round trips are exact;
floating point never enters any stored value.  ``dump_indented`` writes the
text of ``json.dumps(obj, indent=1)``, the one layout of every artifact and
certificate, without the stdlib's pure-Python indenting encoder.
"""
from __future__ import annotations

import json
import re
import reprlib
import sys
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii


def frac_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def is_int(x) -> bool:
    """A JSON integer: Python counts True and False as ints, decoders do not."""
    return isinstance(x, int) and not isinstance(x, bool)


def is_positive_int(x) -> bool:
    return is_int(x) and x >= 1


def checked(value, valid, name: str, what: str):
    """The one check of a field read from JSON input: ``value`` if
    ``valid(value)``, else ValueError "<name> must be <what>, got <value>",
    with ``repr(value)``, or ``p/q`` for a rational as every message writes it."""
    if not valid(value):
        raise ValueError(f"{name} must be {what}, got {value if isinstance(value, Fraction) else repr(value)}")
    return value


def same_json(a, b) -> bool:
    """Equality of decoded JSON that, unlike ``==``, tells ``true`` and ``1.0``
    from the integer 1: the one check of a stored value against the expected one.

    >>> same_json({"format": 1}, {"format": 1}), same_json(True, 1), same_json([1.0], [1])
    (True, False, False)
    """
    return a == b and json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def all_ints(values) -> bool:
    """``all(map(is_int, values))`` for decoded JSON, in one C-level pass."""
    return set(map(type, values)) <= {int}


def frac_from_json(data) -> Fraction:
    valid = isinstance(data, dict) and set(data) == {"num", "den"} and all(map(is_int, data.values()))
    if not valid or data["den"] == 0:
        raise ValueError(f"not a rational: {data!r}")
    return Fraction(data["num"], data["den"])


def parse_fraction(value) -> Fraction:
    """Read a rational from config input.

    Accepts ints, strings like ``"1/10"``, ``"0.125"`` or ``"1e-3"``, and the
    ``{"num", "den"}`` object form.  Bare floats are rejected: a float
    literal in a JSON file has already lost its author's intent.  So are a run
    of more digits than ``sys.get_int_max_str_digits()`` and an exponent over
    it: ``Fraction`` would build 10**len(run) or 10**|exponent| first.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        limit = sys.get_int_max_str_digits()  # 0 is no limit
        if limit and max(map(len, re.findall(r"\d+", value.replace("_", ""))), default=0) > limit:
            raise ValueError(f"{reprlib.repr(value)} has a run of more than {limit} digits")
        exponent = re.search(r"E[-+]?(\d+(?:_\d+)*)\s*\Z", value, re.IGNORECASE)  # as Fraction reads one
        if exponent and int(exponent[1]) > limit > 0:
            raise ValueError(f"exponent of {reprlib.repr(value)} exceeds {limit} in magnitude")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, dict):
        return frac_from_json(value)
    raise ValueError(f"not an exact rational: {value!r} (write it as a string, e.g. \"1/10\")")


def _scalar(x) -> str:
    t = type(x)
    if t is str:
        return encode_basestring_ascii(x)
    if t is int:
        return int.__repr__(x)
    if x is None or t is bool:
        return "null" if x is None else "true" if x else "false"
    raise TypeError(f"cannot write {t.__name__} as JSON: {x!r}")


def dump_indented(obj, write) -> None:
    """Write the text of ``json.dumps(obj, indent=1)`` through ``write``.

    Only dicts with str keys, lists, strs, ints, bools and None are written;
    anything else raises TypeError, so the text never differs from the
    stdlib's.  A list of ints is written from its ``repr``.  A list or dict
    met again at the same depth is encoded into a kept string at its second
    meeting and written from it after.  Both tables are keyed by
    ``(id(node), depth)``, as indentation depends on depth, and live for one
    call, while the tree holds every node.  A dict's encoded ``"key": `` heads
    are kept by its key tuple, so dicts with equal keys encode them once.

    >>> import json
    >>> shared = {"left": [[0, 1]], "right": -2}
    >>> tree = {"window": [shared, shared], "pairs": [[shared, shared]]}
    >>> pieces = []
    >>> dump_indented(tree, pieces.append)
    >>> "".join(pieces) == json.dumps(tree, indent=1)
    True
    """
    seen: set = set()
    kept: dict = {}
    heads_of: dict = {}  # a dict's key tuple -> its encoded heads

    def node(x, depth, write):
        key = (id(x), depth)
        text = kept.get(key)
        if text is None:
            if key not in seen:
                seen.add(key)
                return body(x, depth, write)
            pieces: list = []
            body(x, depth, pieces.append)
            text = kept[key] = "".join(pieces)
        write(text)

    def body(x, depth, write):
        is_list = type(x) is list
        if not x:
            return write("[]" if is_list else "{}")
        inner, close = "\n" + " " * (depth + 1), "\n" + " " * depth + ("]" if is_list else "}")
        lead, sep = ("[" if is_list else "{") + inner, "," + inner
        if is_list and all_ints(x):
            # the list's repr, separators swapped: no string per element
            return write(lead + repr(x)[1:-1].replace(", ", sep) + close)
        heads = repeat("") if is_list else heads_of.get(keys := tuple(x))
        if heads is None:  # encode_basestring_ascii raises the TypeError for a non-str key
            heads = heads_of[keys] = [f"{encode_basestring_ascii(k)}: " for k in x]
        for head, item in zip(heads, x if is_list else x.values()):
            if type(item) is list or type(item) is dict:
                write(lead + head)
                node(item, depth + 1, write)
            else:
                write(lead + head + _scalar(item))
            lead = sep
        write(close)

    if type(obj) is list or type(obj) is dict:
        node(obj, 0, write)
    else:
        write(_scalar(obj))
