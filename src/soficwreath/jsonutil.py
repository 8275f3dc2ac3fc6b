"""Small JSON helpers shared by the serialization code.

Rationals travel as ``{"num": p, "den": q}`` so that round trips are exact;
floating point never enters any stored value.
"""
from __future__ import annotations

from fractions import Fraction


def frac_to_json(x: Fraction) -> dict:
    return {"num": x.numerator, "den": x.denominator}


def is_int(x) -> bool:
    """A JSON integer: Python counts True and False as ints, decoders do not."""
    return isinstance(x, int) and not isinstance(x, bool)


def frac_from_json(data) -> Fraction:
    valid = isinstance(data, dict) and set(data) == {"num", "den"} and all(map(is_int, data.values()))
    if not valid or data["den"] == 0:
        raise ValueError(f"not a rational: {data!r}")
    return Fraction(data["num"], data["den"])


def parse_fraction(value) -> Fraction:
    """Read a rational from config input.

    Accepts ints, strings like ``"1/10"`` or ``"0.125"``, and the
    ``{"num", "den"}`` object form.  Bare floats are rejected: a float
    literal in a JSON file has already lost its author's intent.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    if isinstance(value, dict):
        return frac_from_json(value)
    raise ValueError(f"not an exact rational: {value!r} (write it as a string, e.g. \"1/10\")")
