"""Reference oracle for ``construct.lamp_action``: one lamp write at a time.

``lamp_action`` writes every position of a configuration at every good block
in one pass.  This module builds the same action at a single block as an
explicit product of one-write factors, which is slower but follows the
definition term by term; tests compare the two.
"""
from soficwreath.bigperm import CoordAction, coord_action, identity_action
from soficwreath.construct import GoodBlock
from soficwreath.groups import FinSuppMap
from soficwreath.sofic import SoficApprox


def _anchor(sigma_B: SoficApprox, x, b: int) -> int:
    return sigma_B.evaluate(x).inverse()(b)


def lamp_factor(sigma_A: SoficApprox, sigma_B: SoficApprox, g, x, b: int) -> CoordAction:
    """One lamp write: at block b, coordinate sigma_B(x)^{-1} b gets sigma_A(g)."""
    coordinate = _anchor(sigma_B, x, b)
    return coord_action(
        sigma_A.carrier_size,
        sigma_B.carrier_size,
        tau={b: {coordinate: sigma_A.evaluate(g)}},
    )


def block_lamp_action(
    sigma_A: SoficApprox,
    sigma_B: SoficApprox,
    positions,
    block: GoodBlock,
    f: FinSuppMap,
    b: int,
) -> CoordAction:
    """Product of the lamp factors of f at one good block.

    On a good block the factors touch pairwise distinct coordinates, so the
    factor order (the canonical positions order) does not matter; it is fixed
    anyway for reproducibility.
    """
    if b not in block.good:
        raise ValueError(f"block {b} is not good")
    if not set(f.support()) <= set(positions):
        raise ValueError(f"support {f.support()!r} escapes the positions window")
    out = identity_action(sigma_A.carrier_size, sigma_B.carrier_size)
    for x in positions:
        g = f.get(x)
        if g is not None:
            out = out * lamp_factor(sigma_A, sigma_B, g, x, b)
    return out
