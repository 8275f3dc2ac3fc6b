"""Reference lamp and wreath products, one index at a time.

``DirectSum.mul_shift`` is the library's one lamp-product kernel: ``mul``,
``shift`` and ``WreathProduct.mul`` all call it.  The functions here share
no code with it.  They evaluate the defining formula

    (f * shift_h(g))(y) = f(y) * g(h^{-1} y)

at every index of supp f ∪ h·supp g, reading values from ``dict(f.entries)``,
and canonicalize through ``DirectSum.make``.
"""
from soficwreath.groups import DirectSum, FinSuppMap, WreathElement, WreathProduct


def value(lamps: DirectSum, f: FinSuppMap, x):
    """f(x), with the lamp identity off the support."""
    return dict(f.entries).get(x, lamps.lamp.identity())


def mul_shift(lamps: DirectSum, f: FinSuppMap, h, g: FinSuppMap) -> FinSuppMap:
    index, h_inv = lamps.index, lamps.index.inv(h)
    support = set(f.support()) | {index.mul(h, x) for x in g.support()}
    return lamps.make(
        {y: lamps.lamp.mul(value(lamps, f, y), value(lamps, g, index.mul(h_inv, y))) for y in support}
    )


def inv(lamps: DirectSum, f: FinSuppMap) -> FinSuppMap:
    return lamps.make({x: lamps.lamp.inv(value(lamps, f, x)) for x in f.support()})


def wreath_mul(wreath: WreathProduct, a: WreathElement, b: WreathElement) -> WreathElement:
    """(f, h)(f', h') = (f * shift_h(f'), h h')."""
    return WreathElement(mul_shift(wreath.lamps, a.left, a.right, b.left), wreath.base.mul(a.right, b.right))
