"""Reference wreath multiplication, one ``DirectSum`` operation at a time.

``WreathProduct.mul`` shifts the right factor's lamps, multiplies them into
the left factor's and sorts once.  ``wreath_mul`` keeps the two steps it
replaces, (f, h)(f', h') = (f * shift_h(f'), h h'), each canonicalized by
``DirectSum.make``; tests compare the two.
"""
from soficwreath.groups import WreathElement, WreathProduct


def wreath_mul(wreath: WreathProduct, a: WreathElement, b: WreathElement) -> WreathElement:
    lamps = wreath.lamps
    return WreathElement(lamps.mul(a.left, lamps.shift(a.right, b.left)), wreath.base.mul(a.right, b.right))
