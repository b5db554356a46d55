"""Genus-zero three-point invariants of the resolution in fiber classes.

Nonzero invariants only occur for curve classes that are multiples of a
connected span beta_{ij} of exceptional fiber components, with all three
insertions supported on exceptional divisors.  The value is independent of
the multiple and factors through the intersection numbers E . beta and the
degree-2 class k on S.  The three-point formula is proved in low dimension
and assumed in general; results carry that assumption as metadata.
"""

from __future__ import annotations

from fractions import Fraction

from .cartan import CurveClass, intersection
from .geometry import Geometry, SectorClass

ASSUMPTION_NOTE = "three-point values in fiber classes assumed for all base dimensions"


def classify_insertion(x: SectorClass):
    """Split a monomial class into ('pullback', y) or ('exceptional', l, alpha).

    Raises ValueError for classes that are neither."""
    nonzero = [(l + 1, a) for l, a in enumerate(x.sectors) if not a.is_zero()]
    if not nonzero:
        return ("pullback", x.y)
    if x.y.is_zero() and len(nonzero) == 1:
        return ("exceptional", nonzero[0][0], nonzero[0][1])
    raise ValueError("insertion must be a pullback class or a single alpha*E_l")


def gw_invariant(geom: Geometry, beta: CurveClass, insertions) -> Fraction:
    """Three-point invariant <x1, x2, x3>_beta.

    Vanishes unless beta is a positive multiple of a span beta_{ij} and all
    insertions are exceptional; otherwise the product of the intersection
    numbers E_{l_t} . beta_{ij} times the integral of the coefficient
    classes cupped with k.  The value does not depend on the multiple."""
    if beta.n != geom.n:
        raise ValueError("curve class built for a different n")
    if len(insertions) != 3:
        raise ValueError("three insertions required")
    span = beta.as_multiple_of_span()
    if span is None:
        return Fraction(0)
    _, (i, j) = span
    span_class = CurveClass(geom.n, tuple(1 if i <= t + 1 <= j else 0
                                          for t in range(geom.n)))
    parts = [classify_insertion(x) for x in insertions]
    if any(p[0] != "exceptional" for p in parts):
        # Divisor-axiom degenerate cases are out of scope; fiber-class
        # three-point invariants with pullback insertions vanish.
        return Fraction(0)
    factor = Fraction(1)
    coeff = geom.base.one()
    for kind, l, alpha in parts:
        factor *= intersection(geom.n, l, span_class)
        coeff = coeff * alpha
    return factor * (coeff * geom.kap()).integrate()


def gw_metadata(geom: Geometry):
    meta = {"assumption": ASSUMPTION_NOTE}
    if geom.model_dependent:
        meta["model_dependent"] = True
    return meta
