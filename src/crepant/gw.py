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

from .cartan import CurveClass, span_weights
from .geometry import Geometry, SectorClass

ASSUMPTION_NOTE = "three-point values in fiber classes assumed for all base dimensions"


def classify_insertion(x: SectorClass):
    """Split a monomial class into ('pullback', x) or ('exceptional', l, alpha).

    Raises ValueError for classes that are neither."""
    # coordinate k >= 2 is the coefficient of E_{k-1}
    nonzero = [(k - 1, alpha) for k, alpha in enumerate(x.coords) if not alpha.is_zero()]
    if all(l < 1 for l, _ in nonzero):
        return ("pullback", x)
    if len(nonzero) == 1:
        return ("exceptional", *nonzero[0])
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
    weights = span_weights(geom.n)[span[1]]
    parts = [classify_insertion(x) for x in insertions]
    if any(p[0] != "exceptional" for p in parts):
        # Divisor-axiom degenerate cases are out of scope; fiber-class
        # three-point invariants with pullback insertions vanish.
        return Fraction(0)
    factor = Fraction(1)
    coeff = geom.base.one()
    for kind, l, alpha in parts:
        factor *= weights.get(l, 0)
        coeff = coeff * alpha
    return factor * (coeff * geom.kap()).integrate()


def gw_metadata(geom: Geometry):
    meta = {"assumption": ASSUMPTION_NOTE}
    if geom.model_dependent:
        meta["model_dependent"] = True
    return meta
