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
from functools import reduce
from operator import mul

from .cartan import CurveClass, span_weights
from .geometry import Geometry, GradedClass
from .scalars import ZERO

ASSUMPTION_NOTE = "three-point values in fiber classes assumed for all base dimensions"


def classify_insertion(geom: Geometry, row: dict):
    """Split a monomial class, the sparse row {m: c}, into ('pullback', row)
    or ('exceptional', l, alpha), alpha the H*(S) coefficients h^0..h^dim
    of E_l.

    Raises ValueError for classes that are neither."""
    rank = geom.base.rank
    # generator g >= 2 is E_{g-1}
    gens = {m // rank for m in row}
    if all(g < 2 for g in gens):
        return ("pullback", row)
    if len(gens) == 1:
        (g,) = gens
        return ("exceptional", g - 1,
                tuple(row.get(m, ZERO) for m in range(g * rank, (g + 1) * rank)))
    raise ValueError("insertion must be a pullback class or a single alpha*E_l")


def gw_invariant(geom: Geometry, beta: CurveClass, insertions) -> Fraction:
    """Three-point invariant <x1, x2, x3>_beta of three sparse rows.

    Vanishes unless beta is a positive multiple of a span beta_{ij} and all
    insertions are exceptional; otherwise the product of the intersection
    numbers E_{l_t} . beta_{ij} times the integral of the coefficient
    classes cupped with k h: k times the h^(dim-1) coefficient of
    alpha_1 alpha_2 alpha_3, 0 over a point.  The value does not depend on
    the multiple."""
    if beta.n != geom.n:
        raise ValueError("curve class built for a different n")
    if len(insertions) != 3:
        raise ValueError("three insertions required")
    span = beta.as_multiple_of_span()
    if span is None:
        return Fraction(0)
    weights = span_weights(geom.n)[span[1]]
    parts = [classify_insertion(geom, x) for x in insertions]
    if any(p[0] != "exceptional" for p in parts) or geom.base.dim == 0:
        # Divisor-axiom degenerate cases are out of scope; fiber-class
        # three-point invariants with pullback insertions vanish, and over
        # a point k h = 0.
        return Fraction(0)
    factor = Fraction(1)
    for _, l, _ in parts:
        factor *= weights.get(l, 0)
    alpha = reduce(mul, (GradedClass(geom.base, a) for _, _, a in parts))
    return factor * geom.k * alpha.coeffs[geom.base.dim - 1]


def gw_metadata(geom: Geometry):
    meta = {"assumption": ASSUMPTION_NOTE}
    if geom.model_dependent:
        meta["model_dependent"] = True
    return meta
