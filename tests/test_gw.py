from fractions import Fraction

import pytest

from crepant.cartan import CurveClass, curve_class
from crepant.geometry import (
    BaseRing,
    Geometry,
    TautClasses,
    default_geometry,
)
from crepant.geometry import SectorClass
from crepant.gw import classify_insertion, gw_invariant, gw_metadata


def test_a1_table():
    geom = default_geometry(1)  # kap = h, integral 1
    e = SectorClass.sector(geom, 1)
    for a in range(1, 6):
        beta = CurveClass(1, (a,))
        assert gw_invariant(geom, beta, [e, e, e]) == -8


def test_a2_value():
    geom = default_geometry(2)
    e1 = SectorClass.sector(geom, 1)
    e2 = SectorClass.sector(geom, 2)
    beta1 = curve_class(2, 1, 1)
    assert gw_invariant(geom, beta1, [e1, e1, e2]) == 4
    # full span: every intersection number is -1
    beta12 = curve_class(2, 1, 2)
    assert gw_invariant(geom, beta12, [e1, e1, e2]) == -1


def test_vanishing_cases():
    geom = default_geometry(2)
    e1 = SectorClass.sector(geom, 1)
    sigma = SectorClass.generator(geom, 1)
    beta = curve_class(2, 1, 1)
    # pullback insertion
    assert gw_invariant(geom, beta, [e1, e1, sigma]) == 0
    # disconnected / non-span class
    broken = CurveClass(2, (1, 2))
    assert gw_invariant(geom, broken, [e1, e1, e1]) == 0
    zero = CurveClass(2, (0, 0))
    assert gw_invariant(geom, zero, [e1, e1, e1]) == 0


def test_multiple_independence():
    geom = default_geometry(3)
    e2 = SectorClass.sector(geom, 2)
    for a in (1, 2, 7):
        beta = CurveClass(3, (0, a, 0))
        assert gw_invariant(geom, beta, [e2, e2, e2]) == -8


def test_symplectic_vanishing():
    geom = Geometry(2, BaseRing("projective_space", 1),
                    TautClasses(2, Fraction(3), Fraction(-3), Fraction(0)))
    assert geom.symplectic()
    e1 = SectorClass.sector(geom, 1)
    assert gw_invariant(geom, curve_class(2, 1, 1), [e1, e1, e1]) == 0
    assert not default_geometry(2).symplectic()


def test_classify_and_metadata():
    geom = default_geometry(2)
    kind, l, alpha = classify_insertion(SectorClass.sector(geom, 2))
    assert (kind, l) == ("exceptional", 2)
    with pytest.raises(ValueError):
        classify_insertion(SectorClass.sector(geom, 1) + SectorClass.sector(geom, 2))
    assert "assumption" in gw_metadata(geom)
    tall = Geometry(2, BaseRing("projective_space", 2),
                    TautClasses(2, Fraction(1), Fraction(2), Fraction(1)))
    assert gw_metadata(tall)["model_dependent"]
