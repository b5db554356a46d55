import re
from fractions import Fraction

import pytest

from crepant.geometry import (
    BaseRing,
    Geometry,
    GradedClass,
    SectorRing,
    default_geometry,
)
from reference import ell, h_power, kap, one


def p1():
    return BaseRing("projective_space", 1)


def test_base_ring_product_and_integral():
    ring = BaseRing("projective_space", 2)
    h = GradedClass(ring, (Fraction(0), Fraction(1), Fraction(0)))
    assert (h * h).coeffs == (Fraction(0), Fraction(0), Fraction(1))
    assert (h * h * h).coeffs == (Fraction(0),) * 3  # truncated above the top degree
    pt = BaseRing("point")
    assert (GradedClass(pt, (Fraction(2),)) * GradedClass(pt, (Fraction(3),))).coeffs == (6,)
    # the test-side H*(S) class that the reference routes use
    assert (h_power(ring, 1) * h_power(ring, 1)).integrate() == 1
    assert (h_power(ring, 1) * h_power(ring, 1) * h_power(ring, 1)).is_zero()
    assert one(ring).integrate() == 0
    assert one(pt).integrate() == 1


def test_square_zero_model():
    geom = default_geometry(1, p1())
    model = SectorRing(geom)
    # rank 2: b_m = h^p g at m = 2 g + p, so h is b_1, sigma b_2 and sigma h b_3
    h, sigma = 1, 2
    assert model.product(sigma, sigma) == {}
    assert model.product(h, sigma) == {3: 1}


def test_taut_relation_validated():
    one, two = Fraction(1), Fraction(2)
    Geometry(2, p1(), one, two, one)
    for args, message in [((2, p1(), one, one, one), "need l + m = (n+1) k"),
                          ((1, p1(), one, one, one), "for n = 1 only k is defined"),
                          ((1, p1(), None, one, one), "for n = 1 only k is defined"),
                          ((2, p1(), None, two, one), "for n >= 2 both l and m are required"),
                          ((0, p1(), None, None, one), "need n >= 1")]:
        with pytest.raises(ValueError, match=re.escape(message)):
            Geometry(*args)


@pytest.mark.parametrize("model,dim,message", [
    ("point", 1, "a point has dimension 0"),
    ("projective_space", -1, "projective space needs dim >= 0"),
    ("torus", 1, "unknown base model 'torus'"),
])
def test_base_ring_validated(model, dim, message):
    with pytest.raises(ValueError, match=message):
        BaseRing(model, dim)
    with pytest.raises(ValueError, match=message):
        BaseRing(model=model, dim=dim)


def test_geometry_json_round_trip():
    geom = default_geometry(2)
    again = Geometry.from_json(geom.to_json())
    assert again == geom
    g1 = default_geometry(1)
    assert Geometry.from_json(g1.to_json()) == g1


def test_point_base_classes_vanish():
    geom = Geometry(2, BaseRing("point"),
                    Fraction(1), Fraction(2), Fraction(1))
    assert ell(geom).is_zero()
    assert kap(geom).is_zero()
    assert geom.symplectic()


def test_model_dependent_flag():
    geom = Geometry(2, BaseRing("projective_space", 2),
                    Fraction(1), Fraction(2), Fraction(1))
    assert geom.model_dependent
    assert not default_geometry(2).model_dependent
