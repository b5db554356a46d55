from fractions import Fraction

import pytest

from crepant.cartan import (
    CurveClass,
    cartan_inverse,
    cartan_inverse_entry,
    cartan_matrix,
    curve_class,
)
from reference import cartan_inverse_by_elimination, intersection, is_span


def test_matrix_shape():
    assert cartan_matrix(1) == ((-2,),)
    assert cartan_matrix(3) == ((-2, 1, 0), (1, -2, 1), (0, 1, -2))


def test_inverse_frozen_values():
    assert cartan_inverse(1) == ((Fraction(-1, 2),),)
    assert cartan_inverse(2) == ((Fraction(-2, 3), Fraction(-1, 3)),
                                 (Fraction(-1, 3), Fraction(-2, 3)))
    assert cartan_inverse(3)[0][2] == Fraction(-1, 4)


@pytest.mark.parametrize("n", range(1, 13))
def test_closed_form_matches_elimination(n):
    assert cartan_inverse(n) == cartan_inverse_by_elimination(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_inverse_is_inverse(n):
    c = cartan_matrix(n)
    ci = cartan_inverse(n)
    for i in range(n):
        for j in range(n):
            entry = sum(c[i][k] * ci[k][j] for k in range(n))
            assert entry == (1 if i == j else 0)


def test_boundary_convention():
    assert cartan_inverse_entry(3, 0, 2) == 0
    assert cartan_inverse_entry(3, 4, 1) == 0
    with pytest.raises(IndexError):
        cartan_inverse_entry(3, 5, 1)


def test_curve_classes_and_intersections():
    beta = curve_class(3, 1, 2)
    assert beta.mult == (1, 1, 0)
    assert is_span(beta) == (1, 2)
    assert intersection(3, 1, beta) == -1
    assert intersection(3, 2, beta) == -1
    assert intersection(3, 3, beta) == 1
    double = CurveClass((2, 2, 0))
    assert double.as_multiple_of_span() == (2, (1, 2))
    assert is_span(double) is None
    broken = CurveClass((1, 0, 1))
    assert broken.as_multiple_of_span() is None
    with pytest.raises(ValueError):
        curve_class(3, 2, 1)
    with pytest.raises(ValueError):
        CurveClass((-1, 0))
