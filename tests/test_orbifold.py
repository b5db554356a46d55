from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crepant.geometry import (
    BaseRing,
    Geometry,
    default_geometry,
)
from crepant.orbifold import (
    TWIST_SELF_CHOICES,
    ConventionFlags,
    OrbifoldRing,
    age,
)
from reference import (
    as_row,
    coords,
    generator,
    generator_product,
    h_power,
    labelled_basis,
    mul_by_table,
    obstruction_class,
    orbifold_ee_by_coords,
    pairing,
    surface_table,
    times_generator,
    vanishes,
)


def test_age():
    assert age(2, [1, 1]) == 1
    assert age(3, [1, 2]) == 1
    assert age(5, [2, 3]) == 1
    assert age(4, [1, 1]) == Fraction(1, 2)
    assert age(3, [0, 0]) == 0


def test_obstruction_class():
    assert obstruction_class(3, 1, 3) is None
    assert obstruction_class(3, 1, 1) == "ell"
    assert obstruction_class(3, 3, 3) == "em"
    with pytest.raises(ValueError):
        obstruction_class(3, 0, 1)


@pytest.mark.parametrize("n", range(1, 40))
def test_one_normal_line_enters_the_obstruction_bundle(n):
    # for gh != 1 each line enters Ob(g, h) with exponent age(g) + age(h)
    # + age((gh)^-1) - 1 on it: 1 on exactly one line, the weight -1 line l
    # where the oracle says 'ell'
    order = n + 1
    for i in range(1, order):
        for j in range(1, order):
            if (i + j) % order == 0:
                assert obstruction_class(n, i, j) is None
                continue
            on_l = age(order, (-i, -j, i + j)) - 1
            on_m = age(order, (i, j, -i - j)) - 1
            assert sorted((on_l, on_m)) == [0, 1]
            assert (on_l == 1) == (obstruction_class(n, i, j) == "ell")


def test_flags():
    assert ConventionFlags().twist_self_value(2) == Fraction(-1, 3)
    assert ConventionFlags("1/(n+1)").twist_self_value(3) == Fraction(1, 4)
    with pytest.raises(ValueError):
        ConventionFlags("2")


def test_surface_table():
    table = surface_table(2)
    assert table[(1, 2)] == Fraction(1, 3)
    assert table[(2, 1)] == Fraction(1, 3)
    assert table[(1, 1)] == 0
    table5 = surface_table(5)
    assert table5[(2, 4)] == Fraction(1, 6)
    assert table5[(2, 3)] == 0


def test_surface_table_matches_ring_over_point():
    n = 3
    geom = Geometry(n, BaseRing("point"),
                    Fraction(0), Fraction(0), Fraction(0))
    ring = OrbifoldRing(geom)
    table = surface_table(n)
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            prod = mul_by_table(ring, generator(geom, a + 1), generator(geom, b + 1))
            assert prod.coeffs[1] == table[(a, b)]  # rank 1: one coefficient per generator
            if (a + b) % (n + 1) == 0:
                assert all(c == 0 for c in prod.coeffs[2:])


def test_product_cases_a2():
    geom = default_geometry(2)  # ell = h, em = 2h, kap = h
    ring = OrbifoldRing(geom)
    e1 = generator(geom, 2)
    e2 = generator(geom, 3)

    # inverse twists: (1/3) * pushforward
    p = mul_by_table(ring, e1, e2)
    assert p.coeffs[2:4] == (Fraction(1, 3), Fraction(0))  # rank 2: generator g at 2g, 2g + 1
    assert all(c == 0 for c in p.coeffs[4:])

    # wrap-below: obstruction class ell, default coefficient -1/3
    p = mul_by_table(ring, e1, e1)
    assert all(c == 0 for c in p.coeffs[:4])
    assert p.coeffs[6:8] == (Fraction(0), Fraction(-1, 3))

    # wrap-above: obstruction class em = 2h
    p = mul_by_table(ring, e2, e2)
    assert p.coeffs[4:6] == (Fraction(0), Fraction(-2, 3))


def test_untwisted_action():
    geom = default_geometry(2)
    ring = OrbifoldRing(geom)
    sigma = generator(geom, 1)
    e1 = generator(geom, 2)
    # sigma restricts to zero on the singular locus, so it kills sectors
    assert vanishes(mul_by_table(ring, sigma, e1))
    h = times_generator(geom, 0, h_power(geom.base, 1))
    p = mul_by_table(ring, h, e1)
    assert p.coeffs[4:6] == (Fraction(0), Fraction(1))


def test_pairing_and_integral_compatible():
    # the orbifold Poincare pairing: untwisted parts pair over Y, sector a
    # pairs with sector n+1-a with the 1/(n+1) gerbe factor
    geom = default_geometry(2)
    n = geom.n
    ring = OrbifoldRing(geom)
    basis = labelled_basis(ring)
    for _, x in basis:
        for _, y in basis:
            xc, yc = coords(x), coords(y)
            want = (xc[0] * yc[1] + yc[0] * xc[1]).integrate() + sum(
                Fraction(1, n + 1) * (xc[a + 1] * yc[n - a + 2]).integrate()
                for a in range(1, n + 1))
            assert pairing(ring, x, y) == want
            assert pairing(ring, x, y) == coords(mul_by_table(ring, x, y))[1].integrate()


def test_flag_variants_change_product():
    geom = default_geometry(2)
    e1 = generator(geom, 2)
    default = mul_by_table(OrbifoldRing(geom), e1, e1)
    flipped = mul_by_table(OrbifoldRing(geom, ConventionFlags("1")), e1, e1)
    assert flipped.coeffs[6:8] == (Fraction(0), Fraction(1))
    assert default.coeffs[6:8] == (Fraction(0), Fraction(-1, 3))


@pytest.mark.parametrize("twist_self", TWIST_SELF_CHOICES)
@pytest.mark.parametrize("dim", [None, 1, 2, 3], ids=["point", "P1", "P2", "P3"])
@pytest.mark.parametrize("n", range(1, 9))
def test_flat_ee_matches_the_graded_class_route(n, dim, twist_self):
    # the one coefficient written into the flat row against the H*(S) route,
    # value and type, at integral and non-integral classes
    base = BaseRing("point") if dim is None else BaseRing("projective_space", dim)
    geoms = [default_geometry(n, base)]
    if n > 1:
        l, k = Fraction(2, 3), Fraction(1, 2)
        geoms.append(Geometry(n, base, l, (n + 1) * k - l, k))
    for geom in geoms:
        ring = OrbifoldRing(geom, ConventionFlags(twist_self))
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                got, want = generator_product(ring, i, j), orbifold_ee_by_coords(ring, i, j)
                assert got == want
                assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
                assert ring.to_json(as_row(got)) == ring.to_json(as_row(want))


BASES = [BaseRing("point")] + [BaseRing("projective_space", d) for d in (1, 2, 3)]


@st.composite
def rational_geometries(draw):
    """(geom, twist_self): n = 2..8 over a point or P^1..P^3, rational k and
    l, with l = 0 or m = 0 drawn as often as a free l."""
    n = draw(st.integers(2, 8))
    small = st.fractions(-3, 3, max_denominator=4)
    k = draw(small)
    l = draw(st.sampled_from([Fraction(0), (n + 1) * k]) | small)
    geom = Geometry(n, draw(st.sampled_from(BASES)), l, (n + 1) * k - l, k)
    return geom, draw(st.sampled_from(TWIST_SELF_CHOICES))


@settings(max_examples=150, deadline=None)
@given(rational_geometries())
def test_flat_ee_matches_the_graded_class_route_at_rational_classes(case):
    # as above at drawn l and k; where the obstruction class is 0 (l = 0 or
    # m = 0) or the base is a point, the row of e_i e_j has no entry
    geom, twist_self = case
    n = geom.n
    ring = OrbifoldRing(geom, ConventionFlags(twist_self))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            got, want = generator_product(ring, i, j), orbifold_ee_by_coords(ring, i, j)
            assert got == want
            assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
            obstruction = obstruction_class(n, i, j)
            if obstruction is not None:
                alpha = geom.l if obstruction == "ell" else geom.m
                row = ring.product((i + 1) * geom.base.rank, (j + 1) * geom.base.rank)
                assert (row == {}) == (alpha == 0 or geom.base.dim == 0)
