from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crepant.cartan import CurveClass, curve_class
from crepant.geometry import (
    BaseRing,
    Geometry,
    default_geometry,
)
from crepant.gw import classify_insertion, gw_invariant, gw_metadata
from crepant.quantum import QPoint, QuantumRing
from crepant.scalars import parse_scalar
from reference import (
    HClass,
    as_row,
    from_coords,
    generator,
    generator_row,
    gw_by_coords,
    kap,
    quantum_products_by_gw,
    times_generator,
    zero,
)

BASES = [BaseRing("point")] + [BaseRing("projective_space", d) for d in (1, 2, 3)]
BASE_IDS = ["point", "P1", "P2", "P3"]


def test_a1_table():
    geom = default_geometry(1)  # kap = h, integral 1
    e = generator_row(geom, 2)
    for a in range(1, 6):
        beta = CurveClass((a,))
        assert gw_invariant(geom, beta, [e, e, e]) == -8


def test_a2_value():
    geom = default_geometry(2)
    e1 = generator_row(geom, 2)
    e2 = generator_row(geom, 3)
    beta1 = curve_class(2, 1, 1)
    assert gw_invariant(geom, beta1, [e1, e1, e2]) == 4
    # full span: every intersection number is -1
    beta12 = curve_class(2, 1, 2)
    assert gw_invariant(geom, beta12, [e1, e1, e2]) == -1


def test_vanishing_cases():
    geom = default_geometry(2)
    e1 = generator_row(geom, 2)
    sigma = generator_row(geom, 1)
    beta = curve_class(2, 1, 1)
    # pullback insertion
    assert gw_invariant(geom, beta, [e1, e1, sigma]) == 0
    # disconnected / non-span class
    broken = CurveClass((1, 2))
    assert gw_invariant(geom, broken, [e1, e1, e1]) == 0
    zero = CurveClass((0, 0))
    assert gw_invariant(geom, zero, [e1, e1, e1]) == 0


def test_multiple_independence():
    geom = default_geometry(3)
    e2 = generator_row(geom, 3)
    for a in (1, 2, 7):
        beta = CurveClass((0, a, 0))
        assert gw_invariant(geom, beta, [e2, e2, e2]) == -8


def test_symplectic_vanishing():
    geom = Geometry(2, BaseRing("projective_space", 1),
                    Fraction(3), Fraction(-3), Fraction(0))
    assert geom.symplectic()
    e1 = generator_row(geom, 2)
    assert gw_invariant(geom, curve_class(2, 1, 1), [e1, e1, e1]) == 0
    assert not default_geometry(2).symplectic()


def test_classify_and_metadata():
    geom = default_geometry(2)
    kind, l, alpha = classify_insertion(geom, generator_row(geom, 3))
    assert (kind, l) == ("exceptional", 2)
    with pytest.raises(ValueError):
        classify_insertion(geom, {**generator_row(geom, 2), **generator_row(geom, 3)})
    assert "assumption" in gw_metadata(geom)
    tall = Geometry(2, BaseRing("projective_space", 2),
                    Fraction(1), Fraction(2), Fraction(1))
    assert gw_metadata(tall)["model_dependent"]


def _geometry(n, base, k, l=Fraction(1)):
    if n == 1:
        return Geometry(1, base, None, None, k)
    return Geometry(n, base, l, (n + 1) * k - l, k)


@pytest.mark.parametrize("k", [Fraction(0), Fraction(1), Fraction(-2, 3)], ids=str)
@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_symplectic_is_where_k_h_vanishes(n, base, k):
    geom = _geometry(n, base, k)
    assert geom.symplectic() == kap(geom).is_zero()
    assert geom.symplectic() == (base.dim == 0 or k == 0)


@st.composite
def gw_cases(draw):
    """(geom, span, beta, insertions): a geometry over a point or P^1..P^3,
    a multiple beta of beta_span, and three insertions, each alpha E_l with
    alpha 1 or drawn, a drawn pullback class on 1 and sigma, or zero."""
    n = draw(st.integers(1, 4))
    base = draw(st.sampled_from(BASES))
    small = st.fractions(-3, 3, max_denominator=3)
    k = draw(st.sampled_from([Fraction(0), Fraction(1)]) | small)
    geom = _geometry(n, base, k, draw(small))
    r = draw(st.integers(1, n))
    s = draw(st.integers(r, n))
    multiple = draw(st.integers(1, 3))
    beta = CurveClass(tuple(multiple * m for m in curve_class(n, r, s).mult))

    def alpha():
        return HClass(base, draw(st.lists(small, min_size=base.rank, max_size=base.rank)))

    def insertion():
        kind = draw(st.sampled_from(["unit", "alpha", "alpha", "pullback", "zero"]))
        if kind == "unit":
            return generator(geom, draw(st.integers(2, n + 1)))
        if kind == "alpha":
            return times_generator(geom, draw(st.integers(2, n + 1)), alpha())
        if kind == "pullback":
            return from_coords(geom, [alpha(), alpha()] + [zero(base)] * n)
        return from_coords(geom, [zero(base)] * (n + 2))

    return geom, (r, s), beta, [insertion() for _ in range(3)]


@settings(max_examples=300, deadline=None)
@given(gw_cases())
def test_gw_matches_the_graded_class_route(case):
    # the package reads k times the h^(dim-1) coefficient of alpha_1 alpha_2
    # alpha_3; the reference integrates alpha_1 alpha_2 alpha_3 k h
    geom, span, beta, insertions = case
    got = gw_invariant(geom, beta, [as_row(x) for x in insertions])
    assert got == gw_by_coords(geom, span, insertions)
    assert type(got) is Fraction


@pytest.mark.parametrize("n, base", [(n, base) for n in (1, 2, 3) for base in BASES]
                         + [(4, BASES[1])],
                         ids=[f"{n}-{b}" for n in (1, 2, 3) for b in BASE_IDS] + ["4-P1"])
def test_quantum_product_is_the_classical_one_plus_gw_invariants(n, base):
    # the small quantum product from its definition, for every basis pair,
    # at rational q_l = 1/(l + 2) and at q = zeta_(n+1)
    geom = default_geometry(n, base)
    for q in (QPoint([Fraction(1, l + 2) for l in range(1, n + 1)]),
              QPoint([parse_scalar(f"zeta{n + 1}")] * n)):
        ring = QuantumRing(geom, q)
        for (i, j), want in quantum_products_by_gw(geom, q).items():
            assert ring.product(i, j) == want, (q.values, i, j)
