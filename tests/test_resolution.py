from fractions import Fraction

import pytest

from crepant.geometry import BaseRing, Geometry, default_geometry
from crepant.quantum import QPoint, QuantumRing, structure_constants
from crepant.resolution import ResolutionRing
from reference import (
    ContractedAlphaRing,
    contracted_alpha,
    generator,
    generator_product,
    h_power,
    labelled_basis,
    mul_by_table,
    pairing,
    product_table,
    times_generator,
    vanishes,
)


def classical_part(n, i, j):
    """(cm, ck) per E_l of E_i E_j, read from the table at (min, max)."""
    _, slots = structure_constants(n)[(min(i, j), max(i, j))]
    return [(cm, series.const) for cm, series in slots]


def test_a1_self_intersection():
    geom = default_geometry(1)  # kap = h on P^1
    ring = ResolutionRing(geom)
    ee = generator_product(ring, 1, 1)
    # over P^1 generator g holds coeffs[2 g:2 g + 2]
    assert ee.coeffs[2:4] == (Fraction(-2), Fraction(0))
    assert ee.coeffs[4:6] == (Fraction(0), Fraction(2))  # 2 kap E


def test_a2_products_frozen():
    geom = default_geometry(2)  # ell = h, em = 2h, kap = h
    ring = ResolutionRing(geom)
    # E1 E1 = -2 sigma + ((1/3) em + 2 kap) E1 + (2/3) em E2
    ee = generator_product(ring, 1, 1)
    assert ee.coeffs[2] == -2
    assert ee.coeffs[4:6] == (Fraction(0), Fraction(8, 3))
    assert ee.coeffs[6:8] == (Fraction(0), Fraction(4, 3))
    # E1 E2 = sigma + ((1/3) em - kap) E1 - (1/3) em E2
    ee = generator_product(ring, 1, 2)
    assert ee.coeffs[2] == 1
    assert ee.coeffs[4:6] == (Fraction(0), Fraction(-1, 3))
    assert ee.coeffs[6:8] == (Fraction(0), Fraction(-2, 3))
    # distant divisors multiply to zero classically
    geom3 = default_geometry(3)
    assert vanishes(generator_product(ResolutionRing(geom3), 1, 3))


def test_twisted_coefficients_symmetry():
    # the fiberwise reflection l -> n+1-l exchanges the two line bundles
    n = 3
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            if abs(i - j) > 1:
                continue
            coeffs = classical_part(n, i, j)
            mirror = classical_part(n, n + 1 - j, n + 1 - i)
            for l in range(1, n + 1):
                cm, ck = coeffs[l - 1]
                mm, mk = mirror[n - l]
                # em <-> ell = (n+1) kap - em
                assert mm == -cm
                assert mk == ck + (n + 1) * cm


@pytest.mark.parametrize("n", range(1, 5))
def test_reduction_to_single_divisor_structure(n):
    # at n = 1 the general coefficient formula collapses to 2 kap with no em
    if n == 1:
        assert classical_part(1, 1, 1) == [(Fraction(0), Fraction(2))]


@pytest.mark.parametrize("n", range(1, 5))
def test_matches_contraction_form(n):
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert classical_part(n, i, j) == contracted_alpha(n, i, j)


def test_pullback_is_ring_map():
    geom = default_geometry(2)
    ring = ResolutionRing(geom)
    sigma, e1 = geom.base.rank, 2 * geom.base.rank  # basis indices
    assert ring.product(sigma, e1) == {}  # i^* sigma = 0
    assert ring.product(sigma, sigma) == {}


def test_pairing_blocks():
    geom = default_geometry(2)
    ring = ResolutionRing(geom)
    e1 = generator(geom, 2)
    e2 = generator(geom, 3)
    h = h_power(geom.base, 1)
    assert pairing(ring, e1, times_generator(geom, 2, h)) == -2
    assert pairing(ring, e1, times_generator(geom, 3, h)) == 1
    assert pairing(ring, e1, e2) == 0  # degree reasons on a threefold
    one = generator(geom, 0)
    sigma = generator(geom, 1)
    assert pairing(ring, one, mul_by_table(ring, sigma, times_generator(geom, 0, h))) == 1


def test_associative_classical():
    geom = default_geometry(3)
    ring = ResolutionRing(geom)
    basis = labelled_basis(ring)
    for _, x in basis[4:]:
        for _, y in basis[4:]:
            for _, z in basis[4:]:
                assert (mul_by_table(ring, mul_by_table(ring, x, y), z)
                        == mul_by_table(ring, x, mul_by_table(ring, y, z)))


BASES = (BaseRing("point", 0), BaseRing("projective_space", 1),
         BaseRing("projective_space", 2))


def classical_geometry(n, base, k):
    """k = 0 (l = 3, m = -3) or k = 1 (l = 1, m = n) over `base`."""
    if n == 1:
        return Geometry(1, base, None, None, Fraction(k))
    l = Fraction(1 if k else 3)
    return Geometry(n, base, l, (n + 1) * k - l, Fraction(k))


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("base", BASES, ids=lambda b: f"{b.model}{b.dim}")
@pytest.mark.parametrize("n", range(1, 6))
def test_classical_and_degenerate_quantum_match_contracted_alpha(n, base, k):
    # the reference ring takes E_i E_j from the alpha contraction, not from
    # structure_constants, so this checks the classical formula itself
    geom = classical_geometry(n, base, k)
    want = product_table(ContractedAlphaRing(geom))
    assert product_table(ResolutionRing(geom)) == want
    assert product_table(QuantumRing(geom, QPoint([Fraction(0)] * n))) == want
