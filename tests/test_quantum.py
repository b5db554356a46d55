import io
import itertools
import json
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from crepant.cartan import curve_class
from crepant.geometry import BaseRing, Geometry, default_geometry
from crepant import cli, quantum
from crepant.quantum import (
    PoleError,
    QPoint,
    QSeries,
    QuantumRing,
    all_spans,
    structure_constants,
)
from crepant.orbifold import TWIST_SELF_CHOICES, ConventionFlags, OrbifoldRing
from crepant.resolution import ResolutionRing
from crepant.scalars import CycNum, parse_scalar, scalar_is_zero, scalar_to_json
from reference import (
    AtomRing,
    HClass,
    contracted_correction,
    conjugate,
    coords,
    difference,
    dot,
    evaluate,
    exact,
    from_coords,
    generator_product,
    intersection,
    inverse_deltas,
    kap,
    mul_by_table,
    poles_by_products,
    product_table,
    quantum_ee_by_coords,
    r_poly,
    unit_delta_rings,
    vanishes,
    zero,
)

D11, D22, D12 = (1, 1), (2, 2), (1, 2)


def test_r_poly_frozen_a2():
    assert r_poly(2, 1, 1, 1).atom_dict() == {D11: -8, D22: 1, D12: -1}
    assert r_poly(2, 1, 2, 1).atom_dict() == {D11: 4, D22: -2, D12: -1}
    assert r_poly(2, 1, 1, 2).atom_dict() == {D11: 4, D22: -2, D12: -1}
    assert r_poly(2, 1, 2, 2).atom_dict() == {D11: -2, D22: 4, D12: -1}
    # cubic symmetry in all three indices
    assert r_poly(2, 2, 1, 1) == r_poly(2, 1, 2, 1) == r_poly(2, 1, 1, 2)


@pytest.mark.parametrize("n", range(1, 9))
def test_root_sum_matches_contraction(n):
    # sum_m (C^-1)_{lm} (E_m.beta) is the multiplicity of beta_l in beta;
    # the table holds i <= j, so E_i E_j for i > j is read at (j, i)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            _, slots = structure_constants(n)[(min(i, j), max(i, j))]
            for l in range(1, n + 1):
                correction = QSeries(Fraction(0), slots[l - 1][1].atoms)
                assert correction == contracted_correction(n, i, j, l)


def test_classical_ring_evaluates_no_series(monkeypatch):
    def fail(*args):
        raise RuntimeError("a series was evaluated")

    monkeypatch.setattr(QuantumRing, "_root_sum", fail)
    geom = default_geometry(7)
    product_table(ResolutionRing(geom))
    # the patch is live: a corrected ring does evaluate its series
    with pytest.raises(RuntimeError, match="a series was evaluated"):
        product_table(QuantumRing(geom, QPoint([Fraction(2)] * 7)))


# pole-free q points with mixed orders as in the qc-table workload, rational
# components, +-1 and negated roots, and a zero CycNum component (0*zeta3
# keeps conductor 3)
ROOT_SUM_POINTS = [
    "zeta12,zeta5,zeta8,zeta3,zeta4,zeta6",
    "zeta5,zeta10,zeta3,zeta6,zeta15,zeta30",
    "zeta7,zeta14,zeta3,zeta21,zeta6,zeta42^5",
    "zeta60,zeta12,zeta5,zeta4,zeta3,zeta15",
    "1/2,0*zeta3,zeta5^2,-3,zeta8,2/3",
    "0*zeta3,zeta4,1/3,zeta40^3,-1/2,zeta24",
    "2,-1/2,3,1/4,-2,5",
    "-1,1/2,-1,-3/2,3,-1/3",
    "-zeta5,-1,zeta3^2,-zeta8^3,-zeta12,zeta4",
]


def _same_scalar(got, want):
    return (got == want and type(got) is type(want)
            and getattr(got, "conductor", None) == getattr(want, "conductor", None)
            and scalar_to_json(got) == scalar_to_json(want))


@pytest.mark.parametrize("k", [Fraction(0), Fraction(1), Fraction(-2, 3), Fraction(-1, 2)])
@pytest.mark.parametrize("n", range(1, 7))
def test_root_sums_match_the_dot_route(n, k):
    # every E_l coefficient of every E_i E_j over P^1 against the dot of
    # (1, k c_beta...) with (cm m + k const, delta_beta...) that the ring
    # used before, as `reference.evaluate` takes it, where the ring is
    # corrected (k != 0 and some delta nonzero): value, type, conductor and
    # JSON, at l = 1 and at l = 3/2, where m is not an integer either
    for l, spec in itertools.product((Fraction(1), Fraction(3, 2)), ROOT_SUM_POINTS):
        geom = Geometry(n, BaseRing("projective_space", 1), None if n == 1 else l,
                        None if n == 1 else (n + 1) * k - l, k)
        q = QPoint(parse_scalar(t) for t in spec.split(",")[:n])
        ring, deltas = QuantumRing(geom, q), inverse_deltas(q.values)
        corrected = k != 0 and not all(scalar_is_zero(d) for d in deltas.values())
        for i, j in all_spans(n):
            _, slots = structure_constants(n)[(i, j)]
            row = ring.product((i + 1) * 2, (j + 1) * 2)
            for g, (cm, series) in enumerate(slots, start=2):
                base = cm * geom.m if cm else Fraction(0)
                want = (evaluate(series * k + base, deltas) if corrected
                        else base + k * series.const)
                if scalar_is_zero(want):
                    assert g * 2 + 1 not in row
                else:
                    assert _same_scalar(row[g * 2 + 1], want), (spec, i, j, g)


@pytest.mark.parametrize("spec", ROOT_SUM_POINTS)
def test_deltas_are_the_geometric_atoms(spec):
    # 1/(1 - Q) - 1 against Q/(1 - Q): value, type and conductor
    q = QPoint(parse_scalar(t) for t in spec.split(","))
    deltas = q.deltas()
    for span in all_spans(q.n):
        product = q.span_product(*span)
        assert _same_scalar(deltas[span], product / (1 - product)), span


def test_atoms_and_poles():
    z3 = CycNum.zeta(3)
    deltas = QPoint([z3, z3]).deltas()
    assert deltas[(1, 1)] == (z3 - 1) / 3
    assert deltas[(1, 2)] == (CycNum.zeta(3, 2) - 1) / 3
    assert QPoint([Fraction(-1)]).deltas() == {(1, 1): Fraction(-1, 2)}
    minus = QPoint([Fraction(-1), Fraction(-1)])
    with pytest.raises(PoleError) as err:
        minus.deltas()
    assert err.value.span == (1, 2)
    assert minus.poles() == [(1, 2)]
    assert QPoint([Fraction(1)]).poles() == [(1, 1)]


def test_deltas_raise_at_the_first_pole():
    # Q_13 = Q_22 = 1: (1, 3) comes first in the order of poles()
    q = QPoint([Fraction(2), Fraction(1), Fraction(1, 2)])
    assert q.poles() == [(1, 3), (2, 2)]
    with pytest.raises(PoleError) as err:
        q.deltas()
    assert err.value.span == (1, 3)
    with pytest.raises(PoleError) as err:
        QuantumRing(default_geometry(3), q)
    assert err.value.span == (1, 3)
    z3 = CycNum.zeta(3)
    assert QPoint([z3, z3]).deltas() == {(1, 1): (z3 - 1) / 3, (1, 2): (CycNum.zeta(3, 2) - 1) / 3,
                                          (2, 2): (z3 - 1) / 3}


def test_evaluate():
    series = QSeries.from_dict(Fraction(2), {D11: Fraction(4), D12: Fraction(1)})
    q = QPoint([CycNum.zeta(3), CycNum.zeta(3)])
    assert evaluate(series, q.deltas()) == CycNum.zeta(3)  # 2 + 4 d1 + d3 at zeta3


@pytest.mark.parametrize("const", [Fraction(0), Fraction(-7, 3), Fraction(5), 0, 4])
def test_evaluate_without_atoms_is_the_dot(const):
    # an atom-free series returns its constant without a dot: the same value,
    # type and JSON as dot((1,), (const,)), at any atom values
    series = QSeries(const)
    deltas = QPoint([CycNum.zeta(5), CycNum.zeta(3)]).deltas()
    got, want = evaluate(series, deltas), dot((1,), (const,))
    assert got == want and type(got) is type(want)
    assert scalar_to_json(got) == scalar_to_json(want)


def test_quantum_product_a2_frozen():
    geom = default_geometry(2)
    z3 = CycNum.zeta(3)
    ring = QuantumRing(geom, QPoint([z3, z3]))
    ee = generator_product(ring, 1, 1)
    # over P^1 the h^p coefficient of generator g is coeffs[2 g + p]
    assert ee.coeffs[2] == -2
    assert ee.coeffs[5] == Fraction(2, 3) + z3
    assert ee.coeffs[7] == Fraction(1, 3)


def test_a1_correction_vanishes_at_minus_one():
    geom = default_geometry(1)
    ring = QuantumRing(geom, QPoint([Fraction(-1)]))
    ee = generator_product(ring, 1, 1)
    assert ee.coeffs[2] == -2
    assert all(c == 0 for c in ee.coeffs[4:6])  # 2 + 4 delta = 0 at q = -1


@pytest.mark.parametrize("n", range(1, 5))
def test_degeneration_at_zero(n):
    geom = default_geometry(n)
    classical = ResolutionRing(geom)
    quantum = QuantumRing(geom, QPoint([Fraction(0)] * n))
    assert product_table(quantum) == product_table(classical)


def test_distant_divisors_get_corrections():
    # |i-j| > 1 products vanish classically but not quantum mechanically
    geom = default_geometry(3)
    q = QPoint([CycNum.zeta(5)] * 3)
    ring = QuantumRing(geom, q)
    ee = generator_product(ring, 1, 3)
    assert all(c == 0 for c in ee.coeffs[:4])
    assert not vanishes(ee)


def test_pullback_products_uncorrected():
    geom = default_geometry(2)
    q = QPoint([CycNum.zeta(3), CycNum.zeta(3)])
    ring = QuantumRing(geom, q)
    h, e1 = 1, 2 * geom.base.rank  # the basis indices of h and E_1
    assert ring.product(h, e1) == ResolutionRing(geom).product(h, e1)


def test_reflection_symmetry():
    # relabel l -> n+1-l, reverse q, swap em and ell
    from crepant.geometry import BaseRing, Geometry
    n = 2
    z5 = CycNum.zeta(5)
    q = QPoint([z5, z5 * z5])
    q_rev = QPoint([z5 * z5, z5])
    geom = default_geometry(2)        # ell = 1h, em = 2h
    mirror = Geometry(2, BaseRing("projective_space", 1),
                      Fraction(2), Fraction(1), Fraction(1))
    ring = QuantumRing(geom, q)
    ring_m = QuantumRing(mirror, q_rev)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            ee = generator_product(ring, i, j)
            em = generator_product(ring_m, n + 1 - j, n + 1 - i)
            assert ee.coeffs[:4] == em.coeffs[:4]
            for l in range(1, n + 1):
                assert ee.coeffs[2 * l + 2:2 * l + 4] == em.coeffs[2 * (n - l) + 4:2 * (n - l) + 6]


def _coefficient_tuples(ring):
    """Every coefficient of every basis product, with its type and, for a
    cyclotomic number, its conductor."""
    def shape(c):
        if isinstance(c, CycNum):
            return ("cyc", c.conductor, c.coeffs)
        return (type(c).__name__, c)

    return {pair: {m: shape(c) for m, c in row.items()}
            for pair, row in product_table(ring).items()}


@pytest.mark.parametrize("base", [BaseRing("projective_space", 1), BaseRing("point")],
                         ids=["P1", "point"])
@pytest.mark.parametrize("values", [
    [Fraction(2), Fraction(3), Fraction(1, 2), Fraction(-2)],
    [CycNum.zeta(3), CycNum.zeta(4), Fraction(1, 2), CycNum.zeta(5)],
], ids=["rational", "mixed"])
@pytest.mark.parametrize("n", range(1, 5))
def test_at_deltas_matches_q_point(n, values, base):
    # the reference ring at the atom values of q is the ring at q, conductors
    # included
    geom = default_geometry(n, base)
    q = QPoint(values[:n])
    deltas = q.deltas()
    assert (_coefficient_tuples(AtomRing(geom, deltas))
            == _coefficient_tuples(QuantumRing(geom, q)))


@st.composite
def class_pairs(draw):
    """A geometry over P^1 or a point with integer l, m, k, and two classes
    with integer coordinates on every generator."""
    n = draw(st.integers(1, 5))
    base = draw(st.sampled_from([BaseRing("projective_space", 1), BaseRing("point")]))
    k = Fraction(draw(st.integers(-3, 3)))
    if n == 1:
        geom = Geometry(1, base, None, None, k)
    else:
        l = Fraction(draw(st.integers(-4, 4)))
        geom = Geometry(n, base, l, (n + 1) * k - l, k)
    coeffs = st.lists(st.integers(-3, 3).map(Fraction), min_size=base.rank, max_size=base.rank)

    def sector_class():
        return from_coords(geom, [HClass(base, draw(coeffs)) for _ in range(n + 2)])

    return geom, sector_class(), sector_class()


@settings(max_examples=40, deadline=None)
@given(class_pairs())
def test_unit_delta_adds_the_rank_one_root_term(case):
    # at delta_beta = 1 (every other delta 0) a product gains exactly
    # k (x.beta)(y.beta) sum_{l in beta} E_l, x.beta = sum_i x_i (E_i.beta)
    geom, x, y = case
    n = geom.n
    classical = mul_by_table(ResolutionRing(geom), x, y)
    _, units = unit_delta_rings(geom)
    for (r, s), unit in zip(all_spans(n), units):
        beta = curve_class(n, r, s)
        xb, yb = (sum((coords(z)[i + 1].scale(intersection(n, i, beta))
                       for i in range(1, n + 1)), zero(geom.base)) for z in (x, y))
        term = kap(geom) * xb * yb
        expected = [zero(geom.base)] * (n + 2)
        for l in range(r, s + 1):
            expected[l + 1] = term
        assert difference(mul_by_table(unit, x, y), classical) == from_coords(geom, expected)


def test_deltas_invert_nothing_before_a_pole(monkeypatch):
    z = CycNum.zeta
    # q4 q5 = 1 makes (4, 5) the first pole; the 13 spans before it are finite
    pole = [z(5), z(3), z(5, 2), z(4), z(4, 3)]
    free = [z(5), z(3), z(5, 2), z(4), z(6)]
    # negated roots and a rational -1 are roots of unity too
    signed = [z(5), -z(3), Fraction(-1), z(4), -z(6)]
    # 2 zeta5 is no root of unity: the 8 spans through q2 are not roots either
    mixed_pole = [z(5), 2 * z(5), z(3), z(4), z(4, 3)]
    mixed = [z(5), 2 * z(5), z(3), z(4), z(6)]
    inverted = []
    inv = CycNum.inv

    def counting_inv(self):
        inverted.append(1)
        return inv(self)

    monkeypatch.setattr(CycNum, "inv", counting_inv)
    for point in (pole, mixed_pole):
        assert QPoint(point).poles()[0] == (4, 5)
        with pytest.raises(PoleError) as err:
            QPoint(point).deltas()
        assert err.value.span == (4, 5) and inverted == []
        with pytest.raises(PoleError) as err:
            QuantumRing(default_geometry(5), QPoint(point))
        assert err.value.span == (4, 5) and inverted == []
    # a point of roots of unity inverts nothing, one with a non-root
    # component once per span through it, and each gives the atoms Q/(1 - Q)
    for point, inverses in ((free, 0), (signed, 0), (mixed, 8)):
        inverted.clear()
        deltas = QPoint(point).deltas()
        assert len(inverted) == inverses
        for r, s in all_spans(5):
            product = Fraction(1)
            for v in point[r - 1:s]:
                product = product * v
            assert deltas[(r, s)] == product / (1 - product)


# conductors of the components: orders up to 40, so that the lcm of a span
# mostly passes the cap of 120 and sometimes does not
DELTA_CONDUCTORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 20, 21, 24, 28, 30, 40)
NON_UNITS = tuple(Fraction(v) for v in ("0", "2", "-2", "1/2", "-1/3", "3/2"))


@st.composite
def delta_points(draw):
    """Points of length 1..5: components +-zeta_N^a, +-1 and the inverse
    of an earlier root (to reach poles), mixed with non-root rationals and
    monomials r zeta_N^a."""
    values = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("root", "root", "unit", "inverse", "rational", "monomial")))
        if kind == "unit":
            values.append(draw(st.sampled_from((Fraction(1), Fraction(-1)))))
        elif kind == "rational":
            values.append(draw(st.sampled_from(NON_UNITS)))
        elif kind == "inverse" and any(isinstance(v, CycNum) for v in values):
            root = draw(st.sampled_from([v for v in values if isinstance(v, CycNum)]))
            values.append(root.galois(-1))
        else:
            n = draw(st.sampled_from(DELTA_CONDUCTORS))
            value = CycNum.zeta(n, draw(st.integers(0, n - 1)))
            scale = draw(st.sampled_from((1, -1) if kind != "monomial" else NON_UNITS))
            values.append(value * scale)
    return values


def _deltas_or_error(deltas_of, values):
    try:
        return deltas_of(values)
    except (PoleError, ValueError) as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(delta_points(), st.sampled_from((None, "60", "24")))
def test_closed_form_deltas_match_the_inverse_route(values, cap):
    # the closed form at roots of unity against 1/(1 - Q) - 1: each atom's
    # value, type and conductor, the first pole span and the cap error, also
    # under a cap lowered after the point is built, where a component's own
    # conductor may be over the cap
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setenv("CREPANT_MAX_CONDUCTOR", cap)
        want = _deltas_or_error(inverse_deltas, values)
        got = _deltas_or_error(lambda v: QPoint(v).deltas(), values)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert getattr(got, "span", None) == getattr(want, "span", None)
    else:
        assert got.keys() == want.keys()
        for span, delta in want.items():
            assert _same_scalar(got[span], delta), (values, span)


def test_cap_is_checked_before_a_later_pole(tmp_path):
    # q3 = 1 is a pole at (3, 3), but the span (1, 5) comes first in span
    # order, and its lcm 180 is over the cap
    config = tmp_path / "a5_p1.json"
    config.write_text(json.dumps({"n": 5, "base": {"model": "projective_space", "dim": 1},
                                  "classes": {"l": "1", "m": "5", "k": "1"}}))
    out = io.StringIO()
    code = cli.run(["qc-table", "--config", str(config),
                    "--q=zeta9^5,zeta30^24,1,zeta15^7,zeta20^17"], stdout=out)
    assert code == 2
    assert json.loads(out.getvalue()) == {
        "error": "conductor 180 exceeds cap 120 (set CREPANT_MAX_CONDUCTOR to raise it)"}


def _poles_or_error(values):
    try:
        return QPoint(values).poles()
    except ValueError as exc:
        return exc


def _poles_by_products_or_error(values):
    try:
        return poles_by_products(QPoint(values))
    except ValueError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(delta_points(), st.sampled_from((None, "60", "24")))
def test_poles_match_the_span_products(values, cap):
    # the poles read off root exponents against 1 - q_r ... q_s = 0 by span
    # products: the same spans in the same order, or the same cap error,
    # also under a cap lowered after the point is built
    with pytest.MonkeyPatch.context() as patch:
        if cap is not None:
            patch.setenv("CREPANT_MAX_CONDUCTOR", cap)
        want = _poles_by_products_or_error(values)
        got = _poles_or_error(values)
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert got == want


def test_poles_of_roots_of_unity_form_no_cycnum_product(monkeypatch):
    z = CycNum.zeta
    values = [z(3), z(3, 2), Fraction(-1), -z(8, 3), z(8, 5), z(12, 5)]
    want = poles_by_products(QPoint(values))
    assert want == [(1, 2), (1, 5), (3, 5)]
    calls = []
    mul = CycNum.__mul__

    def counting(self, other):
        calls.append(other)
        return mul(self, other)

    monkeypatch.setattr(CycNum, "__mul__", counting)
    monkeypatch.setattr(CycNum, "__rmul__", counting)
    assert QPoint(values).poles() == want
    assert calls == []
    # the counter is live: the span products multiply CycNums
    assert poles_by_products(QPoint(values)) == want and calls


@st.composite
def galois_points(draw):
    """(values, u): a pole-free point of length 1..5 of roots +-zeta_N^a and
    monomials r zeta_N^a, N | 120, and a unit u modulo the lcm of the N."""
    values = []
    for _ in range(draw(st.integers(1, 5), label="n")):
        n = draw(st.sampled_from((3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40)))
        scale = draw(st.sampled_from((1, -1, Fraction(2), Fraction(-1, 3), Fraction(3, 2))))
        values.append(CycNum.zeta(n, draw(st.integers(0, n - 1))) * scale)
    assume(not QPoint(values).poles())
    big = lcm(*(v.conductor for v in values))
    u = draw(st.sampled_from([u for u in range(1, big) if gcd(u, big) == 1]), label="u")
    return values, u


@settings(max_examples=40, deadline=None)
@given(galois_points())
def test_quantum_products_commute_with_galois(case):
    # every structure constant is rational, so the ring at sigma_u(q) is
    # sigma_u of the ring at q, coefficient by coefficient, the type and
    # the conductor included
    values, u = case
    geom = default_geometry(len(values))
    ring = QuantumRing(geom, QPoint(values))
    conj = QuantumRing(geom, QPoint([v.galois(u) for v in values]))
    for i in range(ring.size):
        for j in range(i, ring.size):
            want = ring.product(i, j)
            got = conj.product(i, j)
            assert got.keys() == want.keys()
            assert [exact(got[m]) for m in want] == [exact(conjugate(c, u)) for c in want.values()]


def _assert_same_scalars(got, want):
    """Equal classes whose every coefficient has the same value and JSON, and
    every nonzero one the same Python type and conductor too."""
    assert len(got.coeffs) == len(want.coeffs)
    for a, b in zip(got.coeffs, want.coeffs):
        assert a == b and scalar_to_json(a) == scalar_to_json(b)
        if not scalar_is_zero(b):
            assert type(a) is type(b)
            assert getattr(a, "conductor", None) == getattr(b, "conductor", None)


BASES = [BaseRing("point"), BaseRing("projective_space", 1), BaseRing("projective_space", 2),
         BaseRing("projective_space", 3)]
BASE_IDS = ["point", "P1", "P2", "P3"]


def _points(n):
    """Pole-free points of length n: q = 0 as rationals and as cyclotomic
    zeros, rational, cyclotomic, and mixed conductors with lcm up to 120,
    one of them with some q = 0."""
    z = CycNum.zeta
    candidates = [
        [Fraction(0)] * n,
        [z(3) * 0] * n,
        [Fraction(2), Fraction(-1, 3), Fraction(5, 2), Fraction(-4), Fraction(3), Fraction(7, 5)],
        [z(5), z(5, 2), z(5, 4), z(5), z(5, 3), z(5, 2)],
        [z(5), z(8), z(3), z(12, 5), Fraction(1, 2), z(4)],
        [z(3), Fraction(0), z(8, 3), Fraction(-2), z(5, 4), z(12)],
    ]
    points = [QPoint(values[:n]) for values in candidates]
    return [q for q in points if not q.poles()]


def _geometries(n, base):
    """The default classes, k = 0, and non-integral ones."""
    if n == 1:
        classes = [(None, None, Fraction(1)), (None, None, Fraction(0)),
                   (None, None, Fraction(-5, 3))]
    else:
        classes = [(Fraction(1), Fraction(n), Fraction(1)),
                   (Fraction(2), Fraction(-2), Fraction(0)),
                   (Fraction(1, 3), (n + 1) * Fraction(3, 4) - Fraction(1, 3), Fraction(3, 4))]
    return [Geometry(n, base, *lmk) for lmk in classes]


@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
@pytest.mark.parametrize("n", range(1, 5))
def test_generator_rows_leave_out_zero_entries(n, base):
    # l = 0, k = 0, q = 0 and a point base give zero coefficients; each
    # generator product is stored as the row of its nonzero ones
    geoms = _geometries(n, base)
    if n > 1:
        geoms.append(Geometry(n, base, Fraction(0), Fraction(n + 1), Fraction(1)))
    for geom in geoms:
        rings = ([OrbifoldRing(geom, ConventionFlags(t)) for t in TWIST_SELF_CHOICES]
                 + [QuantumRing(geom, q) for q in _points(n)])
        for ring in rings:
            rank = geom.base.rank
            for i, j in all_spans(n):
                row = ring.product((i + 1) * rank, (j + 1) * rank)
                assert row == ring._compute_ee(i, j)
                assert not any(scalar_is_zero(c) for c in row.values())


@pytest.mark.parametrize("base", BASES, ids=BASE_IDS)
@pytest.mark.parametrize("n", range(1, 7))
def test_flat_ee_matches_the_graded_class_route(n, base):
    # the fused dot per slot against em().scale(cm) + kap().scale(evaluate(...)):
    # every coefficient's value and JSON, and every nonzero one's type and
    # conductor, at k = 0 and q = 0 too
    points = _points(n)
    assert len(points) >= 4
    for geom in _geometries(n, base):
        for q in points:
            ring = QuantumRing(geom, q)
            for i, j in all_spans(n):
                _assert_same_scalars(generator_product(ring, i, j),
                                     quantum_ee_by_coords(geom, q, i, j))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SYMPLECTIC = {"n": 2, "base": {"model": "projective_space", "dim": 1},
              "classes": {"l": "3", "m": "-3", "k": "0"}}


def _run(argv):
    out = io.StringIO()
    return cli.run(argv, stdout=out), out.getvalue()


def _config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("config, q, atoms", [
    ("a2_point.json", "zeta7,zeta5", 0), (SYMPLECTIC, "zeta3", 0), ("a2_p1.json", "0,0", 0),
    ("a2_p1.json", "zeta7,zeta5", 3), ("a2_p1.json", "2,-1/3", 3),
], ids=["point", "k=0", "q=0", "corrected-roots", "corrected-rationals"])
def test_only_a_corrected_ring_evaluates_atoms(monkeypatch, tmp_path, config, q, atoms):
    # over a point, at k = 0 and at q = 0 no slot reads an atom: the ring
    # forms no closed-form root atom and no 1/(1 - Q), while a corrected
    # ring forms one of them per span
    path = str(CONFIGS / config) if isinstance(config, str) else _config(tmp_path, config)
    calls = []

    def watch(owner, name):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.append(name) or method(*args))

    watch(quantum, "_root_atom")
    watch(CycNum, "__rtruediv__")
    watch(Fraction, "__rtruediv__")
    for argv in (["qc-table", "--config", path, f"--q={q}"],
                 ["check-assoc", "--config", path, "--ring", "quantum", f"--q={q}"]):
        calls.clear()
        code, _ = _run(argv)
        assert code == 0 and len(calls) == atoms, argv


def test_an_uncorrected_ring_checks_every_span(tmp_path):
    # the pole and cap checks of the atoms still run, in span order: over
    # a point q_1 = 1 is the pole (1, 1), and the conductor lcm(9, 20) of
    # span (1, 2) exits 2 before the pole at (3, 3)
    code, text = _run(["check-assoc", "--config", str(CONFIGS / "a2_point.json"),
                       "--ring", "quantum", "--q=1,2"])
    data = json.loads(text)
    assert (code, data["error"], data["span"]) == (3, "pole", [1, 1])
    point = _config(tmp_path, {"n": 3, "base": {"model": "point"},
                               "classes": {"l": "1", "m": "3", "k": "1"}})
    code, text = _run(["qc-table", "--config", point, "--q=zeta9,zeta20,1"])
    assert code == 2 and "conductor 180 exceeds cap" in json.loads(text)["error"]
