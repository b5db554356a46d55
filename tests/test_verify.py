import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from crepant import verify
from crepant.cartan import curve_class
from crepant.geometry import (
    BaseRing,
    Geometry,
    SectorRing,
    default_geometry,
)
from crepant.gw import gw_invariant
from crepant.orbifold import TWIST_SELF_CHOICES, ConventionFlags, OrbifoldRing
from crepant.quantum import QPoint, QuantumRing, structure_constants
from crepant.resolution import ResolutionRing
from crepant.scalars import CycNum, scalar_is_zero, scalar_to_json
from crepant.verify import (
    PRINTED_A2_TABLE,
    AffineSystem,
    HomChecker,
    check_associativity,
    check_pairing_nondegenerate,
    _row_reduce,
    a2_candidates,
    derived_a2_table,
    reconcile_6_2,
    solve_a2_symmetric,
)
from reference import (
    A2TableRing,
    DenseClass,
    a1_scalar_sweep,
    a2_candidates_closed_form,
    all_pairs_rows,
    apply_candidate_by_coords,
    as_row,
    associativity_all_triples,
    associativity_by_mul,
    associativity_by_rows,
    check_all_pairs,
    conjugate,
    coords,
    dense,
    det_by_cofactors,
    ell,
    em,
    evaluate,
    exact,
    exact_system,
    fourier_map,
    generator,
    generator_product,
    gram_all_pairs,
    key,
    labelled_basis,
    mul_by_generators,
    mul_by_table,
    pairing,
    pairing_by_gram,
    product_table,
    reduced_system,
    reflect_a2_table,
    repair_a2_table,
    solve_a2_sweep,
    unit_ring_rows,
)


def test_a1_isomorphism_at_minus_one():
    geom = default_geometry(1)
    q = QPoint([Fraction(-1)])
    c = CycNum.zeta(4) * Fraction(1, 2)  # i/2
    report = HomChecker(OrbifoldRing(geom)).check(((c,),), QuantumRing(geom, q))
    assert report.passed
    report = HomChecker(OrbifoldRing(geom)).check(((-c,),), QuantumRing(geom, q))
    assert report.passed


def test_a1_wrong_scalars_fail():
    geom = default_geometry(1)
    q = QPoint([Fraction(-1)])
    checker, quantum = HomChecker(OrbifoldRing(geom)), QuantumRing(geom, q)
    for c in a1_scalar_sweep(20):
        report = checker.check(((c,),), quantum)
        assert not report.passed
        assert report.violations


def test_a1_sweep_pool_properties():
    pool = a1_scalar_sweep(200)
    assert len(pool) == 200
    half_i = CycNum.zeta(4) * Fraction(1, 2)
    keys = set()
    for c in pool:
        assert c != half_i and c != -half_i
        keys.add(key(c))
    assert len(keys) == 200  # no duplicates


def test_singular_matrix_rejected():
    geom = default_geometry(2)
    checker = HomChecker(OrbifoldRing(geom))
    report = checker.check(((Fraction(1), Fraction(1)),
                            (Fraction(1), Fraction(1))),
                           QuantumRing(geom, QPoint([CycNum.zeta(3)] * 2)))
    assert not report.passed
    assert report.violations[0][:2] == ("matrix", "det")


def test_checker_rejects_quantum_ring_of_another_geometry():
    checker = HomChecker(OrbifoldRing(default_geometry(1)))
    other = QuantumRing(default_geometry(1, BaseRing("point")), QPoint([Fraction(-1)]))
    with pytest.raises(ValueError):
        checker.check(((Fraction(1),),), other)


@pytest.mark.parametrize("n,matrix", [
    (1, ((CycNum.zeta(4) / 2, 0),)),
    (1, ((CycNum.zeta(4) / 2, 5),)),
    (1, ((Fraction(1),), (Fraction(1),))),
    (2, ((Fraction(1), Fraction(0)), (Fraction(1),))),
    (2, ((Fraction(1), Fraction(0), Fraction(0)), (Fraction(0), Fraction(1), Fraction(0)))),
], ids=["wide-zero", "wide", "tall", "ragged", "wide-2"])
def test_check_and_solve_reject_a_matrix_that_is_not_n_by_n(n, matrix):
    # a row count of n is not enough: an extra column once passed `check`
    # and solved to a point, or raised KeyError or IndexError
    geom = default_geometry(n)
    checker = HomChecker(OrbifoldRing(geom))
    quantum = QuantumRing(geom, QPoint([CycNum.zeta(5)] * n))
    with pytest.raises(ValueError, match="candidate matrix has the wrong size"):
        checker.check(matrix, quantum)
    with pytest.raises(ValueError, match="candidate matrix has the wrong size"):
        checker.solve(matrix)


def test_hom_direction():
    # the candidate matrix sends sectors to divisors; the A_2 solution
    # matrix is the inverse of the symmetric divisor->sector matrix
    geom = default_geometry(2)
    z3 = CycNum.zeta(3)
    a, b = 2 + z3, z3 - 1
    det = a * a - b * b
    inv = det.inv()
    matrix = ((a * inv, -b * inv), (-b * inv, a * inv))
    checker, quantum = HomChecker(OrbifoldRing(geom)), QuantumRing(geom, QPoint([z3, z3]))
    report = checker.check(matrix, quantum)
    assert report.passed
    # the transpose-inverse convention with a and b swapped must fail
    bad = ((b * inv, -a * inv), (-a * inv, b * inv))
    assert not checker.check(bad, quantum).passed


def test_solve_a2_exact_solutions():
    geom = default_geometry(2)
    result = solve_a2_symmetric(OrbifoldRing(geom), max_order=6)
    z3 = CycNum.zeta(3)
    got = {(key(s.q), key(s.a), key(s.b)) for s in result.solutions}
    want = {
        (key(z3), key(2 + z3), key(z3 - 1)),
        (key(z3.galois(-1)), key(1 - z3), key(-2 - z3)),
    }
    assert got == want
    # q = -1 hits the pole of the mixed span
    assert (Fraction(-1), (1, 2)) in [(q, span) for q, span in result.excluded] or any(
        isinstance(q, CycNum) and q == -1 and span == (1, 2)
        for q, span in result.excluded)
    assert result.to_json()["solutions"]


def test_solve_a2_computes_orbifold_products_once(monkeypatch):
    # the orbifold side does not depend on q: one basis product row per
    # unordered pair of the 4 module generators 1, sigma, e_1, e_2, shared
    # by every root and candidate; the other basis pairs are h-multiples
    calls = []
    build = SectorRing._basis_product

    def counting_build(self, i, j):
        if isinstance(self, OrbifoldRing):
            calls.append((i, j))
        return build(self, i, j)

    monkeypatch.setattr(SectorRing, "_basis_product", counting_build)
    solve_a2_symmetric(OrbifoldRing(default_geometry(2)), max_order=6)
    assert len(calls) == 4 * 5 // 2


def test_solve_a2_flags_reach_the_checker():
    # with the default flags the same call finds the zeta_3 pair
    # (test_solve_a2_exact_solutions)
    orb = OrbifoldRing(default_geometry(2), ConventionFlags("1"))
    result = solve_a2_symmetric(orb, max_order=6)
    assert result.solutions == []


def test_solve_a2_symplectic_all_roots_pass():
    geom = Geometry(2, BaseRing("projective_space", 1),
                    Fraction(3), Fraction(-3), Fraction(0))
    result = solve_a2_symmetric(OrbifoldRing(geom), max_order=4)
    # no quantum corrections: every pole-free root admits both sign choices
    roots = {key(s.q) if isinstance(s.q, CycNum) else s.q for s in result.solutions}
    assert len(roots) >= 4


P1 = BaseRing("projective_space", 1)


def _a2(l, m, k, base=P1):
    return Geometry(2, base, Fraction(l), Fraction(m), Fraction(k))


A2_POINT = _a2(0, 0, 0, BaseRing("point"))
A2_SYMPLECTIC = _a2(3, -3, 0)
SOLVE_CASES = (
    [(_a2(*lmk), "-1/(n+1)", 12 if lmk in ((1, 2, 1), (3, -3, 0)) else 6)
     for lmk in ((1, 2, 1), (3, -3, 0), (2, 1, 1), (1, 5, 2), (-1, 4, 1), (3, 3, 2))]
    + [(A2_POINT, "-1/(n+1)", 6)]
    + [(geom, twist, 6) for geom in (default_geometry(2), A2_POINT) for twist in ("1", "-1")]
    + [(default_geometry(2), "1/(n+1)", 6)])


def _count_residuals(monkeypatch):
    """({ring class: HomChecker._residual calls}, [q of each QuantumRing
    built that is not a ResolutionRing]), both counted as they happen."""
    residuals, built = Counter(), []
    residual, init = HomChecker._residual, QuantumRing.__init__

    def counting_residual(self, images, ring, i, j):
        residuals[type(ring)] += 1
        return residual(self, images, ring, i, j)

    def counting_init(self, geom, q):
        if type(self) is QuantumRing:
            built.append(q)
        init(self, geom, q)

    monkeypatch.setattr(HomChecker, "_residual", counting_residual)
    monkeypatch.setattr(QuantumRing, "__init__", counting_init)
    return residuals, built


def _assert_counters_live(residuals, built):
    # one check against a quantum ring adds its 10 generator-pair residuals
    # and the ring itself to the counters
    checker = HomChecker(OrbifoldRing(default_geometry(2)))
    before = residuals[QuantumRing], len(built)
    checker.check(a2_candidates()[0][2], QuantumRing(checker.geom, QPoint([CycNum.zeta(3)] * 2)))
    assert (residuals[QuantumRing], len(built)) == (before[0] + 10, before[1] + 1)


def test_symplectic_solve_computes_only_the_origin_products(monkeypatch):
    residuals, built = _count_residuals(monkeypatch)
    solve_a2_symmetric(OrbifoldRing(A2_SYMPLECTIC), max_order=12)
    # at k = 0 no delta enters a product: 10 generator pairs against the
    # classical ring for each of the 2 candidates solved (the other 2 are
    # their conjugates), and no quantum ring
    assert residuals == {ResolutionRing: 10 * 2} and built == []
    _assert_counters_live(residuals, built)


@pytest.mark.parametrize("geom,twist,max_order", SOLVE_CASES,
                         ids=[f"{g.base.model}-{g.l},{g.m},{g.k}-{t}-{o}"
                              for g, t, o in SOLVE_CASES])
def test_solve_matches_sweep(geom, twist, max_order):
    # the affine solve reports what one full hom check per root and
    # candidate finds, byte for byte (l = m = 3, k = 2 has 4 solutions)
    orb = OrbifoldRing(geom, ConventionFlags(twist))
    assert (solve_a2_symmetric(orb, max_order).to_json()
            == solve_a2_sweep(orb, max_order).to_json())


def test_solve_computes_no_product_per_root(monkeypatch):
    residuals, built = _count_residuals(monkeypatch)
    for max_order in (6, 12):
        residuals.clear()
        solve_a2_symmetric(OrbifoldRing(default_geometry(2)), max_order=max_order)
        # 10 generator pairs against the classical ring for each of the 2
        # candidates solved: the delta columns are read off
        # structure_constants, with no ring product and no quantum ring per
        # root, and the other 2 systems are conjugates
        assert residuals == {ResolutionRing: 10 * 2}
    assert built == []
    _assert_counters_live(residuals, built)


def _shape(v):
    """A value with its type and conductor; zeros, rational or cyclotomic, as 0."""
    if scalar_is_zero(v):
        return 0
    return ("cyc", v.conductor, v.coeffs) if isinstance(v, CycNum) else v


def _conductor(v):
    return v.conductor if isinstance(v, CycNum) else 1


def _one_conductor(matrix):
    """True when the nonzero entries of `matrix` share one conductor, 1 for a rational."""
    return len({_conductor(v) for row in matrix for v in row if not scalar_is_zero(v)}) <= 1


def _nonzero_shapes(system):
    """Every value of an AffineSystem with its type and conductor."""
    return (_shape(system.det), system.rank, [[_shape(v) for v in row] for row in system.rows],
            system.solution and {span: _shape(v) for span, v in system.solution.items()},
            system.point and [_shape(v) for v in system.point],
            system.inconsistent and (*system.inconsistent[:2], _shape(system.inconsistent[2])))


def _values(system):
    """Every scalar of an AffineSystem, in one fixed order."""
    return [system.det, *(v for row in system.rows for v in row),
            *(system.solution or {}).values(), *(system.point or ()),
            *(system.inconsistent or ())[2:]]


def _forward_reduced(row, pivot_rows, width):
    """`row` reduced by each pivot row in turn, as `_row_reduce` reduces a
    row below them: the pivot of a row is its first nonzero entry."""
    row = list(row)
    for pivot_row in pivot_rows:
        col = next(c for c in range(width) if not scalar_is_zero(pivot_row[c]))
        if not scalar_is_zero(row[col]):
            f = row[col] * (Fraction(1) / pivot_row[col])
            row[col:] = [x - f * y for x, y in zip(row[col:], pivot_row[col:])]
    return row


def _assert_solve_matches(orb, matrix, labelled_rows):
    """`HomChecker(orb).solve(matrix)` equals the system reduced from the reference
    rows `labelled_rows(orb, matrix)` of every basis pair, field by
    field; the witness of an inconsistency is one of those rows, and the
    pivot rows reduce it to exactly 0 = value.  Where the matrix has one
    conductor every nonzero value also has the reference's type and
    conductor.  Across conductors the reference's sums carry zero terms
    whose conductors the library never forms, so there each nonzero
    library value's conductor divides the reference's."""
    labels, rows = labelled_rows(orb, matrix)
    system = HomChecker(orb).solve(matrix)
    reference = reduced_system(orb.geom, matrix, labels, rows)
    assert system == reference
    if _one_conductor(matrix):
        assert _nonzero_shapes(system) == _nonzero_shapes(reference)
    else:
        pairs = list(zip(_values(system), _values(reference), strict=True))
        assert all(_conductor(want) % _conductor(got) == 0
                   for got, want in pairs if not scalar_is_zero(got))
    if system.inconsistent is not None:
        *label, value = system.inconsistent
        reduced = _forward_reduced(rows[labels.index(tuple(label))], system.rows,
                                   len(system.spans))
        assert all(scalar_is_zero(v) for v in reduced[:-1])
        assert reduced[-1] == value
        if _one_conductor(matrix):
            assert _shape(reduced[-1]) == _shape(value)
    return system


@pytest.mark.parametrize("geom,twist,max_order", SOLVE_CASES,
                         ids=[f"{g.base.model}-{g.l},{g.m},{g.k}-{t}"
                              for g, t, _ in SOLVE_CASES])
def test_solve_matches_unit_delta_rings_on_a2(geom, twist, max_order):
    # rank, rows in order, solution, point and inconsistency agree with the
    # system built over every basis pair from one ring per unit delta;
    # every nonzero value also has the same conductor
    orb = OrbifoldRing(geom, ConventionFlags(twist))
    for _, _, matrix in a2_candidates():
        _assert_solve_matches(orb, matrix, unit_ring_rows)


@pytest.mark.parametrize("n", range(1, 5))
def test_solve_matches_unit_delta_rings_on_fourier_maps(n):
    # a consistent system of full rank, solved at q = (zeta_{n+1}, ...)
    system = _assert_solve_matches(OrbifoldRing(default_geometry(n)), fourier_map(n),
                                   unit_ring_rows)
    assert system.rank == len(system.spans) and system.inconsistent is None
    assert system.point == (CycNum.zeta(n + 1),) * n


@pytest.mark.parametrize("kind", ["rational", "cyclotomic"])
@pytest.mark.parametrize("n", range(1, 5))
def test_solve_matches_unit_delta_rings_on_random_maps(n, kind):
    rng = random.Random(100 * n + len(kind))
    z = CycNum.zeta
    pool = ([Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(8)]
            if kind == "rational" else
            [Fraction(1), Fraction(-1, 2), z(3), z(4), z(3, 2) + z(4), 2 * z(4, 3), z(6)])
    for base in (BaseRing("projective_space", 1), BaseRing("point")):
        orb = OrbifoldRing(default_geometry(n, base))
        matrix = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        _assert_solve_matches(orb, matrix, unit_ring_rows)


def test_a2_candidates_match_the_closed_form_loop():
    # the last two candidates are conjugated, not solved: every entry has
    # the value, type, conductor, nums and den of the four-candidate loop
    got, want = a2_candidates(), a2_candidates_closed_form()
    assert len(got) == len(want) == 4
    for (a, b, matrix), (a2, b2, matrix2) in zip(got, want):
        assert (exact(a), exact(b)) == (exact(a2), exact(b2))
        assert [[exact(v) for v in row] for row in matrix] == [
            [exact(v) for v in row] for row in matrix2]


def test_a2_candidates_invert_two_determinants(monkeypatch):
    calls = []
    inv = CycNum.inv
    monkeypatch.setattr(CycNum, "inv", lambda self: calls.append(self) or inv(self))
    a2_candidates()
    assert len(calls) == 2


@pytest.mark.parametrize("geom,twist,max_order", SOLVE_CASES,
                         ids=[f"{g.base.model}-{g.l},{g.m},{g.k}-{t}"
                              for g, t, _ in SOLVE_CASES])
def test_solve_a2_solves_one_candidate_per_conjugate_pair(monkeypatch, geom, twist, max_order):
    # two solves, two conjugates: each derived system is, field by field,
    # the one a solve of its candidate gives
    orb = OrbifoldRing(geom, ConventionFlags(twist))
    solve, solved = HomChecker.solve, []
    monkeypatch.setattr(HomChecker, "solve",
                        lambda self, matrix: solved.append(matrix) or solve(self, matrix))
    result = solve_a2_symmetric(orb, max_order)
    assert len(solved) == 2
    checker = HomChecker(orb)
    for (a, b, system), (a2, b2, matrix) in zip(result.candidates, a2_candidates(), strict=True):
        assert (a, b) == (a2, b2)
        assert exact_system(system) == exact_system(solve(checker, matrix))


def _conjugate_matrix(matrix, u):
    return [[conjugate(v, u) for v in row] for row in matrix]


def _system_kind(system):
    if system.rank is None:
        return "singular"
    if system.inconsistent is not None:
        return "inconsistent"
    if system.rank == 0:
        return "rank 0"
    return "full rank" if system.point is not None else "other"


def test_solve_commutes_with_galois_on_the_known_maps():
    # the premise of conjugating instead of solving: solve(sigma_u M) is
    # solve(M).galois(u) field by field, for the Fourier maps (n = 1..3,
    # conductor 2(n + 1)) and the A_2 candidates, over a point, P^1 and P^2
    # under every flag, for every unit u
    maps = [fourier_map(n) for n in (1, 2, 3)] + [m for _, _, m in a2_candidates()]
    kinds = Counter()
    for base in (BaseRing("point"), BaseRing("projective_space", 1),
                 BaseRing("projective_space", 2)):
        for twist in TWIST_SELF_CHOICES:
            for matrix in maps:
                n = len(matrix)
                orb = OrbifoldRing(default_geometry(n, base), ConventionFlags(twist))
                checker = HomChecker(orb)
                system = checker.solve(matrix)
                big = max(v.conductor for row in matrix for v in row)
                for u in (u for u in range(1, big) if gcd(u, big) == 1):
                    got = checker.solve(_conjugate_matrix(matrix, u))
                    assert exact_system(got) == exact_system(system.galois(u))
                    kinds[_system_kind(got)] += 1
    assert sum(kinds.values()) == 192
    assert kinds["inconsistent"] and kinds["rank 0"] and kinds["full rank"]


@st.composite
def conjugate_cases(draw):
    """(orbifold ring, N, u, matrix): n = 1..3 over a point, P^1 or P^2
    under any flag, a unit u mod N = 3..12 and an n x n matrix of rationals,
    r zeta_N^a and sums of two powers of zeta_N."""
    n = draw(st.integers(1, 3), label="n")
    base = draw(st.sampled_from((BaseRing("point"), BaseRing("projective_space", 1),
                                 BaseRing("projective_space", 2))), label="base")
    twist = draw(st.sampled_from(TWIST_SELF_CHOICES), label="twist")
    big = draw(st.integers(3, 12), label="N")
    u = draw(st.sampled_from([u for u in range(1, big) if gcd(u, big) == 1]), label="u")
    power = st.integers(0, big - 1)
    entry = st.one_of(
        st.sampled_from((Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3))),
        st.builds(lambda a, r: CycNum.zeta(big, a) * r, power,
                  st.sampled_from((1, -1, Fraction(1, 2), Fraction(-2, 3)))),
        st.builds(lambda a, b: CycNum.zeta(big, a) + CycNum.zeta(big, b), power, power))
    matrix = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
                  label="matrix")
    return OrbifoldRing(default_geometry(n, base), ConventionFlags(twist)), big, u, matrix


@settings(max_examples=60, deadline=None)
@given(conjugate_cases())
def test_solve_of_a_conjugate_matrix_is_the_conjugate_system(case):
    orb, _, u, matrix = case
    checker = HomChecker(orb)
    got = checker.solve(_conjugate_matrix(matrix, u))
    assert exact_system(got) == exact_system(checker.solve(matrix).galois(u))


@settings(max_examples=40, deadline=None)
@given(conjugate_cases(), st.data())
def test_check_reports_the_conjugate_violations(case, data):
    # check(sigma M, ring at sigma q) reports sigma of each violation of
    # check(M, ring at q), in the same order, and its det note is sigma of det M
    orb, big, u, matrix = case
    n = orb.geom.n
    values = [data.draw(st.sampled_from((1, -1, Fraction(2))), label="scale")
              * CycNum.zeta(big, data.draw(st.integers(0, big - 1), label="power"))
              for _ in range(n)]
    assume(not QPoint(values).poles())
    checker = HomChecker(orb)
    report = checker.check(matrix, QuantumRing(orb.geom, QPoint(values)))
    conj = checker.check(_conjugate_matrix(matrix, u),
                         QuantumRing(orb.geom, QPoint([v.galois(u) for v in values])))
    assert conj.passed == report.passed
    assert [(pair, comp, exact(diff)) for pair, comp, diff in conj.violations] == [
        (pair, comp, exact(conjugate(diff, u))) for pair, comp, diff in report.violations]
    assert conj.notes == {"det": scalar_to_json(conjugate(_row_reduce(matrix, n).det, u))}


def test_solve_reports_why_each_candidate_passed_or_failed():
    z3 = CycNum.zeta(3)
    result = solve_a2_symmetric(OrbifoldRing(default_geometry(2)), max_order=1)
    systems = [s for _, _, s in result.candidates]
    assert [s.rank for s in systems] == [3] * 4
    solved = [s for s in systems if s.inconsistent is None]
    failed = [s for s in systems if s.inconsistent is not None]
    assert len(solved) == len(failed) == 2
    assert {key(s.point[0]) for s in solved} == {key(z3), key(z3.galois(-1))}
    for s in solved:
        q = s.point[0]
        assert s.point == (q, q)
        assert s.solution == {(1, 1): q / (1 - q), (1, 2): q * q / (1 - q * q),
                              (2, 2): q / (1 - q)}
    for s in failed:
        pair, component, value = s.inconsistent
        assert pair.startswith("e_") and component.startswith("E_")
        assert value != 0 and s.solution is None
    # kap = 0: no row depends on delta; two candidates fail at every point
    result = solve_a2_symmetric(OrbifoldRing(A2_SYMPLECTIC), max_order=1)
    systems = [s for _, _, s in result.candidates]
    assert [s.rank for s in systems] == [0] * 4
    failed = [s for s in systems if s.inconsistent is not None]
    assert len(failed) == 2
    for s in failed:
        assert s.rows == [] and s.inconsistent[2] != 0
    # q = 1 is a pole: no root is left to pass
    assert result.to_json()["solutions"] == []


def test_affine_system_below_full_rank_tests_the_atoms():
    # one row, delta_11 - delta_22 = 0: it holds exactly where q1 = q2
    system = AffineSystem(Fraction(1), [(1, 1), (1, 2), (2, 2)], rank=1,
                          rows=[[Fraction(1), Fraction(0), Fraction(-1), Fraction(0)]])
    assert system.holds_at(QPoint([CycNum.zeta(5), CycNum.zeta(5)]))
    assert not system.holds_at(QPoint([CycNum.zeta(5), CycNum.zeta(5, 2)]))
    assert not AffineSystem(Fraction(0), system.spans).holds_at(QPoint([Fraction(2)] * 2))

    # a system of rank 0 holds at every pole-free point without its atoms
    class NoAtoms(QPoint):
        def deltas(self):
            raise AssertionError("atoms evaluated")

    assert AffineSystem(Fraction(1), system.spans, rank=0).holds_at(NoAtoms([Fraction(2)] * 2))


def test_solve_agrees_with_check_on_a1():
    geom = default_geometry(1)
    checker, q = HomChecker(OrbifoldRing(geom)), QPoint([Fraction(-1)])
    quantum = QuantumRing(geom, q)
    half_i = CycNum.zeta(4) * Fraction(1, 2)
    for c in [half_i, -half_i, Fraction(0)] + a1_scalar_sweep(20):
        system = checker.solve(((c,),))
        assert system.holds_at(q) == checker.check(((c,),), quantum).passed, c
    assert checker.solve(((half_i,),)).point == (Fraction(-1),)


def test_associativity_reports():
    geom = default_geometry(2)
    assert check_associativity(OrbifoldRing(geom)).passed
    assert check_associativity(ResolutionRing(geom)).passed
    assert check_associativity(QuantumRing(geom, QPoint([CycNum.zeta(3)] * 2))).passed


def test_associativity_violation_names_component_and_difference():
    # over P^2 the square-zero model is only formal and the orbifold product
    # is not associative: (e_1 e_1) e_2 = (-h/3 e_2) e_2 = (2/9) h^2 e_1,
    # while e_1 (e_1 e_2) = e_1 sigma / 3 = 0
    geom = Geometry(2, BaseRing("projective_space", 2),
                    Fraction(1), Fraction(2), Fraction(1))
    report = check_associativity(OrbifoldRing(geom))
    assert not report.passed
    assert report.to_json()["violations"] == [
        {"pair": "(e_1, e_1, e_2)", "component": "e_1.h^2", "difference": "2/9"},
        {"pair": "(e_1, e_2, e_2)", "component": "e_2.h^2", "difference": "-2/9"},
    ]


BASES = {"point": BaseRing("point", 0), "P1": BaseRing("projective_space", 1),
         "P2": BaseRing("projective_space", 2), "P3": BaseRing("projective_space", 3)}
# q_1..q_5 at conductors 5, 3 and 4 between rationals; no span product is 1
MIXED_Q = [CycNum.zeta(5), Fraction(1, 2), CycNum.zeta(3), Fraction(-2), CycNum.zeta(4)]
# the default twist_self flag and one other, for the generator-sweep differentials
TWO_FLAGS = ("-1/(n+1)", "1")


def _candidates(n, seed):
    """(kind, matrix, q) for A_n: the Fourier map at its point
    (zeta_{n+1}, ...), conductor 2(n + 1), which passes over P^1; a random
    rational matrix at a rational point; and a random matrix of mixed
    conductors 3, 4 and 5 at the mixed-conductor point."""
    rng = random.Random(seed)
    z = CycNum.zeta
    rationals = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6)]
    mixed = [Fraction(1), Fraction(-1, 2), z(3), z(4), z(5, 2), z(3, 2) + z(4), 1 + z(5)]
    return [("fourier", fourier_map(n), [z(n + 1)] * n),
            ("rational", [[rng.choice(rationals) for _ in range(n)] for _ in range(n)],
             [Fraction(a + 2) for a in range(n)]),
            ("cyclotomic", [[rng.choice(mixed) for _ in range(n)] for _ in range(n)],
             MIXED_Q[:n])]


@pytest.mark.parametrize("twist", TWO_FLAGS)
@pytest.mark.parametrize("base", list(BASES))
@pytest.mark.parametrize("n", range(1, 5))
def test_check_matches_the_all_pairs_check(n, base, twist):
    # one difference per generator pair, shifted, against one per basis
    # pair: the JSON byte for byte (violation order, components, values and
    # conductors)
    orb = OrbifoldRing(default_geometry(n, BASES[base]), ConventionFlags(twist))
    checker = HomChecker(orb)
    for kind, matrix, q in _candidates(n, 10 * n + len(base)):
        quantum = QuantumRing(orb.geom, QPoint(q))
        got = checker.check(matrix, quantum)
        assert got.to_json() == check_all_pairs(orb, matrix, quantum).to_json(), kind
        if kind == "fourier" and base == "P1" and twist == TWO_FLAGS[0]:
            assert got.passed


@pytest.mark.parametrize("twist", TWO_FLAGS)
@pytest.mark.parametrize("base", list(BASES))
@pytest.mark.parametrize("n", range(1, 5))
def test_solve_matches_the_all_pairs_solve(n, base, twist):
    # the rows of the generator pairs against the rows of every basis pair
    orb = OrbifoldRing(default_geometry(n, BASES[base]), ConventionFlags(twist))
    for _, matrix, _ in _candidates(n, 10 * n + len(base)):
        _assert_solve_matches(orb, matrix, all_pairs_rows)


@pytest.mark.parametrize("base", list(BASES))
@pytest.mark.parametrize("n", range(1, 5))
def test_associativity_matches_the_all_triples_sweep(n, base):
    # one difference per generator triple, shifted, against one per basis
    # triple, JSON byte for byte; over P^2 the orbifold and classical rings
    # of A_2 are not associative
    geom = default_geometry(n, BASES[base])
    rings = ([OrbifoldRing(geom, ConventionFlags(t)) for t in TWO_FLAGS]
             + [ResolutionRing(geom), QuantumRing(geom, QPoint(MIXED_Q[:n]))])
    passed = []
    for ring in rings:
        report = check_associativity(ring)
        assert report.to_json() == associativity_all_triples(ring).to_json(), ring
        passed.append(report.passed)
    if base == "P2" and n == 2:
        assert passed[:3] == [False] * 3


def _raw(report):
    """A report's verdict and violations, each value with its type and exact
    fields: a Fraction and a conductor-1 CycNum of one value differ here,
    and not in the JSON."""
    return report.passed, [(pair, comp, type(v).__name__,
                            (v.conductor, v.nums, v.den) if isinstance(v, CycNum)
                            else (v.numerator, v.denominator))
                           for pair, comp, v in report.violations]


_ROOTS = st.builds(CycNum.zeta, st.sampled_from([2, 3, 4, 5, 6, 8, 12]), st.integers(0, 11))
_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# +-zeta_N^a, rationals, r zeta_N^a and -zeta_1, a conductor-1 CycNum
_Q = st.one_of(_ROOTS, _ROOTS.map(lambda z: -z), _RATIONALS,
               st.builds(lambda r, z: r * z, _RATIONALS.filter(bool), _ROOTS),
               st.just(-CycNum.zeta(1)))


@st.composite
def _assoc_rings(draw):
    """(make, label): a maker of fresh equal rings, orbifold under a twist
    flag, classical or quantum at a drawn point, over a drawn base."""
    n = draw(st.integers(1, 4))
    base = BASES[draw(st.sampled_from(list(BASES)))]
    k = draw(_RATIONALS)
    if n == 1:
        geom = Geometry(1, base, None, None, k)
    else:
        l = draw(_RATIONALS)
        geom = Geometry(n, base, l, (n + 1) * k - l, k)
    kind = draw(st.sampled_from(["orb", "classical", "quantum"]))
    if kind == "orb":
        flags = ConventionFlags(draw(st.sampled_from(TWIST_SELF_CHOICES)))
        return (lambda: OrbifoldRing(geom, flags)), (geom, flags)
    if kind == "classical":
        return (lambda: ResolutionRing(geom)), geom
    q = draw(st.lists(_Q, min_size=n, max_size=n))
    assume(not QPoint(q).poles())
    return (lambda: QuantumRing(geom, QPoint(q))), (geom, q)


@settings(max_examples=150, deadline=None)
@given(_assoc_rings())
def test_integer_sweep_matches_the_scalar_sweep(case):
    # the integer sweep against the sum_rows sweep it replaces: verdict,
    # labels, components and every value with its type, conductor,
    # numerators and denominator
    make, label = case
    assert _raw(check_associativity(make())) == _raw(associativity_by_rows(make())), label


class ParityScaledRing(OrbifoldRing):
    """The orbifold ring with g_i g_j scaled by zeta_5 for odd i + j and by
    zeta_4 for even: the sweep's components meet at conductors 4, 5 and 20
    within one ring."""

    def _compute_ee(self, i, j):
        scalar = CycNum.zeta(5) if (i + j) % 2 else CycNum.zeta(4)
        return {m: scalar * c for m, c in super()._compute_ee(i, j).items()}


@pytest.mark.parametrize("base", list(BASES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integer_sweep_keeps_each_components_conductor(n, base):
    # each component's value sits at the lcm of the conductors that reached
    # it, terms that cancel included; over P^2, A_3 has components at both
    # conductors 5 and 20
    geom = default_geometry(n, BASES[base])
    report = check_associativity(ParityScaledRing(geom))
    assert _raw(report) == _raw(associativity_by_rows(ParityScaledRing(geom)))
    if (n, base) == (3, "P2"):
        assert {v.conductor for _, _, v in report.violations} == {5, 20}


def test_integer_sweep_keeps_a_conductor_1_cycnum():
    # -zeta_1 is a CycNum at conductor 1, and so is every difference its
    # atom reaches
    geom = default_geometry(2, BASES["P2"])
    report = check_associativity(QuantumRing(geom, QPoint([-CycNum.zeta(1), Fraction(2)])))
    assert _raw(report) == _raw(associativity_by_rows(
        QuantumRing(geom, QPoint([-CycNum.zeta(1), Fraction(2)]))))
    assert report.violations
    assert all(isinstance(v, CycNum) and v.conductor == 1 for _, _, v in report.violations)


class WideConductorRing(OrbifoldRing):
    """The orbifold ring with g_i g_j scaled by zeta_7 for odd i + j and by
    zeta_20 for even: its rows' conductors have the lcm 140, over the
    default cap."""

    def _compute_ee(self, i, j):
        scalar = CycNum.zeta(7) if (i + j) % 2 else CycNum.zeta(20)
        return {m: scalar * c for m, c in super()._compute_ee(i, j).items()}


def test_integer_sweep_checks_the_lcm_of_the_rows_conductors():
    # the rows are lifted to the lcm of their conductors, checked against
    # the cap once, before any difference is summed
    with pytest.raises(ValueError, match="conductor 140 exceeds cap 120"):
        check_associativity(WideConductorRing(default_geometry(2)))


def test_rational_sweep_builds_no_cycnum(monkeypatch):
    # a rational ring's sweep runs on integers and Fractions only
    built = []
    init = CycNum.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    geom = default_geometry(3)
    rings = [OrbifoldRing(geom), ResolutionRing(geom),
             QuantumRing(geom, QPoint([Fraction(2), Fraction(-1, 2), Fraction(3)]))]
    monkeypatch.setattr(CycNum, "__init__", counting_init)
    for ring in rings:
        assert check_associativity(ring).passed
    assert built == []


@pytest.mark.parametrize("base", list(BASES))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_integer_sweep_reads_the_rows_the_scalar_sweep_reads(n, base):
    # the same basis products are built, h-multiples included, so the
    # H*(S) products of `SectorRing._basis_product` still run
    geom = default_geometry(n, BASES[base])
    for make in (lambda: OrbifoldRing(geom), lambda: ResolutionRing(geom),
                 lambda: QuantumRing(geom, QPoint(MIXED_Q[:n]))):
        ring, reference_ring = make(), make()
        check_associativity(ring)
        associativity_by_rows(reference_ring)
        assert set(ring._rows) == set(reference_ring._rows)


class CyclotomicPairingRing(OrbifoldRing):
    """The orbifold ring with every sector product scaled by zeta_5 + zeta_3,
    so that the Gram determinant is not rational and its JSON carries a
    conductor."""

    def _compute_ee(self, i, j):
        scalar = CycNum.zeta(5) + CycNum.zeta(3)
        return {m: scalar * c for m, c in super()._compute_ee(i, j).items()}


class PureSectorRing(OrbifoldRing):
    """The orbifold ring with 1 + h + ... + h^dim added to every sector
    product: a Gram entry of h^p g, h^q g' with p + q > dim read off the
    generator product at sigma h^(dim-p-q) would land on it."""

    def _compute_ee(self, i, j):
        return {**dict.fromkeys(range(self.geom.base.rank), Fraction(1)),
                **super()._compute_ee(i, j)}


def _table_rings(geom, base):
    """The orbifold ring under every twist_self flag, the classical ring and
    the quantum ring at a rational and at a mixed-conductor point.  Over P^2
    and P^3, where the reference sweep is slow, one orbifold flag and one
    resolution ring per n, which the n sweep rotates through."""
    n = geom.n
    orbs = [OrbifoldRing(geom, ConventionFlags(t)) for t in TWIST_SELF_CHOICES]
    resolutions = [ResolutionRing(geom),
                   QuantumRing(geom, QPoint([Fraction(a + 2) for a in range(n)])),
                   QuantumRing(geom, QPoint(MIXED_Q[:n]))]
    if base in ("point", "P1"):
        return orbs + resolutions
    return [orbs[n % 4], resolutions[n % 3]]


@pytest.mark.parametrize("base", list(BASES))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_table_checks_match_the_product_sweep(base, n):
    # the table-based checks against the by-mul sweep and the B^2-pairing
    # Gram they replace, JSON byte for byte: order, labels, components and
    # values with their conductors; over P^2 and P^3 there are violations
    geom = default_geometry(n, BASES[base])
    for ring in _table_rings(geom, base):
        assert check_associativity(ring).to_json() == associativity_by_mul(ring).to_json(), ring
        assert check_pairing_nondegenerate(ring) == pairing_by_gram(ring), ring
    if base in ("P2", "P3") and n > 1:
        assert not check_associativity(OrbifoldRing(geom)).passed


@pytest.mark.parametrize("q", [[Fraction(3)] * 2, [Fraction(2), Fraction(3)],
                               [CycNum.zeta(5), CycNum.zeta(5)]],
                         ids=["q=(3,3)", "q=(2,3)", "q=(zeta5,zeta5)"])
def test_table_checks_match_the_product_sweep_on_the_printed_table(q):
    ring = A2TableRing(default_geometry(2), PRINTED_A2_TABLE, QPoint(q))
    report = check_associativity(ring)
    assert not report.passed
    assert report.to_json() == associativity_by_mul(ring).to_json()
    assert report.to_json() == associativity_all_triples(ring).to_json()
    assert check_pairing_nondegenerate(ring) == pairing_by_gram(ring)


def test_gram_det_json_keeps_its_conductor():
    for n in (1, 2, 3):
        ring = CyclotomicPairingRing(default_geometry(n))
        out = check_pairing_nondegenerate(ring)
        assert out == pairing_by_gram(ring)
        assert out["nondegenerate"] and isinstance(out["gram_det"], dict)
    ring = QuantumRing(default_geometry(3), QPoint(MIXED_Q[:3]))
    assert check_pairing_nondegenerate(ring) == pairing_by_gram(ring)


@pytest.mark.parametrize("base", list(BASES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_is_read_off_the_generator_pairs(monkeypatch, base, n):
    # the Gram matrix read off the generator rows against every ordered
    # basis pair's sigma h^dim coefficient, entry by entry with its type and
    # conductor; a fresh ring builds only the (n+2)(n+3)/2 generator rows
    geom = default_geometry(n, BASES[base])
    rings = [lambda: OrbifoldRing(geom, ConventionFlags("1")), lambda: OrbifoldRing(geom),
             lambda: ResolutionRing(geom), lambda: QuantumRing(geom, QPoint(MIXED_Q[:n])),
             lambda: CyclotomicPairingRing(geom), lambda: PureSectorRing(geom)]
    grams = []
    reduce_rows = verify._row_reduce
    monkeypatch.setattr(verify, "_row_reduce",
                        lambda rows, width: grams.append(rows) or reduce_rows(rows, width))
    for make in rings:
        ring = make()
        check_pairing_nondegenerate(ring)
        assert len(ring._rows) == (n + 2) * (n + 3) // 2
        got, want = grams.pop(), gram_all_pairs(make())
        assert len(got) == len(want) == ring.size
        for row, expected in zip(got, want):
            assert row == expected
            assert [(type(v), getattr(v, "conductor", None)) for v in row] == [
                (type(v), getattr(v, "conductor", None)) for v in expected]


@pytest.mark.parametrize("base", list(BASES))
def test_structure_table_holds_both_orders(base):
    # SectorRing.product builds b_i b_j once per unordered pair and serves
    # it for both orders; check each order against the product by
    # generators in that order, conductors included
    geom = default_geometry(3, BASES[base])
    for ring in (OrbifoldRing(geom), QuantumRing(geom, QPoint(MIXED_Q[:3]))):
        basis = [x for _, x in labelled_basis(ring)]
        for i, j in itertools.product(range(len(basis)), repeat=2):
            row = ring.product(i, j)
            product = mul_by_generators(ring, basis[i], basis[j])
            assert {p: scalar_to_json(c) for p, c in row.items()} == {
                m: scalar_to_json(c) for m, c in enumerate(product.coeffs)
                if not scalar_is_zero(c)}, (i, j)


def _pool(conductor):
    """Scalars of Q(zeta_conductor), rationals for conductor 1; zero twice,
    so that classes have zero coordinates."""
    pool = [Fraction(0), Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3)]
    if conductor == 1:
        return pool
    z = CycNum.zeta(conductor)
    return pool + [z, z * Fraction(-1, 2), 1 + z * z, z - 3]


@st.composite
def rings_and_classes(draw):
    """(ring, x, y, one conductor): the orbifold ring under one twist_self
    flag, the classical or the quantum ring, for n = 1..5 over each base,
    with x, y and q drawn from one cyclotomic field or from three."""
    n = draw(st.integers(1, 5))
    geom = default_geometry(n, BASES[draw(st.sampled_from(list(BASES)))])
    conductor = draw(st.sampled_from([1, 3, 4, 5, None]))
    pool = _pool(conductor) if conductor else _pool(3) + _pool(4)[5:] + _pool(5)[5:]
    kind = draw(st.sampled_from(TWIST_SELF_CHOICES + ("classical", "quantum")))
    if kind == "classical":
        ring = ResolutionRing(geom)
    elif kind == "quantum":
        q = QPoint(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
        assume(not q.poles())
        ring = QuantumRing(geom, q)
    else:
        ring = OrbifoldRing(geom, ConventionFlags(kind))
    size = (n + 2) * geom.base.rank

    def draw_class():
        return DenseClass(geom, tuple(draw(st.lists(st.sampled_from(pool), min_size=size,
                                                     max_size=size))))

    return ring, draw_class(), draw_class(), conductor is not None


@settings(max_examples=150, deadline=None)
@given(rings_and_classes())
def test_mul_matches_the_product_by_generators(case):
    # the basis product table, summed over the nonzero coefficients of x
    # and y, against the reference that multiplies module generators.  The
    # values agree; the JSON also agrees when every scalar lies in one
    # field, where no sum can change a conductor.
    ring, x, y, one_conductor = case
    got, want = mul_by_table(ring, x, y), mul_by_generators(ring, x, y)
    assert got == want
    if one_conductor:
        assert ring.to_json(as_row(got)) == ring.to_json(as_row(want))


@st.composite
def orbifold_rings_and_matrices(draw):
    """(orb, matrix): the orbifold ring under one twist_self flag for n = 1..4
    over each base, and an n x n candidate matrix with every scalar drawn
    from one cyclotomic field or from three."""
    n = draw(st.integers(1, 4))
    geom = default_geometry(n, BASES[draw(st.sampled_from(list(BASES)))])
    orb = OrbifoldRing(geom, ConventionFlags(draw(st.sampled_from(TWIST_SELF_CHOICES))))
    conductor = draw(st.sampled_from([1, 3, 4, 5, None]))
    scalars = st.sampled_from(_pool(conductor) if conductor
                              else _pool(3) + _pool(4)[5:] + _pool(5)[5:])
    return orb, draw(st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n))


@settings(max_examples=150, deadline=None)
@given(orbifold_rings_and_matrices())
def test_residual_maps_the_orbifold_products_as_the_coordinate_walk(case):
    # the left side of HomChecker._residual, each generator pair's orbifold
    # product mapped through the generator images, against the reference
    # that walks every H*(S) coordinate, zeros included.  The values agree
    # (a sum of nonzero terms may cancel to 0).  A zero coordinate times an
    # entry keeps the entry's conductor in the reference's sum; the orbifold
    # rows are rational, so the JSON agrees where the matrix has one conductor.
    orb, matrix = case
    checker, classical = HomChecker(orb), ResolutionRing(orb.geom)
    images = checker._images(matrix)
    for xy in checker.products.values():
        assert all(isinstance(c, Fraction) for c in xy.values())
        got = checker._apply(images, xy)
        want = apply_candidate_by_coords(matrix, dense(orb.geom, xy))
        assert {m: c for m, c in got.items() if not scalar_is_zero(c)} == as_row(want)
        if _one_conductor(matrix):
            assert classical.to_json(got) == classical.to_json(as_row(want))


SCALARS = st.sampled_from([Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 3),
                           CycNum.zeta(3), CycNum.zeta(4) * Fraction(-1, 2),
                           1 + CycNum.zeta(5, 2), CycNum.zeta(3) - CycNum.zeta(4)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(SCALARS, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_matches_cofactor_expansion(matrix):
    assert _row_reduce(matrix, len(matrix)).det == det_by_cofactors(matrix)


def test_pairing_nondegenerate():
    geom = default_geometry(2)
    for ring in (OrbifoldRing(geom), ResolutionRing(geom)):
        out = check_pairing_nondegenerate(ring)
        assert out["nondegenerate"]
        assert out["rank"] == len(labelled_basis(ring))


def test_pairing_degenerate_base_detected():
    # twisted sectors whose products vanish pair to zero with every basis
    # element, so their rows of the Gram matrix vanish
    class ZeroSectorProducts(OrbifoldRing):
        def _compute_ee(self, i, j):
            return {}

    ring = ZeroSectorProducts(default_geometry(2))
    basis = labelled_basis(ring)
    twisted = [x for label, x in basis if "e_" in label]
    assert len(twisted) == 4
    assert all(pairing(ring, x, y) == 0 for x in twisted for _, y in basis)
    out = check_pairing_nondegenerate(ring)
    assert not out["nondegenerate"] and out["gram_det"] == "0"


def test_one_structure_constant_table_serves_every_ring():
    structure_constants.cache_clear()
    geom = default_geometry(2)
    product_table(ResolutionRing(geom))
    assert structure_constants.cache_info().misses == 1
    for values in ([CycNum.zeta(3)] * 2, [Fraction(2), Fraction(3)]):
        product_table(QuantumRing(geom, QPoint(values)))
    HomChecker(OrbifoldRing(geom)).solve(a2_candidates()[0][2])
    info = structure_constants.cache_info()
    assert info.misses == 1 and info.hits > 0


def test_derived_table_symmetry():
    # the reflection i -> 3 - i exchanges E1 and E2 and the L/M roles, so
    # every slot, sigma included, is the image of its reflection partner
    table = derived_a2_table()
    image = reflect_a2_table(table)
    for key, entry in table.items():
        assert image[key]["sigma"] == entry["sigma"], key
        for l in (1, 2):
            assert image[key][f"E{l}"] == entry[f"E{l}"], (key, l)


@pytest.mark.parametrize("q", [QPoint([Fraction(2), Fraction(3)]),
                               QPoint([Fraction(1, 2), Fraction(-1)])],
                         ids=["q=(2,3)", "q=(1/2,-1)"])
def test_derived_table_two_parameter(q):
    # At q1 != q2 the derived table is the quantum ring's product, and that
    # product pairs with each E_p as the classical one plus the three-point
    # invariants: sum over spans beta of <E_i, E_j, E_p>_beta delta_beta.
    geom = default_geometry(2)
    quantum, classical = QuantumRing(geom, q), ResolutionRing(geom)
    e = [generator(geom, a + 1) for a in (1, 2)]
    deltas = q.deltas()
    for (i, j), entry in derived_a2_table().items():
        product = generator_product(quantum, i, j)
        for l in (1, 2):
            m_part, l_part = entry[f"E{l}"]
            assert coords(product)[l + 1] == (em(geom).scale(evaluate(m_part, deltas))
                                              + ell(geom).scale(evaluate(l_part, deltas)))
        for p in (1, 2):
            correction = (pairing(quantum, product, e[p - 1])
                          - pairing(classical, generator_product(classical, i, j), e[p - 1]))
            assert correction == sum(
                gw_invariant(geom, curve_class(2, r, s),
                             [as_row(e[i - 1]), as_row(e[j - 1]), as_row(e[p - 1])])
                * deltas[(r, s)] for r, s in ((1, 1), (1, 2), (2, 2))), (i, j, p)


def test_printed_table_misprints_break_associativity():
    # Read as a ring, the printed A_2 table is associative only with both of
    # its misprints corrected.  With E2*E2.E2 corrected alone it is
    # associative at q1 = q2 but not at q1 != q2, so E1*E1.E2 is a second
    # misprint, not a labelling convention.  The derived table plays no part.
    geom = default_geometry(2)
    repaired, misprints = repair_a2_table(PRINTED_A2_TABLE)
    assert misprints == {"E1*E1.E2", "E2*E2.E2"}
    first_only = {key: dict(entry) for key, entry in repaired.items()}
    first_only[(1, 1)]["E2"] = PRINTED_A2_TABLE[(1, 1)]["E2"]

    def associative(table, q):
        return check_associativity(A2TableRing(geom, table, QPoint(q))).passed

    equal, distinct = [Fraction(3)] * 2, [Fraction(2), Fraction(3)]
    assert not associative(PRINTED_A2_TABLE, equal)
    assert not associative(PRINTED_A2_TABLE, distinct)
    assert associative(first_only, equal) and not associative(first_only, distinct)
    assert associative(repaired, equal) and associative(repaired, distinct)


def test_reconcile_structure():
    report = reconcile_6_2()
    assert set(report["transformations"]) == {
        "identity", "scale_3", "swap_LM", "scale_3_swap_LM"}
    best = report["best"]
    assert best["transformation"] == "scale_3_swap_LM"
    # one residual slot survives every normalization of the printed table
    assert best["mismatch_count"] == 1
    assert report["transformations"]["scale_3_swap_LM"]["mismatches"][0]["slot"] == "E2*E2.E2"
    slots = {s["product"]: s for s in report["slots"]}
    assert slots["E1*E1"]["E1_matches"] and slots["E1*E1"]["E2_matches"]
    assert slots["E1*E2"]["E1_matches"] and slots["E1*E2"]["E2_matches"]
    assert slots["E2*E2"]["E1_matches"] and not slots["E2*E2"]["E2_matches"]
    assert all(s["sigma_matches"] for s in report["slots"])


def test_reconcile_reports_a_sigma_slot_mismatch():
    # sigma slots do not depend on the normalization: a printed sigma
    # coefficient off by one is a mismatch under every transformation
    printed = {key: dict(entry) for key, entry in PRINTED_A2_TABLE.items()}
    printed[(1, 2)]["sigma"] = Fraction(2)
    report, baseline = reconcile_6_2(printed), reconcile_6_2()
    for name, result in report["transformations"].items():
        assert not result["matches_all"]
        sigma = {"slot": "E1*E2.sigma", "residual": {"const": "1"}}
        assert sigma in result["mismatches"]
        assert ([m for m in result["mismatches"] if m != sigma]
                == baseline["transformations"][name]["mismatches"])
    assert report["best"] == {"transformation": "scale_3_swap_LM", "mismatch_count": 2}
    assert [s["sigma_matches"] for s in report["slots"]] == [True, False, True]


def test_point_is_none_where_an_atom_has_no_span_product():
    # Q = delta/(1 + delta) has no value at delta = -1
    assert verify._point(default_geometry(1), {(1, 1): Fraction(-1)}) is None
    assert verify._point(default_geometry(1), {(1, 1): Fraction(1)}) == (Fraction(1, 2),)


def test_point_is_none_where_the_span_products_disagree():
    # delta = 1, 1/3, 1 are the atoms of q = (1/2, 1/2), with Q_12 = 1/4;
    # delta_12 = 1 asks for Q_12 = 1/2, which no point gives
    geom = default_geometry(2)
    deltas = {(1, 1): Fraction(1), (1, 2): Fraction(1, 3), (2, 2): Fraction(1)}
    assert verify._point(geom, deltas) == (Fraction(1, 2), Fraction(1, 2))
    assert verify._point(geom, {**deltas, (1, 2): Fraction(1)}) is None


@pytest.mark.parametrize("n", range(2, 5))
def test_checker_reads_the_products_of_the_ring_it_is_given(n):
    # over P^1 the twist_self flag scales e_a e_b for n >= 2: the checker
    # holds the generator rows of the ring it was handed, not the default
    # flag's
    geom = default_geometry(n)
    orb, default = OrbifoldRing(geom, ConventionFlags("1")), OrbifoldRing(geom)
    generators = range(0, orb.size, geom.base.rank)
    pairs = list(itertools.combinations_with_replacement(generators, 2))
    products = HomChecker(orb).products
    assert products == {(i, j): orb.product(i, j) for i, j in pairs}
    assert products != {(i, j): default.product(i, j) for i, j in pairs}
