"""Acceptance suite: the end-to-end checks the package must satisfy.

Each test prints one CRITERION line (pass/fail) and then asserts exactly;
no tolerances anywhere.  Timing budgets are asserted on the core computation.
"""

import time
from fractions import Fraction

import pytest

from crepant.cartan import cartan_inverse, cartan_matrix
from crepant.geometry import (
    BaseRing,
    Geometry,
    default_geometry,
)
from crepant.gw import gw_invariant
from crepant.cartan import CurveClass, curve_class
from crepant.mckay import (
    GroupSpec,
    dimension_vector_check,
    dynkin_verdict,
    mckay_graph,
)
from crepant.orbifold import OrbifoldRing
from crepant.quantum import QPoint, QuantumRing, structure_constants
from crepant.resolution import ResolutionRing
from crepant.scalars import CycNum
from crepant.verify import (
    PRINTED_A2_TABLE,
    HomChecker,
    _roots_of_unity,
    check_associativity,
    check_pairing_nondegenerate,
    reconcile_6_2,
    solve_a2_symmetric,
)
from reference import (
    a1_scalar_sweep,
    as_row,
    cartan_inverse_by_elimination,
    contracted_alpha,
    generator_product,
    generator_row,
    h_power,
    key,
    repair_a2_table,
    times_generator,
)


def report(num: int, ok: bool, label: str):
    print(f"\nCRITERION {num:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {num} failed: {label}"


def geometries(ns=(1, 2, 3, 4)):
    out = []
    for n in ns:
        point = BaseRing("point")
        classes = ((None, None, Fraction(1)) if n == 1
                   else (Fraction(1), Fraction(n), Fraction(1)))
        out.append(Geometry(n, point, *classes))
        out.append(default_geometry(n))
    return out


def test_criterion_01_a1_scalar_verification():
    start = time.perf_counter()
    geom = default_geometry(1)
    q = QPoint([Fraction(-1)])
    checker, quantum = HomChecker(OrbifoldRing(geom)), QuantumRing(geom, q)
    half_i = CycNum.zeta(4) * Fraction(1, 2)
    ok = checker.check(((half_i,),), quantum).passed
    ok = ok and checker.check(((-half_i,),), quantum).passed
    for c in a1_scalar_sweep(200):
        if checker.check(((c,),), quantum).passed:
            ok = False
            break
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 1.0,
           f"A_1 map passes only at c = +-i/2 over 200 scalars ({elapsed:.2f}s)")


def test_criterion_02_a2_solver():
    start = time.perf_counter()
    geom = default_geometry(2)
    result = solve_a2_symmetric(OrbifoldRing(geom), max_order=12)
    z3 = CycNum.zeta(3)
    got = {(key(s.q), key(s.a), key(s.b)) for s in result.solutions}
    want = {
        (key(z3), key(2 + z3), key(z3 - 1)),
        (key(z3.galois(-1)), key(1 - z3), key(-2 - z3)),
    }
    minus_one_excluded = any(q == -1 and span == (1, 2)
                             for q, span in result.excluded)
    elapsed = time.perf_counter() - start
    report(2, got == want and minus_one_excluded and elapsed < 10.0,
           f"A_2 symmetric solver: exactly the conjugate pair at zeta_3, "
           f"q = -1 pole on span (1,2) excluded ({elapsed:.2f}s)")


def test_criterion_03_symplectic_degeneration():
    start = time.perf_counter()
    geom = Geometry(2, BaseRing("projective_space", 1),
                    Fraction(3), Fraction(-3), Fraction(0))
    result = solve_a2_symmetric(OrbifoldRing(geom), max_order=12)
    pole_free = [r for r in _roots_of_unity(12) if not QPoint([r, r]).poles()]
    accepted = {key(s.q) if isinstance(s.q, CycNum)
                else key(CycNum(1, [s.q])) for s in result.solutions}
    ok = all((key(r) if isinstance(r, CycNum) else key(CycNum(1, [r])))
             in accepted for r in pole_free)
    elapsed = time.perf_counter() - start
    report(3, ok and elapsed < 10.0,
           f"kap = 0: all {len(pole_free)} pole-free roots of unity accepted "
           f"({elapsed:.2f}s)")


def test_criterion_04_cartan_closed_form():
    start = time.perf_counter()
    ok = True
    for n in range(1, 13):
        inv = cartan_inverse(n)
        ok = ok and inv == cartan_inverse_by_elimination(n)
        c = cartan_matrix(n)
        prod = [[sum(Fraction(c[i][k]) * inv[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
        ok = ok and all(prod[i][j] == (1 if i == j else 0)
                        for i in range(n) for j in range(n))
    elapsed = time.perf_counter() - start
    report(4, ok and elapsed < 1.0,
           f"closed-form Cartan inverse equals elimination, c c^-1 = I, n <= 12 "
           f"({elapsed:.2f}s)")


def classical_part(n, i, j):
    """(cm, ck) per E_l of E_i E_j; the table holds i <= j, so i > j is
    read at (j, i)."""
    _, slots = structure_constants(n)[(min(i, j), max(i, j))]
    return [(cm, series.const) for cm, series in slots]


def test_criterion_05_cross_formulation_identity():
    start = time.perf_counter()
    ok = all(classical_part(n, i, j) == contracted_alpha(n, i, j)
             for n in range(1, 5)
             for i in range(1, n + 1)
             for j in range(1, n + 1))
    elapsed = time.perf_counter() - start
    report(5, ok and elapsed < 1.0,
           f"printed E_i E_j twisted part equals the alpha-contraction, n <= 4 "
           f"({elapsed:.2f}s)")


def test_criterion_06_quantum_degeneration():
    start = time.perf_counter()
    ok = True
    for n in range(1, 5):
        geom = default_geometry(n)
        classical = ResolutionRing(geom)
        quantum = QuantumRing(geom, QPoint([Fraction(0)] * n))
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                ok = ok and generator_product(quantum, i, j) == generator_product(classical, i, j)
    elapsed = time.perf_counter() - start
    report(6, ok and elapsed < 1.0,
           f"quantum product at q = 0 equals the classical product, n <= 4 "
           f"({elapsed:.2f}s)")


def test_criterion_07_associativity_suites():
    start = time.perf_counter()
    ok = True
    points = []
    for r in _roots_of_unity(12):
        if not QPoint([r] * 3).poles():
            points.append(r)
        if len(points) == 20:
            break
    for geom in geometries(ns=(1, 2, 3)):
        ok = ok and check_associativity(OrbifoldRing(geom)).passed
        for r in points:
            q = QPoint([r] * geom.n)
            if q.poles():
                continue
            ok = ok and check_associativity(QuantumRing(geom, q)).passed
    elapsed = time.perf_counter() - start
    report(7, ok and len(points) == 20 and elapsed < 30.0,
           f"orbifold and quantum rings associative, n in 1..3, point and P^1 "
           f"bases, 20 q points ({elapsed:.2f}s)")


def test_criterion_08_gw_table():
    start = time.perf_counter()
    ok = True
    geom1 = default_geometry(1)  # integral of kap over P^1 is 1
    e = generator_row(geom1, 2)
    for a in range(1, 6):
        ok = ok and gw_invariant(geom1, CurveClass((a,)), [e, e, e]) == -8
    geom2 = default_geometry(2)
    e1 = generator_row(geom2, 2)
    e2 = generator_row(geom2, 3)
    ok = ok and gw_invariant(geom2, curve_class(2, 1, 1), [e1, e1, e2]) == 4
    sigma = generator_row(geom2, 1)
    h = as_row(times_generator(geom2, 0, h_power(geom2.base, 1)))
    ok = ok and gw_invariant(geom2, curve_class(2, 1, 1), [e1, e1, sigma]) == 0
    ok = ok and gw_invariant(geom2, curve_class(2, 1, 1), [e1, e1, h]) == 0
    ok = ok and gw_invariant(geom2, CurveClass((1, 2)), [e1, e1, e2]) == 0
    elapsed = time.perf_counter() - start
    report(8, ok and elapsed < 1.0,
           f"three-point invariants: -8, 4, and the vanishing cases "
           f"({elapsed:.2f}s)")


def test_criterion_09_mckay():
    start = time.perf_counter()
    ok = True
    for m in range(1, 10):
        graph = mckay_graph(GroupSpec("A", m - 1))
        verdict = dynkin_verdict(graph)
        want = ("affine A0 (double self-loop)" if m == 1
                else "affine A1 (double edge)" if m == 2
                else f"affine A{m - 1} (cycle)")
        ok = ok and verdict == want and dimension_vector_check(graph)
    quaternion = mckay_graph(GroupSpec("D", 4))  # order 8
    ok = ok and dynkin_verdict(quaternion) == "affine D4"
    ok = ok and dimension_vector_check(quaternion)
    for n in (6, 7, 8):
        graph = mckay_graph(GroupSpec("E", n))
        ok = ok and dynkin_verdict(graph) == f"affine E{n}"
        ok = ok and dimension_vector_check(graph)
    elapsed = time.perf_counter() - start
    report(9, ok and elapsed < 1.0,
           f"McKay graphs: cycles, affine D4 for the quaternions, affine E6/E7/E8 "
           f"({elapsed:.2f}s)")


def test_criterion_10_reconciliation():
    start = time.perf_counter()
    printed = reconcile_6_2()
    repaired, misprints = repair_a2_table(PRINTED_A2_TABLE)
    two_parameter = reconcile_6_2(repaired, q1_equals_q2=False)
    elapsed = time.perf_counter() - start
    # The printed table breaks its own rule that a slot's M and L parts carry
    # the same delta-terms in two slots: E2*E2.E2 reads delta_22 in L for the
    # 4 delta_22 of its M part, and E1*E1.E2 reads delta_11 in M for the
    # delta_22 of its L part.  Each is corrected by the reflection image of
    # its partner.  q1 = q2 hides the second, so on the table as printed the
    # best normalization leaves the first alone, with this exact residual.
    visible = {"slot": "E2*E2.E2",
               "residual_M": {"const": "0", "atoms": []},
               "residual_L": {"const": "0",
                              "atoms": [{"span": [1, 1], "coeff": "-3"}]}}
    others = {name: len(t["mismatches"])
              for name, t in printed["transformations"].items()
              if name != "scale_3_swap_LM"}
    checks = {
        "misprints": misprints == {"E1*E1.E2", "E2*E2.E2"},
        "corrected table, q1 != q2": two_parameter["matching"] == ["scale_3_swap_LM"],
        "printed table, q1 = q2":
            printed["transformations"]["scale_3_swap_LM"]["mismatches"] == [visible]
            and others == {"identity": 6, "scale_3": 6, "swap_LM": 6},
        "time": elapsed < 1.0,
    }
    failed = [name for name, passed in checks.items() if not passed]
    report(10, not failed,
           f"scale 1/3 + L<->M reconciles every slot of the printed A_2 table "
           f"once its misprints ({', '.join(sorted(misprints))}) are "
           f"corrected by its own reflection symmetry, with q1 != q2; as "
           f"printed, under q1 = q2, best = {printed['best']['transformation']} "
           f"with {printed['best']['mismatch_count']} mismatching slot(s) "
           f"({elapsed:.2f}s)"
           + (f"; failed: {', '.join(failed)}" if failed else ""))


def test_criterion_11_pairing_nondegenerate():
    start = time.perf_counter()
    ok = True
    for geom in geometries(ns=(1, 2, 3, 4)):
        for ring in (OrbifoldRing(geom), ResolutionRing(geom)):
            ok = ok and check_pairing_nondegenerate(ring)["nondegenerate"]
    elapsed = time.perf_counter() - start
    report(11, ok and elapsed < 1.0,
           f"Gram determinants nonzero for both rings, n <= 4, point and P^1 "
           f"bases ({elapsed:.2f}s)")
