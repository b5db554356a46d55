"""Verification toolkit: ring-isomorphism checks between the orbifold ring
and the quantum-corrected resolution ring, at one parameter point
(`HomChecker.check`) or at every pole-free point at once
(`HomChecker.solve`: the quantum product is affine in the atoms delta_rs,
so the condition is one exact linear system in them); the A_2
symmetric-ansatz solver, one such solve per candidate; associativity and
nondegeneracy checks, both read off the ring's basis products
(`SectorRing.product`); and the reconciliation of the derived A_2 quantum
products with their independently printed form.  Every determinant and
every reduced system comes from one exact row reduction, `_row_reduce`.

Every sector ring is a free H*(S)-module on the n + 2 generators 1, sigma,
g_1..g_n (basis indices g rank), its product is H*(S)-bilinear and a
candidate map is H*(S)-linear.  So the hom check, the solve and the
associativity sweep work on generator pairs or triples only: the residual
of b_i = h^p g, b_j = h^q g' (and b_k = h^r g'') is that of g, g' (and g'')
times h^s, s = p + q (+ r), which `_shift` reads off by moving each
component h^t to h^(t+s), dropped past h^dim.  The Gram matrix of the
pairing reads each entry off a generator pair's product the same way.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

from .geometry import Geometry, sum_rows
from .orbifold import OrbifoldRing
from .quantum import QPoint, QSeries, QuantumRing, all_spans, structure_constants
from .resolution import ResolutionRing
from .scalars import (ONE, ZERO, CycNum, _check_conductor, _reduce, lift_terms, scalar_is_zero,
                      scalar_to_json)


class _Record:
    """A mutable result record: equal to a record of its own class field by
    field, and shown with its fields in the order `__init__` sets them."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class HomReport(_Record):
    """A hom check's verdict: each violation is (pair, component, difference)."""

    def __init__(self, passed: bool, violations: list | None = None, notes: dict | None = None):
        self.passed = passed
        self.violations = [] if violations is None else violations
        self.notes = {} if notes is None else notes

    def to_json(self):
        return {"passed": self.passed,
                "violations": [
                    {"pair": pair, "component": comp, "difference": scalar_to_json(diff)}
                    for pair, comp, diff in self.violations
                ],
                "notes": self.notes}


# rows: the reduced rows, the first len(pivots) of them the pivot rows;
# order: the input index of each row; pivots: the pivot column of each
# pivot row; det: the signed product of the pivots, 0 if a column has none
Reduction = namedtuple("Reduction", "rows order pivots det")


def _row_reduce(rows, width: int) -> Reduction:
    """Exact Gaussian elimination of `rows` on their first `width` columns;
    any later column (a right-hand side) rides along.  Column by column,
    the first row from the next pivot position down with a nonzero entry
    moves up to it and clears the rows below it; a pivot is inverted only
    when a row below it has to be cleared.  The rows it passes keep their
    order, so a row that repeats an earlier row never becomes a pivot and
    reduces to zero: the result does not change when such rows are dropped.
    For a square matrix `det` is the determinant.  The one linear-algebra
    routine of this module."""
    mat = [list(row) for row in rows]
    order = list(range(len(mat)))
    pivots = []
    det = Fraction(1)
    for col in range(width):
        top = len(pivots)
        piv = next((r for r in range(top, len(mat)) if not scalar_is_zero(mat[r][col])), None)
        if piv is None:
            continue
        if piv != top:
            mat.insert(top, mat.pop(piv))
            order.insert(top, order.pop(piv))
            if (piv - top) % 2:
                det = -det
        pivot = mat[top][col]
        det = det * pivot
        inv = None
        for r in range(top + 1, len(mat)):
            if not scalar_is_zero(mat[r][col]):
                if inv is None:
                    inv = Fraction(1) / pivot
                f = mat[r][col] * inv
                mat[r][col:] = [x - f * y for x, y in zip(mat[r][col:], mat[top][col:])]
        pivots.append(col)
    return Reduction(mat, order, pivots, det if len(pivots) == width else Fraction(0))


def _component_names(geom: Geometry, letter: str) -> list:
    """The label of each coefficient, that of h^p g the m-th, m = g rank + p; sectors `letter`_a."""
    names = ["pure", "sigma"] + [f"{letter}_{a}" for a in range(1, geom.n + 1)]
    return [f"{name}.h^{p}" for name in names for p in range(geom.base.rank)]


def _shift(items, s: int, rank: int):
    """h^s times the class with the nonzero coefficients `items` (m, c):
    each h^t g component, m = g rank + t, moves to h^(t+s) and is dropped
    past h^dim; nothing lands below h^s."""
    return ((m + s, c) for m, c in items if m % rank + s < rank)


class AffineSystem(_Record):
    """A candidate map's ring-isomorphism condition as one exact linear
    system in the atoms delta_rs, row-reduced (`HomChecker.solve`).

    The system holds at a pole-free point exactly where the map is a ring
    isomorphism there.  `rank` is that of the coefficient columns, one per
    span; `rows` are the pivot rows (coefficients, then right-hand side).
    A consistent system of full rank has the one `solution`
    {span: delta}, and `point` is the (q_1..q_n) it comes from, or None if
    no point gives those deltas.  An inconsistent one names its first row
    that reduces to 0 = value != 0 as (product, component, value).  The
    rows are those of the generator pairs, so the product is one of those:
    the rows of every other basis pair repeat them, and `_row_reduce`
    reaches the same pivot rows and names the same row with or without the
    repeats.  A singular matrix gets no system: rank None."""

    def __init__(self, det, spans: list, rank: int | None = None, rows: list | None = None,
                 solution: dict | None = None, point: tuple | None = None,
                 inconsistent: tuple | None = None):
        self.det = det
        self.spans = spans
        self.rank = rank
        self.rows = [] if rows is None else rows
        self.solution = solution
        self.point = point
        self.inconsistent = inconsistent

    def galois(self, u: int) -> "AffineSystem":
        """The system of sigma_u(M), sigma_u: zeta_N -> zeta_N^u: every
        structure constant is rational, so the solve commutes with sigma_u.
        Fractions, spans, rank and labels are kept."""
        def s(v):
            return v.galois(u) if isinstance(v, CycNum) else v

        return AffineSystem(
            s(self.det), self.spans, self.rank, [[s(v) for v in row] for row in self.rows],
            self.solution and {span: s(v) for span, v in self.solution.items()},
            self.point and tuple(s(v) for v in self.point),
            self.inconsistent and (*self.inconsistent[:2], s(self.inconsistent[2])))

    def holds_at(self, q: QPoint) -> bool:
        """True when the map is a ring isomorphism at the pole-free q."""
        if self.rank is None or self.inconsistent is not None:
            return False
        if self.rank == len(self.spans):
            return self.point is not None and all(
                v == p for v, p in zip(q.values, self.point))
        if not self.rows:
            # rank 0 (as at k = 0): no atom is evaluated
            return True
        deltas = q.deltas()
        return all(sum(c * deltas[span] for c, span in zip(row, self.spans)) == row[-1]
                   for row in self.rows)


def _point(geom: Geometry, deltas: dict):
    """The (q_1..q_n) whose atoms are `deltas`, or None: Q = delta/(1 + delta)
    on every span, q_l = Q_ll and Q_rs = q_r ... q_s."""
    spans = {}
    for span, delta in deltas.items():
        if scalar_is_zero(1 + delta):
            return None
        spans[span] = delta / (1 + delta)
    q = QPoint([spans[(l, l)] for l in range(1, geom.n + 1)])
    if all(q.span_product(*span) == value for span, value in spans.items()):
        return q.values
    return None


def reduce_system(geom: Geometry, det, labels: list, rows: list) -> AffineSystem:
    """The AffineSystem of a nonsingular candidate, determinant `det`, from
    its condition `rows` (one coefficient per span, then the right-hand side)
    labelled (product, component): row-reduced, then back-substituted."""
    spans = all_spans(geom.n)
    red = _row_reduce(rows, len(spans))
    rank = len(red.pivots)
    system = AffineSystem(det, spans, rank, red.rows[:rank])
    for k in range(rank, len(rows)):
        if not scalar_is_zero(red.rows[k][-1]):
            system.inconsistent = (*labels[red.order[k]], red.rows[k][-1])
            return system
    if rank == len(spans):
        # back substitution; pivot k sits in column k
        delta = [None] * rank
        for k in range(rank - 1, -1, -1):
            row = red.rows[k]
            known = sum(row[c] * delta[c] for c in range(k + 1, rank))
            delta[k] = (row[-1] - known) / row[k]
        system.solution = dict(zip(spans, delta))
        system.point = _point(geom, system.solution)
    return system


class HomChecker:
    """Checks candidate isomorphisms from the orbifold ring `orb` to the
    quantum rings of its geometry.

    A candidate is an n x n matrix of Fraction or CycNum entries: the map is
    the identity on untwisted classes and sends the twisted sector e_a to
    sum_l matrix[a][l] * E_l.  Both products are H*(S)-bilinear and the map
    is H*(S)-linear, so every class maps through the images of the n + 2
    module generators, at basis indices `generators`, and every condition is
    one on a pair of them.  Their orbifold products, sparse rows {m: c}, do
    not depend on q: they are read off `orb` once for every check and solve."""

    def __init__(self, orb: OrbifoldRing):
        self.geom = orb.geom
        self.labels = orb.labels()
        self.generators = range(0, orb.size, orb.geom.base.rank)
        self.products = {(i, j): orb.product(i, j)
                         for i in self.generators for j in self.generators if i <= j}

    def _images(self, matrix) -> dict:
        """{i: the candidate's image of b_i, a sparse row} over the generator indices
        i: 1 and sigma are fixed, and g_a goes to sum_l matrix[a][l] E_l, no zero term."""
        rank = self.geom.base.rank
        return {0: {0: ONE}, rank: {rank: ONE}} | {
            g * rank: {(l + 2) * rank: e for l, e in enumerate(row) if not scalar_is_zero(e)}
            for g, row in enumerate(matrix, start=2)}

    def _apply(self, images, row: dict) -> dict:
        """The candidate's image of the class `row` {m: c}: c b_m, b_m = h^p g,
        goes to c h^p (M g), the image of g moved up by `_shift`."""
        rank = self.geom.base.rank
        return sum_rows((c, dict(_shift(images[m - m % rank].items(), m % rank, rank)))
                        for m, c in row.items())

    def _det(self, matrix):
        """The determinant of the candidate matrix, which must be n x n."""
        if {len(matrix), *map(len, matrix)} != {self.geom.n}:
            raise ValueError("candidate matrix has the wrong size")
        return _row_reduce(matrix, self.geom.n).det

    def _residual(self, images, ring, i: int, j: int) -> dict:
        """M(b_i b_j) - (M b_i)(M b_j) in `ring` for generator indices i <= j, the
        left side mapped by `_apply`, the right side read off `ring.product`, as
        its nonzero coefficients {m: c} in the order of m, each subtracted only
        where the two sides differ."""
        lhs = self._apply(images, self.products[i, j])
        rhs = sum_rows((a * b, row) for p, a in images[i].items() for q, b in images[j].items()
                       if (row := ring.product(p, q)))
        return {m: a - b for m in sorted(lhs.keys() | rhs.keys())
                if (a := lhs.get(m, ZERO)) != (b := rhs.get(m, ZERO))}

    def check(self, matrix, quantum: QuantumRing) -> HomReport:
        """Exact multiplicativity of the candidate map into `quantum` on all
        unordered pairs of orbifold basis elements, plus invertibility of
        the matrix.  The difference of a pair b_i = h^p g, b_j = h^q g' is
        that of the generator pair g, g' shifted by h^(p+q), so one
        difference is formed per generator pair."""
        det = self._det(matrix)
        if quantum.geom != self.geom:
            raise ValueError("quantum ring of another geometry")
        report = HomReport(passed=True)
        report.notes["det"] = scalar_to_json(det)
        if scalar_is_zero(det):
            report.passed = False
            report.violations.append(("matrix", "det", det))
            return report
        images = self._images(matrix)
        names = _component_names(self.geom, quantum.letter)
        rank = self.geom.base.rank
        diffs = {key: self._residual(images, quantum, *key).items() for key in self.products}
        labels = self.labels
        # twisted sectors first, from the end of the basis: `verify-a1`
        # prints the violations in this order, which the golden digests pin
        for i in range(len(labels) - 1, -1, -1):
            for j in range(len(labels) - 1, i - 1, -1):
                key = (i - i % rank, j - j % rank)
                for m, val in _shift(diffs[key], i % rank + j % rank, rank):
                    report.passed = False
                    report.violations.append((f"{labels[i]} * {labels[j]}", names[m], val))
        return report

    def solve(self, matrix) -> AffineSystem:
        """Where the candidate map is a ring isomorphism, for every
        pole-free q at once.

        The quantum product is affine in the atoms delta_beta, so on each
        pair of basis elements, with images x = M b_i and y = M b_j, the
        residual M(b_i b_j) - x y is L - R_0 - sum_beta delta_beta
        R_beta: L from the shared orbifold products, R_0 the classical x y,
        and R_beta the delta_beta part of the quantum x y.  All three are
        H*(S)-bilinear, so the rows of b_i = h^p g, b_j = h^q g' are those
        of the generator pair g, g' moved up by h^(p+q): only generator
        pairs give rows.  R_beta is k x_a y_b c_beta at h^1 E_l, summed over
        the nonzero sector coefficients x_a, y_b of the two images (in h^0) and
        the atoms (beta, c_beta) of slot l of E_a E_b in `structure_constants`.
        Each nonzero component is one row; `reduce_system` reduces them."""
        n, rank = self.geom.n, self.geom.base.rank
        spans = all_spans(n)
        det = self._det(matrix)
        if scalar_is_zero(det):
            return AffineSystem(det, spans)
        classical = ResolutionRing(self.geom)
        images = self._images(matrix)
        # {(p, q): {(m, span): k c_span}} over the atoms of slot l of E_a E_b
        # at m = h^1 E_l, b_p = E_a, b_q = E_b; none where k h = 0
        k = self.geom.k if rank > 1 else ZERO
        columns = {((a + 1) * rank, (b + 1) * rank):
                   {((l + 1) * rank + 1, span): k * c
                    for l, (_, series) in enumerate(slots, start=1) for span, c in series.atoms}
                   for (a, b), (_, slots) in structure_constants(n).items() if k}
        names = _component_names(self.geom, ResolutionRing.letter)
        labels, rows = [], []
        for i, j in self.products:
            rhs = self._residual(images, classical, i, j)
            # {(m, span): the delta_span coefficient at component m}
            roots = sum_rows((x * y, column) for p, x in images[i].items()
                             for q, y in images[j].items()
                             if (column := columns.get((min(p, q), max(p, q)))))
            for m in range(len(self.labels)):
                row = [roots.get((m, span), ZERO) for span in spans] + [rhs.get(m, ZERO)]
                if not all(scalar_is_zero(v) for v in row):
                    labels.append((f"{self.labels[i]} * {self.labels[j]}", names[m]))
                    rows.append(row)
        return reduce_system(self.geom, det, labels, rows)


class A2Solution(_Record):
    """A solution (a, b) of the symmetric ansatz at the common value q = q1 = q2."""

    def __init__(self, q, a, b):
        self.q = q
        self.a = a
        self.b = b

    def to_json(self):
        return {"q": scalar_to_json(self.q), "a": scalar_to_json(self.a),
                "b": scalar_to_json(self.b)}


class A2SolveResult(_Record):
    """The solutions, the (q, span) pole exclusions and, not in `to_json`,
    (a, b, AffineSystem) per candidate: why it passed or failed."""

    def __init__(self, solutions: list, excluded: list, candidates: list | None = None):
        self.solutions = solutions
        self.excluded = excluded
        self.candidates = [] if candidates is None else candidates

    def to_json(self):
        return {"solutions": [s.to_json() for s in self.solutions],
                "excluded": [{"q": scalar_to_json(q), "span": list(span)}
                             for q, span in self.excluded]}


def _roots_of_unity(max_order: int):
    """All roots of unity of order <= max_order, as exact cyclotomic numbers,
    ordered by (order, power)."""
    return [CycNum.zeta(d, k) for d in range(1, max_order + 1)
            for k in range(1, d + 1) if gcd(k, d) == 1]


def a2_candidates():
    """(a, b, matrix) for the four sign choices of the symmetric A_2 ansatz
    E_i = a e_i + b e_{3-i}: the untwisted constraints force a b = -3 and
    a^2 + b^2 = 3, solved in closed form inside Q(zeta_3).  The matrix
    sends sectors to divisors.  The first two have a + b = sqrt(-3), and
    the last two are their complex conjugates, `galois(-1)`."""
    sqrt_m3 = 1 + 2 * CycNum.zeta(3)  # a square root of -3
    candidates = []
    for d in (3, -3):                  # a - b
        a = (sqrt_m3 + d) * Fraction(1, 2)
        b = (sqrt_m3 - d) * Fraction(1, 2)
        # the inverse of ((a, b), (b, a)); its det (a + b)(a - b) is not 0
        inv_det = (a * a - b * b).inv()
        diag, off = a * inv_det, -b * inv_det
        candidates.append((a, b, ((diag, off), (off, diag))))
    return candidates + [(a.galois(-1), b.galois(-1),
                          tuple(tuple(v.galois(-1) for v in row) for row in matrix))
                         for a, b, matrix in candidates]


def solve_a2_symmetric(orb: OrbifoldRing, max_order: int = 12) -> A2SolveResult:
    """Solve the symmetric A_2 ansatz from the orbifold ring `orb` over roots
    of unity q1 = q2 of order <= max_order.

    Each of the four `a2_candidates` is settled once, for every pole-free q,
    by the exact affine system of `HomChecker.solve`; no ring product is
    computed per root.  Two solves, two conjugates: the last two candidates
    conjugate the first two, so their systems are the first two's
    `galois(-1)`.  The roots are then walked in order: a root at a pole is
    excluded with its spans, and a pole-free root is a solution for each
    candidate whose system holds there."""
    if orb.geom.n != 2:
        raise ValueError("the symmetric ansatz is for n = 2")
    checker = HomChecker(orb)
    candidates = a2_candidates()
    systems = [checker.solve(matrix) for _, _, matrix in candidates[:2]]
    systems += [system.galois(-1) for system in systems]
    candidates = [(a, b, system) for (a, b, _), system in zip(candidates, systems)]
    solutions = []
    excluded = []
    for root in _roots_of_unity(max_order):
        q = QPoint([root, root])
        poles = q.poles()
        if poles:
            excluded.extend((root, span) for span in poles)
            continue
        solutions.extend(A2Solution(q=root, a=a, b=b)
                         for a, b, system in candidates if system.holds_at(q))
    return A2SolveResult(solutions=solutions, excluded=excluded, candidates=candidates)


def check_associativity(ring) -> HomReport:
    """(x y) z = x (y z) over all basis triples i <= j <= k, exact, read off
    `ring.product` (b_i b_j = sum_m c_ij^m b_m): (b_i b_j) b_k = sum_m c_ij^m b_m b_k
    and b_i (b_j b_k) = sum_m c_jk^m b_i b_m, so no ring product is formed per triple.
    The difference is formed once per generator triple, and that of b_i = h^p g,
    b_j = h^q g', b_k = h^r g'' is the one of g, g', g'' shifted by h^(p+q+r).
    Each violation names the first nonzero component of the difference and its value.

    The rows read, the generator pairs' and (m, g) for each index m of one
    and each generator g, are lifted once to integer terms over D at the
    lcm N of their conductors (`lift_terms`).  Each difference is summed on
    integers keyed by (component, exponent mod N), and a component is built
    only where they are nonzero: a Fraction over D^2, or where a CycNum
    coefficient reached it, the CycNum at the lcm M of the conductors that
    did (the `+` and `*` rule, kept where the terms cancel), its exponents
    divided by N/M and reduced once."""
    report = HomReport(passed=True)
    labels = ring.labels()
    names = _component_names(ring.geom, ring.letter)
    rank = ring.geom.base.rank
    generators = range(0, ring.size, rank)
    rows = {(i, j): ring.product(i, j) for i, j in combinations_with_replacement(generators, 2)}
    rows.update({(m, g): ring.product(m, g)
                 for m in {m for row in rows.values() for m in row} for g in generators})
    n, d, lift, mixed = lift_terms([c for row in rows.values() for c in row.values()])
    if mixed:
        # rows of two conductors meet at N: the cap is checked there, once
        _check_conductor(n)
    # {(a, b): [(m, lift(c), the conductor of c or 0 for a Fraction)]} for b_a b_b
    lifted = {key: [(m, lift(c), c.conductor if isinstance(c, CycNum) else 0)
                    for m, c in row.items()] for key, row in rows.items()}
    den = d * d
    diffs = {}
    for i, j, k in combinations_with_replacement(generators, 3):
        # {p N + e: integer coefficient of x^e at component p}; {p: M}
        acc, conductors = {}, {}
        for sign, outer, g in ((1, (i, j), k), (-1, (j, k), i)):
            for m, x, cx in lifted[outer]:
                for p, y, cy in lifted[m, g]:
                    if cx or cy:
                        conductors[p] = lcm(conductors.get(p, 1), cx or 1, cy or 1)
                    for e, a in x:
                        a *= sign
                        for e2, b in y:
                            key = p * n + (e + e2) % n
                            acc[key] = acc.get(key, 0) + a * b
        components = {}
        for key, s in acc.items():
            if s:
                components.setdefault(key // n, []).append((key % n, s))
        diff = diffs[i, j, k] = []
        for p in sorted(components):
            if p not in conductors:
                diff.append((p, Fraction(components[p][0][1], den)))
                continue
            big = conductors[p]
            step = n // big
            nums = _reduce(big, ((e // step, s) for e, s in components[p]))
            if any(nums):
                diff.append((p, CycNum(big, nums, den)))
    if not any(diffs.values()):
        # associative: no basis triple has a violation to report
        return report
    for i, lx in enumerate(labels):
        for j in range(i, len(labels)):
            for k in range(j, len(labels)):
                first = next(_shift(diffs[i - i % rank, j - j % rank, k - k % rank],
                                    i % rank + j % rank + k % rank, rank), None)
                if first is not None:
                    report.passed = False
                    report.violations.append(
                        (f"({lx}, {labels[j]}, {labels[k]})", names[first[0]], first[1]))
    return report


def check_pairing_nondegenerate(ring) -> dict:
    """Exact Gram determinant of the Poincare pairing on the model basis.
    The pairing of b_i and b_j is the integral of b_i b_j, its sigma h^dim
    coefficient.  The product is H*(S)-bilinear, so for b_i = h^p g and
    b_j = h^q g' that is the sigma h^(dim-p-q) coefficient of g g', read off
    `ring.product` of the generator pair, and 0 when p + q > dim: only the
    generator pairs' rows are built."""
    size, rank = ring.size, ring.geom.base.rank
    top = 2 * rank - 1
    det = _row_reduce([[ring.product(i - i % rank, j - j % rank).get(top - s, ZERO)
                        if (s := i % rank + j % rank) < rank else ZERO for j in range(size)]
                       for i in range(size)], size).det
    return {"nondegenerate": not scalar_is_zero(det),
            "gram_det": scalar_to_json(det),
            "rank": size}


# -- reconciliation of the derived A_2 quantum table with the printed one --

D1 = (1, 1)
D2 = (2, 2)
D3 = (1, 2)


def _merge_d2(series: QSeries) -> QSeries:
    """Specialize q1 = q2: delta_22 becomes delta_11."""
    return series.merge_spans(lambda span: D1 if span == D2 else span)


def _qs(const=0, d1=0, d2=0, d3=0) -> QSeries:
    return QSeries.from_dict(Fraction(const), {D1: Fraction(d1), D2: Fraction(d2),
                                               D3: Fraction(d3)})


# The independently printed A_2 quantum products, coefficients of M and L
# per exceptional divisor (sigma coefficient separate).
PRINTED_A2_TABLE = {
    (1, 1): {"sigma": Fraction(-2),
             "E1": (_qs(2, d1=4, d3=1), _qs(3, d1=4, d3=1)),
             "E2": (_qs(0, d1=1, d3=1), _qs(2, d2=1, d3=1))},
    (1, 2): {"sigma": Fraction(1),
             "E1": (_qs(-1, d1=-2, d3=1), _qs(0, d1=-2, d3=1)),
             "E2": (_qs(0, d2=-2, d3=1), _qs(-1, d2=-2, d3=1))},
    (2, 2): {"sigma": Fraction(-2),
             "E1": (_qs(2, d1=1, d3=1), _qs(0, d1=1, d3=1)),
             "E2": (_qs(3, d2=4, d3=1), _qs(2, d2=1, d3=1))},
}

TRANSFORMATIONS = ("identity", "scale_3", "swap_LM", "scale_3_swap_LM")


def derived_a2_table():
    """The A_2 quantum products of `structure_constants(2)`, written in the
    (M, L) coordinates via k = (L + M)/3."""
    third = Fraction(1, 3)
    table = {}
    for key, (sigma, slots) in structure_constants(2).items():
        table[key] = {"sigma": sigma}
        for l, (cm, series) in enumerate(slots, start=1):
            table[key][f"E{l}"] = (cm + third * series, third * series)
    return table


def _transform(entry_val, name):
    m_part, l_part = entry_val
    if name in ("scale_3", "scale_3_swap_LM"):
        m_part, l_part = 3 * m_part, 3 * l_part
    if name in ("swap_LM", "scale_3_swap_LM"):
        m_part, l_part = l_part, m_part
    return m_part, l_part


def reconcile_6_2(printed=None, q1_equals_q2: bool = True) -> dict:
    """Compare the derived A_2 quantum product table against a printed table
    (by default `PRINTED_A2_TABLE`) slot by slot, for each of the four
    candidate normalizations.  Both sides are specialized to q1 = q2 unless
    `q1_equals_q2` is false, in which case delta_11 and delta_22 are
    compared separately."""
    printed = PRINTED_A2_TABLE if printed is None else printed
    specialize = _merge_d2 if q1_equals_q2 else (lambda series: series)
    derived = derived_a2_table()
    keys = ((1, 1), (1, 2), (2, 2))
    report = {"transformations": {}, "slots": []}
    for name in TRANSFORMATIONS:
        mismatches = []
        for key in keys:
            prod_label = f"E{key[0]}*E{key[1]}"
            # sigma slots are normalization-independent
            if printed[key]["sigma"] != derived[key]["sigma"]:
                mismatches.append({"slot": f"{prod_label}.sigma",
                                   "residual": {"const": str(printed[key]["sigma"] - derived[key]["sigma"])}})
            for l in (1, 2):
                got = _transform(derived[key][f"E{l}"], name)
                res_m, res_l = (specialize(want) - specialize(have)
                                for want, have in zip(printed[key][f"E{l}"], got))
                if not (res_m.is_zero() and res_l.is_zero()):
                    mismatches.append({"slot": f"{prod_label}.E{l}",
                                       "residual_M": res_m.to_json(),
                                       "residual_L": res_l.to_json()})
        report["transformations"][name] = {
            "matches_all": not mismatches,
            "mismatches": mismatches,
        }
    report["matching"] = [name for name in TRANSFORMATIONS
                          if report["transformations"][name]["matches_all"]]
    best = min(TRANSFORMATIONS,
               key=lambda t: len(report["transformations"][t]["mismatches"]))
    best_mismatches = report["transformations"][best]["mismatches"]
    report["best"] = {"transformation": best, "mismatch_count": len(best_mismatches)}
    # slot-by-slot summary under the best transformation, read off its mismatches
    failed = {m["slot"] for m in best_mismatches}
    for key in keys:
        prod_label = f"E{key[0]}*E{key[1]}"
        entry = {"product": prod_label, "sigma_matches": f"{prod_label}.sigma" not in failed}
        for l in (1, 2):
            entry[f"E{l}_matches"] = f"{prod_label}.E{l}" not in failed
        report["slots"].append(entry)
    return report
