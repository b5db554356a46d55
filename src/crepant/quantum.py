"""Quantum-corrected cohomology of the resolution, with the one product
formula for E_i E_j that the classical ring also uses (at q = 0).

Corrections to products of exceptional divisors are organized through the
geometric series atoms delta_{rs} = Q/(1-Q) with Q = q_r ... q_s, one per
connected span beta_{rs} of exceptional fiber components.  The correction to
the E_l coefficient of E_i E_j is k times the root sum

    sum over spans beta containing l of (E_i.beta)(E_j.beta) delta_beta,

the root-sum form of the A_n quantum product.  Products involving pullback
classes receive no correction, and at q = 0 every delta vanishes.  These
constants are rational, so `structure_constants(n)` holds them once per n
and each ring evaluates them at its geometry and point.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, lcm
from types import MappingProxyType

from .cartan import cartan_inverse_entry, cartan_matrix, span_weights
from .geometry import Geometry, SectorRing
from .scalars import (ZERO, CycNum, _check_conductor, _reduce, _residues, euler_phi,
                      format_rational, no_arithmetic, scalar_is_zero, scalar_to_json)


class PoleError(ArithmeticError):
    """Raised when a quantum parameter point hits a pole q_r ... q_s = 1."""

    def __init__(self, span):
        self.span = span
        super().__init__(f"pole of delta at span {span}: q_{span[0]}...q_{span[1]} = 1")


class QSeries(namedtuple("QSeries", "const atoms", defaults=(Fraction(0), ()))):
    """A rational constant plus a rational combination of atoms delta_{rs}:
    `atoms` holds sorted ((r, s), Fraction) pairs.  + and - take a QSeries,
    an int or a Fraction, * an int or a Fraction; any other operand is
    `no_arithmetic`'s TypeError."""

    __slots__ = ()

    @classmethod
    def from_dict(cls, const=Fraction(0), atoms=None) -> "QSeries":
        items = tuple(sorted((span, c) for span, c in (atoms or {}).items() if c != 0))
        return cls(Fraction(const), items)

    def atom_dict(self):
        return dict(self.atoms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QSeries(Fraction(other))
        elif not isinstance(other, QSeries):
            return no_arithmetic(self, other)
        d = self.atom_dict()
        for span, c in other.atoms:
            d[span] = d.get(span, Fraction(0)) + c
        return QSeries.from_dict(self.const + other.const, d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return no_arithmetic(self, scalar)
        scalar = Fraction(scalar)
        return QSeries.from_dict(self.const * scalar,
                                 {span: c * scalar for span, c in self.atoms})

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.const == 0 and not self.atoms

    def merge_spans(self, relabel) -> "QSeries":
        """Apply a span relabelling (e.g. identify delta_{22} with delta_{11})."""
        d = {}
        for span, c in self.atoms:
            new = relabel(span)
            d[new] = d.get(new, Fraction(0)) + c
        return QSeries.from_dict(self.const, d)

    def to_json(self):
        return {"const": format_rational(self.const),
                "atoms": [{"span": list(span), "coeff": format_rational(c)}
                          for span, c in self.atoms]}


class QPoint:
    """An n-tuple of exact quantum parameters (rationals or cyclotomic)."""

    def __init__(self, values):
        self.values = tuple(values)
        self._products = {}

    @property
    def n(self) -> int:
        return len(self.values)

    def span_product(self, r: int, s: int):
        """q_r ... q_s, from the cached q_r ... q_{s-1}: the pole check and
        the atoms share one product per span."""
        key = (r, s)
        if key not in self._products:
            prev = Fraction(1) if s == r else self.span_product(r, s - 1)
            self._products[key] = prev * self.values[s - 1]
        return self._products[key]

    def poles(self):
        """All spans (r, s) at which this point is singular, in `all_spans`
        order: the None spans of `_forms`."""
        return [span for span, form in self._forms() if form is None]

    def deltas(self) -> dict:
        """{(r, s): delta_rs} over every span, delta = Q/(1 - Q).  A span
        product Q = +-zeta_L^a of order d > 1, with L the lcm of its factors'
        conductors, has the closed form -(d + sum_{k=1}^{d-1} k Q^k)/d at L,
        as (1 - Q) sum_{k=1}^{d-1} k Q^k = -d; any other span is 1/(1 - Q)
        - 1.  Every span is checked by `_span_forms` before any atom is
        evaluated, so a point with a pole raises PoleError at the first
        one, having inverted nothing."""
        return {span: _root_atom(*v) if isinstance(v, tuple) else 1 / v - 1
                for span, v in self._span_forms().items()}

    def _span_forms(self) -> dict:
        """{span: form} of `_forms`, the form `deltas` evaluates; PoleError
        at the first pole."""
        spans = {}
        for span, form in self._forms():
            if form is None:
                raise PoleError(span)
            spans[span] = form
        return spans

    def _forms(self):
        """(span, form) in `all_spans` order, the one pole test: (L, sign, a,
        d) for Q = sign zeta_L^a of order d > 1, L the lcm of its factors'
        conductors (checked where a span product would check it, with no
        CycNum product), None at a pole, else 1 - Q."""
        roots = [_root(v) for v in self.values]
        for r in range(1, self.n + 1):
            # the span product as (L, sign, a) while every factor is a root;
            # L = 0 while every factor is a rational +-1
            product = (0, 1, 0)
            for s in range(r, self.n + 1):
                factor = roots[s - 1]
                product = _times_root(product, factor) if product and factor else None
                if product and product[0]:
                    order = _root_order(*product)
                    yield (r, s), (product + (order,) if order > 1 else None)
                else:
                    form = 1 - self.span_product(r, s)
                    yield (r, s), (None if scalar_is_zero(form) else form)

    def to_json(self):
        return [scalar_to_json(v) for v in self.values]


def _root(value):
    """(N, sign, a) with value = sign zeta_N^a, N the conductor of a CycNum,
    read off its cached residue rows, and N = 0 for a rational +-1; None for
    any other value."""
    if not isinstance(value, CycNum):
        return (0, int(value), 0) if value in (1, -1) else None
    if value.den != 1:
        return None
    rows = _residues(value.conductor)
    row = tuple((j, c) for j, c in enumerate(value.nums) if c)
    for sign in (1, -1):
        if row in rows:
            return value.conductor, sign, rows.index(row)
        row = tuple((j, -c) for j, c in row)
    return None


def _times_root(x, y):
    """The product of two `_root` triples.  Where the lcm of two conductors
    differs from either, it is checked against the cap, as the CycNum
    product that lifts both operands there does."""
    (n, sign, a), (m, sign2, b) = x, y
    if not (n and m):
        return n or m, sign * sign2, a + b
    big = lcm(n, m)
    if big != n or big != m:
        _check_conductor(big)
    return big, sign * sign2, (a * (big // n) + b * (big // m)) % big


def _root_order(n, sign, a) -> int:
    """The multiplicative order of sign zeta_n^a."""
    if sign == 1:
        return n // gcd(a, n)
    return 2 * n // gcd(2 * a + n, 2 * n)


def _root_atom(n, sign, a, order):
    """Q/(1 - Q) at conductor n for Q = sign zeta_n^a of order d > 1: -(d +
    sum_{k=1}^{d-1} k Q^k)/d, one reduction at n and no inverse."""
    terms = [(k * a, -k if sign == -1 and k % 2 else k) for k in range(1, order)]
    terms.append((0, order))
    return CycNum(n, [-c for c in _reduce(n, terms)], order)


def all_spans(n: int):
    """Every span (r, s), 1 <= r <= s <= n, in the order (1,1), (1,2), ...,
    (2,2), ...: the order of `QPoint.poles` and `QPoint.deltas`."""
    return [(r, s) for r in range(1, n + 1) for s in range(r, n + 1)]


@lru_cache(maxsize=None)
def structure_constants(n: int) -> MappingProxyType:
    """{(i, j): (c_ij, slots)} for 1 <= i <= j <= n, the one source of the
    resolution products: E_i E_j is c_ij sigma plus, per E_l with
    (cm, series) = slots[l - 1], cm m + series k.  The series constant is
    the classical ck, and its atoms are the root sum

        sum over spans beta containing l of (E_i.beta)(E_j.beta) delta_beta.

    The table is rational: m, k and the deltas enter only when a ring
    evaluates it, so one table per n serves every geometry and point.  The
    atoms come only from the spans that meet both E_i and E_j."""
    c, inv, zero = cartan_matrix(n), partial(cartan_inverse_entry, n), Fraction(0)
    table = {}
    for i, j in all_spans(n):
        atoms = {l: [] for l in range(1, n + 1)}
        for span, weights in span_weights(n).items():
            if i in weights and j in weights:
                weight = Fraction(weights[i] * weights[j])
                for l in range(span[0], span[1] + 1):
                    atoms[l].append((span, weight))
        slots = []
        for l in range(1, n + 1):
            if j == i:
                cm = inv(i - 1, l) - inv(i + 1, l)
                ck = -(i - 1) * inv(i - 1, l) - 4 * inv(i, l) + (i + 1) * inv(i + 1, l)
            elif j == i + 1:
                cm = inv(i + 1, l) - inv(i, l)
                ck = (i + 1) * inv(i, l) - i * inv(i + 1, l)
            else:
                cm = ck = zero
            slots.append((cm, QSeries(ck, tuple(sorted(atoms[l])))))
        table[(i, j)] = (Fraction(c[i - 1][j - 1]), tuple(slots))
    # read-only: every caller shares the cached table
    return MappingProxyType(table)


class QuantumRing(SectorRing):
    """The quantum-corrected ring at a fixed exact parameter point.

    E_i E_j is `structure_constants(n)` evaluated at the geometry's m and k
    and at the point's atoms delta_rs.  A point at a pole raises PoleError
    for every geometry, also where k = 0 makes every correction vanish.
    Products are affine in the atoms, which `HomChecker.solve` uses."""

    letter = "E"
    json_keys = ("pullback", "exceptional")

    def __init__(self, geom: Geometry, q: QPoint):
        if q.n != geom.n:
            raise ValueError("parameter point has the wrong length")
        super().__init__(geom)
        # the correction k delta is zero when k = 0 or when every delta is
        # 0, that is every q_l is 0 (delta_ll = 0 exactly when q_l = 0): no
        # atom is evaluated then, and the poles and caps are checked anyway
        self._corrected = (not geom.symplectic()
                           and not all(scalar_is_zero(v) for v in q.values))
        if self._corrected:
            self._deltas = q.deltas()
        else:
            q._span_forms()
            self._deltas = {}
        # {span: conductor} of the CycNum deltas
        self._conductors = {span: d.conductor for span, d in self._deltas.items()
                            if isinstance(d, CycNum)}
        # one denominator for every k delta: k's times the lcm of the deltas'
        self._den = geom.k.denominator * lcm(*[
            d.den if isinstance(d, CycNum) else d.denominator for d in self._deltas.values()])
        # {(span, N): the numerators of k delta_span at conductor N over
        # self._den}, on first use
        self._lifted = {}

    def _compute_ee(self, i: int, j: int) -> dict:
        """E_i E_j as a sparse row: c_ij at sigma (index rank) and, per E_l,
        cm m + k (const + sum_beta c_beta delta_beta) at h^1 E_l (index
        (l + 1) rank + 1), the root sum when the ring is corrected and the
        series has atoms, else that rational.  Zero coefficients are left
        out, and over a point every E_l coefficient is."""
        geom, rank = self.geom, self.geom.base.rank
        sigma, slots = structure_constants(geom.n)[(i, j)]
        row = {rank: sigma} if sigma else {}
        if rank == 1:
            return row
        for g, (cm, series) in enumerate(slots, start=2):
            if self._corrected and series.atoms:
                value = self._root_sum(cm, series)
            else:
                # m is undefined for n = 1, where cm is always 0
                value = (cm * geom.m if cm else ZERO) + geom.k * series.const
            if not scalar_is_zero(value):
                row[g * rank + 1] = value
        return row

    def _root_sum(self, cm, series):
        """cm m + k (const + sum_beta c_beta delta_beta) over the series'
        ((r, s), c_beta) atoms as one integer accumulation, at the lcm N of
        the CycNum deltas' conductors (a zero one too): a CycNum at N, or a
        Fraction when no delta is a CycNum.  Each k delta is lifted to N
        once per ring, over the ring's one denominator, each c_beta is an
        integer (a product of two intersection numbers) and the rational
        cm m + k const goes in at x^0."""
        conductors = [self._conductors[span] for span, _ in series.atoms
                      if span in self._conductors]
        n, lifted = lcm(*conductors), self._lifted
        m, k, ck = self.geom.m, self.geom.k, series.const
        # m is undefined for n = 1, where cm is always 0
        a, da = (cm.numerator * m.numerator, cm.denominator * m.denominator) if cm else (0, 1)
        b, db = k.numerator * ck.numerator, k.denominator * ck.denominator
        den = lcm(self._den, da, db)
        scale = den // self._den
        acc = [0] * euler_phi(n)
        acc[0] = a * (den // da) + b * (den // db)
        for span, c in series.atoms:
            if (span, n) not in lifted:
                lifted[span, n] = self._lift_delta(span, n)
            c = c.numerator * scale
            acc = [x + c * y for x, y in zip(acc, lifted[span, n])]
        return CycNum(n, acc, den) if conductors else Fraction(acc[0], den)

    def _lift_delta(self, span, n):
        """The phi(n) numerators of k delta_span at conductor n, a multiple
        of its own, over the ring's denominator."""
        d, k = self._deltas[span], self.geom.k
        if isinstance(d, CycNum):
            nums, den = d._lift(n)
        else:
            nums, den = (d.numerator,) + (0,) * (euler_phi(n) - 1), d.denominator
        scale = k.numerator * (self._den // (k.denominator * den))
        return tuple(scale * x for x in nums)
