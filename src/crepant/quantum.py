"""Quantum-corrected cohomology of the resolution, with the one product
formula for E_i E_j that the classical ring also uses (at q = 0).

Corrections to products of exceptional divisors are organized through the
geometric series atoms delta_{rs} = Q/(1-Q) with Q = q_r ... q_s, one per
connected span beta_{rs} of exceptional fiber components.  The correction to
the E_l coefficient of E_i E_j is k times the root sum

    sum over spans beta containing l of (E_i.beta)(E_j.beta) delta_beta,

the root-sum form of the A_n quantum product.  Products involving pullback
classes receive no correction, and at q = 0 every delta vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cartan import cartan_inverse_entry, cartan_matrix, curve_class, intersection
from .geometry import Geometry, SectorClass, SectorRing
from .scalars import format_rational, scalar_is_zero


class PoleError(ArithmeticError):
    """Raised when a quantum parameter point hits a pole q_r ... q_s = 1."""

    def __init__(self, span):
        self.span = span
        super().__init__(f"pole of delta at span {span}: q_{span[0]}...q_{span[1]} = 1")


@dataclass(frozen=True)
class QSeries:
    """A rational constant plus a rational combination of atoms delta_{rs}."""

    const: Fraction = Fraction(0)
    atoms: tuple = ()  # sorted ((r, s), Fraction) pairs

    @classmethod
    def from_dict(cls, const=Fraction(0), atoms=None) -> "QSeries":
        items = tuple(sorted((span, c) for span, c in (atoms or {}).items() if c != 0))
        return cls(Fraction(const), items)

    def atom_dict(self):
        return dict(self.atoms)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return QSeries.from_dict(self.const + other, self.atom_dict())
        d = self.atom_dict()
        for span, c in other.atoms:
            d[span] = d.get(span, Fraction(0)) + c
        return QSeries.from_dict(self.const + other.const, d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, scalar):
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
        self._atoms = {}

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

    def atom(self, r: int, s: int):
        """delta_{rs} = Q/(1-Q) evaluated exactly; PoleError when Q = 1."""
        spankey = (r, s)
        if spankey not in self._atoms:
            prod = self.span_product(r, s)
            denom = 1 - prod
            if scalar_is_zero(denom):
                self._atoms[spankey] = PoleError(spankey)
            else:
                self._atoms[spankey] = prod / denom
        val = self._atoms[spankey]
        if isinstance(val, PoleError):
            raise val
        return val

    def poles(self):
        """All spans (r, s) at which this point is singular."""
        out = []
        for r in range(1, self.n + 1):
            for s in range(r, self.n + 1):
                if scalar_is_zero(1 - self.span_product(r, s)):
                    out.append((r, s))
        return out

    def to_json(self):
        from .scalars import scalar_to_json
        return [scalar_to_json(v) for v in self.values]


@lru_cache(maxsize=None)
def correction_series(n: int, i: int, j: int, l: int) -> QSeries:
    """The E_l coefficient, over k, of the quantum correction to E_i E_j:
    sum of (E_i.beta)(E_j.beta) delta_beta over the spans beta = beta_{rs}
    with r <= l <= s."""
    atoms = {}
    for r in range(1, l + 1):
        for s in range(l, n + 1):
            beta = curve_class(n, r, s)
            atoms[(r, s)] = Fraction(intersection(n, i, beta) * intersection(n, j, beta))
    return QSeries.from_dict(Fraction(0), atoms)


def ee_twisted_coefficients(n: int, i: int, j: int):
    """Exceptional part of the classical E_i E_j as (m_coef, k_coef) pairs
    per E_l.

    Returns a list of n Fraction pairs; the degree-2 coefficient of E_l is
    m_coef * m + k_coef * k.  Zero for |i - j| > 1.
    """
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"divisor index out of range for n={n}")
    if i > j:
        i, j = j, i
    out = []
    for l in range(1, n + 1):
        if j - i > 1:
            out.append((Fraction(0), Fraction(0)))
        elif j == i:
            cm = cartan_inverse_entry(n, i - 1, l) - cartan_inverse_entry(n, i + 1, l)
            ck = (-(i - 1) * cartan_inverse_entry(n, i - 1, l)
                  - 4 * cartan_inverse_entry(n, i, l)
                  + (i + 1) * cartan_inverse_entry(n, i + 1, l))
            out.append((cm, ck))
        else:  # j == i + 1
            cm = cartan_inverse_entry(n, i + 1, l) - cartan_inverse_entry(n, i, l)
            ck = ((i + 1) * cartan_inverse_entry(n, i, l)
                  - i * cartan_inverse_entry(n, i + 1, l))
            out.append((cm, ck))
    return out


def evaluate(series: QSeries, at):
    """Exact evaluation of a QSeries at a parameter point (a QPoint, whose
    atoms are computed on demand) or at given atom values, a mapping
    {(r, s): delta_rs}."""
    atom = at.atom if isinstance(at, QPoint) else lambda r, s: at[(r, s)]
    total = series.const
    for span, c in series.atoms:
        total = total + c * atom(*span)
    return total


class QuantumRing(SectorRing):
    """The quantum-corrected ring at a fixed exact parameter point.

    E_i E_j is c_ij sigma plus, per E_l, cm m + (ck + correction) k, with
    (cm, ck) from `ee_twisted_coefficients` and the correction the
    `correction_series` evaluated at q.  A point at a pole raises PoleError
    for every geometry, also where k = 0 makes every correction vanish.
    `at_deltas` builds the ring from the atom values instead."""

    letter = "E"
    json_keys = ("pullback", "exceptional")

    def __init__(self, geom: Geometry, q: QPoint):
        if q.n != geom.n:
            raise ValueError("parameter point has the wrong length")
        poles = q.poles()
        if poles:
            raise PoleError(poles[0])
        self._setup(geom, q, q.values)

    @classmethod
    def at_deltas(cls, geom: Geometry, deltas) -> "QuantumRing":
        """The ring at given atom values {(r, s): delta_rs}, one for every
        span 1 <= r <= s <= n.  Its products are affine in the deltas, and
        at delta_rs = Q/(1 - Q) they are those of the ring at q.  There is
        no pole check: every delta is finite already."""
        ring = cls.__new__(cls)
        ring._setup(geom, dict(deltas), deltas.values())
        return ring

    def _setup(self, geom: Geometry, at, values):
        super().__init__(geom)
        self._at = at
        # the correction k delta is zero when k = 0 or when every value (of
        # q, or of delta) is 0: no series is built then
        self._corrected = (not geom.symplectic()
                           and not all(scalar_is_zero(v) for v in values))

    def _compute_ee(self, i: int, j: int) -> SectorClass:
        geom = self.geom
        n = geom.n
        sigma = geom.base.one().scale(Fraction(cartan_matrix(n)[i - 1][j - 1]))
        exc = []
        for l, (cm, ck) in enumerate(ee_twisted_coefficients(n, i, j), start=1):
            if self._corrected:
                ck = ck + evaluate(correction_series(n, i, j, l), self._at)
            term = geom.kap().scale(ck)
            # m is undefined for n = 1, where cm is always 0
            exc.append(geom.em().scale(cm) + term if cm else term)
        return SectorClass(geom, (geom.base.zero(), sigma, *exc))
