"""Quantum-corrected cohomology of the resolution.

Corrections to products of exceptional divisors are organized through the
geometric series atoms delta_{rs} = Q/(1-Q) with Q = q_r ... q_s, one per
connected span of exceptional fiber components.  The correction to E_i E_j
is expressed by the cubic intersection polynomials R_{ijm} contracted with
the inverse intersection matrix, multiplied by the class k.  Products
involving pullback classes receive no correction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cartan import cartan_inverse_entry, curve_class, intersection
from .geometry import Geometry, SectorClass, SectorRing
from .resolution import ResolutionRing
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
        self._atoms = {}

    @property
    def n(self) -> int:
        return len(self.values)

    def span_product(self, r: int, s: int):
        prod = Fraction(1)
        for t in range(r, s + 1):
            prod = prod * self.values[t - 1]
        return prod

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


def zero_point(n: int) -> QPoint:
    return QPoint([Fraction(0)] * n)


@lru_cache(maxsize=None)
def r_poly(n: int, i: int, j: int, m: int) -> QSeries:
    """R_{ijm} = sum over spans of (E_i.beta)(E_j.beta)(E_m.beta) delta."""
    atoms = {}
    for r in range(1, n + 1):
        for s in range(r, n + 1):
            beta = curve_class(n, r, s)
            c = (intersection(n, i, beta) * intersection(n, j, beta)
                 * intersection(n, m, beta))
            if c:
                atoms[(r, s)] = Fraction(c)
    return QSeries.from_dict(Fraction(0), atoms)


@lru_cache(maxsize=None)
def correction_series(n: int, i: int, j: int, l: int) -> QSeries:
    """sum_m (C_n^-1)_{lm} R_{ijm}: the E_l coefficient, over k, of the
    quantum correction to E_i E_j."""
    series = QSeries()
    for m in range(1, n + 1):
        c = cartan_inverse_entry(n, l, m)
        if c:
            series = series + c * r_poly(n, i, j, m)
    return series


def evaluate(series: QSeries, q: QPoint):
    """Exact evaluation of a QSeries at a parameter point."""
    total = series.const
    for span, c in series.atoms:
        total = total + c * q.atom(*span)
    return total


class QuantumRing(SectorRing):
    """The quantum-corrected ring at a fixed exact parameter point.

    Its sector products are those of the classical ring `classical` plus
    the quantum corrections.  It stays a sibling of ResolutionRing, not a
    subclass, so that profiling counts each ring's `mul` once."""

    letter = "E"
    json_keys = ("pullback", "exceptional")

    def __init__(self, geom: Geometry, q: QPoint):
        if q.n != geom.n:
            raise ValueError("parameter point has the wrong length")
        super().__init__(geom)
        self.q = q
        self.classical = ResolutionRing(geom)

    def _compute_ee(self, i: int, j: int) -> SectorClass:
        geom = self.geom
        n = geom.n
        base = self.classical.ee_product(i, j)
        kap = geom.kap()
        if kap.is_zero():
            return base
        coords = list(base.coords)
        for l in range(1, n + 1):
            series = correction_series(n, i, j, l)
            if series.is_zero():
                continue
            value = evaluate(series, self.q)
            coords[l + 1] = coords[l + 1] + kap.scale(value)
        return SectorClass(geom, tuple(coords))
