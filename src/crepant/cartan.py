"""The A_n Cartan-type intersection matrix and curve classes.

Exceptional divisors E_1..E_n of the resolved transversal A_n singularity
intersect fiberwise in the pattern of the negated A_n Cartan matrix:
diagonal -2, off-diagonal 1 for adjacent indices.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .scalars import no_arithmetic


def cartan_matrix(n: int):
    """The n x n matrix c_n: -2 on the diagonal, 1 next to it."""
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(
        tuple(-2 if i == j else (1 if abs(i - j) == 1 else 0) for j in range(n))
        for i in range(n)
    )


@lru_cache(maxsize=None)
def cartan_inverse(n: int):
    """Closed-form inverse: (c_n^-1)_{ij} = -min(i,j)(n+1-max(i,j))/(n+1),
    indices 1-based."""
    return tuple(
        tuple(
            Fraction(-min(i, j) * (n + 1 - max(i, j)), n + 1)
            for j in range(1, n + 1)
        )
        for i in range(1, n + 1)
    )


@lru_cache(maxsize=None)
def span_weights(n: int) -> MappingProxyType:
    """{(r, s): {i: E_i.beta_rs}} over the spans 1 <= r <= s <= n, nonzero
    weights only: -1 at i = r and at i = s (-2 on beta_rr), 1 at i = r - 1
    and at i = s + 1.  Cached and read-only."""
    c = cartan_matrix(n)
    return MappingProxyType({
        (r, s): MappingProxyType({i: w for i in range(1, n + 1)
                                  if (w := sum(c[i - 1][r - 1:s]))})
        for r in range(1, n + 1) for s in range(r, n + 1)})


def cartan_inverse_entry(n: int, i: int, j: int) -> Fraction:
    """(c_n^-1)_{ij} with the boundary convention that index 0 or n+1 gives 0."""
    if i in (0, n + 1) or j in (0, n + 1):
        return Fraction(0)
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexError(f"index out of range for n={n}: ({i},{j})")
    return cartan_inverse(n)[i - 1][j - 1]


class CurveClass(namedtuple("CurveClass", "mult")):
    """An effective fiber curve class: nonnegative multiplicities of the
    exceptional fiber components beta_1..beta_n."""

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = no_arithmetic

    def __init__(self, *args, **kwargs):
        if any(m < 0 for m in self.mult):
            raise ValueError("curve classes here are effective")

    @property
    def n(self) -> int:
        return len(self.mult)

    def as_multiple_of_span(self):
        """(a, (i, j)) if the class is a * beta_{ij} with a >= 1, else None."""
        support = [t for t, m in enumerate(self.mult) if m != 0]
        if not support:
            return None
        a = self.mult[support[0]]
        i, j = support[0], support[-1]
        if support == list(range(i, j + 1)) and all(self.mult[t] == a for t in support):
            return (a, (i + 1, j + 1))
        return None


def curve_class(n: int, i: int, j: int) -> CurveClass:
    """beta_{ij} = beta_i + beta_{i+1} + ... + beta_j, 1 <= i <= j <= n."""
    if not (1 <= i <= j <= n):
        raise ValueError(f"need 1 <= i <= j <= n, got ({i},{j})")
    return CurveClass(tuple(1 if i <= t + 1 <= j else 0 for t in range(n)))
