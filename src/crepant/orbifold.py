"""Orbifold cohomology of a transversal A_n fibration with trivial monodromy.

The underlying space is Y (square-zero model over the base S); there are n
twisted sectors e_1..e_n, each a copy of H*(S) shifted up by the age 2.
The product follows the five-case structure: untwisted times untwisted,
untwisted times twisted, inverse twists landing in the pushforward, and the
two obstruction-bundle cases picking up the degree-2 classes l and m.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .geometry import Geometry, SectorRing
from .scalars import no_arithmetic

TWIST_SELF_CHOICES = ("1", "-1", "1/(n+1)", "-1/(n+1)")


class ConventionFlags(namedtuple("ConventionFlags", "twist_self", defaults=("-1/(n+1)",))):
    """Normalization conventions for the orbifold product.

    twist_self fixes the sign/scale of the obstruction term in the product
    of two twisted classes whose twists do not cancel.  The default
    -1/(n+1) is the choice consistent with the crepant resolution match.
    """

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = no_arithmetic

    def __init__(self, *args, **kwargs):
        if self.twist_self not in TWIST_SELF_CHOICES:
            raise ValueError(f"twist_self must be one of {TWIST_SELF_CHOICES}")

    def twist_self_value(self, n: int) -> Fraction:
        return {
            "1": Fraction(1),
            "-1": Fraction(-1),
            "1/(n+1)": Fraction(1, n + 1),
            "-1/(n+1)": Fraction(-1, n + 1),
        }[self.twist_self]

    def to_json(self):
        return {"twist_self": self.twist_self}


def age(order: int, exponents) -> Fraction:
    """Age of the diagonal group element zeta_order^k acting with the given
    exponents: sum of the fractional parts k_i/order."""
    total = Fraction(0)
    for k in exponents:
        total += Fraction(k % order, order)
    return total


def obstruction_class(n: int, a1: int, a2: int):
    """Which degree-2 class enters e_{a1} * e_{a2}: 'ell' below the wrap,
    'em' above it, None when the twists cancel."""
    for a in (a1, a2):
        if not 1 <= a <= n:
            raise ValueError(f"sector index out of range: {a}")
    s = a1 + a2
    if s == n + 1:
        return None
    return "ell" if s < n + 1 else "em"


class OrbifoldRing(SectorRing):
    """The orbifold cohomology ring for a given geometry and conventions."""

    letter = "e"
    json_keys = ("untwisted", "twisted")

    def __init__(self, geom: Geometry, flags: ConventionFlags | None = None):
        super().__init__(geom)
        self.flags = flags or ConventionFlags()
        self.t = self.flags.twist_self_value(geom.n)

    def _compute_ee(self, i: int, j: int) -> dict:
        """Inverse twists land in the pushforward with the 1/(n+1) gerbe
        factor; otherwise the obstruction class, scaled by t, sits in the
        sector i + j mod n+1.  As a sparse row: 1/(n+1) at sigma (index
        rank), or t l or t m at h^1 of that sector (index
        ((i + j) mod (n+1) + 1) rank + 1), nothing over a point or where
        that class is 0."""
        rank, n = self.geom.base.rank, self.geom.n
        obstruction = obstruction_class(n, i, j)
        if obstruction is None:
            return {rank: Fraction(1, n + 1)}
        alpha = self.geom.l if obstruction == "ell" else self.geom.m
        return {((i + j) % (n + 1) + 1) * rank + 1: self.t * alpha} if rank > 1 and alpha else {}
