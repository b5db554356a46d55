"""Orbifold cohomology of a transversal A_n fibration with trivial monodromy.

The underlying space is Y (square-zero model over the base S); there are n
twisted sectors e_1..e_n, each a copy of H*(S) shifted up by the age 2.
The untwisted classes act on a sector by restriction, and the product of
two twisted sectors is read off the ages of the global-quotient
obstruction bundle (`OrbifoldRing._compute_ee`).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .geometry import Geometry, SectorRing
from .scalars import no_arithmetic

TWIST_SELF_CHOICES = ("1", "-1", "1/(n+1)", "-1/(n+1)")


class ConventionFlags(namedtuple("ConventionFlags", "twist_self", defaults=("-1/(n+1)",))):
    """Normalization conventions for the orbifold product.

    twist_self is the scale t of the Euler class of the obstruction bundle
    in the product of two twisted classes whose twists do not cancel.  It is
    a convention: the paper does not derive it.  The default -1/(n+1) is
    the choice consistent with the crepant resolution match.
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
    return Fraction(sum(k % order for k in exponents), order)


class OrbifoldRing(SectorRing):
    """The orbifold cohomology ring for a given geometry and conventions."""

    letter = "e"
    json_keys = ("untwisted", "twisted")

    def __init__(self, geom: Geometry, flags: ConventionFlags | None = None):
        super().__init__(geom)
        self.flags = flags or ConventionFlags()
        self.t = self.flags.twist_self_value(geom.n)

    def _compute_ee(self, i: int, j: int) -> dict:
        """e_i e_j for the twists g = zeta_N^i, h = zeta_N^j, N = n+1, on the
        normal lines of weight -1 (class l) and +1 (class m).  Inverse twists
        land in the pushforward: 1/N at sigma (index rank).  Otherwise a line
        enters Ob(g, h) with exponent age(g) + age(h) + age((gh)^-1) - 1,
        which is 1 on the l line where its ages sum to 2 and else on the m
        line; t times that class sits at h^1 of sector s = i + j mod N (index
        (s + 1) rank + 1), nothing over a point or where the class is 0."""
        rank, order = self.geom.base.rank, self.geom.n + 1
        s = (i + j) % order
        if s == 0:
            return {rank: Fraction(1, order)}
        alpha = self.geom.l if age(order, (-i, -j, i + j)) == 2 else self.geom.m
        return {(s + 1) * rank + 1: self.t * alpha} if rank > 1 and alpha else {}
