"""Classical cohomology ring of the crepant resolution.

The resolution Z of the transversal A_n fibration carries H*(Y) (via
pullback, sigma = the pushed-forward fiber point class) plus n exceptional
divisor classes E_1..E_n, each an H*(S) module generator of degree 2.
Products of exceptional classes have an untwisted part governed by the
intersection matrix c_n and an exceptional part expressed through c_n^-1
and the tautological classes m and k.
"""

from __future__ import annotations

from fractions import Fraction

from .cartan import cartan_inverse_entry, cartan_matrix
from .geometry import SectorClass, SectorRing


def ee_twisted_coefficients(n: int, i: int, j: int):
    """Exceptional part of E_i E_j as (m_coef, k_coef) pairs per E_l.

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


class ResolutionRing(SectorRing):
    """Classical (cup product) cohomology ring of the resolution."""

    letter = "E"
    json_keys = ("pullback", "exceptional")

    def _compute_ee(self, i: int, j: int) -> SectorClass:
        geom = self.geom
        n = geom.n
        ring = geom.base
        c = cartan_matrix(n)
        sigma = ring.one().scale(Fraction(c[i - 1][j - 1]))
        exc = [ring.zero() for _ in range(n)]
        if abs(i - j) <= 1:
            if n == 1:
                # Single divisor: E E = -2 sigma + 2 k E.
                exc[0] = geom.kap().scale(Fraction(2))
            else:
                em, kap = geom.em(), geom.kap()
                for l, (cm, ck) in enumerate(ee_twisted_coefficients(n, i, j)):
                    exc[l] = em.scale(cm) + kap.scale(ck)
        return SectorClass(geom, (ring.zero(), sigma, *exc))
