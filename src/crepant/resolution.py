"""Classical cohomology ring of the crepant resolution.

The resolution Z of the transversal A_n fibration carries H*(Y) (via
pullback, sigma = the pushed-forward fiber point class) plus n exceptional
divisor classes E_1..E_n, each an H*(S) module generator of degree 2.  Its
cup product is the quantum product at q = 0, where every quantum correction
vanishes, so it has no product formula of its own.
"""

from __future__ import annotations

from fractions import Fraction

from .geometry import Geometry
from .quantum import QPoint, QuantumRing


class ResolutionRing(QuantumRing):
    """Classical (cup product) cohomology ring of the resolution."""

    def __init__(self, geom: Geometry):
        super().__init__(geom, QPoint([Fraction(0)] * geom.n))
