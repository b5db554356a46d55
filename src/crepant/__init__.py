"""Exact verification toolkit for orbifold and quantum-corrected cohomology
of transversal A_n singularities, plus McKay correspondence utilities.

The frozen value types are `collections.namedtuple` subclasses that check
their fields in `__init__`, after the tuple is built (`_replace` skips the
check).  Each holds a datum once and defines only the operators the package
calls; every other tuple `+` and `*` (also reflected) is
`scalars.no_arithmetic`, a TypeError naming the class where the tuple
would concatenate or repeat.  The package
imports no `dataclasses` (which loads `inspect`) and no `typing`: they would
more than double the import time that every CLI process pays."""

from .cartan import CurveClass, cartan_inverse, cartan_matrix, curve_class
from .geometry import (
    BaseRing,
    Geometry,
    SectorRing,
    default_geometry,
)
from .gw import gw_invariant
from .mckay import GroupSpec, ade_equation, character_table, mckay_graph, resolution_graph
from .orbifold import ConventionFlags, OrbifoldRing, age, obstruction_class
from .quantum import PoleError, QPoint, QSeries, QuantumRing
from .resolution import ResolutionRing
from .scalars import CycNum, parse_scalar
from .verify import (
    HomChecker,
    HomReport,
    check_associativity,
    check_pairing_nondegenerate,
    reconcile_6_2,
    solve_a2_symmetric,
)

__version__ = "0.1.0"
