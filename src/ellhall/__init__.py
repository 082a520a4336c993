"""Exact computer algebra for loop algebras over elliptic curves.

Subpackages:

* scalars / ratfunc / cyclotomic: exact coefficient arithmetic in the
  formal two-parameter Laurent ring and in the curve-specialized cyclotomic
  tower, the sparse linear-combination base of every algebra, truncated
  series
* lattice: rank-2 integer lattice geometry and canonical convex paths
* dvr_hall: the classical Hall algebra of torsion modules with brute-force
  Hall numbers and the symmetric-function bridge
* curve: elliptic curves over finite fields, Picard groups, characters
* elliptic_hall: the twist-n loop algebra with its straightening engine
* autoforms: cusp-eigenform eigenvalue formulas, theta series, L-functions
* verification / cli: the desk-scale check suite and its command line
"""

from .curve import (Character, CharacterOrbit, ClosedPoint, CurveData,
                    IdentityMismatch, PicardGroup, all_characters,
                    character_orbits, primitive_orbits)
from .cyclotomic import CurveRing, CurveScalar, get_curve_ring
from .dvr_hall import (DvrHallAlgebra, DvrHallElement, SymmetricFunction,
                       aut_count, partitions)
from .elliptic_hall import AlgebraElement, EllipticHallAlgebra, StraighteningError
from .lattice import canonical_path, delta, epsilon, interior_points
from .ratfunc import FORMAL, FormalRing, FormalScalar
from .scalars import TruncatedSeries, series_exp

__version__ = "0.1.0"
