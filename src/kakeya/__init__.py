"""Exact construction, verification and polynomial-method bounds for
Kakeya-type line sets.

A planar seed (N concurrent-free affine lines with distinct directions,
a parallel family of measuring lines and a point set) is lifted into
n-dimensional space so that every line of the result carries at least N
points while the total point count stays near N^n / 2^(n-1).  The
directions of the lifted lines fill an N^(n-1) grid, which feeds exact
rational lower bounds on the size of any point set with that direction
behavior, and a Hasse-derivative certificate pipeline re-verifies the
underlying polynomial argument on concrete instances.

The top level holds what the README example, the demos and the
benchmark use; everything else is imported from its module.
"""

from .construction import KPoint, assemble, load_kakeya, save_kakeya
from .errors import KakeyaError
from .polymethod import certify
from .projgeom import affine_coords, meet, point_from_affine
from .seeds import dual_conic_seed, regular_ngon_seed
from .verify import verify_all

__version__ = "0.1.0"

__all__ = [
    "KPoint",
    "KakeyaError",
    "affine_coords",
    "assemble",
    "certify",
    "dual_conic_seed",
    "load_kakeya",
    "meet",
    "point_from_affine",
    "regular_ngon_seed",
    "save_kakeya",
    "verify_all",
]
