"""Rotation recovery for tetrahedra from orthographic vertex projections.

Given a known tetrahedron with centroid at the origin and the top-view
shadow of its vertices after an unknown rotation, this package recovers the
candidate rotations (labeled and unlabeled), classifies when the answer is
ambiguous, computes the dimension of every ambiguity family, and samples
ambiguous instances.

The package's names are those of the __all__ lists of geom, rotation,
configspace and solver, re-exported here: each list is the one declaration
of its module's public surface.
"""

from .geom import *  # noqa: F401,F403
from .rotation import *  # noqa: F401,F403
from .configspace import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__version__ = "0.2.0"
