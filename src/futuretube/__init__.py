"""Numerical experiments on the future tube.

Group actions on tuples of 2x2 matrices, the invariant exhaustion and
its moment map, orbit minimization and symplectic-reduction checks, the
Gram-matrix quotient with closed-orbit detection, and boundary
normal-form estimates, wrapped in seeded verification suites.
"""

from .suites import ARTIFACT_VERSION

__version__ = ARTIFACT_VERSION
