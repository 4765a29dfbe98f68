"""Numerical experiments on the future tube.

Group actions on tuples of 2x2 matrices, the invariant exhaustion and
its moment map, orbit minimization and symplectic-reduction checks, the
Gram-matrix quotient with closed-orbit detection, and boundary
normal-form estimates, wrapped in seeded verification suites.
"""

from .geometry import (
    DomainError,
    lorentz_product,
    to_matrix,
    from_matrix,
    hermitian_im,
    det_im,
    det2,
    tube_membership,
    tube_margin,
    as_tuple_point,
)
from .actions import (
    BASIS,
    GroupPair,
    exp_algebra,
    act_real,
    act_complex,
    real_vector_field,
    apply_J,
    conjugation_action,
    adjoint,
)
from .psh import (
    phi,
    dphi,
    directional_derivative,
    moment_map,
    levi_form,
    levi_form_phi,
    omega_eval,
    flow_monotonicity,
)
from .quotient import (
    gram_map,
    gram_rank,
    KempfNessOptions,
    kempf_ness_minimize,
    kempf_ness_minimize_all,
    saturation_probe,
    saturation_probe_all,
)
from .reduction import (
    ReduceOptions,
    orbit_minimize,
    orbit_minimize_all,
    big_psi,
    lagrangian_check,
    critical_iff_moment_zero,
    section_probe,
    section_levi_identity,
    ConvergenceError,
)
from .boundary import (
    normal_form,
    triangular_bounds_check,
    pair_transfer,
    parse_sequence,
    boundary_scan,
    ScanOptions,
)
from .suites import (
    ARTIFACT_VERSION,
    SUITE_NAMES,
    ExperimentConfig,
    run_suite,
    report_body_bytes,
)

__version__ = ARTIFACT_VERSION
