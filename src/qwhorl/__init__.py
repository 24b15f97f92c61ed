"""Phase-space transport of the q-deformed classical oscillator.

The package evolves complex-amplitude trajectories and Gaussian probability
distributions under amplitude-dependent frequency laws, advects contours
into their characteristic whorl shapes, extracts and emits the resulting
geometry (CSV/JSON/SVG), and numerically certifies the underlying bracket
algebra with finite-difference oracles.
"""

from .core import (
    DeformationKind,
    FrequencyProfile,
    FrequencySelector,
    OscillatorParams,
    PhasePoint,
    Representation,
    canonical_to_complex,
    complex_to_canonical,
    deform,
    deformation_f,
    frequency,
    frequency_law,
    hamiltonian_alpha,
    hamiltonian_alphaq,
    inverse_q_number,
    kind_for_profile,
    profile_for_kind,
    q_number,
)
from .dynamics import Trajectory, conserved_action, evolve_exact, integrate_eom
from .liouville import (
    ContourTrace,
    GaussianState,
    advect_contour,
    advect_points,
    circle_points,
    contour_length,
    evolved_distribution,
    initial_distribution,
    liouville_generator,
    pde_residual,
)
from .field import (
    DistributionField,
    GridSpec,
    extract_level_set,
    sample_grid,
    write_csv,
    write_json,
    write_svg,
)
from .verify import (
    ScalarField,
    VerificationReport,
    poisson_bracket_fd,
    run_full_suite,
    verify_alphaq_bracket,
    verify_chain_identities,
    verify_constants_of_motion,
    verify_f_derivative_identity,
)

__version__ = "0.1.0"
