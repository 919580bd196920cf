"""Continuous-variable one-to-two cloning machine toolkit.

Simulates a three-amplifier cloning network on two backends (closed-form
Gaussian moments and a truncated Fock-space oracle), exposes the finite-gain
joint-measurement outcome operators, and ships a verification suite plus a
CSV-emitting CLI.
"""

from .checks import CheckResult, run_all
from .errors import (DomainError, GridTooCoarseError, InvalidArgumentError,
                     TruncationOverflowError, TruncationWarning)
from .fock import (DensityMatrix, FockVector, annihilation_matrix,
                   apply_network_fock, build_generator, coherent_fock,
                   reduced_density, smeared_mixture, tensor, trace_distance,
                   vacuum_fock)
from .gaussian import (GaussianState, SymplecticTransform, beam_splitter,
                       displace, fidelity_with_coherent, quadrature_moments,
                       reduce, two_mode_squeezer, vacuum_state)
from .measurement import (MomentReport, PovmParams, expected_moments,
                          husimi_limit_check, povm_density, povm_density_grid,
                          povm_params, projector_form_check,
                          sample_joint_quadratures, sigma_variant_report)
from .network import (CloneResult, CloningNetworkSpec, gains,
                      network_from_lambda, preparation_state, run_cloner)

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "run_all",
    "DomainError", "GridTooCoarseError", "InvalidArgumentError",
    "TruncationOverflowError", "TruncationWarning",
    "DensityMatrix", "FockVector", "annihilation_matrix",
    "apply_network_fock", "build_generator", "coherent_fock",
    "reduced_density", "smeared_mixture", "tensor", "trace_distance",
    "vacuum_fock",
    "GaussianState", "SymplecticTransform", "beam_splitter", "displace",
    "fidelity_with_coherent", "quadrature_moments", "reduce",
    "two_mode_squeezer", "vacuum_state",
    "MomentReport", "PovmParams", "expected_moments", "husimi_limit_check",
    "povm_density", "povm_density_grid", "povm_params",
    "projector_form_check", "sample_joint_quadratures",
    "sigma_variant_report",
    "CloneResult", "CloningNetworkSpec", "gains", "network_from_lambda",
    "preparation_state", "run_cloner",
    "__version__",
]
