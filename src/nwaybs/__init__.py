"""nwaybs: simulation and analysis of N-way frequency beamsplitters.

Bragg-scattering four-wave mixing with N pumps couples N weak frequency
channels into a single multiport splitter.  This package provides the
closed-form transfer matrices, dispersion/phase-matching design tools,
brute-force coupled-mode integration, detection statistics for the
supported input classes, independent quantum oracles, and the fitting
chain used on measured count curves.
"""

__version__ = "0.1.0"

from .dispersion import (
    DispersionProfile,
    FrequencyGrid,
    MismatchReport,
    beta_eval,
    beta2_eval,
    delta_beta_pair,
    delta_beta_table,
    find_zgvd,
    nonlinear_mismatch,
    symmetric_grid,
)
from .transfer import (
    NonlinearPhase,
    PumpConfig,
    TransferMatrix,
    general_transfer,
    ideal_columns,
    ideal_transfer,
    loss_reduced_phase,
    lossy_transfer,
    p_coeff,
    pump_evolution,
    q_coeff,
    sinhc,
    to_lab_frame,
)
from .propagation import (
    IntegratorSettings,
    full_fwm_reference,
    integrate_pumps,
    integrate_weak,
    rk4_integrate,
)
from .quantum import (
    CorrelationResult,
    InputState,
    correlation_curve,
    g2_dual_coherent,
    g2_multiphoton,
    g2_photon_pair,
    g2_squeezed_full,
    multiphoton_ratio_model,
    multiphoton_scaling_curve,
    pair_coincidence,
    singles,
)
from .oracle import (
    BogoliubovMap,
    FockState,
    McEstimate,
    compose,
    fock_basis_state,
    fock_evolve,
    loss_chain,
    loss_map,
    mc_phase_average,
    passive_map,
    squeezer_map,
    two_mode_squeezed_fock,
    wick_moments,
)
from .fitting import (
    CountRecord,
    FitResult,
    fit_channel_scales,
    fit_phase_scale,
    fit_zeta,
    generate_synthetic,
    normalize_coincidences,
)
