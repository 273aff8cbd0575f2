"""nwaybs: simulation and analysis of N-way frequency beamsplitters.

Bragg-scattering four-wave mixing with N pumps couples N weak frequency
channels into a single multiport splitter.  This package provides the
closed-form transfer matrices, dispersion/phase-matching design tools,
brute-force coupled-mode integration, detection statistics for the
supported input classes, independent quantum oracles, and the fitting
chain used on measured count curves.

``import nwaybs`` loads no submodule.  Each public name below is looked up
in its submodule on first use (PEP 562), so ``nwaybs.fit_zeta`` imports
``nwaybs.fitting`` (and top-level scipy, never ``scipy.optimize``) and
``nwaybs.ideal_transfer`` imports only ``nwaybs.transfer`` and
``nwaybs.dispersion``.  The lookup is not cached here: ``nwaybs.X`` is
always the submodule's current ``X``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "dispersion": (
        "DispersionProfile", "FrequencyGrid", "MismatchReport", "beta_eval", "beta2_eval",
        "delta_beta_pair", "delta_beta_table", "find_zgvd", "nonlinear_mismatch",
        "symmetric_grid",
    ),
    "transfer": (
        "NonlinearPhase", "PumpConfig", "TransferMatrix", "general_transfer", "ideal_transfer",
        "loss_reduced_phase", "lossy_transfer", "p_coeff", "pump_evolution", "q_coeff", "sinhc",
        "to_lab_frame",
    ),
    "propagation": (
        "IntegratorSettings", "full_fwm_reference", "integrate_pumps", "integrate_weak",
        "rk4_integrate",
    ),
    "quantum": (
        "CorrelationResult", "InputState", "correlation_curve", "g2_dual_coherent",
        "g2_multiphoton", "g2_photon_pair", "g2_squeezed_full", "multiphoton_ratio_model",
        "multiphoton_scaling_curve", "pair_coincidence", "singles",
    ),
    "oracle": (
        "BogoliubovMap", "FockState", "McEstimate", "compose", "fock_basis_state", "fock_evolve",
        "loss_chain", "loss_map", "mc_phase_average", "passive_map", "squeezer_map",
        "two_mode_squeezed_fock", "wick_moments",
    ),
    "fitting": (
        "CountRecord", "FitResult", "fit_channel_scales", "fit_phase_scale", "fit_zeta",
        "generate_synthetic", "normalize_coincidences",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SUBMODULE_OF)


def __getattr__(name):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
