#!/usr/bin/env python3
"""Time the numerical oracles (layer L3) and print the times as JSON.

Each entry is the minimum wall time, in milliseconds, of ``--repeats`` calls
of one oracle at fixed parameters shaped like the benchmark's ``verify``
tasks:

* ``integrate_weak.<variant>.N<n>``: one seed through the RK4 weak-field
  integration at step L / 500 with the Richardson check, for a matched,
  mismatched (beta3/beta4 profile off the zero-GVD point), unequal-power
  and lossy configuration of n = 3, 5 and 8 pumps;
* ``full_fwm_reference``: three pumps and three weak fields (six fields) at
  step L / 100, no Richardson check, on a flat profile, which takes no
  phasors; ``full_fwm_reference.dispersive``: the same on a profile with
  beta2 and beta3 terms, which takes one phasor per field and evaluation;
* ``loss_chain_wick.N<n>``: the squeezer, loss and transfer chain with
  explicit ancillas, then its Wick moments on the input ports;
* ``fock_evolve.N4``: a truncated two-mode squeezed state (cutoff 6)
  through the ideal splitter; ``fock_evolve.pair.N4``: the photon-pair
  basis state (1, 0, 1, 0) through the same splitter;
* ``mc_phase_average.N5``: the dual-coherent phase average over 20000
  draws.

Usage: ``PYTHONPATH=src python scripts/time_oracles.py [--repeats K]``.
"""

import argparse
import json
import math
import platform
import time

import numpy as np

from nwaybs.dispersion import DispersionProfile, find_zgvd, symmetric_grid
from nwaybs.oracle import (
    fock_basis_state,
    fock_evolve,
    loss_chain,
    mc_phase_average,
    two_mode_squeezed_fock,
    wick_moments,
)
from nwaybs.propagation import IntegratorSettings, full_fwm_reference, integrate_weak
from nwaybs.transfer import PumpConfig, ideal_transfer

W0 = 2 * math.pi * 233e12  # carrier, rad/s
VARIANTS = ("matched", "mismatched", "unequal", "lossy")
N_MODES = (3, 5, 8)    # pump counts of the integrate_weak entries
DIVISIONS = 500        # RK4 steps per length, as in verify
FWM_DIVISIONS = 100    # RK4 steps per length of the full-FWM reference
FWM_DISPERSIVE = (0.0, 0.0, 1e-27, 1e-40)  # beta coefficients of the dispersive entry
SAMPLES = 20000        # Monte Carlo draws


def min_ms(call, repeats: int) -> float:
    """The least wall time of ``repeats`` calls, in milliseconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 4)


def weak_call(variant: str, n: int, divisions: int):
    """integrate_weak on one seed of a ``verify``-shaped configuration."""
    length, spacing = 100.0, 2 * math.pi * 0.5e12
    beta, center, alpha = (0.0,), W0, 0.0
    if variant == "mismatched":
        beta = (0.0, 0.0, 1e-28, 1e-40, 1e-55)
    elif variant == "lossy":
        alpha = 0.02 / length
    profile = DispersionProfile(omega0=W0, beta_coeffs=beta, gamma=2e-3, length=length,
                                alpha=alpha)
    if variant == "mismatched":
        center = find_zgvd(profile) + 2 * math.pi * 0.03e12
    grid = symmetric_grid(center, [spacing * (k + 1) for k in range(n)])
    powers = tuple(np.linspace(0.3, 0.9, n)) if variant == "unequal" else (0.7,) * n
    pumps = PumpConfig(powers=powers, phases=tuple(np.linspace(0.0, 3.0, n)))
    b0 = np.zeros(n, dtype=complex)
    b0[0] = math.sqrt(1e-7 * min(powers))
    settings = IntegratorSettings(step=length / divisions)
    return lambda: integrate_weak(profile, grid, pumps, b0, settings)


def fwm_call(divisions: int, beta_coeffs=(0.0,)):
    """full_fwm_reference on three pumps and three weak fields, one of them seeded."""
    profile = DispersionProfile(omega0=W0, beta_coeffs=beta_coeffs, gamma=2e-3, length=100.0)
    grid = symmetric_grid(W0, (1.3e12, 2.9e12, 4.1e12))
    pumps = PumpConfig(powers=(0.4,) * 3)
    freqs = list(grid.pump_freqs) + list(grid.weak_freqs)
    amps = np.concatenate([pumps.amplitudes, [math.sqrt(1e-6 * 0.4), 0.0, 0.0]])
    settings = IntegratorSettings(step=profile.length / divisions, richardson_check=False)
    return lambda: full_fwm_reference(profile, freqs, amps, settings)


def wick_call(n: int):
    """loss_chain then wick_moments on ports (1, 3), with losses on every channel."""
    u = ideal_transfer(n, 0.7).entries
    t_pre, t_post = np.linspace(0.6, 0.9, n), np.linspace(0.9, 0.5, n)
    return lambda: wick_moments(loss_chain(n, 0.4, u, t_pre, t_post), ports=(1, 3))


def oracle_calls() -> dict:
    """One zero-argument call per timed entry, by name."""
    calls = {f"integrate_weak.{variant}.N{n}": weak_call(variant, n, DIVISIONS)
             for variant in VARIANTS for n in N_MODES}
    calls["full_fwm_reference"] = fwm_call(FWM_DIVISIONS)
    calls["full_fwm_reference.dispersive"] = fwm_call(FWM_DIVISIONS, FWM_DISPERSIVE)
    calls.update({f"loss_chain_wick.N{n}": wick_call(n) for n in (3, 4)})
    squeezed, u4 = two_mode_squeezed_fock(0.3, n_modes=4, cutoff=6), ideal_transfer(4, 0.9)
    calls["fock_evolve.N4"] = lambda: fock_evolve(squeezed, u4.entries)
    pair = fock_basis_state((1, 0, 1, 0), 4)
    calls["fock_evolve.pair.N4"] = lambda: fock_evolve(pair, u4.entries)
    u5 = ideal_transfer(5, 0.8)
    calls["mc_phase_average.N5"] = lambda: mc_phase_average(0.2, u5, samples=SAMPLES, seed=1)
    return calls


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=12, help="calls per oracle; the min is kept")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": args.repeats,
        "ms": {name: min_ms(call, args.repeats) for name, call in oracle_calls().items()},
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
