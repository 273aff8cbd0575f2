#!/usr/bin/env python3
"""Time the calibration fits (layer L4) and print the times as JSON.

Each entry is the minimum wall time, in milliseconds, of ``--repeats`` calls
of one function at fixed parameters shaped like the benchmark's
``calibrate`` tasks (N = 3, kappa 1.3 rad/W, powers from 0 over one
period of the splitter):

* ``generate_synthetic.P<n>.exact`` and ``.noisy``: photon-pair records
  with channel scales, without noise and with 1 % noise;
* ``normalize_coincidences.P<n>``: the (1, 3) curve of the noisy records;
* ``fit_phase_scale.P<n>``: a 1 % noisy depletion curve of 30 and of 600
  points;
* ``fit_channel_scales.P<n>``: the two generation curves of channels 2 and 3;
* ``fit_zeta.P<n>.exact`` and ``.noisy``: the multiphoton ratio at 600
  singles rates, without noise and with 5 % noise;
* ``CountRecord``: one record of three singles and one coincidence.

Usage: ``PYTHONPATH=src python scripts/time_fits.py [--repeats K]``.
"""

import argparse
import json
import math
import platform
import time

import numpy as np

from nwaybs.fitting import (
    CountRecord,
    fit_channel_scales,
    fit_phase_scale,
    fit_zeta,
    generate_synthetic,
    normalize_coincidences,
)
from nwaybs.quantum import multiphoton_scaling_curve
from nwaybs.transfer import p_coeff, q_coeff

N_MODES = 3
KAPPA = 1.3              # rad/W
POINTS = 30              # points of a calibration curve
FIT_POINTS = (30, 600)   # points of the fit_phase_scale entries
ZETA_POINTS = 600        # singles rates of the fit_zeta entries
SYNTH_NOISE = 0.01       # relative noise of the records and the depletion curves
ZETA_NOISE = 0.05        # relative noise of the noisy fit_zeta entry


def min_ms(call, repeats: int) -> float:
    """The least wall time of ``repeats`` calls, in milliseconds."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 6)


def powers_of(n_points: int) -> np.ndarray:
    """``n_points`` pump powers from 0 over one period of the splitter at ``KAPPA``."""
    return np.linspace(0.0, 2.0 * math.pi / N_MODES / KAPPA, n_points)


def noisy(values: np.ndarray, noise: float, seed: int) -> np.ndarray:
    return values * (1.0 + noise * np.random.default_rng(seed).standard_normal(values.shape))


def fit_calls() -> dict:
    """One zero-argument call per timed entry, by name."""
    powers = powers_of(POINTS)
    synth = dict(n_modes=N_MODES, channel_scales=(1.0, 0.8, 0.7), accidental_rate=1.3, seed=1)
    calls = {f"generate_synthetic.P{POINTS}.{label}":
             (lambda noise=noise: generate_synthetic(KAPPA, powers, noise=noise, **synth))
             for label, noise in (("exact", 0.0), ("noisy", SYNTH_NOISE))}
    records = generate_synthetic(KAPPA, powers, noise=SYNTH_NOISE, **synth)
    calls[f"normalize_coincidences.P{POINTS}"] = lambda: normalize_coincidences(records)
    for n_points in FIT_POINTS:
        pw = powers_of(n_points)
        depletion = noisy(np.abs(p_coeff(N_MODES, KAPPA * pw)) ** 2, SYNTH_NOISE, 2)
        calls[f"fit_phase_scale.P{n_points}"] = (
            lambda pw=pw, depletion=depletion: fit_phase_scale(pw, depletion, N_MODES))
    generation = [(powers, noisy(scale * np.abs(q_coeff(N_MODES, KAPPA * powers)) ** 2,
                                 SYNTH_NOISE, seed))
                  for seed, scale in ((3, 0.8), (4, 0.7))]
    calls[f"fit_channel_scales.P{POINTS}"] = (
        lambda: fit_channel_scales(generation, KAPPA, N_MODES))
    curve = multiphoton_scaling_curve(np.linspace(0.05, 0.4, ZETA_POINTS))
    rates = curve["sinh2"] / 2.0
    for label, ratios in (("exact", 0.9 * curve["ratio"]),
                          ("noisy", np.clip(noisy(curve["ratio"], ZETA_NOISE, 5), 0.0, 1.0))):
        calls[f"fit_zeta.P{ZETA_POINTS}.{label}"] = lambda ratios=ratios: fit_zeta(rates, ratios)
    calls["CountRecord"] = lambda: CountRecord(0.5, (0.9, 0.1, 0.8), {(1, 3): 0.25},
                                               (1.3, 1.3, 1.3))
    return calls


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=200, help="calls per entry; the min is kept")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    report = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeats": args.repeats,
        "ms": {name: min_ms(call, args.repeats) for name, call in fit_calls().items()},
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
