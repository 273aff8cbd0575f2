"""Brute-force integration of the coupled-mode equations.

This is the classical oracle for the transfer module: it integrates the
pump self/cross-phase equations and the weak-field Bragg-scattering
equations (including attenuation and the mismatch phasors supplied by the
dispersion module) with a fixed-step RK4 scheme, and optionally the full
unapproximated four-wave-mixing sum to quantify the undepleted-pump error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionProfile, FrequencyGrid, beta_eval, delta_beta_pair
from .transfer import PumpConfig

# Weak seeds may carry at most this fraction of the smallest pump power.
UNDEPLETED_POWER_RATIO = 1e-6


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed-step RK4 settings.

    ``richardson_tol`` bounds the max-norm discrepancy between the full-step
    and half-step solutions when ``richardson_check`` is on.
    """

    step: float
    richardson_check: bool = True
    richardson_tol: float = 1e-8

    def validate(self, length: float) -> None:
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if self.step > length / 100:
            raise ValueError("step must be <= L/100")


def rk4_integrate(rhs, y0: np.ndarray, z_end: float, step: float) -> np.ndarray:
    """Integrate dy/dz = rhs(z, y) from 0 to z_end; returns the trajectory.

    The grid is n_steps + 1 points including both endpoints; the last
    interval is shrunk so the final point lands exactly on z_end.
    """
    n_steps = max(1, int(math.ceil(z_end / step - 1e-12)))
    zs = np.linspace(0.0, z_end, n_steps + 1)
    traj = np.empty((n_steps + 1, len(y0)), dtype=complex)
    traj[0] = y0
    y = np.array(y0, dtype=complex)
    for i in range(n_steps):
        z = zs[i]
        h = zs[i + 1] - zs[i]
        k1 = rhs(z, y)
        k2 = rhs(z + h / 2, y + h / 2 * k1)
        k3 = rhs(z + h / 2, y + h / 2 * k2)
        k4 = rhs(z + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        traj[i + 1] = y
    return traj


def _run_with_richardson(rhs, y0, z_end, settings: IntegratorSettings):
    with np.errstate(over="ignore", invalid="ignore"):
        traj = rk4_integrate(rhs, y0, z_end, settings.step)
        if settings.richardson_check:
            fine = rk4_integrate(rhs, y0, z_end, settings.step / 2)
            err = np.max(np.abs(fine[-1] - traj[-1]))
            scale = max(1.0, float(np.max(np.abs(traj[-1]))))
            # a non-finite err means the integration diverged outright,
            # which must also be reported as a step failure
            if not np.isfinite(err) or err > settings.richardson_tol * scale:
                raise RuntimeError(
                    f"step-halving discrepancy {err:.3e} exceeds tolerance; "
                    "reduce step"
                )
    return traj


def _pump_rhs(profile: DispersionProfile):
    gamma, alpha = profile.gamma, profile.alpha

    def rhs(z, a):
        powers = np.abs(a) ** 2
        xpm = powers + 2.0 * (powers.sum() - powers)
        return (-alpha + 1j * gamma * xpm) * a

    return rhs


def integrate_pumps(
    profile: DispersionProfile, pumps: PumpConfig, settings: IntegratorSettings
) -> np.ndarray:
    """Pump amplitude trajectory under self/cross-phase modulation and loss."""
    settings.validate(profile.length)
    return _run_with_richardson(
        _pump_rhs(profile), pumps.amplitudes, profile.length, settings
    )


def integrate_weak(
    profile: DispersionProfile,
    grid: FrequencyGrid,
    pumps: PumpConfig,
    initial_weak,
    settings: IntegratorSettings,
) -> np.ndarray:
    """Final lab-frame weak-field amplitudes after propagation over L.

    Integrates the linearized Bragg-scattering equations jointly with the
    pump equations; the mismatch phasors come from the dispersion module.
    Raises if the seed power violates the undepleted-pump regime.
    """
    settings.validate(profile.length)
    b0 = np.asarray(initial_weak, dtype=complex)
    n = grid.n_modes
    if len(b0) != n or pumps.n_modes != n:
        raise ValueError("dimension mismatch between grid, pumps, and seed")
    min_pump = min(p for p in pumps.powers if p > 0) if any(pumps.powers) else 0.0
    # with no pumps at all the weak fields only pick up loss: no seed limit
    if min_pump > 0.0 and np.max(np.abs(b0)) ** 2 > UNDEPLETED_POWER_RATIO * min_pump * (1 + 1e-9):
        raise ValueError(
            "weak seed power violates the undepleted-pump regime "
            f"(> {UNDEPLETED_POWER_RATIO:g} of the smallest pump power)"
        )

    gamma, alpha = profile.gamma, profile.alpha
    # dbeta[l, n] multiplies the phasor coupling channel l into channel n
    dbeta = np.zeros((n, n))
    for l in range(1, n + 1):
        for k in range(1, n + 1):
            if l != k:
                dbeta[l - 1, k - 1] = delta_beta_pair(profile, grid, l, k)

    pump_rhs = _pump_rhs(profile)

    def rhs(z, y):
        a = y[:n]
        b = y[n:]
        da = pump_rhs(z, a)
        xpm = 2.0 * np.sum(np.abs(a) ** 2)
        db = (-alpha + 1j * gamma * xpm) * b
        phasor = np.exp(1j * dbeta * z)
        # sum_l e^{i dbeta_ln z} A_l A_n^* b_l  for each n
        coupling = (phasor * np.outer(a * b, np.ones(n))).sum(axis=0) * a.conj()
        coupling -= a * b * a.conj()  # remove the l = n term
        db = db + 2j * gamma * coupling
        return np.concatenate([da, db])

    y0 = np.concatenate([pumps.amplitudes, b0])
    traj = _run_with_richardson(rhs, y0, profile.length, settings)
    return traj[-1, n:]


def full_fwm_reference(
    profile: DispersionProfile,
    freqs,
    initial_amps,
    settings: IntegratorSettings,
) -> np.ndarray:
    """Integrate the unapproximated four-wave-mixing sum over all fields.

    Every ordered index triple (k, l, m) with omega_k + omega_l = omega_m +
    omega_n (on the supplied discrete grid, to relative tolerance 1e-9)
    contributes i gamma e^{i dbeta z} A_k A_l A_m^* to field n.  Limited to
    8 fields; the term count grows combinatorially.
    """
    settings.validate(profile.length)
    w = np.asarray(freqs, dtype=float)
    a0 = np.asarray(initial_amps, dtype=complex)
    nf = len(w)
    if nf != len(a0):
        raise ValueError("freqs and initial_amps must have equal length")
    if nf > 8:
        raise ValueError("full FWM reference limited to 8 fields")

    beta = np.array([beta_eval(profile, wi) for wi in w])
    scale = np.max(np.abs(w))
    triples = [[] for _ in range(nf)]
    for n in range(nf):
        for k in range(nf):
            for l in range(nf):
                for m in range(nf):
                    if abs(w[k] + w[l] - w[m] - w[n]) <= 1e-9 * scale:
                        db = beta[k] + beta[l] - beta[m] - beta[n]
                        triples[n].append((k, l, m, db))
    if any(len(t) == 0 for t in triples):
        raise ValueError("grid admits no energy-conserving closure for some field")

    gamma, alpha = profile.gamma, profile.alpha

    def rhs(z, a):
        da = np.zeros(nf, dtype=complex)
        for n in range(nf):
            acc = 0.0 + 0.0j
            for k, l, m, db in triples[n]:
                acc += np.exp(1j * db * z) * a[k] * a[l] * a[m].conjugate()
            da[n] = 1j * gamma * acc - alpha * a[n]
        return da

    traj = _run_with_richardson(rhs, a0, profile.length, settings)
    return traj[-1]
