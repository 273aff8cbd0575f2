"""Fiber dispersion, wavevector mismatch, and phase-matched frequency grids.

All frequencies are angular (rad/s). The fiber is described by a Taylor
expansion of the propagation constant around a carrier frequency omega0:

    beta(omega) = sum_m beta_m / m! * (omega - omega0)**m

Mode indices follow the 1-based labeling of the pump/weak-field pairs:
pump i and weak field i form one frequency channel, and the mismatch for
channel n is always measured relative to channel 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy  # scipy.optimize loads on first attribute access

# Taylor orders above beta_6 add nothing physical here and condition badly.
MAX_BETA_ORDER = 6

# |dk| * L below this fraction of pi counts as negligible mismatch.
DEFAULT_NEGLIGIBILITY = 0.01 * math.pi


@dataclass(frozen=True)
class DispersionProfile:
    """Fiber dispersion and nonlinearity parameters.

    omega0       carrier angular frequency (rad/s)
    beta_coeffs  Taylor coefficients beta_m (s^m / m), m = 0..M, M <= 6
    gamma        effective nonlinearity (1 / (W m))
    length       fiber length (m)
    alpha        field attenuation (1/m); power decays as exp(-2*alpha*z)
    """

    omega0: float
    beta_coeffs: tuple[float, ...]
    gamma: float
    length: float
    alpha: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "beta_coeffs", tuple(float(b) for b in self.beta_coeffs))
        if len(self.beta_coeffs) == 0:
            raise ValueError("beta_coeffs must be non-empty")
        if len(self.beta_coeffs) - 1 > MAX_BETA_ORDER:
            raise ValueError(
                f"beta Taylor order capped at {MAX_BETA_ORDER}; "
                f"got order {len(self.beta_coeffs) - 1}"
            )
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.length <= 0:
            raise ValueError("length must be > 0")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")

    @property
    def order(self) -> int:
        return len(self.beta_coeffs) - 1


@dataclass(frozen=True)
class FrequencyGrid:
    """Pump and weak-field angular frequencies, one pair per channel."""

    pump_freqs: tuple[float, ...]
    weak_freqs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "pump_freqs", tuple(float(f) for f in self.pump_freqs))
        object.__setattr__(self, "weak_freqs", tuple(float(f) for f in self.weak_freqs))
        if len(self.pump_freqs) != len(self.weak_freqs):
            raise ValueError("pump_freqs and weak_freqs must have equal length")
        if len(self.pump_freqs) < 2:
            raise ValueError("need at least 2 channels")
        for freqs in (self.pump_freqs, self.weak_freqs):
            if any(f <= 0 for f in freqs):
                raise ValueError("frequencies must be strictly positive")
            if len(set(freqs)) != len(freqs):
                raise ValueError("frequencies must be pairwise distinct")

    @property
    def n_modes(self) -> int:
        return len(self.pump_freqs)


@dataclass(frozen=True)
class MismatchReport:
    """Per-channel wavevector and nonlinear phase mismatch.

    delta_beta[n-1] is the linear mismatch of channel n relative to channel 1,
    delta_k[n-1] adds the pump-power cross-phase correction, and negligible
    flags |delta_k| * L < threshold.
    """

    delta_beta: np.ndarray
    delta_k: np.ndarray
    negligible: np.ndarray
    threshold: float = DEFAULT_NEGLIGIBILITY

    @property
    def n_modes(self) -> int:
        return len(self.delta_k)


def beta_eval(profile: DispersionProfile, omega) -> float | np.ndarray:
    """Evaluate the Taylor propagation constant beta(omega) (1/m)."""
    d = np.asarray(omega, dtype=float) - profile.omega0
    out = np.zeros_like(d)
    for m in range(profile.order, -1, -1):
        out = out * d + profile.beta_coeffs[m] / math.factorial(m)
    if np.ndim(omega) == 0:
        return float(out)
    return out


def beta2_eval(profile: DispersionProfile, omega) -> float | np.ndarray:
    """Second derivative of beta (group-velocity dispersion) at omega."""
    d = np.asarray(omega, dtype=float) - profile.omega0
    out = np.zeros_like(d)
    for m in range(profile.order, 1, -1):
        out = out * d + profile.beta_coeffs[m] / math.factorial(m - 2)
    if np.ndim(omega) == 0:
        return float(out)
    return out


def delta_beta_pair(profile: DispersionProfile, grid: FrequencyGrid, n: int, m: int) -> float:
    """Linear wavevector mismatch between channels n and m (1-based).

    beta(pump_n) + beta(weak_n) - beta(pump_m) - beta(weak_m)
    """
    nch = grid.n_modes
    if not (1 <= n <= nch and 1 <= m <= nch):
        raise IndexError(f"channel index out of range 1..{nch}")
    if n == m:
        return 0.0
    return (
        beta_eval(profile, grid.pump_freqs[n - 1])
        + beta_eval(profile, grid.weak_freqs[n - 1])
        - beta_eval(profile, grid.pump_freqs[m - 1])
        - beta_eval(profile, grid.weak_freqs[m - 1])
    )


def nonlinear_mismatch(
    profile: DispersionProfile,
    grid: FrequencyGrid,
    pump_powers,
    threshold: float = DEFAULT_NEGLIGIBILITY,
) -> MismatchReport:
    """Nonlinear phase mismatch dk_n = dbeta_n1 + gamma * (P_1 - P_n) per channel."""
    powers = np.asarray(pump_powers, dtype=float)
    if len(powers) != grid.n_modes:
        raise ValueError("pump_powers length must match grid")
    if np.any(powers < 0):
        raise ValueError("pump powers must be >= 0")
    n = grid.n_modes
    dbeta = np.array([delta_beta_pair(profile, grid, i, 1) for i in range(1, n + 1)])
    dk = dbeta + profile.gamma * (powers[0] - powers)
    # Channel 1 vanishes identically by definition; pin it against rounding.
    dbeta[0] = 0.0
    dk[0] = 0.0
    negligible = np.abs(dk) * profile.length < threshold
    return MismatchReport(delta_beta=dbeta, delta_k=dk, negligible=negligible, threshold=threshold)


def find_zgvd(
    profile: DispersionProfile,
    search_halfwidth: float = 2 * math.pi * 50e12,
    tol: float = 2 * math.pi * 1e3,
) -> float:
    """Locate the zero-GVD frequency, where beta2(omega) = 0.

    Searches +-search_halfwidth around the carrier by dense sign-change
    scanning followed by bracketed root refinement.
    """
    if all(b == 0.0 for b in profile.beta_coeffs[2:]):
        # beta2 identically zero: every frequency qualifies, use the carrier.
        return profile.omega0
    lo = profile.omega0 - search_halfwidth
    hi = profile.omega0 + search_halfwidth
    grid = np.linspace(lo, hi, 4097)
    vals = beta2_eval(profile, grid)
    sign_change = np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0)[0]
    exact = np.nonzero(vals == 0.0)[0]
    if len(exact):
        return float(grid[exact[0]])
    if len(sign_change) == 0:
        raise ValueError("beta2 has constant sign over the search interval; no zero-GVD point")
    i = sign_change[0]
    root = scipy.optimize.brentq(lambda w: beta2_eval(profile, w), grid[i], grid[i + 1], xtol=tol)
    return float(root)


def symmetric_grid(zgvd: float, pump_offsets) -> FrequencyGrid:
    """Place pumps at zgvd + offset_i and weak fields at zgvd - offset_i.

    Mirror placement makes every channel sum pump_i + weak_i equal (energy
    conservation) and cancels all odd-order dispersion about the zero-GVD
    point in the channel-to-channel mismatch; centering on the zero-GVD
    point removes the quadratic term, so only quartic and higher even
    orders contribute to delta_beta.
    """
    offsets = [float(o) for o in pump_offsets]
    if len(set(offsets)) != len(offsets):
        raise ValueError("pump offsets must be distinct")
    if any(o == 0.0 for o in offsets):
        raise ValueError("pump offsets must be nonzero")
    pumps = tuple(zgvd + o for o in offsets)
    weaks = tuple(zgvd - o for o in offsets)
    return FrequencyGrid(pump_freqs=pumps, weak_freqs=weaks)
