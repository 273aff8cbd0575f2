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
from dataclasses import dataclass

import numpy as np

# Taylor orders above beta_6 add nothing physical here and condition badly.
MAX_BETA_ORDER = 6

# |dk| * L below this fraction of pi counts as negligible mismatch.
DEFAULT_NEGLIGIBILITY = 0.01 * math.pi

# find_zgvd looks for the zero-GVD point this far either side of the carrier.
ZGVD_SEARCH_HALFWIDTH = 2 * math.pi * 50e12


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
        for name in ("omega0", "beta_coeffs", "gamma", "length", "alpha"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
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
        for name, freqs in (("pump_freqs", self.pump_freqs), ("weak_freqs", self.weak_freqs)):
            if not all(map(math.isfinite, freqs)):
                raise ValueError(f"{name} must be finite")
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
    flags |delta_k| * L < DEFAULT_NEGLIGIBILITY.
    """

    delta_beta: np.ndarray
    delta_k: np.ndarray
    negligible: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.delta_k)


def taylor_coeffs(profile: DispersionProfile, derivative: int = 0) -> list[float]:
    """Coefficients c_k of (omega - omega0)**k in beta (0) or in its second derivative (2)."""
    b = profile.beta_coeffs
    return [b[m] / math.factorial(m - derivative) for m in range(derivative, len(b))]


def _horner(profile: DispersionProfile, derivative: int, omega) -> float | np.ndarray:
    d = np.asarray(omega, dtype=float) - profile.omega0
    out = np.zeros_like(d)
    for c in reversed(taylor_coeffs(profile, derivative)):
        out = out * d + c
    return float(out) if np.ndim(omega) == 0 else out


def beta_eval(profile: DispersionProfile, omega) -> float | np.ndarray:
    """Evaluate the Taylor propagation constant beta(omega) (1/m)."""
    return _horner(profile, 0, omega)


def beta2_eval(profile: DispersionProfile, omega) -> float | np.ndarray:
    """Second derivative of beta (group-velocity dispersion) at omega."""
    return _horner(profile, 2, omega)


def delta_beta_table(profile: DispersionProfile, grid: FrequencyGrid) -> np.ndarray:
    """(N, N) linear mismatch between all channels, zero on the diagonal.

    Entry [n-1, m-1] is beta(pump_n) + beta(weak_n) - beta(pump_m) - beta(weak_m).
    """
    b_p = beta_eval(profile, grid.pump_freqs)
    b_w = beta_eval(profile, grid.weak_freqs)
    table = (b_p + b_w)[:, np.newaxis] - b_p - b_w
    np.fill_diagonal(table, 0.0)
    return table


def delta_beta_pair(profile: DispersionProfile, grid: FrequencyGrid, n: int, m: int) -> float:
    """Linear mismatch between channels n and m (1-based): one entry of ``delta_beta_table``."""
    nch = grid.n_modes
    if not (1 <= n <= nch and 1 <= m <= nch):
        raise IndexError(f"channel index out of range 1..{nch}")
    return float(delta_beta_table(profile, grid)[n - 1, m - 1])


def nonlinear_mismatch(profile: DispersionProfile, grid: FrequencyGrid,
                       pump_powers) -> MismatchReport:
    """Nonlinear phase mismatch dk_n = dbeta_n1 + gamma * (P_1 - P_n) per channel."""
    powers = np.asarray(pump_powers, dtype=float)
    if len(powers) != grid.n_modes:
        raise ValueError("pump_powers length must match grid")
    if np.any(powers < 0):
        raise ValueError("pump powers must be >= 0")
    # channel 1 is exactly 0 in both: the table's diagonal and P_1 - P_1
    dbeta = delta_beta_table(profile, grid)[:, 0]
    dk = dbeta + profile.gamma * (powers[0] - powers)
    negligible = np.abs(dk) * profile.length < DEFAULT_NEGLIGIBILITY
    return MismatchReport(delta_beta=dbeta, delta_k=dk, negligible=negligible)


def find_zgvd(profile: DispersionProfile) -> float:
    """Locate the zero-GVD frequency, where beta2(omega) = 0.

    beta2 is a polynomial of degree <= 4 in omega - omega0.  Its roots come
    from ``np.roots`` in units of ``ZGVD_SEARCH_HALFWIDTH``, and the lowest
    real root within that half-width of the carrier is returned.  If beta2
    vanishes identically, every frequency qualifies and the carrier is
    returned; with no real root in the window, raises ``ValueError``.
    """
    coeffs = taylor_coeffs(profile, 2)
    if not any(coeffs):
        return profile.omega0
    h = ZGVD_SEARCH_HALFWIDTH
    # np.roots takes the highest power first; a real root has imaginary part exactly 0
    roots = np.roots([c * h**k for k, c in enumerate(coeffs)][::-1])
    inside = roots.real[(roots.imag == 0) & (np.abs(roots.real) <= 1.0)]
    if len(inside) == 0:
        raise ValueError("beta2 has constant sign over the search interval; no zero-GVD point")
    return profile.omega0 + h * float(np.min(inside))


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
