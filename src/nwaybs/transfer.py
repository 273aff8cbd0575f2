"""Weak-field transfer matrices for the N-way frequency beamsplitter.

Three routes to the same object:

* ``ideal_transfer``   -- closed form for perfect phase matching and equal
  pump powers, entries p_N(phi) on the diagonal and q_N(phi) off it;
  ``ideal_rows`` builds any subset of its columns as their distinct rows
  with a map from output channel to row, and is the one builder of its
  entries.
* ``general_transfer`` -- matrix exponential of the Hermitian coupled-mode
  generator, valid for unequal powers and nonzero mismatch.
* ``lossy_transfer``   -- analytic solution with fiber attenuation, which
  is the ideal solution evaluated at the loss-reduced phase phi_alpha,
  scaled by exp(-alpha z).

Phase convention: ``ideal_transfer`` and ``general_transfer`` drop global
phase factors so they agree exactly where their domains overlap;
``lossy_transfer`` keeps the integrated pump-cross-phase prefactor
e^{i phi_alpha (N-1)} so its entries match lab-frame ODE integration
directly.  Observables (singles and coincidence statistics) are insensitive
to global phases either way.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionProfile, FrequencyGrid, MismatchReport, delta_beta_table


@dataclass(frozen=True)
class PumpConfig:
    """Pump powers (W) and phases (rad), one per channel."""

    powers: tuple[float, ...]
    phases: tuple[float, ...] | None = None

    def __post_init__(self):
        powers = tuple(float(p) for p in self.powers)
        phases = (0.0,) * len(powers) if self.phases is None else self.phases
        phases = tuple(float(t) for t in phases)
        for name, values in (("powers", powers), ("phases", phases)):
            if not all(map(math.isfinite, values)):
                raise ValueError(f"pump {name} must be finite")
        if any(p < 0 for p in powers):
            raise ValueError("pump powers must be >= 0")
        phases = tuple(t % (2 * math.pi) for t in phases)
        if len(phases) != len(powers):
            raise ValueError("powers and phases must have equal length")
        object.__setattr__(self, "powers", powers)
        object.__setattr__(self, "phases", phases)

    @property
    def n_modes(self) -> int:
        return len(self.powers)

    @property
    def amplitudes(self) -> np.ndarray:
        """Initial complex amplitudes A_n(0) = sqrt(P_n) e^{i theta_n} (W^1/2)."""
        return np.sqrt(np.asarray(self.powers)) * np.exp(1j * np.asarray(self.phases))

    def equal_powers(self) -> bool:
        p = np.asarray(self.powers)
        return bool(np.allclose(p, p[0], rtol=1e-12, atol=0.0))


@dataclass(frozen=True)
class TransferMatrix:
    """(..., N, N) complex mode map for the weak fields.

    ``entries`` is one N x N matrix or a stack of them, one per nonlinear
    phase.  ``entries / lossy_scale`` is unitary; ``lossy_scale`` is
    exp(-alpha z) (1 for lossless routes).  ``phi`` records the nonlinear
    phase, with the stack's leading shape: the phase given to
    ``ideal_transfer``, the loss-reduced phase phi_alpha for
    ``lossy_transfer``, and 2 gamma L mean(P) for ``general_transfer``.
    """

    entries: np.ndarray
    phi: float | np.ndarray
    lossy_scale: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=complex))

    @property
    def n_modes(self) -> int:
        return self.entries.shape[-1]

    def unitarity_residual(self) -> float:
        """Largest |U^dagger U - 1| entry over the whole stack."""
        u = self.entries / self.lossy_scale
        return float(np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(self.n_modes))))


@dataclass(frozen=True)
class NonlinearPhase:
    """Nonlinear phase 2*gamma*L*P and its loss-reduced counterpart."""

    phi: float
    phi_alpha: float


def sinhc(x: float) -> float:
    """sinh(x)/x, series branch near zero to avoid 0/0."""
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 + x2 / 6.0 * (1.0 + x2 / 20.0)
    return math.sinh(x) / x


def loss_reduced_phase(gamma: float, power: float, alpha: float, z: float) -> NonlinearPhase:
    """phi_alpha(z) = 2 gamma P z e^{-alpha z} sinhc(alpha z)."""
    phi = 2.0 * gamma * power * z
    phi_a = phi * math.exp(-alpha * z) * sinhc(alpha * z)
    return NonlinearPhase(phi=phi, phi_alpha=phi_a)


def q_coeff(n_modes: int, phi: float) -> complex:
    """Off-diagonal entry q_N(phi) = (e^{i N phi} - 1) / N."""
    return (np.exp(1j * n_modes * phi) - 1.0) / n_modes


def p_coeff(n_modes: int, phi: float) -> complex:
    """Diagonal entry p_N(phi) = q_N(phi) + 1."""
    return q_coeff(n_modes, phi) + 1.0


def _check_modes(n_modes) -> None:
    """The channel-count rule: an integer ``n_modes`` >= 2, checked before any cache (3.0 == 3)."""
    # an int first: the ABC test takes about 0.4 us, and every ideal_rows slab runs this
    if not (type(n_modes) is int or isinstance(n_modes, numbers.Integral)) or n_modes < 2:
        raise ValueError(f"n_modes must be an integer >= 2, got {n_modes!r}")


def ideal_rows(n_modes: int, phi, cols) -> tuple[np.ndarray, tuple[int, ...]]:
    """Columns ``cols`` of the closed-form transfer as their distinct rows, and the row map.

    Column ``cols[r]`` (0-based, any order) is q_N(phi) but for p_N(phi) =
    q_N(phi) + 1 in row ``cols[r]``, so the k columns have at most k + 1
    distinct rows: the k input rows and, when N > k, one shared q row.
    ``rows`` has shape ``phi.shape + (R, k)``, and output channel i reads row
    ``row_map[i]``, so ``rows[..., row_map, :]`` is the (..., N, k) column
    slab.  Rows are numbered in order of first channel, so when all N rows
    are distinct (N = 2, N = 3 with two input modes, or every column) the
    map is the identity.  At phi = 0 every entry is exactly 0 or 1 (q_N(0) is 0).
    """
    _check_modes(n_modes)
    cols = tuple(cols)
    row_map = _ideal_row_map(n_modes, cols)
    phi = np.asarray(phi, dtype=float)
    # each column is one contiguous (..., R) block, so the observables' sums
    # over input columns add whole blocks instead of reducing an inner axis
    # of length k
    c = np.empty((len(cols),) + phi.shape + (max(row_map) + 1,), dtype=complex)
    c[...] = np.asarray(q_coeff(n_modes, phi))[..., np.newaxis]
    for r, col in enumerate(cols):
        c[r, ..., row_map[col]] += 1.0
    return c.transpose(tuple(range(1, c.ndim)) + (0,)), row_map


@functools.lru_cache(maxsize=None)
def _ideal_row_map(n_modes: int, cols: tuple[int, ...]) -> tuple[int, ...]:
    """Row of each output channel in ``ideal_rows``: one per input column, one
    shared by every other channel, numbered in order of first channel."""
    if not all(0 <= c < n_modes for c in cols):
        raise ValueError(f"column indices must lie in [0, {n_modes})")
    first: dict[int, int] = {}
    return tuple(first.setdefault(ch if ch in cols else -1, len(first)) for ch in range(n_modes))


def ideal_transfer(n_modes: int, phi) -> TransferMatrix:
    """Closed-form transfer for zero mismatch and equal pump powers.

    A scalar ``phi`` gives one N x N matrix; an array of phases gives a
    stack of shape ``phi.shape + (N, N)``, in C order.  The entries are
    ``ideal_rows`` of every column, whose row map is the identity.
    """
    _check_modes(n_modes)
    phi = np.asarray(phi, dtype=float)
    u = np.ascontiguousarray(ideal_rows(n_modes, phi, range(n_modes))[0])
    return TransferMatrix(entries=u, phi=float(phi) if phi.ndim == 0 else phi)


def coupling_matrix(
    profile: DispersionProfile, pumps: PumpConfig, mismatch: MismatchReport | None = None
) -> np.ndarray:
    """Hermitian coupled-mode generator M with U = exp(i L M).

    Diagonal carries the nonlinear phase mismatch (0, dk_2, ..., dk_N);
    off-diagonal (n, l) carries 2 gamma A_l(0) A_n*(0).
    """
    n = pumps.n_modes
    amps = pumps.amplitudes
    m = 2.0 * profile.gamma * np.outer(amps.conj(), np.ones(n)) * amps[np.newaxis, :]
    np.fill_diagonal(m, 0.0)
    if mismatch is not None:
        if mismatch.n_modes != n:
            raise ValueError("mismatch report dimension does not match pump config")
        m = m + np.diag(mismatch.delta_k)
    if np.max(np.abs(m - m.conj().T)) > 1e-12 * max(1.0, np.max(np.abs(m))):
        raise AssertionError("coupled-mode generator is not Hermitian")
    return m


def general_transfer(
    profile: DispersionProfile,
    pumps: PumpConfig,
    mismatch: MismatchReport | None = None,
    absorb_global_phase: bool = True,
) -> TransferMatrix:
    """Transfer matrix exp(i L M) by Hermitian eigendecomposition.

    Output amplitudes are in the co-rotating frame of the coupled-mode
    equations (see ``rotating_frame_phases`` for lab-frame conversion).
    With ``absorb_global_phase`` the result is multiplied by
    e^{i 2 gamma L mean(P)} so it reduces exactly to ``ideal_transfer``
    for equal powers and zero mismatch.
    """
    m = coupling_matrix(profile, pumps, mismatch)
    evals, evecs = np.linalg.eigh(m)
    u = (evecs * np.exp(1j * profile.length * evals)) @ evecs.conj().T
    phi = 2.0 * profile.gamma * profile.length * float(np.mean(pumps.powers))
    if absorb_global_phase:
        u = u * np.exp(1j * phi)
    return TransferMatrix(entries=u, phi=phi)


def lossy_transfer(
    profile: DispersionProfile,
    pumps: PumpConfig,
    z: float | None = None,
    mismatch: MismatchReport | None = None,
) -> TransferMatrix:
    """Analytic transfer with attenuation, for equal powers and zero mismatch.

    A ``mismatch`` report is accepted only if every ``delta_k`` is exactly 0.

    entries = e^{-alpha z} e^{i phi_alpha (N-1)} * ideal_transfer(N,
    phi_alpha(z)) with pump-phase factors e^{i(theta_l - theta_n)} on the
    off-diagonal.  The e^{i phi_alpha (N-1)} prefactor is the integrated
    pump cross-phase; it is a global phase (invisible to any observable)
    but keeping it makes the entries agree directly with lab-frame ODE
    integration, so at alpha = 0 this equals ideal_transfer times
    e^{i phi (N-1)}.
    """
    if not pumps.equal_powers():
        raise ValueError("lossy closed form requires equal pump powers")
    if mismatch is not None and np.any(np.asarray(mismatch.delta_k) != 0.0):
        # a negligible mismatch is still a mismatch: dropping it would
        # compare the closed form against a different device
        raise ValueError("lossy closed form requires zero phase mismatch")
    if z is None:
        z = profile.length
    if not 0 <= z <= profile.length:
        raise ValueError("z must lie in [0, L]")
    n = pumps.n_modes
    nlp = loss_reduced_phase(profile.gamma, pumps.powers[0], profile.alpha, z)
    theta = np.asarray(pumps.phases)
    phase = np.exp(1j * (theta[np.newaxis, :] - theta[:, np.newaxis]))
    u = ideal_transfer(n, nlp.phi_alpha).entries * phase * np.exp(1j * nlp.phi_alpha * (n - 1))
    scale = math.exp(-profile.alpha * z)
    return TransferMatrix(entries=scale * u, phi=nlp.phi_alpha, lossy_scale=scale)


def pump_evolution(pumps: PumpConfig, profile: DispersionProfile, z: float) -> np.ndarray:
    """Closed-form pump amplitudes A_n(z).

    Lossless: constant magnitude with self/cross-phase rotation
    Gamma_n = gamma (P_n + 2 sum_{p != n} P_p).  With attenuation the closed
    form exists for equal powers only: sqrt(P) e^{i theta_n} e^{-alpha z}
    e^{i phi_alpha(z) (N - 1/2)}.
    """
    amps = pumps.amplitudes
    powers = np.asarray(pumps.powers)
    if profile.alpha == 0.0:
        gamma_n = profile.gamma * (powers + 2.0 * (powers.sum() - powers))
        return amps * np.exp(1j * gamma_n * z)
    if not pumps.equal_powers():
        raise ValueError("lossy pump closed form requires equal powers")
    n = pumps.n_modes
    nlp = loss_reduced_phase(profile.gamma, pumps.powers[0], profile.alpha, z)
    return amps * math.exp(-profile.alpha * z) * np.exp(1j * nlp.phi_alpha * (n - 0.5))


def rotating_frame_phases(
    profile: DispersionProfile, grid: FrequencyGrid, pumps: PumpConfig
) -> np.ndarray:
    """Frame rotation rates varphi_n relating lab and rotating frames.

    b_lab_n(z) = e^{-i varphi_n z} b_rot_n(z), with
    varphi_n = dbeta_n1 + gamma (P_1 - P_n - 2 sum_p P_p).
    """
    powers = np.asarray(pumps.powers)
    dbeta = delta_beta_table(profile, grid)[:, 0]
    return dbeta + profile.gamma * (powers[0] - powers - 2.0 * powers.sum())


def to_lab_frame(
    rotating_entries: np.ndarray,
    profile: DispersionProfile,
    grid: FrequencyGrid,
    pumps: PumpConfig,
    z: float,
) -> np.ndarray:
    """Convert a rotating-frame transfer matrix to lab-frame amplitudes at z."""
    varphi = rotating_frame_phases(profile, grid, pumps)
    return np.diag(np.exp(-1j * varphi * z)) @ np.asarray(rotating_entries, dtype=complex)
