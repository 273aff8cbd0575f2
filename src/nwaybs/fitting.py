"""Count-data normalization and model fitting.

Reimplements the analysis chain used on the measured curves: accidental
normalization of coincidences, a one-parameter fit converting pump peak
power to nonlinear phase (phi = kappa * P), per-channel linear scale
factors, and extraction of the squeezing magnitude |zeta| from the
multiphoton/pair coincidence ratio.  A seeded synthetic-data generator
closes the loop for validation.

All fits are deterministic: identical inputs (and seeds) give bit-identical
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# top level, not in the fits: benchmarks/worker.py reads sys.modules["scipy"].__version__
import scipy  # scipy.optimize loads on first attribute access

from .quantum import BLOCK_ENTRIES, InputState, correlation_curve, multiphoton_ratio_model
from .transfer import p_coeff, q_coeff

ITERATION_CAP = 10_000
PARAM_TOL = 1e-10
RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class CountRecord:
    """One acquisition: rates at a given pump peak power (counts/s)."""

    pump_peak_power: float
    singles: tuple[float, ...]
    coincidences: dict = field(default_factory=dict)  # (i, j) -> rate
    accidental_singles: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "singles", tuple(float(s) for s in self.singles))
        object.__setattr__(
            self, "accidental_singles", tuple(float(s) for s in self.accidental_singles)
        )
        if self.pump_peak_power < 0:
            raise ValueError("pump power must be >= 0")
        if any(s < 0 for s in self.singles + self.accidental_singles):
            raise ValueError("rates must be >= 0")
        if any(r < 0 for r in self.coincidences.values()):
            raise ValueError("rates must be >= 0")


@dataclass(frozen=True)
class FitResult:
    phase_scale: float = math.nan     # rad/W
    channel_scales: tuple[float, ...] = ()
    zeta: float = math.nan
    residual_norm: float = math.nan
    converged: bool = False
    iterations: int = 0


def normalize_coincidences(records, ports=(1, 3)):
    """Accidental-normalized coincidence curve versus pump power.

    Each coincidence rate is divided by the product of the concurrent
    pumps-off singles rates, and the whole curve is then rescaled to equal
    1 at zero pump power.  Returns (powers, normalized values), sorted by
    power.
    """
    records = sorted(records, key=lambda r: r.pump_peak_power)
    if not records or records[0].pump_peak_power != 0.0:
        raise ValueError("need a zero-pump-power record for normalization")
    i, j = ports
    powers = []
    values = []
    for rec in records:
        if len(rec.accidental_singles) < max(ports):
            raise ValueError("record lacks accidental singles for the requested ports")
        acc = rec.accidental_singles[i - 1] * rec.accidental_singles[j - 1]
        if acc == 0.0:
            raise ValueError("zero accidental rate; normalization undefined")
        key = (min(ports), max(ports))
        if key not in rec.coincidences:
            raise ValueError(f"record lacks coincidences for ports {key}")
        powers.append(rec.pump_peak_power)
        values.append(rec.coincidences[key] / acc)
    values = np.asarray(values)
    if values[0] == 0.0:
        raise ValueError("zero-power coincidence vanishes; cannot normalize")
    return np.asarray(powers), values / values[0]


def _depletion_model(kappa, powers: np.ndarray, n_modes: int) -> np.ndarray:
    return np.abs(p_coeff(n_modes, kappa * powers)) ** 2


def _scan_objective(grid: np.ndarray, powers: np.ndarray, values: np.ndarray,
                    n_modes: int) -> np.ndarray:
    """Squared residual at every kappa of ``grid``.

    Evaluated in blocks of at most ``BLOCK_ENTRIES`` (kappa, power) entries.
    Each row's sum of squares is a stacked (1, P) @ (P, 1) product, which
    equals the scalar ``r @ r`` bit for bit.
    """
    obj = np.empty(len(grid))
    block = max(1, BLOCK_ENTRIES // len(powers))
    for start in range(0, len(grid), block):
        rows = slice(start, start + block)
        r = values - _depletion_model(grid[rows, np.newaxis], powers, n_modes)
        obj[rows] = (r[:, np.newaxis, :] @ r[:, :, np.newaxis])[:, 0, 0]
    return obj


def fit_phase_scale(powers, values, n_modes: int = 3) -> FitResult:
    """Fit the power-to-phase conversion kappa against |p(kappa P)|^2.

    Coarse scan over [0, kappa_max], with kappa_max set to allow up to two
    full oscillations of |p|^2 over the data, followed by bounded golden-section /
    parabolic refinement of the squared-residual objective.  The 513-point
    scan is evaluated as one array, in blocks of at most ``BLOCK_ENTRIES``
    (kappa, power) entries, and gives the same floats as the scalar
    objective.  Ties in the coarse scan break toward smaller kappa.
    """
    powers = np.asarray(powers, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(powers) < 5:
        raise ValueError("need at least 5 points")
    if np.ptp(values) < 1e-12:
        raise ValueError("degenerate flat data; phase scale unidentifiable")
    pmax = powers.max()
    if pmax <= 0:
        raise ValueError("need nonzero pump powers")
    kappa_max = 2.0 * (2.0 * math.pi / n_modes) / pmax * 2.0

    def objective(kappa):
        r = values - _depletion_model(kappa, powers, n_modes)
        return float(r @ r)

    grid = np.linspace(0.0, kappa_max, 513)
    obj = _scan_objective(grid, powers, values, n_modes)
    best = int(np.argmin(obj))  # argmin takes the first (smallest kappa) on ties
    lo = grid[max(0, best - 1)]
    hi = grid[min(len(grid) - 1, best + 1)]
    res = scipy.optimize.minimize_scalar(
        objective, bounds=(lo, hi), method="bounded",
        options={"xatol": PARAM_TOL * max(kappa_max, 1.0), "maxiter": ITERATION_CAP},
    )
    kappa = float(res.x)
    return FitResult(
        phase_scale=kappa,
        residual_norm=math.sqrt(objective(kappa)),
        converged=bool(res.success),
        iterations=int(res.nfev) + len(grid),
    )


def fit_channel_scales(generation_curves, phase_scale: float, n_modes: int = 3):
    """Per-channel multiplicative factors against |q(kappa P)|^2.

    Linear least squares has the closed form scale = <data, model> /
    <model, model> per channel.  A channel with all-zero data gets scale 0.
    """
    scales = []
    for powers, values in generation_curves:
        powers = np.asarray(powers, dtype=float)
        values = np.asarray(values, dtype=float)
        model = np.abs(q_coeff(n_modes, phase_scale * powers)) ** 2
        denom = float(model @ model)
        if denom == 0.0:
            raise ValueError("model curve vanishes identically; check phase scale")
        scales.append(float(values @ model) / denom)
    return tuple(scales)


def fit_zeta(singles_rates, ratios) -> FitResult:
    """Extract |zeta| from the tap-coincidence ratio versus singles rate.

    Model: ratio = scale * s / (2 (1 + s)) with s = conv * singles, where
    ``conv`` converts the measured singles rate to sinh^2|zeta| and
    ``scale`` absorbs relative detection efficiency.  The reported zeta is
    the value implied at the largest singles rate.
    """
    s_rates = np.asarray(singles_rates, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    if len(s_rates) < 3:
        raise ValueError("need at least 3 points")
    if np.any(ratios > 1.0):
        raise ValueError("ratio exceeds 1; outside the model range")
    if np.max(np.abs(ratios)) == 0.0:
        return FitResult(zeta=0.0, residual_norm=0.0, converged=True, iterations=0)

    smax = float(s_rates.max())

    def model(params):
        scale, conv = params
        return scale * multiphoton_ratio_model(conv * s_rates)

    def resid(params):
        return model(np.abs(params)) - ratios

    # initial guess from the small-s slope assuming unit efficiency scale
    slope0 = float(ratios[-1] / s_rates[-1]) if s_rates[-1] > 0 else 1.0
    x0 = np.array([1.0, 2.0 * slope0])
    res = scipy.optimize.least_squares(resid, x0, method="lm", xtol=PARAM_TOL,
                                       ftol=RESIDUAL_TOL, max_nfev=ITERATION_CAP)
    scale, conv = np.abs(res.x)
    zeta = math.asinh(math.sqrt(conv * smax))
    return FitResult(
        zeta=zeta,
        channel_scales=(float(scale),),
        residual_norm=float(np.linalg.norm(res.fun)),
        converged=bool(res.success),
        iterations=int(res.nfev),
    )


def generate_synthetic(
    phase_scale: float,
    powers,
    n_modes: int = 3,
    input_kind: str = "photon_pair",
    channel_scales=None,
    accidental_rate: float = 1.0,
    noise: float = 0.0,
    seed: int = 0,
    state: InputState | None = None,
):
    """Synthetic CountRecords from the closed-form model at phi = kappa P.

    ``state`` is the full ``InputState`` (modes, amplitude, zeta, losses);
    without it, ``input_kind`` selects that kind on its default modes.  Applies
    per-channel scale factors and multiplicative Gaussian noise of relative
    width ``noise``; deterministic for a fixed seed.  The returned list
    always starts with a zero-power record usable for normalization.
    """
    if not noise >= 0:
        raise ValueError("noise must be >= 0")
    powers = np.asarray(powers, dtype=float)
    if powers[0] != 0.0:
        powers = np.concatenate([[0.0], powers])
    scales = np.ones(n_modes) if channel_scales is None else np.asarray(channel_scales)
    rng = np.random.default_rng(seed)
    state = state or InputState(kind=input_kind)
    curve = correlation_curve(state, phase_scale * powers, n_modes=n_modes)
    pairs = list(curve.g2)
    g2 = np.column_stack([curve.g2[pr] for pr in pairs])
    pair_scales = np.array([scales[i - 1] * scales[j - 1] * accidental_rate**2 for i, j in pairs])
    # one (P, N + pairs) table: scaled singles, then the scaled coincidences;
    # every single is kept, a pair only where its coincidence is defined
    table = np.hstack([scales[:n_modes] * curve.singles, pair_scales * g2])
    kept = np.hstack([np.ones(curve.singles.shape, dtype=bool), ~np.isnan(g2)])
    if noise:
        # one draw per kept entry, record by record: singles, then pairs
        table[kept] *= 1.0 + noise * rng.standard_normal(np.count_nonzero(kept))
        # the noise factor has no floor, so a wide noise can flip a rate's sign
        negative = (table < 0).any(axis=1)
        if negative.any():
            raise ValueError(f"noise {noise:g} drew a negative rate at pump power "
                             f"{powers[negative.argmax()]:g} W; use a smaller noise")
    acc = (accidental_rate,) * n_modes
    records = []
    for power, row, keep in zip(powers, table.tolist(), kept.tolist()):
        coinc = {pr: v for pr, v, k in zip(pairs, row[n_modes:], keep[n_modes:]) if k}
        records.append(
            CountRecord(pump_peak_power=power, singles=row[:n_modes], coincidences=coinc,
                        accidental_singles=acc)
        )
    return records
