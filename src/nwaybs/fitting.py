"""Count-data normalization and model fitting.

Reimplements the analysis chain used on the measured curves: accidental
normalization of coincidences, a one-parameter fit converting pump peak
power to nonlinear phase (phi = kappa * P), per-channel linear scale
factors, and extraction of the squeezing magnitude |zeta| from the
multiphoton/pair coincidence ratio.  A seeded synthetic-data generator
closes the loop for validation.

Both nonlinear fits run in this module, in numpy and plain Python:

* ``fit_phase_scale`` scans kappa on a grid and refines the best bracket
  with Brent's bounded minimization (golden section with parabolic steps;
  Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 5).
  ``_bounded_min`` performs the float operations of scipy's
  ``minimize_scalar(method="bounded")`` in the same order, so its result
  and evaluation count equal scipy's bit for bit.
* ``fit_zeta`` is a two-parameter Levenberg-Marquardt fit (Moré, *Lecture
  Notes in Math.* 630, 1978) with the analytic Jacobian of the ratio model.

``FitResult.iterations`` counts objective (residual) evaluations.  All fits
are deterministic: identical inputs (and seeds) give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# top level, not in the fits: benchmarks/worker.py reads sys.modules["scipy"].__version__
import scipy

from .quantum import InputState, correlation_curve, multiphoton_ratio_model
from .transfer import p_coeff, q_coeff

ITERATION_CAP = 10_000
PARAM_TOL = 1e-10
RESIDUAL_TOL = 1e-12
# fit_zeta's linear limit: with conv * max(singles) at or below it, the model
# departs from the line scale * conv * s / 2 by at most that share over the
# data.  It is sqrt(RESIDUAL_TOL), the relative residual norm the fit
# resolves, so the data then fix scale * conv but not conv.
LINEAR_LIMIT = 1e-6
# (kappa, power) entries per block of the coarse scan: its complex
# temporaries then stay below glibc's 128 KiB mmap threshold, so each block
# reuses freed heap memory instead of mapping (and page-faulting) fresh pages
SCAN_BLOCK_ENTRIES = 4096


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

    Evaluated in blocks of at most ``SCAN_BLOCK_ENTRIES`` (kappa, power) entries.
    Each row's sum of squares is a stacked (1, P) @ (P, 1) product, which
    equals the scalar ``r @ r`` bit for bit.
    """
    obj = np.empty(len(grid))
    block = max(1, SCAN_BLOCK_ENTRIES // len(powers))
    for start in range(0, len(grid), block):
        rows = slice(start, start + block)
        r = values - _depletion_model(grid[rows, np.newaxis], powers, n_modes)
        obj[rows] = (r[:, np.newaxis, :] @ r[:, :, np.newaxis])[:, 0, 0]
    return obj


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _bounded_min(func, lo: float, hi: float, xatol: float, maxiter: int):
    """Minimize ``func`` on ``[lo, hi]`` by Brent's bounded method.

    Returns ``(x, nfev, converged)``.  The float operations are scipy's
    ``minimize_scalar(method="bounded")`` in the same order, so ``x``,
    ``nfev`` and ``converged`` (scipy's ``success``) are equal bit for bit.
    Not converged: ``nfev`` reached ``maxiter``, or a NaN was met.
    """
    a, b = lo, hi
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    nfev = 1
    fu = math.inf
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # parabola through the best point xf and the two before it
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN * e
        # never step by less than tol1
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = func(x)
        nfev += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if nfev >= maxiter:
            return xf, nfev, False
    return xf, nfev, not (math.isnan(xf) or math.isnan(fx) or math.isnan(fu))


def fit_phase_scale(powers, values, n_modes: int = 3) -> FitResult:
    """Fit the power-to-phase conversion kappa against |p(kappa P)|^2.

    Coarse scan over [0, kappa_max], with kappa_max set to allow up to two
    full oscillations of |p|^2 over the data, followed by Brent's bounded
    golden-section / parabolic refinement (``_bounded_min``) of the
    squared-residual objective between the best grid point's neighbours,
    to ``PARAM_TOL * max(kappa_max, 1)`` in kappa.  The 513-point scan is
    evaluated as one array, in blocks of at most ``SCAN_BLOCK_ENTRIES``
    (kappa, power) entries, and gives the same floats as the scalar
    objective.  Ties in the coarse scan break toward smaller kappa.
    ``iterations`` counts objective evaluations: the 513 scan points plus
    the refinement's.  Not converged when the refinement reaches
    ``ITERATION_CAP`` evaluations or meets a NaN.
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
    kappa, nfev, converged = _bounded_min(objective, lo, hi, PARAM_TOL * max(kappa_max, 1.0),
                                          ITERATION_CAP)
    kappa = float(kappa)
    return FitResult(
        phase_scale=kappa,
        residual_norm=math.sqrt(objective(kappa)),
        converged=converged,
        iterations=nfev + len(grid),
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

    Model: ratio = scale * m(conv * singles) with m(s) = s / (2 (1 + s)),
    where ``conv`` converts the measured singles rate to sinh^2|zeta| and
    ``scale`` absorbs relative detection efficiency.  The model reads
    |scale| and |conv|.  The reported zeta is the value implied at the
    largest singles rate.

    The fit is Levenberg-Marquardt with Marquardt's diagonal scaling and
    Nielsen's damping update, from (scale, conv) = (1, 2 * slope0), with
    the analytic Jacobian d/dscale = m(conv s) and d/dconv = scale * s /
    (2 (1 + conv s)^2).  It converges when an accepted step changes the
    scaled parameters by at most ``PARAM_TOL`` relative, or reduces the sum
    of squares by at most ``RESIDUAL_TOL`` relative (actual and predicted);
    a rejected step that small also ends it.  ``iterations`` counts
    residual evaluations; reaching ``ITERATION_CAP`` of them is not
    converged.  Nor is a fit whose data do not fix ``conv``: at the
    solution, the part of the conv column of J (scaled by conv) that the
    scale column cannot absorb is at most ``PARAM_TOL`` of the scaled scale
    column.  A ratio flat or falling in the singles rate ends that way.
    The model is concave, so a ratio that curves upward sends conv to 0
    and scale to infinity, its linear limit scale conv s / 2, where only
    scale * conv is fixed: an accepted step to conv * max(s) at or below
    ``LINEAR_LIMIT`` ends the fit, not converged.
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
    rows = np.empty((3, len(s_rates)))

    def evaluate(scale, conv):
        """Residual r at (scale, conv) >= 0, as the normal equations' J^T J, J^T r and r.r."""
        cs = conv * s_rates
        rows[0] = multiphoton_ratio_model(cs)
        rows[1] = scale * s_rates / (2.0 * (1.0 + cs) ** 2)
        rows[2] = scale * rows[0] - ratios
        (a00, a01, g0), (_, a11, g1), (_, _, cost) = (rows @ rows.T).tolist()
        return a00, a01, a11, g0, g1, cost

    # initial guess from the small-s slope assuming unit efficiency scale
    slope0 = float(ratios[-1] / s_rates[-1]) if s_rates[-1] > 0 else 1.0
    x0, x1 = 1.0, abs(2.0 * slope0)
    a00, a01, a11, g0, g1, cost = evaluate(x0, x1)
    nfev = 1
    if not math.isfinite(cost):
        raise ValueError("residuals are not finite at the initial point")
    # Marquardt's scaling: the largest squared column norm seen, 1 for a zero column
    d0, d1 = a00 or 1.0, a11 or 1.0
    mu, nu = 1e-3, 2.0
    converged = False
    while nfev < ITERATION_CAP:
        if g0 == 0.0 and g1 == 0.0:  # a stationary point, e.g. an exact fit
            converged = True
            break
        b00, b11 = a00 + mu * d0, a11 + mu * d1
        det = b00 * b11 - a01 * a01
        h0 = (a01 * g1 - b11 * g0) / det
        h1 = (a01 * g0 - b00 * g1) / det
        # the residual reads |params|, so the iterate stays in the positive quadrant
        y0, y1 = abs(x0 + h0), abs(x1 + h1)
        trial = evaluate(y0, y1)
        nfev += 1
        small_step = d0 * h0 * h0 + d1 * h1 * h1 <= PARAM_TOL**2 * (d0 * x0 * x0 + d1 * x1 * x1)
        if trial[-1] < cost:
            # predicted reduction of r.r for the damped step: |J h|^2 + 2 mu h.D h
            predicted = (h0 * (a00 * h0 + a01 * h1) + h1 * (a01 * h0 + a11 * h1)
                         + 2.0 * mu * (d0 * h0 * h0 + d1 * h1 * h1))
            actual = cost - trial[-1]
            small_reduction = actual <= RESIDUAL_TOL * cost and predicted <= RESIDUAL_TOL * cost
            x0, x1 = y0, y1
            a00, a01, a11, g0, g1, cost = trial
            d0, d1 = max(d0, a00), max(d1, a11)
            # Nielsen's gain-ratio update, with the decrease floored at 1/10
            # rather than 1/3: near the solution the damping then fades fast
            # enough for the weak (scale, conv) direction to reach full precision
            mu *= max(0.1, 1.0 - (2.0 * actual / predicted - 1.0) ** 3)
            nu = 2.0
            if x1 * smax <= LINEAR_LIMIT:
                break
            if small_step or small_reduction:
                converged = True
                break
        else:
            mu *= nu
            nu *= 2.0
            if small_step:
                converged = True
                break
    # |x1 J_conv|^2 - (x1 J_conv . J_scale)^2 / |J_scale|^2 against
    # (PARAM_TOL |x0 J_scale|)^2, times |J_scale|^2: at or below it, even
    # doubling conv moves the fitted curve by less than the fit resolves
    if converged and x1 * x1 * (a00 * a11 - a01 * a01) <= (PARAM_TOL * x0 * a00) ** 2:
        converged = False
    return FitResult(
        zeta=math.asinh(math.sqrt(x1 * smax)),
        channel_scales=(x0,),
        residual_norm=math.sqrt(cost),
        converged=converged,
        iterations=nfev,
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
