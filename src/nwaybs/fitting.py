"""Count-data normalization and model fitting.

Reimplements the analysis chain used on the measured curves: accidental
normalization of coincidences, a one-parameter fit converting pump peak
power to nonlinear phase (phi = kappa * P), per-channel linear scale
factors, and extraction of the squeezing magnitude |zeta| from the
multiphoton/pair coincidence ratio.  A seeded synthetic-data generator
closes the loop for validation.  It checks each synthetic table once, with
numpy, and builds its records from the checked table without checking each
rate again.

Both nonlinear fits run in this module, in numpy and plain Python:

* ``fit_phase_scale`` scans kappa on a grid and refines the best bracket
  with Brent's bounded minimization (golden section with parabolic steps;
  Brent, *Algorithms for Minimization without Derivatives*, 1973, ch. 5).
  The scan screens every grid point in real arithmetic, |p_N|^2 = A +
  B cos(theta), with a rigorous rounding-error bound (``SCREEN_DELTA``),
  and evaluates the exact complex objective only at the points that can
  hold its minimum, so it picks the exact scan's point bit for bit.  One
  screen step runs twice: first over a fixed subset of at most seven
  nonzero-power data points (a sum of non-negative squares is at least any
  of its sub-sums), then over every data point at the grid points the
  first run leaves.  Each run keeps the grid points whose bound is not
  above the exact objective at its point of least bound, and no grid point
  is evaluated twice.  ``_bounded_min`` performs the float operations of
  scipy's ``minimize_scalar(method="bounded")`` in the same order, so its
  result, evaluation count and value at the result equal scipy's bit for
  bit; that value is the fit's squared residual.
* ``fit_zeta`` is a two-parameter Levenberg-Marquardt fit (Moré, *Lecture
  Notes in Math.* 630, 1978) with the analytic Jacobian of the ratio model.

``FitResult.iterations`` counts objective (residual) evaluations, all 513
scan points included however few the screen leaves exact.  All fits
are deterministic: identical inputs (and seeds) give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# top level, not in the fits: benchmarks/worker.py reads sys.modules["scipy"].__version__
import scipy

from .quantum import (INPUT_KINDS, KINDS, InputState, _check_model_finite, correlation_curve,
                      multiphoton_ratio_model)
from .transfer import _check_modes, p_coeff, q_coeff

ITERATION_CAP = 10_000
PARAM_TOL = 1e-10
RESIDUAL_TOL = 1e-12
# fit_zeta's linear limit: with conv * max(singles) at or below it, the model
# departs from the line scale * conv * s / 2 by at most that share over the
# data.  It is sqrt(RESIDUAL_TOL), the relative residual norm the fit
# resolves, so the data then fix scale * conv but not conv.
LINEAR_LIMIT = 1e-6
# (kappa, power) entries per block of the screen: their temporaries then stay
# below glibc's 128 KiB mmap threshold, so each block reuses freed heap memory
# instead of mapping (and page-faulting) fresh pages
SCAN_BLOCK_ENTRIES = 4096


def _rates(name: str, rates) -> tuple[float, ...]:
    """``rates`` as a tuple of floats, rejecting a string, which would split into characters."""
    if isinstance(rates, (str, bytes)):
        raise ValueError(f"{name} must be a sequence of rates, not the string {rates!r}")
    return tuple(map(float, rates))


@dataclass(frozen=True, slots=True, init=False)
class CountRecord:
    """One acquisition: rates at a given pump peak power (counts/s)."""

    pump_peak_power: float
    singles: tuple[float, ...]
    coincidences: dict = field(default_factory=dict)  # (i, j) -> rate
    accidental_singles: tuple[float, ...] = ()

    def __init__(self, pump_peak_power, singles, coincidences=None, accidental_singles=()):
        """Each field converted, checked and set once; ``coincidences`` None is a new empty dict."""
        singles = _rates("singles", singles)
        accidental_singles = _rates("accidental_singles", accidental_singles)
        if coincidences is None:
            coincidences = {}
        if not pump_peak_power >= 0:
            raise ValueError("pump power must be >= 0")
        # NaN compares false, so a NaN rate is accepted
        for rates in (singles, accidental_singles, coincidences.values()):
            for r in rates:
                if r < 0:
                    raise ValueError("rates must be >= 0")
        set_field = object.__setattr__
        set_field(self, "pump_peak_power", pump_peak_power)
        set_field(self, "singles", singles)
        set_field(self, "coincidences", coincidences)
        set_field(self, "accidental_singles", accidental_singles)

    def __hash__(self):
        """The hash of the fields, the coincidences as a set of items: records
        that compare equal hash equal, whatever their dicts' key order."""
        return hash((self.pump_peak_power, self.singles, frozenset(self.coincidences.items()),
                     self.accidental_singles))

    @classmethod
    def _from_table(cls, powers: np.ndarray, table: np.ndarray, pairs, accidental):
        """One record per row of ``table``, its singles then the coincidences of ``pairs``.

        ``__init__``'s rules hold for the whole table at once: the first record
        to break one raises ``__init__``'s message, a negative or NaN power
        before a negative rate (a NaN rate passes).  Each record then gets its
        fields as ``__init__`` would set them: its element of ``powers``, a
        tuple of floats, a dict in ``pairs`` order, and one shared
        ``accidental_singles`` tuple.
        """
        accidental = _rates("accidental_singles", accidental)
        bad_power = ~(powers >= 0)
        bad = bad_power | (table < 0).any(axis=1) | any(r < 0 for r in accidental)
        if bad.any():
            first = bad.argmax()
            raise ValueError("pump power must be >= 0" if bad_power[first]
                             else "rates must be >= 0")
        n_singles = table.shape[1] - len(pairs)
        new, set_field = object.__new__, object.__setattr__
        records = []
        for power, row in zip(powers, table.tolist()):
            rec = new(cls)
            set_field(rec, "pump_peak_power", power)
            set_field(rec, "singles", tuple(row[:n_singles]))
            set_field(rec, "coincidences", dict(zip(pairs, row[n_singles:])))
            set_field(rec, "accidental_singles", accidental)
            records.append(rec)
        return records


@dataclass(frozen=True)
class FitResult:
    phase_scale: float = math.nan     # rad/W
    channel_scales: tuple[float, ...] = ()
    zeta: float = math.nan
    residual_norm: float = math.nan
    converged: bool = False
    # the fit's count of objective evaluations; fit_phase_scale counts all 513
    # scan points, however few of them it evaluates, plus Brent's evaluations
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
    key = (min(ports), max(ports))
    powers = []
    values = []
    for rec in records:
        if len(rec.accidental_singles) < key[1]:
            raise ValueError("record lacks accidental singles for the requested ports")
        acc = rec.accidental_singles[i - 1] * rec.accidental_singles[j - 1]
        if acc == 0.0:
            raise ValueError("zero accidental rate; normalization undefined")
        if key not in rec.coincidences:
            raise ValueError(f"record lacks coincidences for ports {key}")
        powers.append(rec.pump_peak_power)
        values.append(rec.coincidences[key] / acc)
    values = np.asarray(values)
    if values[0] == 0.0:
        raise ValueError("zero-power coincidence vanishes; cannot normalize")
    return np.asarray(powers), values / values[0]


def _check_finite(name: str, x) -> None:
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")


def _check_curve(names: str, x: np.ndarray, y: np.ndarray) -> None:
    """Both arrays 1-D and of equal length."""
    if x.ndim != 1 or y.ndim != 1:
        raise ValueError(f"{names} must be 1-D, got shapes {x.shape} and {y.shape}")
    if len(x) != len(y):
        raise ValueError(f"{names} must have equal length, got {len(x)} and {len(y)}")


def _objective(kappa, powers: np.ndarray, values: np.ndarray, n_modes: int) -> float:
    """The squared residual of the depletion fit at one kappa, the scan's and the refinement's."""
    r = values - np.abs(p_coeff(n_modes, kappa * powers)) ** 2
    return float(r @ r)


# Bound on |m - m'|, the gap between the exact objective's |p_N(theta)|^2
# (complex exp, abs, square) and the screen's A + B cos(theta), both computed in
# floating point at the same theta.  Each is within a few ulps of the true
# value, which lies in [0, 1]; measured, the gap stays below 1e-15 for
# N = 2..16 and |theta| up to 1e7.  This is an error bound, not a setting.
#
# Why ``_screen_bounds`` stays at or below the exact objective: with u = 2^-53
# and residuals r = fl(v - m), r' = fl(v - m'), each d = r - r' obeys
# |d| <= |m - m'| (1 + u) + 2u |r'| / (1 - u).  Then
#   |sum r^2 - sum r'^2| = |sum d (2 r' + d)| <= 2 sum |d| |r'| + sum d^2
#                        <= 2 delta sum |r'| + P delta^2 + (4u + O(u^2)) sum r'^2,
# with delta = 100x the measured gap absorbing the cross terms and the
# rounding of sum |r'|.  A floating-point sum of P squares is within
# gamma_P = P u / (1 - P u) of its exact value, in any order (Higham,
# *Accuracy and Stability of Numerical Algorithms*, 2nd ed., 2002, ch. 3), so
# in whatever order ``np.einsum`` sums a screen row's squares; that holds
# once for the exact objective and once for the screen's: together about
# 2 (P + 2) u obj'.  The slack takes twice that, 4 (P + 2) u obj', so the
# rounding of the slack itself and of obj' - slack stays inside it.
#
# Why a subset S of s distinct points bounds the objective over all P from
# below: the exact objective's squares are non-negative, so its float sum is
# fl(sum_P r^2) >= (1 - gamma_P) sum_P r^2 >= (1 - gamma_P) sum_S r^2.  Over S
# the bound above gives sum_S r^2 >= obj'_S - 2 delta sum_S |r'| - s delta^2
# - (gamma_s + 4u + O(u^2)) obj'_S, where obj'_S is the screen's float sum of
# s squares; the factor (1 - gamma_P) adds about gamma_P obj'_S to the
# relative part, which is then about (P + s + 4) u obj'_S <= 2 (P + 2) u obj'_S
# for s <= P.  So the same slack, with s in its delta terms and the full P
# in its relative term, 4 (P + 2) u obj'_S, again with the factor 2 to spare,
# keeps obj'_S - slack at or below the exact objective over all P points.
SCREEN_DELTA = 1e-13
# Data points of the scan's first screen step (``_screen_points``), which
# then drops any at zero power.  Measured on calibrate-shaped 30-point fits
# (N = 3, powers from 0, exact and 1 % noise, 3000 curves), 6 less the one
# at P = 0 leave at most 8 of the 513 grid points to the full-point screen
# (2.34 on average; 7 and 2.27 with the zero-power point in the subset);
# 3 alias and leave up to all 513, 4 up to 12.  From 5 to 10 points a fit
# takes the same time within timing noise, and 3 or 4 are slower at 600
# points.
SCREEN_POINTS = 6


def _screen_bounds(grid: np.ndarray, powers: np.ndarray, values: np.ndarray,
                   n_modes: int, points=None) -> np.ndarray:
    """A lower bound on ``_objective`` at every kappa of ``grid``.

    Real arithmetic: |p_N(theta)|^2 = A + B cos(theta), with theta = N kappa P
    the bits ``_objective`` passes to ``exp``.  Each row's bound is its sum
    of squares obj' less the slack 2 delta sum|r'| + n delta^2 + 4 (P + 2)
    2^-53 obj' (``SCREEN_DELTA`` above), over the n points summed.
    Evaluated in blocks of at most ``SCAN_BLOCK_ENTRIES`` (kappa, power)
    entries.  A row with a NaN or infinite entry gets a NaN bound.  With ``points``, the indices
    of distinct points, the sum runs over those points only, and the bound
    still holds the objective over all P points.
    """
    a = ((n_modes - 1) ** 2 + 1) / n_modes**2
    b = 2 * (n_modes - 1) / n_modes**2
    n_all = len(powers)
    if points is not None:
        powers, values = powers[points], values[points]
    obj = np.empty(len(grid))
    abs_sum = np.empty(len(grid))
    ones = np.ones(len(powers))
    block = max(1, SCAN_BLOCK_ENTRIES // len(powers))
    for start in range(0, len(grid), block):
        rows = slice(start, start + block)
        # in place, one temporary: theta, cos(theta), m', then r'
        r = grid[rows, np.newaxis] * powers
        r *= n_modes
        np.cos(r, out=r)
        r *= b
        r += a
        np.subtract(values, r, out=r)
        obj[rows] = np.einsum("ij,ij->i", r, r)
        abs_sum[rows] = np.abs(r, out=r) @ ones
    slack = (2.0 * SCREEN_DELTA * abs_sum + len(powers) * SCREEN_DELTA**2
             + 4 * (n_all + 2) * 2.0**-53 * obj)
    return obj - slack


def _screen_points(powers: np.ndarray) -> list[int]:
    """Indices of the first screen step: ``SCREEN_POINTS`` evenly spaced, and the largest |P|,
    less those at zero power.

    At the largest |P| theta is largest, so any row whose theta overflows
    somewhere has a NaN subset bound, and the subset step keeps it.  At
    P = 0 theta is 0 at every kappa, so such a point adds the same term to
    every row's bound and cannot separate rows.  The largest |P| is not 0
    (``fit_phase_scale`` needs a positive power), so the subset is never
    empty, and any subset of distinct points bounds the objective from
    below (``SCREEN_DELTA``).
    """
    last = len(powers) - 1
    picks = {last * k // (SCREEN_POINTS - 1) for k in range(SCREEN_POINTS)}
    picks.add(int(np.abs(powers).argmax()))
    return sorted(i for i in picks if powers[i] != 0.0)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))


def _bounded_min(func, lo: float, hi: float, xatol: float, maxiter: int):
    """Minimize ``func`` on ``[lo, hi]`` by Brent's bounded method.

    Returns ``(x, fx, nfev, converged)``, with ``fx = func(x)`` as evaluated.
    The float operations are scipy's ``minimize_scalar(method="bounded")``
    in the same order, so ``x``, ``fx``, ``nfev`` and ``converged`` (scipy's
    ``x``, ``fun``, ``nfev`` and ``success``) are equal bit for bit.
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
            return xf, fx, nfev, False
    return xf, fx, nfev, not (math.isnan(xf) or math.isnan(fx) or math.isnan(fu))


def fit_phase_scale(powers, values, n_modes: int = 3) -> FitResult:
    """Fit the power-to-phase conversion kappa against |p(kappa P)|^2.

    Coarse scan over [0, kappa_max], with kappa_max set to allow up to two
    full oscillations of |p|^2 over the data, followed by Brent's bounded
    golden-section / parabolic refinement (``_bounded_min``) of the
    squared-residual objective between the best grid point's neighbours,
    to ``PARAM_TOL * max(kappa_max, 1)`` in kappa.  The 513-point scan
    runs one screen step twice, first over the data subset
    ``_screen_points``, then over every data point.  A step bounds the
    objective from below at the remaining grid points with the cosine
    screen (``_screen_bounds``), takes the exact objective (``_objective``)
    at the point of least bound as an upper bound on the minimum, and keeps
    each point whose bound is not above it (every point when that is NaN).
    The kept points, usually one, get the exact objective, which a step
    has already computed for its point of least bound.  Every point
    where the exact scan reaches its minimum is kept, so the best point is
    the exact scan's.  Ties in the coarse scan break toward smaller kappa.
    ``residual_norm`` is the root of the refinement's value at the fitted
    kappa.  A 30-point calibration curve usually takes two exact scan
    evaluations besides the refinement's.  ``iterations`` counts objective
    evaluations: the 513 scan points, however few the screen leaves exact,
    plus the refinement's.  Not converged when the refinement reaches
    ``ITERATION_CAP`` evaluations or meets a NaN.  Inputs that are not
    1-D, unequal lengths, a non-finite power or value, or an ``n_modes``
    that is not an integer >= 2 are a ``ValueError``.
    """
    _check_modes(n_modes)
    powers = np.asarray(powers, dtype=float)
    values = np.asarray(values, dtype=float)
    _check_curve("powers and values", powers, values)
    if len(powers) < 5:
        raise ValueError("need at least 5 points")
    _check_finite("powers", powers)
    _check_finite("values", values)
    if np.ptp(values) < 1e-12:
        raise ValueError("degenerate flat data; phase scale unidentifiable")
    pmax = powers.max()
    if pmax <= 0:
        raise ValueError("need nonzero pump powers")
    kappa_max = 2.0 * (2.0 * math.pi / n_modes) / pmax * 2.0

    grid = np.linspace(0.0, kappa_max, 513)
    rows = np.arange(len(grid))
    # the exact objective of the rows the screen steps evaluated, when finite:
    # evaluating it again would give the same bits and no warning
    known = {}
    # silent for the screen only: a non-finite screen keeps every row, and the
    # kept rows' exact objective below gives the warnings
    with np.errstate(all="ignore"):
        for points in (_screen_points(powers), None):
            lower = _screen_bounds(grid[rows], powers, values, n_modes, points)
            # argmin takes a NaN row when there is one, whose NaN bound keeps every row
            row = int(rows[np.argmin(lower)])
            bound = _objective(grid[row], powers, values, n_modes)
            if math.isfinite(bound):
                known[row] = bound
            rows = rows[~(lower > bound)]
    obj = [known[r] if r in known else _objective(grid[r], powers, values, n_modes)
           for r in rows.tolist()]
    best = int(rows[np.argmin(obj)])  # argmin takes the first (smallest kappa) on ties
    lo = grid[max(0, best - 1)]
    hi = grid[min(len(grid) - 1, best + 1)]
    kappa, fx, nfev, converged = _bounded_min(lambda k: _objective(k, powers, values, n_modes),
                                              lo, hi, PARAM_TOL * max(kappa_max, 1.0),
                                              ITERATION_CAP)
    return FitResult(
        phase_scale=float(kappa),
        residual_norm=math.sqrt(fx),
        converged=converged,
        iterations=nfev + len(grid),
    )


def fit_channel_scales(generation_curves, phase_scale: float, n_modes: int = 3):
    """Per-channel multiplicative factors against |q(kappa P)|^2.

    Linear least squares has the closed form scale = <data, model> /
    <model, model> per channel.  A channel with all-zero data gets scale 0.
    A curve that is not 1-D or has unequal lengths, a non-finite phase
    scale, power or value, or an ``n_modes`` that is not an integer >= 2
    are a ``ValueError``.
    """
    _check_modes(n_modes)
    _check_finite("phase_scale", phase_scale)
    scales = []
    for k, (powers, values) in enumerate(generation_curves):
        powers = np.asarray(powers, dtype=float)
        values = np.asarray(values, dtype=float)
        _check_curve(f"generation_curves[{k}] powers and values", powers, values)
        _check_finite(f"generation_curves[{k}] powers", powers)
        _check_finite(f"generation_curves[{k}] values", values)
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
    scale column cannot absorb, the norm of its component orthogonal to
    the scale column, is at most ``PARAM_TOL`` of the scaled scale column.
    A ratio flat or falling in the singles rate ends that way, as does one
    singles rate for every row.  The model is concave, so a ratio that curves upward sends conv to 0
    and scale to infinity, its linear limit scale conv s / 2, where only
    scale * conv is fixed: an accepted step to conv * max(s) at or below
    ``LINEAR_LIMIT`` ends the fit, not converged.
    """
    s_rates = np.asarray(singles_rates, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    _check_curve("singles_rates and ratios", s_rates, ratios)
    if len(s_rates) < 3:
        raise ValueError("need at least 3 points")
    if np.any(ratios > 1.0):
        raise ValueError("ratio exceeds 1; outside the model range")
    if np.max(np.abs(ratios)) == 0.0:
        return FitResult(zeta=0.0, residual_norm=0.0, converged=True, iterations=0)

    smax = float(s_rates.max())
    # the columns of J and r as rows: at the accepted point, and at the trial point
    rows, trial_rows = np.empty((2, 3, len(s_rates)))

    def evaluate(scale, conv, out):
        """Residual r at (scale, conv) >= 0, as the normal equations' J^T J, J^T r and r.r.

        J and r go to the rows of ``out``.
        """
        cs = conv * s_rates
        out[0] = multiphoton_ratio_model(cs)
        out[1] = scale * s_rates / (2.0 * (1.0 + cs) ** 2)
        out[2] = scale * out[0] - ratios
        (a00, a01, g0), (_, a11, g1), (_, _, cost) = (out @ out.T).tolist()
        return a00, a01, a11, g0, g1, cost

    # initial guess from the small-s slope assuming unit efficiency scale
    slope0 = float(ratios[-1] / s_rates[-1]) if s_rates[-1] > 0 else 1.0
    x0, x1 = 1.0, abs(2.0 * slope0)
    a00, a01, a11, g0, g1, cost = evaluate(x0, x1, rows)
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
        trial = evaluate(y0, y1, trial_rows)
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
            rows, trial_rows = trial_rows, rows
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
    if converged:
        # the part of the conv column that the scale column cannot absorb, at
        # the accepted point: the norm of a vector, so unlike the Gram
        # determinant a00 a11 - a01^2, formed by cancellation, it cannot come
        # out negative by rounding.  Scaled by conv, at or below PARAM_TOL
        # |x0 J_scale| even doubling conv moves the fitted curve by less than
        # the fit resolves
        perp = rows[1] - (a01 / a00) * rows[0] if a00 else rows[1]
        converged = x1 * math.sqrt(perp @ perp) > PARAM_TOL * x0 * math.sqrt(a00)
    return FitResult(
        zeta=math.asinh(math.sqrt(x1 * smax)),
        channel_scales=(x0,),
        residual_norm=math.sqrt(cost),
        converged=converged,
        iterations=nfev,
    )


# InputState is frozen, so one default state of each kind serves every call
_DEFAULT_STATES = {kind: InputState(kind=kind) for kind in INPUT_KINDS}


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
    per-channel scale factors (``channel_scales``, one per channel) and
    multiplicative Gaussian noise of relative width ``noise``; deterministic
    for a fixed seed.  The returned list always starts with a zero-power
    record usable for normalization.  Each record is a row of one table: the
    singles, then the coincidences of the curve's port pairs, none for a kind
    without a coincidence in ``KINDS``.  The table is checked once, as a
    whole, and its records are built from it (``CountRecord._from_table``).
    A non-finite phase scale, power or model rate (an overflow), an
    ``accidental_rate`` that is negative, not finite, or whose square
    overflows for a kind with a coincidence, or an ``n_modes`` that is not an
    integer >= 2, is a ``ValueError``.
    """
    _check_modes(n_modes)
    if not noise >= 0:
        raise ValueError("noise must be >= 0")
    _check_finite("phase_scale", phase_scale)
    powers = np.asarray(powers, dtype=float)
    if powers.ndim != 1 or not len(powers):
        raise ValueError(f"powers must be a non-empty 1-D array, not shape {powers.shape}")
    _check_finite("powers", powers)
    if powers[0] != 0.0:
        powers = np.concatenate([[0.0], powers])
    scales = np.ones(n_modes) if channel_scales is None else np.asarray(channel_scales)
    if scales.shape != (n_modes,):
        raise ValueError(f"channel_scales has {scales.size} entries, but n_modes is {n_modes}: "
                         "give one scale per channel")
    state = state or (_DEFAULT_STATES[input_kind] if input_kind in INPUT_KINDS
                      else InputState(kind=input_kind))
    coincident = KINDS[state.kind].coincidence is not None
    if not (math.isfinite(accidental_rate) and accidental_rate >= 0):
        raise ValueError(f"accidental_rate must be finite and >= 0, not {accidental_rate}")
    # its square scales the coincidences; a Python float's product overflows without a warning
    acc = float(accidental_rate)
    if coincident and not math.isfinite(acc * acc):
        raise ValueError(f"accidental_rate {accidental_rate:g} overflows the coincidence rates: "
                         "its square is not finite")
    # _check_model_finite reports an overflow as the one error, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        curve = correlation_curve(state, phase_scale * powers, n_modes=n_modes)
        # the kind's coincidence columns, in the curve's port-pair order
        pairs = list(curve.g2) if coincident else []
        # one (P, N + K) table: the scaled singles, then the scaled coincidences
        table = np.column_stack([scales * curve.singles, *(
            scales[i - 1] * scales[j - 1] * accidental_rate**2 * curve.g2[i, j]
            for i, j in pairs)])
    _check_model_finite(state.kind, table, n_modes, lambda k: f"pump power {powers[k]:g} W")
    if noise:
        # one draw per entry, record by record: singles, then pairs
        rng = np.random.default_rng(seed)
        table *= 1.0 + noise * rng.standard_normal(table.shape)
        # the noise factor has no floor, so a wide noise can flip a rate's sign
        negative = (table < 0).any(axis=1)
        if negative.any():
            raise ValueError(f"noise {noise:g} drew a negative rate at pump power "
                             f"{powers[negative.argmax()]:g} W; use a smaller noise")
    return CountRecord._from_table(powers, table, pairs, (acc,) * n_modes)
