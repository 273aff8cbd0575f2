"""Fitting-pipeline tests: normalization, calibration fits, closed loops."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

from nwaybs import fitting
from nwaybs.fitting import (
    ITERATION_CAP,
    PARAM_TOL,
    RESIDUAL_TOL,
    CountRecord,
    FitResult,
    fit_channel_scales,
    fit_phase_scale,
    fit_zeta,
    generate_synthetic,
    normalize_coincidences,
)
from nwaybs.quantum import (
    InputState,
    correlation_curve,
    g2_photon_pair,
    multiphoton_ratio_model,
    multiphoton_scaling_curve,
)
from nwaybs.transfer import p_coeff, q_coeff


def make_records(kappa, powers, scale1=1.0, scale3=1.0, acc=2.0):
    """Photon-pair CountRecords with per-channel detection scales."""
    recs = []
    for P in powers:
        g13, _ = g2_photon_pair(kappa * P)
        coinc = {(1, 3): float(scale1 * scale3 * acc**2 * g13)}
        recs.append(
            CountRecord(
                pump_peak_power=P,
                singles=(scale1 * 1.0, 0.0, scale3 * 1.0),
                coincidences=coinc,
                accidental_singles=(acc, acc, acc),
            )
        )
    return recs


class TestCountRecord:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            CountRecord(pump_peak_power=1.0, singles=(-1.0,))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            CountRecord(pump_peak_power=-1.0, singles=(1.0,))


def reference_objective(kappa, powers, values, n_modes):
    """The scalar squared residual of the depletion fit at one kappa."""
    r = values - np.abs(p_coeff(n_modes, kappa * powers)) ** 2
    return float(r @ r)


def reference_fit_phase_scale(powers, values, n_modes):
    """fit_phase_scale with its coarse scan as one scalar objective call per kappa."""
    kappa_max = 2.0 * (2.0 * math.pi / n_modes) / powers.max() * 2.0

    def objective(kappa):
        return reference_objective(kappa, powers, values, n_modes)

    grid = np.linspace(0.0, kappa_max, 513)
    best = int(np.argmin([objective(k) for k in grid]))
    res = scipy.optimize.minimize_scalar(
        objective, bounds=(grid[max(0, best - 1)], grid[min(len(grid) - 1, best + 1)]),
        method="bounded",
        options={"xatol": PARAM_TOL * max(kappa_max, 1.0), "maxiter": ITERATION_CAP},
    )
    kappa = float(res.x)
    return FitResult(phase_scale=kappa, residual_norm=math.sqrt(objective(kappa)),
                     converged=bool(res.success), iterations=int(res.nfev) + len(grid))


def reference_synthetic(phase_scale, powers, n_modes, state, channel_scales,
                        accidental_rate, noise, seed):
    """generate_synthetic as one record at a time, one noise draw per value."""
    powers = np.asarray(powers, dtype=float)
    if powers[0] != 0.0:
        powers = np.concatenate([[0.0], powers])
    scales = np.ones(n_modes) if channel_scales is None else np.asarray(channel_scales)
    rng = np.random.default_rng(seed)
    curve = correlation_curve(state, phase_scale * powers, n_modes=n_modes)

    def noisy(x):
        return float(x * (1.0 + noise * rng.standard_normal())) if noise else float(x)

    records = []
    for k, power in enumerate(powers):
        sgl = tuple(noisy(scales[c] * curve.singles[k, c]) for c in range(n_modes))
        coinc = {}
        for (i, j), vals in curve.g2.items():
            if not np.isnan(vals[k]):
                coinc[(i, j)] = noisy(scales[i - 1] * scales[j - 1] * accidental_rate**2 * vals[k])
        records.append(CountRecord(pump_peak_power=power, singles=sgl, coincidences=coinc,
                                   accidental_singles=(accidental_rate,) * n_modes))
    return records


def depletion_data(n_modes, n_points, noisy, seed):
    """A depletion curve at a random kappa, with or without 2 % noise."""
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(0.2, 2.0)
    powers = np.sort(rng.uniform(0.0, 2.0, n_points))
    values = np.abs(p_coeff(n_modes, kappa * powers)) ** 2
    if noisy:
        values = values * (1 + 0.02 * rng.standard_normal(n_points))
    return powers, values


def reference_fit_zeta(singles_rates, ratios):
    """fit_zeta's (scale, conv) fit by MINPACK's Levenberg-Marquardt, the oracle."""
    s_rates = np.asarray(singles_rates, dtype=float)
    ratios = np.asarray(ratios, dtype=float)

    def resid(params):
        scale, conv = np.abs(params)
        return scale * multiphoton_ratio_model(conv * s_rates) - ratios

    slope0 = float(ratios[-1] / s_rates[-1])
    res = scipy.optimize.least_squares(resid, np.array([1.0, 2.0 * slope0]), method="lm",
                                       xtol=PARAM_TOL, ftol=RESIDUAL_TOL, max_nfev=ITERATION_CAP)
    scale, conv = np.abs(res.x)
    return FitResult(zeta=math.asinh(math.sqrt(conv * s_rates.max())),
                     channel_scales=(float(scale),),
                     residual_norm=float(np.linalg.norm(res.fun)),
                     converged=bool(res.success), iterations=int(res.nfev))


def zeta_data(zeta, n_points, conv, efficiency, noise, seed):
    """A ratio curve up to ``zeta``: singles rates sinh^2 / conv, optional relative noise."""
    curve = multiphoton_scaling_curve(np.linspace(0.05, zeta, n_points))
    ratios = efficiency * curve["ratio"]
    if noise:
        rng = np.random.default_rng(seed)
        ratios = np.clip(ratios * (1 + noise * rng.standard_normal(n_points)), 0.0, 1.0)
    return curve["sinh2"] / conv, ratios


# (name, make(c, k) -> objective) for the bounded-Brent port: smooth, flat, kinked, multimodal
BRENT_OBJECTIVES = [
    ("quadratic", lambda c, k: lambda x: (x - c) ** 2),
    ("quartic", lambda c, k: lambda x: (x - c) ** 4),
    ("kink", lambda c, k: lambda x: abs(x - c)),
    ("sine", lambda c, k: lambda x: math.sin(k * x) + 0.1 * (x - c) ** 2),
    ("damped-cosine", lambda c, k: lambda x: math.cos(k * (x - c)) * math.exp(-0.1 * abs(x))),
    ("depletion", lambda c, k: lambda x: reference_objective(
        x, np.linspace(0.0, 2.0, 30), np.abs(p_coeff(3, c * np.linspace(0.0, 2.0, 30))) ** 2, 3)),
]


def recorded(func):
    """``func`` with a list of the points it was called at."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return func(x)

    return wrapped, calls


def assert_brent_port_matches(func, lo, hi, xatol, maxiter):
    ours, ours_calls = recorded(func)
    theirs, their_calls = recorded(func)
    x, nfev, converged = fitting._bounded_min(ours, lo, hi, xatol, maxiter)
    res = scipy.optimize.minimize_scalar(theirs, bounds=(lo, hi), method="bounded",
                                         options={"xatol": xatol, "maxiter": maxiter})
    assert x == float(res.x) and math.copysign(1.0, x) == math.copysign(1.0, float(res.x))
    assert nfev == res.nfev
    assert converged is bool(res.success)
    # every evaluation point, bit for bit and in order
    assert [float(v).hex() for v in ours_calls] == [float(v).hex() for v in their_calls]
    return res


class TestBoundedMin:
    @given(st.sampled_from(BRENT_OBJECTIVES), st.floats(-3.0, 3.0), st.floats(0.5, 40.0),
           st.floats(-5.0, 5.0), st.floats(1e-6, 10.0), st.sampled_from([1e-14, 1e-10, 1e-5, 0.1]),
           st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_scipy(self, named, c, k, lo, width, xatol, numpy_bounds):
        _, make = named
        hi = lo + width
        if numpy_bounds:  # fit_phase_scale brackets with np.float64 grid points
            lo, hi = np.float64(lo), np.float64(hi)
        res = assert_brent_port_matches(make(c, k), lo, hi, xatol, ITERATION_CAP)
        assert res.status in (0, 1)

    @pytest.mark.parametrize("maxiter", [1, 2, 3, 7])
    def test_iteration_cap_is_not_converged(self, maxiter):
        # the port's converged flag equals scipy's success, False at flag 1
        res = assert_brent_port_matches(lambda x: math.sin(3.0 * x), 0.0, 4.0, 1e-14, maxiter)
        assert res.status == 1

    @pytest.mark.parametrize("nan_from", [-1.0, 0.5])
    def test_nan_objective_is_not_converged(self, nan_from):
        def func(x):
            return math.nan if x > nan_from else (x - 1.0) ** 2

        res = assert_brent_port_matches(func, 0.0, 2.0, 1e-10, ITERATION_CAP)
        assert res.status == 2

    def test_degenerate_bracket(self):
        res = assert_brent_port_matches(lambda x: (x - 1.0) ** 2, 0.5, 0.5, 1e-10, ITERATION_CAP)
        assert res.nfev == 1 and res.success


class TestNormalizeCoincidences:
    def test_closed_loop_equals_model(self):
        kappa = 1.7
        powers = np.linspace(0, 1, 11)
        recs = make_records(kappa, powers)
        pw, vals = normalize_coincidences(recs, ports=(1, 3))
        g13, _ = g2_photon_pair(kappa * pw)
        assert np.allclose(vals, g13, atol=1e-12)

    def test_uniform_efficiency_cancels(self):
        kappa = 1.7
        powers = np.linspace(0, 1, 11)
        plain = normalize_coincidences(make_records(kappa, powers))[1]
        halved = normalize_coincidences(
            make_records(kappa, powers, scale1=0.5, scale3=0.5)
        )[1]
        assert np.allclose(plain, halved, atol=1e-12)

    def test_idempotent(self):
        kappa = 1.1
        powers = np.linspace(0, 1, 9)
        recs = make_records(kappa, powers)
        pw, once = normalize_coincidences(recs)
        # feed the normalized curve back through records with unit accidentals
        recs2 = [
            CountRecord(pump_peak_power=p, singles=(1.0, 0.0, 1.0),
                        coincidences={(1, 3): float(v)},
                        accidental_singles=(1.0, 1.0, 1.0))
            for p, v in zip(pw, once)
        ]
        _, twice = normalize_coincidences(recs2)
        assert np.allclose(once, twice, atol=1e-12)

    def test_missing_zero_power_record(self):
        recs = make_records(1.0, [0.5, 1.0])
        with pytest.raises(ValueError, match="zero-pump-power"):
            normalize_coincidences(recs)

    def test_zero_accidentals_error(self):
        recs = make_records(1.0, [0.0, 0.5], acc=2.0)
        bad = CountRecord(pump_peak_power=0.0, singles=(1.0, 0.0, 1.0),
                          coincidences={(1, 3): 1.0},
                          accidental_singles=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="accidental"):
            normalize_coincidences([bad] + recs[1:])


class TestFitPhaseScale:
    def test_noiseless_recovery(self):
        kappa = 0.7
        powers = np.linspace(0, 4.0, 30)
        depl = np.abs(p_coeff(3, kappa * powers)) ** 2
        fit = fit_phase_scale(powers, depl)
        assert fit.converged
        assert fit.phase_scale == pytest.approx(kappa, rel=1e-6)

    def test_order_invariance(self):
        kappa = 1.3
        powers = np.linspace(0, 2.0, 25)
        depl = np.abs(p_coeff(3, kappa * powers)) ** 2
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(powers))
        a = fit_phase_scale(powers, depl)
        b = fit_phase_scale(powers[perm], depl[perm])
        assert a.phase_scale == pytest.approx(b.phase_scale, rel=1e-12)

    def test_determinism(self):
        kappa = 0.9
        powers = np.linspace(0, 2.0, 25)
        rng = np.random.default_rng(4)
        vals = np.abs(p_coeff(3, kappa * powers)) ** 2 * (
            1 + 0.01 * rng.standard_normal(len(powers))
        )
        a = fit_phase_scale(powers, vals)
        b = fit_phase_scale(powers, vals)
        assert a == b

    def test_flat_data_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit_phase_scale(np.linspace(0, 1, 10), np.ones(10))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_phase_scale([0, 1, 2], [1, 0.9, 0.8])

    def test_noisy_median_within_one_percent(self):
        kappa = 0.7
        powers = np.linspace(0, 2 * math.pi / 3 / kappa, 30)
        model = np.abs(p_coeff(3, kappa * powers)) ** 2
        errs = []
        for seed in range(100):
            rng = np.random.default_rng(seed)
            noisy = model * (1 + 0.01 * rng.standard_normal(len(powers)))
            fit = fit_phase_scale(powers, noisy)
            errs.append(abs(fit.phase_scale - kappa) / kappa)
        assert np.median(errs) < 0.01

    @given(st.integers(2, 8), st.integers(5, 600), st.booleans(), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_scan_matches_per_kappa_loop(self, n, n_points, noisy, seed):
        powers, values = depletion_data(n, n_points, noisy, seed)
        # the scan itself, bit for bit: a last-ulp change rarely moves the fit
        grid = np.linspace(0.0, 8.0 * math.pi / n / powers.max(), 513)
        scan = [reference_objective(k, powers, values, n) for k in grid]
        assert fitting._scan_objective(grid, powers, values, n).tolist() == scan
        fit = fit_phase_scale(powers, values, n_modes=n)
        ref = reference_fit_phase_scale(powers, values, n)
        assert fit.phase_scale == ref.phase_scale
        assert fit.residual_norm == ref.residual_norm
        assert fit.iterations == ref.iterations
        assert fit.converged == ref.converged

    @pytest.mark.parametrize("rows", [1, 2, 7, 512, 513])
    def test_scan_blocks_do_not_change_result(self, monkeypatch, rows):
        powers, values = depletion_data(3, 30, True, 11)
        grid = np.linspace(0.0, 5.0, 513)
        whole = fitting._scan_objective(grid, powers, values, 3)
        assert whole.tolist() == [reference_objective(k, powers, values, 3) for k in grid]
        fit = fit_phase_scale(powers, values)
        monkeypatch.setattr(fitting, "SCAN_BLOCK_ENTRIES", rows * len(powers))
        assert np.array_equal(fitting._scan_objective(grid, powers, values, 3), whole)
        assert fit_phase_scale(powers, values) == fit
        # below one row per block: still one kappa at a time
        monkeypatch.setattr(fitting, "SCAN_BLOCK_ENTRIES", 1)
        assert np.array_equal(fitting._scan_objective(grid, powers, values, 3), whole)


SCAN_FAULTS_SCRIPT = r"""
import resource
import numpy as np
from nwaybs.fitting import fit_phase_scale
from nwaybs.transfer import p_coeff

rng = np.random.default_rng(0)
powers = np.linspace(0.0, 2.0, 30)
values = np.abs(p_coeff(3, 0.9 * powers)) ** 2 * (1 + 0.01 * rng.standard_normal(30))
for _ in range(20):
    fit_phase_scale(powers, values)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    fit_phase_scale(powers, values)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor page faults as on Linux")
def test_warm_phase_fit_maps_no_fresh_pages():
    """In a fresh interpreter the scan's temporaries reuse freed heap memory.

    A block of 2**16 (kappa, power) entries takes about 90 minor page faults
    per 30-point fit there, because its complex temporaries are mapped and
    unmapped on every call.
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(fitting.__file__)))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCAN_FAULTS_SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    assert float(proc.stdout.split()[-1]) < 5


class TestFitChannelScales:
    def test_exact_scale_recovery(self):
        kappa = 1.2
        powers = np.linspace(0, 1.5, 20)
        model = np.abs(q_coeff(3, kappa * powers)) ** 2
        scales = fit_channel_scales([(powers, 0.37 * model), (powers, 0.37 * model)],
                                    kappa)
        assert scales[0] == pytest.approx(0.37, abs=1e-12)
        assert scales[0] == scales[1]

    def test_zero_data_gives_zero_scale(self):
        kappa = 1.2
        powers = np.linspace(0, 1.5, 20)
        scales = fit_channel_scales([(powers, np.zeros(20))], kappa)
        assert scales[0] == 0.0

    def test_vanishing_model_rejected(self):
        powers = np.zeros(5)
        with pytest.raises(ValueError, match="vanishes"):
            fit_channel_scales([(powers, np.ones(5))], 1.0)


class TestFitZeta:
    def test_exact_recovery(self):
        zg = np.linspace(0.05, 0.4, 10)
        curve = multiphoton_scaling_curve(zg)
        fit = fit_zeta(0.41 * curve["sinh2"], curve["ratio"])
        assert fit.converged
        assert fit.zeta == pytest.approx(0.4, rel=1e-8)

    def test_efficiency_scale_absorbed(self):
        zg = np.linspace(0.05, 0.4, 10)
        curve = multiphoton_scaling_curve(zg)
        fit = fit_zeta(0.41 * curve["sinh2"], 0.8 * curve["ratio"])
        assert fit.zeta == pytest.approx(0.4, rel=1e-6)
        assert fit.channel_scales[0] == pytest.approx(0.8, rel=1e-6)

    def test_operating_point_under_noise(self):
        # the (scale, conv) pair is nearly degenerate at small sinh^2, so a
        # dense power sweep is needed for the curvature to pin down conv
        zg = np.linspace(0.05, 0.4, 600)
        curve = multiphoton_scaling_curve(zg)
        errs = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            noisy = curve["ratio"] * (1 + 0.05 * rng.standard_normal(len(zg)))
            fit = fit_zeta(0.5 * curve["sinh2"], np.clip(noisy, 0, 1))
            errs.append(abs(fit.zeta - 0.4) / 0.4)
        assert np.median(errs) < 0.05

    @pytest.mark.parametrize("zeta, n_points, conv, efficiency", [
        (0.4, 10, 1 / 0.41, 1.0), (0.4, 10, 1 / 0.41, 0.8), (0.4, 12, 2.5, 1.0),
        (0.3, 12, 0.3, 0.6), (0.5, 12, 0.6, 1.0), (0.45, 12, 1.7, 0.9), (0.4, 600, 2.0, 1.0),
    ])
    def test_exact_data_matches_the_truth_and_lm(self, zeta, n_points, conv, efficiency):
        s_rates, ratios = zeta_data(zeta, n_points, conv, efficiency, 0.0, 0)
        fit = fit_zeta(s_rates, ratios)
        assert fit.converged
        assert fit.zeta == pytest.approx(zeta, rel=1e-12)
        assert fit.channel_scales[0] == pytest.approx(efficiency, rel=1e-12)
        ref = reference_fit_zeta(s_rates, ratios)
        assert fit.zeta == pytest.approx(ref.zeta, rel=1e-12)
        assert fit.channel_scales[0] == pytest.approx(ref.channel_scales[0], rel=1e-12)

    def test_noisy_residual_no_worse_than_lm(self):
        for seed in range(200):
            s_rates, ratios = zeta_data(0.4, 600, 2.0, 1.0, 0.05, seed)
            fit = fit_zeta(s_rates, ratios)
            ref = reference_fit_zeta(s_rates, ratios)
            assert fit.converged and ref.converged
            assert fit.residual_norm <= ref.residual_norm * (1 + 1e-12), seed
            # the minimum is flat along zeta, so equal residuals leave zeta to ~1e-7
            assert fit.zeta == pytest.approx(ref.zeta, rel=1e-6), seed

    def test_iterations_count_residual_evaluations(self, monkeypatch):
        s_rates, ratios = zeta_data(0.4, 12, 2.5, 1.0, 0.0, 0)
        calls = []
        model = fitting.multiphoton_ratio_model

        def counted(s):
            calls.append(1)
            return model(s)

        monkeypatch.setattr(fitting, "multiphoton_ratio_model", counted)
        fit = fit_zeta(s_rates, ratios)
        assert fit.converged and fit.iterations == len(calls) > 1

    @pytest.mark.parametrize("cap", [1, 2, 3])
    def test_iteration_cap_is_not_converged(self, monkeypatch, cap):
        s_rates, ratios = zeta_data(0.4, 600, 2.0, 1.0, 0.05, 3)
        monkeypatch.setattr(fitting, "ITERATION_CAP", cap)
        fit = fit_zeta(s_rates, ratios)
        assert not fit.converged
        assert fit.iterations == cap

    @pytest.mark.parametrize("ratios", [
        [0.3, 0.2, 0.1],  # falls with the singles rate
        [0.2, 0.2, 0.2],  # flat: saturated at every rate
    ])
    def test_unidentifiable_conv_is_not_converged(self, ratios):
        # the best fit sends conv to infinity, where the model is the
        # constant scale / 2 and the data no longer fix conv (or zeta)
        fit = fit_zeta([1.0, 2.0, 3.0], ratios)
        assert not fit.converged
        assert fit.iterations < fitting.ITERATION_CAP

    @pytest.mark.parametrize("s_rates, ratios", [
        ([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.4, 0.8]),
        ([1.0, 2.0, 3.0, 4.0, 5.0], [0.05, 0.1, 0.2, 0.4, 0.8]),
        ([1.0, 2.0, 3.0], [0.1, 0.2, 0.4]),
    ])
    def test_upward_curve_is_not_converged(self, s_rates, ratios):
        # the model is concave, so the best fit to a convex ratio is its linear
        # limit: conv -> 0 and scale -> infinity with only scale * conv fixed
        fit = fit_zeta(s_rates, ratios)
        assert not fit.converged
        assert fit.iterations < fitting.ITERATION_CAP // 5

    @pytest.mark.parametrize("s_rates, ratios", [
        ([1.0, 2.0, math.nan], [0.1, 0.2, 0.3]),
        ([1.0, 2.0, math.inf], [0.1, 0.2, 0.3]),
        ([1.0, 2.0, 3.0], [0.1, math.nan, 0.3]),
        ([1.0, 2.0, 3.0], [0.1, -math.inf, 0.3]),
    ])
    def test_non_finite_data_rejected(self, s_rates, ratios):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
            fit_zeta(s_rates, ratios)

    def test_zero_ratio_returns_zero_zeta(self):
        fit = fit_zeta([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert fit.zeta == 0.0
        assert fit.converged

    def test_out_of_range_ratio(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            fit_zeta([1.0, 2.0, 3.0], [0.5, 1.2, 0.7])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_zeta([1.0, 2.0], [0.1, 0.2])


class TestGenerateSynthetic:
    def test_zero_noise_exact(self):
        kappa = 1.4
        powers = np.linspace(0, 1, 8)
        recs = generate_synthetic(kappa, powers, input_kind="photon_pair",
                                  noise=0.0, seed=0)
        state = InputState(kind="photon_pair", modes=(1, 3))
        curve = correlation_curve(state, kappa * powers)
        for rec, k in zip(recs, range(len(powers))):
            assert np.allclose(rec.singles, curve.singles[k], atol=1e-12)

    def test_seed_determinism(self):
        a = generate_synthetic(1.0, [0.2, 0.5, 1.0], noise=0.03, seed=12)
        b = generate_synthetic(1.0, [0.2, 0.5, 1.0], noise=0.03, seed=12)
        for ra, rb in zip(a, b):
            assert ra.singles == rb.singles
            assert ra.coincidences == rb.coincidences

    def test_noise_magnitude_statistics(self):
        powers = np.linspace(0.1, 1.0, 1000)
        recs = generate_synthetic(0.5, powers, input_kind="photon_pair",
                                  noise=0.01, seed=5)
        state = InputState(kind="photon_pair", modes=(1, 3))
        curve = correlation_curve(state, 0.5 * np.concatenate([[0.0], powers]))
        devs = []
        for k, rec in enumerate(recs):
            clean = curve.singles[k, 0]
            if clean > 1e-6:
                devs.append(rec.singles[0] / clean - 1.0)
        std = np.std(devs)
        assert 0.008 < std < 0.012

    def test_single_coherent_gives_singles_only(self):
        recs = generate_synthetic(1.2, [0.2, 0.5], n_modes=4, input_kind="single_coherent")
        state = InputState(kind="single_coherent", modes=(1,))
        curve = correlation_curve(state, 1.2 * np.array([0.0, 0.2, 0.5]), n_modes=4)
        assert np.array_equal([rec.singles for rec in recs], curve.singles)
        assert all(rec.coincidences == {} for rec in recs)

    def test_prepends_zero_power_record(self):
        recs = generate_synthetic(1.0, [0.3, 0.6], noise=0.0, seed=0)
        assert recs[0].pump_peak_power == 0.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_any_seed_valid(self, seed):
        recs = generate_synthetic(1.0, [0.5], noise=0.02, seed=seed)
        rates = [v for r in recs for v in r.singles + tuple(r.coincidences.values())]
        assert all(math.isfinite(v) and v >= 0 for v in rates)
        assert len(recs) == 2 and recs[0].pump_peak_power == 0.0
        assert generate_synthetic(1.0, [0.5], noise=0.02, seed=seed) == recs

    def test_negative_noisy_rate_names_noise_and_power(self):
        # noise 0.5 draws a factor 1 + 0.5 z below zero for some z < -2
        with pytest.raises(ValueError, match=r"noise 0\.5 .* pump power [0-9.]+ W"):
            generate_synthetic(1.3, np.linspace(0.1, 1.0, 10), noise=0.5, seed=0)

    @pytest.mark.parametrize("noise", [-0.1, math.nan])
    def test_noise_must_be_a_non_negative_number(self, noise):
        with pytest.raises(ValueError, match="noise must be >= 0"):
            generate_synthetic(1.0, [0.5], noise=noise)

    @given(
        st.sampled_from(["single_coherent", "dual_coherent", "photon_pair", "squeezed_vacuum"]),
        st.integers(2, 8),
        st.sampled_from([0.0, 0.03]),
        st.booleans(),
        st.booleans(),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_record_loop(self, kind, n, noise, leading_zero, scaled, seed):
        rng = np.random.default_rng(seed)
        if kind == "single_coherent":
            modes = (int(rng.integers(1, n + 1)),)
        else:
            modes = tuple(sorted(int(m) for m in rng.choice(np.arange(1, n + 1), 2, replace=False)))
        state = InputState(kind=kind, modes=modes, zeta=0.3 if kind == "squeezed_vacuum" else 0.0)
        powers = np.sort(rng.uniform(0.05, 1.5, int(rng.integers(1, 40))))
        if leading_zero:
            powers[0] = 0.0
        scales = rng.uniform(0.5, 1.5, n) if scaled else None
        kwargs = dict(n_modes=n, state=state, channel_scales=scales, accidental_rate=1.7,
                      noise=noise, seed=seed)
        recs = generate_synthetic(1.1, powers, **kwargs)
        ref = reference_synthetic(1.1, powers, **kwargs)
        assert recs == ref
        assert repr(recs) == repr(ref)


class TestFullClosedLoop:
    def test_generate_normalize_fit(self):
        kappa = 2.0
        powers = np.linspace(0, 2 * math.pi / 3 / kappa, 30)
        recs = generate_synthetic(kappa, powers, input_kind="photon_pair",
                                  noise=0.0, seed=0)
        pw, vals = normalize_coincidences(recs, ports=(1, 3))
        g13, _ = g2_photon_pair(kappa * pw)
        assert np.allclose(vals, g13, atol=1e-12)
        # calibrate kappa from the singles depletion of a single-frequency run
        state = InputState(kind="single_coherent", modes=(1,))
        depl = correlation_curve(state, kappa * powers).singles[:, 0]
        fit = fit_phase_scale(powers, depl)
        assert fit.phase_scale == pytest.approx(kappa, rel=1e-6)
