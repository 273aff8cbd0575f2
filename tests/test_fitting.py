"""Fitting-pipeline tests: normalization, calibration fits, closed loops."""

import copy
import dataclasses
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import warnings

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
    INPUT_KINDS,
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

    def test_equal_records_hash_equal(self):
        # dicts equal in any key order, so their records hash alike and collapse in a set
        pairs = {(1, 2): 0.5, (1, 3): 2.0, (2, 3): 0.0}
        records = [CountRecord(0.5, (1.0, 2.0, 3.0), dict(order), (0.1,) * 3)
                   for order in itertools.permutations(pairs.items())]
        records.append(CountRecord(np.float64(0.5), [1, 2, 3], pairs, [0.1] * 3))
        assert all(rec == records[0] for rec in records)
        assert {hash(rec) for rec in records} == {hash(records[0])}
        assert len(set(records)) == 1
        assert hash(CountRecord(0.5, (1.0,), {})) == hash(CountRecord(0.5, (1.0,)))
        differing = [CountRecord(0.25, (1.0, 2.0, 3.0), pairs, (0.1,) * 3),
                     CountRecord(0.5, (1.0, 2.0, 3.5), pairs, (0.1,) * 3),
                     CountRecord(0.5, (1.0, 2.0, 3.0), pairs | {(2, 3): 1.0}, (0.1,) * 3),
                     CountRecord(0.5, (1.0, 2.0, 3.0), pairs, ())]
        assert len(set(records + differing)) == 5

    @pytest.mark.parametrize("field", ["singles", "accidental_singles"])
    @pytest.mark.parametrize("text", ["12", b"12"], ids=["str", "bytes"])
    def test_a_string_of_rates_is_rejected(self, field, text):
        # tuple() would split a string into its characters, "12" into (1.0, 2.0)
        kwargs = dict(pump_peak_power=0.0, singles=(1.0, 2.0), coincidences={(1, 3): 1.0},
                      accidental_singles=(2.0, 2.0))
        with pytest.raises(ValueError, match=rf"^{field} must be a sequence of rates, not the "
                                             rf"string {text!r}$"):
            CountRecord(**dict(kwargs, **{field: text}))

    def test_nan_power_is_rejected(self):
        # normalize_coincidences sorts records by power, and NaN has no place in that order
        with pytest.raises(ValueError, match=r"^pump power must be >= 0$"):
            CountRecord(pump_peak_power=math.nan, singles=(1.0,))

    @pytest.mark.parametrize("field,rates", [
        ("singles", (1.0, -0.5)), ("accidental_singles", (2.0, -1e-300)),
        ("coincidences", {(1, 2): 0.5, (1, 3): -2.0}),
    ])
    def test_each_negative_rate_has_the_same_message(self, field, rates):
        kwargs = dict(pump_peak_power=0.5, singles=(1.0, 2.0))
        kwargs[field] = rates
        with pytest.raises(ValueError, match=r"^rates must be >= 0$"):
            CountRecord(**kwargs)
        with pytest.raises(ValueError, match=r"^pump power must be >= 0$"):
            CountRecord(**dict(kwargs, pump_peak_power=-0.5))

    def test_nan_rates_accepted_and_converted(self):
        power = np.float64(0.25)
        rec = CountRecord(pump_peak_power=power, singles=np.array([math.nan, 1.0]),
                          coincidences={(1, 2): math.nan},
                          accidental_singles=[np.float32(2.0), 3])
        assert rec.pump_peak_power is power
        assert type(rec.singles) is tuple and type(rec.accidental_singles) is tuple
        assert all(type(v) is float for v in rec.singles + rec.accidental_singles)
        assert repr(rec) == ("CountRecord(pump_peak_power=np.float64(0.25), singles=(nan, 1.0), "
                             "coincidences={(1, 2): nan}, accidental_singles=(2.0, 3.0))")

    def test_fields_defaults_repr_and_equality(self):
        assert [f.name for f in dataclasses.fields(CountRecord)] == [
            "pump_peak_power", "singles", "coincidences", "accidental_singles"]
        rec = CountRecord(0.5, [1, 2.0])
        assert repr(rec) == ("CountRecord(pump_peak_power=0.5, singles=(1.0, 2.0), "
                             "coincidences={}, accidental_singles=())")
        # each record gets its own empty coincidence dict
        assert rec.coincidences is not CountRecord(0.5, [1, 2.0]).coincidences
        assert rec == CountRecord(pump_peak_power=0.5, singles=(1.0, 2.0), coincidences={},
                                  accidental_singles=())
        assert rec != CountRecord(0.5, (1.0, 2.0), {(1, 2): 0.1})
        assert rec != CountRecord(0.5, (1.0, 2.0), accidental_singles=(1.0,))

    def test_frozen_with_slots(self):
        rec = CountRecord(0.5, (1.0, 2.0), {(1, 2): 0.1}, (3.0, 4.0))
        for name in ("pump_peak_power", "singles", "coincidences", "accidental_singles"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rec, name, 1.0)
        assert not hasattr(rec, "__dict__")

    def test_replace_copy_and_pickle(self):
        rec = CountRecord(0.5, (1.0, 2.0), {(1, 2): 0.1}, (3.0, 4.0))
        for other in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
            assert other == rec and repr(other) == repr(rec) and other is not rec
        assert copy.deepcopy(rec).coincidences is not rec.coincidences
        moved = dataclasses.replace(rec, pump_peak_power=0.75, singles=[5, 6])
        assert moved == CountRecord(0.75, (5.0, 6.0), {(1, 2): 0.1}, (3.0, 4.0))
        # replace runs the constructor's checks
        with pytest.raises(ValueError, match=r"^pump power must be >= 0$"):
            dataclasses.replace(rec, pump_peak_power=-1.0)
        with pytest.raises(ValueError, match=r"^rates must be >= 0$"):
            dataclasses.replace(rec, coincidences={(1, 2): -0.1})


def reference_objective(kappa, powers, values, n_modes):
    """The scalar squared residual of the depletion fit at one kappa."""
    r = values - np.abs(p_coeff(n_modes, kappa * powers)) ** 2
    return float(r @ r)


def stacked_objective(grid, powers, values, n_modes):
    """``reference_objective`` at every kappa of ``grid``, each row's sum of squares a
    stacked (1, P) @ (P, 1) product."""
    r = values - np.abs(p_coeff(n_modes, grid[:, np.newaxis] * powers)) ** 2
    return (r[:, np.newaxis, :] @ r[:, :, np.newaxis])[:, 0, 0]


def reference_fit_phase_scale(powers, values, n_modes):
    """fit_phase_scale with its coarse scan as one scalar objective call per kappa."""
    for name, x in (("powers", powers), ("values", values)):
        if not np.isfinite(x).all():
            raise ValueError(f"{name} must be finite")
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


def parent_count_record(pump_peak_power, singles, coincidences, accidental_singles):
    """A CountRecord converted and checked as its earlier __post_init__ did: generator
    expressions and any()."""
    rec = object.__new__(CountRecord)
    object.__setattr__(rec, "pump_peak_power", pump_peak_power)
    object.__setattr__(rec, "singles", tuple(float(s) for s in singles))
    object.__setattr__(rec, "coincidences", coincidences)
    object.__setattr__(rec, "accidental_singles", tuple(float(s) for s in accidental_singles))
    if rec.pump_peak_power < 0:
        raise ValueError("pump power must be >= 0")
    if any(s < 0 for s in rec.singles + rec.accidental_singles):
        raise ValueError("rates must be >= 0")
    if any(r < 0 for r in rec.coincidences.values()):
        raise ValueError("rates must be >= 0")
    return rec


def parent_generate_synthetic(phase_scale, powers, n_modes=3, input_kind="photon_pair",
                              channel_scales=None, accidental_rate=1.0, noise=0.0, seed=0,
                              state=None):
    """generate_synthetic with its records built by ``parent_count_record``."""
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
    table = np.hstack([scales * curve.singles, pair_scales * g2])
    kept = np.hstack([np.ones(curve.singles.shape, dtype=bool), ~np.isnan(g2)])
    if noise:
        table[kept] *= 1.0 + noise * rng.standard_normal(np.count_nonzero(kept))
    acc = (accidental_rate,) * n_modes
    records = []
    for power, row, keep in zip(powers, table.tolist(), kept.tolist()):
        coinc = {pr: v for pr, v, k in zip(pairs, row[n_modes:], keep[n_modes:]) if k}
        records.append(parent_count_record(pump_peak_power=power, singles=row[:n_modes],
                                           coincidences=coinc, accidental_singles=acc))
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
    x, fx, nfev, converged = fitting._bounded_min(ours, lo, hi, xatol, maxiter)
    res = scipy.optimize.minimize_scalar(theirs, bounds=(lo, hi), method="bounded",
                                         options={"xatol": xatol, "maxiter": maxiter})
    assert x == float(res.x) and math.copysign(1.0, x) == math.copysign(1.0, float(res.x))
    assert float(fx).hex() == float(res.fun).hex()
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

    def test_short_accidentals_error(self):
        recs = make_records(1.0, [0.0, 0.5])
        short = CountRecord(pump_peak_power=0.5, singles=(1.0, 0.0, 1.0),
                            coincidences={(1, 3): 1.0}, accidental_singles=(2.0, 2.0))
        with pytest.raises(ValueError, match="^record lacks accidental singles for the "
                                             "requested ports$"):
            normalize_coincidences([recs[0], short])

    def test_missing_port_pair_error(self):
        recs = make_records(1.0, [0.0, 0.5])
        with pytest.raises(ValueError, match=r"^record lacks coincidences for ports \(1, 2\)$"):
            normalize_coincidences(recs, ports=(2, 1))

    def test_vanishing_zero_power_coincidence_error(self):
        recs = make_records(1.0, [0.0, 0.5])
        zero = CountRecord(pump_peak_power=0.0, singles=(1.0, 0.0, 1.0),
                           coincidences={(1, 3): 0.0}, accidental_singles=(2.0, 2.0, 2.0))
        with pytest.raises(ValueError, match="^zero-power coincidence vanishes; "
                                             "cannot normalize$"):
            normalize_coincidences([zero, recs[1]])


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

    def test_unequal_lengths_rejected(self):
        # both lengths named, where an IndexError once came from the screen's points
        with pytest.raises(ValueError, match="^powers and values must have equal length, "
                                             "got 30 and 2$"):
            fit_phase_scale(np.linspace(0, 2, 30), np.linspace(0, 1, 2))

    def test_two_dimensional_curve_rejected(self):
        # an IndexError once came from the screen
        powers = np.tile(np.linspace(0, 2, 10)[:, np.newaxis], 3)
        with pytest.raises(ValueError, match=r"^powers and values must be 1-D, "
                                             r"got shapes \(10, 3\) and \(10, 3\)$"):
            fit_phase_scale(powers, np.cos(powers))
        with pytest.raises(ValueError, match=r"got shapes \(10, 3\) and \(10,\)$"):
            fit_phase_scale(powers, np.linspace(1, 0, 10))

    @pytest.mark.parametrize("n_modes", [1, -3, 2.5, 0])
    def test_n_modes_below_two_or_not_integral_rejected(self, n_modes):
        # 1 and -3 once "converged", 2.5 fitted, and 0 raised ZeroDivisionError
        powers, values = depletion_data(3, 30, True, 5)
        with pytest.raises(ValueError, match=rf"^n_modes must be an integer >= 2, got {n_modes}$"):
            fit_phase_scale(powers, values, n_modes=n_modes)

    def test_numpy_integer_n_modes_accepted(self):
        powers, values = depletion_data(4, 30, True, 5)
        assert repr(fit_phase_scale(powers, values, n_modes=np.int64(4))) == repr(
            fit_phase_scale(powers, values, n_modes=4))

    def test_no_positive_power_rejected(self):
        with pytest.raises(ValueError, match="^need nonzero pump powers$"):
            fit_phase_scale(-np.linspace(0, 2, 10), np.linspace(0, 1, 10))

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
        # the stacked objective the screen tests hold the bounds against, bit for bit
        grid = np.linspace(0.0, 8.0 * math.pi / n / powers.max(), 513)
        scan = [reference_objective(k, powers, values, n) for k in grid]
        assert stacked_objective(grid, powers, values, n).tolist() == scan
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
        subsets = (fitting._screen_points(powers), None)

        def bounds():
            return [fitting._screen_bounds(grid, powers, values, 3, points) for points in subsets]

        whole = bounds()
        fit = fit_phase_scale(powers, values)
        monkeypatch.setattr(fitting, "SCAN_BLOCK_ENTRIES", rows * len(powers))
        assert all(map(np.array_equal, bounds(), whole))
        assert fit_phase_scale(powers, values) == fit
        # below one row per block: still one kappa at a time
        monkeypatch.setattr(fitting, "SCAN_BLOCK_ENTRIES", 1)
        assert all(map(np.array_equal, bounds(), whole))


def screen_data(n_modes, n_points, powers_kind, values_kind, seed):
    """A curve for the scan's screen: sorted, signed or large powers (max > 0), and
    exact, noisy, scaled, offset or random values."""
    rng = np.random.default_rng(seed)
    kappa = rng.uniform(0.2, 2.0)
    if powers_kind == "sorted":
        powers = np.sort(rng.uniform(0.0, 2.0, n_points))
    elif powers_kind == "signed":
        powers = rng.uniform(-5.0, 2.0, n_points)
        powers[0] = 2.0
    else:  # up to 1e7 in size, against a largest power of 1 to 1e7
        powers = rng.uniform(-1e7, 1e7, n_points)
        powers[0] = 10.0 ** rng.uniform(0.0, 7.0)
        kappa /= powers.max()
    model = np.abs(p_coeff(n_modes, kappa * powers)) ** 2
    if values_kind == "exact":
        return powers, model
    if values_kind == "noisy":
        return powers, model * (1 + 0.02 * rng.standard_normal(n_points))
    if values_kind == "scaled":
        return powers, model * rng.uniform(0.1, 10.0)
    if values_kind == "offset":
        return powers, model + rng.uniform(-1.0, 1.0)
    return powers, rng.uniform(-2.0, 2.0, n_points) * 10.0 ** rng.integers(-5, 5)


def recorded_scan_rows(monkeypatch):
    """The kappas of every _objective call, in the order fit_phase_scale makes them."""
    rows = []
    objective = fitting._objective

    def wrapped(kappa, *args):
        rows.append(float(kappa))
        return objective(kappa, *args)

    monkeypatch.setattr(fitting, "_objective", wrapped)
    return rows


def scan_share(rows, fit):
    """The scan's kappas among ``recorded_scan_rows``: all but the refinement's
    (``iterations`` - 513), whose last value is the residual."""
    return rows[:len(rows) - (fit.iterations - 513)]


def recorded_screen_rows(monkeypatch):
    """The number of kappa rows of every full-point _screen_bounds call of fit_phase_scale."""
    rows = []
    screen = fitting._screen_bounds

    def wrapped(grid, powers, values, n_modes, points=None):
        if points is None:
            rows.append(len(grid))
        return screen(grid, powers, values, n_modes, points)

    monkeypatch.setattr(fitting, "_screen_bounds", wrapped)
    return rows


def warned(func, *args):
    """``func(*args)`` as the repr of its result or exception, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = repr(func(*args))
        except ValueError as exc:
            out = f"{type(exc).__name__}: {exc}"
    return out, sorted({(w.category.__name__, str(w.message)) for w in caught})


# (array, {index: non-finite entry}) on a 12-point curve
NON_FINITE_ENTRIES = [
    *(pytest.param(array, {index: bad}, id=f"{array}-{bad}-{index}")
      for array in ("values", "powers") for bad in (math.nan, math.inf, -math.inf)
      for index in (0, 5, 11)),
    pytest.param("values", {2: math.inf, 7: -math.inf}, id="values-inf-and--inf"),
]


class TestScanScreen:
    """The cosine screen keeps every grid row that can hold the scan's exact minimum."""

    @given(st.integers(2, 16), st.integers(5, 600), st.sampled_from(["sorted", "signed", "large"]),
           st.sampled_from(["exact", "noisy", "scaled", "offset", "random"]),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=120, deadline=None)
    def test_bounds_hold_the_exact_objective(self, n, n_points, powers_kind, values_kind, seed):
        powers, values = screen_data(n, n_points, powers_kind, values_kind, seed)
        grid = np.linspace(0.0, 8.0 * math.pi / n / powers.max(), 513)
        exact = stacked_objective(grid, powers, values, n)
        for points in (fitting._screen_points(powers), None):
            assert np.all(fitting._screen_bounds(grid, powers, values, n, points) <= exact)
        assert repr(fit_phase_scale(powers, values, n)) == repr(
            reference_fit_phase_scale(powers, values, n))

    def test_bounds_hold_where_residuals_round_apart(self):
        # N = 2 with theta next to pi/2 + k pi: |p|^2 is 0.5 to an ulp, and where the
        # two forms land on opposite sides of 0.5, values of 2^52 + 2 give residuals
        # a whole unit apart; only the slack's relative term covers that gap
        grid = np.linspace(0.0, 4.0 * math.pi, 513)  # kappa_max at N = 2, largest power 1
        powers = ((0.5 + np.arange(3))[:, np.newaxis] * math.pi / (2.0 * grid[1::7])).ravel()
        powers = np.append(1.0, powers[powers <= 1.0])
        values = np.full(len(powers), 2.0**52 + 2.0)
        exact = stacked_objective(grid, powers, values, 2)
        for points in (fitting._screen_points(powers), None):
            assert np.all(fitting._screen_bounds(grid, powers, values, 2, points) <= exact)

    @pytest.mark.parametrize("row", [1, 100, 255, 256])
    @pytest.mark.parametrize("between", [False, True], ids=["at-row", "between-rows"])
    @pytest.mark.parametrize("noise", [0.0, 0.02])
    def test_mirror_ties_match_the_reference(self, monkeypatch, row, between, noise):
        # powers 0..4 and N = 3: |p_3(3 kappa P)|^2 is even and 2 pi / 3 periodic in
        # kappa, and kappa_max is 2 pi / 3, so the objective is symmetric about grid
        # row 256: rows j and 512 - j tie up to rounding
        powers = np.arange(5.0)
        grid = np.linspace(0.0, 2.0 * math.pi / 3.0, 513)
        kappa = 0.5 * (grid[row] + grid[row + 1]) if between else grid[row]
        values = np.abs(p_coeff(3, kappa * powers)) ** 2
        values *= 1 + noise * np.random.default_rng(row).standard_normal(5)
        kept = recorded_scan_rows(monkeypatch)
        fit = fit_phase_scale(powers, values)
        ref = reference_fit_phase_scale(powers, values, 3)
        assert repr(fit) == repr(ref)
        best = int(np.argmin([reference_objective(k, powers, values, 3) for k in grid]))
        assert {grid[best], grid[512 - best]} <= set(scan_share(kept, fit))

    @given(st.integers(2, 16), st.integers(5, 600),
           st.sampled_from(["sorted", "unsorted", "duplicates"]), st.floats(0.0, 0.3),
           st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_fit_matches_the_reference(self, n, n_points, order, noise, seed):
        # the subset step only drops rows: every FitResult bit is the reference's
        rng = np.random.default_rng(seed)
        powers = rng.uniform(0.0, 2.0, n_points)
        if order == "sorted":
            powers.sort()
        elif order == "duplicates":  # a few distinct powers, each repeated, unsorted
            powers = rng.choice(powers[:max(2, n_points // 8)], n_points)
        values = np.abs(p_coeff(n, rng.uniform(0.2, 2.0) * powers)) ** 2
        values *= 1 + noise * rng.standard_normal(n_points)
        if np.ptp(values) < 1e-12:
            return
        assert repr(fit_phase_scale(powers, values, n)) == repr(
            reference_fit_phase_scale(powers, values, n))

    def test_calibrate_fits_screen_few_rows_on_all_points(self, monkeypatch):
        # calibrate-shaped 30-point curves, exact and 1 % noisy: the subset step
        # leaves at most 8 of 513 rows (the row of its least bound included) to the
        # full-point step, which leaves one row, the row of its bound: two exact
        # evaluations, one per step's bound
        rows = recorded_screen_rows(monkeypatch)
        kept = recorded_scan_rows(monkeypatch)
        for seed in range(60):
            rng = np.random.default_rng(seed)
            kappa = rng.uniform(0.5, 2.0)
            powers = np.linspace(0.0, 2.0 * math.pi / 3.0 / kappa, 30)
            values = np.abs(p_coeff(3, kappa * powers)) ** 2
            values *= 1 + (0.01 if seed % 6 else 0.0) * rng.standard_normal(30)
            rows.clear()
            kept.clear()
            fit = fit_phase_scale(powers, values)
            assert sum(rows) <= 8 and len(scan_share(kept, fit)) == 2, seed
            assert repr(fit) == repr(reference_fit_phase_scale(powers, values, 3)), seed

    def test_calibrate_fit_checks_one_row(self, monkeypatch):
        # a noisy 30-point curve, as the calibration loop fits: one row left, whose
        # objective the full-point step's bound already holds, so two exact
        # evaluations in all
        powers, values = depletion_data(3, 30, True, 7)
        kept = recorded_scan_rows(monkeypatch)
        fit = fit_phase_scale(powers, values)
        assert len(scan_share(kept, fit)) == 2
        assert repr(fit) == repr(reference_fit_phase_scale(powers, values, 3))

    def test_calibrate_fit_evaluates_two_rows_beyond_brent(self, monkeypatch):
        # the refinement's last value is the residual, and the row left after the
        # scan reuses the full-point step's bound: nfev + 2 _objective calls
        powers, values = depletion_data(3, 30, True, 7)
        powers[0] = 0.0
        kept = recorded_scan_rows(monkeypatch)
        fit = fit_phase_scale(powers, values)
        assert len(kept) == fit.iterations - 513 + 2

    @pytest.mark.parametrize("powers", [
        np.linspace(0.0, 2.0, 30), np.linspace(2.0, 0.0, 30), np.append(np.zeros(29), 1.0),
        np.array([0.0, 0.0, -3.0, 0.0, 0.0, 1.0, 0.0]), np.arange(-4.0, 5.0)],
        ids=["rising", "falling", "one-nonzero", "signed", "zero-in-the-middle"])
    def test_screen_points_skip_zero_power(self, powers):
        # at P = 0 every row's term is the same, so it cannot separate rows
        points = fitting._screen_points(powers)
        assert points and all(powers[i] != 0.0 for i in points)
        assert int(np.abs(powers).argmax()) in points
        assert points == sorted(set(points))

    @pytest.mark.parametrize("case", ["exact", "noisy", "overflow"])
    def test_fit_screens_twice(self, monkeypatch, case):
        # the subset screen at every row and the full-point screen at the rows
        # it leaves; the upper bound between them is the exact objective at one
        # row, so no one-row screen call
        calls = []
        screen = fitting._screen_bounds

        def counted(grid, *args):
            calls.append(len(grid))
            return screen(grid, *args)

        monkeypatch.setattr(fitting, "_screen_bounds", counted)
        powers, values = depletion_data(3, 30, case == "noisy", 11)
        if case == "overflow":
            powers[3] = -1e308
        fit = warned(fit_phase_scale, powers, values, 3)
        assert len(calls) == 2 and calls[0] == 513
        assert fit == warned(reference_fit_phase_scale, powers, values, 3)

    @pytest.mark.parametrize("array,entries", NON_FINITE_ENTRIES)
    def test_non_finite_entries_match_the_reference(self, array, entries):
        # rejected before the scan, naming the array and warning nothing, as the
        # reference's input check does: without the check an infinite value fit
        # "converged" to residual inf, and a NaN power gave NaN where scipy's
        # bounded minimizer rejects the NaN bracket
        powers = np.linspace(0.0, 2.0, 12)
        values = np.abs(p_coeff(3, 0.9 * powers)) ** 2
        target = values if array == "values" else powers
        for index, bad in entries.items():
            target[index] = bad
        fit = warned(fit_phase_scale, powers, values, 3)
        assert fit == (f"ValueError: {array} must be finite", [])
        assert fit == warned(reference_fit_phase_scale, powers, values, 3)

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("big", [-1e308, -5e307])
    def test_overflowing_theta_matches_the_reference(self, n, big):
        # one huge negative power, at none of the evenly spaced subset points, sends
        # N kappa P to -inf past the first rows: their objective is NaN, and the
        # first of them must still win the scan, as in the reference
        powers = np.linspace(0.0, 2.0, 30)
        values = np.abs(p_coeff(n, 0.9 * powers)) ** 2
        powers[3] = big
        fit = warned(fit_phase_scale, powers, values, n)
        assert fit == warned(reference_fit_phase_scale, powers, values, n)
        assert "nan" in fit[0]


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

    @pytest.mark.parametrize("bad,name", [
        ("phase_scale", "phase_scale"), ("powers", r"generation_curves\[1\] powers"),
        ("values", r"generation_curves\[1\] values"),
    ], ids=["phase_scale", "powers", "values"])
    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_input_rejected(self, bad, name, entry):
        # an infinite value once came back as the scale (inf,), with no error
        powers = np.linspace(0, 1.5, 20)
        values = 0.37 * np.abs(q_coeff(3, 1.2 * powers)) ** 2
        curves = [(powers, values), (powers.copy(), values.copy())]
        kappa = entry if bad == "phase_scale" else 1.2
        if bad != "phase_scale":
            curves[1][0 if bad == "powers" else 1][4] = entry
        with pytest.raises(ValueError, match=rf"^{name} must be finite$"):
            fit_channel_scales(curves, kappa)

    def test_unequal_lengths_rejected(self):
        powers = np.linspace(0, 1.5, 20)
        curves = [(powers, np.ones(20)), (powers, np.ones(19))]
        with pytest.raises(ValueError, match=r"^generation_curves\[1\] powers and values must "
                                             "have equal length, got 20 and 19$"):
            fit_channel_scales(curves, 1.2)

    def test_two_dimensional_curve_rejected(self):
        # the matmul's shape message once came instead
        powers = np.linspace(0, 1.5, 20)
        curves = [(powers, np.ones(20)), (powers, np.ones((20, 2)))]
        with pytest.raises(ValueError, match=r"^generation_curves\[1\] powers and values must "
                                             r"be 1-D, got shapes \(20,\) and \(20, 2\)$"):
            fit_channel_scales(curves, 1.2)

    @pytest.mark.parametrize("n_modes", [1, -3, 2.5, 0])
    def test_n_modes_below_two_or_not_integral_rejected(self, n_modes):
        powers = np.linspace(0, 1.5, 20)
        with pytest.raises(ValueError, match=rf"^n_modes must be an integer >= 2, got {n_modes}$"):
            fit_channel_scales([(powers, np.ones(20))], 1.2, n_modes=n_modes)


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
        # one singles rate: the scale and conv columns of J are exactly parallel
        ([2.0, 2.0, 2.0, 2.0], [0.1, 0.15, 0.12, 0.2]),
        ([1.0, 2.0, 3.0, 4.0], [0.2, 0.2, 0.2, 0.2]),
        ([1.0, 2.0, 3.0, 4.0], [0.1, 0.2, 0.4, 0.8]),
    ], ids=["one-rate", "flat", "upward"])
    def test_degenerate_data_not_converged_in_any_row_order(self, s_rates, ratios):
        # the row order changes the rounding of every sum (and the start, from
        # the last row); none may turn a degenerate fit into a converged one
        for order in itertools.permutations(range(len(s_rates))):
            fit = fit_zeta(np.take(s_rates, order), np.take(ratios, order))
            assert not fit.converged, order

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

    def test_unequal_lengths_rejected(self):
        # one ratio against five rates once broadcast to a fit, not converged
        with pytest.raises(ValueError, match="^singles_rates and ratios must have equal length, "
                                             "got 5 and 1$"):
            fit_zeta([0.1, 0.2, 0.3, 0.4, 0.5], [0.04])

    def test_two_dimensional_input_rejected(self):
        # numpy's "truth value ... is ambiguous" once came from the initial slope
        with pytest.raises(ValueError, match=r"^singles_rates and ratios must be 1-D, "
                                             r"got shapes \(3, 2\) and \(3, 2\)$"):
            fit_zeta(np.full((3, 2), 0.2), np.full((3, 2), 0.05))


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

    @pytest.mark.parametrize("powers, shape", [([], "(0,)"), ([[0.1, 0.2]], "(1, 2)"),
                                               (0.5, "()")], ids=["empty", "2-d", "scalar"])
    def test_powers_must_be_a_non_empty_1d_array(self, powers, shape):
        with pytest.raises(ValueError, match=re.escape(
                f"powers must be a non-empty 1-D array, not shape {shape}")):
            generate_synthetic(1.0, powers)

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

    @pytest.mark.parametrize("scales", [(0.9, 0.8), (0.9, 0.8, 0.7, 0.6, 0.5)],
                             ids=["too-few", "too-many"])
    def test_channel_scales_must_match_n_modes(self, scales):
        # neither dropped nor an IndexError: the message names both lengths
        with pytest.raises(ValueError, match=rf"channel_scales has {len(scales)} entries, "
                                             r"but n_modes is 3"):
            generate_synthetic(1.0, [0.5], n_modes=3, channel_scales=scales)

    def test_one_scale_per_channel_accepted(self):
        recs = generate_synthetic(1.0, [0.5], n_modes=3, channel_scales=(0.9, 0.8, 0.7))
        plain = generate_synthetic(1.0, [0.5], n_modes=3)
        assert recs[1].singles == tuple(s * f for s, f in zip(plain[1].singles, (0.9, 0.8, 0.7)))

    @pytest.mark.parametrize("noise", [-0.1, math.nan])
    def test_noise_must_be_a_non_negative_number(self, noise):
        with pytest.raises(ValueError, match="noise must be >= 0"):
            generate_synthetic(1.0, [0.5], noise=noise)

    @pytest.mark.parametrize("phase_scale,powers,name", [
        (math.nan, [0.5, 1.0], "phase_scale"), (math.inf, [0.5, 1.0], "phase_scale"),
        (1.0, [0.5, math.inf], "powers"), (1.0, [math.nan, 1.0], "powers"),
    ])
    def test_non_finite_phase_scale_or_power_rejected(self, phase_scale, powers, name):
        # once NaN singles, and an inf power record, with no error
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            generate_synthetic(phase_scale, powers)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("noise", [0.0, 0.05])
    @pytest.mark.parametrize("phase_scale,powers,state,power", [
        (1e200, [0.1, 1e200, 0.5], None, r"1e\+200"),
        (1e200, [0.1, 1e200], None, r"1e\+200"),
        (1.0, [0.1, 0.5], InputState(kind="dual_coherent", amplitude=1e150), "0"),
    ], ids=["phase-inf-inside", "phase-inf-last", "dual-coincidence-inf"])
    def test_non_finite_model_rate_rejected(self, phase_scale, powers, state, power, noise):
        # a record may neither drop nor fill in a rate, so an overflow raises before the noise
        with pytest.raises(ValueError, match=rf"^the model rates at pump power {power} W are "
                                             "not finite"):
            generate_synthetic(phase_scale, powers, state=state, noise=noise, seed=1)

    @pytest.mark.parametrize("n_modes", [3.0, True, 1])
    def test_n_modes_must_be_an_integer_of_at_least_2(self, n_modes):
        with pytest.raises(ValueError, match=rf"^n_modes must be an integer >= 2, got {n_modes}$"):
            generate_synthetic(1.0, [0.5], n_modes=n_modes)

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

    @given(st.sampled_from(INPUT_KINDS), st.booleans(), st.integers(2, 8),
           st.sampled_from([0.0, 0.01, 0.05]), st.booleans(), st.integers(0, 2**31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_records_equal_the_parents(self, kind, default_modes, n, noise, scaled, seed):
        rng = np.random.default_rng(seed)
        if default_modes:
            n = max(n, 3)  # the default modes reach channel 3
            modes = None
        else:
            count = 1 if kind == "single_coherent" else 2
            modes = tuple(sorted(int(m) for m in rng.choice(np.arange(1, n + 1), count,
                                                            replace=False)))
        kwargs = dict(state=InputState(kind=kind, modes=modes,
                                       zeta=0.3 if kind == "squeezed_vacuum" else 0.0))
        powers = np.linspace(0.0, rng.uniform(0.5, 3.0), int(rng.integers(2, 40)))
        kwargs.update(n_modes=n, channel_scales=rng.uniform(0.5, 1.0, n) if scaled else None,
                      accidental_rate=float(rng.uniform(0.5, 2.0)), noise=noise, seed=seed)
        recs = generate_synthetic(1.3, powers, **kwargs)
        assert repr(recs) == repr(parent_generate_synthetic(1.3, powers, **kwargs))
        assert all(type(r.pump_peak_power) is np.float64 for r in recs)


def field_types(rec):
    """The type of each field, and of each rate and coincidence key, of one record."""
    return (type(rec.pump_peak_power), type(rec.singles), [type(v) for v in rec.singles],
            type(rec.coincidences), [(type(k), type(v)) for k, v in rec.coincidences.items()],
            type(rec.accidental_singles), [type(v) for v in rec.accidental_singles])


def records_or_error(build):
    try:
        return build()
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestRecordsFromTable:
    """``generate_synthetic`` checks its table once and builds the records from it."""

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("noise", [0.0, 0.01])
    def test_records_equal_constructed_ones(self, kind, noise):
        state = InputState(kind=kind, zeta=0.3 if kind == "squeezed_vacuum" else 0.0)
        recs = generate_synthetic(1.3, np.linspace(0.0, 2.0, 30), n_modes=4, state=state,
                                  channel_scales=(0.9, 1.1, 0.8, 1.0), accidental_rate=1.7,
                                  noise=noise, seed=3)
        for rec in recs:
            built = CountRecord(rec.pump_peak_power, rec.singles, dict(rec.coincidences),
                                rec.accidental_singles)
            assert rec == built and repr(rec) == repr(built)
            assert hash(rec) == hash(built)
            assert field_types(rec) == field_types(built)
            assert type(rec.pump_peak_power) is np.float64
            assert list(rec.coincidences) == list(built.coincidences)
        assert all(rec.accidental_singles is recs[0].accidental_singles for rec in recs)
        assert recs[0].accidental_singles == (1.7,) * 4

    @given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 3),
           st.sampled_from([2.0, 0.0, -1.0, math.nan]), st.integers(0, 2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_checks_match_a_loop_of_the_constructor(self, n_rows, n_singles, n_pairs, acc, seed):
        # every rule and its precedence: the first record to break one raises, its
        # power before its rates, and a NaN rate passes
        rng = np.random.default_rng(seed)
        powers = rng.choice([0.0, 0.5, 1.0, -0.5, math.nan], n_rows, p=[.2, .3, .3, .1, .1])
        table = rng.choice([0.0, 1.5, 3.0, -1.0, math.nan], (n_rows, n_singles + n_pairs),
                           p=[.2, .3, .3, .1, .1])
        pairs = [(1, k + 2) for k in range(n_pairs)]
        accidental = (acc,) * n_singles

        def loop():
            return [CountRecord(power, row[:n_singles], dict(zip(pairs, row[n_singles:])),
                                accidental)
                    for power, row in zip(powers, table.tolist())]

        got = records_or_error(lambda: CountRecord._from_table(powers, table, pairs, accidental))
        assert repr(got) == repr(records_or_error(loop))
        if not isinstance(got, str):
            assert [field_types(r) for r in got] == [field_types(r) for r in loop()]

    @pytest.mark.parametrize("powers,scales,message", [
        ([0.5, 1.0], (1.0, -0.5, 1.0), "rates must be >= 0"),
        ([0.5, -1.0], (1.0, 1.0, 1.0), "pump power must be >= 0"),
        ([0.5, -1.0], (1.0, -0.5, 1.0), "rates must be >= 0"),
        ([-1.0, 0.5], (1.0, -0.5, 1.0), "pump power must be >= 0"),
    ], ids=["negative-scale", "negative-power", "rate-first", "power-first"])
    def test_broken_rules_raise_the_parents_message(self, powers, scales, message):
        # channel 2 of a photon pair on (1, 3) is dark at zero power, so a negative
        # scale first gives a negative rate at the first nonzero power; without noise,
        # whose own check names a negative rate first
        kwargs = dict(channel_scales=scales)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            generate_synthetic(1.3, powers, **kwargs)
        assert records_or_error(lambda: parent_generate_synthetic(1.3, powers, **kwargs)) == (
            f"ValueError: {message}")

    def test_default_state_built_once_per_kind(self, monkeypatch):
        # the default squeezed vacuum (zeta 0) carries no light, and raises so
        def synth(**kwargs):
            return records_or_error(lambda: generate_synthetic(0.9, [0.4, 0.8], **kwargs))

        given = {kind: synth(state=InputState(kind=kind)) for kind in INPUT_KINDS}

        def no_state(**kwargs):
            raise AssertionError("a default state was built again")

        monkeypatch.setattr(fitting, "InputState", no_state)
        for kind in INPUT_KINDS:
            assert repr(synth(input_kind=kind)) == repr(given[kind])
        monkeypatch.undo()
        with pytest.raises(ValueError, match=r"^unknown input kind 'bogus'$"):
            generate_synthetic(0.9, [0.4], input_kind="bogus")


class TestAccidentalRate:
    """``generate_synthetic`` rejects an accidental rate before the model is built."""

    @pytest.fixture(autouse=True)
    def no_model(self, monkeypatch):
        # the model is never built for a rejected rate
        def model(*args, **kwargs):
            raise AssertionError("the model was built")

        monkeypatch.setattr(fitting, "correlation_curve", model)

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, -1.0, -1e-300,
                                      np.float64(math.nan), np.float64(-2.0)])
    def test_not_finite_or_negative(self, kind, rate):
        out = warned(generate_synthetic, 1.3, [0.0, 0.5, 1.0], 3, kind, None, rate)
        assert out == (f"ValueError: accidental_rate must be finite and >= 0, not {rate}", [])

    @pytest.mark.parametrize("kind", [k for k in INPUT_KINDS if k != "single_coherent"])
    @pytest.mark.parametrize("rate", [1e200, np.float64(1e200), 10**160])
    def test_square_overflows_for_a_kind_with_coincidences(self, kind, rate):
        out = warned(generate_synthetic, 1.3, [0.0, 0.5, 1.0], 3, kind, None, rate)
        assert out == (f"ValueError: accidental_rate {rate:g} overflows the coincidence "
                       "rates: its square is not finite", [])

    @pytest.mark.parametrize("rate", [1e200, np.float64(1e200)])
    def test_single_coherent_takes_a_rate_whose_square_overflows(self, monkeypatch, rate):
        # no coincidence column, so the square is never formed
        monkeypatch.undo()
        recs = generate_synthetic(1.3, [0.0, 0.5, 1.0], input_kind="single_coherent",
                                  accidental_rate=rate)
        assert all(rec.accidental_singles == (1e200,) * 3 for rec in recs)

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    @pytest.mark.parametrize("rate", [0.0, 1e150, 1.3])
    def test_finite_rates_with_a_finite_square_pass(self, monkeypatch, kind, rate):
        monkeypatch.undo()
        state = InputState(kind=kind, zeta=0.3 if kind == "squeezed_vacuum" else 0.0)
        recs = generate_synthetic(1.3, [0.0, 0.5, 1.0], state=state, accidental_rate=rate)
        assert all(rec.accidental_singles == (rate,) * 3 for rec in recs)


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
