"""Dispersion, mismatch, and grid-design tests.

Expected values are either trivially checkable by hand or frozen from
independent brute-force evaluation of the Taylor polynomial.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import nwaybs
from nwaybs.dispersion import (
    ZGVD_SEARCH_HALFWIDTH,
    DispersionProfile,
    FrequencyGrid,
    beta_eval,
    beta2_eval,
    delta_beta_pair,
    delta_beta_table,
    find_zgvd,
    nonlinear_mismatch,
    symmetric_grid,
)

W0 = 2 * math.pi * 233e12  # ~1285 nm carrier


def make_profile(coeffs, gamma=2e-3, length=100.0, alpha=0.0, omega0=W0):
    return DispersionProfile(
        omega0=omega0, beta_coeffs=coeffs, gamma=gamma, length=length, alpha=alpha
    )


class TestBetaEval:
    def test_constant_term_only(self):
        prof = make_profile((5e6,))
        assert beta_eval(prof, W0 + 1e12) == 5e6
        assert beta_eval(prof, W0 - 3e13) == 5e6

    def test_linear_term(self):
        prof = make_profile((0.0, 5e-9))
        assert beta_eval(prof, W0 + 2e12) == pytest.approx(1e4, rel=1e-14)

    def test_beta2_even_symmetry(self):
        prof = make_profile((0.0, 0.0, 2.3e-26))
        d = 7e11
        lo, hi = beta_eval(prof, W0 - d), beta_eval(prof, W0 + d)
        assert lo == pytest.approx(hi, rel=1e-14)
        assert hi == pytest.approx(2.3e-26 * d**2 / 2, rel=1e-13)

    def test_matches_bruteforce_polynomial(self):
        coeffs = (1.1e6, 4.9e-9, -2.2e-26, 8.1e-41, 3e-55)
        prof = make_profile(coeffs)
        w = W0 + 1.37e12
        expected = sum(
            c / math.factorial(m) * (w - W0) ** m for m, c in enumerate(coeffs)
        )
        assert beta_eval(prof, w) == pytest.approx(expected, rel=1e-14)

    def test_vectorized_matches_scalar(self):
        prof = make_profile((0.0, 1e-9, 3e-26, 2e-41))
        ws = W0 + np.linspace(-2e12, 2e12, 7)
        vec = beta_eval(prof, ws)
        assert vec == pytest.approx([beta_eval(prof, w) for w in ws], rel=1e-14)

    def test_beta2_is_second_derivative(self):
        prof = make_profile((0.0, 1e-9, 3e-26, 2e-41, -4e-56))
        w = W0 + 0.9e12
        h = 1e6
        fd = (beta_eval(prof, w + h) - 2 * beta_eval(prof, w) + beta_eval(prof, w - h)) / h**2
        assert beta2_eval(prof, w) == pytest.approx(fd, rel=1e-6)


class TestValidation:
    def test_order_cap(self):
        with pytest.raises(ValueError, match="capped"):
            make_profile((0.0,) * 8)

    def test_empty_coeffs(self):
        with pytest.raises(ValueError):
            make_profile(())

    def test_negative_length(self):
        with pytest.raises(ValueError):
            DispersionProfile(omega0=W0, beta_coeffs=(0.0,), gamma=1e-3, length=-1.0)

    def test_grid_needs_distinct_frequencies(self):
        with pytest.raises(ValueError):
            FrequencyGrid(pump_freqs=(1e15, 1e15), weak_freqs=(2e15, 3e15))

    def test_grid_length_mismatch(self):
        with pytest.raises(ValueError):
            FrequencyGrid(pump_freqs=(1e15, 2e15), weak_freqs=(3e15,))

    def test_negative_alpha(self):
        with pytest.raises(ValueError, match="^alpha must be >= 0$"):
            make_profile((0.0,), alpha=-1e-4)

    def test_grid_needs_two_channels(self):
        with pytest.raises(ValueError, match="^need at least 2 channels$"):
            FrequencyGrid(pump_freqs=(1e15,), weak_freqs=(2e15,))

    @pytest.mark.parametrize("field", ["pump_freqs", "weak_freqs"])
    @pytest.mark.parametrize("bad", [0.0, -1e15])
    def test_grid_needs_positive_frequencies(self, field, bad):
        kwargs = dict(pump_freqs=(1e15, 2e15), weak_freqs=(3e15, 4e15))
        kwargs[field] = (bad, 1e15)
        with pytest.raises(ValueError, match="^frequencies must be strictly positive$"):
            FrequencyGrid(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("gamma", math.nan), ("length", math.inf), ("alpha", math.nan), ("omega0", math.inf),
        ("beta_coeffs", (math.nan,)), ("beta_coeffs", (0.0, 1e-27, -math.inf)),
    ])
    def test_profile_rejects_non_finite_fields(self, field, value):
        kwargs = dict(omega0=W0, beta_coeffs=(0.0,), gamma=1e-3, length=100.0, alpha=0.0)
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            DispersionProfile(**dict(kwargs, **{field: value}))

    @pytest.mark.parametrize("field", ["pump_freqs", "weak_freqs"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_grid_rejects_non_finite_frequencies(self, field, bad):
        kwargs = dict(pump_freqs=(1e15, 2e15), weak_freqs=(3e15, 4e15))
        kwargs[field] = (1e15, bad)
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            FrequencyGrid(**kwargs)


class TestDeltaBeta:
    def test_same_channel_is_zero(self):
        prof = make_profile((0.0, 0.0, 2e-26, 1e-41))
        grid = FrequencyGrid(
            pump_freqs=(W0 + 1e12, W0 + 2e12), weak_freqs=(W0 - 1e12, W0 - 2e12)
        )
        assert delta_beta_pair(prof, grid, 1, 1) == 0.0
        assert delta_beta_pair(prof, grid, 2, 2) == 0.0

    def test_beta2_only_symmetric_pairs_cancel_exactly_at_center(self):
        # channels mirrored about omega0 with beta2-only and centered: the
        # quadratic contributions of pump and weak add identically per channel
        prof = make_profile((0.0, 0.0, 2e-26))
        grid = symmetric_grid(W0, [1e12, 2e12])
        d = delta_beta_pair(prof, grid, 2, 1)
        expected = 2e-26 * ((2e12) ** 2 - (1e12) ** 2)  # 2 * beta2 o^2 / 2 per channel
        assert d == pytest.approx(expected, rel=1e-12)

    def test_beta3_asymmetric_matches_bruteforce(self):
        prof = make_profile((0.0, 0.0, 0.0, 1.2e-40))
        grid = FrequencyGrid(
            pump_freqs=(W0 + 0.8e12, W0 + 1.9e12),
            weak_freqs=(W0 - 1.1e12, W0 - 2.7e12),
        )
        brute = (
            beta_eval(prof, grid.pump_freqs[1])
            + beta_eval(prof, grid.weak_freqs[1])
            - beta_eval(prof, grid.pump_freqs[0])
            - beta_eval(prof, grid.weak_freqs[0])
        )
        assert delta_beta_pair(prof, grid, 2, 1) == pytest.approx(brute, rel=1e-12)
        assert brute != 0.0

    def test_index_out_of_range(self):
        prof = make_profile((0.0, 1e-9))
        grid = symmetric_grid(W0, [1e12, 2e12])
        with pytest.raises(IndexError):
            delta_beta_pair(prof, grid, 3, 1)


@st.composite
def profiles_and_grids(draw, min_order=2, max_modes=5):
    order = draw(st.integers(min_value=min_order, max_value=6))
    scales = [1e6, 1e-9, 1e-26, 1e-40, 1e-54, 1e-68, 1e-82]
    coeffs = tuple(
        draw(st.floats(-1.0, 1.0, allow_nan=False)) * scales[m] for m in range(order + 1)
    )
    prof = make_profile(coeffs)
    n = draw(st.integers(min_value=2, max_value=max_modes))
    offsets = draw(
        st.lists(
            st.floats(0.05, 5.0, allow_nan=False).map(lambda x: x * 1e12),
            min_size=n, max_size=n, unique=True,
        )
    )
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    pumps = tuple(W0 + s * o for s, o in zip(signs, offsets))
    weaks = tuple(W0 - s * o for s, o in zip(signs, offsets))
    # distinct offsets can still round to the same float after adding W0
    assume(len(set(pumps)) == n and len(set(weaks)) == n)
    return prof, FrequencyGrid(pump_freqs=pumps, weak_freqs=weaks)


def _beta_scale(prof, grid):
    # delta_beta is a small difference of large beta values, so round-off
    # is set by the beta magnitudes being cancelled, not by the result
    freqs = list(grid.pump_freqs) + list(grid.weak_freqs)
    return max(abs(beta_eval(prof, f)) for f in freqs)


class TestDeltaBetaProperties:
    @given(profiles_and_grids(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_antisymmetry(self, pg, data):
        prof, grid = pg
        n = data.draw(st.integers(1, grid.n_modes))
        m = data.draw(st.integers(1, grid.n_modes))
        a = delta_beta_pair(prof, grid, n, m)
        b = delta_beta_pair(prof, grid, m, n)
        tol = 64 * np.finfo(float).eps * _beta_scale(prof, grid) + 1e-18
        assert abs(a + b) <= tol

    @given(profiles_and_grids(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_telescoping_additivity(self, pg, data):
        prof, grid = pg
        n = data.draw(st.integers(1, grid.n_modes))
        k = data.draw(st.integers(1, grid.n_modes))
        m = data.draw(st.integers(1, grid.n_modes))
        lhs = delta_beta_pair(prof, grid, n, m)
        rhs = delta_beta_pair(prof, grid, n, k) + delta_beta_pair(prof, grid, k, m)
        tol = 64 * np.finfo(float).eps * _beta_scale(prof, grid) + 1e-18
        assert abs(lhs - rhs) <= tol


class TestDeltaBetaTable:
    @given(profiles_and_grids(min_order=0, max_modes=16))
    @settings(max_examples=60, deadline=None)
    def test_equals_four_beta_evals(self, pg):
        prof, grid = pg
        p = [beta_eval(prof, f) for f in grid.pump_freqs]
        w = [beta_eval(prof, f) for f in grid.weak_freqs]
        n = grid.n_modes
        expected = [[0.0 if i == j else p[i] + w[i] - p[j] - w[j] for j in range(n)]
                    for i in range(n)]
        assert delta_beta_table(prof, grid).tolist() == expected


class TestNonlinearMismatch:
    def test_channel_one_pinned_zero(self):
        prof = make_profile((0.0, 0.0, 0.0, 1e-40))
        grid = FrequencyGrid(
            pump_freqs=(W0 + 1e12, W0 + 2.3e12), weak_freqs=(W0 - 0.7e12, W0 - 2e12)
        )
        rep = nonlinear_mismatch(prof, grid, (1.0, 2.5))
        assert rep.delta_k[0] == 0.0
        assert rep.delta_beta[0] == 0.0

    def test_equal_powers_reduce_to_delta_beta(self):
        prof = make_profile((0.0, 0.0, 0.0, 1e-40))
        grid = FrequencyGrid(
            pump_freqs=(W0 + 1e12, W0 + 2.3e12), weak_freqs=(W0 - 0.7e12, W0 - 2e12)
        )
        rep = nonlinear_mismatch(prof, grid, (0.8, 0.8))
        assert rep.delta_k[1] == pytest.approx(
            delta_beta_pair(prof, grid, 2, 1), rel=1e-12
        )

    def test_power_imbalance_term(self):
        # P1=1, P2=2, gamma=2e-3, zero linear mismatch -> dk_2 = -2e-3 /m
        prof = make_profile((0.0,), gamma=2e-3)
        grid = symmetric_grid(W0, [1e12, 2e12])
        rep = nonlinear_mismatch(prof, grid, (1.0, 2.0))
        assert rep.delta_k[1] == pytest.approx(-2e-3, rel=1e-14)

    def test_negligibility_flag_threshold(self):
        prof = make_profile((0.0,), gamma=0.0, length=100.0)
        grid = symmetric_grid(W0, [1e12, 2e12])
        rep = nonlinear_mismatch(prof, grid, (1.0, 1.0))
        assert rep.negligible.all()  # dk = 0 exactly
        # dk_2 = gamma (P1-P2) = 1e-3, |dk| L = 0.1 > 0.01 pi
        prof2 = make_profile((0.0,), gamma=1e-3, length=100.0)
        rep2 = nonlinear_mismatch(prof2, grid, (2.0, 1.0))
        assert not rep2.negligible[1]
        assert rep2.negligible[0]

    def test_power_length_mismatch_raises(self):
        prof = make_profile((0.0,))
        grid = symmetric_grid(W0, [1e12, 2e12])
        with pytest.raises(ValueError):
            nonlinear_mismatch(prof, grid, (1.0,))

    def test_negative_power_raises(self):
        prof = make_profile((0.0,))
        grid = symmetric_grid(W0, [1e12, 2e12])
        with pytest.raises(ValueError, match="^pump powers must be >= 0$"):
            nonlinear_mismatch(prof, grid, (1.0, -0.5))


class TestFindZgvd:
    def test_linear_beta2_root(self):
        # beta2(w) = b2 + b3 (w - w0): root at w0 - b2/b3
        b2, b3 = 2e-26, 1.5e-39
        prof = make_profile((0.0, 0.0, b2, b3))
        assert find_zgvd(prof) == pytest.approx(W0 - b2 / b3, abs=2 * math.pi * 2e3)

    def test_beta2_identically_zero_returns_carrier(self):
        prof = make_profile((0.0, 1e-9))
        assert find_zgvd(prof) == W0

    def test_no_root_raises(self):
        prof = make_profile((0.0, 0.0, 2e-26))  # constant positive beta2
        with pytest.raises(ValueError, match="constant sign"):
            find_zgvd(prof)

    def test_cubic_beta2_matches_grid_scan(self):
        prof = make_profile((0.0, 0.0, 1e-26, 2e-40, -3e-53, 4e-67))
        root = find_zgvd(prof)
        ws = np.linspace(W0 - 2 * math.pi * 50e12, W0 + 2 * math.pi * 50e12, 200001)
        vals = beta2_eval(prof, ws)
        idx = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
        assert len(idx) > 0
        nearest = min(abs(root - ws[i]) for i in idx)
        assert nearest < 2 * (ws[1] - ws[0])
        assert abs(beta2_eval(prof, root)) < 1e-6 * abs(beta2_eval(prof, W0))


    @staticmethod
    def cubic_beta2(roots, scale=1e-26):
        # beta2(w) = k (d - r1)(d - r2)(d - r3) in d = w - w0, with |beta2(w0)| = scale
        r1, r2, r3 = roots
        k = scale / abs(r1 * r2 * r3)
        s1, s2, s3 = r1 + r2 + r3, r1 * r2 + r1 * r3 + r2 * r3, r1 * r2 * r3
        return make_profile((0.0, 0.0, -k * s3, k * s2, -2 * k * s1, 6 * k))

    def test_cubic_beta2_lowest_of_three_roots(self):
        roots = [2 * math.pi * f for f in (-20e12, 5e12, 30e12)]
        assert find_zgvd(self.cubic_beta2(roots)) == pytest.approx(W0 + roots[0], abs=1.0)

    def test_root_outside_window_is_skipped(self):
        # the lowest root lies beyond the search half-width: the next one is taken
        roots = [2 * math.pi * f for f in (-70e12, 5e12, 30e12)]
        assert abs(roots[0]) > ZGVD_SEARCH_HALFWIDTH
        assert find_zgvd(self.cubic_beta2(roots)) == pytest.approx(W0 + roots[1], abs=1.0)

    def test_only_root_outside_window_raises(self):
        # beta2 = b2 + b3 (w - w0) crosses zero 60 THz above the carrier
        b3 = 1.5e-40
        prof = make_profile((0.0, 0.0, -b3 * 2 * math.pi * 60e12, b3))
        with pytest.raises(ValueError, match="constant sign"):
            find_zgvd(prof)


FRESH_INTERPRETER_SCRIPT = r"""
import math, sys
from nwaybs import (DispersionProfile, IntegratorSettings, PumpConfig, find_zgvd,
                    integrate_weak, symmetric_grid)
prof = DispersionProfile(omega0=2 * math.pi * 233e12, beta_coeffs=(0.0, 0.0, 2e-26, 1e-40),
                         gamma=2e-3, length=100.0)
grid = symmetric_grid(find_zgvd(prof), [1e12, 2e12, 3e12])
integrate_weak(prof, grid, PumpConfig((0.5, 0.5, 0.5)), [1e-4, 0.0, 0.0],
               IntegratorSettings(step=0.5))
print("scipy.optimize" in sys.modules)
"""


def test_zgvd_and_rk4_run_without_scipy_optimize(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(nwaybs.__file__)))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", FRESH_INTERPRETER_SCRIPT], cwd=tmp_path,
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["False"]


class TestSymmetricGrid:
    def test_mirror_construction(self):
        grid = symmetric_grid(1e15, [-2e12, 3e12])
        assert grid.pump_freqs == (1e15 - 2e12, 1e15 + 3e12)
        assert grid.weak_freqs == (1e15 + 2e12, 1e15 - 3e12)

    def test_duplicate_offsets_rejected(self):
        with pytest.raises(ValueError):
            symmetric_grid(1e15, [1e12, 1e12])

    def test_zero_offset_rejected(self):
        with pytest.raises(ValueError):
            symmetric_grid(1e15, [0.0, 1e12])

    def test_odd_order_cancellation_is_exact(self):
        # beta3-only about the expansion point: mirrored pairs cancel exactly
        prof = make_profile((0.0, 0.0, 0.0, 1.7e-40))
        grid = symmetric_grid(W0, [0.6e12, 1.4e12, 2.9e12])
        for n in range(1, 4):
            for m in range(1, 4):
                assert abs(delta_beta_pair(prof, grid, n, m)) < 1e-9

    def test_beta2_only_recentered_gives_zero_mismatch(self):
        # beta2-only re-centered at its (trivial) zero-GVD point means
        # beta2 = 0, so any symmetric grid is perfectly matched
        prof = make_profile((3e6, 1e-9))
        grid = symmetric_grid(find_zgvd(prof), [1e12, 2e12, 3e12])
        rep = nonlinear_mismatch(prof, grid, (1.0, 1.0, 1.0))
        assert np.max(np.abs(rep.delta_k)) < 1e-9
        assert rep.negligible.all()

    def test_quartic_survives(self):
        prof = make_profile((0.0, 0.0, 0.0, 0.0, 2e-54))
        grid = symmetric_grid(W0, [1e12, 3e12])
        assert abs(delta_beta_pair(prof, grid, 2, 1)) > 0.0

    def test_oband_reference_grid_is_negligible(self):
        # weak channels near 1280.6 / 1282.8 / 1285.0 nm around a
        # beta3-dominated zero-GVD point: all flags true
        c = 299792458.0
        lams = (1280.6e-9, 1282.8e-9, 1285.0e-9)
        center = 2 * math.pi * c / 1282.8e-9
        prof = DispersionProfile(
            omega0=center, beta_coeffs=(0.0, 0.0, 0.0, 7e-41),
            gamma=1.8e-3, length=100.0,
        )
        zg = find_zgvd(prof)
        offsets = [zg - 2 * math.pi * c / lam for lam in lams]
        offsets = [o if o != 0 else 2 * math.pi * 1e9 for o in offsets]
        grid = symmetric_grid(zg, offsets)
        rep = nonlinear_mismatch(prof, grid, (0.5, 0.5, 0.5))
        assert rep.negligible.all()
        assert np.max(np.abs(rep.delta_k)) * prof.length < math.pi
