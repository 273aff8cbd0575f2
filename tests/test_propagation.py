"""ODE-oracle tests: pump evolution, weak-field transfer, full FWM sum."""

import math

import numpy as np
import pytest

from hypothesis import given, settings as hyp_settings, strategies as st

from nwaybs.dispersion import (
    DispersionProfile,
    beta_eval,
    delta_beta_pair,
    delta_beta_table,
    nonlinear_mismatch,
    symmetric_grid,
)
from nwaybs import propagation
from nwaybs.propagation import (
    MAP_BLOCK_ENTRIES,
    IntegratorSettings,
    _pump_stages,
    _run_with_richardson,
    _step_grid,
    full_fwm_reference,
    integrate_pumps,
    integrate_weak,
    rk4_integrate,
)
from nwaybs.transfer import (
    PumpConfig,
    general_transfer,
    ideal_transfer,
    lossy_transfer,
    pump_evolution,
    to_lab_frame,
)

W0 = 2 * math.pi * 233e12


def flat_profile(gamma=2e-3, length=100.0, alpha=0.0):
    return DispersionProfile(omega0=W0, beta_coeffs=(0.0,), gamma=gamma,
                             length=length, alpha=alpha)


def settings_for(profile, n_steps=2000):
    return IntegratorSettings(step=profile.length / n_steps)


def joint_weak_reference(profile, grid, pumps, b0, step):
    """Weak fields from one RK4 pass over the joint (pump, weak) state vector."""
    n = grid.n_modes
    gamma, alpha = profile.gamma, profile.alpha
    dbeta = np.zeros((n, n))
    for l in range(n):
        for k in range(n):
            if l != k:
                dbeta[l, k] = delta_beta_pair(profile, grid, l + 1, k + 1)

    def rhs(z, y):
        a, b = y[:n], y[n:]
        powers = np.abs(a) ** 2
        da = (-alpha + 1j * gamma * (powers + 2.0 * (powers.sum() - powers))) * a
        db = (-alpha + 1j * gamma * 2.0 * np.sum(powers)) * b
        phasor = np.exp(1j * dbeta * z)
        coupling = (phasor * np.outer(a * b, np.ones(n))).sum(axis=0) * a.conj()
        coupling -= a * b * a.conj()
        return np.concatenate([da, db + 2j * gamma * coupling])

    y0 = np.concatenate([pumps.amplitudes, b0])
    return rk4_integrate(rhs, y0, profile.length, step)[-1, n:]


def recorded_pump_pass(profile, a0, step):
    """Stage positions and amplitudes of rk4_integrate on the numpy pump equations.

    The vector form of the pump pass, kept as the loop reference for the
    scalar pass in ``propagation``: returns (S, 4) positions, (S, 4, N)
    amplitudes and the (S + 1, N) trajectory.
    """
    gamma, alpha = profile.gamma, profile.alpha
    stage_z, stage_a = [], []

    def rhs(z, a):
        stage_z.append(z)
        stage_a.append(a)
        powers = np.abs(a) ** 2
        xpm = powers + 2.0 * (powers.sum() - powers)
        return (-alpha + 1j * gamma * xpm) * a

    traj = rk4_integrate(rhs, a0, profile.length, step)
    return (np.array(stage_z).reshape(-1, 4),
            np.array(stage_a).reshape(-1, 4, len(a0)), traj)


def unshared_pump_stages(profile, a0, step):
    """The scalar pump pass that records its stages as nested 4-tuples.

    Kept as the bit-for-bit reference for ``propagation._pump_stages``:
    returns the (S, 4) stage positions, formed as Python floats, the
    (S, 4, N) stage amplitudes and the final amplitudes (N,).  Its mixed
    float-complex operations keep the float on the left on purpose: the
    kernel writes each of them complex-first, so the bit-for-bit tests
    also show that the operand order changes no bit.
    """
    loss, i_gamma = -profile.alpha, 1j * profile.gamma

    def rhs(a):
        powers = [x.real * x.real + x.imag * x.imag for x in a]
        twice_total = 2.0 * sum(powers)
        return [(loss + i_gamma * (twice_total - p)) * x for p, x in zip(powers, a)]

    zs = _step_grid(profile.length, step).tolist()
    a = [complex(x) for x in a0]
    stage_z, stage_a = [], []
    for z, z_next in zip(zs, zs[1:]):
        h = z_next - z
        half, sixth = h / 2, h / 6
        k1 = rhs(a)
        a2 = [x + half * k for x, k in zip(a, k1)]
        k2 = rhs(a2)
        a3 = [x + half * k for x, k in zip(a, k2)]
        k3 = rhs(a3)
        a4 = [x + h * k for x, k in zip(a, k3)]
        k4 = rhs(a4)
        stage_z.append((z, z + half, z + half, z + h))
        stage_a.append((a, a2, a3, a4))
        a = [x + sixth * (d1 + 2 * d2 + 2 * d3 + d4)
             for x, d1, d2, d3, d4 in zip(a, k1, k2, k3, k4)]
    return np.array(stage_z), np.array(stage_a, dtype=complex), np.array(a, dtype=complex)


def unshared_weak_increments(z, a, h, dbeta, gamma, alpha):
    """RK4 increment matrices with one phasor evaluation per stage (S, 4)."""
    n = a.shape[-1]
    m = np.exp((1j * dbeta.T) * z[..., None, None])
    m *= a[..., None, :] * a.conj()[..., :, None]
    m *= 2j * gamma
    xpm = 2.0 * np.sum(np.abs(a) ** 2, axis=-1)
    diag = np.arange(n)
    m[..., diag, diag] = (-alpha + 1j * gamma * xpm)[..., None]
    h = h[:, None, None]
    s = m[:, 0]
    total = s.copy()
    s = m[:, 1] + h / 2 * (m[:, 1] @ s)
    total += 2 * s
    s = m[:, 2] + h / 2 * (m[:, 2] @ s)
    total += 2 * s
    s = m[:, 3] + h * (m[:, 3] @ s)
    total += s
    return h / 6 * total


def unshared_integrate_weak(profile, grid, pumps, b0, settings):
    """integrate_weak with four phasors per step and a copying apply loop."""
    n = grid.n_modes
    dbeta = delta_beta_table(profile, grid)
    steps_per_block = max(1, MAP_BLOCK_ENTRIES // (4 * n * n))

    def solve(step):
        h = np.diff(_step_grid(profile.length, step))
        z, a, a_end = unshared_pump_stages(profile, pumps.amplitudes, step)
        b = np.asarray(b0, dtype=complex)
        for start in range(0, len(h), steps_per_block):
            rows = slice(start, start + steps_per_block)
            for d in unshared_weak_increments(z[rows], a[rows], h[rows], dbeta,
                                              profile.gamma, profile.alpha):
                b = b + d @ b
        return b, np.concatenate([a_end, b.ravel()])

    return _run_with_richardson(solve, settings)


def unshared_integrate_pumps(profile, pumps, settings):
    """integrate_pumps on the pump pass that records nested 4-tuples."""
    def solve(step):
        _, a, a_end = unshared_pump_stages(profile, pumps.amplitudes, step)
        return np.concatenate([a[:, 0], a_end[None]]), a_end

    return _run_with_richardson(solve, settings)


def weak_case(kind, n):
    """Profile, grid and pumps for a matched, mismatched, unequal or lossy case."""
    offsets = (1 + np.arange(n)) * 1e12
    rng = np.random.default_rng(n)
    phases = tuple(rng.uniform(0, 2 * math.pi, n))
    if kind == "mismatched":
        prof = DispersionProfile(omega0=W0, beta_coeffs=(0.0, 0.0, 0.0, 1e-40, 1e-55),
                                 gamma=2e-3, length=100.0)
        grid = symmetric_grid(W0 + 2 * math.pi * 0.04e12, offsets)
        pumps = PumpConfig(powers=tuple(rng.uniform(0.2, 0.8, n)), phases=phases)
    else:
        prof = flat_profile(alpha=4.950556e-5 if kind == "lossy" else 0.0)
        grid = symmetric_grid(W0, offsets)
        powers = tuple(rng.uniform(0.2, 0.8, n)) if kind == "unequal" else (0.7,) * n
        pumps = PumpConfig(powers=powers, phases=phases)
    seed = math.sqrt(1e-7 * min(pumps.powers))
    return prof, grid, pumps, seed


class TestRK4:
    def test_exponential_decay_accuracy(self):
        traj = rk4_integrate(lambda z, y: -y, np.array([1.0 + 0j]), 1.0, 0.01)
        assert abs(traj[-1, 0] - math.exp(-1)) < 1e-9

    def test_convergence_order(self):
        # halving the step should cut the error by ~16x for RK4
        def rhs(z, y):
            return 1j * np.cos(z) * y

        exact = np.exp(1j * math.sin(2.0))
        errs = []
        for step in (0.02, 0.01):
            traj = rk4_integrate(rhs, np.array([1.0 + 0j]), 2.0, step)
            errs.append(abs(traj[-1, 0] - exact))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.8

    def test_step_validation(self):
        with pytest.raises(ValueError):
            IntegratorSettings(step=-1.0).validate(100.0)
        with pytest.raises(ValueError):
            IntegratorSettings(step=10.0).validate(100.0)  # > L/100

    @pytest.mark.parametrize("field, value", [
        ("step", float("nan")),
        ("step", float("inf")),
        ("richardson_tol", float("nan")),
        ("richardson_tol", float("inf")),
        ("richardson_tol", -1e-8),
    ])
    def test_non_finite_or_negative_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            IntegratorSettings(**{"step": 1.0, field: value}).validate(100.0)

    def test_nan_tolerance_does_not_switch_the_check_off(self):
        # the default tolerance rejects this step; a NaN or infinite one must
        # not pass it (richardson_check=False is the one way to skip the check)
        prof = flat_profile(gamma=0.05, length=100.0)
        pumps = PumpConfig(powers=(1.0, 1.0, 1.0))
        with pytest.raises(RuntimeError, match="discrepancy"):
            integrate_pumps(prof, pumps, IntegratorSettings(step=1.0))
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="richardson_tol"):
                integrate_pumps(prof, pumps, IntegratorSettings(step=1.0, richardson_tol=tol))

    def test_richardson_catches_coarse_step(self):
        # a rapidly oscillating system at the coarsest legal step trips
        # the half-step discrepancy check
        prof = flat_profile(gamma=1.0, length=100.0)
        pumps = PumpConfig(powers=(1.0, 1.0, 1.0))
        coarse = IntegratorSettings(step=1.0, richardson_tol=1e-14)
        with pytest.raises(RuntimeError, match="discrepancy"):
            integrate_pumps(prof, pumps, coarse)

    def test_failure_names_tolerance_scale_and_step(self):
        # the half step moves the final state by 3e-7 against 1e-8 x max(1, 3)
        def solve(step):
            return None, np.array([3.0 + (3e-7 if step < 0.2 else 0.0), -1.0])

        with pytest.raises(RuntimeError) as err:
            _run_with_richardson(solve, IntegratorSettings(step=0.2))
        assert str(err.value) == ("step-halving discrepancy 3.000e-07 exceeds tolerance 1e-08 "
                                  "× scale 3 at step 0.2 m; reduce step")


class TestIntegratePumps:
    def test_free_propagation(self):
        prof = flat_profile(gamma=0.0)
        pumps = PumpConfig(powers=(0.5, 0.8))
        traj = integrate_pumps(prof, pumps, settings_for(prof))
        assert np.allclose(traj[-1], pumps.amplitudes, atol=1e-12)

    def test_lossless_matches_closed_form(self):
        prof = flat_profile()
        pumps = PumpConfig(powers=(0.5, 0.8, 0.2), phases=(0.1, 1.0, 2.0))
        traj = integrate_pumps(prof, pumps, settings_for(prof))
        expected = pump_evolution(pumps, prof, prof.length)
        assert np.max(np.abs(traj[-1] - expected)) < 1e-9

    def test_lossless_power_conserved_along_trajectory(self):
        prof = flat_profile()
        pumps = PumpConfig(powers=(0.5, 0.8, 0.2))
        traj = integrate_pumps(prof, pumps, settings_for(prof))
        assert np.max(np.abs(np.abs(traj) ** 2 - np.asarray(pumps.powers))) < 1e-9

    def test_lossy_matches_closed_form(self):
        prof = flat_profile(alpha=2e-4)
        P = 0.6
        pumps = PumpConfig(powers=(P, P, P))
        traj = integrate_pumps(prof, pumps, settings_for(prof))
        expected = pump_evolution(pumps, prof, prof.length)
        assert np.max(np.abs(traj[-1] - expected)) < 1e-9


PUMP_CASES = {
    "n1": (PumpConfig(powers=(0.7,)), 0.0),
    "n2-unequal": (PumpConfig(powers=(0.6, 0.3), phases=(0.4, 2.0)), 0.0),
    "n3-lossy": (PumpConfig(powers=(0.7, 0.7, 0.7), phases=(0.1, 1.0, 2.0)), 4.950556e-5),
    "n3-one-off": (PumpConfig(powers=(0.5, 0.0, 0.5)), 0.0),
    "n8-unequal-lossy": (PumpConfig(powers=tuple(np.linspace(0.1, 0.9, 8)),
                                    phases=tuple(np.linspace(0.0, 3.0, 8))), 2e-4),
    "n12-unequal-lossy": (PumpConfig(powers=tuple(np.linspace(0.2, 0.8, 12)),
                                     phases=tuple(np.linspace(0.0, 5.0, 12))), 1e-4),
    "n16": (PumpConfig(powers=(0.4,) * 16, phases=tuple(np.linspace(0.0, 6.0, 16))), 0.0),
}


class TestScalarPumpPass:
    """The scalar pump pass against the numpy pass run through rk4_integrate."""

    @staticmethod
    def rel_err(got, ref):
        return np.max(np.abs(got - ref)) / np.max(np.abs(ref))

    @pytest.mark.parametrize("case", list(PUMP_CASES))
    def test_matches_vector_pass(self, case):
        pumps, alpha = PUMP_CASES[case]
        prof = flat_profile(alpha=alpha)
        step = prof.length / 200
        grid = _step_grid(prof.length, step)
        h = np.diff(grid)
        a, a_end = _pump_stages(prof, pumps.amplitudes, h)
        ref_z, ref_a, ref_traj = recorded_pump_pass(prof, pumps.amplitudes, step)
        assert a.shape == (200, 4, pumps.n_modes)
        # the stage positions as integrate_weak forms them from the step grid
        mid = grid[:-1] + h / 2
        assert np.array_equal(np.stack([grid[:-1], mid, mid, grid[1:]], axis=1), ref_z)
        assert self.rel_err(a, ref_a) < 1e-13
        assert self.rel_err(a_end, ref_traj[-1]) < 1e-13

    @pytest.mark.parametrize("case", list(PUMP_CASES))
    def test_integrate_pumps_trajectory(self, case):
        pumps, alpha = PUMP_CASES[case]
        prof = flat_profile(alpha=alpha)
        settings = settings_for(prof, 200)
        traj = integrate_pumps(prof, pumps, settings)
        ref = recorded_pump_pass(prof, pumps.amplitudes, settings.step)[2]
        assert traj.shape == ref.shape
        assert self.rel_err(traj, ref) < 1e-13


class TestIntegrateWeak:
    def test_zero_pumps_leave_weak_unchanged(self):
        prof = flat_profile()
        grid = symmetric_grid(W0, [1e12, 2e12, 3e12])
        pumps = PumpConfig(powers=(0.0, 0.0, 0.0))
        b0 = np.array([1e-6, 0, 0], dtype=complex)
        out = integrate_weak(prof, grid, pumps, b0, settings_for(prof))
        assert np.allclose(out, b0, atol=1e-15)

    def test_undepleted_guard(self):
        prof = flat_profile()
        grid = symmetric_grid(W0, [1e12, 2e12, 3e12])
        pumps = PumpConfig(powers=(0.5, 0.5, 0.5))
        b0 = np.array([0.1, 0, 0], dtype=complex)  # far above 1e-6 ratio
        with pytest.raises(ValueError, match="undepleted"):
            integrate_weak(prof, grid, pumps, b0, settings_for(prof))

    def test_matches_ideal_transfer(self):
        prof = flat_profile()
        grid = symmetric_grid(W0, [1e12, 2e12, 3e12])
        P = 0.7
        pumps = PumpConfig(powers=(P, P, P))
        tm = general_transfer(prof, pumps, absorb_global_phase=False)
        lab = to_lab_frame(tm.entries, prof, grid, pumps, prof.length)
        seed = math.sqrt(1e-7 * P)
        for k in range(3):
            b0 = np.zeros(3, dtype=complex)
            b0[k] = seed
            out = integrate_weak(prof, grid, pumps, b0, settings_for(prof))
            assert np.max(np.abs(out - lab @ b0)) / seed < 1e-6

    def test_intensities_match_ideal_regardless_of_frame(self):
        prof = flat_profile()
        grid = symmetric_grid(W0, [1e12, 2e12, 3e12])
        P = 0.4
        pumps = PumpConfig(powers=(P, P, P))
        seed = math.sqrt(1e-7 * P)
        b0 = np.array([seed, 0, 0], dtype=complex)
        out = integrate_weak(prof, grid, pumps, b0, settings_for(prof))
        ideal = ideal_transfer(3, 2 * prof.gamma * prof.length * P)
        assert np.max(np.abs(np.abs(out / seed) ** 2
                             - np.abs(ideal.entries[:, 0]) ** 2)) < 1e-9

    def test_photon_flux_conserved(self):
        prof = flat_profile()
        grid = symmetric_grid(W0, [1e12, 2e12, 3e12])
        pumps = PumpConfig(powers=(0.5, 0.3, 0.8))
        b0 = np.array([3e-4, 2e-4j, -1e-4], dtype=complex)
        out = integrate_weak(prof, grid, pumps, b0, settings_for(prof))
        before = np.sum(np.abs(b0) ** 2)
        after = np.sum(np.abs(out) ** 2)
        assert abs(after - before) / before < 1e-9

    def test_detuned_two_mode_conversion(self):
        prof = DispersionProfile(omega0=W0, beta_coeffs=(0.0, 0.0, 0.0, 1e-40),
                                 gamma=2e-3, length=100.0)
        grid = symmetric_grid(W0, [2 * math.pi * 0.4e12, 2 * math.pi * 1.1e12])
        pumps = PumpConfig(powers=(0.6, 0.3))
        rep = nonlinear_mismatch(prof, grid, pumps.powers)
        seed = math.sqrt(1e-7 * 0.3)
        b0 = np.array([seed, 0], dtype=complex)
        out = integrate_weak(prof, grid, pumps, b0, settings_for(prof))
        c = 2 * prof.gamma * math.sqrt(0.6 * 0.3)
        g = math.sqrt((rep.delta_k[1] / 2) ** 2 + c**2)
        expected = (c / g) ** 2 * math.sin(g * prof.length) ** 2
        assert abs(out[1] / seed) ** 2 == pytest.approx(expected, rel=1e-6)

    def test_lossy_matches_closed_form(self):
        prof = flat_profile(alpha=4.950556e-5)
        grid = symmetric_grid(W0, [1e12, 2e12, 3e12])
        P = 0.7
        pumps = PumpConfig(powers=(P, P, P))
        tm = lossy_transfer(prof, pumps)
        seed = math.sqrt(1e-7 * P)
        for k in range(3):
            b0 = np.zeros(3, dtype=complex)
            b0[k] = seed
            out = integrate_weak(prof, grid, pumps, b0, settings_for(prof))
            assert np.max(np.abs(out - tm.entries @ b0)) / seed < 1e-9


class TestWeakMapsMatchJointRK4:
    @pytest.mark.parametrize("richardson", [True, False])
    @pytest.mark.parametrize("kind", ["matched", "mismatched", "lossy"])
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_matches_joint_integration(self, n, kind, richardson):
        prof, grid, pumps, seed = weak_case(kind, n)
        rng = np.random.default_rng(100 + n)
        b0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        b0 *= seed / np.max(np.abs(b0))
        settings = IntegratorSettings(step=prof.length / 200, richardson_check=richardson)
        out = integrate_weak(prof, grid, pumps, b0, settings)
        ref = joint_weak_reference(prof, grid, pumps, b0, settings.step)
        assert out.shape == (n,)
        assert np.max(np.abs(out - ref)) / seed < 1e-13

    @pytest.mark.parametrize("kind", ["matched", "mismatched", "lossy"])
    def test_seed_block_equals_single_columns(self, kind):
        n, k = 5, 3
        prof, grid, pumps, seed = weak_case(kind, n)
        rng = np.random.default_rng(7)
        block = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        block *= seed / np.max(np.abs(block))
        settings = IntegratorSettings(step=prof.length / 200)
        out = integrate_weak(prof, grid, pumps, block, settings)
        assert out.shape == (n, k)
        for j in range(k):
            col = integrate_weak(prof, grid, pumps, block[:, j], settings)
            assert np.max(np.abs(out[:, j] - col)) / seed < 1e-13

    def test_identity_block_gives_lab_transfer(self):
        prof, grid, pumps, seed = weak_case("matched", 3)
        out = integrate_weak(prof, grid, pumps, seed * np.eye(3), settings_for(prof))
        tm = general_transfer(prof, pumps, absorb_global_phase=False)
        lab = to_lab_frame(tm.entries, prof, grid, pumps, prof.length)
        assert np.max(np.abs(out / seed - lab)) < 1e-6

    def test_seed_shape_checked(self):
        prof, grid, pumps, seed = weak_case("matched", 3)
        with pytest.raises(ValueError, match="dimension"):
            integrate_weak(prof, grid, pumps, np.zeros((4, 2)), settings_for(prof))
        with pytest.raises(ValueError, match="dimension"):
            integrate_weak(prof, grid, pumps, np.zeros((3, 2, 1)), settings_for(prof))


class TestBitIdenticalToUnsharedPass:
    """Shared phasors, the flat stage array and in-place steps change no bit."""

    @pytest.mark.parametrize("kind", ["matched", "mismatched", "unequal", "lossy"])
    # N = 12 and 16 carry up to 11 W of pumps: L/200 would fail the Richardson check
    @pytest.mark.parametrize("n, divisions", [pytest.param(n, 200 if n <= 8 else 500, id=str(n))
                                              for n in [*range(2, 9), 12, 16]])
    def test_integrate_weak(self, n, divisions, kind):
        prof, grid, pumps, seed = weak_case(kind, n)
        rng = np.random.default_rng(200 + n)
        block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        block *= seed / np.max(np.abs(block))
        # one seed with the Richardson check at a step dividing L, and a block
        # without it at a step that does not divide L
        for b0, step, richardson in ((block[:, 0], prof.length / divisions, True),
                                     (block, prof.length / 107.3, False)):
            settings = IntegratorSettings(step=step, richardson_check=richardson)
            out = integrate_weak(prof, grid, pumps, b0, settings)
            ref = unshared_integrate_weak(prof, grid, pumps, b0, settings)
            assert out.shape == b0.shape
            assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("powers, alpha", [
        ((0.0, 0.7, 0.7), 0.0),
        ((0.0, 0.7, 0.7), 4.950556e-5),
        ((0.0, 0.0, 0.0), 0.0),
        ((0.0, 0.0, 0.0, 0.0), 2e-4),
    ], ids=["one-off", "one-off-lossy", "all-off", "all-off-lossy"])
    def test_integrate_weak_with_pumps_off(self, powers, alpha):
        # a flat profile takes no unit phasors; a pump at zero power leaves
        # exact zeros in the stage matrices, and the seeds carry signed zeros
        n = len(powers)
        prof = flat_profile(alpha=alpha)
        grid = symmetric_grid(W0, (1 + np.arange(n)) * 1e12)
        pumps = PumpConfig(powers=powers, phases=tuple(np.linspace(0.5, 4.0, n)))
        rng = np.random.default_rng(300 + n)
        block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        block *= math.sqrt(1e-7 * 0.7) / np.max(np.abs(block))
        block[1, 0] = complex(-0.0, -0.0)
        block[2, 1] = complex(0.0, -0.0)
        for b0, step, richardson in ((block[:, 0], prof.length / 200, True),
                                     (block, prof.length / 107.3, False)):
            settings = IntegratorSettings(step=step, richardson_check=richardson)
            out = integrate_weak(prof, grid, pumps, b0, settings)
            ref = unshared_integrate_weak(prof, grid, pumps, b0, settings)
            assert out.tobytes() == ref.tobytes()

    def test_diverging_flat_pass_raises_the_same_message(self):
        prof = flat_profile(gamma=50.0, length=100.0)
        grid = symmetric_grid(W0, [1e12, 2e12, 3e12])
        pumps = PumpConfig(powers=(1.0, 1.0, 1.0), phases=(0.0, 1.0, 2.0))
        b0 = np.array([1e-4, 0.0, 0.0], dtype=complex)
        settings = IntegratorSettings(step=1.0)
        with pytest.raises(RuntimeError, match="discrepancy nan") as got:
            integrate_weak(prof, grid, pumps, b0, settings)
        with pytest.raises(RuntimeError) as ref:
            unshared_integrate_weak(prof, grid, pumps, b0, settings)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("richardson", [True, False])
    @pytest.mark.parametrize("case", list(PUMP_CASES))
    def test_integrate_pumps(self, case, richardson):
        pumps, alpha = PUMP_CASES[case]
        prof = flat_profile(alpha=alpha)
        settings = IntegratorSettings(step=prof.length / 211.7, richardson_check=richardson)
        out = integrate_pumps(prof, pumps, settings)
        ref = unshared_integrate_pumps(prof, pumps, settings)
        assert out.tobytes() == ref.tobytes()

    def test_coarse_step_raises_the_same_message(self):
        prof = flat_profile(gamma=1.0, length=100.0)
        pumps = PumpConfig(powers=(1.0, 1.0, 1.0))
        coarse = IntegratorSettings(step=1.0, richardson_tol=1e-14)
        with pytest.raises(RuntimeError, match="discrepancy") as got:
            integrate_pumps(prof, pumps, coarse)
        with pytest.raises(RuntimeError) as ref:
            unshared_integrate_pumps(prof, pumps, coarse)
        assert str(got.value) == str(ref.value)

        prof, grid, pumps, seed = weak_case("mismatched", 4)
        b0 = np.full(4, seed, dtype=complex)
        coarse = IntegratorSettings(step=prof.length / 100, richardson_tol=1e-14)
        with pytest.raises(RuntimeError, match="discrepancy") as got:
            integrate_weak(prof, grid, pumps, b0, coarse)
        with pytest.raises(RuntimeError) as ref:
            unshared_integrate_weak(prof, grid, pumps, b0, coarse)
        assert str(got.value) == str(ref.value)


class TestPumpStagesBitIdentical:
    """The pump pass with one loop per stage and a running RK4 sum carries
    the bits of the pass with four slope calls and a five-way update."""

    @staticmethod
    def assert_same_bits(profile, a0, step):
        a, a_end = _pump_stages(profile, a0, np.diff(_step_grid(profile.length, step)))
        _, ref, ref_end = unshared_pump_stages(profile, a0, step)
        assert a.shape == ref.shape
        assert a.tobytes() == ref.tobytes()
        assert a_end.tobytes() == ref_end.tobytes()
        return a

    @hyp_settings(max_examples=60, deadline=None)
    @given(data=st.data(),
           n=st.one_of(st.integers(1, 8), st.sampled_from([12, 16])),
           alpha=st.one_of(st.just(0.0), st.floats(1e-6, 1e-2)),
           gamma=st.one_of(st.floats(0.0, 1e-2), st.floats(1.0, 50.0)),
           length=st.floats(1.0, 1000.0),
           divisor=st.one_of(st.integers(100, 300), st.floats(100.0, 300.0)))
    def test_matches_unshared_pass(self, data, n, alpha, gamma, length, divisor):
        powers = data.draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        phases = data.draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n))
        prof = flat_profile(gamma=gamma, length=length, alpha=alpha)
        a0 = PumpConfig(powers=tuple(powers), phases=tuple(phases)).amplitudes
        self.assert_same_bits(prof, a0, length / divisor)

    @pytest.mark.parametrize("n", [1, 3, 8, 16])
    def test_diverging_pass_carries_the_same_non_finite_bits(self, n):
        prof = flat_profile(gamma=50.0, length=100.0, alpha=2e-4)
        a0 = PumpConfig(powers=(1.0,) * n, phases=tuple(np.linspace(0.0, 3.0, n))).amplitudes
        a = self.assert_same_bits(prof, a0, 1.0)
        assert not np.all(np.isfinite(a))

    def test_kernel_is_built_once_per_pump_count(self, monkeypatch):
        built = []
        source = propagation._pump_kernel_source
        monkeypatch.setattr(propagation, "_pump_kernel_source",
                            lambda n: built.append(n) or source(n))
        monkeypatch.delitem(propagation._PUMP_KERNELS, 11, raising=False)
        prof = flat_profile()
        a0 = PumpConfig(powers=(0.5,) * 11).amplitudes
        h = np.diff(_step_grid(prof.length, prof.length / 100))
        first = _pump_stages(prof, a0, h)
        kernel = propagation._PUMP_KERNELS[11]
        second = _pump_stages(prof, a0, h)
        assert built == [11]
        assert propagation._pump_kernel(11) is kernel
        assert all(x.tobytes() == y.tobytes() for x, y in zip(first, second))


@hyp_settings(max_examples=200, deadline=None)
@given(length=st.floats(1e-3, 1e4),
       steps=st.one_of(st.integers(100, 100_000), st.floats(100.0, 1e5)))
def test_grid_point_plus_step_is_next_grid_point(length, steps):
    """z + h lands exactly on the next grid point, so RK4 stage 4 of a step
    and stage 1 of the next share one phasor (Sterbenz: h = z_next - z is
    exact)."""
    z = _step_grid(length, length / steps)
    assert np.array_equal(z[:-1] + np.diff(z), z[1:])


def full_fwm_with_np_outer(profile, freqs, initial_amps, settings):
    """``full_fwm_reference`` with right-hand sides that form the triple product
    with two ``np.outer`` calls: the bit reference of the ufunc form."""
    w = np.asarray(freqs, dtype=float)
    a0 = np.asarray(initial_amps, dtype=complex)
    nf = len(w)
    beta = beta_eval(profile, w)
    wn, wk, wl, wm = np.ix_(w, w, w, w)
    closure = np.where(np.abs(wk + wl - wm - wn) <= 1e-9 * np.max(np.abs(w)),
                       1j * profile.gamma, 0j).reshape(nf, nf**3)
    alpha = profile.alpha

    if beta.any():
        def rhs(z, a):
            phasor = np.exp(1j * beta * z)
            r = a * phasor
            fwm = closure @ np.outer(np.outer(r, r), r.conj()).ravel()
            return fwm * phasor.conj() - alpha * a
    else:
        def rhs(z, a):
            return closure @ np.outer(np.outer(a, a), a.conj()).ravel() - alpha * a

    def solve(step):
        final = rk4_integrate(rhs, a0, profile.length, step)[-1]
        return final, final

    return _run_with_richardson(solve, settings)


class TestFullFwmReference:
    @pytest.mark.parametrize("beta_coeffs,alpha", [((0.0,), 0.0), ((0.0, 0.0, 1e-27, 1e-40), 0.0),
                                                   ((0.0, 0.0, 1e-27, 1e-40), 3e-4)],
                             ids=["flat", "dispersive", "lossy"])
    def test_bit_identical_to_np_outer_form(self, beta_coeffs, alpha):
        # three pumps and three weak fields, the verify shape, with the Richardson check on
        prof = DispersionProfile(omega0=W0, beta_coeffs=beta_coeffs, gamma=2e-3,
                                 length=100.0, alpha=alpha)
        grid = symmetric_grid(W0, (1.3e12, 2.9e12, 4.1e12))
        freqs = list(grid.pump_freqs) + list(grid.weak_freqs)
        rng = np.random.default_rng(7)
        amps = np.concatenate([PumpConfig(powers=(0.4, 0.5, 0.3), phases=(0.0, 1.0, 2.5)).amplitudes,
                               4e-4 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))])
        settings = settings_for(prof, 100)
        assert settings.richardson_check
        out = full_fwm_reference(prof, freqs, amps, settings)
        assert out.tobytes() == full_fwm_with_np_outer(prof, freqs, amps, settings).tobytes()

    def test_single_field_self_phase(self):
        prof = flat_profile()
        a0 = np.array([0.5 + 0.1j])
        out = full_fwm_reference(prof, [W0], a0, settings_for(prof))
        expected = a0 * np.exp(1j * prof.gamma * abs(a0[0]) ** 2 * prof.length)
        assert np.allclose(out, expected, atol=1e-9)

    def test_agrees_with_linearized_at_minus_60db(self):
        prof = flat_profile(length=100.0)
        grid = symmetric_grid(W0, [1e12, 2.5e12])
        pumps = PumpConfig(powers=(0.4, 0.4))
        seed = math.sqrt(1e-6 * 0.4)
        b0 = np.array([seed, 0], dtype=complex)
        lin = integrate_weak(prof, grid, pumps, b0, settings_for(prof))
        freqs = list(grid.pump_freqs) + list(grid.weak_freqs)
        amps = np.concatenate([pumps.amplitudes, b0])
        full = full_fwm_reference(prof, freqs, amps, settings_for(prof, 4000))
        assert np.max(np.abs(full[2:] - lin)) / seed < 1e-5

    def test_depletion_grows_with_seed_power(self):
        prof = flat_profile(length=100.0)
        grid = symmetric_grid(W0, [1e12, 2.5e12])
        pumps = PumpConfig(powers=(0.4, 0.4))
        freqs = list(grid.pump_freqs) + list(grid.weak_freqs)
        discreps = []
        for ratio in (1e-6, 1e-2):
            seed = math.sqrt(ratio * 0.4)
            b0 = np.array([seed, 0], dtype=complex)
            # bypass the guard via direct full-sum integration at both powers
            amps = np.concatenate([pumps.amplitudes, b0])
            full = full_fwm_reference(prof, freqs, amps, settings_for(prof, 4000))
            ideal = ideal_transfer(2, 2 * prof.gamma * prof.length * 0.4)
            pred = np.abs(ideal.entries[:, 0]) ** 2
            got = np.abs(full[2:] / seed) ** 2
            discreps.append(np.max(np.abs(got - pred)))
        assert discreps[1] > 100 * discreps[0]

    def test_field_cap(self):
        prof = flat_profile()
        with pytest.raises(ValueError, match="8 fields"):
            full_fwm_reference(prof, np.linspace(1e15, 2e15, 9),
                               np.ones(9, dtype=complex), settings_for(prof))

    def test_amplitude_count_must_match(self):
        prof = flat_profile()
        with pytest.raises(ValueError, match="^freqs and initial_amps must have equal length$"):
            full_fwm_reference(prof, [1e15, 1.37e15], np.array([0.1], dtype=complex),
                               settings_for(prof))

    def test_no_closure_raises(self):
        prof = flat_profile()
        # irrational-ratio frequencies: the only closures are trivial ones,
        # which always exist (k=m, l=n), so craft a passing sanity check
        out = full_fwm_reference(prof, [1e15, 1.37e15],
                                 np.array([0.1, 0.2], dtype=complex),
                                 settings_for(prof))
        assert out.shape == (2,)

    def test_matches_per_term_sum(self):
        self.assert_matches_per_term_sum((0.0, 0.0, 1e-27, 1e-40))

    # a flat profile takes no phasors; a linear beta has phasors whose
    # product over every closure is 1
    @pytest.mark.parametrize("beta_coeffs", [(0.0,), (1.0, 1e-13)], ids=["flat", "linear-beta"])
    def test_matches_per_term_sum_without_net_phase(self, beta_coeffs):
        self.assert_matches_per_term_sum(beta_coeffs)

    @staticmethod
    def assert_matches_per_term_sum(beta_coeffs):
        prof = DispersionProfile(omega0=W0, beta_coeffs=beta_coeffs,
                                 gamma=2e-3, length=100.0, alpha=3e-5)
        grid = symmetric_grid(W0, [1e12, 2e12, 3e12])
        freqs = np.array(list(grid.pump_freqs) + list(grid.weak_freqs))
        rng = np.random.default_rng(3)
        amps = np.concatenate([np.sqrt([0.5, 0.3, 0.6]) + 0j,
                               1e-3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))])
        beta = np.array([beta_eval(prof, w) for w in freqs])
        scale = np.max(np.abs(freqs))
        terms = [[] for _ in freqs]
        for n in range(6):
            for k in range(6):
                for l in range(6):
                    for m in range(6):
                        if abs(freqs[k] + freqs[l] - freqs[m] - freqs[n]) <= 1e-9 * scale:
                            terms[n].append((k, l, m, beta[k] + beta[l] - beta[m] - beta[n]))

        def rhs(z, a):
            da = np.zeros(6, dtype=complex)
            for n in range(6):
                acc = 0.0 + 0.0j
                for k, l, m, db in terms[n]:
                    acc += np.exp(1j * db * z) * a[k] * a[l] * a[m].conjugate()
                da[n] = 1j * prof.gamma * acc - prof.alpha * a[n]
            return da

        settings = IntegratorSettings(step=prof.length / 200)
        out = full_fwm_reference(prof, freqs, amps, settings)
        ref = rk4_integrate(rhs, amps, prof.length, settings.step)[-1]
        assert np.max(np.abs(out - ref)) < 1e-13
