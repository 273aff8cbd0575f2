"""Transfer-matrix tests: closed forms, matrix exponential, and loss."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nwaybs.dispersion import DispersionProfile, nonlinear_mismatch, symmetric_grid
from nwaybs.transfer import (
    PumpConfig,
    TransferMatrix,
    general_transfer,
    ideal_rows,
    ideal_transfer,
    loss_reduced_phase,
    lossy_transfer,
    p_coeff,
    pump_evolution,
    q_coeff,
    sinhc,
)

W0 = 2 * math.pi * 233e12


def flat_profile(gamma=2e-3, length=100.0, alpha=0.0):
    """Dispersionless profile: mismatch is exactly zero for any grid."""
    return DispersionProfile(omega0=W0, beta_coeffs=(0.0,), gamma=gamma,
                             length=length, alpha=alpha)


class TestCoefficients:
    def test_q_period(self):
        for n in (2, 3, 5):
            assert q_coeff(n, 0.3 + 2 * math.pi / n) == pytest.approx(
                q_coeff(n, 0.3), abs=1e-12
            )

    def test_q_zero(self):
        assert q_coeff(3, 0.0) == 0.0
        assert p_coeff(3, 0.0) == 1.0

    def test_unitarity_identity(self):
        # |p|^2 + (N-1)|q|^2 = 1 for every phi
        for n in (2, 3, 4, 7):
            for phi in np.linspace(0, 4 * math.pi, 33):
                total = abs(p_coeff(n, phi)) ** 2 + (n - 1) * abs(q_coeff(n, phi)) ** 2
                assert total == pytest.approx(1.0, abs=1e-12)


class TestIdealTransfer:
    def test_identity_at_zero(self):
        u = ideal_transfer(3, 0.0).entries
        assert np.allclose(u, np.eye(3), atol=1e-15)

    def test_tritter(self):
        u = ideal_transfer(3, 2 * math.pi / 9).entries
        assert np.max(np.abs(np.abs(u) ** 2 - 1.0 / 3.0)) < 1e-12

    def test_maximum_depletion(self):
        u = ideal_transfer(3, math.pi / 3).entries
        assert abs(u[0, 0]) ** 2 == pytest.approx(1 / 9, abs=1e-12)
        assert abs(u[1, 0]) ** 2 == pytest.approx(4 / 9, abs=1e-12)

    def test_n2_balanced(self):
        u = ideal_transfer(2, math.pi / 4).entries
        assert abs(u[0, 0]) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(u[0, 1]) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            ideal_transfer(1, 0.3)

    @given(st.integers(2, 16), st.floats(0, 4 * math.pi, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_unitarity_property(self, n, phi):
        tm = ideal_transfer(n, phi)
        assert tm.unitarity_residual() < 1e-12

    @given(st.integers(2, 9), st.floats(0, 2 * math.pi, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_periodicity_property(self, n, phi):
        a = ideal_transfer(n, phi).entries
        b = ideal_transfer(n, phi + 2 * math.pi / n).entries
        assert np.max(np.abs(a - b)) < 1e-12

    def test_entry_symmetry(self):
        u = ideal_transfer(5, 0.83).entries
        diag = np.diag(u)
        assert np.max(np.abs(diag - diag[0])) < 1e-15
        off = u[~np.eye(5, dtype=bool)]
        assert np.max(np.abs(off - off[0])) < 1e-15

    def test_row_normalization(self):
        u = ideal_transfer(4, 1.234).entries
        assert np.abs((np.abs(u) ** 2).sum(axis=1) - 1).max() < 1e-12


class TestTransferStack:
    PHIS = np.linspace(-1.0, 4 * math.pi, 257)

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_stack_entries_bitwise_equal_per_phase(self, n):
        stack = ideal_transfer(n, self.PHIS)
        assert stack.entries.shape == (len(self.PHIS), n, n)
        assert stack.n_modes == n
        assert np.array_equal(stack.phi, self.PHIS)
        for k, phi in enumerate(self.PHIS):
            assert stack.entries[k].tobytes() == ideal_transfer(n, phi).entries.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    def test_stack_unitarity_residual(self, n):
        assert ideal_transfer(n, self.PHIS).unitarity_residual() <= 1e-14

    def test_scalar_phase_gives_one_matrix(self):
        tm = ideal_transfer(3, 0.4)
        assert tm.entries.shape == (3, 3) and isinstance(tm.phi, float)
        assert ideal_transfer(3, np.zeros((2, 5))).entries.shape == (2, 5, 3, 3)

    def test_residual_sees_every_matrix_in_stack(self):
        entries = ideal_transfer(3, self.PHIS).entries.copy()
        entries[100, 1, 2] += 1e-6
        assert TransferMatrix(entries=entries, phi=self.PHIS).unitarity_residual() > 1e-7


class TestIdealColumns:
    """Any subset of the ideal transfer's columns, as ``ideal_rows`` builds them."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_columns_equal_the_full_matrix(self, data):
        n = data.draw(st.integers(2, 16))
        # any subset of the columns, in any order
        cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        lo = data.draw(st.floats(-1.0, 1.0))
        phis = np.linspace(lo, lo + data.draw(st.floats(0.5, 8.0)), data.draw(st.integers(1, 40)))
        for phi in (phis[0], phis):
            rows, row_map = ideal_rows(n, phi, cols)
            c = rows[..., row_map, :]
            assert c.shape == np.shape(phi) + (n, len(cols))
            assert np.array_equal(c, ideal_transfer(n, phi).entries[..., :, cols])
            # p_N in row cols[r] of column r, q_N everywhere else
            p, q = (np.asarray(f(n, phi))[..., np.newaxis, np.newaxis] for f in (p_coeff, q_coeff))
            assert np.array_equal(c, np.where(np.equal.outer(np.arange(n), cols), p, q))

    def test_all_columns_are_the_transfer(self):
        phis = np.linspace(-1.0, 4 * math.pi, 33)
        for n in (2, 3, 16):
            stack = ideal_transfer(n, phis).entries
            assert stack.flags.c_contiguous
            rows, row_map = ideal_rows(n, phis, range(n))
            assert row_map == tuple(range(n))
            assert stack.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("cols", [[3], [0, 3], [-1]])
    def test_column_out_of_range(self, cols):
        with pytest.raises(ValueError, match=r"column indices must lie in \[0, 3\)"):
            ideal_rows(3, 0.2, cols)

    def test_needs_two_modes(self):
        with pytest.raises(ValueError, match="need at least 2 modes"):
            ideal_rows(1, 0.2, [0])


class TestIdealRows:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_expand_to_the_columns(self, data):
        n = data.draw(st.integers(2, 16))
        cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        lo = data.draw(st.floats(-1.0, 1.0))
        phis = np.linspace(lo, lo + data.draw(st.floats(0.5, 8.0)), data.draw(st.integers(1, 40)))
        for phi in (phis[0], phis):
            rows, row_map = ideal_rows(n, phi, cols)
            full = ideal_transfer(n, phi).entries[..., :, cols]
            distinct = min(n, len(cols) + 1)
            assert rows.shape == np.shape(phi) + (distinct, len(cols))
            assert np.ascontiguousarray(rows[..., row_map, :]).tobytes() == (
                np.ascontiguousarray(full).tobytes())
            # numbered in order of first channel; one contiguous block per column
            assert [row_map.index(r) for r in range(distinct)] == sorted(
                row_map.index(r) for r in range(distinct))
            assert all(rows[..., r].flags.c_contiguous for r in range(len(cols)))
            per_column = np.moveaxis(np.empty((len(cols),) + rows.shape[:-1], complex), 0, -1)
            assert rows.strides == per_column.strides
            if distinct == n:
                assert row_map == tuple(range(n))
                assert rows.tobytes() == full.tobytes()

    def test_shared_row_sits_at_the_first_other_channel(self):
        rows, row_map = ideal_rows(8, 0.3, [4, 0])
        assert row_map == (0, 1, 1, 1, 2, 1, 1, 1)
        assert rows[1].tolist() == [q_coeff(8, 0.3)] * 2

    @pytest.mark.parametrize("n,cols", [(1, [0]), (3, [3]), (3, [0, -1])])
    def test_invalid_columns(self, n, cols):
        with pytest.raises(ValueError):
            ideal_rows(n, 0.2, cols)


class TestGeneralTransfer:
    def test_reduces_to_ideal(self):
        prof = flat_profile()
        P = 0.8
        pumps = PumpConfig(powers=(P, P, P))
        tm = general_transfer(prof, pumps)
        ideal = ideal_transfer(3, 2 * prof.gamma * prof.length * P)
        assert np.max(np.abs(tm.entries - ideal.entries)) < 1e-12

    def test_n2_beamsplitter_angle(self):
        prof = flat_profile()
        pumps = PumpConfig(powers=(0.5, 0.2))
        tm = general_transfer(prof, pumps, absorb_global_phase=False)
        theta = 2 * prof.gamma * prof.length * math.sqrt(0.5 * 0.2)
        assert abs(tm.entries[0, 0]) == pytest.approx(abs(math.cos(theta)), abs=1e-12)
        assert abs(tm.entries[0, 1]) == pytest.approx(abs(math.sin(theta)), abs=1e-12)

    def test_detuned_rabi_form(self):
        # nonzero dk with N=2: |q|^2 = (2 gamma sqrt(P1 P2))^2 / g^2 sin^2(gL)
        prof = DispersionProfile(omega0=W0, beta_coeffs=(0.0, 0.0, 0.0, 1e-40),
                                 gamma=2e-3, length=100.0)
        grid = symmetric_grid(W0, [2 * math.pi * 0.4e12, 2 * math.pi * 1.1e12])
        pumps = PumpConfig(powers=(0.6, 0.3))
        rep = nonlinear_mismatch(prof, grid, pumps.powers)
        tm = general_transfer(prof, pumps, rep)
        c = 2 * prof.gamma * math.sqrt(0.6 * 0.3)
        g = math.sqrt((rep.delta_k[1] / 2) ** 2 + c**2)
        expected = (c / g) ** 2 * math.sin(g * prof.length) ** 2
        assert abs(tm.entries[1, 0]) ** 2 == pytest.approx(expected, rel=1e-10)

    def test_pump_phase_factoring(self):
        prof = flat_profile()
        rng = np.random.default_rng(5)
        powers = tuple(rng.uniform(0.1, 1.0, 4))
        thetas = tuple(rng.uniform(0, 2 * math.pi, 4))
        with_phase = general_transfer(prof, PumpConfig(powers=powers, phases=thetas))
        base = general_transfer(prof, PumpConfig(powers=powers))
        d = np.diag(np.exp(1j * np.asarray(thetas)))
        assert np.max(np.abs(with_phase.entries - d.conj() @ base.entries @ d)) < 1e-12

    @given(
        st.integers(2, 6),
        st.lists(st.floats(0.05, 1.5, allow_nan=False), min_size=6, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_unitarity_random_powers(self, n, powers):
        prof = flat_profile()
        tm = general_transfer(prof, PumpConfig(powers=tuple(powers[:n])))
        assert tm.unitarity_residual() < 1e-12

    def test_mismatch_dimension_check(self):
        prof = DispersionProfile(omega0=W0, beta_coeffs=(0.0, 0.0, 0.0, 1e-40),
                                 gamma=2e-3, length=100.0)
        grid = symmetric_grid(W0, [2e12, 4e12, 6e12])
        rep = nonlinear_mismatch(prof, grid, (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            general_transfer(prof, PumpConfig(powers=(1.0, 1.0)), rep)


class TestSinhc:
    def test_at_zero(self):
        assert sinhc(0.0) == 1.0

    def test_series_matches_direct(self):
        for x in (1e-5, 9e-5, 1.1e-4, 0.01, 0.5):
            assert sinhc(x) == pytest.approx(math.sinh(x) / x if x else 1.0, rel=1e-14)

    def test_loss_reduced_phase_limits(self):
        nlp = loss_reduced_phase(2e-3, 0.5, 0.0, 100.0)
        assert nlp.phi_alpha == nlp.phi
        nlp2 = loss_reduced_phase(2e-3, 0.5, 1e-4, 100.0)
        assert 0 < nlp2.phi_alpha < nlp2.phi


class TestLossyTransfer:
    def test_alpha_zero_equals_ideal_up_to_global_phase(self):
        prof = flat_profile(alpha=0.0)
        P = 0.4
        pumps = PumpConfig(powers=(P, P, P))
        tm = lossy_transfer(prof, pumps)
        phi = 2 * prof.gamma * prof.length * P
        expected = ideal_transfer(3, phi).entries * np.exp(1j * phi * 2)
        assert np.max(np.abs(tm.entries - expected)) < 1e-12

    def test_unequal_powers_rejected(self):
        prof = flat_profile(alpha=1e-5)
        with pytest.raises(ValueError, match="equal pump powers"):
            lossy_transfer(prof, PumpConfig(powers=(1.0, 0.5, 1.0)))

    def test_rescaled_intensity_matches_lossless(self):
        # e^{2 alpha z} |b_n|^2 vs phi_alpha is the lossless intensity curve
        P = 0.7
        pumps = PumpConfig(powers=(P, P, P))
        for alpha_L in (0.005, 0.05):
            prof = flat_profile(alpha=alpha_L / 100.0, length=100.0)
            for z in np.linspace(1.0, 100.0, 23):
                tm = lossy_transfer(prof, pumps, z=z)
                rescaled = np.abs(tm.entries[:, 0]) ** 2 * math.exp(2 * prof.alpha * z)
                lossless = np.abs(ideal_transfer(3, tm.phi).entries[:, 0]) ** 2
                assert np.max(np.abs(rescaled - lossless)) < 1e-9

    def test_unitary_after_rescale(self):
        prof = flat_profile(alpha=3e-4)
        tm = lossy_transfer(prof, PumpConfig(powers=(0.5, 0.5, 0.5)))
        assert tm.unitarity_residual() < 1e-12
        assert tm.lossy_scale == pytest.approx(math.exp(-prof.alpha * prof.length))

    def test_pump_phase_factors(self):
        prof = flat_profile(alpha=1e-4)
        thetas = (0.3, 1.1, 2.9)
        tm = lossy_transfer(prof, PumpConfig(powers=(0.5, 0.5, 0.5), phases=thetas))
        base = lossy_transfer(prof, PumpConfig(powers=(0.5, 0.5, 0.5)))
        for i in range(3):
            for j in range(3):
                if i == j:
                    continue
                factor = np.exp(1j * (thetas[j] - thetas[i]))
                assert tm.entries[i, j] == pytest.approx(base.entries[i, j] * factor,
                                                         abs=1e-12)

    def test_negligible_nonzero_mismatch_rejected(self):
        # the closed form models zero mismatch only; a negligible one is not dropped
        prof = DispersionProfile(omega0=W0, beta_coeffs=(0.0, 0.0, 0.0, 0.0, 1e-55),
                                 gamma=2e-3, length=100.0, alpha=1e-5)
        offs = [2 * math.pi * f for f in (0.5e12, 1.0e12, 1.7e12)]
        pumps = PumpConfig(powers=(0.5, 0.5, 0.5))
        rep = nonlinear_mismatch(prof, symmetric_grid(W0, offs), pumps.powers)
        assert np.all(rep.negligible) and np.any(rep.delta_k != 0.0)
        with pytest.raises(ValueError, match="zero phase mismatch"):
            lossy_transfer(prof, pumps, mismatch=rep)

    def test_exactly_zero_mismatch_accepted(self):
        prof = flat_profile(alpha=1e-5)
        offs = [2 * math.pi * f for f in (0.5e12, 1.0e12, 1.7e12)]
        pumps = PumpConfig(powers=(0.5, 0.5, 0.5))
        rep = nonlinear_mismatch(prof, symmetric_grid(W0, offs), pumps.powers)
        assert np.all(rep.delta_k == 0.0)
        assert np.array_equal(lossy_transfer(prof, pumps, mismatch=rep).entries,
                              lossy_transfer(prof, pumps).entries)

    def test_one_pump_rejected(self):
        with pytest.raises(ValueError, match="at least 2 modes"):
            lossy_transfer(flat_profile(alpha=1e-4), PumpConfig(powers=(0.5,)))

    def test_z_out_of_range(self):
        prof = flat_profile(alpha=1e-4)
        with pytest.raises(ValueError):
            lossy_transfer(prof, PumpConfig(powers=(0.5, 0.5)), z=200.0)


class TestPumpEvolution:
    def test_gamma_zero_constant(self):
        prof = flat_profile(gamma=0.0)
        pumps = PumpConfig(powers=(0.5, 0.2, 0.9))
        assert np.allclose(pump_evolution(pumps, prof, 60.0), pumps.amplitudes)

    def test_equal_power_phase_rate(self):
        # N=3 equal powers: Gamma = gamma (P + 4P) = 5 gamma P
        prof = flat_profile()
        P, z = 0.3, 42.0
        pumps = PumpConfig(powers=(P, P, P))
        out = pump_evolution(pumps, prof, z)
        expected = math.sqrt(P) * np.exp(1j * 5 * prof.gamma * P * z)
        assert np.allclose(out, expected, atol=1e-12)

    def test_lossy_magnitude_decay(self):
        prof = flat_profile(alpha=2e-4)
        P = 0.5
        pumps = PumpConfig(powers=(P, P, P))
        out = pump_evolution(pumps, prof, prof.length)
        assert np.abs(out[0]) == pytest.approx(
            math.sqrt(P) * math.exp(-prof.alpha * prof.length), rel=1e-12
        )

    def test_lossy_unequal_powers_rejected(self):
        prof = flat_profile(alpha=2e-4)
        with pytest.raises(ValueError, match="^lossy pump closed form requires equal powers$"):
            pump_evolution(PumpConfig(powers=(0.5, 0.4, 0.5)), prof, prof.length)


class TestPumpConfig:
    @pytest.mark.parametrize("field,value", [
        ("powers", (math.nan, 1.0)), ("powers", (math.inf, 1.0)), ("powers", (1.0, -math.inf)),
        ("phases", (math.nan, 0.0)), ("phases", (0.0, math.inf)),
    ])
    def test_rejects_non_finite_fields(self, field, value):
        kwargs = dict(powers=(1.0, 1.0), phases=(0.0, 0.0))
        with pytest.raises(ValueError, match=f"^pump {field} must be finite$"):
            PumpConfig(**dict(kwargs, **{field: value}))

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PumpConfig(powers=(-0.1, 0.5))

    def test_phase_count_must_match(self):
        with pytest.raises(ValueError, match="^powers and phases must have equal length$"):
            PumpConfig(powers=(0.5, 0.5), phases=(0.0,))

    def test_phases_wrapped(self):
        cfg = PumpConfig(powers=(1.0,), phases=(2 * math.pi + 0.5,))
        assert cfg.phases[0] == pytest.approx(0.5)

    def test_equal_powers_predicate(self):
        assert PumpConfig(powers=(0.5, 0.5, 0.5)).equal_powers()
        assert not PumpConfig(powers=(0.5, 0.6, 0.5)).equal_powers()
