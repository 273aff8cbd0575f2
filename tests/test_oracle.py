"""Quantum-oracle tests: Bogoliubov/Wick, truncated Fock, and MC averaging."""

import math
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nwaybs.oracle import (
    SYMPLECTIC_TOL,
    BogoliubovMap,
    FockState,
    compose,
    fock_basis_state,
    fock_evolve,
    identity_map,
    loss_chain,
    loss_map,
    mc_phase_average,
    passive_map,
    squeezer_map,
    two_mode_squeezed_fock,
    wick_moments,
)
from nwaybs.quantum import (
    InputState,
    coincidence_squeezed,
    g2_dual_coherent,
    g2_photon_pair,
    g2_squeezed_full,
    singles,
)
from nwaybs.transfer import ideal_transfer, p_coeff, q_coeff


class TestBogoliubovAlgebra:
    def test_identity_composition(self):
        sq = squeezer_map(3, 0.4)
        both = compose([sq, identity_map(3)])
        assert np.allclose(both.matrix, sq.matrix, atol=1e-15)

    def test_unit_transmission_is_identity(self):
        lm = loss_map(3, mode=1, transmission=1.0, ancilla=2)
        assert np.allclose(lm.matrix, np.eye(6), atol=1e-15)

    def test_squeezer_inverse_pair(self):
        sq = squeezer_map(3, 0.7, modes=(1, 3))
        inv = squeezer_map(3, -0.7, modes=(1, 3))
        both = compose([sq, inv])
        assert np.allclose(both.matrix, np.eye(6), atol=1e-12)

    def test_symplectic_residual_small(self):
        sq = squeezer_map(4, 1.1 + 0.3j, modes=(2, 4))
        assert sq.symplectic_residual() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose([squeezer_map(3, 0.4), squeezer_map(4, 0.4)])

    def test_loss_transmission_validated(self):
        with pytest.raises(ValueError):
            loss_map(3, mode=1, transmission=1.5, ancilla=2)

    def test_loss_ancilla_must_differ(self):
        with pytest.raises(ValueError, match="^ancilla must differ from the lossy mode$"):
            loss_map(3, mode=2, transmission=0.5, ancilla=2)

    @pytest.mark.parametrize("shape", [(6,), (6, 4), (3, 3)])
    def test_map_shape_validated(self, shape):
        with pytest.raises(ValueError, match="^matrix must be square with even dimension$"):
            BogoliubovMap(np.eye(*shape) if len(shape) == 2 else np.ones(shape))

    def test_compose_needs_a_map(self):
        with pytest.raises(ValueError, match="^need at least one map$"):
            compose([])

    @given(st.floats(0.05, 1.5, allow_nan=False), st.floats(0.3, 1.0, allow_nan=False),
           st.floats(0, 2 * math.pi / 3, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_composition_stays_symplectic(self, zeta, t, phi):
        chain = loss_chain(3, zeta, ideal_transfer(3, phi).entries,
                           t_pre=(t, 1.0, 1.0), t_post=(1.0, t, 1.0))
        assert chain.symplectic_residual() < 1e-10


    @pytest.mark.parametrize("zeta", [10.0, 12.0])
    def test_strong_squeezing_composes(self, zeta):
        # past the absolute tolerance, within it relative to max|S_ij|^2
        chain = loss_chain(3, zeta, ideal_transfer(3, 0.7).entries,
                           t_pre=(0.8, 1.0, 0.9), t_post=(1.0, 0.6, 1.0))
        residual = chain.symplectic_residual()
        assert SYMPLECTIC_TOL < residual <= SYMPLECTIC_TOL * np.abs(chain.matrix).max() ** 2

    @pytest.mark.parametrize("zeta", [0.0, 0.4, 7.0])
    def test_corrupted_map_raises(self, zeta):
        bad = squeezer_map(3, zeta).matrix.copy()
        bad[0, 0] *= 1 + 1e-6
        with pytest.raises(AssertionError, match="assembly bug"):
            compose([BogoliubovMap(bad), identity_map(3)])


class TestWickMoments:
    def test_vacuum_moments_zero(self):
        n1, n3, g2 = wick_moments(identity_map(3), ports=(1, 3))
        assert n1 == n3 == g2 == 0.0

    def test_squeezer_thermal_marginals(self):
        zeta = 0.6
        n1, n3, g2 = wick_moments(squeezer_map(3, zeta), ports=(1, 3))
        s2 = math.sinh(zeta) ** 2
        assert n1 == pytest.approx(s2, rel=1e-12)
        assert n3 == pytest.approx(s2, rel=1e-12)
        # |<a1 a3>|^2 + n1 n3 = sinh^2 cosh^2 + sinh^4
        assert g2 == pytest.approx(s2 * math.cosh(zeta) ** 2 + s2**2, rel=1e-12)

    def test_matches_closed_forms_over_grid(self):
        state = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4,
                           pre_loss=(0.9, 1.0, 0.6), post_loss=(0.7, 1.0, 0.95))
        for phi in np.linspace(0, 2 * math.pi / 3, 21):
            tm = ideal_transfer(3, phi)
            chain = loss_chain(3, 0.4, tm.entries, t_pre=(0.9, 1.0, 0.6),
                               t_post=(0.7, 1.0, 0.95))
            n1, n3, g2 = wick_moments(chain, ports=(1, 3))
            s = singles(state, tm)
            assert n1 == pytest.approx(s[0], rel=1e-12)
            assert n3 == pytest.approx(s[2], rel=1e-12)
            assert g2 == pytest.approx(coincidence_squeezed(state, tm), rel=1e-12)

    def test_normalized_g2_matches_closed_form(self):
        state = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4,
                           pre_loss=(0.9, 1.0, 0.6))
        tm0 = ideal_transfer(3, 0.0)
        chain0 = loss_chain(3, 0.4, tm0.entries, t_pre=(0.9, 1.0, 0.6))
        ref = wick_moments(chain0, ports=(1, 3))[2]
        for phi in np.linspace(0.1, 2 * math.pi / 3, 11):
            tm = ideal_transfer(3, phi)
            chain = loss_chain(3, 0.4, tm.entries, t_pre=(0.9, 1.0, 0.6))
            g2 = wick_moments(chain, ports=(1, 3))[2] / ref
            assert g2 == pytest.approx(g2_squeezed_full(state, tm), rel=1e-10)


class TestFockRoute:
    def test_identity_preserves_state(self):
        st_in = fock_basis_state((1, 0, 1), 3)
        out = fock_evolve(st_in, np.eye(3))
        assert out.amplitude((1, 0, 1)) == pytest.approx(1.0)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_pair_coincidence_amplitudes(self):
        for phi in np.linspace(0.1, 2 * math.pi / 3, 9):
            u = ideal_transfer(3, phi)
            out = fock_evolve(fock_basis_state((1, 0, 1), 3), u.entries)
            p = p_coeff(3, phi)
            q = q_coeff(3, phi)
            assert out.amplitude((1, 0, 1)) == pytest.approx(p * p + q * q, abs=1e-12)
            assert out.amplitude((1, 1, 0)) == pytest.approx(p * q + q * q, abs=1e-12)

    def test_hom_null(self):
        u = ideal_transfer(2, math.pi / 4)
        out = fock_evolve(fock_basis_state((1, 1), 2), u.entries)
        assert abs(out.amplitude((1, 1))) ** 2 < 1e-24

    def test_norm_preserved_under_unitary(self):
        u = ideal_transfer(3, 0.9)
        st_in = fock_basis_state((2, 1, 0), 3)
        out = fock_evolve(st_in, u.entries)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_cutoff_overflow(self):
        with pytest.raises(ValueError):
            fock_basis_state((4, 4, 0), 3, cutoff=6)

    def test_occupation_length_validated(self):
        with pytest.raises(ValueError, match="^occupation length must equal n_modes$"):
            fock_basis_state((1, 0), 3)

    def test_unitary_dimension_validated(self):
        with pytest.raises(ValueError, match="^unitary dimension must match the state's mode "
                                             "count$"):
            fock_evolve(fock_basis_state((1, 0, 1), 3), np.eye(2))

    def test_support_beyond_cutoff_rejected(self):
        state = FockState({(3, 1, 0): 1.0 + 0.0j}, n_modes=3, cutoff=3)
        with pytest.raises(ValueError, match="^state support exceeds cutoff$"):
            fock_evolve(state, np.eye(3))

    def test_squeezed_expansion_tail(self):
        st_sq = two_mode_squeezed_fock(0.4, cutoff=6)
        # tail above 3 pairs: tanh^8 / cosh^2 summed tail, small for zeta=0.4
        assert 0 < st_sq.tail_probability < 1e-3
        assert st_sq.amplitude((1, 0, 1)) == pytest.approx(
            math.tanh(0.4) / math.cosh(0.4), rel=1e-12
        )

    def test_fock_wick_crosscheck_small_zeta(self):
        # in the zeta -> 0 limit the squeezed-state g2 is the photon-pair g2
        zeta = 1e-4
        for phi in (0.3, 0.8, 1.4):
            tm = ideal_transfer(3, phi)
            chain = loss_chain(3, zeta, tm.entries)
            g2 = wick_moments(chain, ports=(1, 3))[2]
            chain0 = loss_chain(3, zeta, ideal_transfer(3, 0.0).entries)
            ref = wick_moments(chain0, ports=(1, 3))[2]
            out = fock_evolve(fock_basis_state((1, 0, 1), 3), tm.entries)
            assert g2 / ref == pytest.approx(out.probability((1, 0, 1)), abs=1e-6)


def expanded_with_numpy_elements(state, unitary):
    """``fock_evolve``'s amplitudes from the expansion on numpy elements of ``unitary``,
    each tested for zero in the innermost loop: the bit reference of the scalar one."""
    def sqrt_factorial_product(occ):
        return math.sqrt(reduce(lambda acc, n: acc * math.factorial(n), occ, 1))

    u = np.asarray(unitary, dtype=complex)
    m = state.n_modes
    out = {}
    for occ, amp in state.amplitudes.items():
        poly = {(0,) * m: amp / sqrt_factorial_product(occ)}
        for k in range(m):
            for _ in range(occ[k]):
                nxt = {}
                for mono, c in poly.items():
                    for j in range(m):
                        if u[j, k] == 0:
                            continue
                        lifted = list(mono)
                        lifted[j] += 1
                        key = tuple(lifted)
                        nxt[key] = nxt.get(key, 0.0) + c * u[j, k]
                poly = nxt
        for mono, c in poly.items():
            out[mono] = out.get(mono, 0.0) + c * sqrt_factorial_product(mono)
    return {k: v for k, v in out.items() if v != 0.0}


def amplitude_bits(amplitudes):
    """Each occupation in order with the bits of its amplitude's parts."""
    return [(occ, float(a.real).hex(), float(a.imag).hex()) for occ, a in amplitudes.items()]


class TestFockExpansionBits:
    """The expansion on Python scalars gives the numpy-element expansion's amplitudes."""

    @given(st.integers(2, 5), st.sampled_from(["identity", "permutation", "zeroed"]),
           st.sampled_from(["basis", "squeezed"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_bit_identical(self, n, kind, source, seed):
        rng = np.random.default_rng(seed)
        if kind == "identity":
            u = np.eye(n, dtype=complex)
        elif kind == "permutation":
            u = np.eye(n, dtype=complex)[rng.permutation(n)] * np.exp(2j * rng.random(n))
        else:
            u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            u[rng.random((n, n)) < 0.3] = 0.0
        if source == "basis":
            state = fock_basis_state(rng.multinomial(rng.integers(1, 5), [1 / n] * n), n)
        else:
            modes = tuple(rng.choice(np.arange(1, n + 1), 2, replace=False))
            zeta = complex(rng.uniform(0.05, 0.8) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
            state = two_mode_squeezed_fock(zeta, n_modes=n, modes=modes, cutoff=6)
        out = fock_evolve(state, u)
        assert amplitude_bits(out.amplitudes) == amplitude_bits(
            expanded_with_numpy_elements(state, u))


class TestMcPhaseAverage:
    def test_determinism(self):
        tm = ideal_transfer(3, 0.6)
        a = mc_phase_average(0.1, tm, samples=500, seed=9)
        b = mc_phase_average(0.1, tm, samples=500, seed=9)
        assert np.array_equal(a.singles, b.singles)
        assert np.array_equal(a.g2, b.g2)

    def test_singles_within_three_sigma(self):
        nu = 0.2
        phi = 0.9
        tm = ideal_transfer(3, phi)
        est = mc_phase_average(nu, tm, samples=200000, seed=1)
        expected_mid = 2 * nu**2 * abs(q_coeff(3, phi)) ** 2
        assert abs(est.singles[1] - expected_mid) < 3 * max(est.singles_err[1], 1e-12)

    def test_coincidence_factorizes(self):
        nu = 0.15
        phi = 0.7
        tm = ideal_transfer(3, phi)
        est = mc_phase_average(nu, tm, samples=400000, seed=2)
        expected = est.singles[0] * est.singles[2]
        assert abs(est.g2[0, 2] - expected) < 3 * est.g2_err[0, 2]
        # and the normalized value matches the closed form
        norm = est.g2[0, 2] / nu**4
        assert abs(norm - g2_dual_coherent(phi)) < 4 * est.g2_err[0, 2] / nu**4

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            mc_phase_average(0.1, ideal_transfer(3, 0.1), samples=0)


class TestOracleEquivalenceSweep:
    def test_fifty_random_configurations(self):
        rng = np.random.default_rng(2024)
        zetas = [1e-8, 0.1, 0.4, 1.0]
        worst = 0.0
        for _ in range(50):
            phi = rng.uniform(0, 2 * math.pi / 3)
            zeta = zetas[rng.integers(0, len(zetas))]
            t_pre = tuple(rng.uniform(0.3, 1.0, 3))
            t_post = tuple(rng.uniform(0.3, 1.0, 3))
            state = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=zeta,
                               pre_loss=t_pre, post_loss=t_post)
            tm = ideal_transfer(3, phi)
            chain = loss_chain(3, zeta, tm.entries, t_pre=t_pre, t_post=t_post)
            n1, n3, g2 = wick_moments(chain, ports=(1, 3))
            s = singles(state, tm)
            worst = max(worst, abs(n1 - s[0]) / max(s[0], 1e-300),
                        abs(n3 - s[2]) / max(s[2], 1e-300))
            chain0 = loss_chain(3, zeta, ideal_transfer(3, 0.0).entries,
                                t_pre=t_pre, t_post=t_post)
            ref = wick_moments(chain0, ports=(1, 3))[2]
            closed = g2_squeezed_full(state, tm)
            worst = max(worst, abs(g2 / ref - closed) / abs(closed))
        assert worst < 1e-10
