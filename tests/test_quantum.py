"""Detection-statistics tests for all supported input classes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nwaybs import quantum
from nwaybs.quantum import (
    INPUT_KINDS,
    KINDS,
    InputState,
    coincidence_squeezed,
    correlation_curve,
    g2_dual_coherent,
    g2_multiphoton,
    g2_photon_pair,
    g2_squeezed_full,
    multiphoton_ratio_model,
    multiphoton_scaling_curve,
    pair_coincidence,
    singles,
)
from nwaybs.transfer import (
    TransferMatrix,
    ideal_rows,
    ideal_transfer,
    p_coeff,
    q_coeff,
)

PHI_GRID = np.linspace(0.0, 2 * math.pi / 3, 97)
TRITTER = 2 * math.pi / 9


class TestInputState:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            InputState(kind="laser", modes=(1,))

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_default_modes(self, kind):
        assert InputState(kind=kind).modes == ((1,) if kind == "single_coherent" else (1, 3))

    def test_mode_count_enforced(self):
        with pytest.raises(ValueError):
            InputState(kind="photon_pair", modes=(1,))
        with pytest.raises(ValueError):
            InputState(kind="single_coherent", modes=(1, 2))

    def test_duplicate_modes(self):
        with pytest.raises(ValueError):
            InputState(kind="photon_pair", modes=(2, 2))

    @pytest.mark.parametrize("modes", [(1.5, 3), ("1", 3)], ids=["float", "string"])
    def test_non_integer_mode_rejected(self, modes):
        # int() would truncate 1.5 and parse "1", both to mode 1
        with pytest.raises(ValueError, match="mode indices must be integers"):
            InputState(kind="photon_pair", modes=modes)

    def test_integral_modes_become_ints(self):
        modes = InputState(kind="photon_pair", modes=(np.int64(1), 3.0)).modes
        assert modes == (1, 3) and all(type(m) is int for m in modes)

    @pytest.mark.parametrize("zeta, number", [
        (np.array(0.4), float), (np.float64(0.4), float), (1, float),
        (np.complex128(0.4j), complex), (0.4 + 0j, complex)])
    def test_zeta_becomes_a_python_number(self, zeta, number):
        # a Python number keeps every state hashable, and a real zeta real
        state = InputState(kind="squeezed_vacuum", zeta=zeta)
        assert type(state.zeta) is number and state.zeta == zeta
        assert hash(state) == hash(InputState(kind="squeezed_vacuum", zeta=complex(zeta)))

    def test_transmission_range(self):
        with pytest.raises(ValueError):
            InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4,
                       pre_loss=(0.0, 1.0, 1.0))

    @pytest.mark.parametrize("field,value", [
        ("amplitude", math.nan), ("amplitude", math.inf), ("zeta", math.nan),
        ("zeta", complex(0.3, math.inf)),
    ])
    def test_rejects_non_finite_fields(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            InputState(kind="squeezed_vacuum", **{field: value})

    @pytest.mark.parametrize("field,value,shown", [
        ("amplitude", np.float64(math.nan), "nan"),
        ("amplitude", np.float64(-math.inf), "-inf"),
        ("zeta", np.float64(math.inf), "inf"),
        ("zeta", np.complex128(complex(math.nan, 0.2)), "(nan+0.2j)"),
        ("zeta", np.complex128(complex(0.3, -math.inf)), "(0.3-infj)"),
    ])
    def test_rejects_non_finite_numpy_scalars(self, field, value, shown):
        with pytest.raises(ValueError) as err:
            InputState(kind="squeezed_vacuum", **{field: value})
        assert str(err.value) == f"{field} must be finite, not {shown}"

    # 178.13882540390594 is the largest float whose sinh**4 is finite
    @pytest.mark.parametrize("zeta", [178.13882540390597, 200, -200.0, 200j, 800, 1e300])
    def test_rejects_a_zeta_whose_rates_overflow(self, zeta):
        with pytest.raises(ValueError) as err:
            InputState(kind="squeezed_vacuum", zeta=zeta)
        assert str(err.value) == (f"zeta {InputState(kind='photon_pair', zeta=zeta).zeta} "
                                  "overflows the squeezed-vacuum rates: sinh(|zeta|)**4 is not "
                                  "finite above |zeta| of about 178")

    def test_accepts_the_largest_zeta_whose_rates_do_not_overflow(self):
        assert InputState(kind="squeezed_vacuum", zeta=-178.13882540390594).zeta < -178

    # mode 0 fails pair_coincidence's range check, which runs first and names N
    @pytest.mark.parametrize("modes,text,pair_text", [
        ((1, 2, 3), "photon_pair takes 2 mode index(es)", None),
        ((2, 2), "mode indices must be distinct", None),
        ((1.5, 3), "mode indices must be integers, not (1.5, 3)", None),
        ((0, 3), "mode indices are 1-based", "input modes (0, 3) must lie in 1..3, the channels"),
    ], ids=["three", "repeated", "float", "zero"])
    def test_pair_coincidence_applies_the_same_mode_rules(self, modes, text, pair_text):
        with pytest.raises(ValueError) as err:
            InputState(kind="photon_pair", modes=modes)
        assert str(err.value) == text
        for tm in (ideal_transfer(3, 0.3), ideal_transfer(3, np.linspace(0.0, 1.0, 4))):
            with pytest.raises(ValueError) as err:
                pair_coincidence(tm, modes)
            assert str(err.value) == (pair_text or text)


class TestSingles:
    def test_photon_pair_identity(self):
        s = singles(InputState(kind="photon_pair", modes=(1, 3)), ideal_transfer(3, 0.0))
        assert np.allclose(s, [1, 0, 1], atol=1e-15)

    def test_dual_table_forms(self):
        state = InputState(kind="dual_coherent", modes=(1, 3), amplitude=1.0)
        for phi in PHI_GRID:
            s = singles(state, ideal_transfer(3, phi))
            q2 = abs(q_coeff(3, phi)) ** 2
            assert s[0] == pytest.approx(1 - q2, abs=1e-12)
            assert s[1] == pytest.approx(2 * q2, abs=1e-12)
            assert s[2] == pytest.approx(s[0], abs=1e-12)

    def test_single_coherent_tritter(self):
        state = InputState(kind="single_coherent", modes=(1,), amplitude=2.0)
        s = singles(state, ideal_transfer(3, TRITTER))
        assert np.allclose(s, 4.0 / 3.0, atol=1e-12)

    def test_single_coherent_max_depletion(self):
        state = InputState(kind="single_coherent", modes=(1,))
        s = singles(state, ideal_transfer(3, math.pi / 3))
        assert np.allclose(s, [1 / 9, 4 / 9, 4 / 9], atol=1e-12)

    def test_pair_equals_phase_averaged_dual(self):
        pair = InputState(kind="photon_pair", modes=(1, 3))
        dual = InputState(kind="dual_coherent", modes=(1, 3))
        for phi in PHI_GRID:
            u = ideal_transfer(3, phi)
            assert np.allclose(singles(pair, u), singles(dual, u), atol=1e-12)

    def test_squeezed_loss_dressing(self):
        state = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4,
                           pre_loss=(0.9, 1.0, 0.6), post_loss=(0.8, 1.0, 0.7))
        u = ideal_transfer(3, 0.5)
        s = singles(state, u)
        s2 = math.sinh(0.4) ** 2
        expect0 = 0.8**2 * s2 * (
            abs(u.entries[0, 0] * 0.9) ** 2 + abs(u.entries[0, 2] * 0.6) ** 2
        )
        assert s[0] == pytest.approx(expect0, rel=1e-12)

    def test_mode_out_of_range(self):
        state = InputState(kind="photon_pair", modes=(1, 5))
        with pytest.raises(ValueError):
            singles(state, ideal_transfer(3, 0.1))

    @pytest.mark.parametrize("in_modes", [(0, 3), (1, 4)])
    def test_pair_coincidence_mode_out_of_range(self, in_modes):
        # mode 0 would read the last column through numpy's negative index
        with pytest.raises(ValueError, match=r"must lie in 1\.\.3"):
            pair_coincidence(ideal_transfer(3, 0.4), in_modes, (1, 2))


class TestPairStatistics:
    def test_table_one_forms(self):
        g13, g12 = g2_photon_pair(PHI_GRID)
        p = p_coeff(3, PHI_GRID)
        q = q_coeff(3, PHI_GRID)
        assert np.max(np.abs(g13 - np.abs(p**2 + q**2) ** 2)) < 1e-15
        assert np.max(np.abs(g12 - np.abs(p * q + q**2) ** 2)) < 1e-15

    def test_normalized_at_zero(self):
        g13, g12 = g2_photon_pair(0.0)
        assert g13 == pytest.approx(1.0, abs=1e-15)
        assert g12 == pytest.approx(0.0, abs=1e-15)

    def test_tritter_point(self):
        g13, g12 = g2_photon_pair(TRITTER)
        assert g13 == pytest.approx(1 / 9, abs=1e-12)
        assert g12 == pytest.approx(1 / 9, abs=1e-12)

    def test_quartic_in_cosine_form(self):
        # |p^2+q^2|^2 = (40 c^2 + 28 c + 13)/81 with c = cos(3 phi)
        for phi in PHI_GRID:
            c = math.cos(3 * phi)
            g13, _ = g2_photon_pair(phi)
            assert g13 == pytest.approx((40 * c * c + 28 * c + 13) / 81, abs=1e-12)

    def test_minimum_location_and_value(self):
        phis = np.linspace(0, 2 * math.pi / 3, 400001)
        g13, _ = g2_photon_pair(phis)
        k = int(np.argmin(g13))
        assert g13[k] == pytest.approx(0.1, abs=1e-9)
        assert math.cos(3 * phis[k]) == pytest.approx(-0.35, abs=1e-4)

    def test_hom_null_n2(self):
        u = ideal_transfer(2, math.pi / 4)
        assert pair_coincidence(u, in_modes=(1, 2), ports=(1, 2)) < 1e-24

    @pytest.mark.parametrize("in_modes,text", [
        ((1, 2, 3), "photon_pair takes 2 mode index"),
        ((1, 1), "mode indices must be distinct"),
        ((1.5, 3), "mode indices must be integers"),
    ], ids=["three-modes", "one-mode-twice", "float"])
    def test_in_modes_checked_as_a_photon_pair(self, in_modes, text):
        # unchecked, (1, 2, 3) would run on its first two modes and (1, 1) give
        # twice the coincidence of two photons in one mode
        tm = ideal_transfer(3, 0.4)
        with pytest.raises(ValueError, match=text):
            pair_coincidence(tm, in_modes, (1, 3))

    def test_symmetry_g12_equals_g23(self):
        state = InputState(kind="photon_pair", modes=(1, 3))
        curve = correlation_curve(state, PHI_GRID)
        assert np.allclose(curve.g2[(1, 2)], curve.g2[(2, 3)], atol=1e-12,
                           equal_nan=True)


class TestDualCoherent:
    def test_closed_form(self):
        vals = g2_dual_coherent(PHI_GRID)
        q2 = np.abs(q_coeff(3, PHI_GRID)) ** 2
        assert np.max(np.abs(vals - (1 - q2) ** 2)) < 1e-15

    def test_reference_points(self):
        assert g2_dual_coherent(0.0) == pytest.approx(1.0)
        assert g2_dual_coherent(TRITTER) == pytest.approx(4 / 9, abs=1e-12)
        assert g2_dual_coherent(math.pi / 3) == pytest.approx(25 / 81, abs=1e-12)

    def test_quantum_below_classical(self):
        phis = np.linspace(1e-3, 2 * math.pi / 3 - 1e-3, 2001)
        g13, _ = g2_photon_pair(phis)
        classical = g2_dual_coherent(phis)
        assert np.all(g13 <= classical + 1e-12)


class TestMultiphoton:
    def test_pair_limit(self):
        vals = g2_multiphoton(PHI_GRID, 0.0)
        g13, _ = g2_photon_pair(PHI_GRID)
        assert np.max(np.abs(vals - g13)) < 1e-15

    def test_unity_at_zero_phase(self):
        for zeta in (0.1, 0.4, 1.0):
            assert g2_multiphoton(0.0, zeta, 0.7, 0.9) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_loss_tritter_value(self):
        s2 = math.sinh(0.4) ** 2
        expected = 1 / 9 + (4 / 9) * s2 / (1 + 2 * s2)
        got = g2_multiphoton(TRITTER, 0.4)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.167, abs=5e-3)

    def test_transmission_validation(self):
        with pytest.raises(ValueError):
            g2_multiphoton(0.3, 0.4, t1_alpha=0.0)

    def test_asymmetric_loss_raises_coincidences(self):
        phis = np.linspace(0.05, 2 * math.pi / 3 - 0.05, 101)
        sym = g2_multiphoton(phis, 0.4, 1.0, 1.0)
        asym = g2_multiphoton(phis, 0.4, 0.9, 0.6)
        assert np.all(asym > sym)


class TestSqueezedFull:
    def test_reduces_to_multiphoton_without_loss(self):
        state = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4)
        for phi in PHI_GRID[::8]:
            full = g2_squeezed_full(state, ideal_transfer(3, phi))
            assert full == pytest.approx(float(g2_multiphoton(phi, 0.4)), rel=1e-12)

    def test_post_loss_cancels_in_normalization(self):
        rng = np.random.default_rng(17)
        base = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4,
                          pre_loss=(0.9, 1.0, 0.6))
        for _ in range(10):
            t_post = tuple(rng.uniform(0.3, 1.0, 3))
            lossy = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4,
                               pre_loss=(0.9, 1.0, 0.6), post_loss=t_post)
            for phi in (0.2, 0.6, 1.5):
                u = ideal_transfer(3, phi)
                assert g2_squeezed_full(lossy, u) == pytest.approx(
                    g2_squeezed_full(base, u), abs=1e-12
                )

    def test_pre_loss_matches_multiphoton_formula(self):
        state = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.5,
                           pre_loss=(0.85, 1.0, 0.6))
        for phi in PHI_GRID[::8]:
            full = g2_squeezed_full(state, ideal_transfer(3, phi))
            closed = float(g2_multiphoton(phi, 0.5, 0.85, 0.6))
            assert full == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("ports", [np.array([[1, 3], [1, 2]]), np.array([[1, 3]]),
                                       (1, 2, 3), 1],
                             ids=["two-pairs", "one-pair-as-(1,2)", "triple", "scalar"])
    def test_takes_exactly_one_port_pair(self, ports):
        # a cross pair's zero-phase reference is exactly 0, so a (K, 2) form cannot normalize
        state = InputState(kind="squeezed_vacuum", zeta=0.4)
        with pytest.raises(ValueError, match="ports"):
            g2_squeezed_full(state, ideal_transfer(3, 0.5), ports)

    @pytest.mark.parametrize("kind", ["photon_pair", "single_coherent"])
    def test_needs_a_squeezed_vacuum_state(self, kind):
        with pytest.raises(ValueError, match="^requires a squeezed_vacuum input state$"):
            coincidence_squeezed(InputState(kind=kind), ideal_transfer(3, 0.5))


    @given(st.integers(2, 8), st.floats(0.05, 1.5), st.booleans(), st.booleans(),
           st.sampled_from(["one", "stack"]), st.integers(0, 2**31 - 1))
    @settings(max_examples=150, deadline=None)
    def test_equals_the_whole_matrix_reference(self, n, zeta, pre, post, phis, seed):
        # the zero-phase reference from the input columns of the identity, not a
        # whole ideal_transfer(n, 0): the same bits, or the same error
        rng = np.random.default_rng(seed)
        modes = tuple(sorted(int(m) for m in rng.choice(np.arange(1, n + 1), 2, replace=False)))
        state = InputState(kind="squeezed_vacuum", modes=modes, zeta=zeta,
                           pre_loss=tuple(rng.uniform(0.3, 1.0, n)) if pre else None,
                           post_loss=tuple(rng.uniform(0.3, 1.0, n)) if post else None)
        # the input pair, one input mode twice, or any pair (often a zero reference)
        ports = [modes, modes[:1] * 2, modes[1:] * 2,
                 tuple(int(p) for p in rng.integers(1, n + 1, 2))][int(rng.integers(4))]
        phi = rng.uniform(0.0, 2 * math.pi, 5) if phis == "stack" else float(rng.uniform(0, 7))
        tm = ideal_transfer(n, phi)

        def outcome(func):
            try:
                return np.asarray(func(state, tm, ports)).tobytes()
            except ValueError as exc:
                return str(exc)

        assert outcome(g2_squeezed_full) == outcome(whole_matrix_g2_squeezed_full)

    @pytest.mark.parametrize("n", [3, 5])
    def test_reference_once_per_state_keeps_the_bits(self, n):
        # repeated calls, equal states built apart and every spelling of the
        # ports carry the bits of the formula that builds its reference each time
        rng = np.random.default_rng(40 + n)
        fields = dict(kind="squeezed_vacuum", modes=(1, 3),
                      pre_loss=tuple(rng.uniform(0.3, 1.0, n)),
                      post_loss=tuple(rng.uniform(0.3, 1.0, n)))
        tm = ideal_transfer(n, rng.uniform(0.0, 2 * math.pi, 7))
        want = whole_matrix_g2_squeezed_full(InputState(zeta=0.4, **fields), tm, (1, 3))
        for zeta in (0.4, 0.4 + 0j, np.float64(0.4), np.array(0.4)):
            for ports in ((1, 3), [1, 3], np.array([1, 3], dtype=np.int8)):
                for _ in range(2):
                    got = g2_squeezed_full(InputState(zeta=zeta, **fields), tm, ports)
                    assert got.tobytes() == want.tobytes()
        one = ideal_transfer(n, 0.7)
        want = whole_matrix_g2_squeezed_full(InputState(zeta=0.4, **fields), one, (3, 3))
        for _ in range(2):
            got = g2_squeezed_full(InputState(zeta=0.4, **fields), one, (3, 3))
            assert type(got) is float and got == want

    def test_cross_pair_raises_on_every_call(self):
        state = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4)
        tm = ideal_transfer(3, 0.5)
        for _ in range(3):
            with pytest.raises(ValueError, match="^zero-phase coincidence vanishes"):
                g2_squeezed_full(state, tm, (1, 2))


def whole_matrix_g2_squeezed_full(state, transfer, ports):
    """g2_squeezed_full with its reference from the whole ideal_transfer(n, 0.0)."""
    raw = coincidence_squeezed(state, transfer, ports)
    ref = coincidence_squeezed(state, ideal_transfer(transfer.n_modes, 0.0), ports)
    if ref == 0.0:
        raise ValueError("zero-phase coincidence vanishes; cannot normalize")
    return raw / ref


class TestGlobalAndPumpPhaseInvariance:
    @given(st.floats(0, 2 * math.pi, allow_nan=False),
           st.floats(0.01, 2 * math.pi / 3, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_global_phase_invariance(self, chi, phi):
        u = ideal_transfer(3, phi)
        u_rot = TransferMatrix(entries=u.entries * np.exp(1j * chi), phi=phi)
        for state in (
            InputState(kind="photon_pair", modes=(1, 3)),
            InputState(kind="dual_coherent", modes=(1, 3)),
            InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4),
        ):
            assert np.allclose(singles(state, u), singles(state, u_rot), atol=1e-12)
        assert pair_coincidence(u) == pytest.approx(pair_coincidence(u_rot), abs=1e-12)

    def test_pump_phase_invariance(self):
        # pump phases enter U as diagonal conjugation D* U D
        rng = np.random.default_rng(3)
        for _ in range(10):
            thetas = rng.uniform(0, 2 * math.pi, 3)
            d = np.diag(np.exp(1j * thetas))
            u = ideal_transfer(3, 0.7)
            u_ph = TransferMatrix(entries=d.conj() @ u.entries @ d, phi=0.7)
            for state in (
                InputState(kind="photon_pair", modes=(1, 3)),
                InputState(kind="dual_coherent", modes=(1, 3)),
                InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4),
            ):
                assert np.allclose(singles(state, u), singles(state, u_ph), atol=1e-12)
            assert pair_coincidence(u_ph) == pytest.approx(pair_coincidence(u), abs=1e-12)


class TestScalingCurve:
    def test_small_zeta_power_laws(self):
        zg = np.linspace(0.05, 0.2, 40)
        curve = multiphoton_scaling_curve(zg)
        logs = np.log(curve["sinh2"])
        slope_pair = np.polyfit(logs, np.log(curve["pair"]), 1)[0]
        slope_mult = np.polyfit(logs, np.log(curve["mult"]), 1)[0]
        assert slope_pair == pytest.approx(1.0, abs=0.02)
        assert slope_mult == pytest.approx(2.0, abs=0.05)

    def test_ratio_closed_form(self):
        zg = np.array([0.1, 0.4, 0.9])
        curve = multiphoton_scaling_curve(zg)
        s2 = np.sinh(zg) ** 2
        assert np.allclose(curve["ratio"], s2 / (2 * (1 + s2)), atol=1e-15)
        assert np.allclose(curve["ratio"], multiphoton_ratio_model(s2), atol=1e-15)

    def test_positive_grid_required(self):
        with pytest.raises(ValueError):
            multiphoton_scaling_curve([0.0, 0.1])


class TestCorrelationCurve:
    def test_columns_and_normalization(self):
        state = InputState(kind="photon_pair", modes=(1, 3))
        curve = correlation_curve(state, PHI_GRID)
        assert curve.singles.shape == (len(PHI_GRID), 3)
        assert curve.g2[(1, 3)][0] == pytest.approx(1.0, abs=1e-12)
        g13, g12 = g2_photon_pair(PHI_GRID)
        assert np.allclose(curve.g2[(1, 3)], g13, atol=1e-12)
        assert np.allclose(curve.g2[(1, 2)], g12, atol=1e-12)

    @pytest.mark.parametrize("state", [InputState(kind="dual_coherent", amplitude=0.0),
                                       InputState(kind="squeezed_vacuum", zeta=0.0)],
                             ids=["dual_coherent", "squeezed_vacuum"])
    def test_input_without_light_raises(self, state):
        # the zero-phase coincidence that normalizes every g2 column is 0
        with pytest.raises(ValueError, match="vanishes"):
            correlation_curve(state, PHI_GRID)

    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_mode_out_of_range_raises(self, kind):
        # a mode above n_modes names the modes, not an index error from the slab gather
        state = InputState(kind=kind, modes=(4,) if kind == "single_coherent" else (1, 4))
        with pytest.raises(ValueError, match=r"must lie in 1\.\.3"):
            correlation_curve(state, PHI_GRID, n_modes=3)

    @pytest.mark.parametrize("phis", [0.5, np.zeros((4, 5))], ids=["scalar", "2-D"])
    def test_phis_must_be_one_dimensional(self, phis):
        with pytest.raises(ValueError, match=r"phis must be a 1-D array"):
            correlation_curve(InputState(kind="photon_pair"), phis)

    def test_single_coherent_has_no_g2(self):
        state = InputState(kind="single_coherent", modes=(1,))
        curve = correlation_curve(state, PHI_GRID)
        for arr in curve.g2.values():
            assert np.isnan(arr).all()

    def test_dual_matches_closed_form(self):
        state = InputState(kind="dual_coherent", modes=(1, 3))
        curve = correlation_curve(state, PHI_GRID)
        assert np.allclose(curve.g2[(1, 3)], g2_dual_coherent(PHI_GRID), atol=1e-12)


def _ref_singles(state, transfer):
    """``singles`` as one if-chain over the input kinds: the reference for the kind table."""
    u = transfer.entries
    n = transfer.n_modes
    cols = [m - 1 for m in state.modes]
    if state.kind == "single_coherent":
        return state.amplitude**2 * np.abs(u[..., cols[0]]) ** 2
    if state.kind == "dual_coherent":
        if not state.phase_averaged:
            amp = u[..., cols[0]] + u[..., cols[1]]
            return state.amplitude**2 * np.abs(amp) ** 2
        return state.amplitude**2 * (np.abs(u[..., cols]) ** 2).sum(axis=-1)
    if state.kind == "photon_pair":
        return (np.abs(u[..., cols]) ** 2).sum(axis=-1)
    t_pre = state.transmissions("pre_loss", n)
    t_post = state.transmissions("post_loss", n)
    s2 = math.sinh(abs(state.zeta)) ** 2
    body = (np.abs(u[..., cols] * t_pre[cols]) ** 2).sum(axis=-1)
    return t_post**2 * s2 * body


def _per_phase_reference(state, phi, n, pairs):
    """Singles and unnormalized coincidences at one phase from the scalar observables."""
    tm = ideal_transfer(n, phi)
    sgl = _ref_singles(state, tm)
    if state.kind == "single_coherent":
        coinc = {}
    elif state.kind == "dual_coherent":
        coinc = {(i, j): sgl[i - 1] * sgl[j - 1] for i, j in pairs}
    elif state.kind == "photon_pair":
        coinc = {pr: pair_coincidence(tm, state.modes, pr) for pr in pairs}
    else:
        coinc = {pr: coincidence_squeezed(state, tm, pr) for pr in pairs}
    return sgl, coinc


@st.composite
def input_states(draw, n, kinds=INPUT_KINDS):
    kind = draw(st.sampled_from(kinds))
    count = 1 if kind == "single_coherent" else 2
    modes = tuple(draw(st.lists(st.integers(1, n), min_size=count, max_size=count,
                                unique=True)))
    kwargs = {}
    if kind in ("single_coherent", "dual_coherent"):
        kwargs["amplitude"] = draw(st.floats(0.1, 2.0))
    if kind == "dual_coherent":
        kwargs["phase_averaged"] = draw(st.booleans())
    if kind == "squeezed_vacuum":
        zeta = draw(st.floats(0.05, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
        trans = st.lists(st.floats(0.3, 1.0), min_size=n, max_size=n)
        kwargs.update(zeta=complex(zeta), pre_loss=tuple(draw(trans)),
                      post_loss=tuple(draw(trans)))
    return InputState(kind=kind, modes=modes, **kwargs)


@st.composite
def sweep_cases(draw):
    n = draw(st.sampled_from([2, 3, 8, 16]))
    state = draw(input_states(n))
    block = quantum.BLOCK_ENTRIES // (n * len(state.modes))
    # long enough to cross at least one block boundary
    points = block + draw(st.integers(1, 2 * block))
    lo = draw(st.floats(-1.0, 1.0))
    phis = np.linspace(lo, lo + draw(st.floats(0.5, 8.0)), points)
    return state, n, phis


class TestCorrelationCurveStack:
    @given(sweep_cases(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_per_phase_reference(self, case, data):
        state, n, phis = case
        curve = correlation_curve(state, phis, n_modes=n)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        block = quantum.BLOCK_ENTRIES // (n * len(state.modes))
        edges = [k for b in range(block, len(phis), block) for k in (b - 1, b)]
        extra = data.draw(st.lists(st.integers(0, len(phis) - 1), max_size=4))
        in_pair = (min(state.modes), max(state.modes))
        ref = None
        if state.kind != "single_coherent":
            ref = _per_phase_reference(state, 0.0, n, [in_pair])[1][in_pair]
        for k in sorted({0, len(phis) - 1, *edges, *extra}):
            sgl, coinc = _per_phase_reference(state, phis[k], n, pairs)
            assert np.max(np.abs(curve.singles[k] - sgl)) <= 1e-14
            for pr in pairs:
                if ref is None:
                    assert np.isnan(curve.g2[pr][k])
                else:
                    assert abs(curve.g2[pr][k] - coinc[pr] / ref) <= 1e-14

    def test_observables_take_a_stack(self):
        phis = np.linspace(0.0, 2.0, 9)
        stack = ideal_transfer(4, phis)
        state = InputState(kind="squeezed_vacuum", modes=(2, 4), zeta=0.6,
                           pre_loss=(0.9, 0.8, 1.0, 0.5), post_loss=(0.7, 1.0, 0.6, 0.9))
        assert singles(state, stack).shape == (9, 4)
        pc = pair_coincidence(stack, (2, 4), (1, 3))
        cs = coincidence_squeezed(state, stack, (1, 3))
        assert pc.shape == cs.shape == (9,)
        for k, phi in enumerate(phis):
            one = ideal_transfer(4, phi)
            assert isinstance(pair_coincidence(one, (2, 4), (1, 3)), float)
            assert isinstance(coincidence_squeezed(state, one, (1, 3)), float)
            assert pc[k] == pytest.approx(pair_coincidence(one, (2, 4), (1, 3)), abs=1e-15)
            assert cs[k] == pytest.approx(coincidence_squeezed(state, one, (1, 3)), abs=1e-15)


# The per-pair loop that correlation_curve ran before it took every port pair
# in one call, with that version's per-pair observables: the bit-for-bit
# reference for the all-pairs path.  The grid is one unblocked stack, since
# ideal_transfer gives the same entries per phase whatever the stack size.


def _ref_entry(u, i, j):
    return u[..., i, j][()]


def _ref_pair_coincidence(u, in_modes, ports):
    i, j = (p - 1 for p in ports)
    m1, m2 = (m - 1 for m in in_modes)
    return np.abs(_ref_entry(u, i, m1) * _ref_entry(u, j, m2)
                  + _ref_entry(u, i, m2) * _ref_entry(u, j, m1)) ** 2


def _ref_coincidence_squeezed(state, u, ports):
    n = u.shape[-1]
    i, j = (p - 1 for p in ports)
    m1, m2 = (m - 1 for m in state.modes)
    t_pre = state.transmissions("pre_loss", n)
    t_post = state.transmissions("post_loss", n)
    t1, t2 = t_pre[m1], t_pre[m2]
    s2 = math.sinh(abs(state.zeta)) ** 2
    prefac = t_post[i] ** 2 * t_post[j] ** 2 * t1**2 * t2**2
    ui1, uj1, ui2, uj2 = (_ref_entry(u, *ix) for ix in ((i, m1), (j, m1), (i, m2), (j, m2)))
    paired = np.abs(ui1 * uj2 + ui2 * uj1) ** 2 * (s2 + 2.0 * s2**2)
    uncorr = 2.0 * (
        np.abs(ui1) ** 2 * np.abs(uj1) ** 2 * (t1 / t2) ** 2
        + np.abs(ui2) ** 2 * np.abs(uj2) ** 2 * (t2 / t1) ** 2
    ) * s2**2
    return prefac * (paired + uncorr)


def _dual_product(s, ports):
    """Dual coherent coincidences as products of the public singles, pair by pair."""
    if np.ndim(ports) == 1:
        return s[..., ports[0] - 1] * s[..., ports[1] - 1]
    return np.stack([s[..., i - 1] * s[..., j - 1] for i, j in ports], -1)


def reference_curve(state, phis, n_modes):
    phis = np.asarray(phis, dtype=float)
    pairs = [(i, j) for i in range(1, n_modes + 1) for j in range(i + 1, n_modes + 1)]
    g2 = {pr: np.full(len(phis), np.nan) for pr in pairs}
    coincidence = {
        "dual_coherent": lambda u, s, pr: s[..., pr[0] - 1] * s[..., pr[1] - 1],
        "photon_pair": lambda u, s, pr: _ref_pair_coincidence(u, state.modes, pr),
        "squeezed_vacuum": lambda u, s, pr: _ref_coincidence_squeezed(state, u, pr),
    }.get(state.kind)
    ref = 0.0
    if coincidence is not None:
        ident = ideal_transfer(n_modes, 0.0)
        ref = coincidence(ident.entries, _ref_singles(state, ident),
                          (min(state.modes), max(state.modes)))
    tm = ideal_transfer(n_modes, phis)
    sgl = _ref_singles(state, tm)
    if ref > 0.0:
        for pr in pairs:
            g2[pr][:] = coincidence(tm.entries, sgl, pr) / ref
    return sgl, g2


class TestAllPairs:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_curve_matches_per_pair_loop(self, data):
        n = data.draw(st.integers(2, 16))
        state = data.draw(input_states(n))
        points = data.draw(st.integers(1, 300))
        lo = data.draw(st.floats(-1.0, 1.0))
        phis = np.linspace(lo, lo + data.draw(st.floats(0.5, 8.0)), points)
        # blocks of 1 to 9 phases, so most grids cross block boundaries
        per_point = n * len(state.modes)  # input-column slab entries per phase
        entries = per_point * data.draw(st.integers(1, 9)) + data.draw(st.integers(0, per_point - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quantum, "BLOCK_ENTRIES", entries)
            curve = correlation_curve(state, phis, n_modes=n)
        sgl, g2 = reference_curve(state, phis, n)
        assert np.array_equal(curve.singles, sgl)
        assert list(curve.g2) == list(g2)
        for pr, col in g2.items():
            assert np.array_equal(curve.g2[pr], col, equal_nan=True)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_singles_match_kind_chain(self, data):
        n = data.draw(st.integers(2, 16))
        state = data.draw(input_states(n))
        phis = np.linspace(-1.0, 8.0, data.draw(st.integers(1, 40)))
        for tm in (ideal_transfer(n, phis[0]), ideal_transfer(n, phis)):
            assert np.array_equal(singles(state, tm), _ref_singles(state, tm))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_port_array_matches_single_pairs(self, data):
        n = data.draw(st.integers(2, 16))
        state = data.draw(input_states(n, kinds=("squeezed_vacuum",)))
        all_pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        pairs = data.draw(st.lists(st.sampled_from(all_pairs), min_size=1, max_size=20))
        ports = np.array(pairs)
        phis = np.linspace(-1.0, 8.0, data.draw(st.integers(1, 40)))
        for tm in (ideal_transfer(n, phis[0]), ideal_transfer(n, phis)):
            got = (pair_coincidence(tm, state.modes, ports),
                   coincidence_squeezed(state, tm, ports))
            want = (np.stack([pair_coincidence(tm, state.modes, pr) for pr in pairs], -1),
                    np.stack([coincidence_squeezed(state, tm, pr) for pr in pairs], -1))
            for g, w in zip(got, want):
                assert g.shape == tm.entries.shape[:-2] + (len(pairs),)
                assert np.array_equal(g, w)

    def test_one_matrix_one_pair_is_a_float(self):
        state = InputState(kind="squeezed_vacuum", modes=(2, 4), zeta=0.6,
                           post_loss=(0.7, 1.0, 0.6, 0.9))
        one = ideal_transfer(4, 0.3)
        for ports in ((1, 3), [1, 3], np.array([1, 3])):
            assert type(pair_coincidence(one, (2, 4), ports)) is float
            assert type(coincidence_squeezed(state, one, ports)) is float
        assert pair_coincidence(one, (2, 4), np.array([[1, 3]])).shape == (1,)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_kind_kernels_on_a_slab_equal_the_observables(self, data):
        n = data.draw(st.integers(2, 16))
        state = data.draw(input_states(n))
        cols = [m - 1 for m in state.modes]
        kind = KINDS[state.kind]
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        port_list = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=20))
        lo = data.draw(st.floats(-1.0, 1.0))
        phis = np.linspace(lo, lo + data.draw(st.floats(0.5, 8.0)), data.draw(st.integers(1, 40)))
        for phi in (phis[0], phis):
            rows, row_map = ideal_rows(n, phi, cols)
            c, tm = rows[..., row_map, :], ideal_transfer(n, phi)
            # on all N rows, the row parts times the factors are the observables
            s = kind.singles(state, c)
            full = s if kind.channel_factor is None else kind.channel_factor(state, n) * s
            assert np.array_equal(full, singles(state, tm))
            if kind.coincidence is None:
                continue
            public = {
                "dual_coherent": lambda ports: _dual_product(singles(state, tm), ports),
                "photon_pair": lambda ports: pair_coincidence(tm, state.modes, ports),
                "squeezed_vacuum": lambda ports: coincidence_squeezed(state, tm, ports),
            }[state.kind]
            # one pair is a port axis of length one, which the observables drop
            for ports in (port_list[0], np.array(port_list)):
                i, j = quantum._port_indices(ports, n)
                got, want = kind.coincidence(state, c, s, i, j), public(ports)
                if kind.pair_factor is not None:
                    got = kind.pair_factor(state, n, i, j) * got
                if np.ndim(ports) == 1:
                    got = got[..., 0]
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("ports", [(1, 2, 3), [[1, 2, 3]], np.ones((2, 2, 2), int)])
    def test_bad_port_shape_raises(self, ports):
        stack = ideal_transfer(4, np.linspace(0.0, 1.0, 3))
        with pytest.raises(ValueError):
            pair_coincidence(stack, (1, 3), ports)


def fancy_index_ideal_columns(n_modes, phi, cols, row_map=None):
    """Columns ``cols`` of the ideal transfer as one fancy-index add and a
    ``moveaxis``, on the rows of ``row_map`` (every row for None): the
    reference for the bytes and strides of ``ideal_rows``' per-column form."""
    cols = list(cols)
    row_map = range(n_modes) if row_map is None else row_map
    phi = np.asarray(phi, dtype=float)
    c = np.empty((len(cols),) + phi.shape + (max(row_map) + 1,), dtype=complex)
    c[...] = np.asarray(q_coeff(n_modes, phi))[..., np.newaxis]
    c[np.arange(len(cols)), ..., [row_map[col] for col in cols]] += 1.0
    return np.moveaxis(c, 0, -1)


def fixed_state(kind, n):
    """One input state per kind on modes 1 and n, with losses on the squeezed vacuum."""
    if kind == "single_coherent":
        return InputState(kind=kind, modes=(n,), amplitude=1.3)
    if kind == "squeezed_vacuum":
        return InputState(kind=kind, modes=(n, 1), zeta=0.7j,
                          pre_loss=tuple(np.linspace(0.4, 1.0, n)),
                          post_loss=tuple(np.linspace(1.0, 0.5, n)))
    return InputState(kind=kind, modes=(1, n))


def assert_curve_is_reference(curve, state, phis, n):
    sgl, g2 = reference_curve(state, phis, n)
    assert curve.singles.shape == sgl.shape and curve.singles.tobytes() == sgl.tobytes()
    assert list(curve.g2) == list(g2)
    for pr, col in g2.items():
        assert curve.g2[pr].shape == col.shape and curve.g2[pr].tobytes() == col.tobytes()


class TestZeroPhaseReferenceRow:
    """correlation_curve's reference is row 0 of its first slab; every bit stays
    that of the one-matrix reference (``reference_curve``)."""

    @pytest.mark.parametrize("points", [0, 1])
    @pytest.mark.parametrize("n", [2, 3, 16])
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_empty_and_one_point_grids(self, kind, n, points):
        state = fixed_state(kind, n)
        phis = np.linspace(0.4, 1.1, points)
        assert_curve_is_reference(correlation_curve(state, phis, n_modes=n), state, phis, n)

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["block-1", "block", "block+1"])
    @pytest.mark.parametrize("n", [3, 16])
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_grids_around_one_block(self, kind, n, offset, monkeypatch):
        # at block - 1 phases the reference row fills the first slab exactly
        state = fixed_state(kind, n)
        block = quantum.BLOCK_ENTRIES // (n * len(state.modes))
        phis = np.linspace(-0.3, 2.5, block + offset)
        slabs = []

        def recorded(n_modes, phi, cols):
            slabs.append(np.array(phi))
            return ideal_rows(n_modes, phi, cols)

        monkeypatch.setattr(quantum, "ideal_rows", recorded)
        curve = correlation_curve(state, phis, n_modes=n)
        assert_curve_is_reference(curve, state, phis, n)
        assert [len(s) for s in slabs] == ([block] if offset < 0 else [block, offset + 1])
        assert slabs[0][0] == 0.0 and math.copysign(1.0, slabs[0][0]) == 1.0
        assert np.array_equal(np.concatenate(slabs)[1:], phis)
        assert max(len(s) * n * len(state.modes) for s in slabs) <= quantum.BLOCK_ENTRIES

    @pytest.mark.parametrize("points", [0, 1, 5])
    @pytest.mark.parametrize("state", [InputState(kind="dual_coherent", amplitude=0.0),
                                       InputState(kind="squeezed_vacuum", zeta=0.0)],
                             ids=["dual_coherent", "squeezed_vacuum"])
    def test_input_without_light_raises_the_same_text(self, state, points):
        text = (f"{state.kind} input carries no light: its zero-phase coincidence "
                "vanishes; cannot normalize")
        with pytest.raises(ValueError) as err:
            correlation_curve(state, np.linspace(0.1, 1.0, points))
        assert str(err.value) == text

    @given(st.integers(2, 16), st.data())
    @settings(max_examples=80, deadline=None)
    def test_ideal_columns_bytes_and_strides(self, n, data):
        cols = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        shape = data.draw(st.sampled_from([(), (1,), (7,), (3, 4)]))
        phi = np.asarray(data.draw(st.lists(st.floats(-8.0, 8.0), min_size=math.prod(shape),
                                            max_size=math.prod(shape)))).reshape(shape)
        got, row_map = ideal_rows(n, phi, cols)
        want = fancy_index_ideal_columns(n, phi, cols, row_map)
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()
        assert np.ascontiguousarray(got[..., row_map, :]).tobytes() == np.ascontiguousarray(
            fancy_index_ideal_columns(n, phi, cols)).tobytes()
        got, want = ideal_transfer(n, phi).entries, np.ascontiguousarray(
            fancy_index_ideal_columns(n, phi, range(n)))
        assert got.strides == want.strides and got.tobytes() == want.tobytes()

    @given(st.integers(2, 16), st.data())
    @settings(max_examples=80, deadline=None)
    def test_one_matrix_port_array_on_general_matrices(self, n, data):
        # a (K, 2) ports array on one general (non-ideal) matrix gives the bits of
        # its pairs one by one and of a stack of one
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        u = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * rng.uniform(0.1, 3.0)
        tm = TransferMatrix(entries=u, phi=0.0)
        state = data.draw(input_states(n, kinds=("squeezed_vacuum",)))
        all_pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        pairs = data.draw(st.lists(st.sampled_from(all_pairs), min_size=1, max_size=20))
        got = coincidence_squeezed(state, tm, np.array(pairs))
        per_pair = [coincidence_squeezed(state, tm, pr) for pr in pairs]
        stack = TransferMatrix(entries=u[np.newaxis], phi=np.zeros(1))
        stacked = coincidence_squeezed(state, stack, np.array(pairs))[0]
        kept = np.array([_ref_coincidence_squeezed(state, u, pr) for pr in pairs])
        assert got.shape == (len(pairs),)
        assert got.tobytes() == np.array(per_pair).tobytes() == stacked.tobytes()
        # The kept reference evaluates the same formula in numpy's scalar
        # arithmetic, which rounds differently by a few ulps per operation.  Only
        # cancellation in |ui1 uj2 + ui2 uj1| could amplify that, and the
        # non-negative uncorrelated term (at least 4 sinh^4|zeta| |ui1 uj2 ui2 uj1|)
        # caps the amplification near 1 / (2 sinh|zeta|), 10 at the smallest drawn
        # |zeta| of 0.05.  So 1e-13, about 900 ulps, is a wide bound: 60000 random
        # pairs differed by at most 10 ulps.
        assert np.all(np.abs(got - kept) <= 1e-13 * kept)


# correlation_curve as it was when every kernel ran on all N rows of the slab
# and on all K port pairs, kept verbatim with its kernels: the byte-for-byte
# reference for the distinct-row path.


def _full_squeezed_coincidence(state, c, ports):
    n = c.shape[-2]
    i, j = quantum._port_indices(ports, n)
    m1, m2 = (m - 1 for m in state.modes)
    t_pre = state.transmissions("pre_loss", n)
    t_post = state.transmissions("post_loss", n)
    t1, t2 = t_pre[m1], t_pre[m2]
    s2 = math.sinh(abs(state.zeta)) ** 2
    t_post2 = np.array([t**2 for t in t_post])
    prefac = t_post2[i] * t_post2[j] * t1**2 * t2**2
    ui1, uj1, ui2, uj2 = (c[..., ix[0], ix[1]] for ix in ((i, 0), (j, 0), (i, 1), (j, 1)))
    paired = np.abs(ui1 * uj2 + ui2 * uj1) ** 2 * (s2 + 2.0 * s2**2)
    uncorr = 2.0 * (
        np.abs(ui1) ** 2 * np.abs(uj1) ** 2 * (t1 / t2) ** 2
        + np.abs(ui2) ** 2 * np.abs(uj2) ** 2 * (t2 / t1) ** 2
    ) * s2**2
    return prefac * (paired + uncorr)


def _full_squeezed_singles(state, c):
    t_pre = state.transmissions("pre_loss", c.shape[-2])
    t_post = state.transmissions("post_loss", c.shape[-2])
    s2 = math.sinh(abs(state.zeta)) ** 2
    body = (np.abs(c * t_pre[[m - 1 for m in state.modes]]) ** 2).sum(axis=-1)
    return t_post**2 * s2 * body


def _full_pair_coincidence(c, ports):
    i, j = quantum._port_indices(ports, c.shape[-2])
    return np.abs(c[..., i, 0] * c[..., j, 1] + c[..., i, 1] * c[..., j, 0]) ** 2


def _full_dual_singles(state, c):
    if not state.phase_averaged:
        return state.amplitude**2 * np.abs(c[..., 0] + c[..., 1]) ** 2
    return state.amplitude**2 * (np.abs(c) ** 2).sum(axis=-1)


def _full_dual_coincidence(state, c, s, ports):
    i, j = quantum._port_indices(ports, c.shape[-2])
    return s[..., i] * s[..., j]


FULL_KERNELS = {
    "single_coherent": (lambda state, c: state.amplitude**2 * np.abs(c[..., 0]) ** 2, None),
    "dual_coherent": (_full_dual_singles, _full_dual_coincidence),
    "photon_pair": (lambda state, c: (np.abs(c) ** 2).sum(axis=-1),
                    lambda state, c, s, ports: _full_pair_coincidence(c, ports)),
    "squeezed_vacuum": (_full_squeezed_singles,
                        lambda state, c, s, ports: _full_squeezed_coincidence(state, c, ports)),
}


def full_slab_curve(state, phis, n_modes):
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1:
        raise ValueError(f"phis must be a 1-D array of phases, not shape {phis.shape}")
    cols = quantum._input_columns(state.modes, n_modes)
    kind_singles, kind_coincidence = FULL_KERNELS[state.kind]
    pairs = tuple((i, j) for i in range(1, n_modes + 1) for j in range(i + 1, n_modes + 1))
    ports = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2)
    grid = np.concatenate(([0.0], phis))
    sgl = np.empty((len(grid), n_modes))
    if kind_coincidence is None:
        table = np.full((len(grid), len(pairs)), np.nan)
    else:
        table = np.empty((len(grid), len(pairs)))
        in_pair = pairs.index((min(state.modes), max(state.modes)))
    block = max(1, quantum.BLOCK_ENTRIES // (n_modes * len(cols)))
    for start in range(0, len(grid), block):
        rows = slice(start, start + block)
        c, row_map = ideal_rows(n_modes, grid[rows], cols)
        c = c[..., row_map, :]
        s = sgl[rows] = kind_singles(state, c)
        if kind_coincidence is not None:
            raw = kind_coincidence(state, c, s, ports)
            if start == 0:
                ref = raw[0, in_pair]
                if ref == 0.0:
                    raise ValueError(f"{state.kind} input carries no light: its zero-phase "
                                     "coincidence vanishes; cannot normalize")
            table[rows] = raw / ref
    return quantum.CorrelationResult(phi=phis, singles=sgl[1:], g2=dict(zip(pairs, table[1:].T)))


def curve_or_error(curve, state, phis, n):
    """The curve's bytes and shapes, or its error's type and text."""
    try:
        out = curve(state, phis, n)
    except ValueError as exc:
        return type(exc), str(exc)
    return (out.phi.tobytes(), out.singles.shape, out.singles.tobytes(),
            [(pr, col.shape, col.tobytes()) for pr, col in out.g2.items()])


class TestDistinctRows:
    """correlation_curve runs its kernels on the distinct rows of each slab; every
    output byte and every error stays that of the full-slab curve."""

    @given(st.integers(2, 16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_curve_is_the_full_slab_curve(self, n, data):
        state = data.draw(input_states(n))
        if state.kind == "dual_coherent" and data.draw(st.booleans()):
            state = InputState(kind="dual_coherent", modes=state.modes, phase_averaged=False,
                               amplitude=data.draw(st.sampled_from([0.0, 1.3])))
        if state.kind == "squeezed_vacuum" and data.draw(st.booleans()):
            # a loss tuple of the wrong length, or no light
            state = InputState(kind="squeezed_vacuum", modes=state.modes[::-1],
                               zeta=data.draw(st.sampled_from([0.0, 0.4j])),
                               pre_loss=state.pre_loss[:data.draw(st.sampled_from([1, n]))],
                               post_loss=state.post_loss[:data.draw(st.sampled_from([1, n]))])
        lo = data.draw(st.floats(-1.0, 1.0))
        phis = np.linspace(lo, lo + data.draw(st.floats(0.5, 8.0)), data.draw(st.integers(0, 80)))
        # blocks of 1 to 9 phases, so most grids cross block boundaries
        per_point = n * len(state.modes)
        entries = per_point * data.draw(st.integers(1, 9)) + data.draw(st.integers(0, per_point - 1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quantum, "BLOCK_ENTRIES", entries)
            got = curve_or_error(correlation_curve, state, phis, n)
            want = curve_or_error(full_slab_curve, state, phis, n)
        assert got == want

    @pytest.mark.parametrize("n", [2, 3, 8, 16])
    @pytest.mark.parametrize("kind", INPUT_KINDS)
    def test_block_slabs_hold_the_distinct_rows(self, kind, n, monkeypatch):
        state = fixed_state(kind, n)
        k = len(state.modes)
        block = quantum.BLOCK_ENTRIES // (n * k)
        phis = np.linspace(-0.3, 2.5, block + 3)
        slabs = []

        def recorded(n_modes, phi, cols):
            c, row_map = ideal_rows(n_modes, phi, cols)
            slabs.append((len(phi), c.shape, row_map))
            return c, row_map

        monkeypatch.setattr(quantum, "ideal_rows", recorded)
        assert_curve_is_reference(correlation_curve(state, phis, n_modes=n), state, phis, n)
        rows = k + 1 if n > k else n
        assert [points for points, _, _ in slabs] == [block, 4]
        assert all(shape == (points, rows, k) for points, shape, _ in slabs)
        assert all(points * n * k <= quantum.BLOCK_ENTRIES for points, _, _ in slabs)
        row_map = slabs[0][2]
        assert sorted(set(row_map)) == list(range(rows))
        assert (row_map == tuple(range(n))) == (rows == n)

    def test_one_mode_is_rejected(self):
        with pytest.raises(ValueError, match=r"^n_modes must be an integer >= 2, got 1$"):
            correlation_curve(InputState(kind="single_coherent", modes=(1,)), PHI_GRID, n_modes=1)

    @pytest.mark.parametrize("n_modes", [3.0, True])
    def test_n_modes_must_be_an_integer(self, n_modes):
        with pytest.raises(ValueError, match=rf"^n_modes must be an integer >= 2, got {n_modes}$"):
            correlation_curve(InputState(kind="photon_pair"), PHI_GRID, n_modes=n_modes)

    @pytest.mark.parametrize("name", ["pre_loss", "post_loss"])
    def test_loss_of_the_wrong_length_is_rejected(self, name):
        state = InputState(kind="squeezed_vacuum", modes=(2, 5), zeta=0.5, **{name: (0.9,) * 7})
        with pytest.raises(ValueError, match=f"{name} must supply one transmission per channel"):
            correlation_curve(state, PHI_GRID, n_modes=8)


class TestOneMatrixIsAStackOfOne:
    """One matrix runs the kernels of a stack: every observable gives the bits of
    a stack of one, and one matrix with one pair a float."""

    @given(st.integers(2, 16), st.data())
    @settings(max_examples=40, deadline=None)
    def test_observables_equal_a_stack_of_one(self, n, data):
        if data.draw(st.booleans()):
            u = ideal_transfer(n, data.draw(st.floats(-8.0, 8.0))).entries
        else:
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
            u = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * rng.uniform(0.1, 3.0)
        one = TransferMatrix(entries=u, phi=0.0)
        stack = TransferMatrix(entries=u[np.newaxis], phi=np.zeros(1))
        squeezed = data.draw(input_states(n, kinds=("squeezed_vacuum",)))
        state = data.draw(input_states(n))
        channels = st.integers(1, n)
        pairs = data.draw(st.lists(st.tuples(channels, channels), min_size=1, max_size=20))
        for observable in (lambda tm, ports: pair_coincidence(tm, squeezed.modes, ports),
                           lambda tm, ports: coincidence_squeezed(squeezed, tm, ports)):
            assert type(observable(one, pairs[0])) is float
            for ports in (pairs[0], np.array(pairs)):
                got, want = observable(one, ports), observable(stack, ports)[0]
                assert np.shape(got) == np.shape(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        got, want = singles(state, one), singles(state, stack)[0]
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestOutputPortRange:
    """Output ports are channels 1..N: port 0 or -1 would read a channel from
    the end through numpy's negative index, and N + 1 lies past the last one."""

    STATE = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4,
                       post_loss=(0.7, 1.0, 0.6, 0.9))

    @pytest.mark.parametrize("form", ["pair", "array"])
    @pytest.mark.parametrize("matrix", ["one", "stack"])
    @pytest.mark.parametrize("port", [0, -1, 5])
    def test_port_outside_the_channels_is_rejected(self, port, matrix, form):
        tm = ideal_transfer(4, 0.3 if matrix == "one" else np.linspace(0.1, 0.5, 3))
        ports = (port, 3) if form == "pair" else np.array([[1, 2], [3, port]])
        text = rf"output ports \[{port}\] must lie in 1\.\.4, the channels"
        with pytest.raises(ValueError, match=text):
            pair_coincidence(tm, (1, 3), ports)
        with pytest.raises(ValueError, match=text):
            coincidence_squeezed(self.STATE, tm, ports)

    @pytest.mark.parametrize("matrix", ["one", "stack"])
    @pytest.mark.parametrize("port", [0, -1, 5])
    def test_g2_squeezed_full_rejects_the_port(self, port, matrix):
        tm = ideal_transfer(4, 0.3 if matrix == "one" else np.linspace(0.1, 0.5, 3))
        with pytest.raises(ValueError, match=rf"output ports \[{port}\] must lie in 1\.\.4"):
            g2_squeezed_full(self.STATE, tm, (port, 3))

    @pytest.mark.parametrize("ports", [(1.5, 3), (1.0, 3.0), [[1, 2], [3.0, 4]]],
                             ids=["fraction", "integral-floats", "float-array"])
    def test_non_integer_ports_rejected(self, ports):
        # numpy would raise IndexError: arrays used as indices must be of integer type
        tm = ideal_transfer(4, 0.3)
        with pytest.raises(ValueError, match="output ports must be integers, not dtype float64"):
            pair_coincidence(tm, (1, 3), ports)
        with pytest.raises(ValueError, match="output ports must be integers"):
            coincidence_squeezed(self.STATE, tm, ports)
