"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Each test prints a single summary line (visible with ``pytest -s`` or on
failure) and asserts the criterion at its stated tolerance.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from nwaybs.dispersion import DispersionProfile, nonlinear_mismatch, symmetric_grid
from nwaybs.fitting import fit_phase_scale, fit_zeta
from nwaybs.oracle import loss_chain, wick_moments
from nwaybs.propagation import IntegratorSettings, integrate_weak, rk4_integrate
from nwaybs.quantum import (
    InputState,
    correlation_curve,
    g2_dual_coherent,
    g2_multiphoton,
    g2_photon_pair,
    g2_squeezed_full,
    multiphoton_scaling_curve,
    pair_coincidence,
    singles,
)
from nwaybs.transfer import (
    PumpConfig,
    general_transfer,
    ideal_transfer,
    loss_reduced_phase,
    lossy_transfer,
    p_coeff,
    q_coeff,
    to_lab_frame,
)
from nwaybs.cli import main

W0 = 2 * math.pi * 233e12


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_tritter():
    t0 = time.perf_counter()
    tm = ideal_transfer(3, 2 * math.pi / 9)
    elapsed = time.perf_counter() - t0
    worst = float(np.max(np.abs(np.abs(tm.entries) ** 2 - 1 / 3)))
    ok = worst < 1e-12 and elapsed < 1e-3
    report(1, ok, f"tritter |U_ij|^2 within {worst:.2e} of 1/3 in {elapsed * 1e3:.3f} ms")


def test_criterion_02_table_one():
    t0 = time.perf_counter()
    phis = np.linspace(0, 2 * math.pi / 3, 200)
    dual = InputState(kind="dual_coherent", modes=(1, 3))
    worst = 0.0
    p = p_coeff(3, phis)
    q = q_coeff(3, phis)
    q2 = np.abs(q) ** 2
    for k, phi in enumerate(phis):
        s = singles(dual, ideal_transfer(3, phi))
        worst = max(worst, abs(s[0] - (1 - q2[k])), abs(s[1] - 2 * q2[k]),
                    abs(s[2] - (1 - q2[k])))
    g13, g12 = g2_photon_pair(phis)
    worst = max(worst, float(np.max(np.abs(g13 - np.abs(p**2 + q**2) ** 2))))
    worst = max(worst, float(np.max(np.abs(g12 - np.abs(p * q + q**2) ** 2))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 0.1
    report(2, ok, f"dual singles and pair g2 match stated forms to {worst:.2e} "
                  f"in {elapsed:.3f} s")


def test_criterion_03_hom_null():
    t0 = time.perf_counter()
    coinc = pair_coincidence(ideal_transfer(2, math.pi / 4),
                             in_modes=(1, 2), ports=(1, 2))
    elapsed = time.perf_counter() - t0
    ok = coinc < 1e-24 and elapsed < 1e-3
    report(3, ok, f"N=2 coincidence at phi=pi/4 is {coinc:.2e} in {elapsed * 1e3:.3f} ms")


def test_criterion_04_quantum_classical_contrast():
    t0 = time.perf_counter()

    def g13(phi):
        return float(g2_photon_pair(phi)[0])

    # dense scan then bounded refinement of the pair-coincidence minimum
    phis = np.linspace(0.0, 2 * math.pi / 3, 20001)
    coarse = np.asarray(g2_photon_pair(phis)[0])
    k = int(np.argmin(coarse))
    res = minimize_scalar(g13, bounds=(phis[k - 1], phis[k + 1]), method="bounded",
                          options={"xatol": 1e-12})
    min_val = float(res.fun)
    cos3 = math.cos(3 * float(res.x))
    classical_tritter = float(g2_dual_coherent(2 * math.pi / 9))
    interior = np.linspace(1e-4, 2 * math.pi / 3 - 1e-4, 5001)
    below = np.all(np.asarray(g2_photon_pair(interior)[0])
                   <= g2_dual_coherent(interior) + 1e-12)
    elapsed = time.perf_counter() - t0
    ok = (abs(min_val - 0.1) < 1e-6 and abs(cos3 - (-0.35)) < 1e-6
          and abs(classical_tritter - 4 / 9) < 1e-12 and below and elapsed < 0.1)
    report(4, ok, f"pair g2 minimum {min_val:.8f} at cos3phi={cos3:.8f}; "
                  f"classical tritter {classical_tritter:.6f}; quantum<=classical: {below}")


def test_criterion_05_classical_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 5))
        length = float(rng.uniform(50, 150))
        gamma = float(rng.uniform(1e-3, 3e-3))
        prof = DispersionProfile(omega0=W0, beta_coeffs=(0.0,), gamma=gamma,
                                 length=length)
        grid = symmetric_grid(W0, list((1 + np.arange(n)) * 1e12))
        if rng.random() < 0.5:
            power = float(rng.uniform(0.1, 1.0))
            powers = (power,) * n
        else:
            powers = tuple(rng.uniform(0.1, 1.0, n))
        pumps = PumpConfig(powers=powers)
        settings = IntegratorSettings(step=length / 1000)
        mismatch = nonlinear_mismatch(prof, grid, powers)
        tm = general_transfer(prof, pumps, mismatch, absorb_global_phase=False)
        lab = to_lab_frame(tm.entries, prof, grid, pumps, length)
        seed_amp = math.sqrt(1e-6 * min(powers))  # -60 dB of the pump power
        col = int(rng.integers(0, n))
        b0 = np.zeros(n, dtype=complex)
        b0[col] = seed_amp
        out = integrate_weak(prof, grid, pumps, b0, settings)
        worst = max(worst, float(np.max(np.abs(out - lab @ b0)) / seed_amp))

    # RK4 order on the dk = 0 case: error vs analytic halves ~16x per step halving
    prof = DispersionProfile(omega0=W0, beta_coeffs=(0.0,), gamma=2e-3, length=100.0)
    grid = symmetric_grid(W0, [1e12, 2e12, 3e12])
    P = 0.7
    pumps = PumpConfig(powers=(P, P, P))
    tm = general_transfer(prof, pumps, absorb_global_phase=False)
    lab = to_lab_frame(tm.entries, prof, grid, pumps, prof.length)
    seed_amp = math.sqrt(1e-7 * P)
    b0 = np.array([seed_amp, 0, 0], dtype=complex)
    errs = []
    for n_steps in (200, 400):
        s = IntegratorSettings(step=prof.length / n_steps, richardson_check=False)
        out = integrate_weak(prof, grid, pumps, b0, s)
        errs.append(float(np.max(np.abs(out - lab @ b0))))
    order = math.log2(errs[0] / errs[1])
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and order >= 3.8 and elapsed < 30
    report(5, ok, f"ODE vs transfer max rel err {worst:.2e} over 20 configs; "
                  f"RK4 order {order:.2f}; {elapsed:.1f} s")


def test_criterion_06_loss_rescaling():
    t0 = time.perf_counter()
    P = 0.7
    pumps = PumpConfig(powers=(P, P, P))
    worst = 0.0
    for alpha_L in (0.005, 0.05):
        prof = DispersionProfile(omega0=W0, beta_coeffs=(0.0,), gamma=2e-3,
                                 length=100.0, alpha=alpha_L / 100.0)
        for z in np.linspace(2.0, 100.0, 50):
            tm = lossy_transfer(prof, pumps, z=z)
            rescaled = np.abs(tm.entries) ** 2 * math.exp(2 * prof.alpha * z)
            lossless = np.abs(ideal_transfer(3, tm.phi).entries) ** 2
            worst = max(worst, float(np.max(np.abs(rescaled - lossless))))

    # reference fiber: 0.43 dB/km over 100 m -> field alpha L = ln(10)*0.043/20
    alpha_L = math.log(10) * 0.043 / 20.0
    vertical = 1.0 - math.exp(-2 * alpha_L)
    nlp = loss_reduced_phase(1.0, 0.5, alpha_L / 100.0, 100.0)
    horizontal = 1.0 - nlp.phi_alpha / nlp.phi
    # frozen reference values, computed independently from the alpha-L above
    ok_scales = (vertical == pytest.approx(9.8522e-3, rel=5e-4)
                 and horizontal == pytest.approx(4.9343e-3, rel=5e-4))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-9 and ok_scales and elapsed < 1.0
    report(6, ok, f"rescaled lossy intensities match lossless to {worst:.2e}; "
                  f"reference-scale corrections vertical {vertical * 100:.3f}% "
                  f"horizontal {horizontal * 100:.3f}%")


def test_criterion_07_quantum_oracle():
    t0 = time.perf_counter()
    phis = np.linspace(0, 2 * math.pi / 3, 50)
    worst = 0.0
    # zeta = 0 is represented by 1e-8: the normalized ratio is 0/0 at exact
    # zero (vacuum in, vacuum out); see the decisions ledger
    for zeta in (1e-8, 0.1, 0.4, 1.0):
        for t1 in (0.3, 0.6, 1.0):
            for t3 in (0.3, 0.6, 1.0):
                t_pre = (t1, 1.0, t3)
                state = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=zeta,
                                   pre_loss=t_pre)
                ref_chain = loss_chain(3, zeta, ideal_transfer(3, 0.0).entries,
                                       t_pre=t_pre)
                ref = wick_moments(ref_chain, ports=(1, 3))[2]
                for phi in phis:
                    tm = ideal_transfer(3, phi)
                    chain = loss_chain(3, zeta, tm.entries, t_pre=t_pre)
                    g2 = wick_moments(chain, ports=(1, 3))[2] / ref
                    closed = float(g2_multiphoton(phi, zeta, t1, t3))
                    worst = max(worst, abs(g2 - closed) / abs(closed))

    # post-loss cancellation in the normalized g2
    rng = np.random.default_rng(1)
    cancel_worst = 0.0
    base = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4,
                      pre_loss=(0.6, 1.0, 0.9))
    for _ in range(20):
        t_post = tuple(rng.uniform(0.3, 1.0, 3))
        lossy = InputState(kind="squeezed_vacuum", modes=(1, 3), zeta=0.4,
                           pre_loss=(0.6, 1.0, 0.9), post_loss=t_post)
        phi = rng.uniform(0.05, 2 * math.pi / 3)
        tm = ideal_transfer(3, phi)
        cancel_worst = max(cancel_worst, abs(g2_squeezed_full(lossy, tm)
                                             - g2_squeezed_full(base, tm)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and cancel_worst < 1e-12 and elapsed < 10
    report(7, ok, f"Wick vs closed form max rel err {worst:.2e}; post-loss "
                  f"cancellation residual {cancel_worst:.2e}; {elapsed:.1f} s")


def test_criterion_08_multiphoton_scaling():
    t0 = time.perf_counter()
    zg = np.linspace(0.05, 0.2, 60)
    curve = multiphoton_scaling_curve(zg)
    logs = np.log(curve["sinh2"])
    slope_pair = float(np.polyfit(logs, np.log(curve["pair"]), 1)[0])
    slope_mult = float(np.polyfit(logs, np.log(curve["mult"]), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = abs(slope_pair - 1.0) <= 0.02 and abs(slope_mult - 2.0) <= 0.05 and elapsed < 1
    report(8, ok, f"log-log slopes: pair {slope_pair:.4f} (target 1.00 +/- 0.02), "
                  f"multiphoton {slope_mult:.4f} (target 2.00 +/- 0.05)")


def test_criterion_09_fit_closed_loop():
    t0 = time.perf_counter()
    kappa = 0.7
    powers = np.linspace(0, 2 * math.pi / 3 / kappa, 30)
    state = InputState(kind="single_coherent", modes=(1,))
    model = correlation_curve(state, kappa * powers).singles[:, 0]
    kappa_errs = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = model * (1 + 0.01 * rng.standard_normal(len(model)))
        fit = fit_phase_scale(powers, noisy)
        kappa_errs.append(abs(fit.phase_scale - kappa) / kappa)
    kappa_median = float(np.median(kappa_errs))

    # dense sweep: the two fit parameters are nearly degenerate at small
    # sinh^2, so many power points are needed to constrain the curvature
    zg = np.linspace(0.05, 0.4, 600)
    ratio_curve = multiphoton_scaling_curve(zg)
    zeta_errs = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        noisy = ratio_curve["ratio"] * (1 + 0.05 * rng.standard_normal(len(zg)))
        fit = fit_zeta(0.5 * ratio_curve["sinh2"], np.clip(noisy, 0.0, 1.0))
        zeta_errs.append(abs(fit.zeta - 0.4) / 0.4)
    zeta_median = float(np.median(zeta_errs))
    elapsed = time.perf_counter() - t0
    ok = kappa_median < 0.01 and zeta_median < 0.05 and elapsed < 60
    report(9, ok, f"median kappa error {kappa_median * 100:.3f}% (limit 1%); "
                  f"median zeta error {zeta_median * 100:.2f}% (limit 5%); "
                  f"{elapsed:.1f} s")


def test_criterion_10_determinism(tmp_path):
    import json

    cfg = {
        "n_modes": 3,
        "input": {"kind": "photon_pair", "modes": [1, 3]},
        "sweep": {"phi_min": 0.0, "phi_max": 2 * math.pi / 3, "steps": 101},
        "seed": 42,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(s1)]) == 0
    assert main(["sweep", "--config", str(cfg_path), "--out", str(s2)]) == 0
    sweep_ok = s1.read_bytes() == s2.read_bytes()

    kappa = 0.9
    powers = np.linspace(0, 2 * math.pi / 3 / kappa, 30)
    rng = np.random.default_rng(11)
    vals = np.abs(p_coeff(3, kappa * powers)) ** 2 * (
        1 + 0.01 * rng.standard_normal(len(powers))
    )
    data = tmp_path / "curve.csv"
    data.write_text("power_w,value\n" + "\n".join(
        f"{p:.17g},{v:.17g}" for p, v in zip(powers, vals)) + "\n")
    f1, f2 = tmp_path / "f1.txt", tmp_path / "f2.txt"
    assert main(["fit", "--data", str(data), "--model", "pair", "--out", str(f1)]) == 0
    assert main(["fit", "--data", str(data), "--model", "pair", "--out", str(f2)]) == 0
    fit_ok = f1.read_bytes() == f2.read_bytes()
    report(10, sweep_ok and fit_ok,
           f"sweep byte-identical: {sweep_ok}; fit byte-identical: {fit_ok}")
