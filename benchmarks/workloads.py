"""In-process workloads: sweep, verify and calibrate.

Each workload hands out its tasks one cycle at a time.  A cycle is a fixed
list of task shapes (input kind, N, grid size, check type) whose order and
numeric parameters are drawn from the workload seed; only the shapes set
the cost, so every seed measures the same mix.  A run always completes
whole cycles, so the mix inside a run does not depend on where the clock
stopped.

Tasks call the package through module attributes looked up at call time
(``quantum.correlation_curve``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from nwaybs import dispersion, fitting, oracle, propagation, quantum, transfer

import yardstick
from checks import (
    Health,
    check_curve_closed_form,
    check_curve_wick,
    close_abs,
    close_rel,
    expect,
    ideal_matrix,
    squeezed_fock_pair_amplitude,
    transfer_health,
)

W0 = 2 * math.pi * 233e12  # carrier, rad/s


@dataclass
class Task:
    """One unit of timed work: ``run`` is timed, ``check`` is not."""

    shape: str
    run: Callable[[], object]
    check: Callable[[object, Health], None]


class Workload:
    name = ""
    tracer = None  # the worker's Tracer during traced passes (cli spans its children)
    yardstick_nominal_s = yardstick.NOMINAL_S

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def shapes(self) -> list:
        raise NotImplementedError

    def make_task(self, shape) -> Task:
        raise NotImplementedError

    def time_yardstick(self) -> float:
        """Seconds the machine takes right now for a fixed reference job."""
        return yardstick.time_kernel()

    def cycle(self) -> list[Task]:
        shapes = self.shapes()
        order = self.rng.permutation(len(shapes))
        return [self.make_task(shapes[i]) for i in order]

    def finish(self) -> list[str]:
        """Run-level checks over all completed tasks; returns failure messages."""
        return []


# ---------------------------------------------------------------------------
# sweep: correlation curves over phase grids


class Sweep(Workload):
    """One ``quantum.correlation_curve`` per task, all input kinds, N in {3, 8, 16}.

    Grid sizes are set per (kind, N) so that a cycle costs about 1.4 s and
    tasks span 101..2001 points.  The 15 shapes fall in three cost bands of
    five: the median lies inside the middle band, whose shapes all cost
    about the same, so it does not jump between shapes of different cost.
    """

    name = "sweep"
    SHAPES = [
        # cheap band
        ("single_coherent", 3, 101), ("photon_pair", 3, 101), ("squeezed_vacuum", 3, 101),
        ("single_coherent", 8, 1001), ("single_coherent", 16, 2001),
        # middle band, of similar cost (about 90 ms each on a 2 GHz Xeon core)
        ("photon_pair", 3, 2001), ("dual_coherent", 8, 201), ("photon_pair", 8, 501),
        ("dual_coherent", 3, 1401), ("squeezed_vacuum", 3, 1001),
        # costly band
        ("squeezed_vacuum", 8, 201), ("dual_coherent", 3, 2001), ("photon_pair", 16, 201),
        ("dual_coherent", 16, 101), ("squeezed_vacuum", 16, 101),
    ]

    def shapes(self):
        return self.SHAPES

    def make_state(self, kind: str, n: int):
        rng = self.rng
        if kind == "single_coherent":
            modes = (int(rng.integers(1, n + 1)),)
        else:
            modes = tuple(int(m) + 1 for m in rng.choice(n, size=2, replace=False))
        kwargs = {}
        if kind in ("single_coherent", "dual_coherent"):
            kwargs["amplitude"] = float(rng.uniform(0.2, 2.0))
        if kind == "squeezed_vacuum":
            phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
            kwargs["zeta"] = complex(rng.uniform(0.1, 1.0) * phase)
            kwargs["pre_loss"] = tuple(rng.uniform(0.3, 1.0, n))
            kwargs["post_loss"] = tuple(rng.uniform(0.3, 1.0, n))
        return quantum.InputState(kind=kind, modes=modes, **kwargs)

    def make_phis(self, n: int, points: int) -> np.ndarray:
        phi_min = self.rng.uniform(0.0, 0.2)
        phi_max = phi_min + self.rng.uniform(0.5, 1.5) * 2 * math.pi / n
        return np.linspace(phi_min, phi_max, points)

    def make_task(self, shape) -> Task:
        kind, n, points = shape
        state = self.make_state(kind, n)
        phis = self.make_phis(n, points)
        samples = sorted(self.rng.choice(np.arange(1, points), size=3, replace=False))

        def run():
            return quantum.correlation_curve(state, phis, n_modes=n)

        def check(curve, health):
            if kind == "squeezed_vacuum":
                check_curve_wick(state, n, phis, curve, samples, health)
            else:
                check_curve_closed_form(state, n, phis, curve)
            transfer_health(n, phis[samples[0]], health)

        return Task(f"sweep.{kind}.N{n}.P{points}", run, check)


# ---------------------------------------------------------------------------
# verify: oracle cross-checks


def symmetric_offsets(n: int, spacing: float) -> list[float]:
    return [spacing * (k + 1) for k in range(n)]


class Verify(Workload):
    """Closed forms against the RK4, full-FWM, Wick, Fock and Monte-Carlo oracles.

    Ten RK4 weak-field columns (step L/500, Richardson on) cover matched,
    mismatched (beta3/beta4 profile), unequal-power and lossy configs for
    N = 2..8; with the full-FWM task they form the costly band that holds
    the median.  The full-FWM reference uses three pumps at offsets whose
    only energy-conserving closures are the Bragg-scattering ones, so the
    linearized closed form applies.
    """

    name = "verify"
    SHAPES = [
        ("weak", "matched", 2), ("weak", "matched", 6),
        ("weak", "mismatched", 3), ("weak", "mismatched", 5), ("weak", "mismatched", 8),
        ("weak", "unequal", 4), ("weak", "unequal", 7),
        ("weak", "lossy", 3), ("weak", "lossy", 5), ("weak", "lossy", 6),
        ("full_fwm", None, 3),
        ("wick", None, 3), ("wick", None, 4), ("fock", None, 4), ("mc", None, 5),
    ]
    RK4_DIVISIONS = 500
    FWM_DIVISIONS = 100
    FWM_OFFSETS = (1.3e12, 2.9e12, 4.1e12)  # rad/s; no parasitic closures

    def shapes(self):
        return self.SHAPES

    def make_task(self, shape) -> Task:
        check_type, variant, n = shape
        builder = getattr(self, f"task_{check_type}")
        run, check = builder(variant, n) if check_type == "weak" else builder(n)
        label = f"{check_type}.{variant}" if variant else check_type
        return Task(f"verify.{label}.N{n}", run, check)

    def task_weak(self, variant: str, n: int) -> tuple:
        rng = self.rng
        gamma = float(rng.uniform(1e-3, 3e-3))
        length = float(rng.uniform(50.0, 150.0))
        power = float(rng.uniform(0.1, 1.0))
        alpha = 0.0
        if variant == "lossy":
            # the tier-1 lossy operating point, where its 1e-9 tolerance holds at
            # this step; stronger pumps need a finer step (RK4 error ~ step^4)
            gamma, length, power = 2e-3, 100.0, 0.7
            alpha = float(rng.uniform(0.005, 0.05)) / length
        powers = tuple(rng.uniform(0.1, 1.0, n)) if variant == "unequal" else (power,) * n
        phases = tuple(rng.uniform(0, 2 * math.pi, n))
        spacing = 2 * math.pi * float(rng.uniform(0.3, 0.7)) * 1e12
        beta = (0.0,)
        center_shift = 0.0
        if variant == "mismatched":
            beta = (0.0, 0.0, float(rng.uniform(0.5, 2.0)) * 1e-28,
                    float(rng.uniform(0.5, 2.0)) * 1e-40, float(rng.uniform(0.5, 2.0)) * 1e-55)
            center_shift = 2 * math.pi * float(rng.uniform(-0.05, 0.05)) * 1e12
        column = int(rng.integers(0, n))
        settings = propagation.IntegratorSettings(step=length / self.RK4_DIVISIONS)

        def run():
            profile = dispersion.DispersionProfile(omega0=W0, beta_coeffs=beta, gamma=gamma,
                                                   length=length, alpha=alpha)
            center = dispersion.find_zgvd(profile) + center_shift if variant == "mismatched" else W0
            grid = dispersion.symmetric_grid(center, symmetric_offsets(n, spacing))
            pumps = transfer.PumpConfig(powers=powers, phases=phases)
            seed_amp = math.sqrt(1e-7 * min(powers))
            b0 = np.zeros(n, dtype=complex)
            b0[column] = seed_amp
            numeric = propagation.integrate_weak(profile, grid, pumps, b0, settings)
            if variant == "lossy":
                tm = transfer.lossy_transfer(profile, pumps)
                lab = tm.entries
            else:
                mismatch = dispersion.nonlinear_mismatch(profile, grid, pumps.powers)
                tm = transfer.general_transfer(profile, pumps, mismatch, absorb_global_phase=False)
                lab = transfer.to_lab_frame(tm.entries, profile, grid, pumps, length)
            return numeric, lab @ b0, seed_amp, tm

        def check(out, health):
            numeric, analytic, seed_amp, tm = out
            res = tm.unitarity_residual()
            health.record_max("transfer.unitarity_residual_max", res)
            expect(res < 1e-12, f"unitarity residual {res:.3e}")
            # tier-1: 1e-9 against the lossy closed form, 1e-6 otherwise
            tol = 1e-9 if variant == "lossy" else 1e-6
            err = float(np.max(np.abs(numeric - analytic)) / seed_amp)
            expect(err < tol, f"RK4 vs closed form {err:.3e} >= {tol:g}")

        return run, check

    def task_full_fwm(self, n: int) -> tuple:
        rng = self.rng
        gamma = float(rng.uniform(1e-3, 3e-3))
        length = float(rng.uniform(50.0, 150.0))
        power = float(rng.uniform(0.2, 0.6))
        column = int(rng.integers(0, n))
        settings = propagation.IntegratorSettings(step=length / self.FWM_DIVISIONS)

        def run():
            profile = dispersion.DispersionProfile(omega0=W0, beta_coeffs=(0.0,), gamma=gamma,
                                                   length=length)
            grid = dispersion.symmetric_grid(W0, self.FWM_OFFSETS)
            pumps = transfer.PumpConfig(powers=(power,) * n)
            seed_amp = math.sqrt(1e-6 * power)  # -60 dB, as in the tier-1 check
            b0 = np.zeros(n, dtype=complex)
            b0[column] = seed_amp
            freqs = list(grid.pump_freqs) + list(grid.weak_freqs)
            amps = np.concatenate([pumps.amplitudes, b0])
            full = propagation.full_fwm_reference(profile, freqs, amps, settings)
            mismatch = dispersion.nonlinear_mismatch(profile, grid, pumps.powers)
            tm = transfer.general_transfer(profile, pumps, mismatch, absorb_global_phase=False)
            lab = transfer.to_lab_frame(tm.entries, profile, grid, pumps, length)
            return full[n:], lab @ b0, seed_amp

        def check(out, health):
            full, linear, seed_amp = out
            err = float(np.max(np.abs(full - linear)) / seed_amp)
            expect(err < 1e-5, f"full FWM vs linearized {err:.3e} >= 1e-05")

        return run, check

    def task_wick(self, n: int) -> tuple:
        rng = self.rng
        zeta = float(rng.choice([1e-8, 0.1, 0.4, 1.0]))
        t_pre = tuple(rng.uniform(0.3, 1.0, n))
        t_post = tuple(rng.uniform(0.3, 1.0, n))
        modes = (1, 3)
        phis = np.linspace(0.0, 2 * math.pi / n, 25)

        def run():
            state = quantum.InputState(kind="squeezed_vacuum", modes=modes, zeta=zeta,
                                       pre_loss=t_pre, post_loss=t_post)
            identity = transfer.ideal_transfer(n, 0.0).entries
            ref = oracle.wick_moments(oracle.loss_chain(n, zeta, identity, t_pre, t_post, modes),
                                      ports=modes)[2]
            rows = []
            for phi in phis:
                tm = transfer.ideal_transfer(n, phi)
                chain = oracle.loss_chain(n, zeta, tm.entries, t_pre, t_post, modes)
                n1, n3, g2 = oracle.wick_moments(chain, ports=modes)
                rows.append((chain, n1, n3, g2 / ref, quantum.singles(state, tm),
                             quantum.g2_squeezed_full(state, tm, ports=modes)))
            return rows

        def check(rows, health):
            for chain, n1, n3, wick_g2, singles, closed in rows:
                health.record_max("oracle.symplectic_residual_max", chain.symplectic_residual())
                close_rel([n1, n3], [singles[0], singles[2]], 1e-10, "Wick singles")
                close_rel(wick_g2, closed, 1e-10, "Wick g2 vs g2_squeezed_full")

        return run, check

    def task_fock(self, n: int) -> tuple:
        rng = self.rng
        phis = rng.uniform(0.05, 2 * math.pi / n, 6)
        zeta = complex(rng.uniform(0.1, 0.4) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        modes = (1, 3)
        occupation = tuple(1 if k + 1 in modes else 0 for k in range(n))
        ports = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]

        def run():
            rows = []
            squeezed = oracle.two_mode_squeezed_fock(zeta, n_modes=n, modes=modes, cutoff=6)
            for phi in phis:
                tm = transfer.ideal_transfer(n, phi)
                pair_out = oracle.fock_evolve(oracle.fock_basis_state(occupation, n), tm.entries)
                closed = [quantum.pair_coincidence(tm, modes, pr) for pr in ports]
                sq_out = oracle.fock_evolve(squeezed, tm.entries)
                rows.append((phi, pair_out, closed, sq_out))
            return rows

        def check(rows, health):
            for phi, pair_out, closed, sq_out in rows:
                probs = []
                for (i, j) in ports:
                    occ = [0] * n
                    occ[i - 1] += 1
                    occ[j - 1] += 1
                    probs.append(pair_out.probability(occ))
                close_abs(probs, closed, 1e-12, "Fock vs pair_coincidence")
                close_abs(pair_out.norm(), 1.0, 1e-12, "Fock pair norm")
                tail = sq_out.tail_probability
                health.record_max("oracle.fock_tail_max", tail)
                close_abs(sq_out.norm() ** 2 + tail, 1.0, 1e-12, "squeezed Fock norm + tail")
                want = squeezed_fock_pair_amplitude(zeta, ideal_matrix(n, phi), modes)
                close_abs(sq_out.amplitude(occupation), want, 1e-12, "squeezed Fock pair amplitude")

        return run, check

    def task_mc(self, n: int) -> tuple:
        rng = self.rng
        nu = float(rng.uniform(0.1, 0.3))
        phi = float(rng.uniform(0.05, 2 * math.pi / n))
        mc_seed = int(rng.integers(0, 2**31 - 1))
        samples = 20000
        modes = (1, 3)

        def run():
            return oracle.mc_phase_average(nu, transfer.ideal_transfer(n, phi),
                                           modes=modes, samples=samples, seed=mc_seed)

        def check(est, health):
            # replay the estimator's documented draws: one phase set for the
            # singles, an independent one for the delayed detector
            u = ideal_matrix(n, phi)
            draws = np.random.default_rng(mc_seed)
            inten = []
            for _ in range(2):
                th = draws.uniform(0.0, 2.0 * math.pi, size=samples)
                amp = nu * (u[:, 0][:, None] + u[:, 2][:, None] * np.exp(1j * th))
                inten.append(np.abs(amp) ** 2)
            close_rel(est.singles, inten[0].mean(axis=1), 1e-12, "MC singles")
            g2 = inten[0] @ inten[1].T / samples
            np.fill_diagonal(g2, 0.0)
            close_rel(est.g2, g2, 1e-12, "MC g2")
            expect(est.samples == samples and est.seed == mc_seed, "MC provenance")

        return run, check


# ---------------------------------------------------------------------------
# calibrate: synthetic counts -> normalization -> fits


class Calibrate(Workload):
    """Closed-loop calibration on 30-point curves, plus 600-point zeta fits.

    A loop task generates noisy photon-pair records (``generate_synthetic``),
    normalizes the coincidences, fits the power-to-phase scale from the
    channel-1 depletion of a single-coherent curve and the channel scales
    from channels 2 and 3.  Per task the checks are exact recomputations;
    fit accuracy under noise is checked over the run with the tier-1
    medians (kappa within 1 %, zeta within 5 %).  Noise-free tasks must
    recover the parameters to the tier-1 exact-fit tolerances.
    """

    name = "calibrate"
    SHAPES = [("loop", 0.01)] * 10 + [("loop", 0.0)] * 2 + [("zeta", 0.05)] * 2 + [("zeta", 0.0)]
    POINTS = 30
    ZETA_POINTS = 600

    def __init__(self, seed):
        super().__init__(seed)
        self.kappa_errs: list[float] = []
        self.zeta_errs: list[float] = []

    def shapes(self):
        return self.SHAPES

    def make_task(self, shape) -> Task:
        kind, noise = shape
        run, check = self.task_loop(noise) if kind == "loop" else self.task_zeta(noise)
        return Task(f"calibrate.{kind}.{'noisy' if noise else 'exact'}", run, check)

    def task_loop(self, noise: float) -> tuple:
        rng = self.rng
        n = 3
        kappa = float(rng.uniform(0.5, 2.0))
        powers = np.linspace(0.0, 2 * math.pi / 3 / kappa, self.POINTS)
        # channel 1 carries the depletion curve that fixes kappa, unscaled as in
        # the tier-1 closed-loop criterion; channels 2 and 3 get scale factors
        scales = (1.0,) + tuple(rng.uniform(0.5, 1.0, n - 1))
        acc_rate = float(rng.uniform(0.5, 2.0))
        synth_seed = int(rng.integers(0, 2**31 - 1))
        depletion_noise = 1.0 + noise * rng.standard_normal((self.POINTS, n))

        def run():
            records = fitting.generate_synthetic(kappa, powers, n_modes=n, input_kind="photon_pair",
                                                 channel_scales=scales, accidental_rate=acc_rate,
                                                 noise=noise, seed=synth_seed)
            pw, g13 = fitting.normalize_coincidences(records, ports=(1, 3))
            probe = quantum.InputState(kind="single_coherent", modes=(1,))
            singles = quantum.correlation_curve(probe, kappa * pw, n_modes=n).singles
            measured = singles * np.asarray(scales) * depletion_noise
            fit = fitting.fit_phase_scale(pw, measured[:, 0], n_modes=n)
            generation = [(pw, measured[:, c]) for c in (1, 2)]
            fitted_scales = fitting.fit_channel_scales(generation, fit.phase_scale, n_modes=n)
            return records, pw, g13, fit, generation, fitted_scales

        def check(out, health):
            records, pw, g13, fit, generation, fitted_scales = out
            expect(len(records) == self.POINTS and records[0].pump_peak_power == 0.0,
                   "zero-power record missing")
            raw = np.array([r.coincidences[(1, 3)] / (r.accidental_singles[0] * r.accidental_singles[2])
                            for r in records])
            close_rel(g13, raw / raw[0], 1e-12, "normalized coincidences")
            expect(fit.converged, "phase-scale fit did not converge")
            for (p, values), got in zip(generation, fitted_scales):
                model = np.abs((np.exp(1j * n * fit.phase_scale * p) - 1.0) / n) ** 2
                close_rel(got, float(values @ model) / float(model @ model), 1e-12,
                          "channel scale closed form")
            if noise == 0.0:
                qv = (np.exp(1j * n * kappa * pw) - 1.0) / n
                close_abs(g13, np.abs((qv + 1.0) ** 2 + qv * qv) ** 2, 1e-12,
                          "noise-free g13 vs closed form")
                close_rel(fit.phase_scale, kappa, 1e-6, "noise-free phase scale")
            else:
                self.kappa_errs.append(abs(fit.phase_scale - kappa) / kappa)

        return run, check

    def task_zeta(self, noise: float) -> tuple:
        rng = self.rng
        if noise:
            # the tier-1 noisy operating point: only the noise draw is seeded
            zeta, efficiency, conv = 0.4, 1.0, 2.0
        else:
            zeta = float(rng.uniform(0.3, 0.5))
            efficiency = float(rng.uniform(0.6, 1.0))
            conv = float(rng.uniform(0.3, 0.6))
        grid = np.linspace(0.05, zeta, self.ZETA_POINTS)
        noise_factor = 1.0 + noise * rng.standard_normal(self.ZETA_POINTS)

        def run():
            curve = quantum.multiphoton_scaling_curve(grid)
            ratios = np.clip(efficiency * curve["ratio"] * noise_factor, 0.0, 1.0)
            return fitting.fit_zeta(curve["sinh2"] / conv, ratios)

        def check(fit, health):
            expect(fit.converged, "zeta fit did not converge")
            if noise == 0.0:
                close_rel(fit.zeta, zeta, 1e-6, "noise-free zeta")
                close_rel(fit.channel_scales[0], efficiency, 1e-6, "noise-free efficiency")
            else:
                self.zeta_errs.append(abs(fit.zeta - zeta) / zeta)

        return run, check

    def finish(self) -> list[str]:
        failures = []
        if self.kappa_errs and not np.median(self.kappa_errs) < 0.01:
            failures.append(f"median kappa error {np.median(self.kappa_errs):.3%} >= 1%")
        if self.zeta_errs and not np.median(self.zeta_errs) < 0.05:
            failures.append(f"median zeta error {np.median(self.zeta_errs):.3%} >= 5%")
        return failures


IN_PROCESS = {w.name: w for w in (Sweep, Verify, Calibrate)}
