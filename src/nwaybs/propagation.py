"""Brute-force integration of the coupled-mode equations.

This is the classical oracle for the transfer module: it integrates the
pump self/cross-phase equations and the weak-field Bragg-scattering
equations (including attenuation and the mismatch phasors supplied by the
dispersion module) with a fixed-step RK4 scheme, and optionally the full
unapproximated four-wave-mixing sum to quantify the undepleted-pump error.

The weak-field integration is the joint (pump, weak) RK4 scheme computed in
two parts.  The pump equations do not involve the weak fields, so one
pump-only RK4 pass yields the pump amplitudes at all four stages of every
step, as the joint scheme evaluates them.  That pass runs on Python complex
scalars: there are only N pump amplitudes, and a numpy call on so short a
vector costs more in overhead than in arithmetic.  Each RK4 stage is one
loop over the pumps that forms their slopes, the next stage's amplitudes
and those amplitudes' powers, and the RK4 sum is kept as a running sum in
the left-to-right order Python gives the written sum, so no bit depends on
how the loops are grouped.  Scalar and vector complex products round
differently, so the pass agrees with the vector form to about 1e-16
relative, not bit for bit.  The weak-field equations
are linear, dB/dz = M(z, A) B, so the weak part of each step is the linear
map B -> B + D B, built from the four stage matrices M1..M4:

    D = h/6 (S1 + 2 S2 + 2 S3 + S4),  S1 = M1,  S2 = M2 (I + h/2 S1),
    S3 = M3 (I + h/2 S2),  S4 = M4 (I + h S3),

which is the joint scheme's weak-field update k1..k4 regrouped.  The maps
are built for blocks of steps at once and applied in order as increments.

M(z) carries the mismatch phasors e^{i dbeta z}, and a step's four stages sit
at only three positions: z, z + h/2 (stages 2 and 3) and z + h.  On the
uniform step grid h = z_next - z is exact (Sterbenz lemma), so z + h is the
next grid point bit for bit, and stage 4 of one step shares its phasors with
stage 1 of the next.  A block of S steps therefore needs the phasors at its
S + 1 grid points and S midpoints, 2S + 1 evaluations instead of 4S.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dispersion import DispersionProfile, FrequencyGrid, beta_eval, delta_beta_table
from .transfer import PumpConfig

# Weak seeds may carry at most this fraction of the smallest pump power.
UNDEPLETED_POWER_RATIO = 1e-6

# Stage-matrix entries held at once while building the weak-field step maps
# (2**16 complex128 = 1 MiB): bounds the memory at any step count.
MAP_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class IntegratorSettings:
    """Fixed-step RK4 settings.

    ``richardson_tol`` bounds the max-norm discrepancy between the full-step
    and half-step solutions when ``richardson_check`` is on.
    """

    step: float
    richardson_check: bool = True
    richardson_tol: float = 1e-8

    def validate(self, length: float) -> None:
        if not math.isfinite(self.step) or self.step <= 0:
            raise ValueError("step must be finite and > 0")
        if self.step > length / 100:
            raise ValueError("step must be <= L/100")
        # a NaN tolerance fails every comparison and an infinite one exceeds
        # every discrepancy, so either would pass any step; richardson_check
        # is the one switch that turns the check off
        if not (math.isfinite(self.richardson_tol) and self.richardson_tol >= 0):
            raise ValueError("richardson_tol must be finite and >= 0")


def _step_grid(z_end: float, step: float) -> np.ndarray:
    n_steps = max(1, int(math.ceil(z_end / step - 1e-12)))
    return np.linspace(0.0, z_end, n_steps + 1)


def rk4_integrate(rhs, y0: np.ndarray, z_end: float, step: float) -> np.ndarray:
    """Integrate dy/dz = rhs(z, y) from 0 to z_end; returns the trajectory.

    The grid is ``np.linspace``: n_steps = ceil(z_end / step) equal intervals,
    none longer than ``step`` (to rounding), so n_steps + 1 points including
    both endpoints.
    """
    zs = _step_grid(z_end, step)
    traj = np.empty((len(zs), len(y0)), dtype=complex)
    traj[0] = y0
    y = np.array(y0, dtype=complex)
    for i in range(len(zs) - 1):
        z = zs[i]
        h = zs[i + 1] - zs[i]
        k1 = rhs(z, y)
        k2 = rhs(z + h / 2, y + h / 2 * k1)
        k3 = rhs(z + h / 2, y + h / 2 * k2)
        k4 = rhs(z + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        traj[i + 1] = y
    return traj


def _run_with_richardson(solve, settings: IntegratorSettings):
    """Return the result of solve(step), checked against solve(step / 2).

    ``solve`` returns (result, final state); the max-norm discrepancy of the
    final states must stay within ``richardson_tol`` times max(1, |state|).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        result, final = solve(settings.step)
        if settings.richardson_check:
            _, fine = solve(settings.step / 2)
            err = np.max(np.abs(fine - final))
            scale = max(1.0, float(np.max(np.abs(final))))
            # a non-finite err means the integration diverged outright,
            # which must also be reported as a step failure
            if not np.isfinite(err) or err > settings.richardson_tol * scale:
                raise RuntimeError(
                    f"step-halving discrepancy {err:.3e} exceeds tolerance; "
                    "reduce step"
                )
    return result


def _trajectory(rhs, y0, z_end):
    def solve(step):
        traj = rk4_integrate(rhs, y0, z_end, step)
        return traj, traj[-1]

    return solve


def _pump_stages(profile: DispersionProfile, a0, sizes: np.ndarray):
    """One RK4 pass over the pump equations on Python complex scalars.

    Runs ``rk4_integrate``'s scheme over steps of the ``sizes`` (S,) of the
    step grid (module docstring) and returns the stage amplitudes (S, 4, N)
    and the final amplitudes (N,).

    Each stage is one loop over the pumps.  Per pump it forms the slope
    k = (loss + i gamma (2 total - p)) x, the amplitude the next stage reads
    and that amplitude's power; the powers sum to the next stage's total,
    and those of a step's end point serve the next step's first stage.  The
    RK4 sum is kept as it runs, acc = k1, acc + 2 k2, acc + 2 k3, and the
    update is x + h/6 (acc + k4).  Python evaluates k1 + 2 k2 + 2 k3 + k4
    left to right, as ((k1 + 2 k2) + 2 k3) + k4, so the running sum
    performs the same float operations in the same order: the bits equal
    those of four separate slope evaluations and one five-way update.
    """
    loss, i_gamma = -profile.alpha, 1j * profile.gamma
    a = [complex(x) for x in a0]
    # re^2 + im^2 rather than abs(x) ** 2: a diverging pass must run on to
    # inf/nan for the Richardson check, and float ** raises on overflow
    pa = [x.real * x.real + x.imag * x.imag for x in a]
    stages = []
    for h in sizes.tolist():
        half, sixth = h / 2, h / 6
        # self-phase p plus twice the cross-phase of the others: 2 total - p
        t = 2.0 * sum(pa)
        acc1, a2, p2 = [], [], []
        for x, p in zip(a, pa):
            k = (loss + i_gamma * (t - p)) * x
            acc1.append(k)
            y = x + half * k
            a2.append(y)
            p2.append(y.real * y.real + y.imag * y.imag)
        t = 2.0 * sum(p2)
        acc2, a3, p3 = [], [], []
        for x, u, p, s in zip(a, a2, p2, acc1):
            k = (loss + i_gamma * (t - p)) * u
            acc2.append(s + 2 * k)
            y = x + half * k
            a3.append(y)
            p3.append(y.real * y.real + y.imag * y.imag)
        t = 2.0 * sum(p3)
        acc3, a4, p4 = [], [], []
        for x, u, p, s in zip(a, a3, p3, acc2):
            k = (loss + i_gamma * (t - p)) * u
            acc3.append(s + 2 * k)
            y = x + h * k
            a4.append(y)
            p4.append(y.real * y.real + y.imag * y.imag)
        t = 2.0 * sum(p4)
        stages += a
        stages += a2
        stages += a3
        stages += a4
        a_next, pa = [], []
        for x, u, p, s in zip(a, a4, p4, acc3):
            y = x + sixth * (s + (loss + i_gamma * (t - p)) * u)
            a_next.append(y)
            pa.append(y.real * y.real + y.imag * y.imag)
        a = a_next
    return np.array(stages, dtype=complex).reshape(-1, 4, len(a)), np.array(a, dtype=complex)


def integrate_pumps(
    profile: DispersionProfile, pumps: PumpConfig, settings: IntegratorSettings
) -> np.ndarray:
    """Pump amplitude trajectory under self/cross-phase modulation and loss."""
    settings.validate(profile.length)

    def solve(step):
        h = np.diff(_step_grid(profile.length, step))
        a, a_end = _pump_stages(profile, pumps.amplitudes, h)
        return np.concatenate([a[:, 0], a_end[None]]), a_end

    return _run_with_richardson(solve, settings)


def _weak_increments(z, h, a, dbeta, gamma, alpha):
    """RK4 increment matrices D for a block of steps (module docstring).

    ``z`` (S + 1,) are the grid points of S steps of size ``h`` (S,), and
    ``a`` (S, 4, N) the pump amplitudes at their four stages; returns D with
    shape (S, N, N).  The phasors are evaluated once per distinct stage
    position: at the S + 1 grid points, which serve stage 1 of a step and
    stage 4 of the step before it, and at the S midpoints z + h/2 of stages
    2 and 3.
    """
    n = a.shape[-1]
    # m[..., n, l] = 2 i gamma e^{i dbeta_ln z} A_l A_n^*: channel l into n
    rot = 1j * dbeta.T
    on_grid = np.exp(rot * z[:, None, None])
    mid = np.exp(rot * (z[:-1] + h / 2)[:, None, None])
    m = a[..., None, :] * a.conj()[..., :, None]
    # phasor as the left operand: numpy's complex product may use fused
    # multiply-adds, so a * b and b * a can differ in the last bit
    np.multiply(on_grid[:-1], m[:, 0], out=m[:, 0])
    np.multiply(mid[:, None], m[:, 1:3], out=m[:, 1:3])
    np.multiply(on_grid[1:], m[:, 3], out=m[:, 3])
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


def integrate_weak(
    profile: DispersionProfile,
    grid: FrequencyGrid,
    pumps: PumpConfig,
    initial_weak,
    settings: IntegratorSettings,
) -> np.ndarray:
    """Final lab-frame weak-field amplitudes after propagation over L.

    Integrates the linearized Bragg-scattering equations jointly with the
    pump equations; the mismatch phasors come from the dispersion module.
    The joint RK4 scheme runs as one pump-only pass plus one linear map per
    step (see the module docstring), so ``initial_weak`` may be one seed of
    shape (N,) or a block of K seeds as columns, shape (N, K); the result
    has the same shape.  The Richardson check covers the pumps and every
    column.  Raises if the seed power violates the undepleted-pump regime.
    """
    settings.validate(profile.length)
    b0 = np.asarray(initial_weak, dtype=complex)
    n = grid.n_modes
    if b0.ndim not in (1, 2) or b0.shape[0] != n or pumps.n_modes != n:
        raise ValueError("dimension mismatch between grid, pumps, and seed")
    min_pump = min(p for p in pumps.powers if p > 0) if any(pumps.powers) else 0.0
    # with no pumps at all the weak fields only pick up loss: no seed limit
    if min_pump > 0.0 and np.max(np.abs(b0)) ** 2 > UNDEPLETED_POWER_RATIO * min_pump * (1 + 1e-9):
        raise ValueError(
            "weak seed power violates the undepleted-pump regime "
            f"(> {UNDEPLETED_POWER_RATIO:g} of the smallest pump power)"
        )

    gamma, alpha = profile.gamma, profile.alpha
    # dbeta[l, n] multiplies the phasor coupling channel l into channel n
    dbeta = delta_beta_table(profile, grid)

    steps_per_block = max(1, MAP_BLOCK_ENTRIES // (4 * n * n))

    def solve(step):
        z = _step_grid(profile.length, step)
        h = np.diff(z)
        a, a_end = _pump_stages(profile, pumps.amplitudes, h)
        b = b0.copy()
        for start in range(0, len(h), steps_per_block):
            stop = start + steps_per_block
            for d in _weak_increments(z[start:stop + 1], h[start:stop], a[start:stop],
                                      dbeta, gamma, alpha):
                b += d @ b
        return b, np.concatenate([a_end, b.ravel()])

    return _run_with_richardson(solve, settings)


def full_fwm_reference(
    profile: DispersionProfile,
    freqs,
    initial_amps,
    settings: IntegratorSettings,
) -> np.ndarray:
    """Integrate the unapproximated four-wave-mixing sum over all fields.

    Every ordered index triple (k, l, m) with omega_k + omega_l = omega_m +
    omega_n (on the supplied discrete grid, to relative tolerance 1e-9)
    contributes i gamma e^{i dbeta z} A_k A_l A_m^* to field n.  Every field
    has at least the trivial closures (k, l) = (n, m) and (m, n), so no sum
    is empty.  Limited to 8 fields; the term count grows combinatorially.
    """
    settings.validate(profile.length)
    w = np.asarray(freqs, dtype=float)
    a0 = np.asarray(initial_amps, dtype=complex)
    nf = len(w)
    if nf != len(a0):
        raise ValueError("freqs and initial_amps must have equal length")
    if nf > 8:
        raise ValueError("full FWM reference limited to 8 fields")

    beta = beta_eval(profile, w)
    scale = np.max(np.abs(w))
    # all closures as index arrays over [n, k, l, m], in lexicographic order
    wn, wk, wl, wm = np.ix_(w, w, w, w)
    n_idx, k_idx, l_idx, m_idx = np.nonzero(np.abs(wk + wl - wm - wn) <= 1e-9 * scale)
    phase = 1j * (beta[k_idx] + beta[l_idx] - beta[m_idx] - beta[n_idx])

    gamma, alpha = profile.gamma, profile.alpha

    def rhs(z, a):
        terms = np.exp(phase * z) * a[k_idx] * a[l_idx] * a[m_idx].conjugate()
        acc = np.bincount(n_idx, terms.real, nf) + 1j * np.bincount(n_idx, terms.imag, nf)
        return 1j * gamma * acc - alpha * a

    return _run_with_richardson(_trajectory(rhs, a0, profile.length), settings)[-1]
