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
vector costs more in overhead than in arithmetic.  Nor does the pass loop
over the pumps: for each pump count N it is straight-line code, filled in
from one template and compiled once, that keeps each pump's amplitude,
running RK4 sum, stage amplitudes and power in local variables.  Per stage
and pump it forms the slope, the next stage's amplitude and its power; the
RK4 sum runs in the left-to-right order Python gives the written sum, and
the totals are ``sum`` of the powers, so the code performs the float
operations of the plain per-step loop in the same order and keeps its
bits.  Scalar and vector complex products round differently, so the pass
agrees with the vector form to about 1e-16 relative, not bit for bit.

Every operation of the pass that mixes a complex with a float or an int is
written complex first, as ``k * half`` or ``i_gamma * (t - p) + loss``.
With the float on the left, CPython first tries the float's slot, gets
NotImplemented and dispatches a second time.  The order changes no bit.
Up to Python 3.13 the real operand is widened to a complex with imaginary
part 0 on either side, and each component of the product or sum is then
formed by IEEE ``*`` and ``+``, which commute bit for bit.  Later versions
combine a complex with a real without widening it, by the same arithmetic
in either order.

The weak-field equations are linear, dB/dz = M(z, A) B, so the weak part of
each step is the linear map B -> B + D B, built from the four stage
matrices M1..M4:

    D = h/6 (S1 + 2 S2 + 2 S3 + S4),  S1 = M1,  S2 = M2 (I + h/2 S1),
    S3 = M3 (I + h/2 S2),  S4 = M4 (I + h S3),

which is the joint scheme's weak-field update k1..k4 regrouped.  The maps
are built for blocks of steps at once and applied in order as increments.

M(z) carries the mismatch phasors e^{i dbeta z}, and a step's four stages sit
at only three positions: z, z + h/2 (stages 2 and 3) and z + h.  On the
uniform step grid h = z_next - z is exact (Sterbenz lemma), so z + h is the
next grid point bit for bit, and stage 4 of one step shares its phasors with
stage 1 of the next.  A block of S steps therefore needs the phasors at its
S + 1 grid points and S midpoints, 2S + 1 evaluations instead of 4S.  On a
phase-matched grid (a flat profile, where every dbeta is 0) each phasor is
1 + 0j, and the maps skip both the phasors and their products.
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
                    f"step-halving discrepancy {err:.3e} exceeds tolerance "
                    f"{settings.richardson_tol:g} × scale {scale:.3g} at step "
                    f"{settings.step:g} m; reduce step"
                )
    return result


# The pump pass for N pumps, written once for pump {i}.  A run of lines that
# name {i} is repeated for every pump in turn; {x}, {p} and {stages} are tuple
# displays of all the pumps' amplitudes, powers and four stage amplitudes.
# With t twice the total power, t - p is the self-phase p plus twice the
# cross-phase of the others.  Powers are re^2 + im^2 rather than abs(x) ** 2:
# a diverging pass must run on to inf/nan for the Richardson check, and
# float ** raises on overflow.  A complex operand comes first in every mixed
# operation (module docstring).
_PUMP_KERNEL_TEMPLATE = """\
def pump_kernel(loss, i_gamma, a, sizes):
    {x} = a
    re = x{i}.real
    im = x{i}.imag
    p{i} = re * re + im * im
    stages = []
    for h in sizes:
        half = h / 2
        sixth = h / 6
        t = 2.0 * sum({p})
        s{i} = (i_gamma * (t - p{i}) + loss) * x{i}
        b{i} = x{i} + s{i} * half
        re = b{i}.real
        im = b{i}.imag
        p{i} = re * re + im * im
        t = 2.0 * sum({p})
        k = (i_gamma * (t - p{i}) + loss) * b{i}
        s{i} += k * 2.0
        c{i} = x{i} + k * half
        re = c{i}.real
        im = c{i}.imag
        p{i} = re * re + im * im
        t = 2.0 * sum({p})
        k = (i_gamma * (t - p{i}) + loss) * c{i}
        s{i} += k * 2.0
        d{i} = x{i} + k * h
        re = d{i}.real
        im = d{i}.imag
        p{i} = re * re + im * im
        t = 2.0 * sum({p})
        stages += {stages}
        x{i} = x{i} + (s{i} + (i_gamma * (t - p{i}) + loss) * d{i}) * sixth
        re = x{i}.real
        im = x{i}.imag
        p{i} = re * re + im * im
    return stages, {x}
"""


def _pump_kernel_source(n: int) -> str:
    """The template filled in for n pumps."""
    def display(*prefixes):
        names = [f"{prefix}{i}" for prefix in prefixes for i in range(n)]
        return f"({names[0]},)" if len(names) == 1 else f"({', '.join(names)})"

    tuples = {"x": display("x"), "p": display("p"), "stages": display("x", "b", "c", "d")}
    lines, run = [], []
    for line in _PUMP_KERNEL_TEMPLATE.splitlines(keepends=True) + [""]:
        if "{i}" in line:
            run.append(line)
            continue
        lines += [pump.format(i=i) for i in range(n) for pump in run]
        run = []
        lines.append(line.format(**tuples))
    return "".join(lines)


# Compiled pump passes by pump count, each built on first use.
_PUMP_KERNELS = {}


def _pump_kernel(n: int):
    """The compiled pump pass for n pumps, from ``_PUMP_KERNELS``."""
    kernel = _PUMP_KERNELS.get(n)
    if kernel is None:
        namespace = {}
        exec(compile(_pump_kernel_source(n), f"<pump kernel N={n}>", "exec"), namespace)
        kernel = _PUMP_KERNELS[n] = namespace["pump_kernel"]
    return kernel


def _pump_stages(profile: DispersionProfile, a0, sizes: np.ndarray):
    """One RK4 pass over the pump equations on Python complex scalars.

    Runs ``rk4_integrate``'s scheme over steps of the ``sizes`` (S,) of the
    step grid (module docstring) and returns the stage amplitudes (S, 4, N)
    and the final amplitudes (N,).

    The pass is straight-line code for the pump count N (``_pump_kernel``):
    each pump's amplitude x, running RK4 sum s, stage amplitudes b, c, d and
    power p are local variables.  Per stage and pump it forms the slope
    k = (loss + i gamma (2 total - p)) x, the amplitude the next stage reads
    and that amplitude's power; the powers sum to the next stage's total,
    and those of a step's end point serve the next step's first stage.  The
    RK4 sum is kept as it runs, s = k1, s + 2 k2, s + 2 k3, and the update
    is x + h/6 (s + k4).  Python evaluates k1 + 2 k2 + 2 k3 + k4 left to
    right, as ((k1 + 2 k2) + 2 k3) + k4, so the running sum performs the
    same float operations in the same order: the bits equal those of four
    separate slope evaluations and one five-way update.  The totals are
    ``2.0 * sum`` of the powers, as in that form: ``sum`` of floats rounds
    differently from a chain of ``+`` on Python 3.12 and later.
    """
    a = [complex(x) for x in a0]
    stages, a_end = _pump_kernel(len(a))(-profile.alpha, 1j * profile.gamma, a,
                                         sizes.tolist())
    stages = np.fromiter(stages, dtype=complex, count=len(stages))
    return stages.reshape(-1, 4, len(a)), np.array(a_end, dtype=complex)


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
    2 and 3.  With every ``dbeta`` 0 there are none to evaluate.
    """
    n = a.shape[-1]
    # m[..., n, l] = 2 i gamma e^{i dbeta_ln z} A_l A_n^*: channel l into n
    m = a[..., None, :] * a.conj()[..., :, None]
    if dbeta.any():
        rot = 1j * dbeta.T
        on_grid = np.exp(rot * z[:, None, None])
        mid = np.exp(rot * (z[:-1] + h / 2)[:, None, None])
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
    # stages 2 to 4 in place: s = m + scale (m @ s).  Each IEEE * and + has the
    # operands of the written form, swapped, so every bit is the same
    for stage, scale in ((1, h / 2), (2, h / 2), (3, h)):
        s = np.matmul(m[:, stage], s)
        s *= scale
        s += m[:, stage]
        total += 2 * s if stage < 3 else s
    total *= h / 6
    return total


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
    contributes i gamma e^{i dbeta z} A_k A_l A_m^* to field n, with dbeta =
    beta_k + beta_l - beta_m - beta_n.  Every field has at least the trivial
    closures (k, l) = (n, m) and (m, n), so no sum is empty.  Limited to 8
    fields; the term count grows combinatorially.

    Each right-hand side is one contraction.  A (nf, nf**3) closure matrix
    holds i gamma at (n, (k nf + l) nf + m) for every closure and zero
    elsewhere; it multiplies the flattened outer product R_k R_l R_m^* of the
    rotating-frame amplitudes R = A e^{i beta z}.  A closure's phase
    factorizes, e^{i dbeta z} = e^{i beta_k z} e^{i beta_l z} e^{-i beta_m z}
    e^{-i beta_n z}, so the product times e^{-i beta_n z} is the sum: a call
    evaluates nf exponentials, and none on a profile whose beta is all zero.
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
    # closure[n, (k nf + l) nf + m] = i gamma wherever (k, l, m) closes on n
    wn, wk, wl, wm = np.ix_(w, w, w, w)
    closure = np.where(np.abs(wk + wl - wm - wn) <= 1e-9 * scale, 1j * profile.gamma, 0j)
    closure = closure.reshape(nf, nf**3)
    alpha = profile.alpha

    # the ufunc's outer product takes its operands as they are, where np.outer
    # re-wraps and ravels both on every call; same products, same order
    outer = np.multiply.outer
    if beta.any():
        i_beta = 1j * beta

        def rhs(z, a):
            phasor = np.exp(i_beta * z)
            r = a * phasor
            fwm = closure @ outer(outer(r, r), r.conj()).ravel()
            return fwm * phasor.conj() - alpha * a
    else:
        def rhs(z, a):
            return closure @ outer(outer(a, a), a.conj()).ravel() - alpha * a

    def solve(step):
        final = rk4_integrate(rhs, a0, profile.length, step)[-1]
        return final, final

    return _run_with_richardson(solve, settings)
