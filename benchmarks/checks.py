"""Output checks shared by the workloads.

Every check compares a package output with an independent reference: a
closed form written out here from p_N/q_N, an oracle from another module,
or a recomputation from the raw numbers.  Tolerances are the ones the
tier-1 tests use for the same comparison.
"""

from __future__ import annotations

import math

import numpy as np
from nwaybs import oracle, transfer


class CheckFailed(Exception):
    """A task's output failed its check."""


def expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def max_abs_err(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    expect(got.shape == want.shape, f"shape {got.shape} != {want.shape}")
    if got.size == 0:
        return 0.0
    return float(np.max(np.abs(got - want)))


def close_abs(got, want, tol: float, what: str) -> float:
    err = max_abs_err(got, want)
    expect(err <= tol, f"{what}: max abs error {err:.3e} > {tol:g}")
    return err


def close_rel(got, want, tol: float, what: str) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    expect(got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}")
    err = float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
    expect(err <= tol, f"{what}: max rel error {err:.3e} > {tol:g}")
    return err


class Health:
    """Numerical health figures gathered by the checks (running maxima)."""

    def __init__(self):
        self.values: dict[str, float] = {}

    def record_max(self, key: str, value: float) -> None:
        self.values[key] = max(self.values.get(key, 0.0), float(value))


# ---------------------------------------------------------------------------
# closed forms for the ideal N-port splitter, independent of nwaybs.transfer


def ideal_pq(n: int, phis):
    q = (np.exp(1j * n * np.asarray(phis, dtype=float)) - 1.0) / n
    return q + 1.0, q


def ideal_matrix(n: int, phi: float) -> np.ndarray:
    p, q = ideal_pq(n, phi)
    u = np.full((n, n), complex(q))
    np.fill_diagonal(u, complex(p))
    return u


def pair_amplitude(p, q, ports, modes):
    """U_i,m1 U_j,m2 + U_i,m2 U_j,m1 for the ideal splitter, by port membership."""
    inside = sum(1 for port in ports if port in modes)
    if inside == 2:
        return p * p + q * q
    if inside == 1:
        return p * q + q * q
    return 2.0 * q * q


def check_curve_closed_form(state, n: int, phis, curve) -> None:
    """Singles and g2 of a coherent or photon-pair curve against the p/q closed form."""
    phis = np.asarray(phis, dtype=float)
    expect(np.array_equal(np.asarray(curve.phi), phis), "phi grid altered")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    expect(sorted(curve.g2) == pairs, "g2 port pairs incomplete")
    p, q = ideal_pq(n, phis)
    a2, b2 = np.abs(p) ** 2, np.abs(q) ** 2
    modes = set(state.modes)
    want = np.empty((len(phis), n))
    if state.kind == "single_coherent":
        for i in range(1, n + 1):
            want[:, i - 1] = state.amplitude**2 * (a2 if i in modes else b2)
        close_abs(curve.singles, want, 1e-12, "single-coherent singles")
        expect(all(np.all(np.isnan(v)) for v in curve.g2.values()),
               "single-coherent g2 must be undefined")
        return
    amp2 = state.amplitude**2 if state.kind == "dual_coherent" else 1.0
    for i in range(1, n + 1):
        want[:, i - 1] = amp2 * ((a2 + b2) if i in modes else 2.0 * b2)
    close_abs(curve.singles, want, 1e-12, f"{state.kind} singles")
    for (i, j) in pairs:
        if state.kind == "dual_coherent":
            g2 = want[:, i - 1] * want[:, j - 1] / amp2**2
        else:
            g2 = np.abs(pair_amplitude(p, q, (i, j), modes)) ** 2
        close_abs(curve.g2[(i, j)], g2, 1e-12, f"{state.kind} g2_{i}{j}")


def check_curve_wick(state, n: int, phis, curve, samples, health: Health) -> None:
    """Squeezed-vacuum singles and g2 at sampled phases against the Wick oracle."""
    phis = np.asarray(phis, dtype=float)
    expect(np.array_equal(np.asarray(curve.phi), phis), "phi grid altered")
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    expect(sorted(curve.g2) == pairs, "g2 port pairs incomplete")
    t_pre = state.transmissions("pre_loss", n)
    t_post = state.transmissions("post_loss", n)

    def chain(u):
        c = oracle.loss_chain(n, state.zeta, u, t_pre, t_post, state.modes)
        health.record_max("oracle.symplectic_residual_max", c.symplectic_residual())
        return c

    in_pair = (min(state.modes), max(state.modes))
    ref = oracle.wick_moments(chain(np.eye(n, dtype=complex)), ports=in_pair)[2]
    for k in samples:
        c = chain(ideal_matrix(n, phis[k]))
        singles = np.empty(n)
        for (i, j) in pairs:
            n_i, n_j, g2 = oracle.wick_moments(c, ports=(i, j))
            singles[i - 1], singles[j - 1] = n_i, n_j
            close_rel(curve.g2[(i, j)][k], g2 / ref, 1e-10, f"squeezed g2_{i}{j} vs Wick")
        close_rel(curve.singles[k], singles, 1e-10, "squeezed singles vs Wick")


def transfer_health(n: int, phi: float, health: Health) -> None:
    """ideal_transfer entries against the closed form, plus its unitarity."""
    tm = transfer.ideal_transfer(n, phi)
    close_abs(tm.entries, ideal_matrix(n, phi), 1e-12, "ideal_transfer entries")
    res = tm.unitarity_residual()
    health.record_max("transfer.unitarity_residual_max", res)
    expect(res < 1e-12, f"unitarity residual {res:.3e}")


def squeezed_fock_pair_amplitude(zeta: complex, u: np.ndarray, modes) -> complex:
    """Amplitude of one photon in each input port after the splitter, one-pair term."""
    r = abs(zeta)
    phase = zeta / r if r > 0 else 1.0
    m1, m2 = (m - 1 for m in modes)
    one_pair = (1.0 / math.cosh(r)) * phase * math.tanh(r)
    return one_pair * (u[m1, m1] * u[m2, m2] + u[m1, m2] * u[m2, m1])
