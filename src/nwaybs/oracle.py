"""Independent quantum oracle for the closed-form detection statistics.

Two redundant routes, both independent of the formulas in ``quantum``:

* Gaussian (Bogoliubov) maps composed in the Heisenberg picture, with
  moments on vacuum evaluated by explicit Wick pairing.  Loss channels are
  explicit vacuum ancilla modes, so the squeezer -> pre-loss -> transfer ->
  post-loss chain is a single symplectic matrix.
* A truncated Fock-space state-vector path for few-photon inputs.

A seeded Monte Carlo phase average validates the analytic dual-coherent
phase averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

SYMPLECTIC_TOL = 1e-10


@dataclass(frozen=True)
class BogoliubovMap:
    """Linear map of (a_1..a_M, a_1^dag..a_M^dag) over M modes.

    Stored as the full 2M x 2M matrix S with block structure
    [[E, F], [F*, E*]]; output a_i = sum_j E_ij a_j + F_ij a_j^dag.
    """

    matrix: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.matrix, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] % 2:
            raise ValueError("matrix must be square with even dimension")
        object.__setattr__(self, "matrix", s)

    @property
    def n_modes(self) -> int:
        return self.matrix.shape[0] // 2

    @property
    def e_block(self) -> np.ndarray:
        m = self.n_modes
        return self.matrix[:m, :m]

    @property
    def f_block(self) -> np.ndarray:
        m = self.n_modes
        return self.matrix[:m, m:]

    def symplectic_residual(self) -> float:
        m = self.n_modes
        k = np.diag(np.concatenate([np.ones(m), -np.ones(m)]))
        return float(np.max(np.abs(self.matrix @ k @ self.matrix.conj().T - k)))


def _assemble(e: np.ndarray, f: np.ndarray) -> BogoliubovMap:
    top = np.hstack([e, f])
    bot = np.hstack([f.conj(), e.conj()])
    return BogoliubovMap(np.vstack([top, bot]))


def identity_map(n_modes: int) -> BogoliubovMap:
    return BogoliubovMap(np.eye(2 * n_modes, dtype=complex))


def squeezer_map(n_modes: int, zeta: complex, modes=(1, 3)) -> BogoliubovMap:
    """Two-mode squeezer on the given 1-based mode pair."""
    i, j = (m - 1 for m in modes)
    r = abs(zeta)
    phase = zeta / r if r > 0 else 1.0
    e = np.eye(n_modes, dtype=complex)
    f = np.zeros((n_modes, n_modes), dtype=complex)
    e[i, i] = e[j, j] = math.cosh(r)
    f[i, j] = f[j, i] = phase * math.sinh(r)
    return _assemble(e, f)


def loss_map(n_modes: int, mode: int, transmission: float, ancilla: int) -> BogoliubovMap:
    """Beamsplitter coupling mode to a vacuum ancilla; amplitude transmission T."""
    if not 0.0 < transmission <= 1.0:
        raise ValueError("transmission must lie in (0, 1]")
    i, k = mode - 1, ancilla - 1
    if i == k:
        raise ValueError("ancilla must differ from the lossy mode")
    refl = math.sqrt(max(0.0, 1.0 - transmission**2))
    e = np.eye(n_modes, dtype=complex)
    e[i, i] = e[k, k] = transmission
    e[i, k] = refl
    e[k, i] = -refl
    return _assemble(e, np.zeros((n_modes, n_modes), dtype=complex))


def passive_map(n_modes: int, unitary: np.ndarray, modes) -> BogoliubovMap:
    """Embed a passive (photon-number-conserving) unitary on a mode subset."""
    idx = np.asarray([m - 1 for m in modes])
    e = np.eye(n_modes, dtype=complex)
    e[np.ix_(idx, idx)] = np.asarray(unitary, dtype=complex)
    return _assemble(e, np.zeros((n_modes, n_modes), dtype=complex))


def compose(maps) -> BogoliubovMap:
    """Compose maps given in application order (first applied to the state first).

    Raises ``AssertionError`` when the symplectic residual exceeds
    ``SYMPLECTIC_TOL * max(1, max|S_ij|)**2``, relative to the composed map's scale.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("need at least one map")
    dims = {m.n_modes for m in maps}
    if len(dims) != 1:
        raise ValueError("all maps must act on the same number of modes")
    total = reduce(lambda acc, s: acc @ s, (m.matrix for m in reversed(maps)))
    out = BogoliubovMap(total)
    residual = out.symplectic_residual()
    # S K S^dagger - K rounds relative to the entries of S K S^dagger, which grow as
    # max|S_ij|^2 (cosh^2|zeta| for a squeezer); the scale is formed only past the
    # absolute test
    if residual > SYMPLECTIC_TOL and (
            residual > SYMPLECTIC_TOL * max(1.0, float(np.abs(total).max())) ** 2):
        raise AssertionError("composed map violates the commutation metric; assembly bug")
    return out


def wick_moments(bmap: BogoliubovMap, ports=(1, 3)):
    """(G1_i, G1_j, G2_ij) on vacuum input, by explicit Wick pairing.

    With output operators a_i = E a + F a^dag acting on vacuum, the second
    moments are n_pq = <a_p^dag a_q> = (F* F^T)_pq and m_pq = <a_p a_q> =
    (E F^T)_pq; the fourth-order moment has exactly three pairings:
    G2_ij = |m_ij|^2 + |n_ij|^2 + n_ii n_jj.
    """
    i, j = (p - 1 for p in ports)
    e, f = bmap.e_block, bmap.f_block
    n_ii = float(np.real(np.vdot(f[i], f[i])))
    n_jj = float(np.real(np.vdot(f[j], f[j])))
    n_ij = complex(np.vdot(f[i], f[j]))
    m_ij = complex(e[i] @ f[j])
    g2 = abs(m_ij) ** 2 + abs(n_ij) ** 2 + n_ii * n_jj
    return n_ii, n_jj, g2


def loss_chain(
    n_signal: int,
    zeta: complex,
    unitary: np.ndarray,
    t_pre=None,
    t_post=None,
    modes=(1, 3),
) -> BogoliubovMap:
    """Squeezer -> pre-loss -> transfer -> post-loss chain with explicit ancillas.

    Total mode count is 3 * n_signal: one pre-loss and one post-loss ancilla
    per signal channel.  Unit transmissions still get their (identity)
    beamsplitter so the mode bookkeeping never changes shape.
    """
    m_total = 3 * n_signal
    t_pre = np.ones(n_signal) if t_pre is None else np.asarray(t_pre, dtype=float)
    t_post = np.ones(n_signal) if t_post is None else np.asarray(t_post, dtype=float)
    chain = [squeezer_map(m_total, zeta, modes)]
    for ch in range(1, n_signal + 1):
        chain.append(loss_map(m_total, ch, t_pre[ch - 1], n_signal + ch))
    chain.append(passive_map(m_total, unitary, tuple(range(1, n_signal + 1))))
    for ch in range(1, n_signal + 1):
        chain.append(loss_map(m_total, ch, t_post[ch - 1], 2 * n_signal + ch))
    return compose(chain)


# ---------------------------------------------------------------------------
# Truncated Fock-space route


@dataclass
class FockState:
    """Truncated multimode Fock state: occupation tuple -> amplitude."""

    amplitudes: dict
    n_modes: int
    cutoff: int
    tail_probability: float = 0.0

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def amplitude(self, occupation) -> complex:
        return self.amplitudes.get(tuple(occupation), 0.0 + 0.0j)

    def probability(self, occupation) -> float:
        return abs(self.amplitude(occupation)) ** 2


def fock_basis_state(occupation, n_modes: int, cutoff: int = 6) -> FockState:
    occ = tuple(int(n) for n in occupation)
    if len(occ) != n_modes:
        raise ValueError("occupation length must equal n_modes")
    if sum(occ) > cutoff:
        raise ValueError("occupation exceeds cutoff")
    return FockState({occ: 1.0 + 0.0j}, n_modes=n_modes, cutoff=cutoff)


def two_mode_squeezed_fock(
    zeta: complex, n_modes: int = 3, modes=(1, 3), cutoff: int = 6
) -> FockState:
    """Truncated pair-state expansion sech sum tanh^n |n, n>.

    The probability weight above the cutoff is recorded as
    ``tail_probability`` so truncation error is explicit.
    """
    i, j = (m - 1 for m in modes)
    r = abs(zeta)
    phase = zeta / r if r > 0 else 1.0
    amps = {}
    total = 0.0
    n = 0
    while 2 * n <= cutoff:
        occ = [0] * n_modes
        occ[i] = occ[j] = n
        a = (1.0 / math.cosh(r)) * (phase * math.tanh(r)) ** n
        amps[tuple(occ)] = a
        total += abs(a) ** 2
        n += 1
    return FockState(amps, n_modes=n_modes, cutoff=cutoff, tail_probability=1.0 - total)


def _sqrt_factorial_product(occ) -> float:
    return math.sqrt(math.prod(map(math.factorial, occ)))


def fock_evolve(state: FockState, unitary: np.ndarray) -> FockState:
    """Apply a linear-optical mode transformation to a truncated Fock state.

    Each input creation operator maps as a_k^dag -> sum_j U_jk a_j^dag; the
    resulting creation-operator polynomial is expanded term by term.  The
    transformation conserves total photon number, so a state within the
    cutoff stays within it.
    """
    u = np.asarray(unitary, dtype=complex)
    m = state.n_modes
    if u.shape != (m, m):
        raise ValueError("unitary dimension must match the state's mode count")
    # the non-zero entries (j, U_jk) of each column k, as Python complex scalars:
    # the expansion runs on scalars, where a numpy element costs a call each time
    columns = [[(j, x) for j, x in enumerate(column) if x != 0] for column in u.T.tolist()]
    zero = (0,) * m
    out: dict = {}
    for occ, amp in state.amplitudes.items():
        if sum(occ) > state.cutoff:
            raise ValueError("state support exceeds cutoff")
        # polynomial in output creation operators, monomial -> coefficient
        poly = {zero: amp / _sqrt_factorial_product(occ)}
        for k in range(m):
            for _ in range(occ[k]):
                nxt: dict = {}
                for mono, c in poly.items():
                    for j, x in columns[k]:
                        key = mono[:j] + (mono[j] + 1,) + mono[j + 1:]
                        nxt[key] = nxt.get(key, 0.0) + c * x
                poly = nxt
        for mono, c in poly.items():
            out[mono] = out.get(mono, 0.0) + c * _sqrt_factorial_product(mono)
    out = {k: v for k, v in out.items() if v != 0.0}
    return FockState(out, n_modes=m, cutoff=state.cutoff,
                     tail_probability=state.tail_probability)


# ---------------------------------------------------------------------------
# Monte Carlo phase averaging


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with standard errors, reproducible from seed."""

    singles: np.ndarray
    singles_err: np.ndarray
    g2: np.ndarray
    g2_err: np.ndarray
    samples: int
    seed: int


def mc_phase_average(
    nu: float, transfer, modes=(1, 3), samples: int = 10000, seed: int = 0
) -> McEstimate:
    """Monte Carlo average of dual-coherent statistics over the relative phase.

    Draws the relative input phase uniformly on [0, 2 pi); for each draw the
    coherent field amplitudes determine the singles intensities exactly.
    Coinciding detections occur at a relative delay, so the two detectors
    sample *independent* interaction windows: the coincidence estimate pairs
    intensities from two independent phase draws, which is what makes the
    averaged coincidence factor into a product of averaged intensities.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    u = transfer.entries if hasattr(transfer, "entries") else np.asarray(transfer)
    n = u.shape[0]
    m1, m2 = (m - 1 for m in modes)
    rng = np.random.default_rng(seed)

    def intensities():
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=samples)
        amp = nu * (u[:, m1][:, np.newaxis] + u[:, m2][:, np.newaxis] * np.exp(1j * thetas))
        return np.abs(amp) ** 2  # shape (n, samples)

    inten = intensities()
    inten_delayed = intensities()
    singles = inten.mean(axis=1)
    singles_err = inten.std(axis=1, ddof=1) / math.sqrt(samples)
    g2 = np.zeros((n, n))
    g2_err = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            prod = inten[i] * inten_delayed[j]
            g2[i, j] = prod.mean()
            g2_err[i, j] = prod.std(ddof=1) / math.sqrt(samples)
    return McEstimate(singles=singles, singles_err=singles_err, g2=g2, g2_err=g2_err,
                      samples=samples, seed=seed)
