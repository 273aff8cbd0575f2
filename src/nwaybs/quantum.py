"""Closed-form detection statistics after the frequency-beamsplitter interaction.

Singles (first-order) and coincidence (second-order) correlation functions
for the supported input classes:

* single weak coherent state
* dual coherent states with randomized relative phase (phase-averaged)
* a photon pair in two channels
* two-mode squeezed vacuum with pre/post-interaction losses (multiphoton)

All formulas are written through the diagonal/off-diagonal coefficients
p_N, q_N (or the input columns of a transfer matrix), so they hold for any
N; the familiar three-channel expressions are the N = 3 specialization.
Coincidences are normalized to their value at zero nonlinear phase.

Every observable of a k-mode input reads only the k input columns of U,
so each formula is written once, as a kernel on the input-column slab
``c`` of shape (..., N, k): ``c[..., :, r]`` is column ``modes[r] - 1`` of
U.  ``KINDS`` is the one table of input kinds: each kind's default modes,
the ``InputState`` fields it reads, and its singles and coincidence
kernels.

The public observables (``singles``, ``pair_coincidence``,
``coincidence_squeezed``) take a single N x N transfer matrix or a
(..., N, N) stack of them, slice its input columns and call the kernels; a
stack gives arrays over its leading axes, one matrix gives numpy scalar
arithmetic (a ``float`` for the coincidences).  The coincidences take
``ports`` as one output pair or as a (K, 2) array of pairs; an array adds a
trailing axis K, one entry per pair.  ``correlation_curve`` never builds a
full stack: it evaluates a phase grid as ``ideal_columns`` slabs of bounded
size, with every port pair of a slab in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .transfer import TransferMatrix, ideal_columns, p_coeff, q_coeff

# Input-column slab entries per block in correlation_curve (2**16
# complex128 = 1 MiB): bounds the memory of a sweep at any grid size.
BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class InputState:
    """Weak-field input description.

    ``modes`` are 1-based channel indices, as many as the kind's default
    modes in ``KINDS`` (which ``None`` selects).  ``pre_loss``/``post_loss``
    are per-channel amplitude transmissions in (0, 1], applied before and
    after the interaction.
    """

    kind: str
    modes: tuple[int, ...] | None = None
    amplitude: float = 1.0
    zeta: complex = 0.0
    phase_averaged: bool = True
    pre_loss: tuple[float, ...] | None = None
    post_loss: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in INPUT_KINDS:
            raise ValueError(f"unknown input kind {self.kind!r}")
        defaults = KINDS[self.kind].modes
        modes = tuple(int(m) for m in (defaults if self.modes is None else self.modes))
        if len(modes) != len(defaults):
            raise ValueError(f"{self.kind} takes {len(defaults)} mode index(es)")
        if len(set(modes)) != len(modes):
            raise ValueError("mode indices must be distinct")
        if any(m < 1 for m in modes):
            raise ValueError("mode indices are 1-based")
        object.__setattr__(self, "modes", modes)
        object.__setattr__(self, "amplitude", float(self.amplitude))
        for name in ("pre_loss", "post_loss"):
            t = getattr(self, name)
            if t is not None:
                t = tuple(float(x) for x in t)
                if any(not (0.0 < x <= 1.0) for x in t):
                    raise ValueError(f"{name} transmissions must lie in (0, 1]")
                object.__setattr__(self, name, t)

    def transmissions(self, name: str, n_modes: int) -> np.ndarray:
        t = getattr(self, name)
        if t is None:
            return np.ones(n_modes)
        if len(t) != n_modes:
            raise ValueError(f"{name} must supply one transmission per channel")
        return np.asarray(t)


@dataclass(frozen=True)
class CorrelationResult:
    """Sampled singles and normalized coincidences versus nonlinear phase."""

    phi: np.ndarray
    singles: np.ndarray          # shape (len(phi), N)
    g2: dict = field(default_factory=dict)  # (i, j) -> array over phi


def _input_columns(modes, n_modes: int) -> list[int]:
    """0-based columns of U that the 1-based input modes feed, in mode order."""
    if not all(1 <= m <= n_modes for m in modes):
        raise ValueError(f"input modes {tuple(modes)} must lie in 1..{n_modes}, the channels")
    return [m - 1 for m in modes]


def singles(state: InputState, transfer: TransferMatrix) -> np.ndarray:
    """Expected singles counts per channel, shape (..., N), for a matrix or stack."""
    cols = _input_columns(state.modes, transfer.n_modes)
    return KINDS[state.kind].singles(state, transfer.entries[..., :, cols])


def g2_dual_coherent(phi, n_modes: int = 3):
    """Normalized (1,3) coincidences for phase-averaged dual coherent input.

    Phase averaging makes the two intensities independent, so the
    coincidence factorizes: (1 - |q|^2)^2.
    """
    q2 = np.abs(q_coeff(n_modes, np.asarray(phi))) ** 2
    return (1.0 - q2) ** 2


def _entry(c: np.ndarray, i, r):
    """c[i, r], U's entry in row i of input column r: a numpy scalar for one
    slab, an array over a stack.

    An index array ``i`` adds its axis after the stack axes.

    ``[()]`` turns the 0-d result of indexing one slab into a scalar, so a
    single matrix keeps numpy's scalar arithmetic and its exact values.
    """
    return c[..., i, r][()]


def _float_or_array(x):
    """A float for one matrix and one port pair, the array itself otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def _port_indices(ports):
    """0-based output indices (i, j): ints for one pair, (K,) arrays for a (K, 2) array."""
    shape = np.shape(ports)
    if shape == (2,):
        i, j = ports
        return i - 1, j - 1
    if len(shape) == 2 and shape[1] == 2:
        ports = np.asarray(ports)
        return ports[:, 0] - 1, ports[:, 1] - 1
    raise ValueError(f"ports must be one pair or a (K, 2) array of pairs, not shape {shape}")


def _pair_coincidence(c, ports):
    """|c_i0 c_j1 + c_i1 c_j0|^2 on a two-column slab (see ``pair_coincidence``)."""
    if c.ndim == 2 and np.ndim(ports) == 2:
        # one matrix keeps numpy's scalar arithmetic, pair by pair
        return np.array([_pair_coincidence(c, pr) for pr in ports])
    i, j = _port_indices(ports)
    return _float_or_array(np.abs(_entry(c, i, 0) * _entry(c, j, 1)
                                  + _entry(c, i, 1) * _entry(c, j, 0)) ** 2)


def pair_coincidence(transfer: TransferMatrix, in_modes=(1, 3), ports=(1, 3)):
    """Unnormalized two-photon coincidence |U_i,m1 U_j,m2 + U_i,m2 U_j,m1|^2.

    The coherent sum of the two routing amplitudes carries the two-photon
    interference; for a balanced two-channel splitter it vanishes (the
    Hong-Ou-Mandel null).  A float for one matrix and one pair, an array
    for a stack; a (K, 2) array of ``ports`` adds a trailing axis K.
    """
    cols = _input_columns(in_modes, transfer.n_modes)
    return _pair_coincidence(transfer.entries[..., :, cols], ports)


def g2_photon_pair(phi, n_modes: int = 3):
    """Normalized photon-pair coincidences (g2_13, g2_12) versus phi.

    g2_13 = |p^2 + q^2|^2 and g2_12 = g2_23 = |p q + q^2|^2.
    """
    phi = np.asarray(phi)
    p = p_coeff(n_modes, phi)
    q = q_coeff(n_modes, phi)
    g13 = np.abs(p * p + q * q) ** 2
    g12 = np.abs(p * q + q * q) ** 2
    return g13, g12


def g2_multiphoton(phi, zeta: complex, t1_alpha: float = 1.0, t3_alpha: float = 1.0,
                   n_modes: int = 3):
    """Normalized (1,3) coincidences for squeezed-vacuum input with pre-loss.

    |p^2+q^2|^2 + 2|p|^2|q|^2 (T1^2/T3^2 + T3^2/T1^2) sinh^2 / (1 + 2 sinh^2);
    the second term is the multiphoton contribution, which is where loss
    asymmetry enters.
    """
    if not (0.0 < t1_alpha <= 1.0 and 0.0 < t3_alpha <= 1.0):
        raise ValueError("transmissions must lie in (0, 1]")
    phi = np.asarray(phi)
    p = p_coeff(n_modes, phi)
    q = q_coeff(n_modes, phi)
    s2 = math.sinh(abs(zeta)) ** 2
    ratio = (t1_alpha / t3_alpha) ** 2 + (t3_alpha / t1_alpha) ** 2
    pair = np.abs(p * p + q * q) ** 2
    mult = 2.0 * np.abs(p) ** 2 * np.abs(q) ** 2 * ratio * s2 / (1.0 + 2.0 * s2)
    return pair + mult


def _squeezed_coincidence(state, c, ports):
    """G2_ij on the two input columns of a squeezed-vacuum state (see ``coincidence_squeezed``)."""
    if c.ndim == 2 and np.ndim(ports) == 2:
        # one matrix keeps numpy's scalar arithmetic, pair by pair
        return np.array([_squeezed_coincidence(state, c, pr) for pr in ports])
    n = c.shape[-2]
    i, j = _port_indices(ports)
    m1, m2 = (m - 1 for m in state.modes)
    t_pre = state.transmissions("pre_loss", n)
    t_post = state.transmissions("post_loss", n)
    t1, t2 = t_pre[m1], t_pre[m2]
    s2 = math.sinh(abs(state.zeta)) ** 2
    # squared channel by channel with numpy's scalar power, as for one pair:
    # an array square rounds differently in rare cases
    t_post2 = np.array([t**2 for t in t_post])
    prefac = t_post2[i] * t_post2[j] * t1**2 * t2**2
    ui1, uj1, ui2, uj2 = (_entry(c, *ix) for ix in ((i, 0), (j, 0), (i, 1), (j, 1)))
    paired = np.abs(ui1 * uj2 + ui2 * uj1) ** 2 * (s2 + 2.0 * s2**2)
    uncorr = 2.0 * (
        np.abs(ui1) ** 2 * np.abs(uj1) ** 2 * (t1 / t2) ** 2
        + np.abs(ui2) ** 2 * np.abs(uj2) ** 2 * (t2 / t1) ** 2
    ) * s2**2
    return _float_or_array(prefac * (paired + uncorr))


def coincidence_squeezed(state: InputState, transfer: TransferMatrix, ports=(1, 3)):
    """Unnormalized squeezed-vacuum coincidence G2_ij with both loss stages.

    A float for one matrix and one pair, an array for a stack; a (K, 2)
    array of ``ports`` adds a trailing axis K.
    """
    if state.kind != "squeezed_vacuum":
        raise ValueError("requires a squeezed_vacuum input state")
    cols = _input_columns(state.modes, transfer.n_modes)
    return _squeezed_coincidence(state, transfer.entries[..., :, cols], ports)


def g2_squeezed_full(state: InputState, transfer: TransferMatrix, ports=(1, 3)) -> float:
    """Squeezed-vacuum coincidence normalized to its zero-phase value.

    Post-interaction losses cancel in the ratio; pre-interaction loss
    asymmetry survives through the multiphoton term.  ``ports`` is one
    output pair: a cross pair's zero-phase coincidence is exactly 0, so the
    (K, 2) form of ``coincidence_squeezed`` could not be normalized.
    """
    if np.shape(ports) != (2,):
        raise ValueError(f"ports must be one output pair (i, j), not shape {np.shape(ports)}")
    raw = coincidence_squeezed(state, transfer, ports)
    n = transfer.n_modes
    ref = _squeezed_coincidence(state, ideal_columns(n, 0.0, _input_columns(state.modes, n)), ports)
    if ref == 0.0:
        raise ValueError("zero-phase coincidence vanishes; cannot normalize")
    return raw / ref


def multiphoton_scaling_curve(zeta_grid) -> np.ndarray:
    """Model count rates for the 50:50 tap characterization of |zeta|.

    One squeezed-vacuum channel is split 50:50; coincidences between the two
    halves isolate multiphoton events while cross-channel coincidences
    measure pairs.  Columns (structured array):

    * ``sinh2``  -- sinh^2|zeta|, proportional to the singles rate
    * ``pair``   -- accidental-subtracted cross-channel coincidences,
                    sinh^2 cosh^2 (linear in the singles rate at small zeta)
    * ``mult``   -- same-channel tap coincidences, sinh^4 / 2 (quadratic)
    * ``ratio``  -- mult / pair = sinh^2 / (2 (1 + sinh^2))
    """
    zg = np.atleast_1d(np.asarray(zeta_grid, dtype=float))
    if np.any(zg <= 0):
        raise ValueError("zeta grid must be positive")
    s2 = np.sinh(zg) ** 2
    pair = s2 * (1.0 + s2)
    mult = 0.5 * s2**2
    out = np.zeros(len(zg), dtype=[("zeta", float), ("sinh2", float),
                                   ("pair", float), ("mult", float), ("ratio", float)])
    out["zeta"] = zg
    out["sinh2"] = s2
    out["pair"] = pair
    out["mult"] = mult
    out["ratio"] = mult / pair
    return out


def multiphoton_ratio_model(sinh2) -> np.ndarray:
    """Tap-coincidence ratio as a function of sinh^2|zeta|."""
    s2 = np.asarray(sinh2, dtype=float)
    return s2 / (2.0 * (1.0 + s2))


# n_modes -> (every output port pair i < j, the same pairs as a (K, 2) array)
_PORT_PAIRS: dict[int, tuple[tuple, np.ndarray]] = {}


def _port_pairs(n_modes: int) -> tuple[tuple, np.ndarray]:
    cached = _PORT_PAIRS.get(n_modes)
    if cached is None:
        pairs = tuple((i, j) for i in range(1, n_modes + 1) for j in range(i + 1, n_modes + 1))
        ports = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2)
        ports.flags.writeable = False
        cached = _PORT_PAIRS[n_modes] = (pairs, ports)
    return cached


def _dual_singles(state, c):
    if not state.phase_averaged:
        return state.amplitude**2 * np.abs(c[..., 0] + c[..., 1]) ** 2
    return state.amplitude**2 * (np.abs(c) ** 2).sum(axis=-1)


def _dual_coincidence(state, c, s, ports):
    """Phase-averaged dual coherent intensities are independent, so the coincidence factorizes."""
    i, j = _port_indices(ports)
    return s[..., i] * s[..., j]


def _squeezed_singles(state, c):
    t_pre = state.transmissions("pre_loss", c.shape[-2])
    t_post = state.transmissions("post_loss", c.shape[-2])
    s2 = math.sinh(abs(state.zeta)) ** 2
    body = (np.abs(c * t_pre[[m - 1 for m in state.modes]]) ** 2).sum(axis=-1)
    return t_post**2 * s2 * body


class InputKind(NamedTuple):
    modes: tuple[int, ...]       # default input modes; their count is the count the kind takes
    fields: tuple[str, ...]      # the InputState fields the kind reads
    singles: Callable            # (state, input-column slab) -> (..., N)
    coincidence: Callable | None  # (state, slab, singles, ports) -> unnormalized


# Each kind keeps its own arithmetic: one weighted formula for every kind
# would cost about twice the time per sweep block.
KINDS = {
    "single_coherent": InputKind(
        (1,), ("modes", "amplitude"),
        lambda state, c: state.amplitude**2 * np.abs(c[..., 0]) ** 2, None),
    "dual_coherent": InputKind(
        (1, 3), ("modes", "amplitude", "phase_averaged"), _dual_singles, _dual_coincidence),
    "photon_pair": InputKind(
        (1, 3), ("modes",), lambda state, c: (np.abs(c) ** 2).sum(axis=-1),
        lambda state, c, s, ports: _pair_coincidence(c, ports)),
    "squeezed_vacuum": InputKind(
        (1, 3), ("modes", "zeta", "pre_loss", "post_loss"), _squeezed_singles,
        lambda state, c, s, ports: _squeezed_coincidence(state, c, ports)),
}
INPUT_KINDS = tuple(KINDS)


def correlation_curve(state: InputState, phis, n_modes: int = 3) -> CorrelationResult:
    """Sweep singles and normalized coincidences over a 1-D nonlinear-phase grid.

    The grid is evaluated in blocks of at most ``BLOCK_ENTRIES`` entries of
    the input-column slab; each block is one ``ideal_columns`` slab and one
    coincidence call for every port pair.  Row 0 of the first slab is phase
    0: its coincidence on the input port pair is the reference that
    normalizes every pair, so the first block holds one phase fewer of
    ``phis`` and later blocks are shifted by one row.  Each ``g2`` entry is
    a column of one (len(phis), K) table, NaN throughout for a kind with no
    coincidence.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1:
        raise ValueError(f"phis must be a 1-D array of phases, not shape {phis.shape}")
    cols = _input_columns(state.modes, n_modes)
    kind = KINDS[state.kind]
    pairs, ports = _port_pairs(n_modes)
    # row 0 of every array below is the zero-phase reference, dropped on return
    grid = np.concatenate(([0.0], phis))
    sgl = np.empty((len(grid), n_modes))
    if kind.coincidence is None:
        table = np.full((len(grid), len(pairs)), np.nan)
    else:
        table = np.empty((len(grid), len(pairs)))
        # one common normalization: the zero-phase coincidence on the input
        # port pair.  Cross-port pairs start at exactly zero, so normalizing
        # each pair by its own zero-phase value would be 0/0 for them.  At
        # phase 0 every slab entry is exactly 0 or 1, so this row gives the
        # one-matrix observables' reference bit for bit.
        in_pair = pairs.index((min(state.modes), max(state.modes)))
    block = max(1, BLOCK_ENTRIES // (n_modes * len(cols)))
    for start in range(0, len(grid), block):
        rows = slice(start, start + block)
        c = ideal_columns(n_modes, grid[rows], cols)
        s = sgl[rows] = kind.singles(state, c)
        if kind.coincidence is not None:
            raw = kind.coincidence(state, c, s, ports)
            if start == 0:
                ref = raw[0, in_pair]
                if ref == 0.0:
                    raise ValueError(f"{state.kind} input carries no light: its zero-phase "
                                     "coincidence vanishes; cannot normalize")
            table[rows] = raw / ref
    return CorrelationResult(phi=phis, singles=sgl[1:], g2=dict(zip(pairs, table[1:].T)))
