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
``c`` of shape (..., R, k): ``c[..., :, r]`` holds column ``modes[r] - 1``
of U, one slab row per output channel or per distinct row.  A kernel reads
slab rows only: the singles of each row, and the coincidence of the row
pair (a, b).  What depends on the output channel itself, the
post-interaction losses of squeezed vacuum, is a separate per-channel or
per-pair factor.  ``KINDS`` is the one table of input kinds: each kind's
default modes, the ``InputState`` fields it reads, its singles and
coincidence kernels and its factors.

The public observables (``singles``, ``pair_coincidence``,
``coincidence_squeezed``) take a single N x N transfer matrix or a
(..., N, N) stack of them, slice its input columns (every row, so row i is
channel i) and call the kernels and factors; a stack gives arrays over its
leading axes, and one matrix runs as the same arithmetic with no leading
axis, so it gives the bits of a stack of one.  The coincidences take
``ports`` as one output pair or as a (K, 2) array of pairs; an array adds a
trailing axis K, one entry per pair, and one pair is a port axis of length
one that they drop on return (a ``float`` for one matrix).
``correlation_curve`` never builds a full stack: it evaluates a phase grid
as ``ideal_rows`` slabs of bounded size.  On the ideal transfer every
channel outside the input modes has the same row (q_N, ..., q_N), so a
slab holds at most k + 1 distinct rows; the kernels run on those and on
the ordered row pairs the port pairs read, and one gather each expands the
results to the N channels and K port pairs.  ``g2_squeezed_full`` normalizes
by the coincidence on the identity, the ideal transfer at phase 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .transfer import TransferMatrix, ideal_rows, p_coeff, q_coeff

# Input-column slab entries per block in correlation_curve (2**16
# complex128 = 1 MiB): bounds the memory of a sweep at any grid size.
BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class InputState:
    """Weak-field input description.

    ``modes`` are distinct 1-based integer channel indices (a value whose
    ``int`` differs from it is rejected), as many as the kind's default
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
        object.__setattr__(self, "modes", _mode_indices(self.kind, self.modes))
        object.__setattr__(self, "amplitude", float(self.amplitude))
        for name in ("amplitude", "zeta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)}")
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


def _mode_indices(kind: str, modes) -> tuple[int, ...]:
    """``modes`` (None: the defaults) as ``kind``'s input modes: integers, as many as
    the defaults, distinct and >= 1; the first rule broken raises."""
    defaults = KINDS[kind].modes
    given = defaults if modes is None else tuple(modes)
    checked = tuple(int(m) for m in given)
    if checked != given:
        raise ValueError(f"mode indices must be integers, not {given}")
    if len(checked) != len(defaults):
        raise ValueError(f"{kind} takes {len(defaults)} mode index(es)")
    if len(set(checked)) != len(checked):
        raise ValueError("mode indices must be distinct")
    if any(m < 1 for m in checked):
        raise ValueError("mode indices are 1-based")
    return checked


def _input_columns(modes, n_modes: int) -> list[int]:
    """0-based columns of U that the 1-based input modes feed, in mode order."""
    if not all(1 <= m <= n_modes for m in modes):
        raise ValueError(f"input modes {tuple(modes)} must lie in 1..{n_modes}, the channels")
    return [m - 1 for m in modes]


def singles(state: InputState, transfer: TransferMatrix) -> np.ndarray:
    """Expected singles counts per channel, shape (..., N), for a matrix or stack."""
    n = transfer.n_modes
    cols = _input_columns(state.modes, n)
    kind = KINDS[state.kind]
    factor = kind.channel_factor and kind.channel_factor(state, n)  # checks the losses first
    rows = kind.singles(state, transfer.entries[..., :, cols])
    return rows if factor is None else factor * rows


def g2_dual_coherent(phi, n_modes: int = 3):
    """Normalized (1,3) coincidences for phase-averaged dual coherent input.

    Phase averaging makes the two intensities independent, so the
    coincidence factorizes: (1 - |q|^2)^2.
    """
    q2 = np.abs(q_coeff(n_modes, np.asarray(phi))) ** 2
    return (1.0 - q2) ** 2


def _port_indices(ports, n_modes: int):
    """0-based output indices (i, j) as (K,) arrays: K = 1 for one pair, the rows of a (K, 2) array.

    Every port must be a channel, an integer in 1..N: port 0 or -1 would
    read a channel from the end through numpy's negative index.
    """
    ports = np.asarray(ports)
    shape = ports.shape
    if shape != (2,) and not (len(shape) == 2 and shape[1] == 2):
        raise ValueError(f"ports must be one pair or a (K, 2) array of pairs, not shape {shape}")
    if not np.issubdtype(ports.dtype, np.integer):
        raise ValueError(f"output ports must be integers, not dtype {ports.dtype}")
    i, j = index = ports.reshape(-1, 2).T - 1
    inside = (index >= 0) & (index < n_modes)
    if not inside.all():
        raise ValueError(f"output ports {(index[~inside] + 1).tolist()} must lie in 1..{n_modes}, "
                         "the channels")
    return i, j


def _pair_rows(c, a, b):
    """|c_a0 c_b1 + c_a1 c_b0|^2 on rows a and b of a two-column slab."""
    return np.abs(c[..., a, 0] * c[..., b, 1] + c[..., a, 1] * c[..., b, 0]) ** 2


def _coincidence(kind: str, state, c, ports):
    """Unnormalized coincidences of ``kind`` at ``ports`` on a slab ``c`` of all N rows.

    The kind's row kernel (one that reads no row singles) runs on the port
    pairs' rows and its ``pair_factor`` multiplies the result.  One pair is
    a port axis of length one, dropped here: a float for one matrix.
    """
    n = c.shape[-2]
    ports = np.asarray(ports)
    i, j = _port_indices(ports, n)
    kernels = KINDS[kind]
    factor = kernels.pair_factor and kernels.pair_factor(state, n, i, j)  # checks the losses first
    raw = kernels.coincidence(state, c, None, i, j)
    if factor is not None:
        raw = factor * raw
    if ports.ndim == 2:
        return raw
    raw = raw[..., 0]
    return float(raw) if raw.ndim == 0 else raw


def pair_coincidence(transfer: TransferMatrix, in_modes=(1, 3), ports=(1, 3)):
    """Unnormalized two-photon coincidence |U_i,m1 U_j,m2 + U_i,m2 U_j,m1|^2.

    The coherent sum of the two routing amplitudes carries the two-photon
    interference; for a balanced two-channel splitter it vanishes (the
    Hong-Ou-Mandel null).  ``in_modes`` must be channels, and a photon
    pair's input modes by the rules of ``InputState``: two distinct
    integers.  A float for one matrix and one pair, an array for a stack; a
    (K, 2) array of ``ports`` adds a trailing axis K.
    """
    # the range first, so that its message names N
    cols = _input_columns(in_modes, transfer.n_modes)
    _mode_indices("photon_pair", in_modes)
    return _coincidence("photon_pair", None, transfer.entries[..., :, cols], ports)


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


def _losses(state, n_modes: int):
    """Pre- and post-interaction transmissions per channel, each checked to have N entries."""
    return state.transmissions("pre_loss", n_modes), state.transmissions("post_loss", n_modes)


def _input_transmissions(state):
    """Pre-interaction transmissions of the input modes (``_losses`` checks their length)."""
    t = state.pre_loss
    return np.array([1.0 if t is None else t[m - 1] for m in state.modes])


def _squeezed_rows(state, c, s, a, b):
    """G2 of squeezed vacuum on rows a and b of the slab, before the pair's loss prefactor."""
    t1, t2 = _input_transmissions(state)
    s2 = math.sinh(abs(state.zeta)) ** 2
    ui1, uj1, ui2, uj2 = c[..., a, 0], c[..., b, 0], c[..., a, 1], c[..., b, 1]
    paired = np.abs(ui1 * uj2 + ui2 * uj1) ** 2 * (s2 + 2.0 * s2**2)
    uncorr = 2.0 * (
        np.abs(ui1) ** 2 * np.abs(uj1) ** 2 * (t1 / t2) ** 2
        + np.abs(ui2) ** 2 * np.abs(uj2) ** 2 * (t2 / t1) ** 2
    ) * s2**2
    return paired + uncorr


def _squeezed_prefactor(state, n_modes, i, j):
    """Loss prefactor of G2 on output channels i and j, (K,) arrays."""
    t_pre, t_post = _losses(state, n_modes)
    t1, t2 = (t_pre[m - 1] for m in state.modes)
    # squared channel by channel with numpy's scalar power, not as one array
    # square: the two round differently in rare cases, and the squeezed
    # sweep and synth outputs carry the scalar power's bits
    t_post2 = np.array([t**2 for t in t_post])
    return t_post2[i] * t_post2[j] * t1**2 * t2**2


def coincidence_squeezed(state: InputState, transfer: TransferMatrix, ports=(1, 3)):
    """Unnormalized squeezed-vacuum coincidence G2_ij with both loss stages.

    A float for one matrix and one pair, an array for a stack; a (K, 2)
    array of ``ports`` adds a trailing axis K.
    """
    if state.kind != "squeezed_vacuum":
        raise ValueError("requires a squeezed_vacuum input state")
    cols = _input_columns(state.modes, transfer.n_modes)
    return _coincidence("squeezed_vacuum", state, transfer.entries[..., :, cols], ports)


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
    # the ideal transfer at phase 0 is the identity, whose entries are exactly 0 and 1
    ref = coincidence_squeezed(state, TransferMatrix(np.eye(transfer.n_modes), 0.0), ports)
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


# n_modes -> (every output port pair i < j, their 0-based (K,) channel arrays i and j)
_PORT_PAIRS: dict[int, tuple[tuple, np.ndarray, np.ndarray]] = {}
# slab row map -> the row layout that correlation_curve gathers from
_ROW_PAIRS: dict[tuple[int, ...], tuple] = {}


def _port_pairs(n_modes: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    cached = _PORT_PAIRS.get(n_modes)
    if cached is None:
        pairs = tuple((i, j) for i in range(1, n_modes + 1) for j in range(i + 1, n_modes + 1))
        ports = np.array(pairs, dtype=np.intp).reshape(len(pairs), 2) - 1
        ports.flags.writeable = False
        cached = _PORT_PAIRS[n_modes] = (pairs, *ports.T)
    return cached


def _row_pairs(row_map: tuple[int, ...]):
    """``(channels, a, b, inverse)`` for a slab whose channel i reads row ``row_map[i]``.

    ``channels`` is ``row_map`` as a (N,) gather index.  The k-th port pair
    (i, j) reads rows ``a[inverse[k]] = row_map[i]`` and ``b[inverse[k]] =
    row_map[j]``: each distinct ordered row pair once, in order of its
    first port pair.  Ordered, because c_a0 c_b1 and c_b1 c_a0 may round
    differently.  An identity map gives ``channels`` and ``inverse`` None:
    the rows are the channels and the row pairs the port pairs, so there is
    nothing to gather.
    """
    cached = _ROW_PAIRS.get(row_map)
    if cached is None:
        n = len(row_map)
        found: dict[tuple[int, int], int] = {}
        inverse = [found.setdefault((row_map[i], row_map[j]), len(found))
                   for i in range(n) for j in range(i + 1, n)]
        a, b = (np.array(x, dtype=np.intp) for x in zip(*found))
        if row_map == tuple(range(n)):
            cached = (None, a, b, None)
        else:
            cached = (np.array(row_map, dtype=np.intp), a, b, np.array(inverse, dtype=np.intp))
        for arr in cached:
            if arr is not None:
                arr.flags.writeable = False
        cached = _ROW_PAIRS[row_map] = cached
    return cached


def _gather(x, index):
    """x[..., index], or x itself for no index."""
    return x if index is None else x[..., index]


def _dual_singles(state, c):
    if not state.phase_averaged:
        return state.amplitude**2 * np.abs(c[..., 0] + c[..., 1]) ** 2
    return state.amplitude**2 * (np.abs(c) ** 2).sum(axis=-1)


def _dual_coincidence(state, c, s, a, b):
    """Phase-averaged dual coherent intensities are independent, so the coincidence factorizes."""
    return s[..., a] * s[..., b]


def _squeezed_singles(state, c):
    return (np.abs(c * _input_transmissions(state)) ** 2).sum(axis=-1)


def _squeezed_channel_factor(state, n_modes):
    _, t_post = _losses(state, n_modes)
    s2 = math.sinh(abs(state.zeta)) ** 2
    return t_post**2 * s2


class InputKind(NamedTuple):
    """One input kind.  Its kernels read slab rows only; the factors hold what
    depends on the output channel itself (the post-interaction losses)."""

    modes: tuple[int, ...]       # default input modes; their count is the count the kind takes
    fields: tuple[str, ...]      # the InputState fields the kind reads
    singles: Callable            # (state, slab) -> (..., rows), each slab row's singles
    coincidence: Callable | None  # (state, slab, row singles, a, b) -> rows a, b, unnormalized
    channel_factor: Callable | None = None  # (state, N) -> (N,), times each channel's singles
    pair_factor: Callable | None = None     # (state, N, i, j) -> times the coincidence of i, j


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
        lambda state, c, s, a, b: _pair_rows(c, a, b)),
    "squeezed_vacuum": InputKind(
        (1, 3), ("modes", "zeta", "pre_loss", "post_loss"), _squeezed_singles,
        _squeezed_rows, _squeezed_channel_factor, _squeezed_prefactor),
}
INPUT_KINDS = tuple(KINDS)


def correlation_curve(state: InputState, phis, n_modes: int = 3) -> CorrelationResult:
    """Sweep singles and normalized coincidences over a 1-D nonlinear-phase grid.

    The grid is evaluated in blocks of at most ``BLOCK_ENTRIES`` entries of
    the input-column slab, ``BLOCK_ENTRIES // (N k)`` phases each.  A block
    is one ``ideal_rows`` slab, the slab's distinct rows: the kernels run on
    those rows and on the ordered row pairs that the port pairs read, and
    one gather each expands the results to the N channels and the K port
    pairs, whose factors (``channel_factor``, ``pair_factor``) then apply.
    Row 0 of the first slab is phase 0: its coincidence on the input port
    pair is the reference that normalizes every pair, so the first block
    holds one phase fewer of ``phis`` and later blocks are shifted by one
    row.  Each ``g2`` entry is a column of one (len(phis), K) table, NaN
    throughout for a kind with no coincidence.
    """
    phis = np.asarray(phis, dtype=float)
    if phis.ndim != 1:
        raise ValueError(f"phis must be a 1-D array of phases, not shape {phis.shape}")
    cols = _input_columns(state.modes, n_modes)
    kind = KINDS[state.kind]
    pairs, port_i, port_j = _port_pairs(n_modes)
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
        c, row_map = ideal_rows(n_modes, grid[rows], cols)
        if start == 0:
            channels, a, b, inverse = _row_pairs(row_map)
            channel_factor = kind.channel_factor and kind.channel_factor(state, n_modes)
            pair_factor = kind.pair_factor and kind.pair_factor(state, n_modes, port_i, port_j)
        s = kind.singles(state, c)
        if channel_factor is None:
            sgl[rows] = _gather(s, channels)
        else:
            np.multiply(channel_factor, _gather(s, channels), out=sgl[rows])
        if kind.coincidence is not None:
            raw = kind.coincidence(state, c, s, a, b)
            index = inverse
            if pair_factor is not None:
                raw = _gather(raw, index)
                np.multiply(pair_factor, raw, out=raw)
                index = None
            if start == 0:
                ref = raw[0, in_pair if index is None else index[in_pair]]
                if ref == 0.0:
                    raise ValueError(f"{state.kind} input carries no light: its zero-phase "
                                     "coincidence vanishes; cannot normalize")
            if index is None:
                np.divide(raw, ref, out=table[rows])
            else:
                # the division commutes with the gather, so it runs on the row pairs
                raw /= ref
                table[rows] = raw[..., index]
    return CorrelationResult(phi=phis, singles=sgl[1:], g2=dict(zip(pairs, table[1:].T)))
