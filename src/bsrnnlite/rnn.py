"""Recurrent kernel: stacked LSTM cells and channel rearrangement.

Also hosts the two small helpers (layer norm, dense projection) shared by
the sublayers, the band split and the mask head. Every multiply-accumulate
in the network is a matmul against a loaded weight matrix, once per row,
which is how :func:`bsrnnlite.macs.count_forward` prices it.

Gate order along the stacked 4H axis is (input, forget, cell, output).
The network computes in float64. A model keeps its weights in the dtype
they were stored in (float32 from a weights file), and the kernels upcast
them to float64 at use, which is exact, so every sum is as in float64.

Stacked cell layout: all cells of one RNN sublayer, g groups of one or two
directions, live in one :class:`LstmWeights` whose arrays carry a leading
cell axis of length C = g * dirs in (group, direction) order. Cell
``j * dirs + d`` reads input channels ``[j * I/g, (j + 1) * I/g)``, in
forward time for d = 0 and in reverse time for d = 1. The kernel works
out g from the input width (I / (I/g)) and dirs from C / g, runs every
cell in one time loop, and emits the hidden states group-major
(``[g0 fwd, g0 bwd, g1 fwd, ...]``) through :func:`rearrange`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

LN_EPSILON = 1e-5

#: rows (batch x steps) of each cell's input projection per block. It bounds
#: the projection buffer whatever the sequence length. Blocks depend on the
#: batch size only, so a multi-cell call projects the same rows together as
#: one call per cell does, and the two agree bitwise.
PROJECTION_ROWS = 512

#: rows per :func:`layer_norm` variance block; each row reduces alone, so blocks change no bit
_NORM_ROWS = 256


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalize over the last axis, then apply the affine (gamma, beta)."""
    x = np.asarray(x, dtype=np.float64)
    out = np.subtract(x, x.mean(axis=-1, keepdims=True), out=np.empty(x.shape))
    rows = out.reshape(-1, out.shape[-1])
    for block in (rows[i : i + _NORM_ROWS] for i in range(0, len(rows), _NORM_ROWS)):
        block /= np.sqrt(np.square(block).mean(axis=-1, keepdims=True) + LN_EPSILON)
    out *= gamma
    out += beta
    return out


def dense(x, weight, bias):
    """Affine map on the last axis: ``x @ weight.T + bias``, ``weight`` ``[out x in]``."""
    out = x @ weight.astype(np.float64, copy=False).T
    out += bias
    return out


@dataclass(frozen=True)
class LstmWeights:
    """The stacked cells of one LSTM sublayer (see the module docstring).

    ``w_input`` is ``[C x 4h x i]``, ``w_hidden`` ``[C x 4h x h]``, ``bias``
    ``[C x 4h]``, with gates stacked (i, f, g, o) within each cell.
    """

    w_input: np.ndarray
    w_hidden: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        c, four_h, h = self.w_hidden.shape if self.w_hidden.ndim == 3 else (0, 0, 0)
        if c < 1 or h < 1 or four_h != 4 * h:
            raise ConfigError(f"w_hidden must be [C x 4H x H], got {self.w_hidden.shape}")
        if self.w_input.ndim != 3 or self.w_input.shape[:2] != (c, 4 * h) or not self.w_input.shape[2]:
            raise ConfigError(
                f"w_input must be [C x 4H x I] with C={c}, 4H={4 * h}, got {self.w_input.shape}"
            )
        if self.bias.shape != (c, 4 * h):
            raise ConfigError(f"bias must be [C x 4H]=[{c} x {4 * h}], got {self.bias.shape}")

    @property
    def cell_count(self) -> int:
        return self.w_hidden.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_input.shape[2]

    @property
    def hidden_dim(self) -> int:
        return self.w_hidden.shape[2]


def _cell_layout(width: int, cells: LstmWeights):
    """``(groups, dirs)`` of ``cells`` on a ``width``-channel input."""
    groups, rest = divmod(width, cells.input_dim)
    if rest or not groups or cells.cell_count % groups or cells.cell_count // groups > 2:
        raise ConfigError(
            f"{cells.cell_count} cells of input dim {cells.input_dim} do not split "
            f"{width} channels into groups of one or two directions"
        )
    return groups, cells.cell_count // groups


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as ``0.5 * tanh(x / 2) + 0.5``, cheaper than exp-based forms."""
    y = np.tanh(0.5 * x)
    y *= 0.5
    y += 0.5
    return y


def _gate_update(gates: np.ndarray, c: np.ndarray):
    """Apply the activations and state update to pre-activation gates [..., 4H]."""
    h_dim = c.shape[-1]
    i = _sigmoid(gates[..., :h_dim])
    f = _sigmoid(gates[..., h_dim : 2 * h_dim])
    g = np.tanh(gates[..., 2 * h_dim : 3 * h_dim])
    o = _sigmoid(gates[..., 3 * h_dim :])
    c_next = f * c + i * g
    return o * np.tanh(c_next), c_next


def lstm_forward_batch(seqs: np.ndarray, cells: LstmWeights):
    """Every cell of one sublayer over a batch of sequences, in one time loop.

    ``seqs`` is ``[B x T x I]``; returns the rearranged hidden states
    ``[B x T x C*h]`` from zero initial state. The input projection (bias
    folded in) runs in blocks of :data:`PROJECTION_ROWS` rows ahead of the
    steps that use it; only the recurrent matmul runs per step, one for all
    cells.
    """
    b, t, width = seqs.shape
    groups, dirs = _cell_layout(width, cells)
    n, i, h = cells.cell_count, cells.input_dim, cells.hidden_dim
    xs = seqs.reshape(b, t, groups, i)
    # upcast once, then transpose: BLAS sees the float64 layout, the loop casts nothing
    w_input = cells.w_input.astype(np.float64, copy=False).transpose(0, 2, 1)
    w_hidden = cells.w_hidden.astype(np.float64, copy=False).transpose(0, 2, 1)
    bias = cells.bias.astype(np.float64, copy=False)[:, None]
    # frames[d, s] is the frame that direction d reads at step s
    frames = np.stack([np.arange(t), np.arange(t)[::-1]])[:dirs]
    out = np.empty((b, t, groups, dirs, h))
    state = np.zeros((n, b, h))
    c = np.zeros((n, b, h))
    block = max(1, PROJECTION_ROWS // max(b, 1))
    for start in range(0, t, block):
        idx = frames[:, start : start + block]
        steps = idx.shape[1]
        x = xs[:, idx].transpose(3, 1, 0, 2, 4).reshape(n, b * steps, i)
        gates_x = x @ w_input
        gates_x += bias
        gates_x = gates_x.reshape(n, b, steps, 4 * h)
        for s in range(steps):
            state, c = _gate_update(gates_x[:, :, s] + state @ w_hidden, c)
            by_dir = state.reshape(groups, dirs, b, h)
            for d in range(dirs):
                out[:, idx[d, s], :, d] = by_dir[:, d].swapaxes(0, 1)
    return rearrange(out.reshape(b, t, n * h), groups)


def rearrange(x: np.ndarray, groups: int) -> np.ndarray:
    """Channel shuffle on the last axis.

    Views the C channels as [groups x C/groups], transposes, flattens, so
    information crosses group boundaries between grouped layers. groups=1
    is the identity; groups=2 is its own inverse.
    """
    c = x.shape[-1]
    if groups < 1 or c % groups != 0:
        raise ConfigError(f"channel count {c} not divisible into {groups} groups")
    head = x.shape[:-1]
    return x.reshape(head + (groups, c // groups)).swapaxes(-2, -1).reshape(head + (c,))


@dataclass(frozen=True)
class GroupedLayerWeights:
    """One RNN sublayer: input norm, stacked cells, post-RNN projection.

    ``cells`` holds every (group, direction) cell, each with dims
    I/g -> H/g. The projection maps the rearranged hidden states
    ``[C * H/g]`` back to the feature dim; it is never grouped.
    """

    norm_gamma: np.ndarray
    norm_beta: np.ndarray
    cells: LstmWeights
    proj_weight: np.ndarray
    proj_bias: np.ndarray

    def __post_init__(self) -> None:
        if self.norm_gamma.ndim != 1 or self.norm_beta.shape != self.norm_gamma.shape:
            raise ConfigError(
                f"norm params must be two [I] vectors, got "
                f"{self.norm_gamma.shape} / {self.norm_beta.shape}"
            )
        _cell_layout(self.norm_gamma.shape[0], self.cells)
        expect = self.cells.cell_count * self.cells.hidden_dim
        if self.proj_weight.ndim != 2 or self.proj_weight.shape[1] != expect:
            raise ConfigError(
                f"projection must be [out x {expect}], got {self.proj_weight.shape}"
            )
        if self.proj_bias.shape != (self.proj_weight.shape[0],):
            raise ConfigError(f"projection bias shape {self.proj_bias.shape} mismatched")
