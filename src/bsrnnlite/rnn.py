"""Recurrent kernels: LSTM cells, grouped variants, channel rearrangement.

Also hosts the two small pointwise helpers (layer norm, dense projection)
shared by the band-split and mask-head code, so every multiply-accumulate
in the network goes through one of exactly two call sites per kernel and
the cost tally stays an exact mirror of the closed-form count.

Gate order along the stacked 4H axis is (input, forget, cell, output).
The network computes in float64; weight files store float32 and are
upcast when a model is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import ConfigError

LN_EPSILON = 1e-5


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalize over the last axis, then apply the affine (gamma, beta)."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = np.square(x - mu).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPSILON) * gamma + beta


def dense(x, weight, bias, tally=None, component: str | None = None):
    """Affine map on the last axis: ``x @ weight.T + bias``.

    ``weight`` is ``[out_dim x in_dim]``. When a tally is given, records
    rows * in_dim * out_dim multiply-accumulates against ``component``
    (bias adds are free by convention).
    """
    out = x @ weight.T + bias
    if tally is not None:
        rows = x.size // x.shape[-1]
        tally.add(component, rows * weight.shape[0] * weight.shape[1])
    return out


@dataclass(frozen=True)
class LstmWeights:
    """One direction of one LSTM: stacked gate matrices and bias.

    ``w_input`` is ``[4H x I]``, ``w_hidden`` ``[4H x H]``, ``bias`` ``[4H]``,
    with gates stacked (i, f, g, o).
    """

    w_input: np.ndarray
    w_hidden: np.ndarray
    bias: np.ndarray

    def __post_init__(self) -> None:
        h = self.w_hidden.shape[1] if self.w_hidden.ndim == 2 else 0
        if h < 1 or self.w_hidden.shape != (4 * h, h):
            raise ConfigError(f"w_hidden must be [4H x H], got {self.w_hidden.shape}")
        if self.w_input.ndim != 2 or self.w_input.shape[0] != 4 * h:
            raise ConfigError(
                f"w_input must be [4H x I] with 4H={4 * h}, got {self.w_input.shape}"
            )
        if self.bias.shape != (4 * h,):
            raise ConfigError(f"bias must be [4H]={4 * h}, got {self.bias.shape}")

    @property
    def input_dim(self) -> int:
        return self.w_input.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w_hidden.shape[1]


def _gate_update(gates: np.ndarray, c: np.ndarray):
    """Apply the activations and state update to pre-activation gates [..., 4H]."""
    h_dim = c.shape[-1]
    i = expit(gates[..., :h_dim])
    f = expit(gates[..., h_dim : 2 * h_dim])
    g = np.tanh(gates[..., 2 * h_dim : 3 * h_dim])
    o = expit(gates[..., 3 * h_dim :])
    c_next = f * c + i * g
    return o * np.tanh(c_next), c_next


def lstm_step(x: np.ndarray, state, weights: LstmWeights):
    """One cell update. ``state`` is ``(h, c)``; returns the next ``(h, c)``."""
    h, c = state
    gates = x[None, :] @ weights.w_input.T + h[None, :] @ weights.w_hidden.T + weights.bias
    h_next, c_next = _gate_update(gates, c[None, :])
    return h_next[0], c_next[0]


def lstm_forward_batch(seqs: np.ndarray, weights: LstmWeights, tally=None, component=None):
    """Unidirectional LSTM over a batch of sequences.

    ``seqs`` is ``[B x T x I]``; returns hidden states ``[B x T x H]`` from
    zero initial state. Input projections for the whole batch are computed
    up front; only the recurrent matmul runs per step.
    """
    b, t, i = seqs.shape
    h_dim = weights.hidden_dim
    if i != weights.input_dim:
        raise ConfigError(f"sequence feature dim {i} != weight input dim {weights.input_dim}")
    out = np.empty((b, t, h_dim))
    if t == 0:
        return out
    gates_x = (seqs.reshape(b * t, i) @ weights.w_input.T).reshape(b, t, 4 * h_dim)
    if tally is not None:
        tally.add(component, b * t * i * 4 * h_dim)
        tally.add(component, b * t * h_dim * 4 * h_dim)
    h = np.zeros((b, h_dim))
    c = np.zeros((b, h_dim))
    for step in range(t):
        gates = gates_x[:, step] + h @ weights.w_hidden.T + weights.bias
        h, c = _gate_update(gates, c)
        out[:, step] = h
    return out


def lstm_forward(seq: np.ndarray, weights: LstmWeights, bidirectional: bool = False):
    """LSTM over one sequence ``[T x I]``.

    With ``bidirectional`` a second pass runs over the reversed sequence
    (same weights) and is concatenated, giving ``[T x 2H]``.
    """
    if seq.ndim != 2:
        raise ConfigError(f"sequence must be [T x I], got shape {seq.shape}")
    fwd = lstm_forward_batch(seq[None], weights)[0]
    if not bidirectional:
        return fwd
    bwd = lstm_forward_batch(seq[None, ::-1], weights)[0][::-1]
    return np.concatenate([fwd, bwd], axis=-1)


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
    """One RNN sublayer: input norm, per-group cells, post-RNN projection.

    ``forward_cells`` (and ``backward_cells`` when the sublayer is
    bidirectional) hold one LstmWeights per group with dims I/g -> H/g.
    The projection maps the concatenated, rearranged hidden states
    ``[dirs * H]`` back to the feature dim; it is never grouped.
    """

    norm_gamma: np.ndarray
    norm_beta: np.ndarray
    forward_cells: tuple
    backward_cells: tuple | None
    proj_weight: np.ndarray
    proj_bias: np.ndarray

    def __post_init__(self) -> None:
        if not self.forward_cells:
            raise ConfigError("at least one cell group required")
        dims = {(c.input_dim, c.hidden_dim) for c in self.forward_cells}
        if len(dims) != 1:
            raise ConfigError(f"cell groups disagree on dims: {sorted(dims)}")
        if self.backward_cells is not None:
            if len(self.backward_cells) != len(self.forward_cells):
                raise ConfigError("forward/backward group counts differ")
            if {(c.input_dim, c.hidden_dim) for c in self.backward_cells} != dims:
                raise ConfigError("forward/backward cell dims differ")
        if self.norm_gamma.shape != (self.input_dim,) or self.norm_beta.shape != (self.input_dim,):
            raise ConfigError(
                f"norm params must be [{self.input_dim}], got "
                f"{self.norm_gamma.shape} / {self.norm_beta.shape}"
            )
        dirs = 2 if self.backward_cells is not None else 1
        expect = dirs * self.hidden_dim
        if self.proj_weight.ndim != 2 or self.proj_weight.shape[1] != expect:
            raise ConfigError(
                f"projection must be [out x {expect}], got {self.proj_weight.shape}"
            )
        if self.proj_bias.shape != (self.proj_weight.shape[0],):
            raise ConfigError(f"projection bias shape {self.proj_bias.shape} mismatched")

    @property
    def group_count(self) -> int:
        return len(self.forward_cells)

    @property
    def input_dim(self) -> int:
        return self.forward_cells[0].input_dim * self.group_count

    @property
    def hidden_dim(self) -> int:
        return self.forward_cells[0].hidden_dim * self.group_count

    @property
    def bidirectional(self) -> bool:
        return self.backward_cells is not None


def grouped_forward_batch(seqs: np.ndarray, weights: GroupedLayerWeights, tally=None, component=None):
    """Grouped (optionally bidirectional) RNN over ``[B x T x I]``.

    The input channels are split into g contiguous slices, each processed by
    its own cell pair, concatenated group-major ([g0 fwd, g0 bwd, g1 fwd, ...])
    and rearranged. Returns ``[B x T x dirs * H]``; norm and projection are
    the caller's job.
    """
    g = weights.group_count
    if seqs.shape[-1] != weights.input_dim:
        raise ConfigError(
            f"feature dim {seqs.shape[-1]} != layer input dim {weights.input_dim}"
        )
    slice_dim = weights.input_dim // g
    outs = []
    for j in range(g):
        xj = seqs[..., j * slice_dim : (j + 1) * slice_dim]
        hj = lstm_forward_batch(xj, weights.forward_cells[j], tally, component)
        if weights.bidirectional:
            hb = lstm_forward_batch(xj[:, ::-1], weights.backward_cells[j], tally, component)[:, ::-1]
            hj = np.concatenate([hj, hb], axis=-1)
        outs.append(hj)
    merged = outs[0] if g == 1 else np.concatenate(outs, axis=-1)
    return rearrange(merged, g)


def grouped_forward(seq: np.ndarray, weights: GroupedLayerWeights):
    """Single-sequence :func:`grouped_forward_batch`; the weights set the direction count."""
    if seq.ndim != 2:
        raise ConfigError(f"sequence must be [T x I], got shape {seq.shape}")
    return grouped_forward_batch(seq[None], weights)[0]
