"""Small shared builders for the test suite."""

import dataclasses

import numpy as np

from bsrnnlite import ModelConfig, StftConfig, BandConfig, analyze, build, canonical_config, gen_weights
from bsrnnlite.errors import ConfigError
from bsrnnlite.macs import CalibrationResult
from bsrnnlite.rnn import LstmWeights, lstm_forward_batch


#: largest difference, relative to the float64 output's RMS, allowed between the
#: layer stack in float32 and in float64. The worst read, BLAS pinned and unpinned
#: at 1-3 workers, was 1.36e-6 (canonical dims, 256 frames) and 7.4e-7 on the
#: fuzzed configs of criterion 1.
FLOAT32_STACK_BOUND = 1e-5


def within_float32_bound(got: np.ndarray, want: np.ndarray) -> bool:
    """``got``, a float32 stack output, is within :data:`FLOAT32_STACK_BOUND` of
    ``want``, the float64 one, relative to ``want``'s RMS."""
    return bool(np.max(np.abs(got - want)) <= FLOAT32_STACK_BOUND * np.sqrt(np.mean(want**2)))


def tiny_config(**overrides) -> ModelConfig:
    """A few-thousand-parameter model that exercises every code path."""
    base = dict(
        stft=StftConfig(sample_rate=8000, fft_size=32, hop_size=8),
        bands=BandConfig(((0, 6), (6, 12), (12, 17))),
        feature_dim=6,
        hidden_dim=4,
        num_layers=2,
        name="tiny",
    )
    base.update(overrides)
    return ModelConfig(**base)


def build_tiny(seed=0, **overrides):
    cfg = tiny_config(**overrides)
    return cfg, build(cfg, gen_weights(cfg, seed))


def with_fields(cfg: ModelConfig, **overrides) -> ModelConfig:
    return dataclasses.replace(cfg, **overrides)


def random_band_layout(rng: np.random.Generator, num_bins: int, max_bands: int = 5) -> BandConfig:
    """Random contiguous partition of [0, num_bins) into 1..max_bands bands."""
    k = int(rng.integers(1, min(max_bands, num_bins) + 1))
    cuts = sorted(rng.choice(np.arange(1, num_bins), size=k - 1, replace=False).tolist())
    edges = [0] + cuts + [num_bins]
    return BandConfig(tuple((edges[i], edges[i + 1]) for i in range(k)))


def rearrange(x: np.ndarray, groups: int) -> np.ndarray:
    """Channel shuffle on the last axis: the order ``lstm_forward_batch`` writes.

    Views the C channels as [groups x C/groups], transposes, flattens.
    groups=1 is the identity; groups=2 is its own inverse.
    """
    c = x.shape[-1]
    if groups < 1 or c % groups != 0:
        raise ConfigError(f"channel count {c} not divisible into {groups} groups")
    head = x.shape[:-1]
    return x.reshape(head + (groups, c // groups)).swapaxes(-2, -1).reshape(head + (c,))


def lstm_forward(seq: np.ndarray, cells: LstmWeights):
    """Single-sequence ``lstm_forward_batch``: ``[T x I]`` -> ``[T x C*h]``."""
    assert seq.ndim == 2, f"sequence must be [T x I], got shape {seq.shape}"
    return lstm_forward_batch(seq[None], cells)[0]


def one_cell(cells: LstmWeights, k: int) -> LstmWeights:
    """Cell ``k`` of a stack, as a stack of one."""
    return LstmWeights(cells.w_input[k : k + 1], cells.w_hidden[k : k + 1], cells.bias[k : k + 1])


def compose_by_hand(seqs, cells: LstmWeights, run_cell):
    """A stacked-cell LSTM call rebuilt from one run per cell.

    ``run_cell(x, k)`` runs cell ``k`` forward in time over ``x`` [B x T x I/g].
    Each cell gets its group's input slice, backward cells get it reversed
    (and their output reversed back), and the outputs are concatenated
    group-major and rearranged: the layout the kernel documents.
    """
    width = cells.input_dim
    groups = seqs.shape[-1] // width
    dirs = cells.cell_count // groups
    parts = []
    for k in range(cells.cell_count):
        group, backward = divmod(k, dirs)
        x = seqs[:, :, group * width : (group + 1) * width]
        parts.append(run_cell(x[:, ::-1], k)[:, ::-1] if backward else run_cell(x, k))
    return rearrange(np.concatenate(parts, axis=-1), groups)


def calibrate_by_analyze(target_base, target_grouped, group, dim_min, dim_max, step, duration, top):
    """The calibration grid priced one candidate at a time through ``analyze``.

    Two configs per candidate (ungrouped and ``group``-grouped), sorted by
    (residual, feature_dim, hidden_dim): the reference the vectorised
    ``calibrate_feature_dims`` must equal exactly.
    """
    template = canonical_config()
    dims = [d for d in range(dim_min, dim_max + 1, step) if d % group == 0]
    results = []
    for n in dims:
        for h in dims:
            cfg = dataclasses.replace(template, feature_dim=n, hidden_dim=h, group_size=1)
            base_gps = analyze(cfg, duration).gps
            grouped_gps = analyze(dataclasses.replace(cfg, group_size=group), duration).gps
            residual = max(abs(base_gps - target_base), abs(grouped_gps - target_grouped))
            results.append(CalibrationResult(n, h, base_gps, grouped_gps, residual))
    results.sort(key=lambda r: (r.residual, r.feature_dim, r.hidden_dim))
    return results[:top]
