"""Sub-band splitting and the per-band mask head.

A band layout is a contiguous partition of the rfft bins. Each band's
complex content is flattened to ``2 * width`` reals (real parts then
imaginary parts), normalized, and projected to the shared feature dim N.
The mask head runs the reverse direction per band: norm, dense to a
``mask_hidden_ratio * N`` hidden layer, tanh, dense to ``2 * width``,
reassembled into a complex mask over all bins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rnn import dense, layer_norm

#: widths of the canonical 23-band layout for 257 rfft bins: fine resolution
#: at low frequencies, coarse at the top, remainder in the last band.
CANONICAL_WIDTHS = (4,) * 10 + (8,) * 8 + (24,) * 4


@dataclass(frozen=True)
class BandConfig:
    """Contiguous, ordered sub-band boundaries ``((start, end), ...)``.

    Ends are exclusive. The first band starts at bin 0; each band starts
    where the previous one ends. Coverage of a concrete bin count is
    checked separately by :meth:`validate_for_bins` since the layout alone
    does not know the transform size.
    """

    boundaries: tuple

    def __post_init__(self) -> None:
        bs = self.boundaries
        if not bs:
            raise ConfigError("at least one band required")
        if bs[0][0] != 0:
            raise ConfigError(f"first band must start at bin 0, got {bs[0][0]}")
        for k, (start, end) in enumerate(bs):
            if start >= end:
                raise ConfigError(f"band {k} is empty or inverted: ({start}, {end})")
            if k > 0 and bs[k - 1][1] != start:
                raise ConfigError(
                    f"bands must be contiguous: band {k - 1} ends at {bs[k - 1][1]}, "
                    f"band {k} starts at {start}"
                )

    @property
    def num_bands(self) -> int:
        return len(self.boundaries)

    @property
    def widths(self) -> tuple:
        return tuple(end - start for start, end in self.boundaries)

    @property
    def total_bins(self) -> int:
        return self.boundaries[-1][1]

    def validate_for_bins(self, num_bins: int) -> None:
        """Require the layout to cover ``[0, num_bins)`` exactly."""
        if self.total_bins != num_bins:
            raise ConfigError(
                f"band layout covers {self.total_bins} bins, transform has {num_bins}"
            )


def canonical_bands(num_bins: int = 257) -> BandConfig:
    """The 23-band layout: 10 bands of 4 bins, 8 of 8, 4 of 24, remainder last."""
    head = sum(CANONICAL_WIDTHS)
    if num_bins <= head:
        raise ConfigError(f"canonical layout needs more than {head} bins, got {num_bins}")
    widths = CANONICAL_WIDTHS + (num_bins - head,)
    edges = np.concatenate([[0], np.cumsum(widths)])
    return BandConfig(tuple((int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])))


@dataclass(frozen=True)
class BandProjection:
    """Per-band encoder params: norm over 2w inputs, dense 2w -> N."""

    norm_gamma: np.ndarray
    norm_beta: np.ndarray
    weight: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class MaskBandHead:
    """Per-band decoder params: norm over N, dense N -> hidden, dense hidden -> 2w."""

    norm_gamma: np.ndarray
    norm_beta: np.ndarray
    fc1_weight: np.ndarray
    fc1_bias: np.ndarray
    fc2_weight: np.ndarray
    fc2_bias: np.ndarray


def band_split(spec: np.ndarray, weights: tuple, config: BandConfig) -> np.ndarray:
    """Encode a spectrogram ``[F x T]`` into ``[K x T x N]``; one BandProjection per band."""
    spec = np.asarray(spec)
    if spec.ndim != 2:
        raise ConfigError(f"spectrogram must be [F x T], got shape {spec.shape}")
    config.validate_for_bins(spec.shape[0])
    if len(weights) != config.num_bands:
        raise ConfigError(
            f"{len(weights)} band projections for {config.num_bands} bands"
        )
    t = spec.shape[1]
    n = weights[0].weight.shape[0]
    out = np.empty((config.num_bands, t, n))
    for k, (start, end) in enumerate(config.boundaries):
        bw = weights[k]
        sub = spec[start:end]
        x = np.concatenate([sub.real, sub.imag], axis=0).T.astype(np.float64)
        x = layer_norm(x, bw.norm_gamma, bw.norm_beta)
        out[k] = dense(x, bw.weight, bw.bias)
    return out


def estimate_mask(features: np.ndarray, weights: tuple, config: BandConfig) -> np.ndarray:
    """Decode ``[K x T x N]`` into a complex mask ``[F x T]``; one MaskBandHead per band."""
    features = np.asarray(features)
    if features.ndim != 3 or features.shape[0] != config.num_bands:
        raise ConfigError(
            f"features must be [{config.num_bands} x T x N], got shape {features.shape}"
        )
    if len(weights) != config.num_bands:
        raise ConfigError(
            f"{len(weights)} mask heads for {config.num_bands} bands"
        )
    t = features.shape[1]
    mask = np.empty((config.total_bins, t), dtype=np.complex64)
    for k, (start, end) in enumerate(config.boundaries):
        hw = weights[k]
        x = layer_norm(features[k], hw.norm_gamma, hw.norm_beta)
        hidden = np.tanh(dense(x, hw.fc1_weight, hw.fc1_bias))
        y = dense(hidden, hw.fc2_weight, hw.fc2_bias)
        width = end - start
        mask[start:end] = (y[:, :width] + 1j * y[:, width:]).T
    return mask


def apply_mask(spec: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Pointwise complex multiply of spectrogram and mask (shapes must match)."""
    spec = np.asarray(spec)
    mask = np.asarray(mask)
    if spec.shape != mask.shape:
        raise ConfigError(f"shape mismatch: spectrogram {spec.shape} vs mask {mask.shape}")
    return (spec * mask).astype(np.complex64)
