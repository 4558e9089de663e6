"""Layer-wise frame-rate reduction (LWR) along the time axis.

Downsampling keeps every S-th frame (0, S, 2S, ...); upsampling is
zero-order hold (frame t copies source frame t // S), truncated to the
target length. Neither costs any multiply-accumulates. A resampled
sublayer computes its core at the reduced rate and adds the held result
back to the full-rate residual.

Strategies:
    none        every sublayer at full rate.
    pps         one down/up pair around the whole layer stack.
    all         both RNN sublayers of every layer resampled.
    sync        both sublayers, but only in the target layers
                (default: the odd 1-based layers).
    async       alternating: odd layers resample the time RNN, even
                layers the band RNN.

:func:`plan_resampling` turns a strategy into one rate divisor per
sublayer core (1 = full rate); ``ModelConfig.plan`` holds the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

KINDS = ("none", "pps", "all", "sync", "async")


@dataclass(frozen=True)
class LwrStrategy:
    """Which sublayers run at the reduced frame rate, and by what factor.

    ``target_layers`` (1-based, sync only) selects the layers to resample;
    None means the default odd layers. They are kept sorted, and kind
    "none" keeps factor 1, so two strategies are equal when their plans are.
    """

    kind: str = "none"
    factor: int = 1
    target_layers: tuple | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown resampling kind {self.kind!r}, expected one of {KINDS}")
        if not isinstance(self.factor, int) or self.factor < 1:
            raise ConfigError(f"resampling factor must be a positive integer, got {self.factor}")
        if self.target_layers is not None:
            if self.kind != "sync":
                raise ConfigError(f"target_layers only applies to sync, not {self.kind!r}")
            ts = self.target_layers
            if any(not isinstance(l, int) or l < 1 for l in ts) or len(set(ts)) != len(ts):
                raise ConfigError(f"target_layers must be distinct positive integers, got {ts}")
            # one form per plan, so equality and the config round trip follow the plan
            object.__setattr__(self, "target_layers", tuple(sorted(ts)))
        if self.kind == "none":
            object.__setattr__(self, "factor", 1)

    @classmethod
    def none(cls):
        return cls("none", 1)

    @classmethod
    def pps(cls, factor: int):
        return cls("pps", factor)

    @classmethod
    def all_layers(cls, factor: int):
        return cls("all", factor)

    @classmethod
    def sync(cls, factor: int, target_layers=None):
        return cls("sync", factor, None if target_layers is None else tuple(target_layers))

    @classmethod
    def alternating(cls, factor: int):
        return cls("async", factor)


def plan_resampling(strategy: LwrStrategy, num_layers: int) -> tuple:
    """Resolve a strategy into ``(pps_factor, pairs)``: the whole stack's rate
    divisor and one ``(band_factor, time_factor)`` pair per layer (layer
    labels are 1-based)."""
    if num_layers < 0:
        raise ConfigError(f"num_layers must be >= 0, got {num_layers}")
    s = strategy.factor
    if strategy.kind == "pps":
        return s, ((1, 1),) * num_layers
    if strategy.kind == "none":
        flags = [(False, False)] * num_layers
    elif strategy.kind == "all":
        flags = [(True, True)] * num_layers
    elif strategy.kind == "sync":
        targets = strategy.target_layers
        if targets is None:
            targets = tuple(range(1, num_layers + 1, 2))
        bad = [l for l in targets if l > num_layers]
        if bad:
            raise ConfigError(f"target_layers {bad} exceed num_layers={num_layers}")
        chosen = set(targets)
        flags = [(l in chosen, l in chosen) for l in range(1, num_layers + 1)]
    else:  # async: time RNN first, then band, alternating
        flags = [(l % 2 == 0, l % 2 == 1) for l in range(1, num_layers + 1)]
    return 1, tuple((s if b else 1, s if t else 1) for b, t in flags)


def reduced_frames(num_frames: int, factor: int) -> int:
    """Frame count after strided downsampling: ceil(num_frames / factor)."""
    return -(-num_frames // factor)


def downsample_t(features: np.ndarray, factor: int) -> np.ndarray:
    """Keep every ``factor``-th frame along the second-to-last axis."""
    if factor < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    return features[..., ::factor, :]


def upsample_t(features: np.ndarray, factor: int, target_frames: int) -> np.ndarray:
    """Zero-order-hold back to ``target_frames`` frames.

    The input must have exactly ceil(target_frames / factor) frames, i.e.
    be the downsampled counterpart of the target.
    """
    if factor < 1:
        raise ConfigError(f"factor must be >= 1, got {factor}")
    have = features.shape[-2]
    want = reduced_frames(target_frames, factor)
    if have != want:
        raise ConfigError(
            f"cannot upsample {have} frames to {target_frames} by factor {factor} "
            f"(expected {want} source frames)"
        )
    return np.take(features, np.arange(target_frames) // factor, axis=-2)


def resampled_sublayer(features: np.ndarray, core, factor: int) -> np.ndarray:
    """Residual block with the core computed at 1/factor frame rate.

    ``core`` maps ``[... x T' x N]`` to the same shape. With factor 1 this
    is a plain residual block with no hold. The held core output is added
    into ``features``, which is returned. The core's output is only read,
    and each held frame is added where it lands, so no full-rate copy of it
    is made.
    """
    held = core(downsample_t(features, factor))
    for phase in range(min(factor, features.shape[-2])):
        frames = features[..., phase::factor, :]
        frames += held[..., : frames.shape[-2], :]
    return features
