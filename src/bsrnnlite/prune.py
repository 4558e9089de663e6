"""Sub-band pruning (SBP) of the time-RNN path.

High bands carry little speech energy, so their temporal modeling can be
skipped: at each layer the top ``skip_count`` bands bypass the time-RNN
sublayer unchanged (a pure copy, no residual, no norm) while the lower
bands are processed normally. Band RNNs are never pruned; every band
still exchanges information across frequency at every layer.

Schedules (1-based layer index l, K bands):
    none          skip 0 everywhere.
    aggressive    skip a constant L bands (default L = num_layers).
    progressive   skip l bands at layer l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

KINDS = ("none", "aggressive", "progressive")


@dataclass(frozen=True)
class SbpStrategy:
    """Pruning flavor; ``skip_bands`` is the aggressive L (None = num_layers)."""

    kind: str = "none"
    skip_bands: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown pruning kind {self.kind!r}, expected one of {KINDS}")
        if self.skip_bands is not None:
            if self.kind != "aggressive":
                raise ConfigError(f"skip_bands only applies to aggressive, not {self.kind!r}")
            if not isinstance(self.skip_bands, int) or self.skip_bands < 0:
                raise ConfigError(f"skip_bands must be a non-negative integer, got {self.skip_bands}")

    @classmethod
    def none(cls):
        return cls("none")

    @classmethod
    def aggressive(cls, skip_bands: int | None = None):
        return cls("aggressive", skip_bands)

    @classmethod
    def progressive(cls):
        return cls("progressive")


def prune_schedule(strategy: SbpStrategy, num_layers: int, num_bands: int) -> tuple:
    """Bands to skip at each layer, as a tuple indexed by layer - 1.

    At least one band must remain active at every layer, so aggressive
    requires L <= num_bands - 1 and progressive requires
    num_bands >= num_layers + 1.
    """
    if num_layers < 0:
        raise ConfigError(f"num_layers must be >= 0, got {num_layers}")
    if num_bands < 1:
        raise ConfigError(f"num_bands must be >= 1, got {num_bands}")
    if strategy.kind == "none":
        return (0,) * num_layers
    if strategy.kind == "aggressive":
        skip = strategy.skip_bands if strategy.skip_bands is not None else num_layers
        if skip > num_bands - 1:
            raise ConfigError(
                f"cannot skip {skip} of {num_bands} bands; at least one must remain"
            )
        return (skip,) * num_layers
    # progressive
    if num_bands <= num_layers:
        raise ConfigError(
            f"progressive pruning needs more than {num_layers} bands, got {num_bands}"
        )
    return tuple(range(1, num_layers + 1))


def apply_pruned_time_rnn(features: np.ndarray, sublayer, skip_count: int) -> np.ndarray:
    """Run ``sublayer`` on the lowest bands, pass the top ``skip_count`` through.

    ``features`` is ``[K x T x N]``; ``sublayer`` maps ``[K' x T x N]`` to the
    same shape (residual included). The result is stored in ``features``,
    which is returned: the skipped bands stay where they are, bitwise
    unchanged, and a sublayer that updates its view of the active bands in
    place leaves nothing to copy.
    """
    k = features.shape[0]
    if not 0 <= skip_count <= k - 1:
        raise ConfigError(f"skip_count must be in [0, {k - 1}], got {skip_count}")
    active = k - skip_count
    features[:active] = sublayer(features[:active])  # a no-op when the sublayer wrote into this view
    return features
