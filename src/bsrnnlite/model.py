"""Model configuration, weight layout, and the inference pipeline.

The network is a band-split RNN: a spectrogram is encoded into
``[K bands x T frames x N features]``, run through ``num_layers`` dual-path
layers (a bidirectional band RNN across K, then a causal time RNN across T,
each a residual sublayer of norm -> grouped LSTM -> dense), and decoded by
a per-band mask head. Layer-wise resampling, sub-band pruning, and RNN
grouping plug in here; each with its neutral setting (factor 1, skip 0,
one group) leaves the computation bitwise unchanged.

``canonical-v1`` is the reference configuration. Its feature and hidden
dims were fixed by the integer grid calibration in :mod:`bsrnnlite.macs`
so that the ungrouped baseline costs 1.84 G/s and the two-group variant
1.09 G/s on one second of 16 kHz audio.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Mapping

import numpy as np

from . import rnn
from .bands import (
    BandConfig,
    BandProjection,
    MaskBandHead,
    apply_mask,
    band_split,
    canonical_bands,
    estimate_mask,
)
from .dsp import IstftTail, OaConfig, StftConfig, istft, mono_signal, observation_add, stft
from .errors import ConfigError, WeightsFormatError
from .prune import SbpStrategy, prune_schedule
from .resample import LwrStrategy, add_held, downsample_t, plan_resampling, reduced_frames, upsample_t
from .rnn import GroupedLayerWeights, LstmWeights, dense, layer_norm

#: calibrated reference dims (see macs.calibrate_feature_dims)
CANONICAL_FEATURE_DIM = 126
CANONICAL_HIDDEN_DIM = 72
CANONICAL_NUM_LAYERS = 6
#: most layers a config may have; each adds a row to its plan, and a plan of
#: 10**7 rows took more than 3.4 GB
MAX_LAYERS = 1024


@dataclass(frozen=True)
class ModelConfig:
    """Complete, validated description of one model variant.

    ``plan`` (derived, not compared) is ``(pps_factor, rows)`` with one
    ``(band_factor, time_factor, skip_bands)`` row per layer: the frame-rate
    divisor of each sublayer core (1 = full rate) and the top bands that
    bypass the time RNN, resolved once from ``resample`` and ``prune``.
    """

    stft: StftConfig
    bands: BandConfig
    feature_dim: int
    hidden_dim: int
    num_layers: int
    group_size: int = 1
    resample: LwrStrategy = LwrStrategy.none()
    prune: SbpStrategy = SbpStrategy.none()
    time_rnn_causal: bool = True
    band_rnn_bidirectional: bool = True
    mask_hidden_ratio: int = 4
    name: str = ""
    plan: tuple = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.feature_dim < 1 or self.hidden_dim < 1:
            raise ConfigError(
                f"feature_dim and hidden_dim must be positive, got "
                f"{self.feature_dim}/{self.hidden_dim}"
            )
        if not 0 <= self.num_layers <= MAX_LAYERS:
            raise ConfigError(f"num_layers must be in [0, {MAX_LAYERS}], got {self.num_layers}")
        if self.group_size < 1:
            raise ConfigError(f"group_size must be >= 1, got {self.group_size}")
        if self.feature_dim % self.group_size or self.hidden_dim % self.group_size:
            raise ConfigError(
                f"feature_dim {self.feature_dim} and hidden_dim {self.hidden_dim} "
                f"must be divisible by group_size {self.group_size}"
            )
        if self.mask_hidden_ratio < 1:
            raise ConfigError(f"mask_hidden_ratio must be >= 1, got {self.mask_hidden_ratio}")
        self.bands.validate_for_bins(self.stft.frequency_bins)
        pps_factor, pairs = plan_resampling(self.resample, self.num_layers)
        skips = prune_schedule(self.prune, self.num_layers, self.bands.num_bands)
        rows = tuple(pair + (skip,) for pair, skip in zip(pairs, skips))
        object.__setattr__(self, "plan", (pps_factor, rows))

    @property
    def num_bands(self) -> int:
        return self.bands.num_bands

    @property
    def mask_hidden_dim(self) -> int:
        return self.mask_hidden_ratio * self.feature_dim

    def with_groups(self, group_size: int, name: str | None = None) -> "ModelConfig":
        return dataclasses.replace(
            self, group_size=group_size, name=self.name if name is None else name
        )

    def with_resample(self, strategy: LwrStrategy, name: str | None = None) -> "ModelConfig":
        return dataclasses.replace(
            self, resample=strategy, name=self.name if name is None else name
        )

    def with_prune(self, strategy: SbpStrategy, name: str | None = None) -> "ModelConfig":
        return dataclasses.replace(
            self, prune=strategy, name=self.name if name is None else name
        )


def canonical_config() -> ModelConfig:
    """The calibrated reference model: 23 bands, 6 layers, N=126, H=72."""
    s = StftConfig()
    return ModelConfig(
        stft=s,
        bands=canonical_bands(s.frequency_bins),
        feature_dim=CANONICAL_FEATURE_DIM,
        hidden_dim=CANONICAL_HIDDEN_DIM,
        num_layers=CANONICAL_NUM_LAYERS,
        name="canonical-v1",
    )


def _presets() -> dict:
    """The named reference variants, in the order of ``macs.canonical_chain``."""
    base = canonical_config()
    lwr16 = base.with_resample(LwrStrategy.alternating(16), "canonical-v1-lwr16")
    sbpp = lwr16.with_prune(SbpStrategy.progressive(), "canonical-v1-lwr16-sbpp")
    presets = (base, base.with_groups(2, "canonical-v1-gr"), lwr16, sbpp,
               sbpp.with_groups(2, "canonical-v1-full"))
    return {cfg.name: cfg for cfg in presets}


_PRESETS = _presets()


def preset_names() -> tuple:
    return tuple(_PRESETS)


def preset_config(name: str) -> ModelConfig:
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(_PRESETS)}"
        ) from None


def _layout(config: ModelConfig) -> dict:
    """Every parameter's name and shape, stated once, in serialization order.

    Leaves are ``(name, shape)``. A dict maps the fields of one weights
    record to their leaves; a list holds repeated records (bands, layers,
    groups, directions). :func:`expected_tensors` flattens the tree
    depth-first and :func:`build` fills it with arrays.
    """
    n, h, g = config.feature_dim, config.hidden_dim, config.group_size
    ng, hg = n // g, h // g

    def norm(p, dim):
        return {"norm_gamma": (f"{p}.norm.gamma", (dim,)), "norm_beta": (f"{p}.norm.beta", (dim,))}

    def linear(p, part, out_dim, in_dim, field=None):
        field = f"{part}_" if field is None else field
        return {f"{field}weight": (f"{p}.{part}.weight", (out_dim, in_dim)),
                f"{field}bias": (f"{p}.{part}.bias", (out_dim,))}

    def sublayer(p, dirs):
        def cell(q):
            return {"w_input": (f"{q}.w_input", (4 * hg, ng)),
                    "w_hidden": (f"{q}.w_hidden", (4 * hg, hg)),
                    "bias": (f"{q}.bias", (4 * hg,))}

        cells = [[cell(f"{p}.group{j}.{d}") for d in ("fwd", "bwd")[:dirs]] for j in range(g)]
        return {**norm(p, n), "cells": cells, **linear(p, "proj", n, dirs * h)}

    def per_band(stage, record):
        return [record(f"{stage}.band{k:02d}", 2 * w) for k, w in enumerate(config.bands.widths)]

    hidden = config.mask_hidden_dim
    sublayers = (("band", 2 if config.band_rnn_bidirectional else 1),
                 ("time", 1 if config.time_rnn_causal else 2))
    return {
        "split": per_band("band_split", lambda p, w2: {**norm(p, w2), **linear(p, "proj", n, w2, "")}),
        "layers": [{sub: sublayer(f"layer{l}.{sub}", dirs) for sub, dirs in sublayers}
                   for l in range(1, config.num_layers + 1)],
        "head": per_band("mask_head", lambda p, w2: {
            **norm(p, n), **linear(p, "fc1", hidden, n), **linear(p, "fc2", w2, hidden)
        }),
    }


def _map_leaves(tree, fn):
    """Same tree with every ``(name, shape)`` leaf replaced by ``fn(name, shape)``."""
    if isinstance(tree, dict):
        return {key: _map_leaves(sub, fn) for key, sub in tree.items()}
    if isinstance(tree, list):
        return [_map_leaves(sub, fn) for sub in tree]
    return fn(*tree)


def expected_tensors(config: ModelConfig) -> dict:
    """Tensor name -> shape for every parameter of ``config``.

    The insertion order is the canonical serialization order used by the
    weights file and the seeded generator.
    """
    out: dict = {}
    _map_leaves(_layout(config), out.__setitem__)
    return out


@dataclass(frozen=True)
class ModelWeights:
    """``band_split``/``mask_head`` hold one BandProjection/MaskBandHead per band."""

    band_split: tuple
    band_layers: tuple
    time_layers: tuple
    mask_head: tuple


def weight_arrays(node) -> list:
    """Every array a :class:`ModelWeights`, or any record or tuple in it, holds."""
    if isinstance(node, np.ndarray):
        return [node]
    if isinstance(node, tuple):
        return [a for sub in node for a in weight_arrays(sub)]
    return [a for f in dataclasses.fields(node) for a in weight_arrays(getattr(node, f.name))]


def build(config: ModelConfig, arrays: Mapping) -> Model:
    """Assemble a runnable model from a flat name -> array mapping.

    Every expected tensor must be present with the expected shape and
    finite values; unknown names are rejected. Each array is copied, so the
    model shares no buffer with ``arrays``. A float32 array stays float32,
    the dtype ``.bsrw`` stores, and the kernels upcast it exactly at use;
    any other dtype is upcast to float64 here. Each sublayer's cells are
    stacked in the layout's (group, direction) order, the order the kernel
    expects.
    """
    expected = expected_tensors(config)
    for name in expected:
        if name not in arrays:
            raise WeightsFormatError(f"missing tensor {name}")
    extras = sorted(set(arrays) - set(expected))
    if extras:
        raise WeightsFormatError(f"{len(extras)} unexpected tensors, first: {extras[0]}")

    def take(name, shape):
        a = np.asarray(arrays[name])
        if a.shape != shape:
            raise WeightsFormatError(f"tensor {name} has shape {a.shape}, expected {shape}")
        a = a.astype(rnn._compute_dtype(a))
        if not np.isfinite(a).all():
            raise WeightsFormatError(f"tensor {name} holds non-finite values")
        return a

    def grouped(fields: dict) -> GroupedLayerWeights:
        cells = [cell for group in fields.pop("cells") for cell in group]
        stacked = {key: np.stack([cell[key] for cell in cells]) for key in cells[0]}
        return GroupedLayerWeights(**fields, cells=LstmWeights(**stacked))

    t = _map_leaves(_layout(config), take)
    return Model(config, ModelWeights(
        band_split=tuple(BandProjection(**b) for b in t["split"]),
        band_layers=tuple(grouped(l["band"]) for l in t["layers"]),
        time_layers=tuple(grouped(l["time"]) for l in t["layers"]),
        mask_head=tuple(MaskBandHead(**b) for b in t["head"]),
    ))


@dataclass(frozen=True)
class Model:
    """Immutable handle pairing a config with weights assembled for it.

    :func:`build` makes it, from a flat mapping checked against the config.
    The forward pass reads its per-layer decisions from ``config.plan``.
    """

    config: ModelConfig
    weights: ModelWeights


def resampled_sublayer(x, w: GroupedLayerWeights, factor: int, across_bands: bool, seen,
                       state=None):
    """Residual sublayer on ``[K' x T x N]``, its core at 1/factor frame rate.

    ``seen`` gets the core's input, ``downsample_t(x, factor)``. The core is
    norm -> grouped RNN (across K for the band RNN; across T', from ``state``,
    for the time RNN) -> dense; its output is held and added into ``x``, which
    is returned. The name, parameters 1 and 3 and the keyword ``factor`` are
    held for ``perfbench/tracing.py`` until ROADMAP item 2.
    """
    core = downsample_t(x, factor)
    seen(core)
    xn = layer_norm(core, w.norm_gamma, w.norm_beta)
    if across_bands:
        xn = xn.transpose(1, 0, 2)
    hidden = rnn.lstm_forward_batch(xn, w.cells, state=state)  # a wrapper on rnn sees it
    del xn  # free before the projection allocates its output
    held = dense(hidden, w.proj_weight, w.proj_bias)
    del hidden  # free before the hold adds into x
    return add_held(x, held.transpose(1, 0, 2) if across_bands else held, factor)


def apply_pruned_time_rnn(x, w: GroupedLayerWeights, skip_count: int, factor: int, seen, state):
    """The time-RNN sublayer on all but the top ``skip_count`` bands of ``x``,
    which stay bitwise unchanged; ``x`` is returned. The name, parameters 1
    and 3 and the keyword ``skip_count`` are held for ``perfbench/tracing.py``
    until ROADMAP item 2.
    """
    resampled_sublayer(x[: len(x) - skip_count], w, factor, False, seen, state)
    return x


def forward_features(model: Model, features: np.ndarray, *, probe=None, state=None,
                     dtype=np.float64) -> np.ndarray:
    """Run the dual-path layer stack on ``[K x T x N]`` features, T >= 1.

    ``probe``, when given, is called as ``probe(stage, layer, array)`` with
    six stages per layer, in this order: ``band_in``, ``band_core``,
    ``band_out``, ``time_in``, ``time_core``, ``time_out``. The ``*_in`` and
    ``*_out`` arrays surround a sublayer; ``*_core`` is exactly the array
    its core computes on, after LWR downsampling and (time RNN) SBP
    pruning. Output shape always equals the input shape, whatever the
    resampling and pruning plans do internally.

    The stack takes one copy of the frames it runs (with PPS, every
    factor-th one) in ``dtype``, ``np.float64`` (the default) or
    ``np.float32``; any other value raises ``ConfigError``. Every sublayer
    computes in that dtype, as the kernels compute in their input's, and
    adds its residual into that copy, so ``features`` is never written, and
    a probe that keeps an array must copy it. A temporary ``features`` is
    freed before the first core runs on CPython 3.11+ (only there). Float32
    gives every stage the same shape as float64, and an output within a
    bound of float64's (README "Public API").

    ``state``, a dict, carries each time RNN's state from call to call:
    empty on the first call, then passed to the call on the frames that
    follow, with the same ``dtype``. Frames split into runs that start on a
    multiple of every LWR factor (the PPS factor times the layer's) then
    give the output of one call on all of them.
    """
    if dtype not in (np.float32, np.float64):
        raise ConfigError(f"dtype must be np.float32 or np.float64, got {dtype!r}")
    cfg = model.config
    features = np.asarray(features)
    shape = features.shape
    if len(shape) != 3 or shape[::2] != (cfg.num_bands, cfg.feature_dim) or not shape[1]:
        raise ConfigError(
            f"features must be [{cfg.num_bands} x T x {cfg.feature_dim}] with T >= 1, got {shape}"
        )

    def emit(stage, layer, array):
        if probe is not None:
            probe(stage, layer, array)

    pps_factor, rows = cfg.plan
    w = model.weights
    state = {} if state is None else state
    x = np.array(downsample_t(features, pps_factor), dtype=dtype)
    del features  # older CPythons hold a call's arguments until it returns
    layers = zip(rows, w.band_layers, w.time_layers, strict=True)
    for layer, ((band_factor, time_factor, skip), bw, tw) in enumerate(layers, start=1):
        emit("band_in", layer, x)
        x = resampled_sublayer(x, bw, band_factor, True, partial(emit, "band_core", layer))
        emit("band_out", layer, x)
        emit("time_in", layer, x)
        x = apply_pruned_time_rnn(x, tw, skip, time_factor, partial(emit, "time_core", layer),
                                  state.setdefault(layer, []))
        emit("time_out", layer, x)
    return x if pps_factor == 1 else upsample_t(x, pps_factor, shape[1])


#: most frames one pass of the layer stack runs in :func:`enhance`. A longer
#: file runs in balanced chunks of at most this many frames, so its peak
#: memory follows the chunk, not the file.
CHUNK_FRAMES = 256
#: most frames of a waveform with a non-causal time RNN, which needs the
#: whole file at once (65.5 s at 16 kHz with the default STFT)
WHOLE_FILE_FRAMES = 4096


def _chunks(config: ModelConfig, frames: int) -> list:
    """The ``(start, end)`` frame spans a waveform's layer stack runs on.

    Up to :data:`CHUNK_FRAMES` frames, or with a non-causal time RNN (up to
    :data:`WHOLE_FILE_FRAMES`), one span. Otherwise n = ceil(frames / limit)
    spans of near-equal length, each rounded up to a multiple of the LWR unit
    (the PPS factor times the largest layer factor), so that every span
    starts on a multiple of each factor; ``limit`` is the largest multiple
    of the unit up to CHUNK_FRAMES (at least one unit).
    """
    if not config.time_rnn_causal and frames > WHOLE_FILE_FRAMES:
        seconds = WHOLE_FILE_FRAMES * config.stft.hop_size / config.stft.sample_rate
        raise ConfigError(
            f"a non-causal time RNN needs the whole file at once, so a waveform may have at "
            f"most {WHOLE_FILE_FRAMES} frames (about {seconds:.1f} s); the input has {frames}"
        )
    if frames <= CHUNK_FRAMES or not config.time_rnn_causal:
        return [(0, frames)]
    pps_factor, rows = config.plan
    unit = pps_factor * max((max(b, t) for b, t, _ in rows), default=1)
    limit = max(CHUNK_FRAMES // unit, 1) * unit
    count = reduced_frames(frames, limit)
    size = reduced_frames(reduced_frames(frames, count), unit) * unit  # rounded up to units
    return [(start, min(start + size, frames)) for start in range(0, frames, size)]


def _passes(model: Model, noisy: np.ndarray, probe=None, dtype=np.float64):
    """``(spec, features)`` per frame span of :func:`_chunks`, made lazily: the
    span's STFT frames and the stack's output on them (``probe`` and ``dtype``
    passed on), each time RNN's state carried to the next span. A refused
    length raises here."""
    cfg, w = model.config, model.weights
    state = {}

    def run(span):
        spec = stft(noisy, cfg.stft, frames=span)
        return spec, forward_features(model, band_split(spec, w.band_split, cfg.bands),
                                      probe=probe, state=state, dtype=dtype)

    return map(run, _chunks(cfg, cfg.stft.num_frames(noisy.size)))


def enhance(model: Model, noisy: np.ndarray, oa: OaConfig | None = None) -> np.ndarray:
    """Enhance a mono waveform; output has exactly the input's length.

    With observation adding, the output is the configured convex mix of
    the noisy input and the enhanced signal.

    The file runs through :func:`_passes`, span by span, and each span's
    mask head and inverse transform finish its output samples, with the
    overlap-add tail carried to the next span. No span's arrays outlive it.
    """
    cfg, w = model.config, model.weights
    noisy = mono_signal(noisy)
    passes = _passes(model, noisy)  # a refused length raises before the output is made
    out = np.empty(noisy.size, dtype=np.float32)
    tail, done = IstftTail(), 0
    for spec, feats in passes:
        mask = estimate_mask(feats, w.mask_head, cfg.bands)
        del feats
        piece = istft(apply_mask(spec, mask), cfg.stft, noisy.size, tail=tail)
        del spec, mask  # free before the next span's stack runs
        if oa is not None:
            piece = observation_add(noisy[done : done + piece.size], piece, oa)
        out[done : done + piece.size] = piece
        done += piece.size
    return out
