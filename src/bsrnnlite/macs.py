"""Computational cost accounting in multiply-accumulates (MACs).

Two independent routes produce the same numbers:

* :func:`analyze` / :func:`analyze_frames` evaluate a closed-form count
  from the configuration alone;
* :func:`count_forward` runs the real forward pass and prices what
  executed: the arrays the sublayer cores computed on, reported through
  ``forward_features``'s probe, against the weights actually loaded.

The defining property, enforced by the test suite, is that the two agree
integer-exactly for any configuration. Keep them independent; never make
one call the other.

Counting conventions: a dense [I -> O] over R rows costs R*I*O; an LSTM
position costs dirs * 4 * g * ((I/g)(H/g) + (H/g)^2); biases,
activations, norms, resampling, masking, and the Fourier transforms are
free. G/s is total MACs over one second of input divided by 1e9.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

# apply_mask, band_split, estimate_mask, forward_features, istft and stft are not
# called here; they stay bound because perfbench's tracer wraps each of them on
# this module by name
from .bands import apply_mask, band_split, estimate_mask  # noqa: F401
from .dsp import istft, mono_signal, stft  # noqa: F401
from .errors import ConfigError
from .model import (Model, ModelConfig, _passes, canonical_config,  # noqa: F401
                    forward_features, preset_config, preset_names)
from .prune import SbpStrategy
from .resample import LwrStrategy, reduced_frames


@dataclass(frozen=True)
class MacsReport:
    """Per-component MAC counts for one run or one analyzed duration."""

    components: dict
    duration: float

    @property
    def total(self) -> int:
        return sum(self.components.values())

    @property
    def gps(self) -> float:
        """Giga-MACs per second of input audio."""
        return self.total / (self.duration * 1e9)

    def to_dict(self) -> dict:
        return {
            "duration_seconds": self.duration,
            "total_macs": self.total,
            "gmacs_per_second": self.gps,
            "components": dict(self.components),
        }


def component_order(config: ModelConfig) -> tuple:
    """Report keys in pipeline order."""
    keys = ["band_split"]
    for layer in range(1, config.num_layers + 1):
        keys.append(f"band_rnn[{layer}]")
        keys.append(f"time_rnn[{layer}]")
    keys.append("mask_head")
    return tuple(keys)


def _closed_form(config: ModelConfig, t: int, n, h, g) -> dict:
    """Per-component MACs over ``t`` frames at feature dim ``n``, hidden dim ``h``
    and ``g`` groups: ints or broadcastable int64 arrays. The rest is ``config``'s."""
    k, width_sum = config.num_bands, sum(config.bands.widths)
    hg = h // g
    cell = 4 * hg * (n // g + hg)  # one position, one direction, one group
    band_dirs = 2 if config.band_rnn_bidirectional else 1
    time_dirs = 1 if config.time_rnn_causal else 2
    pps_factor, rows = config.plan
    t_stack = reduced_frames(t, pps_factor)

    comps: dict = {"band_split": t * n * 2 * width_sum}
    for layer, (band_factor, time_factor, skip) in enumerate(rows, start=1):
        pos_b = reduced_frames(t_stack, band_factor) * k
        comps[f"band_rnn[{layer}]"] = band_dirs * pos_b * (g * cell + n * h)
        pos_t = (k - skip) * reduced_frames(t_stack, time_factor)
        comps[f"time_rnn[{layer}]"] = time_dirs * pos_t * (g * cell + n * h)
    comps["mask_head"] = t * config.mask_hidden_ratio * n * (k * n + 2 * width_sum)
    return comps


def analyze_frames(config: ModelConfig, num_frames: int) -> dict:
    """Closed-form per-component MAC counts for ``num_frames`` input frames.

    All quantities are exact integers. The band-split and mask head always
    run at the full frame rate; the layer stack rate is reduced by a PPS
    factor; individual sublayer cores are further reduced by their factors
    in ``config.plan``, and the time RNN sees only the unpruned bands. The
    same closed form prices a whole calibration grid in one pass.
    """
    if num_frames < 1:
        raise ConfigError(f"num_frames must be >= 1, got {num_frames}")
    return _closed_form(config, num_frames, config.feature_dim, config.hidden_dim, config.group_size)


def _duration_frames(config: ModelConfig, duration: float) -> int:
    """Frame count of ``duration`` seconds of audio, checked as :func:`analyze` needs."""
    if not (math.isfinite(duration * config.stft.sample_rate) and duration > 0):
        raise ConfigError(f"duration must be positive with a finite sample count, got {duration}")
    num_samples = int(round(duration * config.stft.sample_rate))
    if num_samples < 1:
        raise ConfigError(f"duration {duration} shorter than one sample")
    return config.stft.num_frames(num_samples)


def analyze(config: ModelConfig, duration: float = 1.0) -> MacsReport:
    """Closed-form cost of enhancing ``duration`` seconds of audio; refused past int64."""
    comps = analyze_frames(config, _duration_frames(config, duration))
    if sum(comps.values()) > np.iinfo(np.int64).max:
        raise ConfigError(f"{duration} s of this config prices a MAC total beyond int64")
    return MacsReport(comps, duration)


def count_forward(model: Model, noisy: np.ndarray) -> MacsReport:
    """Run a mono waveform's layer stack and price every multiply-accumulate executed.

    The stack runs as in ``enhance``, through ``model._passes``: in the same
    frame spans, carrying the time RNNs' state, so memory follows a span, not
    the file, and a non-causal time RNN is refused past
    ``model.WHOLE_FILE_FRAMES``. A non-1-D or empty input raises
    ``AudioFormatError``. The mask head and the inverse transform are never
    run: their cost follows from the file's T frames alone.

    A row costs each weight matrix it runs through once. A sublayer core
    costs rows x the sizes of its cells' ``w_input`` and ``w_hidden`` and its
    ``proj_weight``, the rows read from the array its ``*_core`` probe stage
    reports; the band split and the mask head cost T x the sizes of their
    dense weights.
    """
    cfg, w = model.config, model.weights
    noisy = mono_signal(noisy)
    comps = dict.fromkeys(component_order(cfg), 0)

    def probe(stage, layer, array):
        if stage in ("band_core", "time_core"):
            sub = (w.band_layers if stage == "band_core" else w.time_layers)[layer - 1]
            rows = array.size // array.shape[-1]
            comps[f"{stage[:4]}_rnn[{layer}]"] += rows * (
                sub.cells.w_input.size + sub.cells.w_hidden.size + sub.proj_weight.size)

    for spec, features in _passes(model, noisy, probe):
        del spec, features  # priced by the probe; free before the next span runs
    frames = cfg.stft.num_frames(noisy.size)
    comps["band_split"] = frames * sum(b.weight.size for b in w.band_split)
    comps["mask_head"] = frames * sum(h.fc1_weight.size + h.fc2_weight.size for h in w.mask_head)
    return MacsReport(comps, noisy.size / cfg.stft.sample_rate)


#: Cost targets (G/s on one second of 16 kHz audio) that the canonical
#: dims were calibrated against; the analyzer lands within a few
#: hundredths of each. Keys match :func:`canonical_chain` labels.
REFERENCE_GPS = {
    "BSRNN": 1.84,
    "+GR": 1.09,
    "+LWR-PPS(4)": 0.55,
    "+LWR-ALL(4)": 0.55,
    "+LWR-SYNC(4)": 1.19,
    "+LWR-ASYNC(4)": 1.19,
    "+LWR-ASYNC(16)": 1.03,
    "++SBP-A": 0.96,
    "++SBP-P": 0.99,
    "+++GR": 0.62,
}


#: the chain label of each preset, in ``preset_names()`` order
_CHAIN_LABELS = ("BSRNN", "+GR", "+LWR-ASYNC(16)", "++SBP-P", "+++GR")


def canonical_chain(extended: bool = False):
    """The canonical baseline and its optimization variants.

    Returns ``(base_config, [(label, config), ...])``. The non-extended
    chain is the five presets under their chain labels. Rows are not
    cumulative left to right: every LWR row modifies the ungrouped
    baseline, the SBP rows build on LWR-ASYNC(16), and only the final
    row adds grouping on top of everything.
    """
    base, *presets = [dataclasses.replace(preset_config(preset), name=label)
                      for preset, label in zip(preset_names(), _CHAIN_LABELS, strict=True)]
    rows = [(cfg.name, cfg) for cfg in presets]
    if not extended:
        return base, rows
    grouped, lwr16, sbpp, full = rows
    lwr = [(label, base.with_resample(strategy, label)) for label, strategy in (
        ("+LWR-PPS(4)", LwrStrategy.pps(4)),
        ("+LWR-ALL(4)", LwrStrategy.all_layers(4)),
        ("+LWR-SYNC(4)", LwrStrategy.sync(4)),
        ("+LWR-ASYNC(4)", LwrStrategy.alternating(4)),
    )]
    sbpa = ("++SBP-A", lwr16[1].with_prune(SbpStrategy.aggressive(), "++SBP-A"))
    return base, [grouped, *lwr, lwr16, sbpa, sbpp, full]


@dataclass(frozen=True)
class ReductionRow:
    name: str
    total_macs: int
    gps: float
    reduction_pct: float


@dataclass(frozen=True)
class ReductionTable:
    duration: float
    rows: tuple

    def to_text(self) -> str:
        width = max(len(r.name) for r in self.rows)
        lines = [f"{'variant'.ljust(width)}   {'G/s':>7}   {'reduction':>9}"]
        for r in self.rows:
            lines.append(f"{r.name.ljust(width)}   {r.gps:7.2f}   {r.reduction_pct:8.1f}%")
        return "\n".join(lines)

    def to_csv(self) -> str:
        lines = ["variant,total_macs,gmacs_per_second,reduction_pct"]
        for r in self.rows:
            lines.append(f"{r.name},{r.total_macs},{r.gps:.6f},{r.reduction_pct:.3f}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "duration_seconds": self.duration,
                "rows": [dataclasses.asdict(r) for r in self.rows],
            },
            indent=2,
        )


def reduction_table(base: ModelConfig, variants, duration: float = 1.0) -> ReductionTable:
    """Cost of each variant next to the base, with percent reduction.

    All variants must share the base's STFT configuration so the G/s
    figures are computed over identical frame counts.
    """
    for name, cfg in variants:
        if cfg.stft != base.stft:
            raise ConfigError(f"variant {name!r} does not share the base STFT configuration")
    base_report = analyze(base, duration)
    rows = [ReductionRow(base.name or "base", base_report.total, base_report.gps, 0.0)]
    for name, cfg in variants:
        rep = analyze(cfg, duration)
        rows.append(
            ReductionRow(name, rep.total, rep.gps, 100.0 * (1.0 - rep.total / base_report.total))
        )
    return ReductionTable(duration, tuple(rows))


#: most (feature_dim, hidden_dim) pairs :func:`calibrate_feature_dims` prices;
#: its arrays grow with the pairs, to a traced peak of 160 MiB at this limit
CALIBRATE_CANDIDATES = 2**20


@dataclass(frozen=True)
class CalibrationResult:
    feature_dim: int
    hidden_dim: int
    base_gps: float
    grouped_gps: float
    residual: float


def calibrate_feature_dims(
    target_base: float = REFERENCE_GPS["BSRNN"],
    target_grouped: float = REFERENCE_GPS["+GR"],
    group: int = 2,
    dim_min: int = 8,
    dim_max: int = 240,
    step: int = 2,
    duration: float = 1.0,
    top: int = 5,
):
    """Grid-search (feature_dim, hidden_dim) against the two cost targets.

    Scores each candidate by the worse of its two absolute G/s residuals
    (ungrouped baseline vs target_base, ``group``-grouped vs
    target_grouped) and returns the ``top`` best as CalibrationResult,
    best first. This is how the canonical dims were frozen. The whole grid
    is priced in one pass of the closed form over int64 arrays, with results
    identical to :func:`analyze` on each candidate's two configs. A grid of
    more than :data:`CALIBRATE_CANDIDATES` pairs is refused before it is made.
    """
    if group < 1 or top < 1:
        raise ConfigError(f"group and top must be at least 1, got {group} and {top}")
    if step < 1 or dim_min < group or dim_max < dim_min:
        raise ConfigError(f"bad search grid [{dim_min}, {dim_max}] step {step}")
    if not (math.isfinite(target_base) and math.isfinite(target_grouped)):
        raise ConfigError(f"targets must be finite, got {target_base} and {target_grouped}")
    template = canonical_config()
    t = _duration_frames(template, duration)
    # the closed form grows with both dims, so the corner bounds every value
    if sum(_closed_form(template, t, dim_max, dim_max, 1).values()) > np.iinfo(np.int64).max:
        raise ConfigError(f"dim_max {dim_max} prices MAC totals beyond int64")
    count = len(range(dim_min, dim_max + 1, step))
    if count * count > CALIBRATE_CANDIDATES:
        raise ConfigError(f"the search grid holds {count} x {count} (dim, dim) pairs, "
                          f"at most {CALIBRATE_CANDIDATES} allowed")
    dims = np.arange(dim_min, dim_max + 1, step, dtype=np.int64)
    dims = dims[dims % group == 0]
    if not dims.size:
        raise ConfigError(f"no dim in [{dim_min}, {dim_max}] step {step} is divisible by {group}")
    n, h = np.repeat(dims, dims.size), np.tile(dims, dims.size)
    gps = [sum(_closed_form(template, t, n, h, g).values()) / (duration * 1e9) for g in (1, group)]
    residual = np.maximum(np.abs(gps[0] - target_base), np.abs(gps[1] - target_grouped))
    best = np.lexsort((h, n, residual))[:top]
    columns = (n, h, *gps, residual)
    return [CalibrationResult(*row) for row in zip(*(c[best].tolist() for c in columns))]
