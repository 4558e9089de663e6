"""Band-split RNN speech enhancement: inference engine and MACs analyzer.

The public surface re-exported here covers the normal workflow: build a
ModelConfig (directly, from a preset, or from JSON), pair it with weights
(gen_weights or a BSRW file), then enhance audio or account for its cost.
Kernels and plumbing stay in their submodules: ``bsrnnlite.rnn``,
``.resample``, ``.prune``, ``.macs``, ``.model`` and ``.configio``.
"""

from .bands import BandConfig, apply_mask, band_split, estimate_mask
from .configio import load_config, save_config
from .dsp import OaConfig, StftConfig, istft, observation_add, stft
from .errors import AudioFormatError, BsrnnLiteError, ConfigError, WeightsFormatError
from .macs import (
    MacsReport,
    analyze,
    calibrate_feature_dims,
    canonical_chain,
    count_forward,
    reduction_table,
)
from .model import (
    Model,
    ModelConfig,
    build,
    canonical_config,
    enhance,
    expected_tensors,
    forward_features,
    preset_config,
    preset_names,
)
from .prune import SbpStrategy, prune_schedule
from .resample import LwrStrategy, plan_resampling
from .weights_io import gen_weights, load_weights, save_weights

__version__ = "0.1.0"

__all__ = [
    "AudioFormatError",
    "BandConfig",
    "BsrnnLiteError",
    "ConfigError",
    "LwrStrategy",
    "MacsReport",
    "Model",
    "ModelConfig",
    "OaConfig",
    "SbpStrategy",
    "StftConfig",
    "WeightsFormatError",
    "analyze",
    "apply_mask",
    "band_split",
    "build",
    "calibrate_feature_dims",
    "canonical_chain",
    "canonical_config",
    "count_forward",
    "enhance",
    "estimate_mask",
    "expected_tensors",
    "forward_features",
    "gen_weights",
    "istft",
    "load_config",
    "load_weights",
    "observation_add",
    "plan_resampling",
    "preset_config",
    "preset_names",
    "prune_schedule",
    "reduction_table",
    "save_config",
    "save_weights",
    "stft",
]
