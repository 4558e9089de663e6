"""JSON serialization of model configurations.

The document mirrors ModelConfig field by field:

    {
      "name": "canonical-v1",
      "stft": {"sample_rate": 16000, "fft_size": 512, "hop_size": 256,
               "window": "hann"},
      "bands": [[0, 4], [4, 8], ...],
      "feature_dim": 126,
      "hidden_dim": 72,
      "num_layers": 6,
      "group_size": 1,
      "lwr": {"kind": "none"},            # or {"kind": "async", "factor": 16},
                                          # {"kind": "sync", "factor": 4,
                                          #  "target_layers": [1, 3, 5]}, ...
      "sbp": {"kind": "none"},            # or {"kind": "aggressive",
                                          #  "skip_bands": 6},
                                          # {"kind": "progressive"}
      "time_rnn_causal": true,
      "band_rnn_bidirectional": true,
      "mask_hidden_ratio": 4
    }

Every field except "stft", "bands", "feature_dim", "hidden_dim", and
"num_layers" may be omitted and takes the ModelConfig default. Parsing is
strict: an unknown or repeated key at any level is an error, and each field
must have exactly the JSON type shown (``true``/``false`` for the two flags;
integers, never booleans, for dims, factors, counts, layer lists and band
bounds).
"""

from __future__ import annotations

import json
from pathlib import Path

from .bands import BandConfig
from .dsp import StftConfig
from .errors import ConfigError, typed
from .model import ModelConfig, preset_config, preset_names
from .prune import SbpStrategy
from .resample import LwrStrategy


_TOP = {"name": str, "stft": dict, "bands": list, "feature_dim": int, "hidden_dim": int,
        "num_layers": int, "group_size": int, "lwr": dict, "sbp": dict,
        "time_rnn_causal": bool, "band_rnn_bidirectional": bool, "mask_hidden_ratio": int}
_STFT = {"sample_rate": int, "fft_size": int, "hop_size": int, "window": str}
_LWR = {"kind": str, "factor": int, "target_layers": list}
_SBP = {"kind": str, "skip_bands": int}


def _strategy_dict(strategy, spec: dict) -> dict:
    """A strategy's set fields; kind "none" has no factor to write."""
    doc = {key: getattr(strategy, key) for key in spec}
    if doc["kind"] == "none":
        doc.pop("factor", None)
    return {key: list(v) if isinstance(v, tuple) else v for key, v in doc.items() if v is not None}


def config_to_dict(config: ModelConfig) -> dict:
    """The document of ``config``: the fields of ``_TOP``, in that order."""
    by_hand = {
        "stft": {key: getattr(config.stft, key) for key in _STFT},
        "bands": [list(b) for b in config.bands.boundaries],
        "lwr": _strategy_dict(config.resample, _LWR),
        "sbp": _strategy_dict(config.prune, _SBP),
    }
    return {key: by_hand[key] if key in by_hand else getattr(config, key) for key in _TOP}


def _typed(value, kind, path: str, source: str):
    """``value`` if its type is exactly ``kind`` (:func:`errors.typed`), else an error naming
    ``source`` and the field's path in the document."""
    return typed(value, kind, f"{source}: field {path!r}")


def _fields(doc, spec: dict, required: tuple, path: str, source: str) -> dict:
    """The typed fields of one JSON object; unknown or missing keys are errors."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: {path or 'top level'} must be an object")
    prefix = f"{path}." if path else ""
    for key in doc:
        if key not in spec:
            raise ConfigError(f"{source}: unknown field {prefix + key!r}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"{source}: missing required field {prefix + key!r}")
    return {key: _typed(value, spec[key], prefix + key, source) for key, value in doc.items()}


def _int_list(values: list, path: str, source: str) -> tuple:
    return tuple(_typed(v, int, f"{path}[{n}]", source) for n, v in enumerate(values))


def config_from_dict(doc: dict, source: str = "<config>") -> ModelConfig:
    """Parse and validate a configuration document.

    Every object is checked for unknown keys and every field for its exact
    JSON type; a ConfigError names ``source`` and the offending field path.
    ModelConfig's own validation covers the values.
    """
    top = _fields(doc, _TOP, ("stft", "bands", "feature_dim", "hidden_dim", "num_layers"),
                  "", source)
    stft = StftConfig(**_fields(top.pop("stft"), _STFT, ("sample_rate", "fft_size", "hop_size"),
                                "stft", source))
    bounds = []
    for k, pair in enumerate(top.pop("bands")):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{source}: bands must be [start, end] pairs, got bands[{k}] = {pair!r}")
        bounds.append(_int_list(pair, f"bands[{k}]", source))
    if "lwr" in top:
        lwr = _fields(top.pop("lwr"), _LWR, ("kind",), "lwr", source)
        if "target_layers" in lwr:
            lwr["target_layers"] = _int_list(lwr["target_layers"], "lwr.target_layers", source)
        top["resample"] = LwrStrategy(**lwr)
    if "sbp" in top:
        top["prune"] = SbpStrategy(**_fields(top.pop("sbp"), _SBP, ("kind",), "sbp", source))
    return ModelConfig(stft=stft, bands=BandConfig(tuple(bounds)), **top)


def unique_keys(pairs: list) -> dict:
    """``json`` object hook: the object of ``pairs``, refusing a key given twice."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def load_config(spec: str | Path) -> ModelConfig:
    """Resolve a preset name or read a JSON config file."""
    if isinstance(spec, str) and spec in preset_names():
        return preset_config(spec)
    path = Path(spec)
    if not path.exists():
        raise ConfigError(
            f"{spec!r} is neither a preset ({', '.join(preset_names())}) nor a file"
        )
    try:
        doc = json.loads(path.read_text(), object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or a key repeated
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return config_from_dict(doc, source=str(path))


def save_config(config: ModelConfig, path: str | Path) -> None:
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
