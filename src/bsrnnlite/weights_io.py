"""BSRW weights container and the deterministic seeded generator.

File layout (all integers little-endian):

    bytes 0..3    magic ``b"BSRW"``
    bytes 4..7    format version, u32 (currently 1)
    bytes 8..15   header length in bytes, u64
    header        UTF-8 JSON: {"tensors": {name: {"shape": [...],
                  "dtype": "f32", "offset": N}}, "meta": {...}}
    padding       zeros up to the payload base, the first multiple of 64
                  at or after byte ``16 + header length``
    payload       raw float32 tensor data; each tensor's offset is
                  relative to the payload base and a multiple of 64

Tensor values from :func:`gen_weights` come from a single SplitMix64
stream: output i (1-based, continuing across tensors in canonical order)
is ``mix(seed + i * GOLDEN)`` mapped to a double in [0, 1) via the top 53
bits, then to float32 in [-0.1, 0.1). SplitMix64 is counter-based, so the
stream is computed vectorized with identical results to the sequential
definition, and files are byte-identical across runs and platforms.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import ConfigError, WeightsFormatError
from .model import ModelConfig, expected_tensors

MAGIC = b"BSRW"
VERSION = 1
ALIGNMENT = 64
#: most parameters :func:`gen_weights` makes; its traced peak is about 4 bytes a
#: parameter plus 24 bytes an element of the largest tensor, under 1 GiB at this limit
GEN_PARAMETERS = 2**25

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(seed: int, start: int, count: int) -> np.ndarray:
    """Outputs start+1 .. start+count of the SplitMix64 stream for ``seed``."""
    idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + idx * _GOLDEN
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _uniform_block(seed: int, start: int, count: int) -> np.ndarray:
    """float32 values in [-0.1, 0.1) drawn from the stream at ``start``."""
    bits = _splitmix64(seed, start, count)
    unit = (bits >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    return (unit * 0.2 - 0.1).astype(np.float32)


def gen_weights(config: ModelConfig, seed: int = 0) -> dict:
    """Deterministic full weight set for ``config``.

    One stream, consumed tensor by tensor in canonical order, so any
    change to the architecture changes every later tensor but the same
    (config, seed) pair always reproduces the same bytes. A config of more
    than :data:`GEN_PARAMETERS` parameters is refused before anything is made.
    """
    shapes = expected_tensors(config)
    total = sum(math.prod(shape) for shape in shapes.values())
    if total > GEN_PARAMETERS:
        raise ConfigError(f"the config has {total} parameters, at most {GEN_PARAMETERS} generated")
    out = {}
    cursor = 0
    for name, shape in shapes.items():
        count = math.prod(shape)
        out[name] = _uniform_block(seed, cursor, count).reshape(shape)
        cursor += count
    return out


def _align_up(n: int) -> int:
    return (n + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def save_weights(path: str | Path, arrays: dict, meta: dict | None = None) -> None:
    """Write a name -> float32 array mapping in container order, tensor by tensor."""
    tensors, end = {}, 0
    for name, arr in arrays.items():
        shape = np.shape(arr) or (1,)  # np.ascontiguousarray makes a scalar one-dimensional
        tensors[name] = {"shape": list(shape), "dtype": "f32", "offset": _align_up(end)}
        end = _align_up(end) + 4 * math.prod(shape)

    header = json.dumps({"tensors": tensors, "meta": meta or {}}).encode("utf-8")
    payload_base = _align_up(16 + len(header))
    with open(path, "wb") as fh:
        fh.write(MAGIC + VERSION.to_bytes(4, "little") + len(header).to_bytes(8, "little"))
        fh.write(header.ljust(payload_base - 16, b"\0"))
        pad = 0
        for arr in arrays.values():
            a = np.ascontiguousarray(arr, dtype=np.float32)
            fh.write(b"\0" * pad)
            fh.write(a.data)
            pad = -a.nbytes % ALIGNMENT


def load_weights(path: str | Path):
    """Read a BSRW file back into ``(arrays, meta)``.

    Arrays come back float32 in manifest order, as read-only views of the
    bytes read. Structural problems (magic, version, malformed entries,
    dtype, offsets out of range or misaligned, bytes past the last tensor)
    raise WeightsFormatError;
    whether the tensor *set* matches a config is the model builder's concern.
    """
    raw = Path(path).read_bytes()  # OSError (IsADirectoryError for a directory) passes through
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise WeightsFormatError(f"{path} is not a weights file (bad magic)")
    version = int.from_bytes(raw[4:8], "little")
    if version != VERSION:
        raise WeightsFormatError(f"unsupported weights format version {version}")
    header_len = int.from_bytes(raw[8:16], "little")
    if 16 + header_len > len(raw):
        raise WeightsFormatError("header length exceeds file size")
    try:
        doc = json.loads(raw[16 : 16 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, RecursionError, json.JSONDecodeError) as exc:
        raise WeightsFormatError(f"corrupt header: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("tensors"), dict):
        raise WeightsFormatError("header missing tensor manifest")

    payload_base = _align_up(16 + header_len)
    payload = memoryview(raw)[payload_base:]
    arrays, end = {}, 0
    for name, info in doc["tensors"].items():
        if not isinstance(info, dict):
            raise WeightsFormatError(f"tensor {name} entry is not an object")
        if info.get("dtype") != "f32":
            raise WeightsFormatError(f"tensor {name} has unsupported dtype {info.get('dtype')!r}")
        shape, offset = info.get("shape"), info.get("offset")
        if not isinstance(shape, list) or not all(_is_count(d) for d in shape):
            raise WeightsFormatError(
                f"tensor {name} shape {shape!r} is not a list of non-negative ints")
        if not _is_count(offset):
            raise WeightsFormatError(f"tensor {name} offset {offset!r} is not a non-negative int")
        shape = tuple(shape)
        if offset % ALIGNMENT:
            raise WeightsFormatError(f"tensor {name} offset {offset} not {ALIGNMENT}-byte aligned")
        nbytes = math.prod(shape) * 4
        if offset + nbytes > payload.nbytes:
            raise WeightsFormatError(f"tensor {name} extends past end of file")
        arrays[name] = np.frombuffer(payload[offset : offset + nbytes], dtype=np.float32).reshape(shape)
        end = max(end, offset + nbytes)
    if payload.nbytes > end:
        raise WeightsFormatError(f"{payload.nbytes - end} bytes past the last tensor")
    return arrays, doc.get("meta", {})
