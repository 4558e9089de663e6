"""Mono wav reading/writing on top of scipy.io.wavfile.

Only the two formats the pipeline produces are accepted: 16-bit PCM and
32-bit float. PCM samples are scaled by 1/32768 so a pcm16 round trip is
bit-exact.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .errors import AudioFormatError

PCM16 = "pcm16"
FLOAT32 = "float32"

_PCM_SCALE = 32768.0
#: samples converted at a time when writing pcm16
_BLOCK = 2**16


def read_wav(path: str | Path):
    """Read a mono wav file.

    Returns:
        (samples, sample_rate, source_format): float32 samples in [-1, 1)
        for PCM input, the file's sample rate, and ``"pcm16"`` or
        ``"float32"`` so callers can write output in the same format.

    A file that does not parse, including one whose data chunk is shorter
    than its header says, raises AudioFormatError; OSError passes through.
    """
    from scipy.io import wavfile  # here, so commands that read no wav never load scipy.io

    # Memory-mapping makes a short data chunk fail instead of reading short.
    # Warnings about chunks the reader skips are benign and kept off stderr.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", wavfile.WavFileWarning)
            rate, data = wavfile.read(path, mmap=True)
    except OSError:
        raise
    except Exception as exc:  # the reader fails malformed input in many types
        raise AudioFormatError(
            f"cannot parse wav file {path}: {type(exc).__name__}: {exc}") from exc
    if data.ndim != 1:
        raise AudioFormatError(f"mono required, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float32)
        samples /= np.float32(_PCM_SCALE)
        return samples, int(rate), PCM16
    if data.dtype == np.float32:
        return np.array(data), int(rate), FLOAT32
    raise AudioFormatError(
        f"unsupported sample format {data.dtype}; 16-bit PCM or float32 required"
    )


def write_wav(path: str | Path, samples: np.ndarray, sample_rate: int, fmt: str = PCM16) -> None:
    """Write a mono float waveform as pcm16 (clipped) or float32."""
    from scipy.io import wavfile

    x = np.asarray(samples)
    if x.ndim != 1:
        raise AudioFormatError(f"mono required, got {x.ndim}-dimensional data")
    if fmt == PCM16:
        # converted in blocks, so a long file costs its int16 copy and one block
        ints = np.empty(x.size, dtype=np.int16)
        for lo in range(0, x.size, _BLOCK):
            block = x[lo : lo + _BLOCK].astype(np.float64) * _PCM_SCALE
            ints[lo : lo + _BLOCK] = np.clip(np.rint(block), -32768, 32767)
        wavfile.write(path, sample_rate, ints)
    elif fmt == FLOAT32:
        wavfile.write(path, sample_rate, x.astype(np.float32))
    else:
        raise ValueError(f"unknown wav format {fmt!r}")
