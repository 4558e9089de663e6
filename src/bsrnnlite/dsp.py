"""Short-time Fourier analysis/synthesis and observation adding.

Conventions pinned here (everything downstream depends on them):

* periodic Hann analysis window,
* centered frames: the signal is reflect-padded by ``fft_size // 2`` on both
  sides, after zero-padding up to one full frame when shorter than
  ``fft_size``,
* frame count ``T = 1 + max(len(x), fft_size) // hop_size``,
* spectrograms are ``[frequency_bins x frames]`` complex64,
* synthesis is weighted overlap-add with pointwise sum-of-squared-window
  normalization, which inverts the analysis exactly for any hop up to
  ``fft_size // 2`` (the plain Hann overlap-add sum is constant only at
  hop = fft/2, the squared sum only at hop = fft/4; the pointwise division
  sidesteps both special cases).

Boundary dtypes are float32 / complex64; reductions accumulate in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AudioFormatError, ConfigError


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters.

    Attributes:
        sample_rate: samples per second of the waveforms this config frames.
        fft_size: transform length; must be a power of two.
        hop_size: frame advance in samples; at most ``fft_size // 2`` so the
            squared-window overlap never leaves gaps.
        window: analysis window name; only "hann" is supported.
    """

    sample_rate: int = 16000
    fft_size: int = 512
    hop_size: int = 256
    window: str = "hann"

    def __post_init__(self) -> None:
        if self.sample_rate < 1:
            raise ConfigError(f"sample_rate must be positive, got {self.sample_rate}")
        n = self.fft_size
        if n < 2 or (n & (n - 1)) != 0:
            raise ConfigError(f"fft_size must be a power of two >= 2, got {n}")
        if not 1 <= self.hop_size <= n // 2:
            raise ConfigError(
                f"hop_size must be in [1, fft_size/2], got {self.hop_size} for fft_size {n}"
            )
        if self.window != "hann":
            raise ConfigError(f"unsupported window {self.window!r}")

    @property
    def frequency_bins(self) -> int:
        return self.fft_size // 2 + 1

    def num_frames(self, num_samples: int) -> int:
        """Frame count produced by :func:`stft` for a signal of this length."""
        if num_samples < 1:
            raise ConfigError(f"num_samples must be >= 1, got {num_samples}")
        return 1 + max(num_samples, self.fft_size) // self.hop_size

    def window_array(self) -> np.ndarray:
        """Periodic Hann window, float64, length ``fft_size``."""
        n = self.fft_size
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def mono_signal(signal) -> np.ndarray:
    """``signal`` as an array, checked to be 1-D with at least one sample."""
    x = np.asarray(signal)
    if x.ndim != 1:
        raise AudioFormatError(f"mono signal required, got {x.ndim} dimensions")
    if x.size < 1:
        raise AudioFormatError("empty signal")
    return x


def _padded(x: np.ndarray, pad: int, lo: int, hi: int) -> np.ndarray:
    """Samples ``[lo, hi)`` of ``x`` reflect-padded by ``pad`` on both sides, ``pad < len(x)``."""
    lo, hi, m = lo - pad, hi - pad, x.size  # now indices into x
    middle = x[max(lo, 0) : min(hi, m)]
    left, right = np.arange(lo, min(hi, 0)), np.arange(max(lo, m), hi)
    if not left.size and not right.size:
        return middle
    return np.concatenate([x[-left], middle, x[2 * (m - 1) - right]])


def stft(signal: np.ndarray, config: StftConfig, *, frames=None) -> np.ndarray:
    """Complex spectrogram of a mono waveform.

    Args:
        signal: 1-D real array, at least one sample, all values finite.
        config: analysis parameters.
        frames: ``(lo, hi)`` to compute only those frames of the whole
            signal's spectrogram, reading only the samples they cover; the
            finiteness check covers those samples too. Default: every frame.

    Returns:
        ``[frequency_bins x frames]`` complex64 array with
        ``frames == config.num_frames(len(signal))`` by default.
    """
    x = mono_signal(signal)
    n_fft, hop = config.fft_size, config.hop_size
    total = config.num_frames(x.size)
    lo, hi = (0, total) if frames is None else frames
    if not 0 <= lo < hi <= total:
        raise ConfigError(f"frames {frames} outside [0, {total}) or empty")
    if x.size < n_fft:
        x = np.pad(x, (0, n_fft - x.size))
    # frame t starts at sample t * hop of the signal reflect-padded by n_fft // 2
    x = _padded(x, n_fft // 2, lo * hop, (hi - 1) * hop + n_fft).astype(np.float64, copy=False)
    if not np.all(np.isfinite(x)):
        raise AudioFormatError("non-finite samples in input")

    windows = np.lib.stride_tricks.sliding_window_view(x, n_fft)
    frames = windows[::hop] * config.window_array()
    return np.fft.rfft(frames, axis=1).T.astype(np.complex64)


@dataclass
class IstftTail:
    """What an :func:`istft` call leaves to the next: the frames it has added
    and the partial overlap-add sums and window weights past its last hop."""

    frames: int = 0
    acc: np.ndarray = field(default_factory=lambda: np.zeros(0))
    weight: np.ndarray = field(default_factory=lambda: np.zeros(0))


def istft(spec: np.ndarray, config: StftConfig, output_length: int, *, tail=None) -> np.ndarray:
    """Invert :func:`stft` by weighted overlap-add.

    Args:
        spec: ``[frequency_bins x frames]`` complex spectrogram.
        config: the parameters the spectrogram was produced with.
        output_length: number of samples to return; the result is truncated
            or zero-padded to exactly this length.
        tail: an :class:`IstftTail` to invert a spectrogram in consecutive
            runs of frames. ``spec`` is then frames ``[tail.frames,
            tail.frames + T)`` of the spectrogram of an ``output_length``
            signal; the call returns the output samples that these frames
            finish (every remaining one after the last frame) and leaves the
            rest of its sums in ``tail``. The runs' outputs, concatenated,
            are bitwise one call's.

    Returns:
        float32 waveform of length ``output_length``, or with ``tail`` the
        finished part of it.
    """
    s = np.asarray(spec)
    if s.ndim != 2 or s.shape[0] != config.frequency_bins:
        raise ConfigError(
            f"spectrogram shape {s.shape} does not match "
            f"[{config.frequency_bins} x frames]"
        )
    if output_length < 0:
        raise ConfigError(f"output_length must be >= 0, got {output_length}")

    n_fft = config.fft_size
    hop = config.hop_size
    n_frames = s.shape[1]
    first = 0 if tail is None else tail.frames
    if tail is not None and first + n_frames > config.num_frames(output_length):
        raise ConfigError(f"frames {first} to {first + n_frames} pass the "
                          f"{config.num_frames(output_length)} of a {output_length}-sample signal")
    final = tail is None or first + n_frames == config.num_frames(output_length)
    window = config.window_array()

    frames = np.fft.irfft(s.T.astype(np.complex128), n=n_fft, axis=1) * window
    total = n_fft + hop * (n_frames - 1)
    # hop-sample chunk c of frame t lands on block t + c of the output. Adding
    # the chunks from the last offset down sums each sample's terms in frame
    # order, so the result is bitwise that of a loop over frames. A carried
    # tail holds the sums of earlier frames, so they come first.
    chunks = -(-n_fft // hop)
    acc = np.zeros((n_frames + chunks - 1, hop))
    weight = np.zeros(acc.shape)
    if tail is not None:
        acc.reshape(-1)[: tail.acc.size] = tail.acc
        weight.reshape(-1)[: tail.weight.size] = tail.weight
    sq = window * window
    for c in range(chunks - 1, -1, -1):
        lo = c * hop
        width = min(hop, n_fft - lo)
        acc[c : c + n_frames, :width] += frames[:, lo : lo + width]
        weight[c : c + n_frames, :width] += sq[lo : lo + width]
    done = total if final else n_frames * hop
    acc, weight = acc.reshape(-1)[:total], weight.reshape(-1)[:total]
    if tail is not None:
        tail.frames += n_frames
        tail.acc, tail.weight = acc[done:].copy(), weight[done:].copy()
    acc, weight = acc[:done], weight[:done]
    nonzero = weight > 1e-10
    acc[nonzero] /= weight[nonzero]

    # acc[0] is output sample first * hop - n_fft // 2
    start = first * hop - n_fft // 2
    end = output_length if final else min(start + done, output_length)
    out = acc[max(start, 0) - start : max(end - start, 0)]
    if out.size < end - max(start, 0):
        out = np.pad(out, (0, end - max(start, 0) - out.size))
    return out.astype(np.float32)


@dataclass(frozen=True)
class OaConfig:
    """Observation-adding mix weight.

    ``omega`` is the share of the noisy observation kept in the output:
    0 returns the enhanced signal unchanged, 1 returns the noisy input.
    """

    omega: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega <= 1.0:
            raise ConfigError(f"omega must be in [0, 1], got {self.omega}")


def observation_add(noisy: np.ndarray, enhanced: np.ndarray, config: OaConfig) -> np.ndarray:
    """Convex time-domain mix ``omega * noisy + (1 - omega) * enhanced``."""
    a = np.asarray(noisy, dtype=np.float32)
    b = np.asarray(enhanced, dtype=np.float32)
    if a.shape != b.shape:
        raise ConfigError(f"length mismatch: noisy {a.shape} vs enhanced {b.shape}")
    w = np.float32(config.omega)
    return w * a + (np.float32(1.0) - w) * b
