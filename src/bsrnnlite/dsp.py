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

from dataclasses import dataclass

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


def stft(signal: np.ndarray, config: StftConfig) -> np.ndarray:
    """Complex spectrogram of a mono waveform.

    Args:
        signal: 1-D real array, at least one sample, all values finite.
        config: analysis parameters.

    Returns:
        ``[frequency_bins x frames]`` complex64 array with
        ``frames == config.num_frames(len(signal))``.
    """
    x = np.asarray(signal)
    if x.ndim != 1:
        raise AudioFormatError(f"mono signal required, got {x.ndim} dimensions")
    if x.size < 1:
        raise AudioFormatError("empty signal")
    x = x.astype(np.float64, copy=False)
    if not np.all(np.isfinite(x)):
        raise AudioFormatError("non-finite samples in input")

    n_fft = config.fft_size
    hop = config.hop_size
    if x.size < n_fft:
        x = np.pad(x, (0, n_fft - x.size))
    core_len = x.size
    x = np.pad(x, n_fft // 2, mode="reflect")

    n_frames = 1 + core_len // hop
    starts = hop * np.arange(n_frames)[:, None]
    frames = x[starts + np.arange(n_fft)[None, :]] * config.window_array()
    return np.fft.rfft(frames, axis=1).T.astype(np.complex64)


def istft(spec: np.ndarray, config: StftConfig, output_length: int) -> np.ndarray:
    """Invert :func:`stft` by weighted overlap-add.

    Args:
        spec: ``[frequency_bins x frames]`` complex spectrogram.
        config: the parameters the spectrogram was produced with.
        output_length: number of samples to return; the result is truncated
            or zero-padded to exactly this length.

    Returns:
        float32 waveform of length ``output_length``.
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
    window = config.window_array()

    frames = np.fft.irfft(s.T.astype(np.complex128), n=n_fft, axis=1) * window
    total = n_fft + hop * (n_frames - 1)
    # hop-sample chunk c of frame t lands on block t + c of the output. Adding
    # the chunks from the last offset down sums each sample's terms in frame
    # order, so the result is bitwise that of a loop over frames.
    chunks = -(-n_fft // hop)
    acc = np.zeros((n_frames + chunks - 1, hop))
    weight = np.zeros(acc.shape)
    sq = window * window
    for c in range(chunks - 1, -1, -1):
        lo = c * hop
        width = min(hop, n_fft - lo)
        acc[c : c + n_frames, :width] += frames[:, lo : lo + width]
        weight[c : c + n_frames, :width] += sq[lo : lo + width]
    acc, weight = acc.reshape(-1)[:total], weight.reshape(-1)[:total]
    nonzero = weight > 1e-10
    acc[nonzero] /= weight[nonzero]

    pad = n_fft // 2
    out = acc[pad : pad + output_length]
    if out.size < output_length:
        out = np.pad(out, (0, output_length - out.size))
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
