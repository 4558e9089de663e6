"""Transforms: framing conventions, inversion, windows, observation adding."""

import numpy as np
import pytest

from bsrnnlite import AudioFormatError, ConfigError, OaConfig, StftConfig
from bsrnnlite import istft, observation_add, stft
from bsrnnlite.dsp import IstftTail

from reference import dft_frame, loop_istft


def _rel_err(a, b):
    scale = max(np.max(np.abs(b)), 1e-12)
    diff = np.asarray(a, dtype=np.complex128) - np.asarray(b, dtype=np.complex128)
    return float(np.max(np.abs(diff))) / scale


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.frequency_bins == 257
        assert cfg.window_array().shape == (512,)

    def test_frame_count_one_second(self):
        # 16000 samples at fft 512 / hop 256 frame into exactly 63 columns
        assert StftConfig().num_frames(16000) == 63

    def test_frame_count_short_signals_pad_to_one_frame(self):
        cfg = StftConfig(fft_size=64, hop_size=16)
        assert cfg.num_frames(1) == 1 + 64 // 16
        assert cfg.num_frames(64) == 5
        assert cfg.num_frames(65) == 5
        assert cfg.num_frames(80) == 6

    def test_frame_count_needs_a_sample(self):
        with pytest.raises(ConfigError, match="num_samples must be >= 1"):
            StftConfig().num_frames(0)

    @pytest.mark.parametrize("bad", [dict(fft_size=48), dict(fft_size=0),
                                     dict(hop_size=0), dict(hop_size=512),
                                     dict(window="hamming"), dict(sample_rate=0)])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            StftConfig(**bad)


class TestStft:
    def test_shape_and_dtype(self):
        cfg = StftConfig(fft_size=64, hop_size=16)
        x = np.random.default_rng(0).standard_normal(200).astype(np.float32)
        spec = stft(x, cfg)
        assert spec.shape == (33, cfg.num_frames(200))
        assert spec.dtype == np.complex64

    def test_matches_direct_dft(self):
        # brute-force windowed DFT of a chosen frame, computed scalar-wise
        cfg = StftConfig(fft_size=16, hop_size=8)
        rng = np.random.default_rng(1)
        x = rng.standard_normal(64)
        spec = stft(x, cfg)
        w = cfg.window_array()
        padded = np.pad(x, 8, mode="reflect")
        for frame_idx in (0, 2, 5):
            frame = padded[frame_idx * 8 : frame_idx * 8 + 16] * w
            expect = dft_frame(frame)
            assert np.max(np.abs(spec[:, frame_idx] - expect)) < 1e-4

    def test_linearity_power_of_two_exact(self):
        cfg = StftConfig(fft_size=64, hop_size=32)
        x = np.random.default_rng(2).standard_normal(300)
        assert np.array_equal(stft(2.0 * x, cfg), (2.0 * stft(x, cfg).astype(np.complex128)).astype(np.complex64))

    def test_linearity_general_scalar(self):
        cfg = StftConfig(fft_size=64, hop_size=32)
        x = np.random.default_rng(3).standard_normal(300)
        assert _rel_err(stft(0.37 * x, cfg), 0.37 * stft(x, cfg).astype(np.complex128)) < 1e-6

    def test_zero_in_zero_out(self):
        spec = stft(np.zeros(1000), StftConfig())
        assert not spec.any()

    def test_rejects_stereo_empty_nonfinite(self):
        cfg = StftConfig()
        with pytest.raises(AudioFormatError):
            stft(np.zeros((100, 2)), cfg)
        with pytest.raises(AudioFormatError):
            stft(np.zeros(0), cfg)
        bad = np.zeros(100)
        bad[3] = np.nan
        with pytest.raises(AudioFormatError):
            stft(bad, cfg)


class TestRoundTrip:
    @pytest.mark.parametrize("length", [1, 5, 64, 200, 512, 513, 1000, 16000])
    def test_istft_inverts_stft(self, length):
        cfg = StftConfig()
        rng = np.random.default_rng(length)
        x = rng.standard_normal(length).astype(np.float32)
        y = istft(stft(x, cfg), cfg, length)
        assert y.shape == (length,)
        assert _rel_err(y, x) < 1e-6

    def test_small_hop(self):
        cfg = StftConfig(fft_size=64, hop_size=8)
        x = np.random.default_rng(9).standard_normal(777).astype(np.float32)
        assert _rel_err(istft(stft(x, cfg), cfg, 777), x) < 1e-6

    def test_output_length_is_authoritative(self):
        cfg = StftConfig(fft_size=64, hop_size=16)
        x = np.random.default_rng(4).standard_normal(160).astype(np.float32)
        spec = stft(x, cfg)
        assert istft(spec, cfg, 100).shape == (100,)
        long = istft(spec, cfg, 400)
        assert long.shape == (400,)
        assert not long[300:].any()

    @pytest.mark.parametrize("fft, hop", [(512, 256), (32, 8), (512, 200), (64, 27), (8, 3)])
    @pytest.mark.parametrize("frames", [1, 2, 7, 63])
    def test_overlap_add_matches_frame_loop_bitwise(self, fft, hop, frames):
        # 200, 27 and 3 do not divide the frame, so the last chunk of each frame is short
        cfg = StftConfig(fft_size=fft, hop_size=hop)
        rng = np.random.default_rng(fft + hop + frames)
        spec = (rng.standard_normal((cfg.frequency_bins, frames))
                + 1j * rng.standard_normal((cfg.frequency_bins, frames))).astype(np.complex64)
        if fft == 4 * hop:
            # DC of +-2**40 in turn: four overlapping Hann frames cancel it, so the rounding
            # of the float64 sum, which depends on the order of its terms, shows in float32
            spec[0] += (-1.0) ** np.arange(frames) * 2.0**40 * fft
        for length in (1, hop * frames, fft + hop * frames):
            assert istft(spec, cfg, length).tobytes() == loop_istft(spec, cfg, length).tobytes()

    def test_shape_mismatch_rejected(self):
        cfg = StftConfig()
        with pytest.raises(ConfigError):
            istft(np.zeros((100, 10), dtype=np.complex64), cfg, 10)
        with pytest.raises(ConfigError):
            istft(np.zeros((257, 64), dtype=np.complex64), cfg, 16000, tail=IstftTail())
        with pytest.raises(ConfigError):
            istft(np.zeros((257, 10), dtype=np.complex64), cfg, -1)


class TestRunsOfFrames:
    """``stft(frames=)`` and ``istft(tail=)``: a long signal in runs of frames, bitwise."""

    @staticmethod
    def _cuts(total, rng):
        """Run boundaries: halves, one-frame ends, and a seeded handful."""
        inner = {total // 2, 1, total - 1} | set(rng.integers(1, total, 4).tolist())
        return [0] + sorted(c for c in inner if 0 < c < total) + [total]

    @pytest.mark.parametrize("fft, hop", [(512, 256), (32, 8), (512, 200), (64, 27)])
    @pytest.mark.parametrize("length", [1, 40, 511, 513, 4000, 16001])
    def test_runs_equal_one_call(self, fft, hop, length):
        # 200 and 27 do not divide the frame: the carried tail ends inside a hop block
        cfg = StftConfig(fft_size=fft, hop_size=hop)
        rng = np.random.default_rng(length + hop)
        x = rng.standard_normal(length).astype(np.float32)
        whole = stft(x, cfg)
        cuts = self._cuts(whole.shape[1], rng)
        runs = [stft(x, cfg, frames=span) for span in zip(cuts[:-1], cuts[1:])]
        assert np.concatenate(runs, axis=1).tobytes() == whole.tobytes()
        tail = IstftTail()
        pieces = [istft(run, cfg, length, tail=tail) for run in runs]
        assert np.concatenate(pieces).tobytes() == istft(whole, cfg, length).tobytes()
        assert tail.frames == whole.shape[1] and not tail.acc.size

    @pytest.mark.parametrize("fft, hop", [(512, 256), (32, 8), (64, 27)])
    @pytest.mark.parametrize("length", [1, 40, 513, 4000])
    def test_frames_match_whole_padded_signal(self, fft, hop, length):
        # the reference pads the whole signal, reflecting at both ends
        cfg = StftConfig(fft_size=fft, hop_size=hop)
        x = np.random.default_rng(length).standard_normal(length)
        padded = np.pad(np.pad(x, (0, max(fft - length, 0))), fft // 2, mode="reflect")
        frames = np.lib.stride_tricks.sliding_window_view(padded, fft)[::hop] * cfg.window_array()
        want = np.fft.rfft(frames, axis=1).T.astype(np.complex64)
        assert stft(x, cfg).tobytes() == want.tobytes()
        last = cfg.num_frames(length)
        assert stft(x, cfg, frames=(last - 1, last)).tobytes() == want[:, -1:].tobytes()

    def test_runs_read_only_their_samples(self):
        cfg = StftConfig(fft_size=32, hop_size=8)
        x = np.random.default_rng(3).standard_normal(400)
        x[-1] = np.nan
        first = stft(x, cfg, frames=(0, 10))  # frames 0..9 end at sample 9 * 8 + 16
        assert np.array_equal(first, stft(x[:100], cfg)[:, :10])
        with pytest.raises(AudioFormatError, match="non-finite"):
            stft(x, cfg, frames=(40, cfg.num_frames(400)))

    @pytest.mark.parametrize("frames", [(0, 0), (-1, 3), (3, 2), (0, 52)])
    def test_frame_range_checked(self, frames):
        cfg = StftConfig(fft_size=32, hop_size=8)
        with pytest.raises(ConfigError):
            stft(np.zeros(400), cfg, frames=frames)  # 51 frames


class TestWindowSums:
    """The overlap properties the inversion relies on."""

    def _overlapped(self, values, hop, copies=16):
        n = len(values)
        total = n + hop * (copies - 1)
        acc = np.zeros(total)
        for i in range(copies):
            acc[i * hop : i * hop + n] += values
        return acc[n : total - n]  # interior only

    def test_plain_hann_sums_to_one_at_half_overlap(self):
        cfg = StftConfig(fft_size=64, hop_size=32)
        interior = self._overlapped(cfg.window_array(), 32)
        assert np.allclose(interior, 1.0, atol=1e-12)

    def test_squared_hann_constant_at_quarter_overlap_only(self):
        w = StftConfig(fft_size=64, hop_size=16).window_array()
        quarter = self._overlapped(w * w, 16)
        assert np.allclose(quarter, 1.5, atol=1e-12)
        half = self._overlapped(w * w, 32)
        assert half.max() - half.min() > 0.4  # why istft divides pointwise


class TestObservationAdd:
    def test_omega_bounds_are_identities(self):
        rng = np.random.default_rng(5)
        noisy = rng.standard_normal(100).astype(np.float32)
        enh = rng.standard_normal(100).astype(np.float32)
        assert np.array_equal(observation_add(noisy, enh, OaConfig(0.0)), enh)
        assert np.array_equal(observation_add(noisy, enh, OaConfig(1.0)), noisy)

    def test_midpoint(self):
        out = observation_add(np.array([2.0, 4.0]), np.array([0.0, 0.0]), OaConfig(0.5))
        assert np.array_equal(out, np.array([1.0, 2.0], dtype=np.float32))

    def test_validation(self):
        with pytest.raises(ConfigError):
            OaConfig(1.5)
        with pytest.raises(ConfigError):
            OaConfig(-0.1)
        with pytest.raises(ConfigError):
            observation_add(np.zeros(3), np.zeros(4), OaConfig(0.5))
