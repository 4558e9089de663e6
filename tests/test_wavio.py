"""Wav reading and writing."""

import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from bsrnnlite import AudioFormatError
from bsrnnlite.wavio import FLOAT32, PCM16, read_wav, write_wav


def test_pcm16_round_trip_bit_exact(tmp_path):
    path = tmp_path / "a.wav"
    ints = np.array([-32768, -1, 0, 1, 12345, 32767], dtype=np.int16)
    wavfile.write(path, 16000, ints)
    samples, rate, fmt = read_wav(path)
    assert (rate, fmt) == (16000, PCM16)
    assert samples.dtype == np.float32
    write_wav(tmp_path / "b.wav", samples, rate, fmt)
    assert np.array_equal(wavfile.read(tmp_path / "b.wav")[1], ints)


def test_float32_round_trip(tmp_path):
    path = tmp_path / "f.wav"
    x = np.random.default_rng(0).standard_normal(50).astype(np.float32)
    write_wav(path, x, 8000, FLOAT32)
    samples, rate, fmt = read_wav(path)
    assert (rate, fmt) == (8000, FLOAT32)
    assert np.array_equal(samples, x)


def test_pcm16_write_clips(tmp_path):
    path = tmp_path / "c.wav"
    write_wav(path, np.array([-2.0, 2.0]), 8000, PCM16)
    assert np.array_equal(wavfile.read(path)[1], np.array([-32768, 32767], dtype=np.int16))


def test_pcm16_written_in_blocks_as_one_conversion(tmp_path):
    # two and a half conversion blocks, with values past full scale and on rounding ties
    x = np.random.default_rng(1).standard_normal(5 * 2**15) * 0.5
    x[::1000] = np.resize([1.5, -1.5, 0.5 / 32768, 2.5 / 32768], x[::1000].size)
    write_wav(tmp_path / "p.wav", x, 16000, PCM16)
    want = np.clip(np.rint(x * 32768.0), -32768, 32767).astype(np.int16)
    assert wavfile.read(tmp_path / "p.wav")[1].tobytes() == want.tobytes()


def test_stereo_rejected(tmp_path):
    path = tmp_path / "s.wav"
    wavfile.write(path, 16000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(AudioFormatError, match="mono"):
        read_wav(path)


def test_unsupported_dtype_rejected(tmp_path):
    path = tmp_path / "d.wav"
    wavfile.write(path, 16000, np.zeros(100, dtype=np.int32))
    with pytest.raises(AudioFormatError, match="format"):
        read_wav(path)


def test_missing_file_is_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "nope.wav")


def test_unknown_chunk_is_skipped_quietly(tmp_path):
    path = tmp_path / "u.wav"
    ints = np.arange(-50, 50, dtype=np.int16)
    wavfile.write(path, 8000, ints)
    raw = path.read_bytes()
    chunk = b"zzzz" + (4).to_bytes(4, "little") + b"\0" * 4
    riff = (len(raw) + len(chunk) - 8).to_bytes(4, "little")
    path.write_bytes(raw[:4] + riff + raw[8:36] + chunk + raw[36:])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        samples, _, _ = read_wav(path)
    assert np.array_equal(samples * 32768, ints)

