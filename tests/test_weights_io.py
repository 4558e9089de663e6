"""BSRW container format and the seeded generator."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from bsrnnlite import WeightsFormatError, build, canonical_config, expected_tensors, gen_weights
from bsrnnlite import load_weights, save_weights
from bsrnnlite.weights_io import ALIGNMENT, MAGIC, VERSION, _splitmix64, _uniform_block

from reference import splitmix64_sequential
from util import tiny_config


class TestStream:
    def test_vectorized_matches_sequential_walk(self):
        for seed in (0, 1, 0x42, 2**63, 12345678901234567):
            want = splitmix64_sequential(seed, 64)
            got = _splitmix64(seed, 0, 64)
            assert [int(v) for v in got] == want

    def test_known_seed_zero_prefix(self):
        # first outputs of the reference SplitMix64 stream for seed 0
        got = [int(v) for v in _splitmix64(0, 0, 3)]
        assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_block_offsets_are_a_single_stream(self):
        whole = _uniform_block(7, 0, 100)
        parts = np.concatenate([_uniform_block(7, 0, 33), _uniform_block(7, 33, 41),
                                _uniform_block(7, 74, 26)])
        assert np.array_equal(whole, parts)

    def test_value_range_and_dtype(self):
        vals = _uniform_block(3, 0, 10000)
        assert vals.dtype == np.float32
        assert vals.min() >= -0.1 and vals.max() < 0.1
        assert np.std(vals) > 0.04  # actually spread out


class TestGenerate:
    def test_deterministic_and_seed_sensitive(self):
        cfg = tiny_config()
        a = gen_weights(cfg, seed=0)
        b = gen_weights(cfg, seed=0)
        c = gen_weights(cfg, seed=1)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_covers_expected_set_exactly(self):
        cfg = tiny_config()
        arrays = gen_weights(cfg)
        expected = expected_tensors(cfg)
        assert list(arrays) == list(expected)
        assert all(arrays[k].shape == expected[k] for k in arrays)

    def test_builds_a_working_model(self):
        cfg = tiny_config()
        build(cfg, gen_weights(cfg, seed=5))


class TestContainer:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config()
        arrays = gen_weights(cfg, seed=2)
        path = tmp_path / "w.bsrw"
        save_weights(path, arrays, meta={"seed": 2})
        loaded, meta = load_weights(path)
        assert meta == {"seed": 2}
        assert list(loaded) == list(arrays)
        assert all(np.array_equal(loaded[k], arrays[k]) for k in arrays)

    def test_round_trip_converts_other_arrays(self, tmp_path):
        # written as float32 C order; a scalar becomes one element, as np.ascontiguousarray makes it
        arrays = {"f64": np.arange(15.0).reshape(3, 5).T, "scalar": np.float64(2.5), "list": [[1, 2]]}
        path = tmp_path / "w.bsrw"
        save_weights(path, arrays)
        loaded, _ = load_weights(path)
        assert {k: v.shape for k, v in loaded.items()} == {"f64": (5, 3), "scalar": (1,), "list": (1, 2)}
        assert all(np.array_equal(loaded[k], np.float32(arrays[k]).reshape(loaded[k].shape)) for k in arrays)

    def test_byte_identical_across_runs(self, tmp_path):
        cfg = tiny_config()
        p1, p2 = tmp_path / "a.bsrw", tmp_path / "b.bsrw"
        save_weights(p1, gen_weights(cfg, seed=3), meta={"seed": 3})
        save_weights(p2, gen_weights(cfg, seed=3), meta={"seed": 3})
        assert p1.read_bytes() == p2.read_bytes()

    def test_bytes_pinned(self, tmp_path):
        # the sha256 the format has always written for this input: a change to the
        # layout, the padding or the header text shows up here
        path = tmp_path / "w.bsrw"
        save_weights(path, gen_weights(tiny_config(), seed=0), meta={"config_name": "tiny", "seed": 0})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d7081e3ec691a184614424bf16d6a893e1ece74164d26cd2000f375e40f7c907")

    def test_layout_fields_and_alignment(self, tmp_path):
        path = tmp_path / "w.bsrw"
        save_weights(path, gen_weights(tiny_config(), seed=0))
        raw = path.read_bytes()
        assert raw[:4] == MAGIC
        assert int(np.frombuffer(raw[4:8], np.uint32)[0]) == VERSION
        header_len = int(np.frombuffer(raw[8:16], np.uint64)[0])
        doc = json.loads(raw[16 : 16 + header_len])
        offsets = [t["offset"] for t in doc["tensors"].values()]
        assert all(off % ALIGNMENT == 0 for off in offsets)
        assert offsets == sorted(offsets)
        payload_base = (16 + header_len + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT
        first = next(iter(doc["tensors"].values()))
        a = np.frombuffer(raw, np.float32, count=int(np.prod(first["shape"])),
                          offset=payload_base + first["offset"])
        assert np.array_equal(a.reshape(first["shape"]),
                              gen_weights(tiny_config(), seed=0)[next(iter(doc["tensors"]))])

    def test_directory_is_an_os_error(self, tmp_path):
        # the CLI reports it as io (exit 5), as it does a directory given as a config
        with pytest.raises(IsADirectoryError):
            load_weights(tmp_path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bsrw"
        path.write_bytes(b"WAVE" + b"\0" * 32)
        with pytest.raises(WeightsFormatError, match="magic"):
            load_weights(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.bsrw"
        path.write_bytes(MAGIC + np.uint32(1).tobytes() + np.uint64(10**6).tobytes())
        with pytest.raises(WeightsFormatError, match="header"):
            load_weights(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "x.bsrw"
        header = b"{}"
        path.write_bytes(MAGIC + np.uint32(9).tobytes() + np.uint64(len(header)).tobytes() + header)
        with pytest.raises(WeightsFormatError, match="version"):
            load_weights(path)

    def test_corrupt_manifest(self, tmp_path):
        path = tmp_path / "x.bsrw"
        header = b'{"tensors": 3}'
        path.write_bytes(MAGIC + np.uint32(1).tobytes() + np.uint64(len(header)).tobytes() + header)
        with pytest.raises(WeightsFormatError, match="manifest"):
            load_weights(path)

    def test_tensor_past_eof(self, tmp_path):
        path = tmp_path / "x.bsrw"
        header = json.dumps(
            {"tensors": {"w": {"shape": [64], "dtype": "f32", "offset": 0}}}
        ).encode()
        path.write_bytes(MAGIC + np.uint32(1).tobytes() + np.uint64(len(header)).tobytes() + header)
        with pytest.raises(WeightsFormatError, match="past end"):
            load_weights(path)

    def test_wrong_dtype_rejected(self, tmp_path):
        path = tmp_path / "x.bsrw"
        header = json.dumps(
            {"tensors": {"w": {"shape": [2], "dtype": "f64", "offset": 0}}}
        ).encode()
        blob = header + b"\0" * 64
        path.write_bytes(MAGIC + np.uint32(1).tobytes() + np.uint64(len(header)).tobytes() + blob)
        with pytest.raises(WeightsFormatError, match="dtype"):
            load_weights(path)

    @pytest.mark.parametrize("entry, what", [
        ([2], "not an object"),
        ({"dtype": "f32", "offset": 0}, "shape"),
        ({"shape": [2], "dtype": "f32"}, "offset"),
        ({"shape": "12", "dtype": "f32", "offset": 0}, "shape"),
        ({"shape": [2, -1], "dtype": "f32", "offset": 0}, "shape"),
        ({"shape": [True], "dtype": "f32", "offset": 0}, "shape"),
        ({"shape": [2.0], "dtype": "f32", "offset": 0}, "shape"),
        ({"shape": [2], "dtype": "f32", "offset": "0"}, "offset"),
        ({"shape": [2], "dtype": "f32", "offset": -64}, "offset"),
    ])
    def test_malformed_entry_rejected(self, tmp_path, entry, what):
        path = tmp_path / "x.bsrw"
        header = json.dumps({"tensors": {"w": entry}}).encode()
        path.write_bytes(MAGIC + np.uint32(1).tobytes() + np.uint64(len(header)).tobytes()
                         + header + b"\0" * 64)
        with pytest.raises(WeightsFormatError, match=f"tensor w .*{what}"):
            load_weights(path)

    @pytest.mark.parametrize("offset, fits", [(0, True), (64, False)])
    def test_zero_size_tensor_in_a_file_that_ends_before_the_payload(self, tmp_path, offset, fits):
        path = tmp_path / "x.bsrw"
        header = json.dumps({"tensors": {"w": {"shape": [3, 0], "dtype": "f32", "offset": offset}}}).encode()
        path.write_bytes(MAGIC + np.uint32(1).tobytes() + np.uint64(len(header)).tobytes() + header)
        if fits:
            assert load_weights(path)[0]["w"].shape == (3, 0)
        else:
            with pytest.raises(WeightsFormatError, match="past end"):
                load_weights(path)

    def test_misaligned_offset_rejected(self, tmp_path):
        path = tmp_path / "x.bsrw"
        header = json.dumps(
            {"tensors": {"w": {"shape": [2], "dtype": "f32", "offset": 12}}}
        ).encode()
        path.write_bytes(MAGIC + np.uint32(1).tobytes() + np.uint64(len(header)).tobytes()
                         + header + b"\0" * 256)
        with pytest.raises(WeightsFormatError, match="aligned"):
            load_weights(path)


def test_file_to_model_round_trip(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "w.bsrw"
    save_weights(path, gen_weights(cfg, seed=4))
    arrays, _ = load_weights(path)
    model = build(cfg, arrays)
    assert model.config.name == "tiny"


def test_loaded_arrays_are_read_only_views_of_the_file(tmp_path):
    path = tmp_path / "w.bsrw"
    save_weights(path, gen_weights(tiny_config(), seed=1))
    arrays, _ = load_weights(path)
    raw = path.read_bytes()
    doc = json.loads(raw[16 : 16 + int(np.frombuffer(raw[8:16], np.uint64)[0])])
    first = next(iter(arrays.values())).__array_interface__["data"][0]
    for name, a in arrays.items():
        assert not a.flags.writeable
        assert a.__array_interface__["data"][0] - first == doc["tensors"][name]["offset"]


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_load_holds_one_copy_of_the_file(tmp_path):
    # the tensors are views of the bytes read; a payload copy or per-tensor
    # slices would take the peak to two or three times the file
    path = tmp_path / "w.bsrw"
    save_weights(path, gen_weights(canonical_config(), seed=0))
    assert _traced_peak(lambda: load_weights(path)) <= 1.1 * path.stat().st_size


def test_save_copies_no_float32_input(tmp_path):
    # each tensor is written from its own buffer; a second in-memory copy of
    # the model would take the peak to the file's size (11.5 MiB here)
    arrays = gen_weights(canonical_config(), seed=0)
    assert _traced_peak(lambda: save_weights(tmp_path / "w.bsrw", arrays)) <= 2**20
