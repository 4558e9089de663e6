"""End-to-end command-line behavior, driven through main(argv)."""

import errno
import json
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io.wavfile

from bsrnnlite import canonical_config, cli, expected_tensors, load_weights, model, rnn
from bsrnnlite import save_config, wavio
from bsrnnlite.configio import config_to_dict
from bsrnnlite.cli import (
    EXIT_AUDIO,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_WEIGHTS,
    main,
)

from util import tiny_config

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _usage_line(capsys) -> str:
    """The stderr of the last call, checked to be one ``error: usage:`` line."""
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: usage: "), err
    return err


@pytest.fixture(scope="module")
def assets(tmp_path_factory):
    """A tiny config file, matching weights, and a short noisy wav."""
    root = tmp_path_factory.mktemp("cli")
    cfg = tiny_config()
    cfg_path = root / "tiny.json"
    save_config(cfg, cfg_path)
    weights_path = root / "tiny.bsrw"
    assert main(["gen-weights", "--config", str(cfg_path), "--seed", "0",
                 "--output", str(weights_path)]) == EXIT_OK
    rng = np.random.default_rng(7)
    wav_path = root / "noisy.wav"
    wavio.write_wav(wav_path, rng.standard_normal(4000).astype(np.float32) * 0.1,
                    cfg.stft.sample_rate, "float32")
    return {"root": root, "config": cfg_path, "weights": weights_path, "wav": wav_path}


class TestAnalyze:
    def test_headline_number(self, capsys):
        assert main(["analyze", "--config", "canonical-v1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "1.84 G/s"
        assert "band_rnn[1]" in out and "mask_head" in out

    def test_json_document(self, capsys):
        assert main(["analyze", "--config", "canonical-v1", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["duration_seconds"] == 1.0
        assert doc["total_macs"] == sum(doc["components"].values())
        assert abs(doc["gmacs_per_second"] - 1.84) < 0.02

    def test_csv_document(self, capsys):
        assert main(["analyze", "--config", "canonical-v1", "--csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "component,macs"
        assert lines[-1].startswith("total,")
        total = int(lines[-1].split(",")[1])
        assert total == sum(int(l.split(",")[1]) for l in lines[1:-1])


class TestTable:
    def test_default_chain(self, capsys):
        assert main(["table"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 5  # header, base, four variants
        assert lines[1].startswith("BSRNN")
        assert lines[-1].split()[0] == "+++GR"

    def test_extended_chain_csv(self, capsys):
        assert main(["table", "--extended", "--csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 10  # header, base, nine variants
        names = [l.split(",")[0] for l in lines[1:]]
        assert names[0] == "BSRNN" and "+LWR-SYNC(4)" in names

    def test_json_reductions_monotone_for_chain(self, capsys):
        assert main(["table", "--json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        reds = [row["reduction_pct"] for row in doc["rows"]]
        assert reds[0] == 0.0
        assert all(b >= a for a, b in zip(reds[1:], reds[2:]))

    def test_variant_directory(self, assets, tmp_path, capsys):
        from bsrnnlite import LwrStrategy, load_config

        cfg = load_config(assets["config"])
        vdir = tmp_path / "variants"
        vdir.mkdir()
        save_config(cfg.with_groups(2), vdir / "grouped.json")
        save_config(cfg.with_resample(LwrStrategy.alternating(2)), vdir / "resampled.json")
        assert main(["table", "--base", str(assets["config"]),
                     "--variants", str(vdir), "--csv"]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["tiny", "grouped", "resampled"]
        assert all(float(l.split(",")[3]) > 0 for l in lines[2:])

    def test_extended_with_variants_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "variants").mkdir()
        assert main(["table", "--variants", str(tmp_path / "variants"),
                     "--extended"]) == EXIT_USAGE
        assert "not allowed with argument" in _usage_line(capsys)

    def test_empty_variant_directory(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert main(["table", "--variants", str(tmp_path / "empty")]) == EXIT_CONFIG
        assert "error: config:" in capsys.readouterr().err


class TestGenWeights:
    def test_deterministic_files(self, assets, tmp_path, capsys):
        a, b = tmp_path / "a.bsrw", tmp_path / "b.bsrw"
        for path in (a, b):
            assert main(["gen-weights", "--config", str(assets["config"]),
                         "--seed", "41", "--output", str(path)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        assert "seed 41" in capsys.readouterr().err

    def test_output_onto_its_own_config_is_refused(self, assets, tmp_path, capsys):
        config = shutil.copy(assets["config"], tmp_path / "c.json")
        before = config.read_bytes()
        assert main(["gen-weights", "--config", str(config), "--output", str(config)]) == EXIT_IO
        assert capsys.readouterr().err == (f"error: io: --output {config} is the --config file; "
                                           "it is never overwritten\n")
        assert config.read_bytes() == before

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_weights_to_stdout_through_a_pipe(self, assets, tmp_path):
        # the status line goes to stderr, so stdout carries the weights bytes alone
        argv = ["gen-weights", "--config", str(assets["config"]), "--seed", "3", "--output"]
        done = subprocess.run([sys.executable, "-m", "bsrnnlite.cli", *argv, "/dev/stdout"],
                              capture_output=True, timeout=120, check=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                  filter(None, [SRC, os.environ.get("PYTHONPATH")]))})
        piped, direct = tmp_path / "piped.bsrw", tmp_path / "direct.bsrw"
        piped.write_bytes(done.stdout)
        assert main([*argv, str(direct)]) == EXIT_OK
        assert piped.read_bytes() == direct.read_bytes()
        assert list(load_weights(piped)[0]) == list(expected_tensors(tiny_config()))
        assert done.stderr.decode().startswith("/dev/stdout: ")

    def test_failed_write_leaves_an_existing_file_unchanged(self, assets, tmp_path, monkeypatch,
                                                             capsys):
        out = shutil.copy(assets["weights"], tmp_path / "w.bsrw")
        before, full = out.read_bytes(), OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def save_weights(path, arrays, meta):  # half a file, then a full disk
            Path(path).write_bytes(before[: len(before) // 2])
            raise full

        monkeypatch.setattr(cli.weights_io, "save_weights", save_weights)
        assert main(["gen-weights", "--config", str(assets["config"]), "--seed", "5",
                     "--output", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: io: {full}\n"
        assert out.read_bytes() == before
        assert list(tmp_path.iterdir()) == [out]  # no temporary file is left

    def test_replacing_keeps_the_link_and_the_mode(self, assets, tmp_path):
        out, link = tmp_path / "w.bsrw", tmp_path / "link.bsrw"
        out.write_bytes(b"old")
        out.chmod(0o640)
        link.symlink_to(out)
        assert main(["gen-weights", "--config", str(assets["config"]), "--seed", "0",
                     "--output", str(link)]) == EXIT_OK
        assert link.is_symlink() and out.read_bytes() == assets["weights"].read_bytes()
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.bsrw", "w.bsrw"]

    def test_output_in_a_missing_directory(self, assets, tmp_path, capsys):
        out = tmp_path / "missing" / "w.bsrw"
        assert main(["gen-weights", "--config", str(assets["config"]), "--output", str(out)]) == EXIT_IO
        assert capsys.readouterr().err == f"error: io: [Errno 2] No such directory: '{out}'\n"
        assert list(tmp_path.iterdir()) == []


class TestEnhance:
    def test_single_file(self, assets, tmp_path, capsys):
        out_path = tmp_path / "clean.wav"
        code = main(["enhance", "--config", str(assets["config"]),
                     "--weights", str(assets["weights"]),
                     "--input", str(assets["wav"]), "--output", str(out_path)])
        assert code == EXIT_OK
        assert "ok" in capsys.readouterr().err
        noisy, rate, _ = wavio.read_wav(assets["wav"])
        clean, out_rate, _ = wavio.read_wav(out_path)
        assert out_rate == rate and clean.shape == noisy.shape
        assert np.all(np.isfinite(clean))

    def test_directory_mode(self, assets, tmp_path, capsys):
        src = tmp_path / "in"
        src.mkdir()
        samples, rate, fmt = wavio.read_wav(assets["wav"])
        for name in ("a.wav", "b.wav"):
            wavio.write_wav(src / name, samples, rate, fmt)
        dst = tmp_path / "out"
        assert main(["enhance", "--config", str(assets["config"]),
                     "--weights", str(assets["weights"]),
                     "--input", str(src), "--output", str(dst)]) == EXIT_OK
        assert sorted(p.name for p in dst.glob("*.wav")) == ["a.wav", "b.wav"]
        assert capsys.readouterr().err.count(": ok") == 2

    def _run(self, assets, src, dst):
        return main(["enhance", "--config", str(assets["config"]), "--weights", str(assets["weights"]),
                     "--input", str(src), "--output", str(dst)])

    def test_output_onto_its_own_input_file(self, assets, tmp_path):
        # read_wav copies the samples, so the file may be overwritten with its own output
        noisy = tmp_path / "noisy.wav"
        wavio.write_wav(noisy, np.random.default_rng(8).standard_normal(400).astype(np.float32) * 0.1,
                        8000, "pcm16")  # 0.05 s
        assert self._run(assets, noisy, tmp_path / "clean.wav") == EXIT_OK
        assert self._run(assets, noisy, noisy) == EXIT_OK
        assert noisy.read_bytes() == (tmp_path / "clean.wav").read_bytes()

    def test_output_onto_its_own_input_directory(self, assets, tmp_path):
        src, dst = tmp_path / "in", tmp_path / "out"
        src.mkdir()
        rng = np.random.default_rng(9)
        for name in ("a.wav", "b.wav"):
            wavio.write_wav(src / name, rng.standard_normal(400).astype(np.float32) * 0.1, 8000,
                            "float32")
        assert self._run(assets, src, dst) == EXIT_OK
        assert self._run(assets, src, src) == EXIT_OK
        for name in ("a.wav", "b.wav"):
            assert (src / name).read_bytes() == (dst / name).read_bytes()

    @pytest.mark.parametrize("mode", ["file", "directory"])
    def test_failed_write_leaves_the_input_unchanged(self, assets, tmp_path, mode, monkeypatch,
                                                     capsys):
        # --output is --input; the write of b.wav fails midway, as on a full disk
        src = tmp_path / "in"
        src.mkdir()
        rng = np.random.default_rng(10)
        for name in ("a.wav", "b.wav"):
            wavio.write_wav(src / name, rng.standard_normal(400).astype(np.float32) * 0.1, 8000,
                            "pcm16")
        before = {path.name: path.read_bytes() for path in src.iterdir()}
        real, written, full = wavio.write_wav, [], OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def write_wav(path, *args):
            written.append(Path(path))
            if mode == "file" or len(written) == 2:
                Path(path).write_bytes(before["b.wav"][:30])
                raise full
            real(path, *args)

        monkeypatch.setattr(cli.wavio, "write_wav", write_wav)
        target = src if mode == "directory" else src / "b.wav"
        assert self._run(assets, target, target) == EXIT_IO
        assert capsys.readouterr().err.endswith(f"error: io: {full}\n")
        assert all(path.parent == src and path.name.startswith(".") for path in written)
        after = {path.name: path.read_bytes() for path in src.iterdir()}
        assert sorted(after) == ["a.wav", "b.wav"]  # no temporary file is left
        assert after["b.wav"] == before["b.wav"]
        assert (after["a.wav"] != before["a.wav"]) is (mode == "directory")  # a.wav was enhanced

    @pytest.mark.parametrize("target", ["weights", "config", "link to weights", "dir onto weights"])
    def test_output_onto_its_own_weights_or_config_is_refused(self, assets, tmp_path, target,
                                                              monkeypatch, capsys):
        # refused before either file is loaded; both stay byte-identical
        config = shutil.copy(assets["config"], tmp_path / "c.json")
        weights = shutil.copy(assets["weights"], tmp_path / "w.bsrw")
        src = assets["wav"]
        if target == "link to weights":
            (tmp_path / "link.wav").symlink_to(weights)
        elif target == "dir onto weights":  # directory mode: one target is the weights file
            src, out = tmp_path / "in", tmp_path / "out"
            src.mkdir()
            out.mkdir()
            shutil.copy(assets["wav"], src / "a.wav")
            weights = shutil.move(weights, out / "a.wav")
        before = {path: path.read_bytes() for path in (config, weights)}
        output = {"weights": weights, "config": config, "link to weights": tmp_path / "link.wav",
                  "dir onto weights": tmp_path / "out"}[target]
        for module, name in ((cli.configio, "load_config"), (cli.weights_io, "load_weights")):
            monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("loaded"))
        capsys.readouterr()
        assert main(["enhance", "--config", str(config), "--weights", str(weights),
                     "--input", str(src), "--output", str(output)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: io: --output "), err
        assert err.endswith(f"is the --{target.split()[-1]} file; it is never overwritten\n")
        assert {path: path.read_bytes() for path in (config, weights)} == before

    def test_empty_input_directory(self, assets, tmp_path, capsys):
        (tmp_path / "in").mkdir()
        assert self._run(assets, tmp_path / "in", tmp_path / "out") == EXIT_AUDIO
        assert capsys.readouterr().err == f"error: audio: no wav files in {tmp_path / 'in'}\n"

    def test_oa_passthrough_at_one(self, assets, tmp_path):
        out_path = tmp_path / "same.wav"
        assert main(["enhance", "--config", str(assets["config"]),
                     "--weights", str(assets["weights"]),
                     "--input", str(assets["wav"]), "--output", str(out_path),
                     "--oa", "1.0"]) == EXIT_OK
        noisy, _, _ = wavio.read_wav(assets["wav"])
        out, _, _ = wavio.read_wav(out_path)
        assert np.array_equal(out, noisy)

    def test_non_causal_limit(self, tmp_path, monkeypatch, capsys):
        # one frame past the whole-file limit: 4097 frames of the tiny 8 kHz / hop 8 STFT
        cfg = tiny_config(time_rnn_causal=False)
        cfg_path, weights_path = tmp_path / "bidir.json", tmp_path / "bidir.bsrw"
        save_config(cfg, cfg_path)
        assert main(["gen-weights", "--config", str(cfg_path), "--output", str(weights_path)]) == EXIT_OK
        wav = tmp_path / "long.wav"
        samples = model.WHOLE_FILE_FRAMES * cfg.stft.hop_size
        assert cfg.stft.num_frames(samples) == model.WHOLE_FILE_FRAMES + 1
        wavio.write_wav(wav, np.zeros(samples, np.float32), cfg.stft.sample_rate, "pcm16")
        argv = ["enhance", "--config", str(cfg_path), "--weights", str(weights_path),
                "--input", str(wav), "--output", str(tmp_path / "out.wav")]
        capsys.readouterr()
        with monkeypatch.context() as patch:
            # refused before the first transform runs
            patch.setattr(model, "stft", lambda *args, **kwargs: pytest.fail("stft ran"))
            assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: config: a non-causal time RNN")
        done = subprocess.run([sys.executable, "-m", "bsrnnlite.cli", *argv], capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                  filter(None, [SRC, os.environ.get("PYTHONPATH")]))})
        assert done.returncode == EXIT_CONFIG and done.stderr == err and not done.stdout
        assert not (tmp_path / "out.wav").exists()

    def test_stereo_rejected(self, assets, tmp_path, capsys):
        stereo = tmp_path / "stereo.wav"
        scipy.io.wavfile.write(stereo, 8000, np.zeros((64, 2), np.int16))
        code = main(["enhance", "--config", str(assets["config"]),
                     "--weights", str(assets["weights"]),
                     "--input", str(stereo), "--output", str(tmp_path / "o.wav")])
        assert code == EXIT_AUDIO
        assert "error: audio:" in capsys.readouterr().err

    def test_sample_rate_mismatch(self, assets, tmp_path, capsys):
        fast = tmp_path / "wide.wav"
        wavio.write_wav(fast, np.zeros(64, np.float32), 16000, "float32")
        code = main(["enhance", "--config", str(assets["config"]),
                     "--weights", str(assets["weights"]),
                     "--input", str(fast), "--output", str(tmp_path / "o.wav")])
        assert code == EXIT_AUDIO
        assert "sample rate" in capsys.readouterr().err

    def test_mismatched_weights(self, assets, tmp_path, capsys):
        code = main(["enhance", "--config", "canonical-v1",
                     "--weights", str(assets["weights"]),
                     "--input", str(assets["wav"]), "--output", str(tmp_path / "o.wav")])
        assert code == EXIT_WEIGHTS
        assert "error: weights:" in capsys.readouterr().err

    def test_weights_file_with_a_byte_appended(self, assets, tmp_path, capsys):
        path = tmp_path / "w.bsrw"
        assert main(["gen-weights", "--config", "canonical-v1", "--output", str(path)]) == EXIT_OK
        path.write_bytes(path.read_bytes() + b"\0")
        capsys.readouterr()
        code = main(["enhance", "--config", "canonical-v1", "--weights", str(path),
                     "--input", str(assets["wav"]), "--output", str(tmp_path / "o.wav")])
        assert code == EXIT_WEIGHTS
        assert capsys.readouterr().err.splitlines() == [
            "error: weights: 1 bytes past the last tensor"]

    @pytest.mark.parametrize("flag", ["--config", "--weights"])
    def test_directory_given_as_a_file_is_io(self, assets, tmp_path, flag, capsys):
        # one category for both flags: the directory cannot be read as a file
        argv = {"--config": str(assets["config"]), "--weights": str(assets["weights"]),
                "--input": str(assets["wav"]), "--output": str(tmp_path / "o.wav"), flag: str(tmp_path)}
        assert main(["enhance", *[part for item in argv.items() for part in item]]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: io: "), err

    def test_missing_input_file(self, assets, tmp_path, capsys):
        code = main(["enhance", "--config", str(assets["config"]),
                     "--weights", str(assets["weights"]),
                     "--input", str(tmp_path / "nope.wav"),
                     "--output", str(tmp_path / "o.wav")])
        assert code == EXIT_IO
        assert "error: io:" in capsys.readouterr().err


class TestErrorsAndUsage:
    def test_bad_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["analyze", "--config", str(bad)]) == EXIT_CONFIG
        assert "error: config:" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        assert main(["analyze", "--config", "huge-v9"]) == EXIT_CONFIG
        assert "neither a preset" in capsys.readouterr().err

    def test_bench_rejects_nonpositive_duration(self, assets, capsys):
        assert main(["bench", "--config", str(assets["config"]),
                     "--seconds", "0"]) == EXIT_CONFIG
        assert "positive" in capsys.readouterr().err

    def test_bench_refuses_seconds_past_the_limit(self, assets, monkeypatch, capsys):
        for module, name in ((cli.weights_io, "load_weights"), (cli.weights_io, "gen_weights"),
                             (cli.np.random, "default_rng"), (cli.model, "enhance")):
            monkeypatch.setattr(module, name, lambda *args, **kwargs: pytest.fail("bench allocated"))
        for seconds in ("1e7", str(cli.BENCH_SECONDS + 0.5)):
            assert main(["bench", "--config", str(assets["config"]), "--weights", str(assets["weights"]),
                         "--seconds", seconds]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: config: --seconds must be at most")

    def test_bench_rejects_nonpositive_runs(self, assets, capsys):
        assert main(["bench", "--config", str(assets["config"]), "--runs", "0"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: config: --runs")

    @pytest.mark.parametrize("argv", [
        ["analyze", "--config", "canonical-v1", "--duration", "nan"],
        ["analyze", "--config", "canonical-v1", "--duration", "inf"],
        ["bench", "--config", "canonical-v1", "--seconds", "nan"],
        ["bench", "--config", "canonical-v1-gr", "--seconds", "0.00001"],
        ["calibrate", "--top", "0"],
        ["calibrate", "--group", "0"],
        ["calibrate", "--dim-min", "3", "--dim-max", "3", "--group", "2"],
        ["calibrate", "--target-base", "nan"],
        ["calibrate", "--target-grouped", "inf"],
        ["calibrate", "--dim-max", "1000000"],
        ["table", "--variants", os.devnull],  # a file, not a directory
    ], ids=" ".join)
    def test_nonfinite_and_zero_flags_rejected(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: config:")

    @pytest.mark.parametrize("command, field, value", [
        ("analyze", "num_layers", 100_000_000),
        ("gen-weights", "feature_dim", 2_000_000),
        ("gen-weights", "hidden_dim", 4_000_000),
        ("bench", "feature_dim", 2_000_000),
        ("bench", "hidden_dim", 4_000_000),
    ], ids=str)
    def test_oversized_configs_refused(self, command, field, value, tmp_path, monkeypatch, capsys):
        # far past the layer and parameter limits; refused before the plan or a weight is made
        doc = {**config_to_dict(canonical_config()), field: value}
        if field == "num_layers":
            monkeypatch.setattr(model, "plan_resampling", lambda *args: pytest.fail("plan made"))
        monkeypatch.setattr(cli.weights_io, "_uniform_block", lambda *args: pytest.fail("weights made"))
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "big.bsrw"
        argv = [command, "--config", str(path), *{"analyze": [], "gen-weights": ["--output", str(out)],
                                                   "bench": ["--seconds", "1"]}[command]]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: config:")
        assert not out.exists()

    def test_unexpected_exception_is_internal(self, monkeypatch, capsys):
        def broken(args):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr(cli, "cmd_analyze", broken)
        assert main(["analyze", "--config", "canonical-v1"]) == EXIT_INTERNAL
        assert capsys.readouterr().err == "error: internal: RuntimeError: first line second line\n"

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE
        _usage_line(capsys)

    def test_unknown_flag(self, capsys):
        assert main(["analyze", "--config", "canonical-v1", "--fast"]) == EXIT_USAGE
        _usage_line(capsys)

    def test_missing_required_flag(self, capsys):
        assert main(["gen-weights", "--seed", "3"]) == EXIT_USAGE
        _usage_line(capsys)

    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert "enhance" in capsys.readouterr().out


class TestBenchAndCalibrate:
    def test_bench_runs(self, assets, capsys, force_workers):
        force_workers(3)
        resource = pytest.importorskip("resource")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**10
        assert main(["bench", "--config", str(assets["config"]),
                     "--weights", str(assets["weights"]),
                     "--seconds", "0.05", "--runs", "1"]) == EXIT_OK
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 2**10
        out = capsys.readouterr().out
        assert "rtf" in out and "GMAC/s" in out
        params = sum(int(np.prod(shape)) for shape in expected_tensors(tiny_config()).values())
        lines = out.splitlines()
        assert lines[-3:-1] == [
            f"workers    3 of {rnn._CPUS} CPUs, shares of >= 24 RNN rows "
            "(gates >= 32 wide, a multiple of 8) or >= 65536 elements",
            f"weights    {4 * params / 2**20:.1f} MiB float32 ({params} parameters)",
        ]
        label, mib, unit = lines[-1].rsplit(maxsplit=2)
        assert (label, unit) == ("peak rss", "MiB")
        assert before - 0.05 <= float(mib) <= after + 0.05  # the process's high-water mark

    def test_bench_under_pps_past_the_frame_count(self, tmp_path, capsys):
        # 0.1 s is 7 frames: the hold must make those 7, not factor * 1 frames
        path = tmp_path / "pps.json"
        path.write_text(json.dumps({**config_to_dict(canonical_config()),
                                    "lwr": {"kind": "pps", "factor": 10**9}}))
        assert main(["bench", "--config", str(path), "--seconds", "0.1", "--runs", "1"]) == EXIT_OK
        assert "rtf" in capsys.readouterr().out

    def test_bench_peak_without_resource(self, assets, capsys, monkeypatch):
        monkeypatch.setitem(sys.modules, "resource", None)  # the import then fails, as on Windows
        assert main(["bench", "--config", str(assets["config"]),
                     "--weights", str(assets["weights"]),
                     "--seconds", "0.05", "--runs", "1"]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-1] == "peak rss   n/a"

    def test_calibrate_recovers_canonical_dims(self, capsys):
        assert main(["calibrate", "--dim-min", "64", "--dim-max", "132",
                     "--step", "2", "--top", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip().splitlines()[-1] == "best: feature_dim=126 hidden_dim=72"
