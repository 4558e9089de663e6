"""The benchmark's four workloads: seeded inputs, one operation, its checks.

Each workload is a closed loop driven by ``run.py``: one caller issues the
next operation only after the previous one returned. ``execute`` is the
timed part and touches only the program; ``check`` runs afterwards,
untimed and untraced, and decides whether every output is correct.

Inputs depend only on the seed. Lengths come from a fixed grid with a
small seeded jitter and a seeded order, so every seed carries about the
same amount of work and run-to-run figures stay comparable.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from bsrnnlite import cli, configio, macs, model as model_mod, wavio, weights_io

import fingerprints

SAMPLE_RATE = 16000
WEIGHTS_SEED = 0
OA_OMEGA = 0.25

#: long utterances: seconds per utterance before jitter
LONG_GRID_S = (3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0)
LONG_JITTER_S = 0.25
#: short files for directory mode, sub-second to ~3 s
SHORT_GRID_S = (0.3, 0.5, 0.8, 1.1, 1.5, 1.9, 2.4, 3.0)
SHORT_JITTER_S = 0.1
#: cost audit waveforms: base length plus up to AUDIT_JITTER_HOPS frames
AUDIT_BASE_S = 0.25
AUDIT_JITTER_HOPS = 8

TINY_LONG_S = (0.6, 0.9)
TINY_SHORT_S = (0.3, 0.6)
#: configs the tiny cost audit prices (the first rows: canonical-v1 first)
TINY_AUDIT_ROWS = 3

#: the README's cost table, as printed (G/s to 2 places, reduction to 1)
README_TABLE = {
    "BSRNN": ("1.84", "0.0"),
    "+GR": ("1.09", "40.5"),
    "+LWR-PPS(4)": ("0.55", "70.0"),
    "+LWR-ALL(4)": ("0.55", "70.0"),
    "+LWR-SYNC(4)": ("1.19", "35.0"),
    "+LWR-ASYNC(4)": ("1.19", "35.0"),
    "+LWR-ASYNC(16)": ("1.03", "44.0"),
    "++SBP-A": ("0.95", "48.3"),
    "++SBP-P": ("0.98", "46.8"),
    "+++GR": ("0.60", "67.1"),
}
CALIBRATED_DIMS = (126, 72)


def noise_like(rng: np.random.Generator, n: int) -> np.ndarray:
    """Pink-ish noise under a slow random envelope, float32, RMS 0.05-0.2."""
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.arange(spec.size, dtype=np.float64)
    spec /= np.sqrt(np.maximum(freqs, 1.0))
    x = np.fft.irfft(spec, n)
    t = np.arange(n) / SAMPLE_RATE
    rate = rng.uniform(0.5, 3.0)
    envelope = 0.3 + 0.7 * np.abs(np.sin(2 * np.pi * rate * t + rng.uniform(0, np.pi)))
    x *= envelope
    x *= rng.uniform(0.05, 0.2) / np.sqrt(np.mean(x * x))
    return x.astype(np.float32)


def jittered_lengths(rng, grid, jitter_s, floor_s=0.25) -> list:
    """One length per grid point, jittered, in a seeded order (samples)."""
    secs = [max(floor_s, g + rng.uniform(-jitter_s, jitter_s)) for g in grid]
    return [int(round(secs[i] * SAMPLE_RATE)) for i in rng.permutation(len(secs))]


def write_weights(config, path: Path) -> None:
    arrays = weights_io.gen_weights(config, WEIGHTS_SEED)
    weights_io.save_weights(path, arrays, {"config_name": config.name, "seed": WEIGHTS_SEED})


@dataclass
class Outcome:
    """What one operation did, as judged by its check."""

    attempted: int
    failed: int
    audio_s: float
    #: per-operation (audio seconds, wall seconds) samples for RTF
    rtf_samples: list
    #: (config, num_samples) run through the model, for analyzed MACs
    mac_work: list
    notes: list = field(default_factory=list)
    route_mismatches: int = 0
    #: timed seconds of the operation
    wall: float = 0.0


class _Failures:
    """Turns an exception from one operation into a failed Outcome."""

    def failure(self, exc) -> Outcome:
        n = self.ops_per_execute()
        return Outcome(n, n, 0.0, [], [], [f"{type(exc).__name__}: {exc}"])


def _check_wave(out, expected_len: int, ref) -> str | None:
    """None when ``out`` passes, else the reason it fails."""
    out = np.asarray(out)
    if out.ndim != 1 or out.size != expected_len:
        return f"length {out.shape} != {expected_len}"
    if not np.all(np.isfinite(out)):
        return "non-finite samples"
    if ref is not None:
        return fingerprints.compare(fingerprints.fingerprint(out), ref)
    return None


class _Enhancement(_Failures):
    """Shared set-up of the enhancement workloads: one preset, one weights file."""

    preset = ""

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.config = configio.load_config(self.preset)
        self.weights_path = workdir / "weights.bsrw"
        write_weights(self.config, self.weights_path)
        self.references = None if tiny else fingerprints.load(self.name, seed)

    def load_model(self):
        """Load and build the way a user does: config, weights file, build."""
        config = configio.load_config(self.preset)
        arrays, _meta = weights_io.load_weights(self.weights_path)
        self.model = model_mod.build(config, arrays)

    def reference(self, index):
        return None if self.references is None else self.references[index]

    def check_mode(self) -> str:
        if self.tiny:
            return "tiny size: no stored fingerprints; checking length and finiteness only"
        if self.references is None:
            return (f"no stored fingerprints for seed {self.seed}; "
                    "checking length and finiteness only")
        return (f"comparing each output to its stored fingerprint for seed {self.seed} "
                f"({fingerprints.describe_tolerance()})")


class LongUtterances(_Enhancement):
    """Mixed-length long utterances through ``enhance``, one at a time."""

    def __init__(self, seed, tiny, workdir) -> None:
        super().__init__(seed, tiny, workdir)
        rng = np.random.default_rng([seed, 1])
        grid = TINY_LONG_S if tiny else LONG_GRID_S
        self.inputs = [noise_like(rng, n) for n in jittered_lengths(rng, grid, LONG_JITTER_S)]

    def ops_per_execute(self) -> int:
        return 1

    def input_summary(self) -> dict:
        lens = [x.size / SAMPLE_RATE for x in self.inputs]
        return {"utterances": len(lens), "audio_s": round(sum(lens), 4),
                "min_s": round(min(lens), 4), "max_s": round(max(lens), 4)}

    def warmup(self) -> None:
        # at least as long as any input, so the working set and peak memory
        # are set here and do not depend on the seed
        grid = TINY_LONG_S if self.tiny else LONG_GRID_S
        n = int(round((max(grid) + LONG_JITTER_S) * SAMPLE_RATE))
        model_mod.enhance(self.model, noise_like(np.random.default_rng(0), n))

    def execute(self, i):
        x = self.inputs[i % len(self.inputs)]
        t0 = time.perf_counter()
        y = model_mod.enhance(self.model, x)
        return time.perf_counter() - t0, y

    def check(self, i, wall, y) -> Outcome:
        k = i % len(self.inputs)
        x = self.inputs[k]
        why = _check_wave(y, x.size, self.reference(k))
        audio = x.size / SAMPLE_RATE
        return Outcome(1, int(why is not None), audio, [(audio, wall)],
                       [(self.model.config, x.size)], [] if why is None else [f"utterance {k}: {why}"])

    def reference_outputs(self) -> list:
        return [self.execute(k)[1] for k in range(len(self.inputs))]


class LongDense(LongUtterances):
    name = "long_dense"
    preset = "canonical-v1"


class LongLite(LongUtterances):
    name = "long_lite"
    preset = "canonical-v1-full"


class DirShort(_Enhancement):
    """Directory-mode CLI over many short pcm16/float32 files, with --oa."""

    name = "dir_short"
    preset = "canonical-v1-gr"

    def __init__(self, seed, tiny, workdir) -> None:
        super().__init__(seed, tiny, workdir)
        rng = np.random.default_rng([seed, 2])
        grid = TINY_SHORT_S if tiny else SHORT_GRID_S
        lengths = jittered_lengths(rng, grid, SHORT_JITTER_S)
        formats = [wavio.PCM16, wavio.FLOAT32] * (len(lengths) // 2 + 1)
        formats = [formats[j] for j in rng.permutation(len(lengths))]
        self.in_dir = workdir / "in"
        self.out_dir = workdir / "out"
        self.in_dir.mkdir()
        self.files = []  # (name, num_samples, format)
        for k, (n, fmt) in enumerate(zip(lengths, formats)):
            name = f"clip{k:02d}.wav"
            wavio.write_wav(self.in_dir / name, noise_like(rng, n), SAMPLE_RATE, fmt)
            self.files.append((name, n, fmt))
        self.argv = ["enhance", "--config", self.preset, "--weights", str(self.weights_path),
                     "--input", str(self.in_dir), "--output", str(self.out_dir),
                     "--oa", str(OA_OMEGA)]

    def load_model(self):
        self.model = None  # the CLI loads its own model on every call

    def ops_per_execute(self) -> int:
        return len(self.files)

    def input_summary(self) -> dict:
        lens = [n / SAMPLE_RATE for _, n, _ in self.files]
        return {"files": len(lens), "audio_s": round(sum(lens), 4),
                "min_s": round(min(lens), 4), "max_s": round(max(lens), 4),
                "pcm16": sum(f == wavio.PCM16 for _, _, f in self.files),
                "float32": sum(f == wavio.FLOAT32 for _, _, f in self.files),
                "oa": OA_OMEGA}

    def warmup(self) -> None:
        self.execute(0)

    def execute(self, i):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        sink_out, sink_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            t0 = time.perf_counter()
            code = cli.main(list(self.argv))
            wall = time.perf_counter() - t0
        return wall, (code, sink_err.getvalue().strip())

    def _read_outputs(self) -> list:
        outs = []
        for name, _n, fmt in self.files:
            path = self.out_dir / name
            if not path.exists():
                outs.append((None, f"{name}: missing"))
                continue
            samples, rate, got_fmt = wavio.read_wav(path)
            if rate != SAMPLE_RATE or got_fmt != fmt:
                outs.append((None, f"{name}: rate {rate} format {got_fmt}, want {fmt}"))
            else:
                outs.append((samples, None))
        return outs

    def check(self, i, wall, payload) -> Outcome:
        code, err = payload
        audio = sum(n for _, n, _ in self.files) / SAMPLE_RATE
        work = [(self.config, n) for _, n, _ in self.files]
        if code != 0:
            return Outcome(len(self.files), len(self.files), audio, [(audio, wall)], work,
                           [f"cli exit {code}: {err}"])
        notes = []
        for k, ((samples, why), (name, n, _fmt)) in enumerate(zip(self._read_outputs(), self.files)):
            if why is None:
                why = _check_wave(samples, n, self.reference(k))
            if why is not None:
                notes.append(f"{name}: {why}")
        return Outcome(len(self.files), len(notes), audio, [(audio, wall)], work, notes)

    def reference_outputs(self) -> list:
        code, err = self.execute(0)[1]
        if code != 0:
            raise RuntimeError(f"cli exit {code}: {err}")
        return [samples for samples, _ in self._read_outputs()]


class CostAudit(_Failures):
    """Both MAC routes on every preset and chain row, the table, the calibration."""

    name = "cost_audit"
    preset = "canonical-v1"

    def __init__(self, seed, tiny, workdir) -> None:
        self.seed = seed
        self.weights_path = workdir / "weights.bsrw"
        write_weights(configio.load_config(self.preset), self.weights_path)
        base, variants = macs.canonical_chain(extended=True)
        self.chain = (base, variants)
        rows = [(name, model_mod.preset_config(name)) for name in model_mod.preset_names()]
        rows += [(base.name, base)] + list(variants)
        if tiny:
            rows = rows[:TINY_AUDIT_ROWS]
        rng = np.random.default_rng([seed, 3])
        hop = base.stft.hop_size
        self.items = []  # (label, config, waveform)
        for label, cfg in rows:
            n = int(round(AUDIT_BASE_S * SAMPLE_RATE)) + int(rng.integers(0, AUDIT_JITTER_HOPS * hop))
            self.items.append((label, cfg, noise_like(rng, n)))

    def load_model(self):
        """Models are built here, outside the timed region.

        The first item is the workload's preset, loaded from its weights
        file the way a user does; the rest are built from generated arrays.
        """
        label, _cfg, _wave = self.items[0]
        if label != self.preset:
            raise RuntimeError(f"first audit item is {label}, expected {self.preset}")
        arrays, _meta = weights_io.load_weights(self.weights_path)
        first = model_mod.build(configio.load_config(self.preset), arrays)
        self.models = [first] + [model_mod.build(cfg, weights_io.gen_weights(cfg, WEIGHTS_SEED))
                                 for _, cfg, _ in self.items[1:]]

    def ops_per_execute(self) -> int:
        return len(self.items) + 2  # every priced config, the table, the calibration

    def input_summary(self) -> dict:
        lens = [w.size / SAMPLE_RATE for _, _, w in self.items]
        return {"priced_configs": len(self.items), "audio_s": round(sum(lens), 4),
                "min_s": round(min(lens), 4), "max_s": round(max(lens), 4),
                "calibration_grid": "8..240 step 2"}

    def check_mode(self) -> str:
        return ("analyze vs count_forward per-component integer equality; "
                "reduction table vs the README figures; calibration best (126, 72)")

    def warmup(self) -> None:
        label, cfg, wave = self.items[0]
        macs.count_forward(self.models[0], wave)

    def execute(self, i):
        walls = []
        priced = []
        for (label, cfg, wave), model in zip(self.items, self.models):
            duration = wave.size / SAMPLE_RATE
            t0 = time.perf_counter()
            analyzed = macs.analyze(cfg, duration)
            t1 = time.perf_counter()
            counted = macs.count_forward(model, wave)
            t2 = time.perf_counter()
            walls += [t1 - t0, t2 - t1]
            priced.append((analyzed, counted, t2 - t1))
        base, variants = self.chain
        t0 = time.perf_counter()
        table = macs.reduction_table(base, variants)
        t1 = time.perf_counter()
        best = macs.calibrate_feature_dims()[0]
        t2 = time.perf_counter()
        walls += [t1 - t0, t2 - t1]
        return sum(walls), (priced, table, best)

    def check(self, i, wall, payload) -> Outcome:
        priced, table, best = payload
        notes, rtf, work, audio = [], [], [], 0.0
        mismatches = 0
        for (label, cfg, wave), (analyzed, counted, cf_wall) in zip(self.items, priced):
            seconds = wave.size / SAMPLE_RATE
            audio += seconds
            rtf.append((seconds, cf_wall))
            work.append((cfg, wave.size))
            a = {k: int(v) for k, v in analyzed.components.items()}
            c = {k: int(v) for k, v in counted.components.items()}
            if a != c:
                mismatches += 1
                diff = sorted(k for k in set(a) | set(c) if a.get(k) != c.get(k))
                notes.append(f"{label}: MAC routes disagree on {diff}")
        got = {r.name: (f"{r.gps:.2f}", f"{r.reduction_pct:.1f}") for r in table.rows}
        table_ok = got == README_TABLE
        if not table_ok:
            notes.append(f"reduction table {got} != README {README_TABLE}")
        calib_ok = (best.feature_dim, best.hidden_dim) == CALIBRATED_DIMS
        if not calib_ok:
            notes.append(f"calibration best ({best.feature_dim}, {best.hidden_dim}) != {CALIBRATED_DIMS}")
        failed = mismatches + (not table_ok) + (not calib_ok)
        return Outcome(self.ops_per_execute(), failed, audio, rtf, work, notes, mismatches)


WORKLOADS = {w.name: w for w in (LongDense, LongLite, DirShort, CostAudit)}
