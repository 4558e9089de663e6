"""Closed-form analyzer, the instrumented counter, and the variant table."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from bsrnnlite import (
    AudioFormatError,
    ConfigError,
    LwrStrategy,
    SbpStrategy,
    analyze,
    build,
    calibrate_feature_dims,
    canonical_chain,
    canonical_config,
    count_forward,
    gen_weights,
    preset_config,
    preset_names,
    reduction_table,
)
from bsrnnlite import model as model_mod
from bsrnnlite.macs import REFERENCE_GPS, analyze_frames, component_order

from util import build_tiny, calibrate_by_analyze, tiny_config

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _wave(cfg, frames, seed):
    """A waveform of exactly ``frames`` STFT frames of ``cfg`` (tiny: at least 5)."""
    wave = np.random.default_rng(seed).standard_normal((frames - 1) * cfg.stft.hop_size) * 0.1
    assert cfg.stft.num_frames(wave.size) == frames
    return wave


class TestClosedForm:
    def test_hand_counted_tiny_config(self):
        # K=2 (widths 2 and 3), N=4, H=2, one layer, g=1, T=5, ratio 4.
        # Every line below recomputes the convention from scratch.
        from bsrnnlite import BandConfig, StftConfig
        cfg = tiny_config(
            stft=StftConfig(sample_rate=8000, fft_size=8, hop_size=4),
            bands=BandConfig(((0, 2), (2, 5))),
            feature_dim=4, hidden_dim=2, num_layers=1,
        )
        comps = analyze_frames(cfg, 5)
        assert comps["band_split"] == 5 * 4 * (2 * 2) + 5 * 4 * (2 * 3)
        cell = 4 * (4 * 2 + 2 * 2)                      # 4(IH + H^2)
        assert comps["band_rnn[1]"] == 2 * (5 * 2) * cell + (5 * 2) * 4 * (2 * 2)
        assert comps["time_rnn[1]"] == (2 * 5) * cell + (2 * 5) * 4 * 2
        hidden = 16
        fc1 = 5 * hidden * 4
        fc2 = 5 * (2 * 2) * hidden + 5 * (2 * 3) * hidden
        assert comps["mask_head"] == 2 * fc1 + fc2

    def test_component_order_covers_report(self):
        cfg = tiny_config()
        comps = analyze_frames(cfg, 7)
        assert tuple(comps) == component_order(cfg)

    def test_pruning_removes_band_rows_from_time_rnn(self):
        base = analyze_frames(tiny_config(), 8)
        pruned = analyze_frames(tiny_config(prune=SbpStrategy.aggressive(2)), 8)
        assert pruned["band_rnn[1]"] == base["band_rnn[1]"]
        assert pruned["time_rnn[1]"] == base["time_rnn[1]"] // 3  # 1 of 3 bands left
        assert pruned["band_split"] == base["band_split"]

    def test_resampling_scales_whole_sublayer_core(self):
        base = analyze_frames(tiny_config(), 8)
        res = analyze_frames(tiny_config(resample=LwrStrategy.all_layers(2)), 8)
        # 8 frames -> 4: both RNN components exactly halve, ends untouched
        for layer in (1, 2):
            assert res[f"band_rnn[{layer}]"] * 2 == base[f"band_rnn[{layer}]"]
            assert res[f"time_rnn[{layer}]"] * 2 == base[f"time_rnn[{layer}]"]
        assert res["mask_head"] == base["mask_head"]

    def test_grouping_divides_gate_cost_only(self):
        t = 6
        lone = analyze_frames(tiny_config(feature_dim=8, hidden_dim=4), t)
        duo = analyze_frames(tiny_config(feature_dim=8, hidden_dim=4, group_size=2), t)
        k = 3
        glue_band = (t * k) * 8 * (2 * 4)
        glue_time = (k * t) * 8 * 4
        for layer in (1, 2):
            gates_lone = lone[f"band_rnn[{layer}]"] - glue_band
            gates_duo = duo[f"band_rnn[{layer}]"] - glue_band
            assert gates_lone == 2 * gates_duo
            assert lone[f"time_rnn[{layer}]"] - glue_time == 2 * (duo[f"time_rnn[{layer}]"] - glue_time)

    def test_duration_normalization(self):
        cfg = canonical_config()
        one = analyze(cfg, 1.0)
        two = analyze(cfg, 2.0)
        assert two.total == 2 * one.total      # 126 frames vs 63
        assert two.gps == one.gps

    def test_duration_validation(self):
        with pytest.raises(ConfigError):
            analyze(canonical_config(), 0.0)
        with pytest.raises(ConfigError):
            analyze_frames(canonical_config(), 0)


class TestCounterAgreement:
    def test_feature_mode_exact(self):
        cfg, model = build_tiny(group_size=2, feature_dim=6, hidden_dim=4,
                                resample=LwrStrategy.alternating(3),
                                prune=SbpStrategy.aggressive(1))
        assert count_forward(model, _wave(cfg, 13, 0)).components == analyze_frames(cfg, 13)

    def test_waveform_mode_exact(self):
        cfg, model = build_tiny()
        wave = np.random.default_rng(1).standard_normal(1777).astype(np.float32) * 0.1
        report = count_forward(model, wave)
        assert report.components == analyze(cfg, 1777 / 8000).components
        assert report.duration == 1777 / 8000

    def test_pps_mode_exact(self):
        cfg, model = build_tiny(resample=LwrStrategy.pps(4))
        assert count_forward(model, _wave(cfg, 11, 2)).components == analyze_frames(cfg, 11)

    def test_zero_layers(self):
        cfg, model = build_tiny(num_layers=0)
        # 5 frames: the fewest the tiny STFT makes (a 32-sample window, hop 8)
        assert count_forward(model, _wave(cfg, 5, 3)).components == analyze_frames(cfg, 5)

    def test_zero_frames_rejected(self):
        # a waveform only, as enhance takes: no empty one, no [K x T x N] features
        _, model = build_tiny()
        for x in (np.zeros(0), np.zeros((3, 5, 6))):
            with pytest.raises(AudioFormatError):
                count_forward(model, x)

    def test_hand_priced_components(self):
        # tiny: K=3 bands of widths 6, 6, 5 (2w = 12, 12, 10), N=6, H=4,
        # mask hidden 24, two layers, T=7 frames. A row costs each
        # weight matrix it passes through once.
        split = 7 * 6 * (12 + 12 + 10)                     # T x sum(N x 2w)
        head = 7 * (3 * 24 * 6 + 24 * (12 + 12 + 10))      # T x sum(24 x N + 2w x 24)
        # per row: w_input + w_hidden + proj_weight sizes
        band_g1 = 2 * 16 * 6 + 2 * 16 * 4 + 6 * 8           # 2 cells, I=6, h=4
        time_g1 = 16 * 6 + 16 * 4 + 6 * 4                   # 1 cell
        band_g2 = 4 * 8 * 3 + 4 * 8 * 2 + 6 * 8             # 4 cells, I=3, h=2
        time_g2 = 2 * 8 * 3 + 2 * 8 * 2 + 6 * 4             # 2 cells
        full, half = 3 * 7, 3 * 4                           # rows: K x T, K x ceil(T/2)
        cases = [
            ({}, [band_g1 * full, time_g1 * full] * 2),
            ({"group_size": 2}, [band_g2 * full, time_g2 * full] * 2),
            # async: layer 1 resamples the time RNN, layer 2 the band RNN
            ({"resample": LwrStrategy.alternating(2)},
             [band_g1 * full, time_g1 * half, band_g1 * half, time_g1 * full]),
            # progressive: layer l skips l of the 3 bands in the time RNN
            ({"prune": SbpStrategy.progressive()},
             [band_g1 * full, time_g1 * 2 * 7, band_g1 * full, time_g1 * 1 * 7]),
        ]
        for overrides, stack in cases:
            cfg, model = build_tiny(**overrides)
            got = count_forward(model, _wave(cfg, 7, 4)).components
            assert list(got) == list(component_order(cfg))
            assert list(got.values()) == [split, *stack, head], overrides
            assert got == analyze_frames(cfg, 7)

    def test_waveform_mode_runs_no_mask_head_or_inverse(self, monkeypatch):
        # the mask head's price follows from T alone, so its output is never needed
        def refuse(*args, **kwargs):
            raise AssertionError("count_forward ran a stage whose result it discards")

        for name in ("estimate_mask", "apply_mask", "istft"):
            monkeypatch.setattr(model_mod, name, refuse)
        cfg, model = build_tiny()
        report = count_forward(model, np.random.default_rng(5).standard_normal(400) * 0.1)
        assert report.components == analyze_frames(cfg, cfg.stft.num_frames(400))


#: the five presets and four more plans: PPS, SYNC, ALL and LWR-ASYNC(16) + SBP-A
_SPAN_PLANS = {
    **{name: preset_config(name) for name in preset_names()},
    "pps4": canonical_config().with_resample(LwrStrategy.pps(4)),
    "sync4": canonical_config().with_resample(LwrStrategy.sync(4)),
    "all4": canonical_config().with_resample(LwrStrategy.all_layers(4)),
    "sbp-a": (canonical_config().with_resample(LwrStrategy.alternating(16))
              .with_prune(SbpStrategy.aggressive())),
}


class TestCountInSpans:
    """A waveform is counted in ``enhance``'s frame spans, at the one-pass price."""

    @pytest.mark.parametrize("plan", _SPAN_PLANS)
    def test_spans_price_as_one_pass(self, plan, monkeypatch):
        # the real bands, STFT and plans at narrow widths, so that 513 frames stay cheap
        cfg = dataclasses.replace(_SPAN_PLANS[plan], feature_dim=8, hidden_dim=8)
        model = build(cfg, gen_weights(cfg, seed=0))
        passes = []
        real = model_mod.forward_features

        def record(net, feats, **kw):
            out = real(net, feats, **kw)
            passes.append((feats.shape[1], hashlib.sha256(out.tobytes()).hexdigest()))
            return out

        monkeypatch.setattr(model_mod, "forward_features", record)
        rng = np.random.default_rng(21)
        for frames in (255, 256, 257, 513):
            wave = rng.standard_normal((frames - 1) * cfg.stft.hop_size).astype(np.float32) * 0.1
            assert cfg.stft.num_frames(wave.size) == frames
            passes.clear()
            model_mod.enhance(model, wave)
            enhanced = passes[:]
            passes.clear()
            got = count_forward(model, wave)
            # the same spans, each stack output bitwise that of enhance's pass
            assert passes == enhanced
            assert [t for t, _ in passes] == [hi - lo for lo, hi in model_mod._chunks(cfg, frames)]
            assert len(passes) == 1 + (frames > 256) + (frames > 512)
            assert got.components == analyze_frames(cfg, frames)
            assert got.duration == wave.size / cfg.stft.sample_rate

    def test_non_causal_refuses_past_the_whole_file_limit(self, monkeypatch):
        monkeypatch.setattr(model_mod, "WHOLE_FILE_FRAMES", 300)
        cfg, model = build_tiny(time_rnn_causal=False)
        wave = np.random.default_rng(22).standard_normal(299 * cfg.stft.hop_size) * 0.1
        assert count_forward(model, wave).components == analyze_frames(cfg, 300)  # one pass
        monkeypatch.setattr(model_mod, "stft", lambda *args, **kwargs: pytest.fail("stft ran"))
        with pytest.raises(ConfigError, match="^a non-causal time RNN"):
            count_forward(model, np.zeros(300 * cfg.stft.hop_size))

    def test_peak_memory_follows_the_span(self):
        # peak RSS after a 4 s and then a 40 s count (1 and 10 spans): the whole-file
        # count grew with the file, to 488 MiB after 60 s of canonical-v1
        pytest.importorskip("resource")
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from bsrnnlite import build, count_forward, gen_weights, preset_config
            cfg = preset_config("canonical-v1-full")
            net = build(cfg, gen_weights(cfg, 0))
            rng = np.random.default_rng(0)
            peaks = []
            for seconds in (4, 40):
                count_forward(net, (rng.standard_normal(seconds * 16000) * 0.1).astype(np.float32))
                peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            print(*peaks)
        """)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        short, long = map(int, done.stdout.split())
        scale = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss: bytes there, KiB here
        assert (long - short) / scale < 30


class TestCanonicalNumbers:
    def test_baseline_and_grouped_anchors(self):
        cfg = canonical_config()
        assert abs(analyze(cfg).gps - REFERENCE_GPS["BSRNN"]) <= 0.02
        assert abs(analyze(cfg.with_groups(2)).gps - REFERENCE_GPS["+GR"]) <= 0.02

    def test_pps_equals_all_at_canonical_frames(self):
        # ceil(63/4) applied once to the stack vs per sublayer: same totals
        base = canonical_config()
        pps = analyze(base.with_resample(LwrStrategy.pps(4))).total
        all4 = analyze(base.with_resample(LwrStrategy.all_layers(4))).total
        assert pps == all4

    def test_sync_equals_async_for_even_layer_count(self):
        base = canonical_config()
        sync = analyze(base.with_resample(LwrStrategy.sync(4))).total
        alt = analyze(base.with_resample(LwrStrategy.alternating(4))).total
        assert sync == alt

    def test_default_calibration_recovers_canonical_dims(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid must not be priced through analyze")

        monkeypatch.setattr("bsrnnlite.macs.analyze", refuse)
        best = calibrate_feature_dims()[0]
        assert (best.feature_dim, best.hidden_dim) == (126, 72)


class TestCalibration:
    # (target_base, target_grouped, group, dim_min, dim_max, step, duration, top)
    GRIDS = [
        (1.84, 1.09, 2, 64, 132, 2, 1.0, 20),     # around the canonical dims
        (0.9, 0.9, 1, 8, 60, 2, 2.5, 10),         # one group: both prices equal
        (1.2, 0.5, 3, 9, 90, 3, 0.37, 10**4),     # top above the 784 candidates
        (2.0, 0.7, 4, 8, 120, 4, 1.0, 7),
    ]

    @pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"group{g[2]}-{g[6]}s")
    def test_equals_per_candidate_analyze(self, grid):
        results = calibrate_feature_dims(*grid)
        assert results == calibrate_by_analyze(*grid)
        assert len(results) == min(grid[-1], len(range(grid[3], grid[4] + 1, grid[5])) ** 2)

    def test_totals_beyond_int64_rejected_not_wrapped(self):
        near = (1.84, 1.09, 2, 5999996, 6000000, 2, 1.0, 10)
        assert calibrate_feature_dims(*near) == calibrate_by_analyze(*near)
        with pytest.raises(ConfigError, match="int64"):
            calibrate_feature_dims(dim_min=6399996, dim_max=6400000)

    @pytest.mark.parametrize("kwargs", [
        dict(dim_min=3, dim_max=3, group=2),
        dict(dim_min=8, step=3, group=3),
        dict(target_base=math.nan),
        dict(target_grouped=math.inf),
        dict(duration=0.0),
        dict(duration=-1.0),
        dict(duration=math.nan),
        dict(duration=math.inf),
    ], ids=repr)
    def test_empty_grid_and_bad_numbers_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            calibrate_feature_dims(**kwargs)

    def test_count_forward_is_not_the_closed_form(self, monkeypatch):
        cfg, model = build_tiny(group_size=2, resample=LwrStrategy.alternating(2))
        wave = _wave(cfg, 9, 4)
        expected = analyze_frames(cfg, 9)

        def refuse(*args, **kwargs):
            raise AssertionError("count_forward must not call the closed form")

        monkeypatch.setattr("bsrnnlite.macs._closed_form", refuse)
        assert count_forward(model, wave).components == expected


class TestTable:
    def test_rows_and_reductions(self):
        base, variants = canonical_chain()
        table = reduction_table(base, variants)
        assert [r.name for r in table.rows] == ["BSRNN", "+GR", "+LWR-ASYNC(16)", "++SBP-P", "+++GR"]
        assert table.rows[0].reduction_pct == 0.0
        assert all(r.reduction_pct > 0 for r in table.rows[1:])
        assert table.rows[-1].reduction_pct > 60.0

    def test_extended_has_every_strategy_row(self):
        base, variants = canonical_chain(extended=True)
        assert len(variants) == 9
        assert {name for name, _ in variants} == set(REFERENCE_GPS) - {"BSRNN"}

    def test_formats(self):
        base, variants = canonical_chain()
        table = reduction_table(base, variants)
        text = table.to_text()
        assert "BSRNN" in text and "G/s" in text
        csv = table.to_csv().splitlines()
        assert csv[0] == "variant,total_macs,gmacs_per_second,reduction_pct"
        assert len(csv) == 6
        doc = json.loads(table.to_json())
        assert doc["rows"][0]["name"] == "BSRNN"

    def test_mixed_stft_rejected(self):
        from bsrnnlite import StftConfig
        base, _ = canonical_chain()
        other = tiny_config(stft=StftConfig(sample_rate=8000, fft_size=32, hop_size=8))
        with pytest.raises(ConfigError, match="STFT"):
            reduction_table(base, [("odd", other)])
