"""Config validation, weight assembly, the layer stack, and enhancement."""

import os
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from bsrnnlite import (
    BandConfig,
    ConfigError,
    LwrStrategy,
    OaConfig,
    SbpStrategy,
    StftConfig,
    WeightsFormatError,
    analyze,
    build,
    count_forward,
    enhance,
    expected_tensors,
    forward_features,
    gen_weights,
    preset_config,
    preset_names,
)
from bsrnnlite import model as model_mod
from bsrnnlite import rnn
from bsrnnlite.model import CANONICAL_FEATURE_DIM, CANONICAL_HIDDEN_DIM, canonical_config
from bsrnnlite.model import weight_arrays
from bsrnnlite.rnn import LstmWeights, dense, layer_norm, lstm_forward_batch
from bsrnnlite.weights_io import load_weights, save_weights

from reference import straight_line_layer
from util import build_tiny, tiny_config, with_fields

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _pinned_env():
    """This environment with the BLAS pinned to one thread and ``src`` importable."""
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


class TestConfigValidation:
    def test_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            tiny_config(feature_dim=7, group_size=2)
        with pytest.raises(ConfigError, match="divisible"):
            tiny_config(hidden_dim=5, group_size=2)

    def test_positive_dims(self):
        with pytest.raises(ConfigError):
            tiny_config(feature_dim=0)
        with pytest.raises(ConfigError):
            tiny_config(num_layers=-1)
        with pytest.raises(ConfigError):
            tiny_config(mask_hidden_ratio=0)
        with pytest.raises(ConfigError, match="group_size must be >= 1"):
            tiny_config(group_size=0)

    def test_band_coverage_checked_against_stft(self):
        with pytest.raises(ConfigError, match="covers"):
            tiny_config(bands=BandConfig(((0, 10),)))

    def test_progressive_pruning_needs_enough_bands(self):
        # 3 bands cannot feed a 3-layer progressive schedule
        with pytest.raises(ConfigError):
            tiny_config(num_layers=3, prune=SbpStrategy.progressive())

    def test_sync_targets_checked_at_config_time(self):
        with pytest.raises(ConfigError):
            tiny_config(resample=LwrStrategy.sync(2, target_layers=(5,)))

    def test_canonical_dims(self):
        cfg = canonical_config()
        assert (cfg.feature_dim, cfg.hidden_dim) == (CANONICAL_FEATURE_DIM, CANONICAL_HIDDEN_DIM)
        assert cfg.num_bands == 23
        assert cfg.stft.num_frames(16000) == 63

    def test_plan_resolved_from_strategies(self):
        cfg = tiny_config(resample=LwrStrategy.alternating(2), prune=SbpStrategy.progressive())
        assert cfg.plan == (1, ((1, 2, 1), (2, 1, 2)))
        assert with_fields(cfg, resample=LwrStrategy.pps(3)).plan == (3, ((1, 1, 1), (1, 1, 2)))
        twin = tiny_config(resample=LwrStrategy.alternating(2), prune=SbpStrategy.progressive())
        assert twin == cfg and hash(twin) == hash(cfg) and "plan" not in repr(cfg)

    def test_presets_resolve(self):
        for name in preset_names():
            assert preset_config(name).name == name
        with pytest.raises(ConfigError):
            preset_config("canonical-v0")


class TestWeightsAssembly:
    def test_expected_tensor_census(self):
        # K=2 bands, 1 layer, g=1: 4 per split band, 10 band-RNN (bidir),
        # 7 time-RNN (causal), 6 per mask band
        cfg = tiny_config(bands=BandConfig(((0, 9), (9, 17))), num_layers=1)
        tensors = expected_tensors(cfg)
        assert len(tensors) == 2 * 4 + 10 + 7 + 2 * 6
        assert tensors["band_split.band00.proj.weight"] == (6, 18)
        assert tensors["layer1.band.group0.fwd.w_input"] == (16, 6)
        assert tensors["layer1.band.proj.weight"] == (6, 8)   # bidirectional: 2H in
        assert tensors["layer1.time.proj.weight"] == (6, 4)   # causal: H in
        assert "layer1.time.group0.bwd.w_input" not in tensors
        assert tensors["mask_head.band01.fc2.weight"] == (16, 24)

    def test_grouping_changes_cell_shapes_only(self):
        lone = expected_tensors(tiny_config())
        duo = expected_tensors(tiny_config(feature_dim=6, hidden_dim=4, group_size=2))
        assert duo["layer1.band.group1.fwd.w_input"] == (8, 3)
        assert duo["layer1.band.proj.weight"] == lone["layer1.band.proj.weight"]

    def test_missing_tensor_named(self):
        cfg = tiny_config()
        arrays = gen_weights(cfg)
        del arrays["layer2.time.proj.bias"]
        with pytest.raises(WeightsFormatError, match="layer2.time.proj.bias"):
            build(cfg, arrays)

    def test_wrong_shape_named(self):
        cfg = tiny_config()
        arrays = gen_weights(cfg)
        arrays["layer1.band.norm.gamma"] = np.zeros(7, dtype=np.float32)
        with pytest.raises(WeightsFormatError, match="layer1.band.norm.gamma"):
            build(cfg, arrays)

    def test_non_finite_value_named(self):
        cfg = tiny_config()
        arrays = gen_weights(cfg)
        arrays["layer2.band.proj.bias"][3] = np.inf
        with pytest.raises(WeightsFormatError, match="layer2.band.proj.bias .*non-finite"):
            build(cfg, arrays)

    def test_unexpected_tensor_rejected(self):
        cfg = tiny_config()
        arrays = gen_weights(cfg)
        arrays["layer9.ghost"] = np.zeros(1, dtype=np.float32)
        with pytest.raises(WeightsFormatError, match="layer9.ghost"):
            build(cfg, arrays)

    def test_build_refuses_structured_weights(self):
        # assembled weights carry no tensor names to check against a config (here the
        # ungrouped ones under a grouped config), so build takes only the flat mapping
        cfg = tiny_config()
        weights = build(cfg, gen_weights(cfg)).weights
        for other in (cfg, cfg.with_groups(2)):
            with pytest.raises(TypeError):
                build(other, weights)

    #: ``tiny_config`` with settings changed: up to "two-bands" each shapes the weights,
    #: the rest are LWR and SBP plans, which do not
    _SETTINGS = {
        "group_size=2": dict(group_size=2),
        "time_rnn_causal=False": dict(time_rnn_causal=False),
        "band_rnn_bidirectional=False": dict(band_rnn_bidirectional=False),
        "mask_hidden_ratio=2": dict(mask_hidden_ratio=2),
        "feature_dim=8": dict(feature_dim=8),
        "hidden_dim=6": dict(hidden_dim=6),
        "num_layers=1": dict(num_layers=1),
        "num_layers=3": dict(num_layers=3),
        "band-widths": dict(bands=BandConfig(((0, 5), (5, 12), (12, 17)))),
        "two-bands": dict(bands=BandConfig(((0, 9), (9, 17)))),
        "pps2": dict(resample=LwrStrategy.pps(2)),
        "all2": dict(resample=LwrStrategy.all_layers(2)),
        "sync2": dict(resample=LwrStrategy.sync(2)),
        "async2": dict(resample=LwrStrategy.alternating(2)),
        "sbp-a1": dict(prune=SbpStrategy.aggressive(1)),
        "sbp-p": dict(prune=SbpStrategy.progressive()),
        "async2+sbp-a": dict(resample=LwrStrategy.alternating(2), prune=SbpStrategy.aggressive()),
    }

    @pytest.mark.parametrize("setting", _SETTINGS)
    def test_build_checks_one_mapping_against_each_config(self, setting):
        # a field that shapes the weights refuses the base mapping, naming a tensor;
        # a plan (LWR, SBP) runs on it and prices in count_forward as analyze does
        base = tiny_config()
        arrays = gen_weights(base, seed=3)
        fields = self._SETTINGS[setting]
        cfg = with_fields(base, **fields)
        if not fields.keys() <= {"resample", "prune"}:
            with pytest.raises(WeightsFormatError, match=r"tensors?\b.* (band_split|layer\d|mask_head)\."):
                build(cfg, arrays)
            return
        wave = np.random.default_rng(4).standard_normal(400) * 0.1  # 0.05 s
        assert count_forward(build(cfg, arrays), wave).components == analyze(cfg, 0.05).components


#: the five presets and three more plans: pps(4), sync(4), GR 2 + async(16) + aggressive SBP
_VARIANTS = [preset_config(name) for name in preset_names()] + [
    canonical_config().with_resample(LwrStrategy.pps(4), "pps4"),
    canonical_config().with_resample(LwrStrategy.sync(4), "sync4"),
    canonical_config().with_groups(2).with_resample(LwrStrategy.alternating(16))
    .with_prune(SbpStrategy.aggressive(), "gr-async16-sbpa"),
]


class TestResidentWeights:
    """Weights stay in their stored dtype; the kernels upcast them exactly at use."""

    @staticmethod
    def _load(cfg, tmp_path):
        path = tmp_path / "w.bsrw"
        save_weights(path, gen_weights(cfg, seed=0))
        return load_weights(path)[0]

    def test_float32_stays_float32_and_float64_stays_float64(self, tmp_path):
        cfg = canonical_config()
        generated = gen_weights(cfg, seed=0)
        for arrays in (generated, self._load(cfg, tmp_path)):
            held = weight_arrays(build(cfg, arrays).weights)
            assert {a.dtype for a in held} == {np.dtype(np.float32)}
        upcast = {name: a.astype(np.float64) for name, a in generated.items()}
        assert {a.dtype for a in weight_arrays(build(cfg, upcast).weights)} == {np.dtype(np.float64)}

    def test_resident_bytes_are_four_per_parameter(self):
        cfg = canonical_config()
        params = sum(int(np.prod(shape)) for shape in expected_tensors(cfg).values())
        held = weight_arrays(build(cfg, gen_weights(cfg, seed=0)).weights)
        assert sum(a.size for a in held) == params == 3005688
        assert sum(a.nbytes for a in held) == 4 * params
        assert round(4 * params / 2**20, 1) == 11.5

    def test_no_array_is_a_view_into_the_loaded_buffer(self, tmp_path):
        cfg = tiny_config()
        loaded = self._load(cfg, tmp_path)
        assert not any(a.flags.owndata for a in loaded.values())  # load_weights hands out views
        for held in weight_arrays(build(cfg, loaded).weights):
            assert held.flags.owndata
            assert not any(np.may_share_memory(held, a) for a in loaded.values())

    @pytest.mark.parametrize("cfg", _VARIANTS, ids=lambda cfg: cfg.name)
    def test_outputs_match_float64_resident_weights_bitwise(self, cfg):
        arrays = gen_weights(cfg, seed=1)
        narrow = build(cfg, arrays)
        wide = build(cfg, {name: a.astype(np.float64) for name, a in arrays.items()})
        rng = np.random.default_rng(2)
        for length in (1600, 12000):  # 0.1 s (7 frames) and 0.75 s (48 frames)
            wave = rng.standard_normal(length).astype(np.float32) * 0.1
            assert enhance(narrow, wave).tobytes() == enhance(wide, wave).tobytes()
            feats = rng.standard_normal((cfg.num_bands, length // 160, cfg.feature_dim))
            assert forward_features(narrow, feats).tobytes() == forward_features(wide, feats).tobytes()


def _stack_peak(name, held):
    """Traced peak of one 256-frame stack pass, in units of the input's bytes."""
    cfg = (canonical_config().with_resample(LwrStrategy.pps(4), name) if name == "pps4"
           else preset_config(name))
    model = build(cfg, gen_weights(cfg, seed=0))
    feats = np.random.default_rng(3).standard_normal((cfg.num_bands, 256, cfg.feature_dim))
    forward_features(model, feats.copy())  # the first pass may start the thread pool
    tracemalloc.start()
    try:
        if held:
            kept = feats.copy()
            forward_features(model, kept)
        else:
            forward_features(model, feats.copy())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / feats.nbytes


class TestForward:
    def test_shape_preserved_under_every_strategy(self):
        rng = np.random.default_rng(0)
        strategies = [
            LwrStrategy.none(), LwrStrategy.pps(3), LwrStrategy.all_layers(2),
            LwrStrategy.sync(4), LwrStrategy.alternating(5),
        ]
        for resample in strategies:
            for prune in (SbpStrategy.none(), SbpStrategy.aggressive(1)):
                _, model = build_tiny(resample=resample, prune=prune)
                x = rng.standard_normal((3, 11, 6))
                y = forward_features(model, x)
                assert y.shape == x.shape
                assert np.isfinite(y).all()

    @pytest.mark.parametrize("plan,state", [
        *(pytest.param(plan, {}, id=plan) for plan in ("none", "pps4", "all4", "sbp-p")),
        *(pytest.param(plan, None, id=f"{plan}-stateless")
          for plan in ("none", "pps4", "all4", "sbp-p")),
    ])
    def test_input_is_never_written(self, plan, state):
        # the stack adds its residuals in place, into a copy of its own
        _, model = build_tiny(**_TINY_PLANS.get(plan, {}))
        x = np.random.default_rng(2).standard_normal((3, 9, 6))
        before = x.tobytes()
        forward_features(model, x, state=state)
        assert x.tobytes() == before

    @pytest.mark.parametrize("name,bound", [("canonical-v1", 4.6), ("canonical-v1-full", 4.6),
                                            ("pps4", 2.0)])
    def test_peak_memory_of_the_stack(self, name, bound):
        # the input passed as a temporary, as enhance passes the band split's output.
        # Read on two CPUs, BLAS pinned and unpinned: 4.50-4.51 (canonical-v1), 4.42-4.43
        # (-full) and 1.77-1.78 (pps(4), 2.50 when every frame was copied). Before CPython
        # 3.11 the caller holds its arguments until the call returns, so the temporary lives
        # through the pass: one input more (5.50-5.51, 5.42-5.43 and 2.77-2.78)
        if sys.version_info < (3, 11):
            bound += 1.0
        assert _stack_peak(name, held=False) <= bound

    def test_peak_memory_of_the_stack_on_a_held_input(self):
        # a caller that keeps its array (a direct forward_features call, or any call before
        # CPython 3.11), so one bound on every interpreter: read 2.77-2.78 on pps(4), 3.49
        # when every frame was copied
        assert _stack_peak("pps4", held=True) <= 3.0

    def test_zero_layers_is_identity(self):
        _, model = build_tiny(num_layers=0)
        x = np.random.default_rng(1).standard_normal((3, 5, 6))
        assert np.array_equal(forward_features(model, x), x)

    def test_bad_feature_shape_rejected(self):
        _, model = build_tiny()
        with pytest.raises(ConfigError):
            forward_features(model, np.zeros((2, 5, 6)))

    def test_zero_frames_rejected(self):
        _, model = build_tiny()
        with pytest.raises(ConfigError, match="T >= 1"):
            forward_features(model, np.zeros((3, 0, 6)))

    def test_single_layer_matches_straight_line_reference(self):
        cfg = tiny_config(bands=BandConfig(((0, 9), (9, 17))), feature_dim=2,
                          hidden_dim=2, num_layers=1)
        arrays = gen_weights(cfg, seed=3)
        model = build(cfg, arrays)
        x = np.random.default_rng(4).standard_normal((2, 3, 2))

        def cell(prefix):
            return (arrays[f"{prefix}.w_input"], arrays[f"{prefix}.w_hidden"],
                    arrays[f"{prefix}.bias"])

        band_w = dict(
            norm_gamma=arrays["layer1.band.norm.gamma"],
            norm_beta=arrays["layer1.band.norm.beta"],
            fwd=cell("layer1.band.group0.fwd"),
            bwd=cell("layer1.band.group0.bwd"),
            proj_weight=arrays["layer1.band.proj.weight"],
            proj_bias=arrays["layer1.band.proj.bias"],
        )
        time_w = dict(
            norm_gamma=arrays["layer1.time.norm.gamma"],
            norm_beta=arrays["layer1.time.norm.beta"],
            fwd=cell("layer1.time.group0.fwd"),
            proj_weight=arrays["layer1.time.proj.weight"],
            proj_bias=arrays["layer1.time.proj.bias"],
        )
        want = straight_line_layer(x, band_w, time_w)
        got = forward_features(model, x)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_probe_sequence_and_active_widths(self):
        _, model = build_tiny(prune=SbpStrategy.aggressive(1))
        events = []
        forward_features(model, np.zeros((3, 4, 6)),
                         probe=lambda stage, layer, arr: events.append((stage, layer, arr.shape[0])))
        stages = [(s, l) for s, l, _ in events]
        assert stages == [
            ("band_in", 1), ("band_core", 1), ("band_out", 1),
            ("time_in", 1), ("time_core", 1), ("time_out", 1),
            ("band_in", 2), ("band_core", 2), ("band_out", 2),
            ("time_in", 2), ("time_core", 2), ("time_out", 2),
        ]
        active = {l: k for s, l, k in events if s == "time_core"}
        assert active == {1: 2, 2: 2}


class TestToggleNeutrality:
    """Disabled optimizations must not perturb a single bit."""

    def _features_out(self, model, x):
        return forward_features(model, x).tobytes()

    def test_factor_one_resampling(self):
        x = np.random.default_rng(5).standard_normal((3, 9, 6))
        _, base = build_tiny(seed=2)
        for strategy in (LwrStrategy.all_layers(1), LwrStrategy.alternating(1),
                         LwrStrategy.sync(1), LwrStrategy.pps(1)):
            _, toggled = build_tiny(seed=2, resample=strategy)
            assert self._features_out(toggled, x) == self._features_out(base, x)

    def test_zero_skip_pruning(self):
        x = np.random.default_rng(6).standard_normal((3, 9, 6))
        _, base = build_tiny(seed=2)
        _, toggled = build_tiny(seed=2, prune=SbpStrategy.aggressive(0))
        assert self._features_out(toggled, x) == self._features_out(base, x)

    def test_one_group_matches_plain_plumbing(self):
        # rebuild the stack with one kernel call per cell, composed by hand
        cfg, model = build_tiny(seed=7)
        arrays = gen_weights(cfg, seed=7)
        x = np.random.default_rng(8).standard_normal((3, 9, 6))

        def cell(prefix):
            return LstmWeights(
                arrays[f"{prefix}.w_input"][None].astype(np.float64),
                arrays[f"{prefix}.w_hidden"][None].astype(np.float64),
                arrays[f"{prefix}.bias"][None].astype(np.float64),
            )

        y = np.asarray(x, dtype=np.float64)
        for layer in (1, 2):
            p = f"layer{layer}.band"
            yn = layer_norm(y, arrays[f"{p}.norm.gamma"].astype(np.float64),
                            arrays[f"{p}.norm.beta"].astype(np.float64))
            seqs = yn.transpose(1, 0, 2)
            fwd = lstm_forward_batch(seqs, cell(f"{p}.group0.fwd"))
            bwd = lstm_forward_batch(seqs[:, ::-1], cell(f"{p}.group0.bwd"))[:, ::-1]
            h = np.concatenate([fwd, bwd], axis=-1)
            proj = dense(h, arrays[f"{p}.proj.weight"].astype(np.float64),
                         arrays[f"{p}.proj.bias"].astype(np.float64))
            y = y + proj.transpose(1, 0, 2)
            p = f"layer{layer}.time"
            yn = layer_norm(y, arrays[f"{p}.norm.gamma"].astype(np.float64),
                            arrays[f"{p}.norm.beta"].astype(np.float64))
            h = lstm_forward_batch(yn, cell(f"{p}.group0.fwd"))
            y = y + dense(h, arrays[f"{p}.proj.weight"].astype(np.float64),
                          arrays[f"{p}.proj.bias"].astype(np.float64))

        assert forward_features(model, x).tobytes() == y.tobytes()


class TestEnhance:
    @pytest.mark.parametrize("length", [1, 100, 511, 512, 513, 8000])
    def test_length_preserved(self, length):
        _, model = build_tiny()
        wave = np.random.default_rng(length).standard_normal(length).astype(np.float32) * 0.1
        out = enhance(model, wave)
        assert out.shape == (length,)
        assert out.dtype == np.float32
        assert np.isfinite(out).all()

    def test_observation_add_extremes(self):
        _, model = build_tiny()
        wave = np.random.default_rng(9).standard_normal(600).astype(np.float32) * 0.1
        plain = enhance(model, wave)
        assert np.array_equal(enhance(model, wave, oa=OaConfig(0.0)), plain)
        assert np.array_equal(enhance(model, wave, oa=OaConfig(1.0)), wave)

    def test_stereo_rejected(self):
        from bsrnnlite import AudioFormatError
        _, model = build_tiny()
        with pytest.raises(AudioFormatError):
            enhance(model, np.zeros((100, 2), dtype=np.float32))

    def test_full_strategy_stack_runs(self):
        _, model = build_tiny(
            feature_dim=6, hidden_dim=4, group_size=2,
            resample=LwrStrategy.alternating(4), prune=SbpStrategy.progressive(),
        )
        wave = np.random.default_rng(10).standard_normal(900).astype(np.float32) * 0.1
        out = enhance(model, wave)
        assert out.shape == (900,) and np.isfinite(out).all()


#: every LWR phase and SBP schedule, and grouping, on the tiny model
_TINY_PLANS = {
    "pps4": dict(resample=LwrStrategy.pps(4)),
    "async16": dict(resample=LwrStrategy.alternating(16)),
    "sync4": dict(resample=LwrStrategy.sync(4)),
    "all4": dict(resample=LwrStrategy.all_layers(4)),
    "sbp-a": dict(prune=SbpStrategy.aggressive()),
    "sbp-p": dict(prune=SbpStrategy.progressive()),
    "gr2": dict(group_size=2),
}
#: frame counts just under, at and over one and two chunks
_EDGES = (255, 256, 257, 511, 512, 513)


def _stack_in_runs(model, feats, spans):
    """``forward_features`` over consecutive frame spans, carrying one state."""
    state = {}
    return np.concatenate([forward_features(model, feats[:, lo:hi], state=state)
                           for lo, hi in spans], axis=1)


def _assert_close_to_one_pass(got, want):
    """The chunked path's bound: max |diff| <= 1e-14 x the one-pass output's RMS."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.sqrt(np.mean(want * want))


class TestChunkedEnhance:
    """Long files run in chunks of at most CHUNK_FRAMES frames, carrying the time RNNs' state."""

    def test_spans(self):
        cfg = tiny_config()
        assert model_mod._chunks(cfg, 1) == [(0, 1)]
        assert model_mod._chunks(cfg, 256) == [(0, 256)]
        assert model_mod._chunks(cfg, 257) == [(0, 129), (129, 257)]
        assert model_mod._chunks(cfg, 513) == [(0, 171), (171, 342), (342, 513)]
        # LWR: lengths round up to a multiple of the unit, here 16
        lwr = tiny_config(resample=LwrStrategy.alternating(16))
        assert model_mod._chunks(lwr, 257) == [(0, 144), (144, 257)]
        for plan, factor in (("pps4", 4), ("async16", 16), ("sync4", 4), ("all4", 4), ("gr2", 1)):
            cfg = tiny_config(**_TINY_PLANS[plan])
            for frames in (257, 1000, 5003):
                spans = model_mod._chunks(cfg, frames)
                assert spans[0][0] == 0 and spans[-1][1] == frames
                assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
                assert all(lo % factor == 0 and hi - lo <= 256 for lo, hi in spans)
                assert len(spans) == -(-frames // 256)
        # a unit past the bound runs one unit at a time
        pps = tiny_config(num_layers=1, resample=LwrStrategy.pps(300))
        assert model_mod._chunks(pps, 700) == [(0, 300), (300, 600), (600, 700)]

    def test_non_causal_runs_whole_files_up_to_the_limit(self, monkeypatch):
        cfg, model = build_tiny(time_rnn_causal=False)
        limit = model_mod.WHOLE_FILE_FRAMES
        assert model_mod._chunks(cfg, limit) == [(0, limit)]
        with pytest.raises(ConfigError, match="^a non-causal time RNN"):
            model_mod._chunks(cfg, limit + 1)
        wave = np.zeros(limit * cfg.stft.hop_size, np.float32)
        assert cfg.stft.num_frames(wave.size) == limit + 1
        monkeypatch.setattr(model_mod, "stft", lambda *args, **kwargs: pytest.fail("stft ran"))
        with pytest.raises(ConfigError, match="non-causal"):
            enhance(model, wave)

    @pytest.mark.parametrize("plan", _TINY_PLANS)
    def test_stack_in_chunks_matches_one_pass(self, plan):
        cfg, model = build_tiny(**_TINY_PLANS[plan])
        rng = np.random.default_rng(11)
        for frames in _EDGES:
            feats = rng.standard_normal((cfg.num_bands, frames, cfg.feature_dim))
            spans = model_mod._chunks(cfg, frames)
            assert len(spans) == (frames > 256) + (frames > 512) + 1
            _assert_close_to_one_pass(_stack_in_runs(model, feats, spans),
                                      forward_features(model, feats))

    @pytest.mark.parametrize("name", preset_names())
    def test_presets_in_chunks_match_one_pass(self, name, monkeypatch):
        # a 16-frame bound keeps the real dims cheap: LWR-16's time RNN then
        # runs one frame per chunk, the fewest rows a chunk can give a GEMM
        monkeypatch.setattr(model_mod, "CHUNK_FRAMES", 16)
        cfg = preset_config(name)
        model = build(cfg, gen_weights(cfg, seed=0))
        rng = np.random.default_rng(12)
        for frames in (16, 17, 33):
            feats = rng.standard_normal((cfg.num_bands, frames, cfg.feature_dim))
            _assert_close_to_one_pass(_stack_in_runs(model, feats, model_mod._chunks(cfg, frames)),
                                      forward_features(model, feats))

    @pytest.mark.parametrize("plan", _TINY_PLANS)
    def test_enhance_at_chunk_boundaries(self, plan, monkeypatch):
        cfg, model = build_tiny(**_TINY_PLANS[plan])
        rng = np.random.default_rng(13)
        for frames in _EDGES:
            wave = rng.standard_normal((frames - 1) * cfg.stft.hop_size).astype(np.float32) * 0.1
            assert cfg.stft.num_frames(wave.size) == frames
            chunked = [enhance(model, wave), enhance(model, wave, oa=OaConfig(0.3))]
            with monkeypatch.context() as patch:
                patch.setattr(model_mod, "CHUNK_FRAMES", frames)
                whole = [enhance(model, wave), enhance(model, wave, oa=OaConfig(0.3))]
            for got, want in zip(chunked, whole):
                # the stack's bound, seen through the float32 mask and output: one rounding
                assert got.dtype == np.float32 and got.shape == want.shape
                assert np.max(np.abs(got - want)) <= 1e-6 * np.sqrt(np.mean(want * want.astype(float)))

    def test_chunks_bitwise_on_one_blas_thread(self):
        # every GEMM of these presets keeps 10 or more rows at 257 and 513 frames, so with
        # the BLAS pinned the chunked output is the one-pass output, byte for byte
        script = textwrap.dedent("""
            import numpy as np
            from bsrnnlite import OaConfig, build, enhance, gen_weights, model, preset_config
            rng = np.random.default_rng(0)
            same = []
            for name, frames in (("canonical-v1", 257), ("canonical-v1-full", 257),
                                 ("canonical-v1-full", 513)):
                cfg = preset_config(name)
                net = build(cfg, gen_weights(cfg, 0))
                wave = (rng.standard_normal((frames - 1) * 256) * 0.1).astype(np.float32)
                chunked = enhance(net, wave, OaConfig(0.25)).tobytes()
                model.CHUNK_FRAMES = frames
                same.append(enhance(net, wave, OaConfig(0.25)).tobytes() == chunked)
                model.CHUNK_FRAMES = 256
            print(same)
        """)
        done = subprocess.run([sys.executable, "-c", script], env=_pinned_env(),
                              capture_output=True, text=True, timeout=600, check=True)
        assert done.stdout.split() == ["[True,", "True,", "True]"]

    def test_peak_memory_follows_the_chunk(self):
        # peak RSS after a 4 s and then a 40 s file (1 and 10 chunks): the whole-file
        # path grew about 250 MiB between them
        pytest.importorskip("resource")
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from bsrnnlite import build, enhance, gen_weights, preset_config
            cfg = preset_config("canonical-v1-full")
            net = build(cfg, gen_weights(cfg, 0))
            rng = np.random.default_rng(0)
            peaks = []
            for seconds in (4, 40):
                enhance(net, (rng.standard_normal(seconds * 16000) * 0.1).astype(np.float32))
                peaks.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            print(*peaks)
        """)
        done = subprocess.run([sys.executable, "-c", script], env=_pinned_env(),
                              capture_output=True, text=True, timeout=600, check=True)
        short, long = map(int, done.stdout.split())
        scale = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss: bytes there, KiB here
        assert (long - short) / scale < 30


class TestThreadSplit:
    """Frames, bands and rows split over threads; every output byte stays the same."""

    @pytest.mark.parametrize("cfg", _VARIANTS, ids=lambda cfg: cfg.name)
    def test_one_two_and_three_workers_agree_bitwise(self, cfg, force_workers, monkeypatch):
        model = build(cfg, gen_weights(cfg, seed=0))
        rng = np.random.default_rng(5)
        # the stack runs at 11, 49 and 97 frames. At 11 nothing splits. At 49 the band RNN
        # splits 24/25 and the norms and projections once. At 97 it splits 48/49 at 2
        # workers and 32/32/33 at 3, and the norms over the bands 7/8/8.
        pps, hop = cfg.plan[0], cfg.stft.hop_size
        waves = [rng.standard_normal(frames * pps * hop).astype(np.float32) * 0.1
                 for frames in (10, 48, 96)]
        feats = rng.standard_normal((cfg.num_bands, 97 * pps, cfg.feature_dim))
        rows = []
        real = rnn._run_rows
        monkeypatch.setattr(rnn, "_run_rows", lambda *args: (rows.append(args[-1] - args[-2]),
                                                             real(*args)))
        runs = []
        for count in (1, 2, 3):
            force_workers(count)
            runs.append(([enhance(model, wave).tobytes() for wave in waves],
                         forward_features(model, feats).tobytes(),
                         repr(count_forward(model, waves[1]))))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        assert {24, 25, 32, 33, 48, 49} <= set(rows)

    def test_two_threads_enhance_at_once(self):
        # a subprocess, so the BLAS starts pinned to one thread. Two callers share the
        # pool's one thread: each time RNN projects ahead on it while band-RNN shares queue
        # there too, and neither may wait on the other or change a byte
        script = textwrap.dedent("""
            from concurrent.futures import ThreadPoolExecutor
            import numpy as np
            from bsrnnlite import build, enhance, gen_weights, preset_config, rnn
            rnn._WORKERS = 2
            cfg = preset_config("canonical-v1")
            net = build(cfg, gen_weights(cfg, 0))
            rng = np.random.default_rng(0)
            waves = [(rng.standard_normal(int(s * 16000)) * 0.1).astype(np.float32)
                     for s in (4.7, 5.3)]
            want = [enhance(net, wave).tobytes() for wave in waves]
            with ThreadPoolExecutor(2) as callers:
                got = list(callers.map(lambda wave: enhance(net, wave).tobytes(), waves))
            print(got == want)
        """)
        done = subprocess.run([sys.executable, "-c", script], env=_pinned_env(),
                              capture_output=True, text=True, timeout=300, check=True)
        assert done.stdout.split() == ["True"]

    def test_forked_child_runs_a_split(self, force_workers):
        _, model = build_tiny(hidden_dim=8)  # gates 32 wide: the band RNN splits
        wave = np.random.default_rng(6).standard_normal(1024).astype(np.float32) * 0.1  # 129 frames
        force_workers(2)
        want = enhance(model, wave).tobytes()
        assert rnn._POOL is not None  # the split started the pool's thread
        read, write = os.pipe()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with a thread alive
            pid = os.fork()
        if pid == 0:
            try:
                os.write(write, b"1" if enhance(model, wave).tobytes() == want else b"0")
            finally:
                os._exit(0)
        os.close(write)
        deadline = time.monotonic() + 30
        while not os.waitpid(pid, os.WNOHANG)[0]:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child waited on its parent's pool threads")
            time.sleep(0.05)
        with os.fdopen(read, "rb") as pipe:
            assert pipe.read() == b"1"


def test_canonical_variants_all_buildable():
    for name in preset_names():
        cfg = preset_config(name)
        arrays = gen_weights(cfg, seed=0)
        assert build(cfg, arrays).config.name == name
