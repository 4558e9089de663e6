"""Pruning schedules, and the band bypass through ``forward_features``."""

import numpy as np
import pytest

from bsrnnlite import BandConfig, ConfigError, SbpStrategy, forward_features, prune_schedule
from bsrnnlite.model import resampled_sublayer

from util import build_tiny


class TestSchedule:
    def test_none(self):
        assert prune_schedule(SbpStrategy.none(), 4, 23) == (0, 0, 0, 0)

    def test_aggressive_defaults_to_layer_count(self):
        assert prune_schedule(SbpStrategy.aggressive(), 6, 23) == (6,) * 6

    def test_aggressive_explicit(self):
        assert prune_schedule(SbpStrategy.aggressive(3), 4, 23) == (3, 3, 3, 3)
        assert prune_schedule(SbpStrategy.aggressive(0), 2, 23) == (0, 0)

    def test_progressive_counts_up(self):
        assert prune_schedule(SbpStrategy.progressive(), 6, 23) == (1, 2, 3, 4, 5, 6)

    def test_one_band_must_remain(self):
        with pytest.raises(ConfigError, match="remain"):
            prune_schedule(SbpStrategy.aggressive(5), 2, 5)
        prune_schedule(SbpStrategy.aggressive(4), 2, 5)  # K-1 is fine

    def test_counts_checked(self):
        with pytest.raises(ConfigError, match="num_layers must be >= 0"):
            prune_schedule(SbpStrategy.none(), -1, 23)
        with pytest.raises(ConfigError, match="num_bands must be >= 1"):
            prune_schedule(SbpStrategy.none(), 2, 0)

    def test_progressive_needs_more_bands_than_layers(self):
        with pytest.raises(ConfigError):
            prune_schedule(SbpStrategy.progressive(), 23, 23)
        prune_schedule(SbpStrategy.progressive(), 22, 23)

    def test_strategy_validation(self):
        with pytest.raises(ConfigError):
            SbpStrategy("mild")
        with pytest.raises(ConfigError):
            SbpStrategy("progressive", skip_bands=2)
        with pytest.raises(ConfigError):
            SbpStrategy("aggressive", skip_bands=-1)


SIX_BANDS = BandConfig(((0, 3), (3, 6), (6, 9), (9, 12), (12, 15), (15, 17)))


def _time_stages(prune, **overrides):
    """The tiny model, its per-layer skips, and per layer a copy of each time
    stage's array and, under ``arrays``, the arrays themselves in stage order."""
    cfg, net = build_tiny(prune=prune, **overrides)
    stages = {}

    def probe(stage, layer, array):
        if stage.startswith("time_"):
            stages.setdefault(layer, {})[stage] = array.copy()
            stages[layer].setdefault("arrays", []).append(array)

    x = np.random.default_rng(0).standard_normal((cfg.num_bands, 5, cfg.feature_dim))
    forward_features(net, x, probe=probe)
    return net, [row[2] for row in cfg.plan[1]], stages


def _time_sublayer(net, layer, bands):
    """Layer ``layer``'s time sublayer run alone on a copy of ``bands``."""
    return resampled_sublayer(bands.copy(), net.weights.time_layers[layer - 1], 1, False,
                              lambda core: None, [])


class TestBypass:
    """The time-RNN bypass of ``forward_features``, seen through its probe."""

    def test_split_point(self):
        net, skips, stages = _time_stages(SbpStrategy.aggressive(2))
        for layer, s in stages.items():
            active = len(s["time_in"]) - skips[layer - 1]
            assert active == 1 and s["time_core"].shape[0] == active
            want = _time_sublayer(net, layer, s["time_in"][:active])
            assert s["time_out"][:active].tobytes() == want.tobytes()
            assert s["time_out"][active:].tobytes() == s["time_in"][active:].tobytes()

    def test_skip_zero_processes_everything(self):
        net, skips, stages = _time_stages(SbpStrategy.aggressive(0))
        assert skips == [0, 0]
        for layer, s in stages.items():
            assert s["time_core"].shape[0] == len(s["time_in"])
            want = _time_sublayer(net, layer, s["time_in"])
            assert s["time_out"].tobytes() == want.tobytes()

    def test_max_skip_leaves_one_band_active(self):
        net, _, stages = _time_stages(SbpStrategy.aggressive(5), bands=SIX_BANDS)
        for layer, s in stages.items():
            assert s["time_core"].shape[0] == 1
            want = _time_sublayer(net, layer, s["time_in"][:1])
            assert s["time_out"][:1].tobytes() == want.tobytes()
            assert s["time_out"][1:].tobytes() == s["time_in"][1:].tobytes()

    def test_sublayer_sees_only_active_bands(self):
        _, skips, stages = _time_stages(SbpStrategy.progressive(), bands=SIX_BANDS)
        assert skips == [1, 2]
        assert {layer: s["time_core"].shape[0] for layer, s in stages.items()} == {1: 5, 2: 4}

    def test_in_place_stores_into_features(self):
        # the active bands are updated in their view of the stack's array: no copy is stored
        _, skips, stages = _time_stages(SbpStrategy.progressive())
        for layer, s in stages.items():
            time_in, time_out = s["arrays"][0], s["arrays"][-1]
            assert time_out is time_in and np.shares_memory(s["arrays"][1], time_in)
            active = len(time_in) - skips[layer - 1]
            assert s["time_out"][active:].tobytes() == s["time_in"][active:].tobytes()
