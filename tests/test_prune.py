"""Pruning schedules and the band bypass."""

import numpy as np
import pytest

from bsrnnlite import ConfigError, SbpStrategy, prune_schedule
from bsrnnlite.prune import apply_pruned_time_rnn


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


class TestBypass:
    # the helper stores into the array it is given and returns it, so the expected
    # values come from a copy taken before the call
    def test_split_point(self):
        x = np.random.default_rng(0).standard_normal((5, 4, 3))
        before = x.copy()
        out = apply_pruned_time_rnn(x, lambda z: z + 1.0, 2)
        assert out is x
        assert np.array_equal(out[:3], before[:3] + 1.0)
        assert out[3:].tobytes() == before[3:].tobytes()  # bitwise copy of the top bands

    def test_skip_zero_processes_everything(self):
        x = np.random.default_rng(1).standard_normal((4, 3, 2))
        before = x.copy()
        out = apply_pruned_time_rnn(x, lambda z: z * 2.0, 0)
        assert out is x and np.array_equal(out, before * 2.0)

    def test_max_skip_leaves_one_band_active(self):
        x = np.random.default_rng(2).standard_normal((4, 3, 2))
        before = x.copy()
        out = apply_pruned_time_rnn(x, lambda z: z - 1.0, 3)
        assert out is x
        assert np.array_equal(out[0], before[0] - 1.0)
        assert np.array_equal(out[1:], before[1:])

    def test_sublayer_sees_only_active_bands(self):
        seen = {}
        x = np.zeros((6, 3, 2))

        def sub(z):
            seen["bands"] = z.shape[0]
            return z

        apply_pruned_time_rnn(x, sub, 4)
        assert seen["bands"] == 2

    def test_in_place_stores_into_features(self):
        x = np.random.default_rng(3).standard_normal((5, 4, 3))
        want = apply_pruned_time_rnn(x.copy(), lambda z: z * 3.0, 2)
        top = x[3:].copy()

        def sub(z):  # updates its view of the active bands, as the stack's sublayers do
            z *= 3.0
            return z

        got = apply_pruned_time_rnn(x, sub, 2)
        assert got is x and got.tobytes() == want.tobytes()
        assert got[3:].tobytes() == top.tobytes()

    def test_skip_bounds(self):
        x = np.zeros((4, 3, 2))
        with pytest.raises(ConfigError):
            apply_pruned_time_rnn(x, lambda z: z, 4)
        with pytest.raises(ConfigError):
            apply_pruned_time_rnn(x, lambda z: z, -1)
