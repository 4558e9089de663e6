"""Strided downsampling, hold upsampling, residual wrapping, and planning."""

import time

import numpy as np
import pytest

from bsrnnlite import ConfigError, LwrStrategy, forward_features
from bsrnnlite import plan_resampling, resample
from bsrnnlite.resample import downsample_t, reduced_frames, resampled_sublayer, upsample_t

from util import build_tiny


class TestStride:
    def test_downsample_keeps_multiples(self):
        x = np.arange(10.0)[None, :, None]  # [1 x T x 1]
        assert downsample_t(x, 3)[0, :, 0].tolist() == [0.0, 3.0, 6.0, 9.0]

    def test_frame_count_is_ceiling(self):
        for t in range(1, 30):
            for s in range(1, 8):
                x = np.zeros((2, t, 3))
                assert downsample_t(x, s).shape[1] == reduced_frames(t, s) == -(-t // s)

    def test_upsample_holds_each_frame(self):
        src = np.array([10.0, 20.0, 30.0])[None, :, None]
        up = upsample_t(src, 3, 8)[0, :, 0]
        assert up.tolist() == [10, 10, 10, 20, 20, 20, 30, 30]
        for t in range(8):
            assert up[t] == src[0, t // 3, 0]

    def test_round_trip_length(self):
        rng = np.random.default_rng(0)
        for t in range(1, 25):
            for s in (1, 2, 3, 5, 7):
                x = rng.standard_normal((2, t, 3))
                y = upsample_t(downsample_t(x, s), s, t)
                assert y.shape == x.shape
                assert np.array_equal(y[:, ::s], x[:, ::s])  # kept frames survive exactly

    def test_upsample_past_the_frame_count_makes_only_the_target(self):
        # a hold of factor * frames would be 15 TiB here
        up = upsample_t(np.array([[[1.0, 2.0]]]), 10**12, 7)
        assert up.shape == (1, 7, 2) and (up == [1.0, 2.0]).all()

    def test_upsample_rejects_inconsistent_source(self):
        with pytest.raises(ConfigError, match="expected"):
            upsample_t(np.zeros((1, 3, 2)), 2, 8)  # needs ceil(8/2)=4 frames
        with pytest.raises(ConfigError):
            downsample_t(np.zeros((1, 3, 2)), 0)


class TestResampledSublayer:
    # the helper adds into the array it is given and returns it, so the expected
    # values come from a copy taken before the call
    def test_factor_one_is_plain_residual(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 6, 4))
        core_out = rng.standard_normal((3, 6, 4))
        want = x + core_out
        got = resampled_sublayer(x, lambda z: core_out, 1)
        assert got is x and np.array_equal(got, want)

    def test_factor_one_holds_nothing(self, monkeypatch):
        def no_hold(*args):
            raise AssertionError("factor 1 must not hold")

        monkeypatch.setattr(resample, "upsample_t", no_hold)
        x = np.random.default_rng(4).standard_normal((2, 5, 3))
        want = 3.0 * x
        got = resampled_sublayer(x, lambda z: 2.0 * z, 1)
        assert got is x and np.array_equal(got, want)

    def test_zero_core_is_identity(self):
        x = np.random.default_rng(2).standard_normal((3, 7, 4))
        before = x.copy()
        assert np.array_equal(resampled_sublayer(x, np.zeros_like, 3), before)

    def test_matches_manual_expansion(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 5, 3))
        held = np.repeat(2.0 * x[:, ::2], 2, axis=1)[:, :5]
        want = x + held
        got = resampled_sublayer(x, lambda z: 2.0 * z, 2)
        assert got is x and np.array_equal(got, want)

    def test_core_sees_reduced_rate(self):
        seen = {}
        x = np.zeros((2, 9, 3))

        def core(z):
            seen["frames"] = z.shape[1]
            return z

        resampled_sublayer(x, core, 4)
        assert seen["frames"] == 3

    def test_factor_past_the_frame_count_costs_nothing_extra(self):
        # only min(factor, T) phases hold frames; visiting all 10**7 takes seconds
        x = np.random.default_rng(5).standard_normal((1, 3, 2))
        want = resampled_sublayer(x.copy(), np.sin, 3)
        start = time.perf_counter()
        got = resampled_sublayer(x, np.sin, 10**7)
        assert time.perf_counter() - start < 1.0
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("factor", [1, 2, 3])
    def test_in_place_adds_into_features(self, factor):
        # the core reads the frames before any sum lands: the held sum of a copy
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 7, 3))
        held = upsample_t(np.sin(downsample_t(x, factor)), factor, 7)
        want = x + held
        got = resampled_sublayer(x, np.sin, factor)
        assert got is x and got.tobytes() == want.tobytes()


class TestPpsWrap:
    """PPS: ``forward_features`` wraps its whole layer stack in one down/up pair."""

    def test_identity_stack(self):
        _, model = build_tiny(num_layers=0, resample=LwrStrategy.pps(3))
        x = np.random.default_rng(4).standard_normal((3, 7, 6))
        got = forward_features(model, x)
        assert np.array_equal(got, upsample_t(downsample_t(x, 3), 3, 7))

    def test_factor_one_passthrough(self):
        _, model = build_tiny(num_layers=0, resample=LwrStrategy.pps(1))
        x = np.random.default_rng(5).standard_normal((3, 7, 6))
        got = forward_features(model, x)
        assert got is not x and np.array_equal(got, x)

    def test_stack_runs_reduced(self):
        _, model = build_tiny(resample=LwrStrategy.pps(4))
        seen = []
        forward_features(model, np.zeros((3, 10, 6)),
                         probe=lambda stage, layer, array: seen.append(array.shape[1]))
        assert seen == [3] * 12  # six stages in each of two layers

    def test_stack_runs_on_a_copy_of_the_kept_frames(self):
        _, model = build_tiny(resample=LwrStrategy.pps(3))
        x = np.random.default_rng(6).standard_normal((3, 7, 6))
        before = x.tobytes()
        seen = []
        got = forward_features(model, x, probe=lambda stage, layer, array: seen.append(array))
        stack = seen[0]  # layer 1's band_in: the array every sublayer adds into
        assert stack.shape == (3, 3, 6) and stack.flags.owndata
        assert seen[-1] is stack and x.tobytes() == before
        assert np.array_equal(got, upsample_t(stack, 3, 7))


def _flags(pairs):
    return [(band > 1, time > 1) for band, time in pairs]


class TestPlanning:
    def test_none(self):
        pps_factor, pairs = plan_resampling(LwrStrategy.none(), 4)
        assert pps_factor == 1
        assert _flags(pairs) == [(False, False)] * 4

    def test_all(self):
        pps_factor, pairs = plan_resampling(LwrStrategy.all_layers(4), 3)
        assert pps_factor == 1
        assert _flags(pairs) == [(True, True)] * 3
        assert pairs == ((4, 4),) * 3

    def test_pps_moves_factor_to_stack(self):
        pps_factor, pairs = plan_resampling(LwrStrategy.pps(4), 3)
        assert pps_factor == 4
        assert _flags(pairs) == [(False, False)] * 3

    def test_sync_defaults_to_odd_layers(self):
        _, pairs = plan_resampling(LwrStrategy.sync(2), 6)
        assert _flags(pairs) == [(True, True), (False, False)] * 3

    def test_sync_explicit_targets(self):
        _, pairs = plan_resampling(LwrStrategy.sync(2, target_layers=(2, 3)), 4)
        assert _flags(pairs) == [(False, False), (True, True), (True, True), (False, False)]

    def test_sync_target_out_of_range(self):
        with pytest.raises(ConfigError, match="exceed"):
            plan_resampling(LwrStrategy.sync(2, target_layers=(7,)), 6)

    def test_async_alternates_time_first(self):
        _, pairs = plan_resampling(LwrStrategy.alternating(2), 5)
        assert _flags(pairs) == [(False, True), (True, False)] * 2 + [(False, True)]

    def test_strategy_validation(self):
        with pytest.raises(ConfigError):
            LwrStrategy("nearest", 2)
        with pytest.raises(ConfigError):
            LwrStrategy("all", 0)
        with pytest.raises(ConfigError):
            LwrStrategy("all", 2, target_layers=(1,))
        with pytest.raises(ConfigError):
            LwrStrategy("sync", 2, target_layers=(0,))
        with pytest.raises(ConfigError):
            LwrStrategy("sync", 2, target_layers=(1, 1))
