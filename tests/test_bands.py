"""Band layout validation, the split encoder, and the mask head."""

import numpy as np
import pytest

from bsrnnlite import BandConfig, ConfigError
from bsrnnlite import apply_mask, band_split, estimate_mask
from bsrnnlite.bands import BandProjection, MaskBandHead, canonical_bands

from reference import naive_dense, naive_layer_norm


class TestLayout:
    def test_canonical_partition(self):
        cfg = canonical_bands(257)
        assert cfg.num_bands == 23
        assert cfg.widths == (4,) * 10 + (8,) * 8 + (24,) * 4 + (57,)
        assert cfg.total_bins == 257
        cfg.validate_for_bins(257)

    def test_canonical_needs_enough_bins(self):
        with pytest.raises(ConfigError):
            canonical_bands(200)

    def test_gap_rejected(self):
        with pytest.raises(ConfigError, match="contiguous"):
            BandConfig(((0, 2), (3, 4)))

    def test_overlap_rejected(self):
        with pytest.raises(ConfigError, match="contiguous"):
            BandConfig(((0, 3), (2, 4)))

    def test_empty_band_rejected(self):
        with pytest.raises(ConfigError):
            BandConfig(((0, 2), (2, 2)))

    def test_must_start_at_dc(self):
        with pytest.raises(ConfigError):
            BandConfig(((1, 4),))

    @pytest.mark.parametrize("boundaries", [((0, 4, 8),), ((0, 4), (4,))], ids=["three", "one"])
    def test_band_that_is_not_a_pair_rejected(self, boundaries):
        # unpacking the band raised ValueError, not ConfigError
        with pytest.raises(ConfigError, match="pair"):
            BandConfig(boundaries)

    def test_coverage_check(self):
        with pytest.raises(ConfigError, match="covers"):
            BandConfig(((0, 4), (4, 8))).validate_for_bins(9)


def _split_weights(rng, layout, n, zero_bias=False):
    bands = []
    for start, end in layout.boundaries:
        w2 = 2 * (end - start)
        bands.append(BandProjection(
            norm_gamma=rng.uniform(0.5, 1.5, w2),
            norm_beta=np.zeros(w2) if zero_bias else rng.uniform(-0.5, 0.5, w2),
            weight=rng.uniform(-1, 1, (n, w2)),
            bias=np.zeros(n) if zero_bias else rng.uniform(-0.5, 0.5, n),
        ))
    return tuple(bands)


def _head_weights(rng, layout, n, hidden, zero_bias=False):
    bands = []
    for start, end in layout.boundaries:
        w2 = 2 * (end - start)
        bands.append(MaskBandHead(
            norm_gamma=rng.uniform(0.5, 1.5, n),
            norm_beta=np.zeros(n) if zero_bias else rng.uniform(-0.5, 0.5, n),
            fc1_weight=rng.uniform(-1, 1, (hidden, n)),
            fc1_bias=np.zeros(hidden) if zero_bias else rng.uniform(-0.5, 0.5, hidden),
            fc2_weight=rng.uniform(-1, 1, (w2, hidden)),
            fc2_bias=np.zeros(w2) if zero_bias else rng.uniform(-0.5, 0.5, w2),
        ))
    return tuple(bands)


LAYOUT = BandConfig(((0, 2), (2, 5)))


class TestBandSplit:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        spec = (rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))).astype(np.complex64)
        feats = band_split(spec, _split_weights(rng, LAYOUT, 4), LAYOUT)
        assert feats.shape == (2, 7, 4)

    def test_matches_naive_route(self):
        rng = np.random.default_rng(1)
        spec = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        w = _split_weights(rng, LAYOUT, 4)
        feats = band_split(spec.astype(np.complex64), w, LAYOUT)
        for k, (start, end) in enumerate(LAYOUT.boundaries):
            sub = spec.astype(np.complex64)[start:end]
            x = np.concatenate([sub.real, sub.imag], axis=0).T
            want = naive_dense(
                naive_layer_norm(x, w[k].norm_gamma, w[k].norm_beta),
                w[k].weight, w[k].bias,
            )
            assert np.max(np.abs(feats[k] - want)) < 1e-9

    def test_zero_spectrogram_zero_biases_give_zero_features(self):
        rng = np.random.default_rng(2)
        w = _split_weights(rng, LAYOUT, 4, zero_bias=True)
        feats = band_split(np.zeros((5, 6), dtype=np.complex64), w, LAYOUT)
        assert not feats.any()

    def test_coverage_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ConfigError):
            band_split(np.zeros((9, 4), dtype=np.complex64), _split_weights(rng, LAYOUT, 4), LAYOUT)


CANONICAL = canonical_bands(257)


@pytest.mark.parametrize("call, match", [
    (lambda: BandConfig(()), "at least one band"),
    (lambda: band_split(np.zeros(257, np.complex64), (None,) * 23, CANONICAL), r"\[F x T\]"),
    (lambda: band_split(np.zeros((257, 3), np.complex64), (None,) * 22, CANONICAL),
     "22 band projections for 23 bands"),
    (lambda: estimate_mask(np.zeros((22, 3, 4)), (None,) * 23, CANONICAL), r"\[23 x T x N\]"),
    (lambda: estimate_mask(np.zeros((23, 3, 4)), (None,) * 22, CANONICAL),
     "22 mask heads for 23 bands"),
], ids=["no bands", "1-D spectrogram", "22 projections", "22 bands of features", "22 heads"])
def test_refused_before_any_band_runs(call, match):
    with pytest.raises(ConfigError, match=match):
        call()


class TestMaskHead:
    def test_mask_shape_and_dtype(self):
        rng = np.random.default_rng(5)
        mask = estimate_mask(rng.standard_normal((2, 7, 4)), _head_weights(rng, LAYOUT, 4, 8), LAYOUT)
        assert mask.shape == (5, 7)
        assert mask.dtype == np.complex64

    def test_band_placement_and_complex_packing(self):
        # constant per-band outputs land in that band's rows, real half first
        rng = np.random.default_rng(6)
        w = _head_weights(rng, LAYOUT, 4, 8)
        bands = []
        for k, hb in enumerate(w):
            w2 = hb.fc2_bias.shape[0]
            width = w2 // 2
            bias = np.concatenate([np.full(width, 10.0 + k), np.full(width, -(20.0 + k))])
            bands.append(MaskBandHead(hb.norm_gamma, hb.norm_beta,
                                      np.zeros_like(hb.fc1_weight), np.zeros_like(hb.fc1_bias),
                                      np.zeros_like(hb.fc2_weight), bias))
        mask = estimate_mask(rng.standard_normal((2, 3, 4)), tuple(bands), LAYOUT)
        for k, (start, end) in enumerate(LAYOUT.boundaries):
            assert np.allclose(mask[start:end].real, 10.0 + k)
            assert np.allclose(mask[start:end].imag, -(20.0 + k))

    def test_matches_naive_route(self):
        rng = np.random.default_rng(7)
        feats = rng.standard_normal((2, 4, 4))
        w = _head_weights(rng, LAYOUT, 4, 8)
        mask = estimate_mask(feats, w, LAYOUT)
        for k, (start, end) in enumerate(LAYOUT.boundaries):
            hb = w[k]
            x = naive_layer_norm(feats[k], hb.norm_gamma, hb.norm_beta)
            hidden = np.tanh(naive_dense(x, hb.fc1_weight, hb.fc1_bias))
            y = naive_dense(hidden, hb.fc2_weight, hb.fc2_bias)
            width = end - start
            want = (y[:, :width] + 1j * y[:, width:]).T
            assert np.max(np.abs(mask[start:end] - want)) < 1e-6

    def test_bands_split_over_workers_bitwise(self, force_workers, split_shares):
        # canonical features are [23 x T x 126]: 22 frames split nowhere, 46 once, 68 into
        # 7/8/8 bands at 3 workers
        rng = np.random.default_rng(8)
        layout = canonical_bands(257)
        w = _head_weights(rng, layout, 126, 504)
        for frames, split in ((22, {1: [], 2: [], 3: []}), (46, {1: [], 2: [11, 12], 3: [11, 12]}),
                              (68, {1: [], 2: [11, 12], 3: [7, 8, 8]})):
            feats = rng.standard_normal((23, frames, 126))
            runs = []
            for count in (1, 2, 3):
                force_workers(1)
                estimate_mask(-feats, w, layout)  # other bytes in every row of a buffer it frees
                force_workers(count)
                split_shares.clear()
                runs.append(estimate_mask(feats, w, layout).tobytes())
                assert sorted(hi - lo for lo, hi in split_shares) == split[count]
            assert runs[1] == runs[0] and runs[2] == runs[0]


class TestApplyMask:
    def test_ones_mask_is_identity(self):
        rng = np.random.default_rng(9)
        spec = (rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))).astype(np.complex64)
        assert np.array_equal(apply_mask(spec, np.ones_like(spec)), spec)

    def test_pointwise_product(self):
        spec = np.array([[1 + 2j]], dtype=np.complex64)
        mask = np.array([[2 - 1j]], dtype=np.complex64)
        assert apply_mask(spec, mask)[0, 0] == np.complex64(4 + 3j)

    def test_shape_mismatch(self):
        with pytest.raises(ConfigError, match="mismatch"):
            apply_mask(np.zeros((5, 4), dtype=np.complex64), np.zeros((5, 3), dtype=np.complex64))
