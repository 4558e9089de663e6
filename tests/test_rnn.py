"""The stacked LSTM kernel, rearrangement, and the shared pointwise helpers."""

import math
import tracemalloc

import numpy as np
import pytest

from bsrnnlite import ConfigError, rnn
from bsrnnlite.rnn import GroupedLayerWeights, LstmWeights
from bsrnnlite.rnn import dense, layer_norm, lstm_forward_batch, rearrange

from reference import naive_lstm_forward
from util import compose_by_hand, lstm_forward, one_cell


def _random_cell(rng, in_dim, hidden_dim, cells=1):
    return LstmWeights(
        w_input=rng.uniform(-1, 1, (cells, 4 * hidden_dim, in_dim)),
        w_hidden=rng.uniform(-1, 1, (cells, 4 * hidden_dim, hidden_dim)),
        bias=rng.uniform(-1, 1, (cells, 4 * hidden_dim)),
    )


def _twice(cell):
    """A bidirectional stack running ``cell``'s weights both ways."""
    return LstmWeights(*(np.concatenate([a, a]) for a in (cell.w_input, cell.w_hidden, cell.bias)))


def _by_hand(seqs, cells):
    return compose_by_hand(seqs, cells, lambda x, k: lstm_forward_batch(x, one_cell(cells, k)))


class TestLstmStep:
    """One recurrence step, seen through the kernel."""

    def test_unit_weights_hand_trace(self):
        # scalar cell, W = U = 1, b = 0, x = 1: every pre-activation is 1
        w = LstmWeights(np.ones((1, 4, 1)), np.ones((1, 4, 1)), np.zeros((1, 4)))
        h = lstm_forward(np.ones((2, 1)), w)[:, 0]
        sig1 = 1.0 / (1.0 + math.exp(-1.0))
        c1 = sig1 * math.tanh(1.0)
        h1 = sig1 * math.tanh(c1)
        assert abs(h[0] - h1) < 1e-12
        # second step folds the recurrent term in: pre-activations are 1 + h1
        pre = 1.0 + h1
        sig2 = 1.0 / (1.0 + math.exp(-pre))
        c_exp = sig2 * c1 + sig2 * math.tanh(pre)
        assert abs(h[1] - sig2 * math.tanh(c_exp)) < 1e-12

    def test_zero_input_zero_bias_keeps_zero_state(self):
        rng = np.random.default_rng(0)
        w = LstmWeights(rng.uniform(-1, 1, (2, 8, 3)), rng.uniform(-1, 1, (2, 8, 2)), np.zeros((2, 8)))
        assert not lstm_forward(np.zeros((4, 3)), w).any()

    def test_shape_validation(self):
        with pytest.raises(ConfigError):
            LstmWeights(np.zeros((1, 8, 3)), np.zeros((1, 8, 3)), np.zeros((1, 8)))
        with pytest.raises(ConfigError):
            LstmWeights(np.zeros((1, 12, 3)), np.zeros((1, 8, 2)), np.zeros((1, 8)))
        with pytest.raises(ConfigError):
            LstmWeights(np.zeros((1, 8, 3)), np.zeros((1, 8, 2)), np.zeros((1, 4)))
        with pytest.raises(ConfigError):
            LstmWeights(np.zeros((2, 8, 3)), np.zeros((1, 8, 2)), np.zeros((1, 8)))
        with pytest.raises(ConfigError):  # unstacked arrays
            LstmWeights(np.zeros((8, 3)), np.zeros((8, 2)), np.zeros(8))


class TestLstmForward:
    def test_single_step_equals_fold_base_case(self):
        # from zero state: c = i * g and h = o * tanh(c)
        rng = np.random.default_rng(1)
        w = _random_cell(rng, 3, 4)
        x = rng.standard_normal((1, 3))
        pre = w.w_input[0] @ x[0] + w.bias[0]
        sig = 1.0 / (1.0 + np.exp(-pre))
        c = sig[:4] * np.tanh(pre[8:12])
        assert np.allclose(lstm_forward(x, w)[0], sig[12:] * np.tanh(c), atol=1e-12)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            t = int(rng.integers(1, 8))
            i = int(rng.integers(1, 7))
            h = int(rng.integers(1, 7))
            w = _random_cell(rng, i, h)
            seq = rng.standard_normal((t, i))
            bidir = bool(rng.integers(0, 2))
            got = lstm_forward(seq, _twice(w) if bidir else w)
            want = naive_lstm_forward(seq, w.w_input[0], w.w_hidden[0], w.bias[0], bidirectional=bidir)
            assert np.max(np.abs(got - want)) < 1e-9

    def test_bidirectional_concatenates(self):
        rng = np.random.default_rng(3)
        w = _random_cell(rng, 2, 5)
        seq = rng.standard_normal((6, 2))
        uni = lstm_forward(seq, w)
        bi = lstm_forward(seq, _twice(w))
        assert bi.shape == (6, 10)
        assert np.array_equal(bi[:, :5], uni)

    def test_causality(self):
        # outputs before t0 cannot depend on inputs from t0 onward
        rng = np.random.default_rng(4)
        w = _random_cell(rng, 3, 4)
        seq = rng.standard_normal((8, 3))
        changed = seq.copy()
        changed[5:] += 10.0
        assert np.array_equal(lstm_forward(seq, w)[:5], lstm_forward(changed, w)[:5])

    def test_batch_rows_independent(self):
        rng = np.random.default_rng(5)
        w = _random_cell(rng, 3, 4)
        seqs = rng.standard_normal((4, 6, 3))
        batched = lstm_forward_batch(seqs, w)
        for b in range(4):
            assert np.allclose(batched[b], lstm_forward(seqs[b], w), atol=1e-12)

    def test_empty_sequence(self):
        w = _random_cell(np.random.default_rng(6), 3, 4)
        assert lstm_forward(np.zeros((0, 3)), w).shape == (0, 4)

    def test_projection_blocks_do_not_change_the_result(self, monkeypatch):
        # long sequences span several input-projection blocks
        rng = np.random.default_rng(19)
        w = _random_cell(rng, 2, 3, cells=4)
        seqs = rng.standard_normal((3, 40, 4))
        whole = lstm_forward_batch(seqs, w)
        monkeypatch.setattr("bsrnnlite.rnn.PROJECTION_ROWS", 7)
        assert np.allclose(lstm_forward_batch(seqs, w), whole, atol=1e-12)


class TestRearrange:
    def test_two_group_example(self):
        assert rearrange(np.array([1.0, 2.0, 3.0, 4.0]), 2).tolist() == [1.0, 3.0, 2.0, 4.0]

    def test_two_group_involution_on_square_width(self):
        # the transpose view is self-inverse exactly when C == g * g
        rng = np.random.default_rng(8)
        x = rng.standard_normal((7, 4))
        assert np.array_equal(rearrange(rearrange(x, 2), 2), x)

    def test_inverse_pair_for_general_width(self):
        # shuffling by g is undone by shuffling by C/g, any divisible width
        rng = np.random.default_rng(8)
        for c, g in ((12, 2), (12, 3), (10, 5), (16, 4)):
            x = rng.standard_normal((5, c))
            assert np.array_equal(rearrange(rearrange(x, g), c // g), x)

    def test_identity_for_one_group(self):
        x = np.random.default_rng(9).standard_normal((3, 8))
        assert np.array_equal(rearrange(x, 1), x)

    def test_is_a_permutation(self):
        x = np.arange(24.0)
        y = rearrange(x, 3)
        assert sorted(y.tolist()) == x.tolist()
        assert y.tolist() != x.tolist()

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError):
            rearrange(np.zeros(10), 3)


def _grouped(rng, groups, in_dim, hidden_dim, out_dim, bidirectional):
    dirs = 2 if bidirectional else 1
    return GroupedLayerWeights(
        norm_gamma=np.ones(in_dim),
        norm_beta=np.zeros(in_dim),
        cells=_random_cell(rng, in_dim // groups, hidden_dim // groups, groups * dirs),
        proj_weight=rng.uniform(-1, 1, (out_dim, dirs * hidden_dim)),
        proj_bias=rng.uniform(-1, 1, out_dim),
    )


class TestGrouped:
    """A multi-cell call equals per-cell calls of the same kernel, composed by hand."""

    def test_one_group_bitwise_equals_plain(self):
        rng = np.random.default_rng(10)
        w = _grouped(rng, 1, 6, 4, 6, bidirectional=False)
        seqs = rng.standard_normal((2, 9, 6))
        assert np.array_equal(lstm_forward_batch(seqs, w.cells), _by_hand(seqs, w.cells))

    def test_one_group_bidirectional_bitwise(self):
        rng = np.random.default_rng(11)
        cells = _random_cell(rng, 6, 4, cells=2)
        seq = rng.standard_normal((5, 6))
        fwd = lstm_forward(seq, one_cell(cells, 0))
        bwd = lstm_forward(seq[::-1], one_cell(cells, 1))[::-1]
        assert np.array_equal(lstm_forward(seq, cells), np.concatenate([fwd, bwd], axis=-1))

    def test_two_groups_match_manual_split(self):
        rng = np.random.default_rng(12)
        w = _grouped(rng, 2, 8, 6, 8, bidirectional=True)
        seq = rng.standard_normal((7, 8))
        parts = []
        for j in range(2):
            xj = seq[:, 4 * j : 4 * j + 4]
            fwd = lstm_forward(xj, one_cell(w.cells, 2 * j))
            bwd = lstm_forward(xj[::-1], one_cell(w.cells, 2 * j + 1))[::-1]
            parts.append(np.concatenate([fwd, bwd], axis=-1))
        manual = rearrange(np.concatenate(parts, axis=-1), 2)
        assert np.array_equal(lstm_forward(seq, w.cells), manual)

    @pytest.mark.parametrize("groups", [1, 2, 3])
    @pytest.mark.parametrize("dirs", [1, 2])
    def test_every_layout_matches_naive_and_per_cell_calls(self, groups, dirs):
        rng = np.random.default_rng(20 + 3 * groups + dirs)
        i, h, t = (int(v) for v in rng.integers(1, [5, 5, 8]))
        cells = _random_cell(rng, i, h, groups * dirs)
        seqs = rng.standard_normal((3, t, i * groups))
        got = lstm_forward_batch(seqs, cells)
        assert np.array_equal(got, _by_hand(seqs, cells))

        def naive(x, k):
            return np.stack([naive_lstm_forward(seq, cells.w_input[k], cells.w_hidden[k],
                                                cells.bias[k]) for seq in x])

        assert np.max(np.abs(got - compose_by_hand(seqs, cells, naive))) <= 1e-9

    def test_output_width_is_dirs_times_hidden(self):
        rng = np.random.default_rng(13)
        seq = rng.standard_normal((4, 8))
        assert lstm_forward(seq, _grouped(rng, 2, 8, 6, 8, False).cells).shape == (4, 6)
        assert lstm_forward(seq, _grouped(rng, 2, 8, 6, 8, True).cells).shape == (4, 12)

    def test_structure_validation(self):
        rng = np.random.default_rng(16)
        good = _random_cell(rng, 4, 3, cells=2)
        with pytest.raises(ConfigError):  # 3 cells cannot split into 2 groups
            GroupedLayerWeights(np.ones(8), np.zeros(8), _random_cell(rng, 4, 3, cells=3),
                                np.zeros((8, 9)), np.zeros(8))
        with pytest.raises(ConfigError):  # input width not a multiple of the cell's
            GroupedLayerWeights(np.ones(6), np.zeros(6), good, np.zeros((8, 6)), np.zeros(8))
        with pytest.raises(ConfigError):  # projection reads C * h channels
            GroupedLayerWeights(np.ones(8), np.zeros(8), good, np.zeros((8, 3)), np.zeros(8))
        with pytest.raises(ConfigError):  # one group of four directions
            lstm_forward(np.zeros((3, 4)), _random_cell(rng, 4, 3, cells=4))


class TestPointwise:
    def test_layer_norm_constant_rows_collapse_to_beta(self):
        beta = np.array([1.0, -2.0, 0.5])
        out = layer_norm(np.full((4, 3), 7.0), np.ones(3), beta)
        assert np.allclose(out, np.broadcast_to(beta, (4, 3)), atol=1e-12)

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((5, 8))
        out = layer_norm(x, np.ones(8), np.zeros(8))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)  # eps shrinks it slightly

    @staticmethod
    def _two_pass_norm(x, gamma, beta):
        out = x - x.mean(axis=-1, keepdims=True)
        out /= np.sqrt(np.square(out).mean(axis=-1, keepdims=True) + rnn.LN_EPSILON)
        return out * gamma + beta

    @pytest.mark.parametrize("shape", [(1, 1, 126), (5, 8), (rnn._NORM_ROWS, 3),
                                       (rnn._NORM_ROWS + 1, 7), (3, 301, 126)], ids=str)
    def test_layer_norm_blocks_match_two_pass_bitwise(self, shape):
        rng = np.random.default_rng(19)
        x = rng.standard_normal(shape) * 3.0 + 1.5
        gamma, beta = rng.standard_normal((2, shape[-1]))
        assert np.array_equal(layer_norm(x, gamma, beta), self._two_pass_norm(x, gamma, beta))

    def test_layer_norm_transposed_input_bitwise(self):
        # the band sublayer normalizes a [T x K x N] view of [K x T x N] features
        rng = np.random.default_rng(20)
        x = rng.standard_normal((23, 40, 126)).transpose(1, 0, 2)
        gamma, beta = rng.standard_normal((2, 126))
        out = layer_norm(x, gamma, beta)
        assert out.flags.c_contiguous
        assert np.array_equal(out, self._two_pass_norm(x, gamma, beta))

    def test_layer_norm_peak_is_output_plus_one_block(self):
        x = np.random.default_rng(21).standard_normal((40, 23, 126))
        gamma, beta = np.ones(126), np.zeros(126)
        layer_norm(x, gamma, beta)
        tracemalloc.start()
        try:
            layer_norm(x, gamma, beta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = rnn._NORM_ROWS * 126 * 8
        assert peak <= x.nbytes + block + 64 * 1024

    def test_dense_matches_manual_and_counts(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((3, 4, 5))
        w = rng.standard_normal((7, 5))
        b = rng.standard_normal(7)
        out = dense(x, w, b)
        assert np.allclose(out, np.einsum("bti,oi->bto", x, w) + b, atol=1e-12)
