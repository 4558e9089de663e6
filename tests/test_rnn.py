"""The stacked LSTM kernel, rearrangement, and the shared pointwise helpers."""

import concurrent.futures
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from bsrnnlite import ConfigError, rnn
from bsrnnlite.rnn import GroupedLayerWeights, LstmWeights
from bsrnnlite.rnn import dense, layer_norm, lstm_forward_batch

from reference import naive_lstm_forward
from util import compose_by_hand, lstm_forward, one_cell, rearrange

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")


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


class TestCarriedState:
    """``state=``: a sequence run as consecutive calls carrying the cells' state."""

    def test_empty_state_starts_from_zero(self):
        rng = np.random.default_rng(50)
        cells = _random_cell(rng, 3, 5, cells=2)
        seqs = rng.standard_normal((4, 7, 6))
        state = []
        got = lstm_forward_batch(seqs, cells, state=state)
        assert got.tobytes() == lstm_forward_batch(seqs, cells).tobytes()
        assert [part.shape for part in state] == [(2, 4, 5)] * 2
        # one direction, two groups: the last frame's channels are h[g] interleaved
        assert np.array_equal(got[:, -1].reshape(4, 5, 2).transpose(2, 0, 1), state[0])

    def test_two_calls_match_one_closely(self):
        rng = np.random.default_rng(51)
        cells = _random_cell(rng, 4, 6)
        seqs = rng.standard_normal((5, 20, 4))
        whole = lstm_forward_batch(seqs, cells)
        for cut in (1, 9, 19):
            state = []
            parts = [lstm_forward_batch(seqs[:, :cut], cells, state=state),
                     lstm_forward_batch(seqs[:, cut:], cells, state=state)]
            assert np.allclose(np.concatenate(parts, axis=1), whole, rtol=0, atol=1e-14)

    def test_state_shape_checked(self):
        rng = np.random.default_rng(52)
        cells = _random_cell(rng, 3, 5)
        with pytest.raises(ConfigError, match="state"):
            lstm_forward_batch(np.zeros((4, 2, 3)), cells, state=[np.zeros((1, 3, 5))] * 2)

    @pytest.mark.parametrize("dtype, other", [(np.float32, np.float64), (np.float64, np.float32)])
    def test_state_dtype_checked(self, dtype, other):
        # the in-place updates would silently mix a state of another dtype into the call's
        cells = _random_cell(np.random.default_rng(53), 3, 5)
        seqs = np.zeros((4, 2, 3), dtype)
        for state in ([np.zeros((1, 4, 5), other) for _ in "hc"],
                      [np.zeros((1, 4, 5), dtype), np.zeros((1, 4, 5), other)]):
            before = [part.copy() for part in state]
            with pytest.raises(ConfigError, match="state"):
                lstm_forward_batch(seqs, cells, state=state)
            assert all(np.array_equal(a, b) for a, b in zip(state, before))
        state = []
        lstm_forward_batch(seqs, cells, state=state)
        assert [part.dtype for part in state] == [np.dtype(dtype)] * 2

    def test_split_at_every_frame_bitwise_on_one_blas_thread(self):
        # a subprocess, so the BLAS starts pinned to one thread whatever this process runs.
        # Shapes: a canonical time RNN (23 bands, h 72), its two-group form, and a
        # band-RNN-sized batch that splits over two workers, each share carrying its rows.
        script = textwrap.dedent("""
            import numpy as np
            from bsrnnlite import rnn
            from bsrnnlite.rnn import LstmWeights, lstm_forward_batch
            rng = np.random.default_rng(0)
            cuts = bad = 0
            for b, i, h, g, workers in ((23, 126, 72, 1, 1), (23, 63, 36, 2, 1), (96, 24, 8, 1, 2)):
                rnn._WORKERS = workers
                cells = LstmWeights(*(rng.uniform(-1, 1, (g, 4 * h) + tail).astype(np.float32)
                                      for tail in ((i,), (h,), ())))
                seqs = rng.standard_normal((b, 40, g * i))
                whole_state = []
                whole = lstm_forward_batch(seqs, cells, state=whole_state)
                for cut in range(1, 40):
                    state = []
                    parts = [lstm_forward_batch(seqs[:, :cut], cells, state=state),
                             lstm_forward_batch(seqs[:, cut:], cells, state=state)]
                    cuts += 1
                    bad += np.concatenate(parts, axis=1).tobytes() != whole.tobytes()
                    bad += any(a.tobytes() != w.tobytes() for a, w in zip(state, whole_state))
            print(cuts, bad)
        """)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        assert tuple(map(int, done.stdout.split())) == (3 * 39, 0)


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
        with pytest.raises(ConfigError):  # one group of four directions
            lstm_forward(np.zeros((3, 4)), _random_cell(rng, 4, 3, cells=4))



class TestRowSplit:
    """Batch rows split over threads: same bytes, whole shares, no stray writes."""

    @pytest.mark.parametrize("environ, one", [
        ({}, False),
        ({"OPENBLAS_NUM_THREADS": "1"}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": " 1 "}, True),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, False),
        ({"MKL_NUM_THREADS": "4"}, False),
        ({"OMP_NUM_THREADS": ""}, False),
    ])
    def test_splits_only_on_one_blas_thread(self, environ, one):
        # a multi-threaded or unpinned BLAS already uses the CPUs and may sum a row
        # differently as a GEMM's row count changes, so the kernel keeps one thread there
        assert rnn._one_blas_thread(environ) is one

    @staticmethod
    def _record_shares(monkeypatch):
        shares = []
        real = rnn._run_rows

        def run_rows(*args):
            shares.append(args[-2:])
            real(*args)

        monkeypatch.setattr(rnn, "_run_rows", run_rows)
        return shares

    @pytest.mark.parametrize("groups, dirs", [(1, 1), (1, 2), (2, 2), (3, 1)])
    def test_shares_are_bitwise_equal_to_one_thread(self, groups, dirs, force_workers, monkeypatch):
        rng = np.random.default_rng(30 + 2 * groups + dirs)
        cells = _random_cell(rng, 5, 8, groups * dirs)
        shares = self._record_shares(monkeypatch)
        # 47 rows split nowhere; 49 (odd) split once; 73 leaves a remainder share at 3 workers
        for b, split in ((47, {2: [(0, 47)], 3: [(0, 47)]}),
                         (49, {2: [(0, 24), (24, 49)], 3: [(0, 24), (24, 49)]}),
                         (73, {2: [(0, 36), (36, 73)], 3: [(0, 24), (24, 48), (48, 73)]})):
            seqs = rng.standard_normal((b, 9, 5 * groups))
            force_workers(1)
            one = lstm_forward_batch(seqs, cells)
            for count in (2, 3):
                force_workers(count)
                shares.clear()
                assert lstm_forward_batch(seqs, cells).tobytes() == one.tobytes()
                assert sorted(shares) == split[count]

    def test_fewer_than_two_shares_create_no_pool(self, force_workers):
        cells = _random_cell(np.random.default_rng(40), 3, 8)
        force_workers(3)
        lstm_forward_batch(np.zeros((2 * rnn.MIN_SHARE_ROWS - 1, 4, 3)), cells)
        assert rnn._POOL is None
        lstm_forward_batch(np.zeros((2 * rnn.MIN_SHARE_ROWS, 4, 3)), cells)
        assert rnn._POOL is not None

    @pytest.mark.parametrize("hidden", [4, 7, 9], ids=lambda h: f"h{h}")
    def test_narrow_or_odd_gates_never_split(self, hidden, force_workers):
        # gate widths 16, 28 and 36: below 32, or not a multiple of 8
        cells = _random_cell(np.random.default_rng(43), 3, hidden)
        force_workers(3)
        lstm_forward_batch(np.zeros((200, 2, 3)), cells)
        assert rnn._POOL is None

    def test_bitwise_over_a_shape_grid_on_one_blas_thread(self):
        # a subprocess, so the BLAS starts pinned to one thread whatever this process runs
        script = textwrap.dedent("""
            import itertools
            import numpy as np
            from bsrnnlite import rnn
            from bsrnnlite.rnn import LstmWeights, lstm_forward_batch
            rng = np.random.default_rng(0)
            split = bad = 0
            starts, real = [], rnn._run_rows
            rnn._run_rows = lambda *args: (starts.append(args[-2]), real(*args))
            for h, i, (g, d) in itertools.product(
                    (1, 2, 3, 4, 5, 8, 10, 12, 14, 18, 21, 36, 37, 72), (5, 126, 252),
                    ((1, 1), (1, 2), (2, 2), (4, 1))):
                cells = LstmWeights(*(rng.uniform(-1, 1, (g * d, 4 * h) + tail).astype(np.float32)
                                      for tail in ((i,), (h,), ())))
                for b in (48, 73, 193, 626):
                    seqs = rng.standard_normal((b, 3, g * i))
                    rnn._WORKERS = 1
                    one = lstm_forward_batch(seqs, cells).tobytes()
                    for workers in (2, 3):
                        rnn._WORKERS = workers
                        starts.clear()
                        bad += lstm_forward_batch(seqs, cells).tobytes() != one
                        split += max(starts) > 0
            print(split, bad)
        """)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        split, bad = map(int, done.stdout.split())
        # h = 8, 10, 12, 14, 18, 36 and 72 split at every i, layout, batch and worker count
        assert (split, bad) == (7 * 3 * 4 * 4 * 2, 0)

    def test_unsplit_calls_project_ahead_bitwise_on_one_blas_thread(self):
        # a subprocess, so the BLAS starts pinned to one thread whatever this process runs.
        # Each call runs unsplit over several projection blocks, so at 2 and 3 workers the
        # pool projects every next block; the output and the carried (h, c) must not move.
        script = textwrap.dedent("""
            import numpy as np
            from bsrnnlite import rnn
            from bsrnnlite.rnn import LstmWeights, lstm_forward_batch
            rng = np.random.default_rng(3)
            submits, real = [], rnn._pool
            rnn._pool = lambda: (submits.append(rnn._WORKERS), real())[1]
            bad = 0
            # (rows, steps, cut, groups, dirs, h, i): a canonical time RNN over 256 steps,
            # cut so that both calls end on a short block; 24-47 bidirectional rows; two
            # GR cells of h 36; an odd h, which never splits, on 60 rows
            for b, t, cut, g, d, h, i in ((23, 256, 100, 1, 1, 72, 126),
                                          (24, 60, 31, 1, 2, 72, 126),
                                          (35, 60, 29, 1, 2, 72, 126),
                                          (47, 60, 30, 1, 2, 72, 126),
                                          (23, 90, 45, 2, 1, 36, 63),
                                          (60, 40, 17, 1, 2, 21, 9)):
                cells = LstmWeights(*(rng.uniform(-1, 1, (g * d, 4 * h) + tail).astype(np.float32)
                                      for tail in ((i,), (h,), ())))
                seqs = rng.standard_normal((b, t, g * i))
                runs = []
                for workers in (1, 2, 3):
                    rnn._WORKERS = workers
                    state = []
                    out = [lstm_forward_batch(seqs[:, :cut], cells, state=state),
                           lstm_forward_batch(seqs[:, cut:], cells, state=state)]
                    runs.append(b"".join(part.tobytes() for part in out + state))
                bad += runs[1] != runs[0] or runs[2] != runs[0]
            print(bad, sorted(set(submits)))
        """)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        assert done.stdout.split() == ["0", "[2,", "3]"]

    def test_concurrent_callers_share_one_pool(self, force_workers, monkeypatch):
        made = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
        rng = np.random.default_rng(42)
        cells = _random_cell(rng, 3, 8, cells=2)
        seqs = rng.standard_normal((4, 4 * rnn.MIN_SHARE_ROWS, 3, 3))
        force_workers(1)
        want = [lstm_forward_batch(s, cells).tobytes() for s in seqs]
        force_workers(4)  # more threads than this host's CPUs
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(6) as callers:
                got = list(callers.map(lambda k: lstm_forward_batch(seqs[k % 4], cells).tobytes(),
                                       range(24)))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want[k % 4] for k in range(24)]
        assert len(made) == 1

    @pytest.mark.parametrize("failing", [0, 64], ids=["caller", "worker"])
    def test_error_reaches_caller_after_every_share(self, failing, force_workers, monkeypatch):
        real = rnn._run_rows
        finished = []

        def run_rows(*args):
            lo = args[-2]
            if lo == failing:
                raise RuntimeError(f"share at row {lo} failed")
            time.sleep(0.2)  # outlast the failure
            real(*args)
            finished.append(lo)

        monkeypatch.setattr(rnn, "_run_rows", run_rows)
        force_workers(3)
        cells = _random_cell(np.random.default_rng(41), 3, 8)
        with pytest.raises(RuntimeError, match=f"row {failing} failed"):
            lstm_forward_batch(np.zeros((192, 4, 3)), cells)
        assert sorted(finished) == sorted({0, 64, 128} - {failing})


class TestGatheredOracle:
    """The kernel against its first vectorised form, byte for byte (``reference``)."""

    def test_bitwise_over_a_shape_grid_on_one_blas_thread(self):
        # a subprocess, so the BLAS starts pinned to one thread whatever this process runs
        script = textwrap.dedent("""
            import itertools
            import numpy as np
            from bsrnnlite import rnn
            from bsrnnlite.rnn import LstmWeights, lstm_forward_batch
            from reference import gathered_lstm_forward_batch
            rng = np.random.default_rng(7)
            shares, real = [], rnn._run_rows
            rnn._run_rows = lambda *args: (shares.append(args[-2:]), real(*args))
            runs = split = bad = 0
            for h, (g, d), rows in itertools.product(
                    (1, 2, 3, 4, 5, 8, 21, 36, 37, 72),
                    ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1)), (7, 512)):
                i = int(rng.integers(1, 40))
                dtype = np.float64 if rows == 7 else np.float32
                cells = LstmWeights(*(rng.uniform(-1, 1, (g * d, 4 * h) + tail).astype(dtype)
                                      for tail in ((i,), (h,), ())))
                rnn.PROJECTION_ROWS = rows
                for (b, t), workers, carried in itertools.product(
                        ((1, 26), (49, 9), (73, 3)), (1, 2, 3), (False, True)):
                    seqs = rng.standard_normal((b, t, g * i))
                    start = [rng.standard_normal((g * d, b, h)) for _ in "hc"]
                    state, want_state = ([a.copy() for a in start] if carried else None
                                         for _ in "ko")
                    rnn._WORKERS = workers
                    shares.clear()
                    got = lstm_forward_batch(seqs, cells, state=state)
                    want = gathered_lstm_forward_batch(seqs, cells, sorted(shares),
                                                       state=want_state, projection_rows=rows)
                    runs += 1
                    split += len(shares) > 1
                    bad += got.tobytes() != want.tobytes() or carried and any(
                        a.tobytes() != z.tobytes() for a, z in zip(state, want_state))
            print(runs, split, bad)
        """)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, TESTS, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        runs, split, bad = map(int, done.stdout.split())
        # h = 8, 36 and 72 split 49 and 73 rows at 2 and 3 workers
        assert (runs, split, bad) == (10 * 5 * 2 * 3 * 3 * 2, 3 * 5 * 2 * 2 * 2 * 2, 0)


class TestRowMajorDenseOracle:
    """``dense`` against its per-slice, row-major form (``reference.row_major_dense``)."""

    def test_bitwise_over_a_shape_grid_on_one_blas_thread(self):
        # a subprocess, so the BLAS starts pinned to one thread whatever this process runs
        script = textwrap.dedent("""
            import itertools
            import numpy as np
            from bsrnnlite import rnn
            from bsrnnlite.rnn import dense
            from reference import row_major_dense
            rng = np.random.default_rng(11)
            shares, real = [], rnn._share
            rnn._share = lambda run, lo, hi: (shares.append((lo, hi)), real(run, lo, hi))
            runs = split = bad = 0
            worst = 0.0
            for width, rows, ndim, strided in itertools.product(
                    (1, 3, 7, 8, 16, 17, 21, 33, 64, 126), range(1, 41), (2, 3), (False, True)):
                n_in = int(rng.integers(1, 160))
                w, b = rng.uniform(-1, 1, (width, n_in)).astype(np.float32), rng.uniform(-1, 1, width)
                # wide, tall slices come in enough of them for three shares
                slices = (-(-3 * rnn.MIN_SHARE_ELEMENTS // (rows * width))
                          if width >= 64 and rows >= 20 else int(rng.integers(1, 9)))
                shape = (rows, n_in) if ndim == 2 else (slices, rows, n_in)
                x = rng.standard_normal(shape[:-1] + (n_in + 3 * strided,))[..., :n_in]
                want = row_major_dense(x, w, b)
                # README "Threads": where a flat GEMM may sum unlike per-slice row-major ones
                near = ndim == 3 and (rows <= 16 or width < 64 or 1 <= width % 8 <= 4)
                for workers in (1, 2, 3):
                    rnn._WORKERS = workers
                    shares.clear()
                    got = dense(x, w, b)
                    runs += 1
                    split += len(shares) > 1
                    if near:
                        worst = max(worst, np.max(np.abs(got - want)) / np.max(np.abs(want)))
                    else:
                        bad += got.tobytes() != want.tobytes()
            print(runs, split, bad, worst)
        """)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [SRC, TESTS, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=600, check=True)
        runs, split, bad, worst = done.stdout.split()
        # widths 64 and 126 at 20-40 rows split in two and in three at 2 and 3 workers
        assert (int(runs), int(split), int(bad)) == (10 * 40 * 2 * 2 * 3, 2 * 21 * 2 * 2, 0)
        assert float(worst) <= 1e-12  # test_dense_is_x_times_weight_transposed_plus_bias's bound


class TestHelperSplit:
    """``layer_norm`` and ``dense`` split over their first axis: same bytes."""

    @pytest.mark.parametrize("frames", [22, 46, 91], ids=lambda t: f"T{t}")
    def test_norm_and_dense_bitwise_at_one_two_and_three_workers(self, frames, force_workers,
                                                                 split_shares):
        # [23 x T x 126] with 2**16-element shares: 22 frames split nowhere, 46 once, 91
        # into 7/8/8 bands at 3 workers; flattened to 2-D, into rows alike
        rng = np.random.default_rng(23 + frames)
        x = rng.standard_normal((23, frames, 126))
        gamma, beta = rng.standard_normal((2, 126))
        w, b = rng.standard_normal((126, 144)).astype(np.float32), rng.standard_normal(126)
        hidden = rng.standard_normal((frames, 23, 144))
        calls = (lambda: layer_norm(x, gamma, beta),
                 lambda: layer_norm(x.transpose(1, 0, 2), gamma, beta),
                 lambda: layer_norm(x.reshape(-1, 126), gamma, beta),
                 lambda: dense(hidden, w, b),
                 lambda: dense(hidden.reshape(-1, 144), w, b),
                 lambda: dense(x[:, :, :72], w[:, :72], b))
        force_workers(1)
        want = [call().tobytes() for call in calls]
        for count in (2, 3):
            force_workers(count)
            assert [call().tobytes() for call in calls] == want
        sizes = {hi - lo for lo, hi in split_shares}
        assert bool(sizes) is (frames > 22)
        if frames == 91:
            assert {7, 8} <= sizes

    def test_one_column_dense_never_splits(self, force_workers, split_shares):
        # numpy runs a one-column output as a GEMV, whose row sums depend on where a share
        # starts: split in three, these rows changed bytes on one OpenBLAS 0.3.31 thread
        rng = np.random.default_rng(25)
        x = rng.standard_normal((5 * 2**16, 8))
        w, b = rng.standard_normal((1, 8)).astype(np.float32), rng.standard_normal(1)
        force_workers(1)
        want = dense(x, w, b).tobytes()
        for count in (2, 3):
            force_workers(count)
            assert dense(x, w, b).tobytes() == want
        assert split_shares == []

    def test_split_inside_a_share_runs_inline(self, force_workers, split_shares):
        # with two workers the pool has one thread: a share that waited on a nested split
        # could wait for itself
        rng = np.random.default_rng(24)
        x = rng.standard_normal((4, 300, 126))  # 151,200 elements: two shares on its own
        gamma, beta = rng.standard_normal((2, 126))
        force_workers(1)
        want = layer_norm(x, gamma, beta).tobytes()
        force_workers(2)
        split_shares.clear()
        got = {}

        def outer(lo, hi):
            for k in range(lo, hi):
                got[k] = (threading.get_ident(), layer_norm(x, gamma, beta).tobytes())

        caller = threading.Thread(target=rnn._split, args=(outer, 2, 2), daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive(), "a nested split waited on the pool"
        assert sorted(split_shares) == [(0, 1), (1, 2)]  # the two outer shares, nothing nested
        assert got[0][0] != got[1][0] and {got[0][1], got[1][1]} == {want}


class TestComputeDtype:
    """Each kernel computes in its input's dtype: float32 stays float32, else float64."""

    @staticmethod
    def _calls(rng):
        gamma, beta = rng.standard_normal((2, 12)).astype(np.float32)
        w, b = rng.uniform(-0.3, 0.3, (7, 12)).astype(np.float32), rng.standard_normal(7)
        cell = _random_cell(rng, 6, 8, cells=4)  # two groups, both directions
        cells = LstmWeights(*(a.astype(np.float32)
                              for a in (cell.w_input, cell.w_hidden, cell.bias)))
        return (lambda x: layer_norm(x, gamma, beta), lambda x: dense(x, w, b),
                lambda x: lstm_forward_batch(x, cells))

    @pytest.mark.parametrize("dtype, computed", [(np.float32, np.float32), (np.float64, np.float64),
                                                 (np.float16, np.float64), (np.int32, np.float64)])
    def test_output_dtype(self, dtype, computed):
        rng = np.random.default_rng(60)
        x = (rng.standard_normal((5, 9, 12)) * 4).astype(dtype)
        for call in self._calls(rng):
            got = call(x)
            assert got.dtype == computed
            # anything but float32 runs exactly as its float64 cast
            if computed == np.float64:
                assert got.tobytes() == call(x.astype(np.float64)).tobytes()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_float32_close_to_float64_at_one_two_and_three_workers(self, workers, force_workers):
        # 96 rows, gates 32 wide: the kernel, the norm and the projection split at 2 and 3
        rng = np.random.default_rng(61)
        x = rng.standard_normal((96, 700, 12)).astype(np.float32)
        force_workers(workers)
        for call in self._calls(rng):
            got, want = call(x), call(x.astype(np.float64))
            assert np.max(np.abs(got - want)) <= 1e-5 * np.max(np.abs(want))

    def test_float32_dense_reads_the_stored_weight(self):
        rng = np.random.default_rng(62)
        x = rng.standard_normal((4, 6, 12)).astype(np.float32)
        w, b = (rng.standard_normal(shape).astype(np.float32) for shape in ((7, 12), 7))
        want = (x.reshape(-1, 12) @ w.T + b).reshape(4, 6, 7)
        assert dense(x, w, b).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dense_is_x_times_weight_transposed_plus_bias(self, dtype):
        rng = np.random.default_rng(22)
        w, b = rng.standard_normal((126, 144)).astype(dtype), rng.standard_normal(126)
        for x in (rng.standard_normal((9, 144)), rng.standard_normal((3, 23, 144))):
            want = x @ w.astype(np.float64).T + b
            assert np.max(np.abs(dense(x, w, b) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_dense_matches_manual_and_counts(self):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((3, 4, 5))
        w = rng.standard_normal((7, 5))
        b = rng.standard_normal(7)
        out = dense(x, w, b)
        assert np.allclose(out, np.einsum("bti,oi->bto", x, w) + b, atol=1e-12)
