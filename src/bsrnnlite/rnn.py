"""Recurrent kernel: stacked LSTM cells with an optional carried state.

Also hosts the two small helpers (layer norm, dense projection) shared by
the sublayers, the band split and the mask head. Every multiply-accumulate
in the network is a matmul against a loaded weight matrix, once per row,
which is how :func:`bsrnnlite.macs.count_forward` prices it.

Gate order along the stacked 4H axis is (input, forget, cell, output) in
every stored weight. The network computes in float64. A model keeps its
weights in the dtype they were stored in (float32 from a weights file), and
the kernels upcast them to float64 at use, which is exact, so every sum is
as in float64. The recurrent kernel's upcast also reorders the gates to
(cell, input, forget, output) and halves the three sigmoid gates' rows, so
that a step runs one ``tanh`` over all gates in place; this is exact too,
bar subnormal sums (see :func:`lstm_forward_batch`).

Threads: :func:`_split` runs the kernel's batch rows, the first axis of a
3-D :func:`layer_norm` or :func:`dense`, and the mask head's bands in
shares over the CPUs, with outputs bitwise those of one thread.

Stacked cell layout: all cells of one RNN sublayer, g groups of one or two
directions, live in one :class:`LstmWeights` whose arrays carry a leading
cell axis of length C = g * dirs in (group, direction) order. Cell
``j * dirs + d`` reads input channels ``[j * I/g, (j + 1) * I/g)``, in
forward time for d = 0 and in reverse time for d = 1. The kernel works
out g from the input width (I / (I/g)) and dirs from C / g, runs every
cell in one time loop, and writes each hidden state straight to its
channel of the group-shuffled order, so no shuffle copy is made: the C
channels, viewed as ``[g x C/g]``, transposed and flattened, so that
information crosses group boundaries between grouped layers.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError

LN_EPSILON = 1e-5

#: rows (batch x steps) of each cell's input projection per block. It bounds
#: the projection buffer whatever the sequence length. Blocks depend on the
#: batch size only, so a multi-cell call projects the same rows together as
#: one call per cell does, and the two agree bitwise.
PROJECTION_ROWS = 512

#: rows per :func:`layer_norm` variance block; each row reduces alone, so blocks change no bit
_NORM_ROWS = 256

#: fewest batch rows in one share of a :func:`lstm_forward_batch` call. A
#: smaller share pays a whole time loop's per-step overhead for little
#: arithmetic: on one BLAS thread and two CPUs, 48-94 rows ran 1.1-1.8x
#: faster split in two, 24-32 rows 0.76-0.99x.
MIN_SHARE_ROWS = 24
#: narrowest cell gate width (4 x the cell's hidden dim) :func:`lstm_forward_batch`
#: splits; the width must also be a multiple of 8. Other GEMMs may take a BLAS
#: small-matrix path whose row sums depend on the row count: on one OpenBLAS
#: thread a sweep found mismatches at widths of 16 or less and at every odd h
#: from 21 to 45, and none at even h from 8 to 72.
MIN_SPLIT_GATES = 32
#: fewest elements in one share of a 3-D :func:`layer_norm` or :func:`dense`
#: output or of :func:`bsrnnlite.bands.estimate_mask`'s input. Split in two on
#: two CPUs, norms and projections ran 1.3x or faster from 2 x 2**16
#: elements, norms of 2**16 to 2**17 elements 0.74-1.06x, and the mask head
#: of 19 frames (55k elements) 0.77x.
MIN_SHARE_ELEMENTS = 2**16


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


#: the BLAS thread variables; the kernel splits only when they pin the BLAS to one thread
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _one_blas_thread(environ=os.environ) -> bool:
    """True when a BLAS thread variable is set and every one that is set reads 1."""
    values = [environ[var].strip() for var in _BLAS_THREAD_VARS if var in environ]
    return bool(values) and all(value == "1" for value in values)


#: CPUs this process may run on
_CPUS = _cpu_count()
#: threads one split call may use: every CPU when each GEMM runs on one BLAS
#: thread, else one, as a multi-threaded BLAS already uses the CPUs and its row
#: sums may depend on the GEMM's row count
_WORKERS = _CPUS if _one_blas_thread() else 1
_POOL = None
_POOL_LOCK = threading.Lock()
#: ``.share`` is true while this thread runs a share of a split call
_LOCAL = threading.local()


def _pool():
    """The module's thread pool, created at the first split."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # imported here, not at the top: concurrent.futures loads logging, ~9 ms
            from concurrent.futures import ThreadPoolExecutor

            _POOL = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="bsrnnlite")
        return _POOL


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads: start a new pool."""
    global _POOL, _POOL_LOCK
    _POOL, _POOL_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _split(run, n: int, shares: int) -> None:
    """Run ``run(lo, hi)`` over contiguous shares of ``range(n)``, at most one per worker.

    ``shares`` is the most the caller's floor allows. The calling thread runs
    the first share and the pool the rest; each share writes its slice of an
    output the caller allocated. A split call made inside a share runs inline:
    with two workers the pool has one thread, so a nested wait could deadlock.
    """
    shares = min(_WORKERS, shares, n)
    if shares < 2 or getattr(_LOCAL, "share", False):
        run(0, n)
        return
    from concurrent.futures import wait

    bounds = [n * k // shares for k in range(shares + 1)]
    pool = _pool()
    futures = [pool.submit(_share, run, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        _share(run, 0, bounds[1])
    finally:
        # no thread may still write into the output once this call ends, even by raising
        wait(futures)
    for future in futures:
        future.result()


def _share(run, lo, hi):
    _LOCAL.share = True
    try:
        run(lo, hi)
    finally:
        _LOCAL.share = False


def _row_major(weight: np.ndarray) -> np.ndarray:
    """``weight`` with its last two axes swapped, as a C-contiguous float64 copy.

    On one OpenBLAS thread, ``[23 x 72] @ [72 x 288]`` (a time-RNN step) and
    ``[23 x 144] @ [144 x 126]`` (a band-orientation projection) ran 1.6x
    and 1.7x faster on row-major operands than on a transposed view, with
    the same sums; GEMMs of 313 rows or more ran within 6%.
    """
    return np.ascontiguousarray(weight.swapaxes(-1, -2), dtype=np.float64)


def layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Normalize over the last axis, then apply the affine (gamma, beta).

    A 3-D input is split over its first axis (:func:`_split`); every row
    reduces alone, so shares change no bit.
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty(x.shape)

    def run(lo, hi):
        part = np.subtract(x[lo:hi], x[lo:hi].mean(axis=-1, keepdims=True), out=out[lo:hi])
        rows = part.reshape(-1, part.shape[-1])
        for block in (rows[i : i + _NORM_ROWS] for i in range(0, len(rows), _NORM_ROWS)):
            block /= np.sqrt(np.square(block).mean(axis=-1, keepdims=True) + LN_EPSILON)
        part *= gamma
        part += beta

    _split(run, len(x), out.size // MIN_SHARE_ELEMENTS if x.ndim == 3 else 1)
    return out


def dense(x, weight, bias):
    """Affine map on the last axis: ``x @ weight.T + bias``, ``weight`` ``[out x in]``.

    A 3-D input runs one GEMM per slice of its first axis, as ``matmul``
    does, on a row-major copy of ``weight``, and is split over that axis
    (:func:`_split`). A 2-D input runs one GEMM of all its rows, which a
    transposed copy would not speed up.
    """
    if x.ndim != 3:
        out = x @ weight.astype(np.float64, copy=False).T
        out += bias
        return out
    weight = _row_major(weight)
    out = np.empty(x.shape[:-1] + weight.shape[1:])

    def run(lo, hi):
        np.matmul(x[lo:hi], weight, out=out[lo:hi])
        out[lo:hi] += bias

    _split(run, len(x), out.size // MIN_SHARE_ELEMENTS)
    return out


@dataclass(frozen=True)
class LstmWeights:
    """The stacked cells of one LSTM sublayer (see the module docstring).

    ``w_input`` is ``[C x 4h x i]``, ``w_hidden`` ``[C x 4h x h]``, ``bias``
    ``[C x 4h]``, with gates stacked (i, f, g, o) within each cell. The
    shapes are not checked here: ``model.build`` checks every tensor against
    the config's layout.
    """

    w_input: np.ndarray
    w_hidden: np.ndarray
    bias: np.ndarray

    @property
    def cell_count(self) -> int:
        return self.w_hidden.shape[0]

    @property
    def input_dim(self) -> int:
        return self.w_input.shape[2]

    @property
    def hidden_dim(self) -> int:
        return self.w_hidden.shape[2]


def _cell_layout(width: int, cells: LstmWeights):
    """``(groups, dirs)`` of ``cells`` on a ``width``-channel input."""
    groups, rest = divmod(width, cells.input_dim)
    if rest or not groups or cells.cell_count % groups or cells.cell_count // groups > 2:
        raise ConfigError(
            f"{cells.cell_count} cells of input dim {cells.input_dim} do not split "
            f"{width} channels into groups of one or two directions"
        )
    return groups, cells.cell_count // groups


def _working_order(gates: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``gates`` [..., 4h], stored (i, f, g, o), written to ``out`` in float64 in
    the kernel's working order (g, i, f, o), the three sigmoid gates' rows halved."""
    h = gates.shape[-1] // 4
    out[..., :h] = gates[..., 2 * h : 3 * h]
    np.multiply(gates[..., : 2 * h], 0.5, out=out[..., h : 3 * h], dtype=np.float64)
    np.multiply(gates[..., 3 * h :], 0.5, out=out[..., 3 * h :], dtype=np.float64)
    return out


def lstm_forward_batch(seqs: np.ndarray, cells: LstmWeights, *, state=None):
    """Every cell of one sublayer over a batch of sequences, in one time loop.

    ``seqs`` is ``[B x T x I]``; returns the shuffled hidden states
    ``[B x T x C*h]``. The input projection (bias folded in) runs in blocks
    of :data:`PROJECTION_ROWS` rows ahead of the steps that use it; only the
    recurrent matmul runs per step, one for all cells.

    ``state``, a list, carries the cells' state from call to call: empty,
    the cells start from zero, as without it; else it holds ``h`` and ``c``,
    two ``[C x B x h]`` float64 arrays, to start from. The call leaves the
    state after its last step in it. A sequence cut in two and run as two
    calls carrying one list gives the rows of one call over the whole.

    The weights keep their stored gate order (i, f, g, o). Each call makes
    float64 copies in the working order (g, i, f, o) with the rows of the
    three sigmoid gates multiplied by 0.5, so that a step runs one ``tanh``
    over all 4h gates and turns the last 3h into sigmoids as
    ``0.5 * tanh(x / 2) + 0.5``, in place. Scaling by a power of two
    commutes with rounding, so every halved sum is exactly half the
    unhalved one, and the output is bitwise that of the stored order with
    an explicit ``tanh(0.5 * x)``, except where a sum falls into the
    subnormal range (|x| < 2**-1022), where halving can round. The order
    keeps o last: when 4h is not a multiple of 8 (h odd), OpenBLAS sums the
    last 4h mod 8 columns of the recurrent GEMM with another micro-kernel,
    so those columns must stay the stored order's last ones to keep their
    bits; (i, f, o, g) differed there in the last place at h = 21 and 37.

    The rows are independent sequences, split over threads by :func:`_split`
    into shares of at least :data:`MIN_SHARE_ROWS` rows when the cells' gates
    are at least :data:`MIN_SPLIT_GATES` wide and a multiple of 8 wide (h
    even). On one BLAS thread such a GEMM gives each row the same sums
    whatever its row count, so the output is bitwise equal to one thread's.
    """
    b, t, width = seqs.shape
    groups, dirs = _cell_layout(width, cells)
    n, i, h = cells.cell_count, cells.input_dim, cells.hidden_dim
    state = [] if state is None else state
    if not state:
        state[:] = [np.zeros((n, b, h)) for _ in "hc"]
    if [part.shape for part in state] != [(n, b, h)] * 2:
        raise ConfigError(f"state must hold two [{n} x {b} x {h}] arrays, "
                          f"got {[part.shape for part in state]}")
    # one upcast per call, into the working order, nothing cached: the loop casts
    # nothing. The recurrent matmul, as few rows as the batch, runs on a row-major
    # copy; the projection's blocks are large and read a transposed one.
    weights = (_working_order(cells.w_input.swapaxes(1, 2), np.empty((n, 4 * h, i)).swapaxes(1, 2)),
               _working_order(cells.w_hidden.swapaxes(1, 2), np.empty((n, h, 4 * h))),
               _working_order(cells.bias[:, None], np.empty((n, 1, 4 * h))))
    # [dirs x h x groups] per position is the group-shuffled channel order
    out = np.empty((b, t, dirs, h, groups))
    run = partial(_run_rows, seqs.reshape(b, t, groups, i).swapaxes(0, 1), out, weights,
                  max(1, PROJECTION_ROWS // max(b, 1)), state)
    _split(run, b, b // MIN_SHARE_ROWS if 4 * h >= MIN_SPLIT_GATES and h % 2 == 0 else 1)
    return out.reshape(b, t, dirs * h * groups)


def _run_rows(frames, out, weights, block, carry, lo, hi):
    """The projection blocks and time loop for batch rows ``[lo, hi)`` of the
    frame-major input ``frames`` ``[T x B x groups x i]``, from the rows of
    the state pair ``carry`` into ``out`` and back into ``carry``. A block's
    hidden states collect step-major in ``hs`` and go to ``out`` once per
    direction."""
    w_input, w_hidden, bias = weights
    frames, out = frames[:, lo:hi], out[lo:hi]
    t, rows, groups, i = frames.shape
    n, h, dirs = w_hidden.shape[0], w_hidden.shape[1], out.shape[2]
    size = min(block, t)
    xs = np.empty((groups, dirs, size, rows, i))
    gates_x = np.empty((n, size, rows, 4 * h))
    hs = np.empty((size, n, rows, h))
    gates = np.empty((n, rows, 4 * h))
    g_gate, sigmoids, i_gate, f_gate, o_gate = (gates[..., first * h : last * h] for first, last
                                                 in ((0, 1), (1, 4), (1, 2), (2, 3), (3, 4)))
    state, c = (np.array(part[:, lo:hi]) for part in carry)
    for start in range(0, t, block):
        steps = min(block, t - start)
        # the frames direction d reads in this block; a backward cell reads them last first
        spans = (slice(start, start + steps), slice(t - start - steps, t - start))
        for d in range(dirs):
            xs[:, d, :steps] = frames[spans[d]][:: 1 - 2 * d].transpose(2, 0, 1, 3)
        x = xs[:, :, :steps].reshape(n, steps * rows, i)
        projected = gates_x[:, :steps].reshape(n, steps * rows, 4 * h)
        np.matmul(x, w_input, out=projected)
        projected += bias
        for s in range(steps):
            np.matmul(state, w_hidden, out=gates)
            gates += gates_x[:, s]
            np.tanh(gates, out=gates)
            sigmoids *= 0.5
            sigmoids += 0.5
            c *= f_gate
            i_gate *= g_gate
            c += i_gate
            state = hs[s]
            np.tanh(c, out=state)
            state *= o_gate
        by_dir = hs[:steps].reshape(steps, groups, dirs, rows, h)
        for d in range(dirs):
            out[:, spans[d], d] = by_dir[:, :, d][:: 1 - 2 * d].transpose(2, 0, 3, 1)
    carry[0][:, lo:hi], carry[1][:, lo:hi] = state, c


@dataclass(frozen=True)
class GroupedLayerWeights:
    """One RNN sublayer: input norm, stacked cells, post-RNN projection.

    ``cells`` holds every (group, direction) cell, each with dims
    I/g -> H/g. The projection maps the shuffled hidden states
    ``[C * H/g]`` back to the feature dim; it is never grouped.
    """

    norm_gamma: np.ndarray
    norm_beta: np.ndarray
    cells: LstmWeights
    proj_weight: np.ndarray
    proj_bias: np.ndarray
