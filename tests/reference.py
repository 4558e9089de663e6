"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (scalar
loops, math.exp, or the package's first vectorised forms, gathers and
scatters included) and must stay independent of the package's kernels:
these routes and the production routes agreeing is the point of the
tests that import this module.
"""

import math

import numpy as np


def _sigmoid(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def naive_lstm_forward(seq, w_input, w_hidden, bias, bidirectional=False):
    """Scalar LSTM with (i, f, g, o) gate stacking, zero initial state.

    ``seq`` is [T x I]; returns [T x H] (or [T x 2H] with the same weights
    run over the reversed sequence and concatenated).
    """
    seq = [list(map(float, row)) for row in np.asarray(seq)]
    w_in = np.asarray(w_input, dtype=np.float64)
    w_hid = np.asarray(w_hidden, dtype=np.float64)
    b = np.asarray(bias, dtype=np.float64)
    h_dim = w_hid.shape[1]
    in_dim = w_in.shape[1]

    def run(rows):
        h = [0.0] * h_dim
        c = [0.0] * h_dim
        outs = []
        for x in rows:
            pre = []
            for r in range(4 * h_dim):
                acc = b[r]
                for j in range(in_dim):
                    acc += w_in[r][j] * x[j]
                for j in range(h_dim):
                    acc += w_hid[r][j] * h[j]
                pre.append(acc)
            i = [_sigmoid(pre[k]) for k in range(h_dim)]
            f = [_sigmoid(pre[h_dim + k]) for k in range(h_dim)]
            g = [math.tanh(pre[2 * h_dim + k]) for k in range(h_dim)]
            o = [_sigmoid(pre[3 * h_dim + k]) for k in range(h_dim)]
            c = [f[k] * c[k] + i[k] * g[k] for k in range(h_dim)]
            h = [o[k] * math.tanh(c[k]) for k in range(h_dim)]
            outs.append(list(h))
        return outs

    fwd = run(seq)
    if not bidirectional:
        return np.array(fwd)
    bwd = run(seq[::-1])[::-1]
    return np.array([a + b_ for a, b_ in zip(fwd, bwd)])


def _half_tanh_sigmoid(x):
    y = np.tanh(0.5 * x)
    y *= 0.5
    y += 0.5
    return y


def _gate_update(gates, c):
    """Activations and state update on pre-activation gates [..., 4H], (i, f, g, o)."""
    h_dim = c.shape[-1]
    i = _half_tanh_sigmoid(gates[..., :h_dim])
    f = _half_tanh_sigmoid(gates[..., h_dim : 2 * h_dim])
    g = np.tanh(gates[..., 2 * h_dim : 3 * h_dim])
    o = _half_tanh_sigmoid(gates[..., 3 * h_dim :])
    c_next = f * c + i * g
    return o * np.tanh(c_next), c_next


def gathered_lstm_forward_batch(seqs, cells, shares, *, state=None, projection_rows=512):
    """The stacked-cell LSTM kernel in its first vectorised form: the bitwise oracle.

    Same contract and GEMM shapes as ``rnn.lstm_forward_batch``, computed
    the plain way: the weights upcast in their stored (i, f, g, o) order,
    each projection block gathered from its frames by fancy indexing, one
    sigmoid per gate, and each step's hidden state scattered to the
    shuffled output. ``shares`` are the ``(lo, hi)`` row ranges the
    kernel's threads ran; each runs alone here, so every GEMM has the row
    count the kernel's has. ``state`` is carried as the kernel carries it.
    """
    b, t, width = seqs.shape
    n, four_h, in_dim = cells.w_input.shape
    h = four_h // 4
    groups = width // in_dim
    dirs = n // groups
    w_input = cells.w_input.astype(np.float64, copy=False).transpose(0, 2, 1)
    w_hidden = np.ascontiguousarray(cells.w_hidden.swapaxes(-1, -2), dtype=np.float64)
    bias = cells.bias.astype(np.float64, copy=False)[:, None]
    if state is not None and not state:
        state[:] = [np.zeros((n, b, h)) for _ in "hc"]
    out = np.empty((b, t, dirs, h, groups))
    block = max(1, projection_rows // max(b, 1))
    # frames[d, s] is the frame that direction d reads at step s
    frames = np.stack([np.arange(t), np.arange(t)[::-1]])[:dirs]
    for lo, hi in shares:
        xs = seqs.reshape(b, t, groups, in_dim)[lo:hi]
        rows = hi - lo
        if state is None:
            hid, c = np.zeros((n, rows, h)), np.zeros((n, rows, h))
        else:
            hid, c = (np.array(part[:, lo:hi]) for part in state)
        for start in range(0, t, block):
            idx = frames[:, start : start + block]
            steps = idx.shape[1]
            x = xs[:, idx].transpose(3, 1, 0, 2, 4).reshape(n, rows * steps, in_dim)
            gates_x = x @ w_input
            gates_x += bias
            gates_x = gates_x.reshape(n, rows, steps, four_h)
            for s in range(steps):
                hid, c = _gate_update(gates_x[:, :, s] + hid @ w_hidden, c)
                by_dir = hid.reshape(groups, dirs, rows, h)
                for d in range(dirs):
                    out[lo:hi, idx[d, s], d] = by_dir[:, d].transpose(1, 2, 0)
        if state is not None:
            state[0][:, lo:hi], state[1][:, lo:hi] = hid, c
    return out.reshape(b, t, dirs * h * groups)


def naive_layer_norm(x, gamma, beta, eps=1e-5):
    """Row-wise normalization over the last axis, scalar arithmetic."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    flat = x.reshape(-1, x.shape[-1])
    res = out.reshape(-1, x.shape[-1])
    for r in range(flat.shape[0]):
        row = flat[r]
        mu = sum(row) / len(row)
        var = sum((v - mu) ** 2 for v in row) / len(row)
        denom = math.sqrt(var + eps)
        for j in range(len(row)):
            res[r, j] = (row[j] - mu) / denom * gamma[j] + beta[j]
    return out


def naive_dense(x, weight, bias):
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    flat = x.reshape(-1, x.shape[-1])
    rows = []
    for r in range(flat.shape[0]):
        rows.append(
            [
                bias[o] + sum(weight[o][j] * flat[r][j] for j in range(weight.shape[1]))
                for o in range(weight.shape[0])
            ]
        )
    return np.array(rows).reshape(x.shape[:-1] + (weight.shape[0],))


def row_major_dense(x, weight, bias):
    """``rnn.dense`` before it ran one flat GEMM per share: a 2-D input in one GEMM
    on the weight's transposed view, a 3-D input in one GEMM per slice of its first
    axis (``matmul``) on a C-contiguous float64 copy of ``weight.T``."""
    if x.ndim != 3:
        out = x @ weight.astype(np.float64, copy=False).T
    else:
        out = np.matmul(x, np.ascontiguousarray(weight.T, dtype=np.float64))
    out += bias
    return out


def straight_line_layer(features, band_w, time_w, band_bidirectional=True,
                        time_bidirectional=False):
    """One dual-path layer, ungrouped, no resampling or pruning.

    ``features`` is [K x T x N]; ``band_w`` / ``time_w`` are dicts with
    keys norm_gamma, norm_beta, fwd (w_input, w_hidden, bias), optional
    bwd, proj_weight, proj_bias. Everything runs through the naive
    routines above.
    """
    x = np.asarray(features, dtype=np.float64)
    k, t, n = x.shape

    def sublayer(y, w, axis_time, bidir):
        yn = naive_layer_norm(y, w["norm_gamma"], w["norm_beta"])
        seqs = yn.transpose(1, 0, 2) if not axis_time else yn
        outs = []
        for b_idx in range(seqs.shape[0]):
            fwd = naive_lstm_forward(seqs[b_idx], *w["fwd"])
            if bidir:
                bwd = naive_lstm_forward(seqs[b_idx][::-1], *w["bwd"])[::-1]
                fwd = np.concatenate([fwd, bwd], axis=-1)
            outs.append(fwd)
        h = np.stack(outs)
        proj = naive_dense(h, w["proj_weight"], w["proj_bias"])
        if not axis_time:
            proj = proj.transpose(1, 0, 2)
        return y + proj

    x = sublayer(x, band_w, axis_time=False, bidir=band_bidirectional)
    x = sublayer(x, time_w, axis_time=True, bidir=time_bidirectional)
    return x


def splitmix64_sequential(seed, count):
    """Reference SplitMix64: explicit sequential state walk, Python ints."""
    mask = (1 << 64) - 1
    golden = 0x9E3779B97F4A7C15
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + golden) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def dft_frame(frame):
    """Direct O(n^2) real-input DFT, first n//2+1 bins."""
    n = len(frame)
    bins = []
    for k in range(n // 2 + 1):
        acc = 0.0 + 0.0j
        for t in range(n):
            acc += frame[t] * complex(math.cos(2 * math.pi * k * t / n),
                                      -math.sin(2 * math.pi * k * t / n))
        bins.append(acc)
    return np.array(bins)


def loop_istft(spec, config, output_length):
    """Weighted overlap-add inverse STFT, one frame at a time."""
    n_fft, hop = config.fft_size, config.hop_size
    window = config.window_array()
    n_frames = spec.shape[1]
    frames = np.fft.irfft(np.asarray(spec).T.astype(np.complex128), n=n_fft, axis=1) * window
    total = n_fft + hop * (n_frames - 1)
    acc = np.zeros(total)
    weight = np.zeros(total)
    for t in range(n_frames):
        lo = t * hop
        acc[lo : lo + n_fft] += frames[t]
        weight[lo : lo + n_fft] += window * window
    nonzero = weight > 1e-10
    acc[nonzero] /= weight[nonzero]
    out = acc[n_fft // 2 : n_fft // 2 + output_length]
    return np.pad(out, (0, output_length - out.size)).astype(np.float32)
