"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (scalar
loops, math.exp) and must stay independent of the package's kernels:
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
