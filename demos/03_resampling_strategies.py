"""Layer-wise frame resampling: what each strategy actually touches.

Downsampling keeps every S-th frame, the core runs on the short sequence,
and a zero-order hold restores the rate inside a residual connection.
The strategies differ only in which sublayer cores run reduced.
"""

import numpy as np

from bsrnnlite import LwrStrategy, analyze, canonical_config, plan_resampling
from bsrnnlite.resample import downsample_t, reduced_frames, upsample_t


def describe(label, strategy, num_layers=6):
    pps_factor, pairs = plan_resampling(strategy, num_layers)
    marks = []
    for i, (band_factor, time_factor) in enumerate(pairs, start=1):
        b = "B" if band_factor > 1 else "-"
        t = "T" if time_factor > 1 else "-"
        marks.append(f"{i}:{b}{t}")
    wrap = f" pps x{pps_factor}" if pps_factor > 1 else ""
    print(f"  {label:<14} {' '.join(marks)}{wrap}")


def main():
    frames = 63
    for s in (1, 4, 16):
        x = np.arange(frames * 2, dtype=np.float64).reshape(frames, 2)
        down = downsample_t(x, s)
        up = upsample_t(down, s, frames)
        assert down.shape[0] == reduced_frames(frames, s)
        print(f"factor {s:>2}: {frames} frames -> {down.shape[0]} "
              f"(hold restores {up.shape[0]})")

    print()
    print("which cores run reduced (B band, T time), layers 1..6:")
    describe("pps(4)", LwrStrategy.pps(4))
    describe("all(4)", LwrStrategy.all_layers(4))
    describe("sync(4)", LwrStrategy.sync(4))
    describe("async(4)", LwrStrategy.alternating(4))

    print()
    base = canonical_config()
    print(f"{'strategy':<14} {'G/s':>6}")
    print(f"{'none':<14} {analyze(base).gps:>6.2f}")
    for label, strategy in (
        ("pps(4)", LwrStrategy.pps(4)),
        ("all(4)", LwrStrategy.all_layers(4)),
        ("sync(4)", LwrStrategy.sync(4)),
        ("async(4)", LwrStrategy.alternating(4)),
        ("async(16)", LwrStrategy.alternating(16)),
    ):
        cfg = base.with_resample(strategy)
        print(f"{label:<14} {analyze(cfg).gps:>6.2f}")

    print()
    print("alternating resamples one of the two RNNs per layer, so its")
    print("RNN savings approach but never reach 50%:")
    for factor in (2, 4, 16, 256):
        cfg = base.with_resample(LwrStrategy.alternating(factor))
        full = analyze(base).components
        fast = analyze(cfg).components
        rnn = lambda c: sum(v for k, v in c.items() if "rnn" in k)
        print(f"  factor {factor:>3}: {100 * (1 - rnn(fast) / rnn(full)):.1f}%")


if __name__ == "__main__":
    main()
