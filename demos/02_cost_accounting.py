"""Where the multiply-accumulates go, counted two independent ways.

analyze() prices each component from the configuration alone (closed
form). count_forward() runs the real forward pass and prices what
executed: the arrays each sublayer core computed on, reported through
forward_features's probe, against the sizes of the weights loaded. The
two totals agreeing integer for integer is the correctness argument for
the whole cost model.

A count depends only on array shapes, never on their values, so
count_forward() runs the layer stack in float32
(forward_features(..., dtype=np.float32)), about twice as fast as the
float64 stack enhance() runs, with the same shape at every stage.
"""

import numpy as np

from bsrnnlite import analyze, build, canonical_config, count_forward, gen_weights

cfg = canonical_config()
report = analyze(cfg, duration=1.0)

print(f"{cfg.name}: {report.gps:.2f} G/s over {report.duration:g} s of audio")
print(f"{'component':>14} {'MACs':>15} {'share':>7}")
for name, count in report.components.items():
    print(f"{name:>14} {count:>15} {100.0 * count / report.total:6.1f}%")
print(f"{'total':>14} {report.total:>15}")

model = build(cfg, gen_weights(cfg, seed=0))
rng = np.random.default_rng(1)
noise = (rng.standard_normal(cfg.stft.sample_rate) * 0.1).astype(np.float32)
counted = count_forward(model, noise)

print()
print(f"analyze        {report.total}")
print(f"count_forward  {counted.total}")
print(f"agree exactly: {counted.components == report.components}")
