"""Regenerate the ROADMAP baseline table from traced and untraced runs.

    python3 perfbench/baseline_table.py

For each preset it enhances one CLIP_S-second clip of seeded noise (seed
SEED) with seeded weights. RTF and effective GMAC/s come from the best of
RUNS untraced runs; the per-stage times (ms for the whole clip, inclusive)
come from the traced run with the smallest total. Analyzed G/s is ``analyze`` on the
clip's duration. Prints a markdown table and the environment stamp.
"""

from __future__ import annotations

import json
import sys
import time

import benchenv

PRESETS = ("canonical-v1", "canonical-v1-gr", "canonical-v1-lwr16", "canonical-v1-full")
CLIP_S = 10.0
RUNS = 3
SEED = 0


def stage_ms(tracer) -> dict:
    incl, _own, _calls = tracer.times()
    band = sum(v for k, v in incl.items() if k.startswith("model.band_rnn.l"))
    time_ = sum(v for k, v in incl.items() if k.startswith("model.time_rnn.l"))
    return {"band": band * 1e3, "time": time_ * 1e3, "head": incl["bands.mask_head"] * 1e3,
            "fft": (incl["dsp.stft"] + incl["dsp.istft"]) * 1e3, "total": incl["model.enhance"] * 1e3}


def measure(bs, tracing, workloads, preset) -> dict:
    import numpy as np

    cfg = bs.model.preset_config(preset)
    model = bs.model.build(cfg, bs.weights_io.gen_weights(cfg, workloads.WEIGHTS_SEED))
    noisy = workloads.noise_like(np.random.default_rng([SEED, 4]), int(round(CLIP_S * workloads.SAMPLE_RATE)))
    bs.model.enhance(model, noisy)  # warm-up
    walls, stages = [], []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        bs.model.enhance(model, noisy)
        walls.append(time.perf_counter() - t0)
        tracer = tracing.Tracer()
        tracer.install(bs)
        try:
            bs.model.enhance(model, noisy)
        finally:
            tracer.uninstall()
        s = stage_ms(tracer)
        if tracer.errors:
            raise RuntimeError(f"{preset}: inconsistent trace: {tracer.errors[0]}")
        stages.append(s)
    report = bs.macs.analyze(cfg, noisy.size / workloads.SAMPLE_RATE)
    wall = min(walls)
    return {"preset": preset, "gps": report.gps, "rtf": wall / report.duration,
            "eff": report.total / wall / 1e9, **min(stages, key=lambda s: s["total"])}


def main() -> int:
    benchenv.prepare()
    import bsrnnlite
    import bsrnnlite.cli  # noqa: F401

    import tracing
    import workloads

    rows = [measure(bsrnnlite, tracing, workloads, name) for name in PRESETS]
    print(f"Setup: {CLIP_S:g} s of seeded noise (seed {SEED}), seeded weights, "
          f"float64, best of {RUNS} runs. Times in ms.")
    print()
    print("| preset | G/s (analyzed) | RTF | band RNNs | time RNNs | mask head | stft+istft | eff. GMAC/s |")
    print("|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(f"| `{r['preset']}` | {r['gps']:.2f} | {r['rtf']:.3f} | {r['band']:.0f} | "
              f"{r['time']:.0f} | {r['head']:.0f} | {r['fft']:.0f} | {r['eff']:.2f} |")
    print()
    print("env " + json.dumps(benchenv.stamp()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
