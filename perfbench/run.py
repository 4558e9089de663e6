"""bsrnnlite benchmark: one workload, one seed, one process, closed loop.

    python3 perfbench/run.py --workload long_dense --seed 0 --seconds 15 --trace 0

With ``--trace 0`` it measures the end-to-end metrics with nothing
instrumented; with ``--trace 1`` it runs every operation twice, once plain
and once with the tracer installed, and reports the per-layer metrics plus
the tracing overhead. Every output is checked in both modes. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Workloads, metrics and their meaning are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import benchenv

WORKLOAD_NAMES = ("long_dense", "long_lite", "dir_short", "cost_audit")
#: end-to-end metrics gated by BENCHMARK.json, with units
END_TO_END = (("audio_s_per_s", "audio_s/s"), ("rtf_p50", "ratio"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))
SETUP_REPEATS = 7
#: an RTF tail needs this many samples beyond its percentile
TAIL_BEYOND = 10


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks the inputs, for the self-test")
    return p.parse_args(argv)


def median_setup_seconds(preset: str, weights_path) -> list:
    """Cold set-up in fresh processes: import, load_config, load_weights, build.

    One unmeasured start first fills the file cache and bytecode cache.
    """
    cmd = [sys.executable, str(benchenv.ROOT / "perfbench" / "setup_probe.py"),
           str(benchenv.SRC), preset, str(weights_path)]
    samples = []
    for k in range(SETUP_REPEATS + 1):
        # the child inherits the BLAS thread pin that prepare() put in os.environ
        done = subprocess.run(cmd, cwd=benchenv.ROOT, capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        if k:
            samples.append(float(done.stdout.split()[-1]))
    return samples


def rtf_tail(rtfs):
    """RTF at the highest percentile with TAIL_BEYOND samples above it, or None."""
    n = len(rtfs)
    if n < 2 * TAIL_BEYOND:
        return None
    ordered = sorted(rtfs)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def closed_loop(w, seconds, tracer=None, bs=None):
    """Run operations back to back until ``seconds`` of timed work are done.

    Untraced, each operation runs once. Traced, each runs twice, plain and
    traced, alternating which goes first; checks always run untraced. An
    operation that raises counts as failed and ends the loop.
    Returns (outcomes of plain runs, outcomes of traced runs, walls).
    """
    plain, traced = [], []
    walls = {"untraced": 0.0, "traced": 0.0}
    spent, i, broken = 0.0, 0, False
    while spent < seconds and not broken:
        modes = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
        for with_trace in modes:
            t0 = time.perf_counter()
            try:
                if with_trace:
                    tracer.install(bs)
                try:
                    wall, payload = w.execute(i)
                finally:
                    if with_trace:
                        tracer.uninstall()
                outcome = w.check(i, wall, payload)
            except Exception as exc:  # counted as failed; the run stops here
                wall = time.perf_counter() - t0
                outcome = w.failure(exc)
                broken = True
            outcome.wall = wall
            (traced if with_trace else plain).append(outcome)
            walls["traced" if with_trace else "untraced"] += wall
            spent += wall
        i += 1
    return plain, traced, walls


def summarize(outcomes):
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    notes = [n for o in outcomes for n in o.notes]
    return attempted, failed, notes


def end_to_end(outcomes, setup_samples) -> dict:
    """The gated metrics; throughput and RTF read 0 when nothing succeeded."""
    rtfs = [wall / a for o in outcomes for a, wall in o.rtf_samples]
    return {
        "audio_s_per_s": sum(o.audio_s for o in outcomes) / sum(o.wall for o in outcomes),
        "rtf_p50": statistics.median(rtfs) if rtfs else 0.0,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, rtfs


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        benchenv.prepare()
    except benchenv.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = benchenv.WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            benchenv.WORK_ROOT.rmdir()
        except OSError:
            pass


def run(args, workdir) -> int:
    import bsrnnlite as bs
    import bsrnnlite.cli  # noqa: F401  (the tracer wraps names in every module)

    import layers
    import tracing
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", workdir)
    tracer = tracing.Tracer() if args.trace else None
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print("env " + json.dumps(benchenv.stamp(workload=args.workload, seed=args.seed,
                                             preset=w.preset, inputs=w.input_summary())))
    print(f"check {w.check_mode()}")

    setup_samples = []
    if tracer is None:
        setup_samples = median_setup_seconds(w.preset, w.weights_path)
        w.load_model()
    else:
        tracer.install(bs)  # trace the in-process set-up too
        try:
            w.load_model()
        finally:
            tracer.uninstall()
    w.warmup()

    plain, traced, walls = closed_loop(w, args.seconds, tracer, bs)
    attempted, failed, notes = summarize(plain + traced)
    for note in notes[:20]:
        print(f"FAIL {note}")
    correct = failed == 0

    if tracer is None:
        values, rtfs = end_to_end(plain, setup_samples)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"metric audio_s_per_s {values['audio_s_per_s']:.4f} audio_s/s "
              f"({sum(o.audio_s for o in plain):.2f} audio s in {walls['untraced']:.2f} s)")
        print(f"metric rtf_p50 {values['rtf_p50']:.4f} ratio (median of {len(rtfs)})")
        tail = rtf_tail(rtfs)
        if tail is None:
            print(f"metric rtf_tail n/a (needs {2 * TAIL_BEYOND} samples, have {len(rtfs)})")
        else:
            print(f"metric rtf_tail {tail[0]:.4f} ratio (p{tail[1]:.0f} of {tail[2]})")
        print(f"metric setup_s {values['setup_s']:.4f} s (median of {len(setup_samples)} fresh processes)")
        print(f"metric peak_rss_mib {values['peak_rss_mib']:.1f} MiB")
        print(f"metric fail_ratio {failed / attempted:.4f} ratio ({failed}/{attempted})")
        if args.workload == "cost_audit":
            print(f"metric audit_s {statistics.median(o.wall for o in plain):.4f} s "
                  f"(median of {len(plain)} passes)")
    else:
        units = sum(o.audio_s for o in traced) if args.workload != "cost_audit" else len(traced)
        work = layers.analyzed_work([mw for o in traced for mw in o.mac_work],
                                    bs.macs.analyze_frames)
        mismatches = sum(o.route_mismatches for o in traced)
        values, absent = layers.per_layer(tracer, units, work, walls, mismatches)
        for err in tracer.errors[:20]:
            print(f"FAIL trace: {err}")
        correct = correct and not tracer.errors
        for name, why in absent.items():
            print(f"absent {name}: {why}")
        for name, unit in layers.PER_LAYER:
            print(f"layer {name} {values[name]:.6g} {unit}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in layers.PER_LAYER}
        benchenv.OUT_ROOT.mkdir(exist_ok=True)
        out = benchenv.OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(out, {"workload": args.workload, "seed": args.seed, "units": units,
                          "walls": walls, "metrics": values, "absent_metrics": absent})
        print(f"trace written to {out.relative_to(benchenv.ROOT)}")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
