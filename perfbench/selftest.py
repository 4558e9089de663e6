"""Self-test of the benchmark: every workload at a tiny size, both modes.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --size tiny`` untraced and traced (tiny
means short inputs; the tiny cost audit prices only the first few configs
but still runs the reduction table and the calibration) and asserts that
the result line has exactly the contract's keys, that every metric
BENCHMARK.json declares appears with its unit and a finite value, that the
report prints all seven end-to-end metrics where they apply, and that
nothing failed (fail_ratio 0). It also checks that ``run.py`` exits
non-zero without a result line in a copy holding only the benchmark, and
that the metric lists in the code match BENCHMARK.json, and that the
tracer reports a vanished function as absent and catches a child span
longer than its parent. Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import benchenv
import layers
import run

ALWAYS = ("audio_s_per_s", "rtf_p50", "rtf_tail", "setup_s", "peak_rss_mib", "fail_ratio")


def check(cond, what) -> None:
    if not cond:
        raise AssertionError(what)


def run_bench(workload: str, trace: int, cwd=benchenv.ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(workload, trace, done, declared) -> None:
    tag = f"{workload} trace={trace}"
    check(done.returncode == 0, f"{tag}: exit {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{tag}: keys {set(result)}")
    check(result["correct"] is True, f"{tag}: not correct:\n{done.stdout[-3000:]}")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{tag}: attempted")
    check(result["failed"] == 0, f"{tag}: failed {result['failed']}")
    got = {name: (m["unit"], m["value"]) for name, m in result["metrics"].items()}
    check(set(got) == set(declared), f"{tag}: metrics {sorted(set(got) ^ set(declared))}")
    for name, unit in declared.items():
        check(got[name][0] == unit, f"{tag}: {name} unit {got[name][0]} != {unit}")
        value = got[name][1]
        check(isinstance(value, (int, float)) and math.isfinite(value), f"{tag}: {name} = {value}")
    check(not any(line.startswith("absent ") for line in lines), f"{tag}: absent per-layer metrics")
    if trace == 0:
        printed = {line.split()[1] for line in lines if line.startswith("metric ")}
        want = set(ALWAYS) | ({"audit_s"} if workload == "cost_audit" else set())
        check(want <= printed, f"{tag}: report lacks {sorted(want - printed)}")
        check(f"metric fail_ratio {0:.4f} ratio" in done.stdout, f"{tag}: fail_ratio not 0")
        for name in declared:
            check(got[name][1] > 0, f"{tag}: {name} is not positive")


def check_declarations(bench: dict) -> None:
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    check(e2e == dict(run.END_TO_END), f"end_to_end {e2e} != run.END_TO_END")
    per = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(per == dict(layers.PER_LAYER), "per_layer differs from layers.PER_LAYER")
    names = [w["name"] for w in bench["workloads"]]
    check(tuple(names) == run.WORKLOAD_NAMES, f"workloads {names} != run.WORKLOAD_NAMES")


def check_bare_copy() -> None:
    """Only BENCHMARK.json and perfbench/: run.py must fail without a result."""
    bare = benchenv.WORK_ROOT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(benchenv.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(benchenv.ROOT / "BENCHMARK.json", bare)
        done = run_bench("long_dense", 0, cwd=bare)
        check(done.returncode != 0, "bare copy: run.py exited 0")
        check('"correct"' not in done.stdout, "bare copy: printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            benchenv.WORK_ROOT.rmdir()
        except OSError:
            pass


def check_tracer() -> None:
    """A vanished traced name is reported absent; an impossible tree is caught."""
    import types

    import bsrnnlite
    import bsrnnlite.cli  # noqa: F401

    import tracing

    modules = ("bands", "cli", "configio", "macs", "model", "wavio", "weights_io")
    renamed = types.SimpleNamespace(rnn=types.ModuleType("bsrnnlite.rnn"),
                                    **{m: getattr(bsrnnlite, m) for m in modules})
    tracer = tracing.Tracer()
    tracer.install(renamed)
    tracer.uninstall()
    check("rnn.lstm" in tracer.absent, "a missing lstm_forward_batch is not reported absent")
    tracer = tracing.Tracer()
    tracer.spans = [["parent", 0.0, 1.0, -1], ["child", 0.0, 2.0, 0]]
    tracer.times()
    check(tracer.errors, "a child span longer than its parent went unnoticed")


def main() -> int:
    bench = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
    benchenv.prepare()
    try:
        check_declarations(bench)
        check_bare_copy()
        check_tracer()
        print("ok declarations, bare copy and tracer checks")
        for workload in run.WORKLOAD_NAMES:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                declared = {m["name"]: m["unit"] for m in bench[key]}
                check_result(workload, trace, run_bench(workload, trace), declared)
                print(f"ok {workload} trace={trace}", flush=True)
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
