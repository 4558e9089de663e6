"""Reference fingerprints of enhanced outputs, and the command that records them.

A fingerprint is ``[length, RMS, projection]``: the projection is the dot
product of the output with a fixed seeded Gaussian vector, divided by
sqrt(length), so it has the scale of the RMS but changes with any local
change in the waveform. Fingerprints live in ``reference/<workload>.json``,
keyed by seed and listed in input order.

Record them at a commit whose outputs are known good:

    python3 perfbench/fingerprints.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PROJECTION_SEED = 0x5EED
#: |rms - ref| and |proj - ref| may each reach REL * ref_rms + ABS
TOLERANCE = {"rel": 1e-5, "abs": 1e-7}
ENHANCEMENT_WORKLOADS = ("long_dense", "long_lite", "dir_short")


def describe_tolerance() -> str:
    return (f"length exact; RMS and projection within "
            f"{TOLERANCE['rel']:g} x reference RMS + {TOLERANCE['abs']:g}")


def fingerprint(wave) -> list:
    import numpy as np

    y = np.asarray(wave, dtype=np.float64)
    n = y.size
    v = np.random.default_rng(PROJECTION_SEED).standard_normal(n)
    return [n, float(np.sqrt(np.mean(y * y))), float(np.dot(y, v) / np.sqrt(n))]


def compare(fp, ref) -> str | None:
    """None when ``fp`` matches ``ref`` within TOLERANCE, else the reason."""
    if fp[0] != ref[0]:
        return f"length {fp[0]} != reference {ref[0]}"
    allowed = TOLERANCE["rel"] * ref[1] + TOLERANCE["abs"]
    for what, got, want in (("rms", fp[1], ref[1]), ("projection", fp[2], ref[2])):
        if not abs(got - want) <= allowed:
            return f"{what} {got:.9g} != reference {want:.9g} (allowed {allowed:.3g})"
    return None


def load(workload: str, seed: int):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def _parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 0,5,7")
    args = parser.parse_args(argv)

    import benchenv

    benchenv.prepare()
    import shutil

    import workloads

    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in ENHANCEMENT_WORKLOADS:
        path = REFERENCE_DIR / f"{name}.json"
        doc = json.loads(path.read_text()) if path.is_file() else {}
        doc.update(stamp=benchenv.stamp(), projection_seed=PROJECTION_SEED)
        doc.setdefault("seeds", {})
        for seed in _parse_seeds(args.seeds):
            workdir = benchenv.WORK_ROOT / f"fingerprints-{name}-{seed}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            try:
                w = workloads.WORKLOADS[name](seed, False, workdir)
                w.load_model()
                doc["seeds"][str(seed)] = [fingerprint(y) for y in w.reference_outputs()]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} seed {seed}: {len(doc['seeds'][str(seed)])} outputs", flush=True)
            doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
            path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
