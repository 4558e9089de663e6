"""The demos that check themselves still run clean and report success."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_demo(name: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cost_accounting_routes_agree():
    assert "agree exactly: True" in _run_demo("02_cost_accounting.py").splitlines()


def test_subband_pruning_leaves_skipped_bands_untouched():
    lines = _run_demo("04_subband_pruning.py").splitlines()
    assert sum(line.endswith("untouched = True") for line in lines) == 6
    assert not any(line.endswith("untouched = False") for line in lines)
