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


def test_resampling_strategies_mark_the_reduced_cores():
    lines = _run_demo("03_resampling_strategies.py").splitlines()
    assert [line for line in lines if line.startswith("  ") and " 1:" in line] == [
        "  pps(4)         1:-- 2:-- 3:-- 4:-- 5:-- 6:-- pps x4",
        "  all(4)         1:BT 2:BT 3:BT 4:BT 5:BT 6:BT",
        "  sync(4)        1:BT 2:-- 3:BT 4:-- 5:BT 6:--",
        "  async(4)       1:-T 2:B- 3:-T 4:B- 5:-T 6:B-",
    ]


def test_enhance_walkthrough_matches_enhance():
    assert "stagewise result == enhance(): True" in _run_demo("01_enhance_walkthrough.py").splitlines()


def test_reduction_table_reaches_the_headline_cut():
    assert "+++GR               0.60       67.1%" in _run_demo("05_reduction_table.py").splitlines()
