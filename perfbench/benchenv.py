"""Process set-up shared by the benchmark's scripts, and the environment stamp.

``prepare()`` must run before numpy is imported: it pins the BLAS thread
count and puts the checkout's ``src/`` first on the import path, so the
benchmark always measures the source tree it sits in.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space inside the checkout; removed by the scripts that use it
WORK_ROOT = ROOT / ".perfbench_work"
#: trace files written at the end of traced runs
OUT_ROOT = ROOT / ".perfbench_out"

#: one BLAS thread: steadier on a shared machine, and at most nproc anywhere
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    pass


def prepare() -> None:
    """Pin BLAS threads and import bsrnnlite from this checkout only."""
    if "numpy" in sys.modules:
        raise RuntimeError("benchenv.prepare() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "bsrnnlite" / "__init__.py").is_file():
        raise MissingSource(f"no bsrnnlite source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    import bsrnnlite

    if Path(bsrnnlite.__file__).resolve().parent != (SRC / "bsrnnlite").resolve():
        raise MissingSource(f"bsrnnlite imported from {bsrnnlite.__file__}, not {SRC}")


def _git_commit() -> str:
    """HEAD's commit read from .git without running git; 'none' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bsrnnlite").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def stamp(**extra) -> dict:
    """Versions and machine facts that absolute times depend on."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        **extra,
    }
