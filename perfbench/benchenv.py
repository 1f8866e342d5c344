"""Process set-up shared by the benchmark's entry points.

`pin_blas_threads` must run before numpy is first imported: the matrices
are 8x8 and 64x64, so BLAS threads on a small shared host would only
measure the scheduler.  `use_source_tree` puts the checkout's `src/` first
on the import path, so the benchmark always measures the code next to it
and never an installed copy.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SourceTreeMissing(RuntimeError):
    """The checkout has no importable spingate package under src/."""


def pin_blas_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("BLAS threads must be pinned before numpy is imported")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def use_source_tree() -> None:
    """Import spingate from ROOT/src or raise SourceTreeMissing."""
    if not (SRC / "spingate" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no spingate package under {SRC}")
    sys.path.insert(0, str(SRC))
    import spingate

    if not Path(spingate.__file__).resolve().is_relative_to(SRC):
        raise SourceTreeMissing(f"spingate imported from {spingate.__file__}, not {SRC}")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_record(load_at_start: tuple[float, float, float]) -> dict:
    """Host and library facts that every result carries."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": _git_commit(),
        "loadavg_start": list(load_at_start),
        "machine": platform.machine(),
    }
