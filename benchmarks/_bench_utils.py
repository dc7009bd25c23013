"""Shared helpers for the benchmark suite.

Importable from any bench file (pytest puts ``benchmarks/`` on
``sys.path`` when collecting them).
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SMOKE_DIR = BENCH_DIR / ".smoke"

#: Version of the ``BENCH_*.json`` summary layout.  Bump when the
#: shared structure changes (key renames, envelope changes), so the
#: perf trajectory stays machine-diffable across PRs.
#:
#: 1 — bare metric dicts (PR 1-4).
#: 2 — every summary carries ``schema_version`` plus a ``host``
#:     fingerprint (PR 5), so numbers from different machines are
#:     never compared as if they came from one box.
#: 3 — the host fingerprint also names the BLAS vendor and its thread
#:     count, which decide conv/matmul speed as much as the cores do.
SCHEMA_VERSION = 3


def _blas_threads() -> int | None:
    """Threads of numpy's bundled OpenBLAS, read via its C API."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_fingerprint() -> dict:
    """A small, stable description of the measuring host."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "blas": blas.get("name"),
        "blas_threads": _blas_threads(),
    }


def best_of(fn, repeats: int = 5) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` runs (after one
    warm-up call) — the honest engine time on a noisy single core."""
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def write_bench_summary(filename: str, summary: dict,
                        smoke: bool) -> Path:
    """Write a bench summary to its canonical location.

    Full-scale numbers go to the tracked trajectory file
    ``benchmarks/<filename>``; smoke numbers go to
    ``benchmarks/.smoke/<filename>`` where the ``scripts/check.sh``
    regression gate (``scripts/bench_gate.py``) picks them up.  The CI
    smoke pass must never clobber the tracked trajectory.

    Every summary is stamped with ``schema_version`` and a ``host``
    fingerprint so the perf trajectory is machine-diffable across PRs
    (a regression on one host and an upgrade of the host look the same
    in a bare number).
    """
    stamped = {"schema_version": SCHEMA_VERSION,
               "host": host_fingerprint()}
    stamped.update(summary)
    if smoke:
        SMOKE_DIR.mkdir(exist_ok=True)
        out = SMOKE_DIR / filename
    else:
        out = BENCH_DIR / filename
    out.write_text(json.dumps(stamped, indent=2) + "\n")
    return out
