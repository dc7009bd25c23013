"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fleet --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see ``perfbench/README.md``).  The
report lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Spans and the host record are written to ``.perfbench_out/``.

The program is imported from ``src/`` of the current directory and run
in its default environment: the benchmark sets no BLAS thread count and
no program knob.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

WORKLOADS = ("fleet", "zone_checks", "episode_steps")
OUT_DIR = Path(".perfbench_out")
HERE = Path(__file__).resolve().parent


def _metric_specs():
    """Metric specs by name, and the end-to-end and per-layer names."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}, \
        [m["name"] for m in spec["end_to_end"]], \
        [m["name"] for m in spec["per_layer"]]


def _blas_threads():
    """OpenBLAS's own thread count, read through its C API (no change)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_record() -> dict:
    """What the numbers were measured on; reads, changes nothing."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    env = {k: os.environ[k] for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "REPRO_CONV_ENGINE", "REPRO_SERVE_WORKERS",
        "REPRO_MONITOR_ADAPTIVE", "REPRO_MONITOR_SHARED")
        if k in os.environ}
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": _blas_threads(),
        "env": env,
    }


def host_probe() -> dict:
    """How fast the host runs right now, in ms (median of five): a fixed
    pure-Python loop and a fixed numpy stream over 32 MB, neither
    touching BLAS or the program.  Taken before and after the measured
    phases, so a run on a slowed shared host can be told apart."""
    import numpy as np

    src = np.ones(4_000_000)
    dst = np.empty_like(src)

    def timed(fn):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append(1e3 * (time.perf_counter() - t0))
        return round(sorted(times)[2], 3)

    return {"python_loop_ms": timed(lambda: sum(i * i for i in
                                                range(200_000))),
            "numpy_stream_ms": timed(lambda: np.multiply(src, 1.5,
                                                         out=dst))}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _child_pids() -> list:
    """Live child processes of this process, from ``/proc``."""
    pids = []
    try:
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as fh:
                pids += [int(p) for p in fh.read().split()]
    except OSError:
        pass
    return pids


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The program's pool closes its own workers; this is the backstop for
    any still alive.  It also stops the resource tracker that
    ``multiprocessing.shared_memory`` starts on first use: left alone it
    outlives the run until it notices the run has gone.
    """
    import multiprocessing as mp
    import signal
    from multiprocessing import resource_tracker

    for child in mp.active_children():
        child.terminate()
        child.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for pid in _child_pids():
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        stop_children()


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {src}/repro; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import spans
    import workloads
    from stats import failed_share, percentile

    specs, end_to_end, per_layer = _metric_specs()
    trace = bool(args.trace)
    probe_before = host_probe()
    if args.workload == "fleet":
        result = workloads.run_fleet(args.seed, args.seconds, trace)
    else:
        result = workloads.run_served(args.workload, args.seed,
                                      args.seconds, trace)

    ledgers = result["ledgers"]
    attempted = sum(led.offered for led in ledgers)
    failed = sum(led.failed for led in ledgers)
    agree, checked = result["agree"]
    metrics = dict(result["metrics"])
    metrics["setup_s"] = result["setup_s"]
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    metrics["success_share"] = (1.0 - failed_share(ledgers) if attempted
                                else 0.0)
    metrics["verdict_agree_share"] = agree / checked if checked else 0.0
    wanted = per_layer if trace else end_to_end
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"perfbench: metrics not measured: {missing}",
              file=sys.stderr)
        return 3

    host = host_record()
    host["probe_before"], host["probe_after"] = probe_before, host_probe()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}-host.json").write_text(json.dumps(host, indent=1))
    if "tracer" in result:
        result["tracer"].dump(OUT_DIR / f"{stem}-spans.jsonl.gz")

    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("# host " + json.dumps(host, sort_keys=True))
    print(f"# inputs sha256 {result['inputs_sha256']}")
    print("# set-ups: " + " ".join(f"{t:.3f}" for t in result["setups"])
          + " s")
    for name, phase in result.get("phases", {}).items():
        if isinstance(phase, list):
            print(f"# phase {name}: {len(phase)} waves")
            continue
        load = (f"{phase.clients} clients" if phase.clients
                else f"rate {phase.rate:.1f}/s")
        late = sorted(phase.lateness())
        print(f"# phase {name}: {load}, offered "
              f"{len(phase.primary)}+{len(phase.side)} side, generator "
              f"late p50 {late[len(late) // 2]:.2f} ms max {late[-1]:.2f} ms")
        for stream in ("primary", "side"):
            lat = phase.latencies(getattr(phase, stream))
            if lat and not phase.clients:
                print(f"# latency {name} {stream}: " + " ".join(
                    f"p{q:g} {percentile(lat, q):.2f}"
                    for q in (50, 75, 90, 99)) + f" ms over {len(lat)}")
    for name, t in result.get("tails", {}).items():
        print(f"# {name} {t.value:.6g} ms: p{t.q:g}, median of "
              f"{t.windows} windows, over {t.samples} samples"
              f"{'' if t.supported else ' (fewer than 10 beyond)'}")
    for line in result["problems"]:
        print(f"# LEDGER MISMATCH {line}")
    if "closure" in result:
        c = result["closure"]
        print(f"# closure: layer self {sum(c.self_s.values()):.4f} s + "
              f"idle {c.unaccounted_s:.4f} s vs wall {c.wall_s:.4f} s "
              f"(jobs timed around the layers: {c.busy_s:.4f} s), error "
              f"{c.closure_error:.2e} (tolerance "
              f"{spans.CLOSURE_TOLERANCE:g}) "
              f"{'ok' if c.closed else 'FAILED'}")
    share = f"{failed / attempted:.6g}" if attempted else "n/a"
    print(f"# failed_share {share} "
          f"({failed} of {attempted} {result['attempted_unit']}); "
          f"verdicts agreeing {agree} of {checked}")
    for name in end_to_end + per_layer:
        if name in metrics:
            print(f"{name} {_fmt(metrics[name])} {specs[name]['unit']}")

    out = {
        "correct": bool(result["correct"]) and attempted > 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": specs[name]["unit"]}
                    for name in wanted},
    }
    print(json.dumps(out))
    # A wrong output, an unbalanced ledger or a failed closure fails the
    # command, after the report.
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
