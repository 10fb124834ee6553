"""The repo's benchmark: one command, three workloads, checked outputs.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload route-hot --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` makes a separate traced run that prints the per-layer
metrics.  Every run checks the program's outputs against a reference path
and exits non-zero on any mismatch.  Earlier lines of standard output give
the provenance and a readable table; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

Workloads (see BENCHMARK.json for why each was chosen):

* ``route-hot``  -- D-Choices, n=50, Zipf 1.4 over 10k keys, columnar batches;
* ``route-wide`` -- W-Choices, n=50, Zipf 0.8 over 1M keys, string keys;
* ``cluster-io`` -- the multi-process runtime, 8 workers, 20 us service time.

End-to-end metrics (``--trace 0``):

* ``msgs_per_s`` -- messages over the timed phase; on route-* in reference
  seconds (``refkernel.py``), on cluster-io the median over repetitions of
  messages over ``ClusterResult.elapsed_s``;
* ``setup_s`` -- set-up before the first routed message, median over
  several set-ups, in reference seconds: on route-* the stream build and
  partitioner construction, on cluster-io ``run_cluster`` wall time minus
  ``elapsed_s``;
* ``imbalance`` -- the paper's I(t): on route-* averaged over the last
  tenth of the stream (``common.tail_imbalance``), on cluster-io of the
  delivered load vector (``ClusterResult.imbalance``);
* ``key_replication`` -- distinct (key, worker) pairs over distinct keys;
* ``peak_rss_mb`` -- peak RSS of this process (route-*) or of the largest
  child (cluster-io; a forked child's RSS includes the pages it inherits).

Failures are counted against the messages checked; the top-level
``failed``/``attempted`` carry them, and ``--trace 1`` reports
``bench.failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("route-hot", "route-wide", "cluster-io")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return commit + ("-dirty" if dirty else "")


def provenance(args) -> dict:
    import numpy

    from refkernel import NOMINAL_S

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "ref_kernel_nominal_s": NOMINAL_S,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "cluster-io":
        import cluster

        return cluster.run_traced(seed, seconds) if trace else cluster.run(seed, seconds)
    import routing

    spec = routing.SPECS[name]
    if trace:
        return routing.run_traced(spec, seed, seconds)
    return routing.run(spec, seed, seconds)


def stop_children() -> None:
    """Stop and reap every process this run started, before it exits.

    ``run_cluster`` joins its source and workers, but its shared-memory
    blocks start multiprocessing's resource tracker, a child that would
    otherwise outlive this process and be left unreaped.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no program sources at {SRC}/repro or no {ROOT}/BENCHMARK.json",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[kind]}

    info = provenance(args)
    print("provenance " + json.dumps(info), flush=True)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        stop_children()
    values = result["metrics"]
    if args.trace:  # a per-layer metric of a layer the workload does not cross reads 0
        values = {**dict.fromkeys(units, 0.0), **values}
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    failed = int(result["failed"])
    print("details " + json.dumps(result["info"]), flush=True)
    print(f"failed_frac {failed / result['checked']:.6g} ({failed} of {result['checked']} checked)")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
