"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload powerlaw-default --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans are written under ``.perfbench_out/``).  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 1 when any output check failed, 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import atexit
import json
import multiprocessing
import os
import sys
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def stop_helper_processes() -> None:
    """Stop the processes ``multiprocessing`` started and wait for each.

    Creating a shared-memory segment starts the resource tracker, a process
    that otherwise ends only some time after this one has exited.  This hook
    is registered before ``repro`` is imported; ``atexit`` runs hooks last in,
    first out, so it runs after the shared-memory finalizers, which may still
    talk to the tracker.
    """
    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()


atexit.register(stop_helper_processes)


def import_library() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        fail(f"cannot import repro from {src}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"repro resolved outside {src}: {repro.__file__}")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: one of {sorted(WORKLOADS)}")
    trace_dir = None
    if args.trace:
        trace_dir = OUT_DIR / f"{args.workload}-seed{args.seed}"
        os.makedirs(trace_dir, exist_ok=True)
    out = WORKLOADS[args.workload](args.seed, args.seconds, trace_dir)

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in out.report:
        print(line)
    print(f"error_rate {out.failed / out.attempted:.6g} "
          f"({out.failed} failed of {out.attempted} attempted)")
    for failure in out.failures:
        print(f"FAILED: {failure}")
    correct = out.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
