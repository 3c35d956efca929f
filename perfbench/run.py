"""Run one workload of the ESWITCH benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gateway --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (each metric a
``{"value", "unit"}`` pair): the end-to-end metrics with ``--trace 0``,
the per-layer ones with ``--trace 1``. The line before it carries the
run's metadata. Result files, and with ``--trace 1`` the span tree and
self-time table, go to ``perfbench/out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gateway", "gateway-churn")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def stop_resource_tracker() -> None:
    """Shared-memory rings start multiprocessing's resource tracker;
    stop it and wait for it, so the run leaves no process behind."""
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None and getattr(tracker._resource_tracker, "_pid", None):
        tracker._resource_tracker._stop()


def main() -> int:
    args = parse_args(sys.argv[1:])
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Fixed string hashing: the same seed then gives the same dict and
        # set orders, so the counted metrics repeat exactly.
        env = dict(os.environ, PYTHONHASHSEED="0")
        argv = [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]]
        os.execve(sys.executable, argv, env)
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    try:
        result, meta = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            out_dir=HERE / "out", root=ROOT,
        )
    finally:
        stop_resource_tracker()
    print(json.dumps({"meta": meta}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
