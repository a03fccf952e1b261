"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ft_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` times a closed loop of tasks for ``--seconds`` and prints
the end-to-end metrics; ``--trace 1`` runs the workload's fixed task list
untraced and then under the profiler and prints the per-layer split.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run sets up in fresh processes: ``SETUP_REPEATS - 1`` set-up-only
processes and then the measured one; ``setup_s`` is the median of their
set-up times.  The children see no ``REPRO_CACHE_DIR``, ``REPRO_ENGINE``
or ``REPRO_FULL_SCALE`` and keep their caches and temporary files in a
scratch directory of the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
WORKLOADS = ("ft_sweep", "capped_chaos", "serving_day", "warm_replay")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
CLEARED_ENV = ("REPRO_CACHE_DIR", "REPRO_ENGINE", "REPRO_FULL_SCALE")


class BenchError(RuntimeError):
    pass


def _child_env(root: Path, run_dir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(run_dir)
    return env


def _worker(args, root: Path, run_dir: Path, setup_only: bool) -> dict:
    """Start one worker; its ``setup_s`` comes back host-speed adjusted
    by calibration loops run just before it starts and just after its
    set-up ends."""
    run_dir.mkdir(parents=True, exist_ok=True)
    loop_s = hostspeed.loop_seconds()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--run-dir", str(run_dir),
        "--started", repr(time.monotonic()),
    ] + (["--setup-only"] if setup_only else [])
    try:
        proc = subprocess.run(
            command,
            cwd=root,
            env=_child_env(root, run_dir),
            stdout=subprocess.PIPE,
            timeout=CHILD_TIMEOUT_S,
            text=True,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {CHILD_TIMEOUT_S:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_setup_s"] = result["setup_s"]
    result["setup_s"] *= hostspeed.factor([loop_s, result["setup_loop_s"]])
    return result


def _git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(args, root: Path, run_dir: Path) -> dict:
    starts = []
    if not args.trace:
        for i in range(SETUP_REPEATS - 1):
            starts.append(_worker(args, root, run_dir / f"setup{i}", True))
    result = _worker(args, root, run_dir / "run", False)
    starts.append(result)
    setups = [r["setup_s"] for r in starts]

    fingerprint = dict(result["fingerprint"], commit=_git_commit(root))
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "fingerprint": fingerprint,
        "setup_samples_s": setups,
        "wall_setup_samples_s": [r["wall_setup_s"] for r in starts],
        **result.get("info", {}),
    }))
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print("run from the repository root: src/repro not found", file=sys.stderr)
        return 2
    scratch = root / ".perfbench-run"
    run_dir = scratch / str(os.getpid())
    try:
        output = measure(args, root, run_dir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
