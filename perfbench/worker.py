"""One benchmark process: set a workload up, then time or trace it.

Started by ``run.py`` in a fresh process per run, so peak memory and the
program's per-process memo caches never carry over between workloads.
Prints one JSON object as its last line of standard output.

``--setup-only`` stops after set-up; ``--trace 1`` runs the workload's
fixed task list three times instead of the timed loop: with counters,
plain, and under the profiler.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import math
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402

#: Shortest stretch of tasks timed between two calibration loops.
BLOCK_S = 0.05


def _peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _reap_children(timeout_s: float = 60.0) -> None:
    """Wait until every pool worker this process started has exited."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for child in multiprocessing.active_children():
                child.kill()
                child.join(5.0)
            return
        time.sleep(0.01)


class Tally:
    """Attempts and failures of the passes run, each task's wall time
    with the stretch it ran in, and the calibration loop times."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.task_s = []
        self.loop_s = []
        self._reported = 0

    def fail(self, message: str) -> None:
        self.failed += 1
        if self._reported < 5:
            self._reported += 1
            print(message, file=sys.stderr)


def run_tasks(
    suite, run, cases, tally: Tally, after=None, adjust=False
) -> float:
    """Submit ``cases`` one after another; returns the pass's wall time.

    Each task's time covers its sweep call only; the reference check
    runs outside it.  With ``adjust`` a calibration loop
    (``hostspeed``) runs before the first task and after every stretch
    of at least ``BLOCK_S``, and each task time records its stretch.
    Garbage collections run inside the tasks whose allocations trigger
    them, as in a user's sweep.
    """
    clock = time.perf_counter
    start = clock()

    def calibrate() -> None:
        if adjust:
            tally.loop_s.append(hostspeed.loop_seconds())

    calibrate()
    block_start = clock()
    for case in cases:
        tally.attempted += 1
        t0 = clock()
        try:
            outcome = suite.run_case(case, **run.options)
        except Exception:  # noqa: BLE001 - a failed task is counted, not fatal
            tally.fail(f"{case.id} raised:\n{traceback.format_exc()}")
        else:
            elapsed = clock() - t0
            if after is not None:
                after(case, outcome)
            if run.check(case, outcome):
                tally.task_s.append((case.id, elapsed, len(tally.loop_s) - 1))
            else:
                tally.fail(f"{case.id}: output differs from its reference")
        if clock() - block_start >= BLOCK_S:
            calibrate()
            block_start = clock()
    calibrate()
    return clock() - start


def timed(suite, run, seconds: float, tally: Tally):
    """Run whole passes of the task list for about ``seconds``.

    A pass starts only if, at the pace of the passes so far, it ends
    within ``seconds``; the first always runs.  Every task thus runs the
    same number of rounds, so a run weighs the seed's whole list alike
    however fast the host is.  Each task time is multiplied by its
    stretch's host speed factor
    (``hostspeed``), and a task's time is the median of its rounds, the
    lower middle one for an even count: the faster of two rounds, and
    over hundreds of rounds of a cache hit no outlier in either
    direction.  Every completed and checked task counts once per round
    at that time.
    """
    clock = time.perf_counter
    start = clock()
    passes = 0
    while passes == 0 or (clock() - start) * (passes + 1) / passes <= seconds:
        run.reset()
        run_tasks(suite, run, run.cases, tally, adjust=True)
        passes += 1
    wall = clock() - start
    scale = hostspeed.factors(tally.loop_s)
    rounds = {}
    for case_id, elapsed, block in tally.task_s:
        rounds.setdefault(case_id, []).append(elapsed * scale[block])
    typical = {case_id: statistics.median_low(s) for case_id, s in rounds.items()}
    durations = sorted(typical[case_id] for case_id, _, _ in tally.task_s)
    n = len(durations)
    p90_rank = max(1, math.ceil(0.9 * n))
    metrics = {
        "tasks_per_s": (n / sum(durations), "1/s"),
        "task_ms.p50": (statistics.median(durations) * 1e3, "ms"),
        "task_ms.p90": (durations[p90_rank - 1] * 1e3, "ms"),
    }
    info = {
        "timed_s": wall,
        "passes": passes,
        "wall_tasks_per_s": n / wall,
        "distinct_tasks": len(typical),
        "samples": n,
        "beyond_p90": n - p90_rank,
        "loop_ms.p50": statistics.median(tally.loop_s) * 1e3,
    }
    return metrics, info


def traced(suite, layers, run, n_tasks: int, tally: Tally):
    cases = run.cases[:n_tasks]

    counters = layers.Counters()
    run.reset()
    options = run.options
    run.options = dict(options, on_result=counters.on_result)
    with counters.installed():
        run_tasks(suite, run, cases, tally, after=counters.after_task)
    counts = counters.metrics(run.options.get("use_cache"))
    run.options = options

    # The overhead's denominator: a pass with neither counters nor profiler.
    run.reset()
    untraced_s = run_tasks(suite, run, cases, tally)

    run.reset()
    profile = cProfile.Profile()
    # Pool workers forked mid-pass must not keep profiling themselves.
    os.register_at_fork(after_in_child=profile.disable)
    profile.enable()
    try:
        traced_s = run_tasks(suite, run, cases, tally)
    finally:
        profile.disable()
    out = layers.profile_metrics(profile, traced_s)
    out.update(counts)
    out["trace.overhead"] = traced_s / untraced_s
    metrics = {name: (out[name], unit) for name, unit in layers.PER_LAYER.items()}
    info = {"tasks": len(cases), "untraced_s": untraced_s, "traced_s": traced_s}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument(
        "--started", type=float, required=True,
        help="time.monotonic() when the parent started this process",
    )
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import numpy
    import suite
    from repro.sim import engine_mode

    workload = suite.WORKLOADS[args.workload]
    args.run_dir.mkdir(parents=True, exist_ok=True)
    run = workload.setup(args.seed, args.run_dir)
    setup_s = time.monotonic() - args.started
    result = {
        "setup_s": setup_s,
        "setup_loop_s": hostspeed.loop_seconds(),
        "fingerprint": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "engine": engine_mode(),
        },
    }
    if not args.setup_only:
        # Move what set-up left (references, case universes) out of the
        # collected generations: a full collection then costs what the
        # heap the program itself keeps costs, not the harness's.
        gc.collect()
        gc.freeze()
        tally = Tally()
        if args.trace:
            import layers

            metrics, info = traced(
                suite, layers, run, workload.trace_tasks, tally
            )
        else:
            metrics, info = timed(suite, run, args.seconds, tally)
        result["metrics"] = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        }
        result["info"] = info
        result["attempted"] = tally.attempted
        result["failed"] = tally.failed
    _reap_children()
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
