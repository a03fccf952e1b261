#!/usr/bin/env python
"""Worker-chaos stress: kill pool workers mid-sweep, finish anyway.

Runs a cached operating-point sweep on the hardened process-pool
backend while a seeded saboteur SIGKILLs the worker that picked up a
randomly chosen subset of the tasks (each such task kills its worker
exactly once, on its first attempt — the retry on the respawned pool
then completes it).  The run must:

* complete every task despite the kills (retries, not cascades);
* charge each killed task at most one lost-worker attempt;
* persist every completed point, so a warm resume returns results
  bit-identical to an undisturbed serial run.

Exits non-zero on any violation, so CI can run it as a stress step::

    python examples/worker_chaos.py [seed]      # default seed: 0
"""

import hashlib
import os
import random
import signal
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

from repro.analysis.parallel import run_sweep
from repro.cache import RunCache
from repro.exec import ProcessPoolBackend

FREQ_MHZ = [600, 700, 800, 900, 1000, 1100, 1200, 1300, 1400]


@dataclass(frozen=True)
class SabotagedPoint:
    """One operating point whose worker may be killed on first sight.

    A sweep task (the protocol of :func:`run_sweep`): module-level and
    frozen, so it pickles into pool workers.  The key leaves the kill
    marker out, so a warm resume of the sabotaged sweep hits the points
    it stored.
    """

    frequency: float
    marker: Optional[str] = None

    @property
    def label(self) -> str:
        return f"stat@{self.frequency / 1e6:.0f}MHz"

    def key(self) -> str:
        text = f"worker-chaos:{self.frequency}"
        return hashlib.sha256(text.encode()).hexdigest()

    def run(self):
        """One measured run; the saboteur kills this worker once."""
        if self.marker is not None and not os.path.exists(self.marker):
            with open(self.marker, "w", encoding="utf-8") as fh:
                fh.write("worker killed here\n")
            os.kill(os.getpid(), signal.SIGKILL)

        from repro.analysis.runner import run_measured
        from repro.dvs import StaticStrategy
        from repro.workloads.micro import L2BoundMicro

        workload = L2BoundMicro(passes=3)
        return run_measured(workload, StaticStrategy(self.frequency)).point

    def load(self, cache, key):
        return cache.get(key)

    def store(self, cache, key, point):
        cache.put(key, point, meta={"example": "worker_chaos"})


def _make_tasks(kill_dir, seed):
    """The sweep, with a seeded third of its points sabotaged."""
    rng = random.Random(seed)
    victims = set(rng.sample(range(len(FREQ_MHZ)), 3))
    return [
        SabotagedPoint(
            mhz * 1e6,
            os.path.join(kill_dir, f"kill-{i}") if i in victims else None,
        )
        for i, mhz in enumerate(FREQ_MHZ)
    ], victims


def main(seed: int) -> int:
    kill_dir = tempfile.mkdtemp(prefix="worker-chaos-kills-")
    cache_dir = tempfile.mkdtemp(prefix="worker-chaos-cache-")
    tasks, victims = _make_tasks(kill_dir, seed)
    print(
        f"sweep: {len(tasks)} operating points, saboteur kills the worker "
        f"of tasks {sorted(victims)} (seed {seed})"
    )

    attempts_by_index = {}

    def watch(event):
        attempts_by_index[event.index] = event.attempts
        mark = " [retried]" if event.attempts else ""
        print(
            f"  [{event.completed}/{event.total}] task {event.index} "
            f"({event.source}){mark}"
        )

    chaotic = run_sweep(
        tasks,
        use_cache=RunCache(cache_dir),
        backend=ProcessPoolBackend(max_workers=2),
        on_result=watch,
    )

    failures = []
    if any(point is None for point in chaotic):
        failures.append("chaotic run left unfinished tasks")
    for index in victims:
        history = attempts_by_index.get(index, ())
        if len(history) != 1 or "WorkerLostError" not in history[0].error:
            failures.append(
                f"task {index} should record exactly one lost-worker "
                f"attempt, got {[a.error for a in history]}"
            )
    for index, history in attempts_by_index.items():
        if len(history) > 1:
            failures.append(
                f"task {index} was retried {len(history)} times; "
                "the blast radius must be one attempt per kill"
            )

    # Undisturbed oracle: serial, no saboteur, no cache.
    oracle = run_sweep(
        [SabotagedPoint(task.frequency) for task in tasks], backend="serial"
    )
    if chaotic != oracle:
        failures.append("chaotic results differ from the serial oracle")

    # Warm resume from the store the chaotic run populated: pure hits,
    # bit-identical.
    warm_cache = RunCache(cache_dir)
    sources = []
    warm = run_sweep(
        tasks,
        use_cache=warm_cache,
        backend="serial",
        on_result=lambda e: sources.append(e.source),
    )
    if warm != oracle:
        failures.append("warm resume is not bit-identical to the oracle")
    if sources != ["cache"] * len(tasks):
        failures.append(f"warm resume re-simulated: sources {sources}")

    if failures:
        print("\nFAIL:")
        for reason in failures:
            print(f"  - {reason}")
        return 1
    print(
        f"\nok: {len(victims)} worker kills absorbed, "
        f"{warm_cache.stats.hits} warm hits, results bit-identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 0))
