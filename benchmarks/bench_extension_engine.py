"""Extension: the engine's dispatch cost, and the bulk model paths'
speedup over the per-event walks.

``dispatch`` drives the bare engine with no model layer on top: 50
processes each waiting on 2000 timeouts, then 50 processes racing a
timeout against a shared tick with ``any_of`` (the loser is cancelled,
as in the CPU model's ``run_cycles`` race).  It pins every
``EngineStats`` count exactly and reports µs per dispatch in
``extra_info``; it asserts no speed ratio, since a wall-clock bound on a
small shared host is mostly noise.  Each program runs with the cycle
collector off and must leave **no** object to ``gc.collect()``: a fired
condition unsubscribes from the events it raced and a cancelled event
drops its callbacks, so the whole event graph dies by reference counting.

The other two cases each run the *same* simulation on the walks in
``tests/oracles.py`` (a timeout-vs-frequency race per ``run_cycles``
round, one link hold per network chunk) and on the production bulk
paths (one armed completion per quantum, one hold per uncontended
message), and asserting the walk/bulk wall-clock ratio.  A full
collection runs before each arm, so the collector never lands the
garbage of one arm (or of an earlier case) inside the other's timing:

* ``ft_c`` — NAS FT class C on 16 ranks under cpuspeed daemons.  The
  hot path is pure event churn (per-chunk network events, per-slice
  ``run_cycles``), where bulk holds pay directly.  Fault-free, so the
  two runs must also be **bit-identical** in energy and delay.
* ``chaos`` — the faulted capped sweep (hardened + fair-weather
  governor against the same accelerated fault plan) at 32 KiB network
  chunks, the contention granularity the walk pays one event per chunk
  for while the bulk path posts one completion per message.  Faulted
  runs stay delay-identical with identical violation counts; energy may
  differ by parts in 1e4 where a crash meets contended transfers (see
  docs/ENGINE.md), so energy is checked at 1e-3.

Both walk-vs-bulk cases assert **≥ 10×**.  ``REPRO_FULL_SCALE=1`` grows chaos to
class C on 16 ranks; the default keeps the walk leg to a few seconds.
"""

import gc
import time
from dataclasses import replace

import pytest

from benchmarks._harness import FULL_SCALE, run_once
from repro.analysis.runner import run_measured
from repro.dvs.strategy import CpuspeedStrategy, StaticStrategy
from repro.faults.spec import FaultPlan
from repro.faults.sweep import ChaosTask, run_chaos_sweep
from repro.hardware.calibration import DEFAULT_CALIBRATION
from repro.hardware.reliability import ReliabilityModel
from repro.sim import Engine
from repro.workloads.nas_ft import NasFT
from tests.oracles import using_walks

KIB = 1024
MIN_SPEEDUP = 10.0
N_PROCS = 50
N_TIMEOUTS = 2000
N_TICKS = 400
TICK_S = 1e-3
#: EngineStats (dispatched, frontiers, cancelled) of the two programs.
#: The chains dispatch one row per process start, per timeout and per
#: process exit.  Any change to the dispatch order moves these.
CHAIN_COUNTS = (N_PROCS * (N_TIMEOUTS + 2), 12295, 0)
RACE_COUNTS = (41700, 10400, 19202)


def _timeout_chains(eng):
    """N_PROCS processes, each waiting on N_TIMEOUTS timeouts in turn."""

    def chain(delay):
        for _ in range(N_TIMEOUTS):
            yield eng.timeout(delay)

    for i in range(N_PROCS):
        eng.process(chain(TICK_S * (1 + i % 7)))


def _any_of_race(eng):
    """N_PROCS processes race a timeout against a shared tick.

    A ticker succeeds a fresh tick event every ``TICK_S`` for N_TICKS
    ticks.  Racer *i* waits on ``any_of([timeout, tick])`` with a timeout
    between 0.5 and 1.5 ticks long, so about half the races go to the
    timeout and half to the tick; a losing timeout is cancelled.
    """
    tick = [eng.event()]

    def ticker():
        for _ in range(N_TICKS):
            yield eng.timeout(TICK_S)
            fired, tick[0] = tick[0], eng.event()
            fired.succeed()

    def racer(delay):
        while eng.now < N_TICKS * TICK_S:
            timer = eng.timeout(delay)
            yield eng.any_of([timer, tick[0]])
            if not timer.processed:
                eng.cancel(timer)

    eng.process(ticker())
    for i in range(N_PROCS):
        eng.process(racer(TICK_S * (0.5 + i / N_PROCS)))


def _dispatch(program):
    gc.collect()
    gc.disable()
    try:
        eng = Engine()
        program(eng)
        t0 = time.perf_counter()
        eng.run()
        elapsed = time.perf_counter() - t0
        stats = eng.stats
        del eng
        garbage = gc.collect()
    finally:
        gc.enable()
    return {
        "counts": (stats.dispatched, stats.frontiers, stats.cancelled),
        "garbage": garbage,
        "us_per_dispatch": elapsed / stats.dispatched * 1e6,
        "run_s": elapsed,
    }


def bench_extension_engine_dispatch(benchmark):
    out = run_once(
        benchmark,
        lambda: {
            "timeouts": _dispatch(_timeout_chains),
            "any_of": _dispatch(_any_of_race),
        },
    )
    assert out["timeouts"]["counts"] == CHAIN_COUNTS
    assert out["any_of"]["counts"] == RACE_COUNTS
    for case, result in out.items():
        assert result["garbage"] == 0, (case, result["garbage"])
    benchmark.extra_info["engine"] = {
        case: {
            "dispatched": result["counts"][0],
            "us_per_dispatch": round(result["us_per_dispatch"], 3),
            "run_s": round(result["run_s"], 4),
        }
        for case, result in out.items()
    }
    for case, result in out.items():
        print(
            f"\n{case}: {result['counts'][0]} dispatches in "
            f"{result['run_s']:.3f}s -> {result['us_per_dispatch']:.2f} us each"
        )


def _timed(fn):
    gc.collect()
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def _both_paths(fn):
    """Time ``fn()`` on the walks, then on the bulk paths, each arm
    after a full collection."""
    with using_walks():
        walk, t_walk = _timed(fn)
    bulk, t_bulk = _timed(fn)
    return {
        "walk": walk,
        "bulk": bulk,
        "speedup": t_walk / t_bulk,
        "t_walk": t_walk,
        "t_bulk": t_bulk,
    }


def _fine_chunks():
    """The default calibration at 32 KiB network chunks.

    Chunk size is the fabric's contention granularity: the walk
    schedules one event per chunk, the bulk path posts one completion
    per message, so finer chunks probe exactly the gap the bulk paths
    exist to close (and match the chaos case's fabric).
    """
    return DEFAULT_CALIBRATION.with_overrides(
        network=replace(DEFAULT_CALIBRATION.network, chunk_bytes=32 * KIB)
    )


def bench_extension_engine_ft_c(benchmark):
    workload = NasFT("C", n_ranks=16, iterations=1)
    calibration = _fine_chunks()

    out = run_once(
        benchmark,
        lambda: _both_paths(
            lambda: run_measured(workload, CpuspeedStrategy(), calibration).point
        ),
    )
    # Fault-free: the bulk paths are exact, not approximate.
    assert out["bulk"].energy == out["walk"].energy
    assert out["bulk"].delay == out["walk"].delay
    assert out["speedup"] >= MIN_SPEEDUP, (
        f"bulk speedup {out['speedup']:.1f}x below {MIN_SPEEDUP:.0f}x "
        f"(walk {out['t_walk']:.3f}s, bulk {out['t_bulk']:.3f}s)"
    )
    benchmark.extra_info["engine"] = {
        "speedup": round(out["speedup"], 2),
        "walk_s": round(out["t_walk"], 4),
        "bulk_s": round(out["t_bulk"], 4),
    }
    print(
        f"\nft_c: walk {out['t_walk']:.3f}s, bulk "
        f"{out['t_bulk']:.3f}s -> {out['speedup']:.1f}x (bit-identical)"
    )


def _chaos_tasks():
    """Two chaos tasks (hardened + fair-weather) on a 32 KiB-chunk fabric."""
    if FULL_SCALE:
        workload = NasFT("C", n_ranks=16, iterations=1)
        acceleration, interval = 1e8, 1.0
    else:
        workload = NasFT("B", n_ranks=8, iterations=2)
        acceleration, interval = 2e8, 0.5
    calibration = _fine_chunks()
    base = run_measured(workload, StaticStrategy(1.4e9), calibration=calibration)
    plan = FaultPlan.from_reliability(
        ReliabilityModel(annual_failure_rate=0.025),
        workload.n_ranks,
        base.point.delay,
        seed=0,
        acceleration=acceleration,
        downtime_s=0.3,
        dropout_weight=1.0,
        dropout_s=0.6,
        stuck_weight=1.0,
        stuck_s=0.6,
    )
    budget = 0.85 * base.point.energy / base.point.delay
    return [
        ChaosTask(
            workload,
            plan,
            budget,
            hardened=hardened,
            interval=interval,
            calibration=calibration,
        )
        for hardened in (True, False)
    ]


def bench_extension_engine_chaos(benchmark):
    tasks = _chaos_tasks()

    out = run_once(benchmark, lambda: _both_paths(lambda: run_chaos_sweep(tasks)))
    for walk, bulk in zip(out["walk"], out["bulk"]):
        # Faulted runs are delay-identical with identical chaos scores;
        # energy may drift by tie ordering only (documented contract).
        assert bulk.point.delay == walk.point.delay
        assert (
            bulk.report.post_recovery_violations
            == walk.report.post_recovery_violations
        )
        assert bulk.point.energy == pytest.approx(walk.point.energy, rel=1e-3)
    assert out["speedup"] >= MIN_SPEEDUP, (
        f"bulk chaos speedup {out['speedup']:.1f}x below "
        f"{MIN_SPEEDUP:.0f}x (walk {out['t_walk']:.3f}s, bulk "
        f"{out['t_bulk']:.3f}s)"
    )
    benchmark.extra_info["engine"] = {
        "speedup": round(out["speedup"], 2),
        "walk_s": round(out["t_walk"], 4),
        "bulk_s": round(out["t_bulk"], 4),
        "faults": len(tasks[0].plan.faults),
    }
    print(
        f"\nchaos: walk {out['t_walk']:.3f}s, bulk "
        f"{out['t_bulk']:.3f}s -> {out['speedup']:.1f}x "
        f"({len(tasks[0].plan.faults)} faults)"
    )
