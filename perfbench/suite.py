"""The benchmark's four workloads.

A *task* is one independent simulation: one operating point, one faulted
capped run, one serving day, or one cached replay.  Every task belongs
to a finite universe of *cases* (a stable id plus the picklable task the
public sweep entry point runs), and ``refs.json`` stores the reference
output of every case in every universe.  A seed only chooses and orders
cases, so the outputs of any seed are checkable; ``make_refs.py``
regenerates the file.

Each workload is a closed loop: one process submits one task at a time
through ``run_sweep``, ``run_chaos_sweep`` or ``run_serving_sweep`` on
the default serial backend.  ``warm_replay`` alone runs against a
``RunCache`` and sends its misses to the process backend.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.parallel import SweepTask, run_sweep
from repro.cache.store import RunCache
from repro.faults.spec import FaultPlan, acceleration_for
from repro.faults.sweep import ChaosTask, run_chaos_sweep
from repro.hardware.calibration import DEFAULT_CALIBRATION
from repro.hardware.reliability import ReliabilityModel
from repro.hardware.scaling import CORE_IO, tech_node
from repro.hardware.spec import ClusterSpec, NodeSpec
from repro.serving.arrivals import DiurnalArrivals, MMPPArrivals
from repro.serving.spec import ServingWorkload, TierSpec
from repro.serving.sweep import ServingTask, run_serving_sweep
from repro.workloads.nas_ft import NasFT
from repro.workloads.synthetic import SyntheticMix

REFS_PATH = Path(__file__).with_name("refs.json")

#: The seed used while the benchmark was written, and the one kept back
#: so a later claim can be checked on inputs nobody tuned against.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# -- ft_sweep: the paper's crescendo ------------------------------------

FT_ITERATIONS = 1
FT_FREQUENCIES_MHZ = (600, 800, 1000, 1200, 1400)
FT_STRATEGIES = (
    ("cpuspeed",)
    + tuple(f"stat{mhz}" for mhz in FT_FREQUENCIES_MHZ)
    + tuple(f"dyn{mhz}" for mhz in FT_FREQUENCIES_MHZ)
)
#: The engine bench's contention granularity.
FINE_CHUNKS = DEFAULT_CALIBRATION.with_overrides(
    network=replace(DEFAULT_CALIBRATION.network, chunk_bytes=32 * 1024)
)
#: The four-generation 1024-node machine of the scaling extension.
SPEC_1024 = ClusterSpec(
    groups=(
        NodeSpec(count=256),
        NodeSpec(count=256, tech=tech_node(22, "itrs")),
        NodeSpec(count=256, tech=tech_node(8, "itrs")),
        NodeSpec(count=256, tech=tech_node(8, "itrs"), core=CORE_IO),
    )
)
#: (class, ranks, chunk, cluster) — every FT configuration.
FT_CONFIGS = tuple(
    (cls, ranks, chunk, cluster)
    for cls in ("B", "C")
    for ranks in (8, 16)
    for chunk in ("default", "32k")
    for cluster in ("exact", "1024")
)

# -- capped_chaos: faulted runs under a power cap -----------------------

CHAOS_PLAN_SEEDS = 128
CHAOS_PLANS_PER_RUN = 34
CHAOS_RANKS = 8
CHAOS_ITERATIONS = 6
CHAOS_INTERVAL = 0.02
CHAOS_EXPECTED_FAULTS = 4.0
#: Delay and average draw of the all-compute mix at static 1.4 GHz
#: (``make_refs.py`` re-measures and asserts both).
CHAOS_UNCAPPED_DELAY_S = 3.0
CHAOS_UNCAPPED_WATTS = 233.6
CHAOS_BUDGET_W = 0.85 * CHAOS_UNCAPPED_WATTS
#: (mode, policy, hardened), the chaos experiment's three variants.
CHAOS_MODES = (
    ("selfheal+redist", "redist", True),
    ("selfheal+uniform", "uniform", True),
    ("fairweather+redist", "redist", False),
)

# -- serving_day: three-tier days under four control planes -------------

SERVING_DAY_SEEDS = 48
SERVING_DAYS_PER_RUN = 20
SERVING_HORIZON_S = 12.0
#: Budgets above and below the six-node cluster's DVFS floor (~60 W).
SERVING_POLICIES: Dict[str, dict] = {
    "static": {"policy": "static"},
    "cpuspeed": {"policy": "cpuspeed"},
    "tierdvs": {"policy": "tierdvs"},
    "elastic70": {"policy": "elastic", "budget_watts": 70.0},
    "elastic48": {"policy": "elastic", "budget_watts": 48.0},
}
SERVING_ARRIVALS = ("mmpp", "diurnal")

# -- warm_replay: a cached re-run with a few new points -----------------

WARM_STORED_PER_FAMILY = 8
WARM_PASSES_PER_MISS = 4
#: Rounds of one pass; each adds one miss, by turns from these families.
WARM_ROUNDS = 35
WARM_MISS_ROTATION = ("chaos", "serving", "ft", "chaos", "serving")


@dataclass(frozen=True)
class Case:
    """One task of a universe: a stable id, its family and the task."""

    id: str
    family: str  #: "ft", "chaos" or "serving"
    task: object


# -- universes ----------------------------------------------------------


def _ft_task(config, strategy: str) -> SweepTask:
    cls, ranks, chunk, cluster = config
    workload = _ft_workload(cls, ranks)
    kwargs = dict(
        calibration=FINE_CHUNKS if chunk == "32k" else None,
        spec=SPEC_1024 if cluster == "1024" else None,
    )
    if strategy == "cpuspeed":
        return SweepTask(workload, "cpuspeed", **kwargs)
    kind = "stat" if strategy.startswith("stat") else "dyn"
    mhz = int(strategy[len(kind):])
    return SweepTask(
        workload,
        kind,
        frequency=mhz * 1e6,
        regions=("fft",) if kind == "dyn" else None,
        **kwargs,
    )


@lru_cache(maxsize=None)
def _ft_workload(cls: str, ranks: int) -> NasFT:
    return NasFT(cls, n_ranks=ranks, iterations=FT_ITERATIONS)


def ft_case(config, strategy: str) -> Case:
    return Case(
        "ft/" + "/".join(map(str, config)) + f"/{strategy}",
        "ft",
        _ft_task(config, strategy),
    )


@lru_cache(maxsize=None)
def chaos_workload() -> SyntheticMix:
    """All-compute, no synchronisation: a lapse shows up as power."""
    return SyntheticMix(
        1.0, 0.0, 0.0,
        iteration_seconds=0.5,
        iterations=CHAOS_ITERATIONS,
        n_ranks=CHAOS_RANKS,
    )


@lru_cache(maxsize=None)
def chaos_plan(plan_seed: int) -> FaultPlan:
    """Crashes, dropouts and stuck regulators at an accelerated AFR."""
    reliability = ReliabilityModel(annual_failure_rate=0.025)
    horizon = CHAOS_UNCAPPED_DELAY_S
    return FaultPlan.from_reliability(
        reliability,
        CHAOS_RANKS,
        horizon,
        seed=plan_seed,
        acceleration=acceleration_for(
            reliability, CHAOS_RANKS, horizon, CHAOS_EXPECTED_FAULTS
        ),
        downtime_s=4 * CHAOS_INTERVAL,
        dropout_weight=1.0,
        dropout_s=10 * CHAOS_INTERVAL,
        stuck_weight=1.0,
        stuck_s=10 * CHAOS_INTERVAL,
    )


def chaos_case(plan_seed: int, mode: str) -> Case:
    _, policy, hardened = next(m for m in CHAOS_MODES if m[0] == mode)
    task = ChaosTask(
        chaos_workload(),
        chaos_plan(plan_seed),
        CHAOS_BUDGET_W,
        policy=policy,
        hardened=hardened,
        interval=CHAOS_INTERVAL,
        allowed_recovery_s=4 * CHAOS_INTERVAL,
    )
    return Case(f"chaos/{plan_seed}/{mode}", "chaos", task)


@lru_cache(maxsize=None)
def serving_day(arrivals: str, day_seed: int) -> ServingWorkload:
    """A 12 s three-tier day; its request stream is a pure function of it."""
    if arrivals == "mmpp":
        generator = MMPPArrivals(
            base_rate=40.0,
            burst_rate=190.0,
            base_dwell_s=0.6,
            burst_dwell_s=0.2,
            seed=day_seed,
        )
    else:
        generator = DiurnalArrivals(
            base_rate=60.0,
            swing=0.6,
            period_s=SERVING_HORIZON_S / 2.0,
            seed=day_seed,
        )
    return ServingWorkload(
        tiers=(
            TierSpec("frontend", nodes=2, service_cycles=2.0e6),
            TierSpec("app", nodes=2, service_cycles=12.0e6),
            TierSpec("storage", nodes=2, service_cycles=3.0e6),
        ),
        arrivals=generator,
        horizon_s=SERVING_HORIZON_S,
        timeout_s=2.0,
        name=f"three-tier-{arrivals}",
        seed=day_seed,
    )


def serving_case(arrivals: str, day_seed: int, policy: str) -> Case:
    task = ServingTask(
        serving_day(arrivals, day_seed), **SERVING_POLICIES[policy]
    )
    return Case(f"serving/{arrivals}/{day_seed}/{policy}", "serving", task)


def universe() -> List[Case]:
    """Every case any seed of any workload can draw."""
    cases = [ft_case(c, s) for c in FT_CONFIGS for s in FT_STRATEGIES]
    cases += [
        chaos_case(p, m[0])
        for p in range(CHAOS_PLAN_SEEDS)
        for m in CHAOS_MODES
    ]
    cases += [
        serving_case(a, d, p)
        for a in SERVING_ARRIVALS
        for d in range(SERVING_DAY_SEEDS)
        for p in SERVING_POLICIES
    ]
    return cases


# -- running and checking -----------------------------------------------

_ENTRY_POINTS: Dict[str, Callable] = {
    "ft": run_sweep,
    "chaos": run_chaos_sweep,
    "serving": run_serving_sweep,
}


def run_case(case: Case, **sweep_options) -> object:
    """One task through its family's public sweep entry point."""
    [outcome] = _ENTRY_POINTS[case.family]([case.task], **sweep_options)
    return outcome


def record(case: Case, outcome) -> dict:
    """The checked output fields of one outcome."""
    if case.family == "ft":
        return {"energy": outcome.energy, "delay": outcome.delay}
    if case.family == "chaos":
        report = outcome.report
        return {
            "energy": outcome.point.energy,
            "delay": outcome.point.delay,
            "windows": report.total_windows,
            "violations": report.violation_windows,
            "repairs": report.repair_events,
        }
    report = outcome.report
    return {
        "n_requests": report.n_requests,
        "completed": report.completed,
        "dropped": report.dropped,
        "timed_out": report.timed_out,
        "p99_s": report.p99_s,
        "energy_j": report.energy_j,
    }


def _close(a, b, rel: float) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def matches(case: Case, got: dict, ref: dict) -> bool:
    """Whether an output meets its reference within the family tolerance.

    FT points and serving reports hold to 1e-9.  Chaos runs hold delay
    and counts exactly and energy to 1e-3, the faulted-tie contract of
    docs/ENGINE.md.
    """
    if case.family == "ft":
        return all(_close(got[k], ref[k], 1e-9) for k in ("energy", "delay"))
    if case.family == "chaos":
        exact = ("delay", "windows", "violations", "repairs")
        return all(got[k] == ref[k] for k in exact) and _close(
            got["energy"], ref["energy"], 1e-3
        )
    counts = ("n_requests", "completed", "dropped", "timed_out")
    return all(got[k] == ref[k] for k in counts) and all(
        _close(got[k], ref[k], 1e-9) for k in ("p99_s", "energy_j")
    )


def load_refs() -> Dict[str, dict]:
    with REFS_PATH.open() as fh:
        return json.load(fh)["cases"]


# -- workloads ----------------------------------------------------------


class Run:
    """A workload's generated inputs for one seed, ready to time.

    ``cases`` is one pass of the task stream and ``options`` the sweep
    keywords every task is submitted with.  ``stored`` holds the cases a
    warm cache must answer, each with the outcome set-up stored for it:
    that outcome is checked against its reference here, and every hit
    must reproduce it bit for bit.
    """

    def __init__(
        self,
        cases: List[Case],
        options: Optional[dict] = None,
        stored: Sequence[Tuple[Case, object]] = (),
        fresh_cache: Optional[Callable[[], RunCache]] = None,
    ):
        self.cases = cases
        self.options = options or {}
        self.refs = load_refs()
        #: id -> stored output, ``None`` when it missed its reference so
        #: that every hit of it fails.
        self.hits: Dict[str, Optional[dict]] = {}
        for case, outcome in stored:
            got = record(case, outcome)
            ref = self.refs.get(case.id)
            ok = ref is not None and matches(case, got, ref)
            self.hits[case.id] = got if ok else None
        self._fresh_cache = fresh_cache

    def reset(self) -> None:
        """Give the next pass the cache state set-up left behind."""
        if self._fresh_cache is not None:
            self.options["use_cache"] = self._fresh_cache()

    def check(self, case: Case, outcome) -> bool:
        got = record(case, outcome)
        if case.id in self.hits:
            return got == self.hits[case.id]
        ref = self.refs.get(case.id)
        return ref is not None and matches(case, got, ref)


def ft_sweep(seed: int, run_dir: Path) -> Run:
    """The whole grid: every configuration under every strategy.

    The seed orders it.  Block ``b`` runs each configuration's ``b``-th
    strategy of a seeded order, and the configurations of a block run in
    a seeded order too, so cheap and costly points stay interleaved.
    """
    rng = random.Random(seed)
    points = {c: rng.sample(FT_STRATEGIES, len(FT_STRATEGIES)) for c in FT_CONFIGS}
    cases = []
    for block in range(len(FT_STRATEGIES)):
        configs = rng.sample(FT_CONFIGS, len(FT_CONFIGS))
        cases += [ft_case(c, points[c][block]) for c in configs]
    return Run(cases)


def _stratified(rng: random.Random, items, key, n: int) -> list:
    """``n`` of ``items`` in seeded order, one from each of ``n`` bands of
    ``key``, so every seed draws the same spread of sizes."""
    ranked = sorted(items, key=key)
    picks = [
        rng.choice(ranked[i * len(ranked) // n : (i + 1) * len(ranked) // n])
        for i in range(n)
    ]
    return rng.sample(picks, n)


@lru_cache(maxsize=None)
def _requests(arrivals: str, day_seed: int) -> int:
    return len(serving_day(arrivals, day_seed).arrivals.times(SERVING_HORIZON_S))


def _size(case: Case):
    """What a case's cost follows, comparable within its family."""
    parts = case.id.split("/")
    if case.family == "chaos":
        return len(chaos_plan(int(parts[1])).faults)
    if case.family == "serving":
        return _requests(parts[1], int(parts[2]))
    return case.id  # the FT pool's configurations, in grid order


def capped_chaos(seed: int, run_dir: Path) -> Run:
    """Seeded fault plans, each under all three chaos modes in turn.

    Plans are drawn one per band of fault count.
    """
    rng = random.Random(seed)
    plans = _stratified(
        rng,
        range(CHAOS_PLAN_SEEDS),
        lambda p: len(chaos_plan(p).faults),
        CHAOS_PLANS_PER_RUN,
    )
    cases = []
    for plan_seed in plans:
        for mode, _, _ in rng.sample(CHAOS_MODES, len(CHAOS_MODES)):
            cases.append(chaos_case(plan_seed, mode))
    return Run(cases)


def serving_day_run(seed: int, run_dir: Path) -> Run:
    """Seeded MMPP and diurnal days, alternating, each under every policy.

    Days are drawn one per band of request count, since a day's cost
    follows its request stream.
    """
    rng = random.Random(seed)
    days = {
        a: _stratified(
            rng,
            range(SERVING_DAY_SEEDS),
            lambda d, a=a: _requests(a, d),
            SERVING_DAYS_PER_RUN // 2,
        )
        for a in SERVING_ARRIVALS
    }
    cases = []
    for i in range(SERVING_DAYS_PER_RUN // 2):
        for arrivals in SERVING_ARRIVALS:
            for policy in rng.sample(list(SERVING_POLICIES), len(SERVING_POLICIES)):
                cases.append(serving_case(arrivals, days[arrivals][i], policy))
    return Run(cases)


def _warm_pools() -> Dict[str, List[Case]]:
    return {
        # Exact-size 8-rank FT: the cheap, steady points of the crescendo.
        "ft": [
            ft_case(c, s)
            for c in FT_CONFIGS
            if c[1] == 8 and c[3] == "exact"
            for s in FT_STRATEGIES
        ],
        "chaos": [
            chaos_case(p, m[0])
            for p in range(CHAOS_PLAN_SEEDS)
            for m in CHAOS_MODES
        ],
        "serving": [
            serving_case(a, d, p)
            for a in SERVING_ARRIVALS
            for d in range(SERVING_DAY_SEEDS)
            for p in SERVING_POLICIES
        ],
    }


def warm_replay(seed: int, run_dir: Path) -> Run:
    """A fresh cache pre-stored with a seeded mixed list, then replayed.

    Each round replays the stored list ``WARM_PASSES_PER_MISS`` times in
    seeded orders (hits) and slips one new task (a miss, rotating over
    the families) in at a seeded position.  Stored tasks and misses are
    drawn one per size band of their family.  Setup stores the list by
    running it cold through the process backend; every pass of the
    timed loop starts from a copy of that cache.
    """
    rng = random.Random(seed)
    pools = _warm_pools()
    stored: List[Case] = []
    misses: Dict[str, List[Case]] = {}
    for family, pool in pools.items():
        chosen = _stratified(rng, pool, _size, WARM_STORED_PER_FAMILY)
        rest = [c for c in pool if c.id not in {k.id for k in chosen}]
        n_misses = WARM_ROUNDS * WARM_MISS_ROTATION.count(family)
        misses[family] = _stratified(
            rng, rest, _size, n_misses // len(WARM_MISS_ROTATION)
        )
        stored += chosen

    options = {"jobs": os.cpu_count() or 1, "backend": "process"}
    cache_dir = run_dir / "cache"
    cache = RunCache(cache_dir)
    outcomes = []
    for family in pools:
        batch = [c for c in stored if c.family == family]
        outcomes += zip(
            batch,
            _ENTRY_POINTS[family](
                [c.task for c in batch], use_cache=cache, **options
            ),
        )

    cases: List[Case] = []
    taken = {family: 0 for family in misses}
    for r in range(WARM_ROUNDS):
        family = WARM_MISS_ROTATION[r % len(WARM_MISS_ROTATION)]
        miss = misses[family][taken[family]]
        taken[family] += 1
        replay = []
        for _ in range(WARM_PASSES_PER_MISS):
            replay += rng.sample(stored, len(stored))
        replay.insert(rng.randrange(len(replay) + 1), miss)
        cases += replay

    copies = itertools.count()

    def fresh_cache() -> RunCache:
        """A copy of the pre-stored cache; ``cache_dir`` itself stays as
        set-up left it."""
        target = run_dir / f"cache{next(copies)}"
        shutil.copytree(cache_dir, target)
        return RunCache(target)

    return Run(cases, options=options, stored=outcomes, fresh_cache=fresh_cache)


@dataclass(frozen=True)
class Workload:
    """A named workload: why it exists, and how a seed becomes a run."""

    name: str
    why: str
    setup: Callable[[int, Path], Run]
    #: Tasks in the traced run's fixed list.
    trace_tasks: int


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "ft_sweep",
            "the paper's crescendo: sim, simmpi and hardware.network do most "
            "of the work, while powercap, serving and cache do none",
            ft_sweep,
            trace_tasks=48,
        ),
        Workload(
            "capped_chaos",
            "powercap, faults and the EnergyCursor path take the time, and "
            "simmpi and the network are idle",
            capped_chaos,
            trace_tasks=96,
        ),
        Workload(
            "serving_day",
            "serving, hardware.cpu and metrics do the work on many small "
            "events and timeout cancellations, and simmpi is idle",
            serving_day_run,
            trace_tasks=60,
        ),
        Workload(
            "warm_replay",
            "the only workload that exercises cache (keys, get, put) and "
            "exec, with cache writes alongside reads",
            warm_replay,
            trace_tasks=(WARM_STORED_PER_FAMILY * 3 * WARM_PASSES_PER_MISS + 1)
            * 10,
        ),
    )
}
