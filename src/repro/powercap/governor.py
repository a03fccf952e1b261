"""The cluster cap governor: a periodic power-budget control loop.

One :class:`CapGovernor` runs per cluster (where the cpuspeed daemon runs
per node and cannot see the cluster total).  Every control interval it
closes a telemetry window — per-node windowed average watts from the
power timelines plus ``/proc/stat`` busy fractions
(:class:`~repro.powercap.telemetry.ClusterTelemetry`) — and runs one
pipeline, whatever the policy:

1. with a :class:`~repro.powercap.resilience.ResilienceConfig`, triage
   the window: nodes the governor cannot allocate this window (gated,
   crashed, rejoining or stuck) are carved out at their known draw, the
   uncontrollable ones get forced ceilings, and a blind window falls
   back to the uniform allocator;
2. build the window's :class:`~repro.powercap.policy.PlanContext` once,
   against the *derated* target ``cluster_watts × (1 − safety_margin)``
   less the carved draw (the margin covers the one-window prediction
   lag, while the budget's ``tolerance`` defines compliance);
3. ask the policy for a :class:`~repro.powercap.actions.GovernorPlan`;
4. append the forced ceilings to the plan;
5. route the plan's actions to the registered
   :mod:`~repro.powercap.actuators`.  Frequency ceilings go through
   :class:`~repro.dvs.capped.CappedCpuFreq`, so the governor composes
   with any inner DVS controller instead of fighting it.

Before the job starts, :meth:`start` installs a worst-case plan (every
node assumed fully active) so the run is compliant from t=0 — the
governor then *relaxes* toward measured slack rather than chasing an
initial violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple, Union

from repro.dvs.capped import CappedCpuFreq
from repro.hardware.activity import CpuActivity
from repro.hardware.cluster import Cluster
from repro.hardware.node import Node
from repro.obs.tracer import active_tracer
from repro.sim.engine import Engine
from repro.sim.events import Event
from repro.sim.process import Process
from repro.util.records import record
from repro.util.validation import check_fraction, check_positive

from repro.powercap.actions import GovernorPlan, SetFreqCeiling
from repro.powercap.actuators import Actuator, default_actuators, dispatch_plan
from repro.powercap.budget import PowerBudget
from repro.powercap.elastic import ElasticPolicy
from repro.powercap.monitor import InvariantMonitor
from repro.powercap.policy import (
    CapPolicy,
    PlanContext,
    SlackRedistributionPolicy,
    UniformCapPolicy,
)
from repro.powercap.resilience import (
    RepairEvent,
    ResilienceConfig,
    StuckState,
    describe_mhz,
)
from repro.powercap.telemetry import (
    ClusterTelemetry,
    LadderWatts,
    NodeWindowSample,
    demand_power,
    solve_busy_alpha,
)

__all__ = ["CapGovernorConfig", "GovernorWindow", "CapGovernor"]


@dataclass(frozen=True)
class CapGovernorConfig:
    """Control-loop tuning knobs."""

    #: seconds between telemetry windows / reallocations
    interval: float = 0.25
    #: fraction of the cap held back as control headroom: allocations
    #: target ``cluster_watts × (1 − safety_margin)`` so that one window
    #: of prediction lag stays inside the budget's tolerance band
    safety_margin: float = 0.05
    #: per-window retention of each node's demand high-water mark: a node
    #: keeps ``demand_decay × previous demand`` even if the latest window
    #: sampled it blocked (e.g. at a barrier), so one quiet window cannot
    #: talk the allocator into freeing headroom the node will reclaim a
    #: moment later.  0 trusts each window alone; →1 never forgets.
    demand_decay: float = 0.5

    def __post_init__(self) -> None:
        check_positive("interval", self.interval)
        check_fraction("safety_margin", self.safety_margin)
        check_fraction("demand_decay", self.demand_decay)


@record
class GovernorWindow:
    """One closed control window, for compliance reporting."""

    t0: float
    t1: float
    cluster_avg_watts: float  #: measured average over [t0, t1]
    compliant: bool  #: within cap × (1 + tolerance)
    frequencies: Dict[int, float]  #: allocation applied *after* this window
    predicted_watts: float  #: policy's estimate for the new allocation
    feasible: bool  #: policy could meet the target on this ladder

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise ValueError(
                f"window ends before it starts: t0={self.t0}, t1={self.t1}"
            )

    @property
    def duration(self) -> float:
        """Window length in seconds (never negative; 0-length windows
        are rejected before construction by the governor)."""
        return self.t1 - self.t0


def _prediction_model(node: Node) -> tuple:
    """What the governor's prediction reads of a node's hardware: its
    ladder and the power model's constants and rows, by value."""
    model = node.power_model
    return (
        node.table.points,
        model.base_power,
        model.nic_active_power,
        model.gated_power,
        model.cpu.max_power,
        model.cpu.factors,
        model.cpu.rows,
    )


def _keyed(policy) -> bool:
    """Whether ``policy``'s plan is a function of the governor's plan key:
    a built-in stateless policy, or an elastic one over such a policy."""
    if type(policy) is ElasticPolicy:
        return _keyed(policy.inner)
    return type(policy) in (SlackRedistributionPolicy, UniformCapPolicy)


def _check_one_model(cluster: Cluster) -> None:
    """Reject a cluster whose nodes differ in ladder or power model.

    The governor predicts, infers α and resolves bounds for every node
    on one ladder and one power model; on a mixed-generation cluster
    another group's clock is off that ladder.
    """
    runs: List[Tuple[Node, int]] = []  # (first node, last id) per model run
    for node in cluster.nodes:
        if runs and _prediction_model(node) == _prediction_model(runs[-1][0]):
            runs[-1] = (runs[-1][0], node.node_id)
        else:
            runs.append((node, node.node_id))
    if len(runs) > 1:
        groups = "; ".join(
            f"nodes {first.node_id}-{last}: "
            f"{first.table.slowest.mhz:.0f}-{first.table.fastest.mhz:.0f} MHz, "
            f"{first.power_model.cpu.max_power:.1f} W CPU"
            for first, last in runs
        )
        raise ValueError(
            "the cap governor predicts every node on one DVFS ladder and "
            f"power model, but this cluster's groups differ ({groups})"
        )


class CapGovernor:
    """Periodic cluster-wide power-cap enforcement process.

    Most callers never construct one directly —
    :class:`~repro.powercap.strategy.PowerCapStrategy` builds and starts
    a governor inside the standard ``prepare → run → teardown`` protocol.
    Direct construction is for driving the loop yourself::

        from repro.hardware.cluster import Cluster
        from repro.hardware.spec import ClusterSpec
        from repro.powercap import CapGovernor, CapGovernorConfig, PowerBudget
        from repro.simmpi import run_spmd

        cluster = Cluster.from_spec(ClusterSpec.homogeneous(8))
        governor = CapGovernor(
            cluster,
            PowerBudget(cluster_watts=130.0),
            config=CapGovernorConfig(interval=0.25, safety_margin=0.05),
        )
        governor.start(cluster.engine)   # installs the worst-case
        result = run_spmd(cluster, program, n_ranks=8)  # governor ticks
        governor.stop()

        for window in governor.windows:  # one record per control interval
            print(window.t0, window.cluster_avg_watts, window.compliant)
        print(governor.achieved_average_watts(), governor.violation_count)

    ``windows`` is the raw compliance record;
    :func:`repro.metrics.powercap.build_cap_report` turns it into the
    report the ``powercap`` experiment tabulates.
    """

    def __init__(
        self,
        cluster: Cluster,
        budget: PowerBudget,
        policy: Optional[Union[CapPolicy, ElasticPolicy]] = None,
        config: Optional[CapGovernorConfig] = None,
        resilience: Optional[ResilienceConfig] = None,
    ):
        self.cluster = cluster
        self.budget = budget
        self.policy = policy or SlackRedistributionPolicy()
        self.config = config or CapGovernorConfig()
        if isinstance(self.policy, ElasticPolicy) and resilience is not None:
            # The resilient path's watchdog would declare an orderly
            # gated node dead (dark + near-zero draw is exactly its
            # crash signature); composing the two needs a gating-aware
            # watchdog that does not exist yet.
            raise ValueError(
                "ElasticPolicy and ResilienceConfig cannot be combined: "
                "the crash watchdog cannot tell an orderly gated node "
                "from a dead one"
            )
        #: ``None`` = fair weather (every visible node is allocatable); a
        #: :class:`~repro.powercap.resilience.ResilienceConfig` adds the
        #: triage step (stale fallback, watchdog, stuck-frequency
        #: re-apply, rejoin containment)
        self.resilience = resilience
        #: always-on assertion layer recording invariant breaches
        self.monitor = InvariantMonitor(budget)
        #: per-node capped frequency setters; a composing DVS strategy
        #: drives its nodes through these (see PowerCapStrategy.prepare)
        self.cpufreqs: Dict[int, CappedCpuFreq] = {
            node.node_id: CappedCpuFreq(node, cluster.calibration)
            for node in cluster.nodes
        }
        # What the governor *believes* it applied per node — shared by
        # reference with the DVFS actuator, which records every ceiling
        # it installs; the hardened path checks telemetry against it.
        self._pending_target: Dict[int, float] = {}
        #: the control plane's hands, one per action kind it can execute
        self.actuators = default_actuators(
            cluster, self.cpufreqs, self._pending_target
        )
        _, self._gate, self._cores = self.actuators
        self._routes: Dict[type, Actuator] = {
            kind: actuator
            for actuator in self.actuators
            for kind in actuator.kinds
        }
        #: node ids the governor has gated and not yet seen powered again
        self._gated: set = set()
        self._model = cluster.nodes[0].power_model
        self._table = cluster.table
        _check_one_model(cluster)
        self._floor, self._ceiling = budget.resolve_bounds(self._table)
        #: per-node compute-demand high-water mark (decayed each window);
        #: missing nodes read as the worst-case 1.0
        self._demand: Dict[int, float] = {}
        self._spin = self._model.cpu.factors[CpuActivity.SPIN]
        #: ladder frequency → ``(busy, idle)`` CPU watts, slowest first
        self._watts = LadderWatts(self._model, self._table)
        self._wake_cost_watts = demand_power(
            self._model, self._table, 1.0, self._floor
        )
        # This window's prediction rows: node id → (sample, frequency →
        # predicted watts, carried inputs or None).  Both inputs of a
        # prediction (the sample and the demand high-water marks) are
        # fixed between _observe_demand calls, which is where the rows
        # are built.
        self._rows: Dict[int, tuple] = {}
        # node id → the inputs and row of its last sample: (node id,
        # (avg watts, busy fraction, frequency), demand, α, row)
        self._carried: Dict[int, tuple] = {}
        # The last planned window's key and the policy's plan for it.
        self._planned: tuple = (None, None)
        #: whether a window's plan may be reused (see :func:`_keyed`)
        self._plans_from_key = _keyed(self.policy)
        self._telemetry = ClusterTelemetry(cluster)
        self._process: Optional[Process] = None
        self._stopped = False
        #: closed control windows, oldest first
        self.windows: List[GovernorWindow] = []
        # Degraded-mode bookkeeping (only driven when resilience is on).
        self._last_sample: Dict[int, NodeWindowSample] = {}
        self._dark_count: Dict[int, int] = {}
        self._dead: set = set()
        self._stuck: Dict[int, StuckState] = {}
        #: defensive actions taken by the hardened control path
        self.repair_log: List[RepairEvent] = []

    # ------------------------------------------------------------------
    @property
    def target_watts(self) -> float:
        """The derated allocation target the policy works against."""
        return self.budget.cluster_watts * (1.0 - self.config.safety_margin)

    def _demand_of(self, node_id: int) -> float:
        """Decayed high-water compute intensity, floored at spin draw.

        The spin floor keeps the allocator honest about blocked ranks: a
        node that sampled near-idle can wake into a full busy-wait
        (α≈0.4 at 100 % busy — the Fig-3 artifact is MPICH-1's *default*
        waiting behaviour) within one control window, so it is never
        budgeted below its spinning draw.  Nodes never seen read as the
        worst-case 1.0.
        """
        return max(self._demand.get(node_id, 1.0), self._spin)

    def _sample_demand(self, sample: NodeWindowSample) -> float:
        """:meth:`_demand_of` as the plan's per-sample intensity metric."""
        return self._demand_of(sample.node_id)

    def _observe_demand(self, samples: List[NodeWindowSample]) -> None:
        """Fold a window's measured intensities into the high-water marks
        and build each sample's prediction row, in one pass.

        ``max(measured, decay × previous)``: one window that catches a
        compute rank blocked at a barrier cannot talk the allocator into
        freeing headroom the rank will reclaim a moment later, while a
        genuine phase change is forgotten within a few windows.  A
        window has one sample per node, so a node's row reads its own
        freshly folded mark.

        A node whose avg watts, busy fraction and frequency are ``==``
        its carried ones keeps its α; if its folded demand is ``==`` too,
        it keeps its row and the carried tuple itself.
        """
        decay = self.config.demand_decay
        demand = self._demand
        base_power = self._model.base_power
        watts = self._watts
        spin = self._spin
        carried = self._carried
        rows = {}
        for s in samples:
            nid = s.node_id
            inputs = (s.avg_watts, s.busy_fraction, s.frequency)
            last = carried.get(nid)
            if last is not None and last[1] == inputs:
                alpha = last[3]
            else:
                alpha = solve_busy_alpha(s, base_power, watts)
                last = None
            measured = s.busy_fraction * alpha  # = compute_intensity(s)
            demand[nid] = max(measured, decay * demand.get(nid, 1.0))
            level = max(demand[nid], spin)  # = _demand_of(nid)
            if last is None or last[2] != level:
                last = (nid, inputs, level, alpha, self._row(s, alpha))
                carried[nid] = last
            rows[nid] = (s, last[4], last)
        self._rows = rows

    def _row(self, sample: NodeWindowSample, alpha: float) -> Dict[float, float]:
        """Predicted watts at every ladder frequency: mix carryover vs
        demand, worst wins.

        The two terms are :func:`predict_node_power` and
        :func:`demand_power` of :mod:`repro.powercap.telemetry`, written
        out with the same expressions in the same order (the shared
        factors are the subexpressions Python evaluates first).  The
        first captures the measured activity blend; the second assumes
        the node runs at its recent high-water intensity for the whole
        next window.  Taking the max makes allocation robust to
        barrier-boundary windows that sample a transiently quiet mix.
        """
        base = self._model.base_power
        busy_fraction = sample.busy_fraction
        active = busy_fraction * alpha
        halted = 1.0 - busy_fraction
        demand = self._demand_of(sample.node_id)
        rest = 1.0 - demand
        row = {}
        for frequency, (busy, idle) in self._watts.items():
            mix = base + active * busy + halted * idle
            bound = base + demand * busy + rest * idle
            # max(mix, bound): the first argument wins ties
            row[frequency] = bound if bound > mix else mix
        return row

    def _predict(self, sample: NodeWindowSample, point) -> float:
        """Node power at ladder ``point``: a lookup in the sample's row.

        Samples outside this window's telemetry (the worst-case stand-ins
        and carried-forward samples) get their row on first use.
        """
        entry = self._rows.get(sample.node_id)
        if entry is None or entry[0] is not sample:
            alpha = solve_busy_alpha(sample, self._model.base_power, self._watts)
            entry = (sample, self._row(sample, alpha), None)
            self._rows[sample.node_id] = entry
        return entry[1][point.frequency]

    def _apply_plan(self, plan: GovernorPlan) -> None:
        """Route a plan's actions to their actuators (daemon context)."""
        dispatch_plan(plan, self._routes)
        self._gated.update(plan.gated_node_ids)

    def _plan_window(
        self, samples: List[NodeWindowSample], t0: float, t1: float
    ) -> GovernorPlan:
        """One window's decision: the pipeline of the module docstring."""
        # Reconcile the gating books first: a node the actuator finished
        # waking is powered again (its fresh sample is already in
        # ``samples``) and stops paying its suspend reserve.
        for nid in sorted(self._gated):
            if self.cluster.nodes[nid].cpu.powered:
                self._gated.discard(nid)
                self._dark_count[nid] = 0
        policy = self.policy
        target = self.target_watts
        gated = frozenset(self._gated)
        carved: Dict[int, float] = {}
        forced: Dict[int, float] = {}
        if self.resilience is not None:
            samples, carved, forced, stale = self._triage(samples, t0, t1)
            target = target - sum(carved.values())
            gated = frozenset()  # carved at their suspend draw instead
            if stale or target <= 0 or not samples:
                # Blind, out of headroom, or nothing left to allocate:
                # the uniform allocator's worst-case answer, all-floors
                # pin and empty allocation are exactly what is wanted.
                policy = UniformCapPolicy()
        waking = frozenset(self._gate.waking)
        core_allocation = {
            node.node_id: node.cpu.core_allocation
            for node in self.cluster.nodes
            if node.cpu.powered
        }
        protected = getattr(policy, "protected", frozenset())
        # The plan key: the context's own fields, then each sample's
        # carried inputs and row.  A stand-in or carried-forward sample
        # has none, and the stale fallback is not the governor's policy.
        key = None
        if policy is self.policy and self._plans_from_key:
            key = [target, gated, waking, core_allocation, protected]
            for s in samples:
                entry = self._rows.get(s.node_id)
                if entry is None or entry[0] is not s or entry[2] is None:
                    key = None
                    break
                key.append(entry[2])
        if key is not None and key == self._planned[0]:
            plan = self._planned[1]  # a steady window: same inputs, same plan
        else:
            plan = policy.plan(
                PlanContext(
                    samples=tuple(samples),
                    target_watts=target,
                    table=self._table,
                    floor=self._floor,
                    ceiling=self._ceiling,
                    predict=self._predict,
                    intensity=self._sample_demand,
                    base_power=self._model.base_power,
                    gated_draw_watts=self._model.gated_power,
                    wake_cost_watts=self._wake_cost_watts,
                    gated=gated,
                    waking=waking,
                    core_allocation=core_allocation,
                    protected=protected,
                )
            )
            self._planned = (key, plan)
        if carved:
            # Forced ceilings are actuated after the allocated ones; the
            # prediction covers the carved draw, while feasibility stays
            # the allocation's own.
            plan = GovernorPlan(
                actions=plan.actions
                + tuple(
                    SetFreqCeiling(node_id=nid, frequency=frequency)
                    for nid, frequency in forced.items()
                ),
                predicted_watts=plan.predicted_watts + sum(carved.values()),
                feasible=plan.feasible,
            )
        return plan

    # ------------------------------------------------------------------
    def start(self, engine: Engine) -> Process:
        """Install the worst-case allocation and launch the control loop."""
        if self._process is not None:
            raise RuntimeError("governor already started")
        self._apply_plan(self._initial_allocation())
        self._process = engine.process(self._run(engine), name="cap-governor")
        return self._process

    def stop(self) -> None:
        """Close the trailing partial window and stop the loop.

        Called from teardown (ordinary Python context, after the job
        completed) so compliance reporting covers the *whole* run, not
        just full control intervals.
        """
        self._stopped = True
        if self.cluster.engine.now > self._telemetry.window_start:
            self._close_window(reallocate=False)

    def _initial_allocation(self) -> GovernorPlan:
        """Worst-case uniform plan: every node fully active.

        With no telemetry yet, assume α=1 at 100 % busy on every node and
        pick the highest common frequency that still fits the target —
        compliant from the first instant, refined as windows arrive.
        """
        now = self.cluster.engine.now
        lo = self._table.index_of(self._floor.frequency)
        hi = self._table.index_of(self._ceiling.frequency)
        n = self.cluster.n_nodes
        for idx in range(hi, lo - 1, -1):
            point = self._table[idx]
            worst = NodeWindowSample(
                node_id=-1,
                t0=now,
                t1=now,
                avg_watts=self._model.power(
                    point, state=CpuActivity.ACTIVE, utilization=1.0
                ),
                busy_fraction=1.0,
                frequency=point.frequency,
            )
            total = n * self._predict(worst, point)
            if total <= self.target_watts or idx == lo:
                return GovernorPlan(
                    actions=tuple(
                        SetFreqCeiling(
                            node_id=node.node_id, frequency=point.frequency
                        )
                        for node in self.cluster.nodes
                    ),
                    predicted_watts=total,
                    feasible=total <= self.target_watts,
                )
        raise AssertionError("unreachable: loop always returns at the floor")

    # ------------------------------------------------------------------
    def _close_window(self, reallocate: bool) -> List[NodeWindowSample]:
        t0 = self._telemetry.window_start
        t1 = self.cluster.engine.now
        if t1 <= t0:
            # Zero-length window: the loop and stop() fired at the same
            # sim time.  Nothing was measured, so there is nothing to
            # close and no basis to reallocate on.
            return []
        samples = self._telemetry.sample()
        total = 0.0  # a plain loop in node order: sum() compensates on 3.12+
        for joules in self._telemetry.window_joules.values():
            total += joules
        avg = total / (t1 - t0)
        self._observe_demand(samples)
        if reallocate:
            plan = self._plan_window(samples, t0, t1)
            self._apply_plan(plan)
            frequencies = plan.frequencies
            predicted, feasible = plan.predicted_watts, plan.feasible
        else:
            frequencies = {
                nid: cf.current_frequency for nid, cf in self.cpufreqs.items()
            }
            predicted, feasible = avg, True
        window = GovernorWindow(
            t0=t0,
            t1=t1,
            cluster_avg_watts=avg,
            compliant=self.budget.complies(avg),
            frequencies=frequencies,
            predicted_watts=predicted,
            feasible=feasible,
        )
        self.windows.append(window)
        tracer = active_tracer()
        if tracer.enabled:
            tracer.span(
                "window", "powercap.governor", "governor", t0, t1,
                avg_watts=avg, target_watts=self.target_watts,
                compliant=window.compliant, feasible=feasible,
                reallocated=reallocate,
            )
            tracer.counter("cluster_watts", "governor", t1, avg)
        self.monitor.observe_window(
            window,
            target_watts=self.target_watts,
            node_frequencies={
                node.node_id: node.cpu.frequency
                for node in self.cluster.nodes
                if node.cpu.powered
            },
            ceilings={nid: cf.ceiling for nid, cf in self.cpufreqs.items()},
            allocated=reallocate,
        )
        return samples

    # ------------------------------------------------------------------
    # triage (resilience is not None)
    # ------------------------------------------------------------------
    @property
    def dead_nodes(self) -> frozenset:
        """Node ids the watchdog currently believes are crashed."""
        return frozenset(self._dead)

    def _repair(self, node_id: int, action: str, detail: str = "") -> None:
        self.repair_log.append(
            RepairEvent(
                time=self.cluster.engine.now,
                node_id=node_id,
                action=action,
                detail=detail,
            )
        )

    def _contain(self, node_id: int) -> None:
        """Force a node's ceiling *and* actual clock down to the floor.

        Used on rejoin (and on a reboot seen only through the PDU): a
        restarted node boots at the ladder's fastest point regardless of
        the ceiling the governor had on the books, so an explicit
        daemon-context down-switch is required — ``drive_down`` tells
        the DVFS actuator to force the clock even when ``set_ceiling``
        alone would no-op.
        """
        self._routes[SetFreqCeiling].apply(
            SetFreqCeiling(
                node_id=node_id,
                frequency=self._floor.frequency,
                drive_down=True,
            )
        )

    def _worst_case_sample(
        self, node_id: int, t0: float, t1: float
    ) -> NodeWindowSample:
        """Synthetic fully-active sample at the node's current ceiling.

        The stand-in for a stale node: it cannot legally draw more than
        this (unless also stuck, which the stuck path handles), so
        budgeting it here keeps the allocation conservative while blind.
        """
        point = self._table.point_for(self.cpufreqs[node_id].ceiling)
        return NodeWindowSample(
            node_id=node_id,
            t0=t0,
            t1=t1,
            avg_watts=self._model.power(
                point, state=CpuActivity.ACTIVE, utilization=1.0
            ),
            busy_fraction=1.0,
            frequency=point.frequency,
        )

    def _check_stuck(
        self, sample: NodeWindowSample, cfg: ResilienceConfig
    ) -> Optional[float]:
        """Stuck-frequency detection + bounded exponential-backoff retry.

        Returns the node's *actual* predicted-power carve-out frequency
        when it is stuck above its applied ceiling (the caller removes it
        from the allocatable set and compresses the survivors), or
        ``None`` when the node is honouring its ceiling.
        """
        nid = sample.node_id
        pending = self._pending_target.get(nid)
        if pending is None or sample.frequency <= pending * (1.0 + 1e-9):
            if nid in self._stuck:
                del self._stuck[nid]
                self._repair(nid, "unstuck", f"honouring {describe_mhz(pending)}")
            return None
        state = self._stuck.get(nid)
        if state is None or state.target != pending:
            state = StuckState(target=pending)
            self._stuck[nid] = state
        state.windows += 1
        if not state.gave_up and state.windows >= state.next_retry:
            if state.attempts < cfg.max_reapply_attempts:
                state.attempts += 1
                state.next_retry = state.windows + cfg.backoff_base_windows * (
                    2 ** (state.attempts - 1)
                )
                self.cpufreqs[nid].set_speed_now(pending)
                self._repair(
                    nid,
                    "reapply",
                    f"attempt {state.attempts}: stuck at "
                    f"{describe_mhz(sample.frequency)}, want "
                    f"{describe_mhz(pending)}",
                )
            else:
                state.gave_up = True
                self._repair(
                    nid,
                    "gave-up",
                    f"{cfg.max_reapply_attempts} re-applies refused; "
                    "budgeting node at its actual clock",
                )
        return sample.frequency

    def _triage(
        self, samples: List[NodeWindowSample], t0: float, t1: float
    ) -> Tuple[List[NodeWindowSample], Dict[int, float], Dict[int, float], bool]:
        """Survive missing, late and false telemetry.

        Partitions nodes into *usable* (fresh or tolerably-stale samples
        the policy may allocate) and *carved* (not allocatable this
        window — gated, crashed, rejoining or stuck — budgeted at their
        known draw, which the caller subtracts from the target), applying
        the watchdog / stale / stuck defenses along the way.  Returns
        ``(usable, carved watts, forced ceilings, stale fallback)``.
        """
        cfg = self.resilience
        assert cfg is not None
        present = {s.node_id: s for s in samples}
        duration = t1 - t0
        pdu = {
            nid: joules / duration
            for nid, joules in self._telemetry.window_joules.items()
        }
        usable: List[NodeWindowSample] = []
        carved: Dict[int, float] = {}
        forced: Dict[int, float] = {}
        stale_fallback = False

        for node in self.cluster.nodes:
            nid = node.node_id
            if nid in self._gated:
                # Orderly gated, not crashed: dark by design, drawing
                # exactly the platform's suspend power.  Budget that draw
                # and keep the watchdog/stale counters quiet, which would
                # otherwise misclassify the node as dead.
                carved[nid] = self._model.gated_power
                self._dark_count[nid] = 0
                continue
            sample = present.get(nid)
            if sample is None:
                dark = self._dark_count.get(nid, 0) + 1
                self._dark_count[nid] = dark
                drawing = pdu.get(nid, 0.0) > cfg.dead_watts
                if nid in self._dead:
                    if drawing:
                        # Rebooting (PDU sees it) but the agent is not
                        # back yet: contain the full-clock boot now.
                        self._contain(nid)
                    carved[nid] = pdu.get(nid, 0.0)
                    forced[nid] = self._floor.frequency
                    continue
                if dark >= cfg.dead_windows and not drawing:
                    # Watchdog: dark *and* drawing nothing — crashed.
                    # Its budget share redistributes to the survivors
                    # (carve-out of 0 W); pre-floor the ceiling so the
                    # eventual reboot is contained as early as possible.
                    self._dead.add(nid)
                    self._repair(
                        nid,
                        "declared-dead",
                        f"dark {dark} windows at "
                        f"{pdu.get(nid, 0.0):.2f} W",
                    )
                    self._contain(nid)
                    carved[nid] = 0.0
                    forced[nid] = self._floor.frequency
                    continue
                if dark >= cfg.stale_windows:
                    # Alive but blind: budget it at worst case and drop
                    # to the uniform policy for the whole window.
                    if dark == cfg.stale_windows:
                        self._repair(
                            nid,
                            "stale-fallback",
                            f"dark {dark} windows, still drawing "
                            f"{pdu.get(nid, 0.0):.2f} W",
                        )
                    stale_fallback = True
                    usable.append(self._worst_case_sample(nid, t0, t1))
                    continue
                # One-window blip: carry the last sample forward.
                last = self._last_sample.get(nid)
                usable.append(
                    last
                    if last is not None
                    else self._worst_case_sample(nid, t0, t1)
                )
                continue
            # Sample present.
            self._dark_count[nid] = 0
            self._last_sample[nid] = sample
            if nid in self._dead:
                # Rejoin: telemetry is back.  Contain the reboot-at-max
                # hazard immediately, and hold the node at the floor for
                # one window before normal allocation resumes.
                self._dead.discard(nid)
                self._repair(
                    nid, "rejoined", "containing at the ladder floor"
                )
                self._contain(nid)
                if cfg.rejoin_at_floor:
                    carved[nid] = self._predict(sample, self._floor)
                    forced[nid] = self._floor.frequency
                    continue
            stuck_frequency = self._check_stuck(sample, cfg)
            if stuck_frequency is not None:
                # Uncontrollable at its actual clock: budget reality,
                # compress the survivors, keep the intended ceiling on
                # the books so the retry loop has a target.
                actual = self._table.point_for(stuck_frequency)
                carved[nid] = self._predict(sample, actual)
                forced[nid] = self._pending_target[nid]
                continue
            usable.append(sample)

        return usable, carved, forced, stale_fallback

    def _run(self, engine: Engine) -> Generator[Event, object, None]:
        while not self._stopped:
            yield engine.timeout(self.config.interval)
            if self._stopped:
                return
            self._close_window(reallocate=True)

    # ------------------------------------------------------------------
    # compliance reporting
    # ------------------------------------------------------------------
    @property
    def deepest_knob(self) -> str:
        """The deepest knob actuated so far: ``"gate"`` once a node was
        gated or drained, else ``"cores"`` once a core fraction was set,
        else ``"dvfs"``."""
        if any(entry[2] in ("gate", "drain") for entry in self._gate.log):
            return "gate"
        return "cores" if self._cores.log else "dvfs"

    @property
    def violation_count(self) -> int:
        """Closed windows whose measured average exceeded the limit."""
        return sum(1 for w in self.windows if not w.compliant)

    @property
    def max_window_watts(self) -> float:
        """The worst windowed average observed (0.0 with no windows)."""
        return max((w.cluster_avg_watts for w in self.windows), default=0.0)

    def achieved_average_watts(self) -> float:
        """Duration-weighted average cluster power over all windows."""
        total_t = sum(w.duration for w in self.windows)
        if total_t <= 0:
            return 0.0
        return (
            sum(w.cluster_avg_watts * w.duration for w in self.windows) / total_t
        )
