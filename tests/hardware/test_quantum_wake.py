"""A ``run_cycles`` quantum wakes its process in the pushed row's order.

When a quantum's deadline is dispatched and the head row is later than
``(now, PRIORITY_NORMAL)``, ``SimCPU`` runs the waiting process in the
deadline's own dispatch instead of pushing a second row (the wake rule
of docs/ENGINE.md).  Random programs built to tie at quantum end
instants must give, compared with ``==``, the same resume order, power
timelines and ``/proc/stat`` totals:

* as the same program with every wake pushed as a row;
* as the walk in ``tests/oracles.py``, which races a timeout against
  ``freq_changed`` and always wakes through a queued row, on programs
  without a *retime tie* (below).

The resume order is the order in which the program's processes get past
their waits and its rows fire (the walk also wakes a worker inside
``run_cycles`` at every rate change).  In the programs:

* workers on up to three nodes run cycle counts from one small set, so
  their quanta end together;
* controllers sleep through the same quanta and then, at a quantum's
  end instant, change the frequency, the core allocation or the power
  of a node, or queue an URGENT, NORMAL or LOW row at that instant,
  either from the instant itself or scheduled ahead from time 0.

Known divergence: a rate change that re-times an armed quantum stamps
the quantum's next row (its wake-up, or its re-armed deadline) at the
change, while the walk's worker stamps it when it wakes.  When that row
ties with another at its instant, the two can dispatch in the other
order.  The walk comparison skips such programs, and
:func:`test_retime_tie_wakes_like_the_walk` pins one as an expected
failure.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec, NodeSpec
from repro.sim import PRIORITY_LOW, PRIORITY_NORMAL, PRIORITY_URGENT, Event

from tests.oracles import using_walks

N_NODES = 3
#: cycles per quantum: 0.5, 1 and 2 ms at the fastest point
CYCLES = st.sampled_from([0.7e6, 1.4e6, 2.8e6])
PRIORITIES = st.sampled_from([PRIORITY_URGENT, PRIORITY_NORMAL, PRIORITY_LOW])
NODES = st.integers(0, N_NODES - 1)

workers = st.lists(
    st.tuples(NODES, st.lists(CYCLES, min_size=1, max_size=4)),
    min_size=1,
    max_size=4,
)
actions = st.one_of(
    st.tuples(st.just("freq"), NODES, st.integers(0, 4)),
    st.tuples(st.just("cores"), NODES, st.sampled_from([0.5, 1.0])),
    st.tuples(st.just("power_off"), NODES, CYCLES),
    st.tuples(st.just("row"), PRIORITIES, st.booleans()),
)
#: (quanta slept through at the fastest point, then the action)
controllers = st.lists(
    st.tuples(st.lists(CYCLES, min_size=1, max_size=3), actions), max_size=5
)


def _run(program):
    """Run ``program``; return its resume order, timelines and totals,
    and whether a rate change re-timed an armed quantum."""
    worker_specs, controller_specs = program
    cluster = Cluster.from_spec(ClusterSpec((NodeSpec(count=N_NODES),)))
    engine = cluster.engine
    nodes = [cluster.node(i) for i in range(N_NODES)]
    fastest = nodes[0].table.fastest.frequency
    log = []
    retimed = []

    def worker(name, cpu, cycles):
        for count in cycles:
            yield from cpu.run_cycles(count)
            log.append((engine.now, name))

    def queue_row(delay, priority):
        event = engine.event()
        event.callbacks.append(
            lambda _event: log.append((engine.now, "row", priority))
        )
        event._ok, event._value = True, None
        engine.schedule(event, delay, priority)

    def controller(name, sleeps, action):
        for count in sleeps:
            yield engine.timeout(count / fastest)
            log.append((engine.now, name))
        kind = action[0]
        if kind == "row":
            if not action[2]:  # queued at the instant itself
                queue_row(0.0, action[1])
            return
        cpu = nodes[action[1]].cpu
        retimed.extend(cpu._inflight)
        if kind == "freq":
            cpu.set_frequency(cpu.table[action[2]])
        elif kind == "cores":
            cpu.set_core_allocation(action[2])
        else:
            cpu.power_off()
            yield engine.timeout(action[2] / fastest)
            log.append((engine.now, name))
            cpu.power_on()

    for node in nodes:
        node.cpu.enable_power_gating()
    processes = [
        engine.process(worker(f"w{i}", nodes[node_index].cpu, cycles))
        for i, (node_index, cycles) in enumerate(worker_specs)
    ]
    for i, (sleeps, action) in enumerate(controller_specs):
        if action[0] == "row" and action[2]:  # scheduled ahead from 0
            delay = 0.0
            for count in sleeps:
                delay = delay + count / fastest
            queue_row(delay, action[1])
        processes.append(engine.process(controller(f"c{i}", sleeps, action)))
    # Until the program ends: the walk leaves its losing timeouts queued.
    engine.run(until=engine.all_of(processes))
    for node in nodes:
        node.finalize()
    outputs = (
        log,
        [node.timeline.segments() for node in nodes],
        [node.procstat.snapshot() for node in nodes],
    )
    return outputs, bool(retimed)


@settings(max_examples=300, deadline=None)
@given(workers, controllers)
def test_quantum_wake_keeps_the_row_order(worker_specs, controller_specs):
    """Against the same program with every wake pushed as a row."""
    program = (worker_specs, controller_specs)
    pushed = Event._succeed_in_dispatch
    Event._succeed_in_dispatch = Event.succeed
    try:
        rows, _ = _run(program)
    finally:
        Event._succeed_in_dispatch = pushed
    assert _run(program)[0] == rows


@settings(max_examples=300, deadline=None)
@given(workers, controllers)
def test_quantum_wake_keeps_the_walks_order(worker_specs, controller_specs):
    """Against the walk, on programs without a retime tie (below)."""
    program = (worker_specs, controller_specs)
    bulk, retime_tie = _run(program)
    assume(not retime_tie)
    with using_walks():
        walk, _ = _run(program)
    assert bulk == walk


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="a retime tie")
def test_retime_tie_wakes_like_the_walk():
    """Worker 1's third quantum on node 1 ends at 2 ms, the instant the
    controller, queued before that quantum's deadline, changes node 1's
    frequency.  The re-timed quantum has nothing left, so its worker
    wakes through a row pushed by the change, ahead of worker 0's
    completion at the same instant.  The walk's worker 1 wakes only
    when its own timeout fires, after worker 0's."""
    program = (
        [(0, [1.4e6, 1.4e6]), (1, [0.7e6, 0.7e6, 1.4e6])],
        [([1.4e6, 1.4e6], ("freq", 1, 0))],
    )
    bulk, retime_tie = _run(program)
    if not retime_tie:
        pytest.fail("the program no longer produces a retime tie")
    with using_walks():
        walk, _ = _run(program)
    assert bulk == walk
