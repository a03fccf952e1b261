"""A task's key depends on its value alone, not on what was keyed before.

The encoder keeps one compiled encoder per class, filled on first use.
These tests pin that nothing else carries over: value-equal tasks built
from scratch share a key, the order in which a fresh interpreter first
meets the classes does not matter, and ``calibration=None`` keys as the
default calibration it stands for.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.analysis.parallel import SweepTask
from repro.faults import ChaosTask, DvfsStuck, FaultPlan, NodeCrash
from repro.hardware.activity import CpuActivity
from repro.hardware.calibration import Calibration, DEFAULT_CALIBRATION
from repro.hardware.scaling import CORE_IO, tech_node
from repro.hardware.spec import ClusterSpec, NodeSpec
from repro.serving.arrivals import DiurnalArrivals, MMPPArrivals
from repro.serving.spec import ServingWorkload, TierSpec
from repro.serving.sweep import ServingTask
from repro.util.units import MHZ
from repro.workloads.nas_ft import NasFT
from repro.workloads.synthetic import SyntheticMix


def family_tasks(calibration=None):
    """One task per family and shape, every object built afresh."""
    fine = Calibration(
        activity_factors={
            CpuActivity.IDLE: 0.1,
            CpuActivity.ACTIVE: 1.0,
            CpuActivity.MEMSTALL: 0.5,
            CpuActivity.PROTO: 0.7,
            CpuActivity.SPIN: 0.4,
        },
        base_power=9.0,
    )
    spec = ClusterSpec(
        groups=(
            NodeSpec(count=4),
            NodeSpec(count=4, tech=tech_node(16, "itrs"), core=CORE_IO),
        )
    )
    tiers = (
        TierSpec("fe", nodes=1, service_cycles=1.0e6),
        TierSpec("app", nodes=2, service_cycles=4.0e6),
    )
    return [
        SweepTask(NasFT("S", n_ranks=4, iterations=2), "stat", 800 * MHZ),
        SweepTask(
            NasFT("S", n_ranks=8, iterations=1),
            "dyn",
            1000 * MHZ,
            regions=("fft",),
            calibration=fine,
            spec=spec,
        ),
        SweepTask(NasFT("S", n_ranks=4), "cpuspeed", calibration=calibration),
        ChaosTask(
            workload=SyntheticMix(
                1.0, 0.0, 0.0, iteration_seconds=0.5, iterations=4, n_ranks=4
            ),
            plan=FaultPlan(
                faults=(
                    NodeCrash(node_id=1, at=0.5, downtime=0.75),
                    DvfsStuck(node_id=2, at=0.25, duration=1.0),
                ),
                seed=3,
            ),
            budget_watts=80.0,
            calibration=calibration,
        ),
        ServingTask(
            ServingWorkload(
                tiers=tiers,
                arrivals=MMPPArrivals(20.0, 100.0, seed=2),
                horizon_s=1.5,
            ),
            "elastic",
            budget_watts=60.0,
            knobs=("dvfs", "gate"),
            calibration=calibration,
        ),
        ServingTask(
            ServingWorkload(
                tiers=tiers,
                arrivals=DiurnalArrivals(30.0, seed=5),
                horizon_s=2.0,
            ),
            "tierdvs",
            calibration=fine,
        ),
    ]


def test_rebuilt_tasks_share_the_original_keys():
    original, rebuilt = family_tasks(), family_tasks()
    for a, b in zip(original, rebuilt):
        assert a.workload is not b.workload  # no shared objects
        assert a.key() == b.key()


def test_a_workload_changed_after_keying_gets_a_new_key():
    task = family_tasks()[0]
    before = task.key()
    task.workload.cycles_per_flop *= 2
    assert task.key() != before


def test_none_calibration_keys_as_the_default_calibration():
    implicit = family_tasks()
    for explicit in (
        family_tasks(calibration=DEFAULT_CALIBRATION),
        family_tasks(calibration=Calibration()),
    ):
        assert [t.key() for t in implicit] == [t.key() for t in explicit]


_KEY_SCRIPT = """
import json, sys
from tests.cache.test_key_history import family_tasks

tasks = list(enumerate(family_tasks()))
if sys.argv[1] == "reverse":
    tasks.reverse()
keys = {i: task.key() for i, task in tasks}
print(json.dumps([keys[i] for i in sorted(keys)]))
"""


def _keys_in_fresh_interpreter(order):
    repo = Path(__file__).resolve().parents[2]
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(repo)]))
    out = subprocess.run(
        [sys.executable, "-c", _KEY_SCRIPT, order],
        capture_output=True,
        text=True,
        check=True,
        cwd=repo,
        env=env,
    )
    return json.loads(out.stdout)


def test_fresh_interpreters_agree_whatever_order_they_key_in():
    forward = _keys_in_fresh_interpreter("forward")
    assert _keys_in_fresh_interpreter("reverse") == forward
    assert [t.key() for t in family_tasks()] == forward
