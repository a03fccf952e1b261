"""``@record``: a frozen dataclass that is cheap to build.

A record must behave exactly like ``dataclass(frozen=True)`` — equality,
hashing, ``repr``, ``fields``, ``replace``, pickling, defaults and
``FrozenInstanceError`` — while its ``__init__`` writes slots directly
and shows up in a profile under its own name.  The hot-path guard at
the end keeps every frozen class that a control window or a request
builds on that fast path.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import weakref
from collections import Counter
from typing import Optional

import pytest

import repro
from repro.faults.spec import FaultPlan, NodeCrash
from repro.faults.sweep import ChaosTask
from repro.hardware.memory import AccessCost
from repro.powercap.actions import (
    GateNode,
    GovernorPlan,
    SetCoreAllocation,
    SetFreqCeiling,
    WakeNode,
)
from repro.powercap.governor import GovernorWindow
from repro.powercap.monitor import InvariantViolation
from repro.powercap.policy import CapAllocation
from repro.powercap.resilience import RepairEvent
from repro.powercap.telemetry import NodeWindowSample
from repro.serving.arrivals import MMPPArrivals
from repro.serving.records import RequestRecord, TierSpan
from repro.serving.spec import RequestSpec, ServingWorkload, TierSpec
from repro.serving.sweep import ServingTask
from repro.simmpi.message import Status
from repro.util.records import record
from repro.workloads.synthetic import SyntheticMix


@dataclasses.dataclass(frozen=True)
class PlainPoint:
    """A frozen dataclass: the reference a record must behave like."""

    x: int
    y: float = 2.5
    label: Optional[str] = None

    @property
    def norm(self) -> float:
        return abs(self.x) + abs(self.y)


@record
class Point:
    """:class:`PlainPoint`'s body as a record."""

    x: int
    y: float = 2.5
    label: Optional[str] = None

    @property
    def norm(self) -> float:
        return abs(self.x) + abs(self.y)


@pytest.fixture(scope="module")
def pair():
    return PlainPoint, Point


def test_fields_and_defaults_match_a_frozen_dataclass(pair):
    plain, rec = pair
    as_tuple = lambda f: (f.name, f.type, f.default, f.init, f.compare)
    assert [as_tuple(f) for f in dataclasses.fields(rec)] == [
        as_tuple(f) for f in dataclasses.fields(plain)
    ]
    assert rec(1) == rec(1, 2.5, None) == rec(x=1, label=None)
    assert rec(3, 4.0).norm == plain(3, 4.0).norm == 7.0
    assert rec.__match_args__ == plain.__match_args__


def test_equality_hash_and_repr_match_a_frozen_dataclass(pair):
    plain, rec = pair
    for args in [(1,), (1, 2.5), (0, -1.0, "a")]:
        assert repr(rec(*args)) == repr(plain(*args)).replace("Plain", "")
        assert hash(rec(*args)) == hash(plain(*args))
        assert rec(*args) == rec(*args)
    assert rec(1) != rec(2)
    # Equality is per class, as for any dataclass.
    assert rec(1) != plain(1)
    assert rec(1) != (1, 2.5, None)
    assert len({rec(1), rec(1), rec(2)}) == 2


def test_replace_pickle_and_copy_round_trip(pair):
    _, rec = pair
    value = rec(1, 3.0, "z")
    assert dataclasses.replace(value, y=4.0) == rec(1, 4.0, "z")
    for clone in (
        pickle.loads(pickle.dumps(value)),
        copy.copy(value),
        copy.deepcopy(value),
    ):
        assert clone == value and type(clone) is rec
    assert dataclasses.asdict(value) == {"x": 1, "y": 3.0, "label": "z"}


def test_fields_are_frozen_and_there_is_no_instance_dict(pair):
    _, rec = pair
    value = rec(1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.x = 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        del value.y
    with pytest.raises(dataclasses.FrozenInstanceError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


def test_post_init_runs_after_every_field_is_set():
    seen = []

    @record
    class Checked:
        a: int
        b: int = 0

        def __post_init__(self):
            seen.append((self.a, self.b))
            if self.b < self.a:
                raise ValueError("b < a")

    assert Checked(1, 2) == Checked(1, 2)
    with pytest.raises(ValueError):
        Checked(3)
    assert seen == [(1, 2), (1, 2), (3, 0)]


def test_governor_window_still_rejects_a_reversed_window():
    with pytest.raises(ValueError, match="window ends before it starts"):
        GovernorWindow(
            t0=1.0, t1=0.0, cluster_avg_watts=10.0, compliant=True,
            frequencies={}, predicted_watts=10.0, feasible=True,
        )


@pytest.mark.parametrize(
    "field",
    [
        dataclasses.field(default_factory=list),
        dataclasses.field(default=0, init=False),
        dataclasses.field(default=0, kw_only=True),
    ],
    ids=["default_factory", "init_false", "kw_only"],
)
def test_unsupported_fields_are_rejected(field):
    class Odd:
        pass

    Odd.__annotations__ = {"a": int}
    Odd.a = field
    with pytest.raises(TypeError, match="Odd.a"):
        record(Odd)


#: One instance of every record on the simulator's hot paths.
RECORDS = [
    NodeWindowSample(0, 0.0, 1.0, 50.0, 0.5, 1.4e9),
    SetFreqCeiling(0, 1.4e9),
    GateNode(0),
    WakeNode(0),
    SetCoreAllocation(0, 0.5),
    GovernorPlan((SetFreqCeiling(0, 1.4e9),), 50.0, True),
    GovernorWindow(0.0, 1.0, 50.0, True, {0: 1.4e9}, 50.0, True),
    CapAllocation({0: 1.4e9}, 50.0, True),
    InvariantViolation(1.0, "window-over-budget", "over"),
    RepairEvent(1.0, 0, "reapply"),
    TierSpan("app", 0, 0.0, 0.1, 0.2),
    RequestSpec(0, 0.0, (1.0e6,)),
    RequestRecord(0, 0.0, 0.2, "ok", (TierSpan("app", 0, 0.0, 0.1, 0.2),)),
    Status(0, 1, 64),
    AccessCost(10.0, 1e-6),
]


@pytest.mark.parametrize("value", RECORDS, ids=lambda v: type(v).__name__)
def test_hot_path_records_are_records(value):
    cls = type(value)
    assert cls.__init__.__code__.co_filename == f"<record {cls.__name__}>"
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
    assert weakref.ref(value)() is value
    assert pickle.loads(pickle.dumps(value)) == value
    assert dataclasses.replace(value) == value
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, dataclasses.fields(value)[0].name, None)


# ---------------------------------------------------------------------------
# hot-path guard
# ---------------------------------------------------------------------------
def _repro_dataclasses():
    """Every dataclass defined in a ``repro`` module."""
    classes = set()
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and dataclasses.is_dataclass(value)
                and value.__module__ == info.name
            ):
                classes.add(value)
    return classes


def _is_record(cls) -> bool:
    return cls.__init__.__code__.co_filename == f"<record {cls.__name__}>"


@pytest.fixture
def built(monkeypatch):
    """Count the instances every ``repro`` dataclass builds."""
    counts = Counter()
    frozen = {}
    for cls in _repro_dataclasses():
        frozen[cls] = cls.__dataclass_params__.frozen and not _is_record(cls)
        if "__init__" in vars(cls):
            init = vars(cls)["__init__"]

            def counting(self, *args, _init=init, **kwargs):
                counts[type(self)] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
    return counts, frozen


def _frequent_plain_frozen(counts, frozen, threshold):
    return sorted(
        f"{cls.__qualname__} ({n} built)"
        for cls, n in counts.items()
        if n >= threshold and frozen.get(cls)
    )


def test_every_frozen_class_built_per_window_is_a_record(built):
    """A capped, faulted run: per-window classes must be records."""
    counts, frozen = built
    task = ChaosTask(
        SyntheticMix(1.0, 0.0, 0.0, iteration_seconds=0.5, iterations=2, n_ranks=8),
        FaultPlan((NodeCrash(node_id=3, at=0.2, downtime=0.1),)),
        0.85 * 233.6,
        policy="redist",
        hardened=True,
        interval=0.02,
        allowed_recovery_s=0.08,
    )
    windows = task.run().report.total_windows
    assert windows >= 40
    assert counts[NodeWindowSample] >= windows
    assert _frequent_plain_frozen(counts, frozen, windows) == []


def test_every_frozen_class_built_per_request_is_a_record(built):
    """A capped serving day: per-request classes must be records."""
    counts, frozen = built
    workload = ServingWorkload(
        tiers=(
            TierSpec("frontend", nodes=2, service_cycles=2.0e6),
            TierSpec("app", nodes=2, service_cycles=12.0e6),
            TierSpec("storage", nodes=2, service_cycles=3.0e6),
        ),
        arrivals=MMPPArrivals(
            40.0, 190.0, base_dwell_s=0.6, burst_dwell_s=0.2, seed=1
        ),
        horizon_s=3.0,
        timeout_s=2.0,
        seed=1,
    )
    task = ServingTask(workload, "elastic", budget_watts=70.0)
    requests = task.run().report.n_requests
    assert requests >= 100
    assert counts[RequestRecord] == requests
    assert _frequent_plain_frozen(counts, frozen, requests) == []
