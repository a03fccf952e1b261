"""Self-tests of the traced run's split of wall time across layers.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import gc
import json
import time
from pathlib import Path

import pytest

import layers
import suite
import worker
from repro.simmpi.world import World

ROOT = Path(__file__).resolve().parents[2]

#: A short fixed list per workload: enough tasks to touch every layer
#: the workload exercises, few enough to keep the suite quick.
SHORT_LISTS = {
    "ft_sweep": 6,
    "capped_chaos": 6,
    "serving_day": 5,
    "warm_replay": 3 * suite.WARM_STORED_PER_FAMILY * suite.WARM_PASSES_PER_MISS + 1,
}


def traced(name, tmp_path, n_tasks=None):
    run = suite.WORKLOADS[name].setup(suite.DEFAULT_SEED, tmp_path)
    tally = worker.Tally()
    metrics, _ = worker.traced(
        suite, layers, run, n_tasks or SHORT_LISTS[name], tally
    )
    assert tally.failed == 0
    return {k: v for k, (v, _) in metrics.items()}


@pytest.mark.parametrize("name", sorted(suite.WORKLOADS))
def test_layers_cover_traced_wall_time(name, tmp_path):
    metrics = traced(name, tmp_path)
    assert metrics["trace.coverage"] >= 0.9
    assert metrics["trace.overhead"] > 1.0


def _slowed(original, seconds):
    """``original`` behind a fixed sleep, compiled as part of its module."""

    def slowed(*args, **kwargs):
        time.sleep(seconds)
        return original(*args, **kwargs)

    slowed.__code__ = slowed.__code__.replace(
        co_filename=original.__code__.co_filename
    )
    return slowed


@pytest.fixture
def no_gc():
    """Keep full collections, whose cost depends on what earlier tests
    left behind, from landing in one run and not the other."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def test_sleep_in_one_layer_moves_only_that_layer(tmp_path, monkeypatch, no_gc):
    sleep_s = 0.002
    base = traced("ft_sweep", tmp_path / "base", n_tasks=2)
    monkeypatch.setattr(World, "post", _slowed(World.__dict__["post"], sleep_s))
    slow = traced("ft_sweep", tmp_path / "slow", n_tasks=2)

    injected = slow["simmpi.sends"] * sleep_s
    assert injected > 0.1
    delta = {
        layer: slow[f"{layer}.self_s"] - base[f"{layer}.self_s"]
        for layer in layers.LAYERS
    }
    assert delta["simmpi"] >= 0.9 * injected
    for layer, moved in delta.items():
        if layer != "simmpi":
            assert abs(moved) < 0.1 * injected, (layer, moved)


def test_builtin_time_goes_to_the_calling_layers():
    repro_root = Path(layers.repro.__file__).parent
    cache_fn = (str(repro_root / "cache" / "keys.py"), 1, "task_key")
    sim_fn = (str(repro_root / "sim" / "engine.py"), 1, "step")
    util_fn = (str(repro_root / "util" / "validation.py"), 1, "check")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        cache_fn: (1, 1, 1.0, 4.0, {}),
        sim_fn: (1, 1, 2.0, 3.0, {}),
        # A helper outside every layer, called only by the engine.
        util_fn: (1, 1, 0.5, 1.5, {sim_fn: (1, 1, 0.5, 1.5)}),
        builtin: (4, 4, 4.0, 4.0, {
            cache_fn: (3, 3, 3.0, 3.0),
            util_fn: (1, 1, 1.0, 1.0),
        }),
    }
    totals = layers.attribute(stats)
    assert totals["cache"] == pytest.approx(1.0 + 3.0)
    assert totals["sim"] == pytest.approx(2.0 + 0.5 + 1.0)


def test_benchmark_json_names_the_suite():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [
        w.why for w in suite.WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


def test_seed_determines_the_inputs(tmp_path):
    def ids(seed):
        return [c.id for c in suite.capped_chaos(seed, tmp_path).cases]

    assert ids(3) == ids(3)
    assert ids(3) != ids(4)
    for seed in (3, 4):
        modes = [case_id.rsplit("/", 1)[1] for case_id in ids(seed)]
        assert {m: modes.count(m) for m in modes} == {
            m[0]: suite.CHAOS_PLANS_PER_RUN for m in suite.CHAOS_MODES
        }
