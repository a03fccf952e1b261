"""The JSONL shard store: round-trips, corruption tolerance, the LRU cap."""

import json
import os

import pytest

from repro.cache.store import RunCache
from repro.metrics.records import EnergyDelayPoint


POINT = EnergyDelayPoint(
    label="stat@800MHz",
    energy=123.45678901234567,
    delay=9.876543210987654,
    frequency=800e6,
)
KEY_A = "aa" + "0" * 62
KEY_A2 = "aa" + "f" * 62
KEY_B = "bb" + "0" * 62
KEY_C = "cc" + "0" * 62


def test_round_trip_is_exact(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(KEY_A, POINT, meta={"workload": "ft.S"})
    fresh = RunCache(tmp_path)  # force a re-load from disk
    got, meta = fresh.get(KEY_A, with_meta=True)
    assert got == POINT
    assert got.energy == POINT.energy  # repr-exact float round-trip
    assert meta == {"workload": "ft.S"}


def test_point_without_frequency_round_trips(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(KEY_A, EnergyDelayPoint(label="cpuspeed", energy=1.0, delay=2.0))
    assert RunCache(tmp_path).get(KEY_A).frequency is None


def test_miss_then_hit_counters(tmp_path):
    cache = RunCache(tmp_path)
    assert cache.get(KEY_A) is None
    cache.put(KEY_A, POINT)
    assert cache.get(KEY_A) == POINT
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
    assert stats.bytes > 0
    assert stats.to_dict()["hits"] == 1


def test_no_directory_until_first_write(tmp_path):
    target = tmp_path / "never-created"
    cache = RunCache(target)
    assert cache.get(KEY_A) is None
    assert cache.stats.entries == 0
    assert not target.exists()


def test_last_writer_wins(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(KEY_A, POINT)
    newer = EnergyDelayPoint(label="newer", energy=1.0, delay=2.0)
    cache.put(KEY_A, newer)
    assert cache.stats.entries == 1
    assert RunCache(tmp_path).get(KEY_A) == newer


def test_corrupt_lines_are_skipped_not_fatal(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(KEY_A, POINT)
    cache.put(KEY_A2, EnergyDelayPoint(label="two", energy=2.0, delay=3.0))
    shard = tmp_path / "shards" / "aa.jsonl"
    with shard.open("a", encoding="utf-8") as fh:
        fh.write("{truncated json\n")  # hand-mangled line
        fh.write(json.dumps({"key": KEY_B, "point": {"label": "x"}}) + "\n")
    fresh = RunCache(tmp_path)
    assert fresh.get(KEY_A) == POINT
    assert fresh.get(KEY_A2).label == "two"
    assert fresh.stats.corrupt == 2


def test_unreadable_shard_is_discarded(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(KEY_A, POINT)
    shard = tmp_path / "shards" / "aa.jsonl"
    shard.write_bytes(b"\xff\xfe\x00 not utf-8")
    fresh = RunCache(tmp_path)
    assert fresh.get(KEY_A) is None  # costs a re-simulation, nothing more
    assert fresh.stats.corrupt == 1
    assert not shard.exists()


def test_lru_eviction_prefers_stale_shards(tmp_path):
    probe = RunCache(tmp_path / "probe")
    probe.put(KEY_A, POINT)
    line_bytes = probe.stats.bytes

    cache = RunCache(tmp_path / "capped", max_bytes=2 * line_bytes)
    cache.put(KEY_A, POINT)
    cache.put(KEY_B, POINT)
    # Age shard "aa" so it is unambiguously the least recently used.
    os.utime(tmp_path / "capped" / "shards" / "aa.jsonl", (1, 1))
    cache.put(KEY_C, POINT)  # pushes the store over the cap

    stats = cache.stats
    assert stats.evictions == 1
    assert stats.entries == 2
    assert stats.bytes <= 2 * line_bytes
    assert cache.get(KEY_A) is None  # the stale shard was evicted
    assert cache.get(KEY_B) == POINT
    assert cache.get(KEY_C) == POINT  # the just-written shard survives


def test_clear_removes_everything(tmp_path):
    cache = RunCache(tmp_path)
    cache.put(KEY_A, POINT)
    cache.put(KEY_B, POINT)
    assert cache.clear() == 2
    assert cache.stats.entries == 0
    assert RunCache(tmp_path).get(KEY_A) is None


def test_max_bytes_must_be_positive(tmp_path):
    with pytest.raises(ValueError, match="max_bytes"):
        RunCache(tmp_path, max_bytes=0)


@pytest.mark.parametrize("meta", ["oops", 5, ["x"], 0])
def test_record_whose_meta_is_not_an_object_is_corrupt(tmp_path, meta):
    shard = tmp_path / "shards" / "aa.jsonl"
    shard.parent.mkdir(parents=True)
    point = {"label": "x", "energy": 1.0, "delay": 2.0}
    record = {"key": KEY_A, "point": point, "meta": meta}
    shard.write_text(json.dumps(record) + "\n", encoding="utf-8")
    cache = RunCache(tmp_path)
    assert cache.get(KEY_A, with_meta=True) is None  # a miss, not a crash
    assert cache.stats.corrupt == 1


def test_record_whose_key_is_not_a_string_is_corrupt(tmp_path):
    shard = tmp_path / "shards" / "aa.jsonl"
    shard.parent.mkdir(parents=True)
    point = {"label": "x", "energy": 1.0, "delay": 2.0}
    shard.write_text(
        json.dumps({"key": [KEY_A], "point": point}) + "\n", encoding="utf-8"
    )
    cache = RunCache(tmp_path)
    assert cache.get(KEY_A) is None
    assert cache.stats.corrupt == 1


def test_sweep_resimulates_a_record_whose_meta_is_not_an_object(tmp_path):
    from repro.analysis.parallel import run_sweep
    from tests.cache.test_key_history import family_tasks

    chaos = family_tasks()[3]
    key = chaos.key()
    shard = tmp_path / "shards" / f"{key[:2]}.jsonl"
    shard.parent.mkdir(parents=True)
    point = {"label": "x", "energy": 1.0, "delay": 2.0}
    record = {"key": key, "point": point, "meta": "oops"}
    shard.write_text(json.dumps(record) + "\n", encoding="utf-8")
    cache = RunCache(tmp_path)
    [outcome] = run_sweep([chaos], use_cache=cache)
    assert outcome == chaos.run()
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    assert cache.stats.corrupt == 1
