"""Multi-process cache sharing: racing appends, staleness pickup, and
LRU eviction that never loses a completed point to a torn write.

Writers run in real child processes (fork) against one ``cache_dir`` —
the fleet scenario: several sweeps, one store.
"""

import json
import multiprocessing
import os

from repro.cache.store import RunCache
from repro.metrics.records import EnergyDelayPoint

CTX = multiprocessing.get_context("fork")


def _key(worker: int, i: int) -> str:
    # Spread keys over a handful of shards so writers collide on files.
    prefix = ["aa", "ab", "ac", "ad"][i % 4]
    return f"{prefix}{worker:02d}{i:06d}" + "0" * 54


def _point(worker: int, i: int) -> EnergyDelayPoint:
    return EnergyDelayPoint(
        label=f"w{worker}:{i}", energy=float(i) + 0.125, delay=1.0 + worker
    )


def _writer(cache_dir, worker, count, barrier):
    cache = RunCache(cache_dir)
    barrier.wait()  # maximise overlap between the two writers
    for i in range(count):
        cache.put(_key(worker, i), _point(worker, i))


class TestRacingAppends:
    def test_two_processes_lose_no_points(self, tmp_path):
        count = 150
        barrier = CTX.Barrier(2)
        writers = [
            CTX.Process(
                target=_writer, args=(tmp_path, worker, count, barrier)
            )
            for worker in (0, 1)
        ]
        for p in writers:
            p.start()
        for p in writers:
            p.join(timeout=120)
            assert p.exitcode == 0

        fresh = RunCache(tmp_path)
        for worker in (0, 1):
            for i in range(count):
                assert fresh.get(_key(worker, i)) == _point(worker, i)
        stats = fresh.stats
        assert stats.entries == 2 * count
        assert stats.corrupt == 0

    def test_shard_files_contain_only_whole_lines(self, tmp_path):
        barrier = CTX.Barrier(2)
        writers = [
            CTX.Process(target=_writer, args=(tmp_path, w, 80, barrier))
            for w in (0, 1)
        ]
        for p in writers:
            p.start()
        for p in writers:
            p.join(timeout=120)
        for shard in (tmp_path / "shards").glob("*.jsonl"):
            text = shard.read_text(encoding="utf-8")
            assert text.endswith("\n")
            for line in text.splitlines():
                json.loads(line)  # every line parses: no interleaving


class TestStalenessPickup:
    def test_reader_sees_foreign_appends_without_reopening(self, tmp_path):
        reader = RunCache(tmp_path)
        assert reader.get(_key(0, 0)) is None  # loads (empty) shard image

        writer = RunCache(tmp_path)  # a second process, in spirit
        writer.put(_key(0, 0), _point(0, 0))

        # Same reader instance: the size tag flags the grown shard.
        assert reader.get(_key(0, 0)) == _point(0, 0)

    def test_reader_sees_foreign_eviction(self, tmp_path):
        a = RunCache(tmp_path)
        a.put(_key(0, 0), _point(0, 0))
        assert a.get(_key(0, 0)) == _point(0, 0)

        b = RunCache(tmp_path)
        b.clear()

        assert a.get(_key(0, 0)) is None

    def test_instance_counters_stay_per_process(self, tmp_path):
        a = RunCache(tmp_path)
        b = RunCache(tmp_path)
        a.put(_key(0, 0), _point(0, 0))
        assert b.get(_key(0, 0)) == _point(0, 0)
        assert (b.stats.hits, b.stats.misses) == (1, 0)
        assert (a.stats.hits, a.stats.misses) == (0, 0)
        # Disk-level numbers agree between instances.
        assert a.stats.entries == b.stats.entries == 1


def _evicting_writer(cache_dir, worker, count, max_bytes, barrier):
    cache = RunCache(cache_dir, max_bytes=max_bytes)
    barrier.wait()
    for i in range(count):
        cache.put(_key(worker, i), _point(worker, i))


class TestConcurrentEviction:
    def test_racing_appends_and_eviction_never_corrupt(self, tmp_path):
        """Two capped writers race appends *and* evictions; whatever
        survives must be whole records — an evicted point costs a
        re-simulation, never a poisoned store."""
        count = 120
        probe = RunCache(tmp_path / "probe")
        probe.put(_key(0, 0), _point(0, 0))
        line_bytes = probe.stats.bytes
        cap = 30 * line_bytes

        barrier = CTX.Barrier(2)
        writers = [
            CTX.Process(
                target=_evicting_writer,
                args=(tmp_path / "shared", w, count, cap, barrier),
            )
            for w in (0, 1)
        ]
        for p in writers:
            p.start()
        for p in writers:
            p.join(timeout=120)
            assert p.exitcode == 0

        fresh = RunCache(tmp_path / "shared")
        survivors = 0
        for worker in (0, 1):
            for i in range(count):
                got = fresh.get(_key(worker, i))
                if got is not None:
                    assert got == _point(worker, i)  # whole, exact
                    survivors += 1
        stats = fresh.stats
        assert stats.corrupt == 0
        assert stats.entries == survivors

    def test_eviction_skips_shard_touched_since_scan(self, tmp_path):
        """A shard that grew between the LRU scan and the eviction lock
        is recently used, not LRU — it must survive the round."""
        from contextlib import contextmanager

        probe = RunCache(tmp_path / "probe")
        probe.put(_key(0, 0), _point(0, 0))
        line_bytes = probe.stats.bytes

        cache = RunCache(tmp_path / "capped", max_bytes=2 * line_bytes)
        key_aa = "aa" + "0" * 62
        key_ab = "ab" + "0" * 62
        key_ac = "ac" + "0" * 62
        cache.put(key_aa, _point(0, 0))
        cache.put(key_ab, _point(0, 1))
        os.utime(tmp_path / "capped" / "shards" / "aa.jsonl", (1, 1))

        # Interpose on the eviction's non-blocking lock: just before the
        # "aa" victim is locked, a foreign process appends to it.
        foreign = RunCache(tmp_path / "capped")
        real_lock = cache._shard_lock
        fired = []

        @contextmanager
        def racing_lock(prefix, blocking=True):
            if not blocking and prefix == "aa" and not fired:
                fired.append(True)
                foreign.put("aa" + "f" * 62, _point(9, 9))
            with real_lock(prefix, blocking=blocking) as held:
                yield held

        cache._shard_lock = racing_lock
        cache.put(key_ac, _point(0, 2))  # over cap: triggers eviction
        cache._shard_lock = real_lock

        assert fired  # the race actually happened
        # The aa shard changed since the scan, so it survived the round
        # (with the foreign record intact); the true LRU went instead.
        assert cache.get(key_aa) == _point(0, 0)
        assert cache.get("aa" + "f" * 62) == _point(9, 9)
        assert cache.get(key_ac) == _point(0, 2)
        assert cache.get(key_ab) is None  # the next-LRU shard was evicted


def _sweep_worker(cache_dir, frequencies, queue):
    from repro.analysis.parallel import SweepTask, run_sweep
    from repro.workloads.micro import L2BoundMicro

    tasks = [
        SweepTask(L2BoundMicro(passes=3), "stat", frequency=f)
        for f in frequencies
    ]
    points = run_sweep(tasks, use_cache=True, cache_dir=cache_dir)
    queue.put((tuple(frequencies), [(p.label, p.energy, p.delay) for p in points]))


class TestConcurrentSweeps:
    def test_two_sweeps_sharing_one_cache_dir_lose_nothing(self, tmp_path):
        """The acceptance scenario: two sweep processes, one cache
        directory, overlapping task sets — every completed point lands,
        and a warm re-run is bit-identical to both."""
        from repro.util.units import MHZ

        freqs_a = [600 * MHZ, 800 * MHZ, 1000 * MHZ]
        freqs_b = [800 * MHZ, 1000 * MHZ, 1400 * MHZ]  # overlap on 2
        queue = CTX.Queue()
        procs = [
            CTX.Process(
                target=_sweep_worker, args=(tmp_path, freqs, queue)
            )
            for freqs in (freqs_a, freqs_b)
        ]
        for p in procs:
            p.start()
        # Keyed by frequency set: the workers finish in either order.
        results = dict(queue.get(timeout=120) for _ in procs)
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0

        fresh = RunCache(tmp_path)
        assert fresh.stats.entries == 4  # union of the two frequency sets
        assert fresh.stats.corrupt == 0

        # A warm re-run against the shared store is bit-identical.
        from repro.analysis.parallel import SweepTask, run_sweep
        from repro.workloads.micro import L2BoundMicro

        for freqs in (freqs_a, freqs_b):
            expected = results[tuple(freqs)]
            tasks = [
                SweepTask(L2BoundMicro(passes=3), "stat", frequency=f)
                for f in freqs
            ]
            warm = run_sweep(tasks, use_cache=fresh)
            assert [(p.label, p.energy, p.delay) for p in warm] == expected
        stats = fresh.stats
        assert stats.hits == len(freqs_a) + len(freqs_b)
        assert stats.misses == 0


class TestLockHygiene:
    def test_lock_files_survive_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(_key(0, 0), _point(0, 0))
        assert any((tmp_path / "locks").glob("*.lock"))
        cache.clear()
        assert any((tmp_path / "locks").glob("*.lock"))
        assert cache.stats.entries == 0
