"""The on-disk run store: JSON-lines shards under a content-hash layout.

Records live in ``<cache_dir>/shards/<kk>.jsonl`` where ``kk`` is the
first two hex characters of the key — 256 shards, each an append-only
JSON-lines file.  Appending is how interrupted sweeps resume for free: a
sweep that dies halfway has already appended every completed point, and
the re-run's lookups find them.

Design properties:

* **corruption-tolerant** — a truncated or hand-mangled line, or a
  record whose point does not parse or whose meta is not an object, is
  skipped (counted in ``stats.corrupt``); an unreadable shard file is
  discarded wholesale.  A bad cache can cost re-simulation but can
  never fail a sweep;
* **bounded** — ``max_bytes`` enforces an LRU size cap at shard
  granularity: every hit touches its shard's mtime, and the
  least-recently-used shards are deleted first when the cap is exceeded;
* **exact** — records round-trip ``repr``-exact floats through JSON, so
  a warm hit is bit-identical to the simulation it replaced;
* **last-writer-wins** — duplicate keys may appear when concurrent
  sweeps share a directory; the latest appended record is returned.

Concurrency contract (multiple processes sharing one ``cache_dir``):

* **appends are atomic** — :meth:`RunCache.put` writes one record as a
  single ``write()`` on a file opened in append mode while holding that
  shard's advisory lock (``<cache_dir>/locks/<kk>.lock``, ``flock``
  where available), so concurrent appenders interleave whole lines,
  never bytes;
* **reads are lock-free** — lookups never block on writers.  Keys are
  content hashes, so any record found for a key holds exactly the value
  re-simulation would produce; a reader racing an appender at worst
  misses a record that just landed (costing one re-simulation) or reads
  a record that was just evicted (saving one);
* **staleness detection** — the in-memory shard image is tagged with
  the byte count it parsed; a lookup whose shard file grew (another
  process appended) or vanished (evicted) reloads before answering, so
  fleets of sweeps sharing a directory see each other's completed
  points;
* **eviction is crash-consistent** — the LRU cap takes each victim
  shard's lock *non-blocking* (a shard held by a concurrent appender is
  skipped this round) and re-checks size+mtime under the lock (a shard
  touched since the scan is skipped as recently used), so eviction can
  never delete a shard out from under an in-flight append;
* **lock files are permanent** — ``locks/<kk>.lock`` files are never
  deleted (not even by :meth:`RunCache.clear`): unlinking a lock file
  while another process holds its ``flock`` would let a third process
  lock a fresh inode and believe it holds the same lock.

Counters (hits/misses/evictions/corrupt) are per-instance; ``entries``
and ``bytes`` are measured from disk, so they reflect every process
sharing the directory.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

try:  # pragma: no cover - platform-dependent import
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX: locks degrade to no-ops
    fcntl = None  # type: ignore[assignment]

from repro.metrics.records import EnergyDelayPoint
from repro.obs.tracer import WALL_CLOCK, active_tracer

__all__ = ["CacheStats", "RunCache"]

_SHARD_SUFFIX = ".jsonl"
_LOCK_SUFFIX = ".lock"

#: size tag meaning "shard file absent when last examined"
_ABSENT = -1

#: One record as held in memory: its point and its meta (``None`` when
#: the record has none).
_Entry = Tuple[EnergyDelayPoint, Optional[dict]]


@dataclass(frozen=True)
class CacheStats:
    """Counters for one :class:`RunCache` instance plus on-disk totals."""

    hits: int  #: lookups answered from the store
    misses: int  #: lookups that fell through to simulation
    evictions: int  #: records deleted by the LRU size cap
    corrupt: int  #: records discarded as unparseable/invalid
    entries: int  #: records currently on disk (after dedup)
    bytes: int  #: total shard bytes currently on disk

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
            "entries": self.entries,
            "bytes": self.bytes,
        }


class RunCache:
    """Content-addressed store of :class:`EnergyDelayPoint` records.

    Safe to share one ``cache_dir`` across processes — concurrent sweeps
    (even whole fleets of them) may append and look up simultaneously
    without losing completed points; see the module docstring for the
    exact contract.

    Parameters
    ----------
    cache_dir:
        Root directory (created on first write).
    max_bytes:
        LRU size cap over all shard files; ``None`` disables eviction.

    Examples
    --------
    ::

        cache = RunCache("/tmp/repro-cache", max_bytes=64 << 20)
        key = task_key(task)
        point = cache.get(key)
        if point is None:
            point = simulate(task)
            cache.put(key, point)
    """

    def __init__(
        self, cache_dir: os.PathLike, max_bytes: Optional[int] = None
    ):
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.cache_dir = Path(cache_dir)
        self.max_bytes = max_bytes
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._corrupt = 0
        #: shard prefix -> {key -> (point, meta)}, lazily loaded
        self._shards: Dict[str, Dict[str, _Entry]] = {}
        #: shard prefix -> its shard file's path, as a str
        self._paths: Dict[str, str] = {}
        #: shard prefix -> byte count the in-memory image parsed
        #: (:data:`_ABSENT` when the file was missing).  Shard files only
        #: ever grow in place, so a size match means the image is
        #: current; any mismatch (growth, eviction, rebuild) forces a
        #: reload on next access.
        self._tags: Dict[str, int] = {}

    # -- layout --------------------------------------------------------
    @property
    def shard_dir(self) -> Path:
        return self.cache_dir / "shards"

    @property
    def lock_dir(self) -> Path:
        return self.cache_dir / "locks"

    def _shard_path(self, prefix: str) -> str:
        path = self._paths.get(prefix)
        if path is None:
            path = self._paths[prefix] = os.path.join(
                self.cache_dir, "shards", prefix + _SHARD_SUFFIX
            )
        return path

    def _shard_files(self) -> Iterator[Path]:
        if not self.shard_dir.is_dir():
            return iter(())
        return iter(sorted(self.shard_dir.glob(f"*{_SHARD_SUFFIX}")))

    # -- locking -------------------------------------------------------
    @contextmanager
    def _shard_lock(self, prefix: str, blocking: bool = True):
        """Hold the advisory lock for one shard (exclusive).

        Yields ``True`` when the lock is held.  With ``blocking=False``
        yields ``False`` instead of waiting when another process holds
        it.  Where ``flock`` is unavailable the lock degrades to a
        no-op (single-process behaviour is unchanged; cross-process
        appends still interleave at line granularity thanks to
        single-``write()`` appends).
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield True
            return
        self.lock_dir.mkdir(parents=True, exist_ok=True)
        fd = os.open(
            self.lock_dir / f"{prefix}{_LOCK_SUFFIX}",
            os.O_CREAT | os.O_RDWR,
            0o644,
        )
        try:
            try:
                fcntl.flock(
                    fd,
                    fcntl.LOCK_EX | (0 if blocking else fcntl.LOCK_NB),
                )
            except OSError:
                yield False
                return
            try:
                yield True
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    # -- load ----------------------------------------------------------
    def _load_shard(self, prefix: str) -> Dict[str, _Entry]:
        path = self._shard_path(prefix)
        try:
            size = os.stat(path).st_size
        except OSError:
            size = _ABSENT
        loaded = self._shards.get(prefix)
        if loaded is not None and self._tags.get(prefix) == size:
            return loaded
        records: Dict[str, _Entry] = {}
        data = b""
        if size != _ABSENT:
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                size = _ABSENT
            except OSError:
                # Unreadable shard: discard it rather than fail the sweep.
                self._corrupt += 1
                with self._shard_lock(prefix):
                    Path(path).unlink(missing_ok=True)
                data, size = b"", _ABSENT
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError:
            self._corrupt += 1
            with self._shard_lock(prefix):
                Path(path).unlink(missing_ok=True)
            text, data, size = "", b"", _ABSENT
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise ValueError("record is not an object")
                key = record["key"]
                if not isinstance(key, str):
                    raise ValueError("record key is not a string")
                # Decode eagerly so a poisoned record is discarded at
                # load time, not thrown mid-sweep.
                records[key] = self._entry_of(record)  # last writer wins
            except (KeyError, TypeError, ValueError):
                self._corrupt += 1
        self._shards[prefix] = records
        # Tag with the bytes actually parsed: if the file grew between
        # the stat and the read, the tag still matches the image.
        self._tags[prefix] = len(data) if size != _ABSENT else _ABSENT
        return records

    @staticmethod
    def _entry_of(record: dict) -> _Entry:
        point = record["point"]
        meta = record.get("meta")
        if meta is not None and not isinstance(meta, dict):
            raise ValueError("record meta is not an object")
        return (
            EnergyDelayPoint(
                label=point["label"],
                energy=float(point["energy"]),
                delay=float(point["delay"]),
                frequency=(
                    None
                    if point.get("frequency") is None
                    else float(point["frequency"])
                ),
            ),
            meta,
        )

    # -- public API ----------------------------------------------------
    def get(
        self, key: str, with_meta: bool = False
    ) -> Union[None, EnergyDelayPoint, _Entry]:
        """The stored point for ``key``, or ``None`` (counted as a miss).

        With ``with_meta=True`` a hit is the pair ``(point, meta)``, meta
        being the stored dict (``None`` when the record has none) — the
        store's own object, so read it without mutating it.
        """
        prefix = key[:2]
        entry = self._load_shard(prefix).get(key)
        tracer = active_tracer()
        if entry is None:
            self._misses += 1
            if tracer.enabled:
                tracer.instant(
                    "miss", "cache", "cache", tracer.wall_time(),
                    WALL_CLOCK, key=key[:12],
                )
            return None
        self._hits += 1
        if tracer.enabled:
            tracer.instant(
                "hit", "cache", "cache", tracer.wall_time(),
                WALL_CLOCK, key=key[:12],
            )
        try:
            os.utime(self._shard_path(prefix))  # LRU recency signal
        except OSError:
            pass  # shard evicted by a concurrent process mid-lookup
        return entry if with_meta else entry[0]

    def put(
        self, key: str, point: EnergyDelayPoint, meta: Optional[dict] = None
    ) -> None:
        """Append one record (idempotent re-puts are harmless).

        The append is one ``write()`` on an append-mode handle under the
        shard's advisory lock, so records from concurrent processes land
        whole — a torn line can only come from a crash mid-write, and
        the corruption-tolerant loader skips it.
        """
        record = {
            "key": key,
            "point": {
                "label": point.label,
                "energy": point.energy,
                "delay": point.delay,
                "frequency": point.frequency,
            },
        }
        if meta:
            record["meta"] = meta
        entry = self._entry_of(record)
        prefix = key[:2]
        line = (json.dumps(record, separators=(",", ":")) + "\n").encode(
            "utf-8"
        )
        self.shard_dir.mkdir(parents=True, exist_ok=True)
        records = self._load_shard(prefix)
        with self._shard_lock(prefix):
            with open(self._shard_path(prefix), "ab") as fh:
                fh.write(line)
        records[key] = entry
        # Advance the size tag optimistically: exact when no other
        # process appended since the load; any interleaved foreign
        # append leaves the tag short of the true size, which simply
        # forces a reload (and pickup of the foreign records) on the
        # next access.
        prev = self._tags.get(prefix, _ABSENT)
        self._tags[prefix] = (0 if prev == _ABSENT else prev) + len(line)
        if self.max_bytes is not None:
            self._enforce_cap(keep=prefix)

    def clear(self) -> int:
        """Delete every shard; returns the number of records removed.

        Lock files are left in place — see the module docstring.
        """
        removed = 0
        for path in self._shard_files():
            removed += len(self._load_shard(path.stem))
            with self._shard_lock(path.stem):
                path.unlink(missing_ok=True)
        self._shards.clear()
        self._tags.clear()
        return removed

    # -- accounting ----------------------------------------------------
    def _disk_usage(self) -> Tuple[int, int]:
        """(entries, bytes) across all shard files."""
        entries = 0
        total = 0
        for path in self._shard_files():
            entries += len(self._load_shard(path.stem))
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return entries, total

    @property
    def stats(self) -> CacheStats:
        entries, total = self._disk_usage()
        return CacheStats(
            hits=self._hits,
            misses=self._misses,
            evictions=self._evictions,
            corrupt=self._corrupt,
            entries=entries,
            bytes=total,
        )

    def _enforce_cap(self, keep: Optional[str] = None) -> None:
        """Evict least-recently-used shards until under ``max_bytes``.

        The shard named by ``keep`` (the one just written) is evicted
        last, so the working set of the *current* sweep survives even
        when the cap is undersized.  Each victim is deleted only while
        holding its advisory lock (non-blocking: a shard locked by a
        concurrent appender is skipped this round) and only if its
        size and mtime still match the scan (a shard touched since is
        recently used, not LRU).
        """
        assert self.max_bytes is not None
        paths = list(self._shard_files())
        total = 0
        snapshot = {}
        for path in paths:
            try:
                snapshot[path] = path.stat()
                total += snapshot[path].st_size
            except OSError:
                continue
        if total <= self.max_bytes:
            return
        ordered = sorted(
            snapshot,
            key=lambda p: (p.stem == keep, snapshot[p].st_mtime),
        )
        for path in ordered:
            if total <= self.max_bytes:
                break
            seen = snapshot[path]
            with self._shard_lock(path.stem, blocking=False) as held:
                if not held:
                    continue  # a concurrent appender holds this shard
                try:
                    now = path.stat()
                except OSError:
                    total -= seen.st_size  # already gone (someone else)
                    continue
                if (now.st_size, now.st_mtime_ns) != (
                    seen.st_size,
                    seen.st_mtime_ns,
                ):
                    continue  # touched since the scan: recently used
                self._evictions += len(self._load_shard(path.stem))
                self._shards.pop(path.stem, None)
                self._tags.pop(path.stem, None)
                path.unlink(missing_ok=True)
            total -= seen.st_size
