"""Columnar power-series kernel: prefix-sum energy queries, batch sampling.

:class:`~repro.hardware.timeline.PowerTimeline` is the cheap append-only
*recording* phase; this module is the *query* phase.  :class:`PowerSeries`
materialises a timeline's change points into NumPy columns plus a
prefix-sum energy column, so the cumulative integral

    ``F(t) = ∫ P dt`` from the series start to ``t``

is one ``searchsorted`` plus one fused multiply-add — ``energy(t0, t1)``
is ``F(t1) - F(t0)`` in O(log n), and the batch variants (:meth:`sample`,
:meth:`energy_many`, :meth:`windowed_average`) amortise that over whole
window sets in single vectorised calls.  Because adjacent window energies
telescope through ``F``, batch results sum *exactly* (not just to 1 ulp)
to the enclosing interval's energy — the attribution layer relies on it.

:class:`ClusterSeries` aggregates every node's frozen series: cluster
totals come from one *merged* series (union of all change points, watts
summed once at merge time) instead of per-node Python loops, and the
per-node batch queries power the telemetry, profile, and export layers.

Everything here is immutable; a timeline invalidates its cached frozen
view on append (see ``PowerTimeline.series``), so consumers never observe
a stale kernel.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

__all__ = ["PowerSeries", "ClusterSeries"]


class PowerSeries:
    """Immutable columnar view of one piecewise-constant power trace.

    Columns (equal length ``n``, change points oldest first):

    ``times``
        Change-point instants, strictly increasing.
    ``watts``
        Power level from each change point to the next (the last level
        extends indefinitely — a meter keeps reading it).
    ``cum_energy``
        Joules integrated from ``times[0]`` to ``times[i]`` (prefix sum;
        ``cum_energy[0] == 0``).
    """

    __slots__ = ("times", "watts", "cum_energy")

    def __init__(self, times: np.ndarray, watts: np.ndarray):
        times = np.array(times, dtype=float)
        watts = np.array(watts, dtype=float)
        if times.ndim != 1 or times.shape != watts.shape or times.size == 0:
            raise ValueError("times and watts must be equal-length 1-D, non-empty")
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise ValueError("change-point times must be strictly increasing")
        if np.any(watts < 0):
            raise ValueError("power levels must be non-negative")
        cum = np.empty_like(times)
        cum[0] = 0.0
        if times.size > 1:
            np.cumsum(watts[:-1] * np.diff(times), out=cum[1:])
        times.flags.writeable = False
        watts.flags.writeable = False
        cum.flags.writeable = False
        self.times = times
        self.watts = watts
        self.cum_energy = cum

    # ------------------------------------------------------------------
    @property
    def start_time(self) -> float:
        return float(self.times[0])

    @property
    def last_change(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return self.times.size

    # ------------------------------------------------------------------
    def _locate(self, times: np.ndarray) -> np.ndarray:
        """Segment index active at each query time (validates the range)."""
        if times.size and float(times.min()) < self.start_time:
            bad = float(times.min())
            raise ValueError(
                f"t={bad} precedes timeline start {self.start_time}"
            )
        return np.searchsorted(self.times, times, side="right") - 1

    def cumulative_energy(self, times) -> np.ndarray:
        """``F(t)``: joules from the series start to each query time."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        idx = self._locate(t)
        return self.cum_energy[idx] + self.watts[idx] * (t - self.times[idx])

    def sample(self, times) -> np.ndarray:
        """Instantaneous power (watts) at each query time, vectorised."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        return self.watts[self._locate(t)]

    # -- scalar queries (delegated to by PowerTimeline) ----------------
    def power_at(self, time: float) -> float:
        """Instantaneous power at ``time`` (watts)."""
        return float(self.sample(time)[0])

    def energy(self, t0: float, t1: float) -> float:
        """Exact energy in joules consumed over ``[t0, t1]``."""
        if t1 < t0:
            raise ValueError(f"energy interval reversed: [{t0}, {t1}]")
        if t0 < self.start_time:
            raise ValueError(
                f"t0={t0} precedes timeline start {self.start_time}"
            )
        f = self.cumulative_energy(np.array([t0, t1]))
        return float(f[1] - f[0])

    def average_power(self, t0: float, t1: float) -> float:
        """Average power over ``[t0, t1]`` (Eq. 3: ``E = P_avg × D``)."""
        if t1 == t0:
            return self.power_at(t0)
        return self.energy(t0, t1) / (t1 - t0)

    def peak_power(self, t0: float, t1: float) -> float:
        """Maximum instantaneous power (watts) over ``[t0, t1]``.

        Piecewise-constant traces attain their maximum at segment starts,
        so the answer is the max level among the segment active at ``t0``
        and every change point inside the window.
        """
        if t1 < t0:
            raise ValueError(f"peak interval reversed: [{t0}, {t1}]")
        if t0 < self.start_time:
            raise ValueError(
                f"t0={t0} precedes timeline start {self.start_time}"
            )
        lo = int(np.searchsorted(self.times, t0, side="right")) - 1
        hi = int(np.searchsorted(self.times, t1, side="right"))
        return float(self.watts[lo:hi].max())

    # -- batch queries --------------------------------------------------
    def energy_many(self, intervals) -> np.ndarray:
        """Joules over each ``(t0, t1)`` row of ``intervals``, vectorised.

        ``intervals`` is array-like of shape ``(m, 2)``.  Zero-width
        windows yield exactly 0.0.
        """
        iv = np.asarray(intervals, dtype=float)
        if iv.ndim != 2 or iv.shape[1] != 2:
            raise ValueError(f"intervals must have shape (m, 2), got {iv.shape}")
        if np.any(iv[:, 1] < iv[:, 0]):
            raise ValueError("energy_many: an interval is reversed")
        if iv.size == 0:
            return np.empty(0)
        return self.cumulative_energy(iv[:, 1]) - self.cumulative_energy(iv[:, 0])

    def windowed_average(self, edges) -> np.ndarray:
        """Average power over each ``[edges[k], edges[k+1]]`` window.

        ``edges`` is a non-decreasing 1-D array of ``k+1`` boundaries;
        returns ``k`` averages.  Zero-width windows report the
        instantaneous power at their edge (matching
        :meth:`average_power`).
        """
        e = np.asarray(edges, dtype=float)
        if e.ndim != 1 or e.size < 2:
            raise ValueError("edges must be 1-D with at least two boundaries")
        widths = np.diff(e)
        if np.any(widths < 0):
            raise ValueError("edges must be non-decreasing")
        f = self.cumulative_energy(e)
        joules = np.diff(f)
        positive = widths > 0
        out = np.empty_like(widths)
        np.divide(joules, widths, out=out, where=positive)
        if not positive.all():
            out[~positive] = self.sample(e[:-1][~positive])
        return out

    def change_times(self, t0: float, t1: float) -> np.ndarray:
        """The change points strictly inside ``(t0, t1]``."""
        lo = np.searchsorted(self.times, t0, side="right")
        hi = np.searchsorted(self.times, t1, side="right")
        return self.times[lo:hi]

    def window(self, t0: float, t1: float) -> Tuple[np.ndarray, np.ndarray]:
        """``(times, watts)`` views of the change points inside
        ``[t0, t1]`` — the slice exporters iterate to render a trace."""
        lo = int(np.searchsorted(self.times, t0, side="left"))
        hi = int(np.searchsorted(self.times, t1, side="right"))
        return self.times[lo:hi], self.watts[lo:hi]


class ClusterSeries:
    """All node series of one cluster, plus their merged total.

    The merged series is built once (union of every node's change points,
    per-node levels sampled and summed in one vectorised pass), so every
    cluster-total query — energy, average, peak, instantaneous — is a
    single O(log n) kernel query instead of a Python loop over nodes.
    Nodes may share one series object (the untouched nodes a cluster
    twin stands for, or identical traces, see
    :func:`repro.hardware.timeline.shared_series`); the merge samples
    each distinct object once.
    """

    __slots__ = ("node_ids", "_per_node", "_merged")

    def __init__(self, per_node: Mapping[int, PowerSeries]):
        if not per_node:
            raise ValueError("ClusterSeries needs at least one node series")
        self.node_ids: Tuple[int, ...] = tuple(sorted(per_node))
        self._per_node: Dict[int, PowerSeries] = {
            nid: per_node[nid] for nid in self.node_ids
        }
        self._merged: Optional[PowerSeries] = None

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    def node(self, node_id: int) -> PowerSeries:
        return self._per_node[node_id]

    @property
    def merged(self) -> PowerSeries:
        """The cluster-total trace (sum of nodes), built lazily once."""
        if self._merged is None:
            # Nodes with identical traces share one series object: sample
            # each distinct series once, but still add one term per node
            # in node-id order, so the sum is the per-node fold exactly.
            distinct = {id(s): s for s in self._per_node.values()}
            start = max(s.start_time for s in distinct.values())
            times = np.sort(
                np.concatenate(
                    [np.array([start])]
                    + [s.times[s.times >= start] for s in distinct.values()]
                )
            )
            # np.unique's sort-and-mask dedupe, without its first-call
            # import of numpy.ma (the times are finite, so no NaN rule).
            keep = np.empty(times.shape, dtype=bool)
            keep[0] = True
            np.not_equal(times[1:], times[:-1], out=keep[1:])
            times = times[keep]
            levels = {key: s.sample(times) for key, s in distinct.items()}
            watts = np.zeros_like(times)
            for series in self._per_node.values():
                watts += levels[id(series)]
            self._merged = PowerSeries(times, watts)
        return self._merged

    # -- cluster totals (one merged-kernel query each) ------------------
    def total_energy(self, t0: float, t1: float) -> float:
        return self.merged.energy(t0, t1)

    def average_power(self, t0: float, t1: float) -> float:
        return self.merged.average_power(t0, t1)

    def power_at(self, time: float) -> float:
        return self.merged.power_at(time)

    def peak_power(self, t0: float, t1: float) -> float:
        return self.merged.peak_power(t0, t1)

    # -- per-node batches ------------------------------------------------
    def node_energies(self, t0: float, t1: float) -> np.ndarray:
        """Per-node joules over ``[t0, t1]``, ordered by node id."""
        return np.array(
            [self._per_node[nid].energy(t0, t1) for nid in self.node_ids]
        )

    def node_average_powers(self, t0: float, t1: float) -> Dict[int, float]:
        """Per-node average watts over ``[t0, t1]``, keyed by node id."""
        if t1 == t0:
            return {
                nid: self._per_node[nid].power_at(t0) for nid in self.node_ids
            }
        energies = self.node_energies(t0, t1)
        width = t1 - t0
        return {
            nid: float(energies[i] / width)
            for i, nid in enumerate(self.node_ids)
        }

    def sample_matrix(self, times) -> np.ndarray:
        """Shape ``(n_nodes, len(times))`` instantaneous watts matrix."""
        t = np.atleast_1d(np.asarray(times, dtype=float))
        return np.vstack([self._per_node[nid].sample(t) for nid in self.node_ids])

    def windowed_average_matrix(self, edges) -> np.ndarray:
        """Shape ``(n_nodes, len(edges) - 1)`` windowed-average matrix."""
        return np.vstack(
            [self._per_node[nid].windowed_average(edges) for nid in self.node_ids]
        )
