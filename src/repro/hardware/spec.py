"""Declarative cluster specifications.

A :class:`ClusterSpec` is a frozen, hashable *description* of a cluster
— ordered groups of identical nodes (each a :class:`NodeSpec`: how many,
on which technology generation, with which core kind) plus an optional
fabric override — that :meth:`repro.hardware.cluster.Cluster.from_spec`
turns into live hardware.  Because the description is pure data it can
be canonically encoded into sweep cache keys (see
:func:`repro.cache.keys.task_key`), so sweeps over generations and node
mixes are cacheable and resumable like any other sweep.

Group order is meaningful: node ids are assigned sequentially across the
groups in declaration order, and MPI ranks map to node ids, so swapping
two groups changes which ranks land on which silicon.  The cache key is
therefore order-*sensitive* across groups (asserted in
``tests/cache/test_spec_keys.py``).

The default spec — one group, base technology, reference core, no ladder
override — describes exactly the paper's homogeneous Pentium-M cluster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.hardware.dvfs import DVFSTable, OperatingPoint, PENTIUM_M_1400
from repro.hardware.network import NetworkConfig
from repro.hardware.scaling import (
    CORE_O3,
    CoreKind,
    TECH_BASE,
    TechNode,
    scaled_table,
)

__all__ = ["ClusterSpec", "NodeSpec"]


@dataclass(frozen=True)
class NodeSpec:
    """One group of identical nodes in a :class:`ClusterSpec`.

    Parameters
    ----------
    count:
        How many nodes this group contributes (>= 1).
    tech:
        Technology generation; the group's ladder and power model are
        the base platform ported to it via
        :func:`~repro.hardware.scaling.scaled_table` /
        :func:`~repro.hardware.scaling.scaled_calibration`.
    core:
        Core microarchitecture (out-of-order reference or in-order).
    points:
        Optional base-ladder override as a tuple of operating points
        (*before* technology scaling).  ``None`` means the paper's
        Table-2 Pentium-M ladder.  A plain tuple — not a
        :class:`~repro.hardware.dvfs.DVFSTable` — so the spec stays
        canonically encodable.
    """

    count: int
    tech: TechNode = TECH_BASE
    core: CoreKind = CORE_O3
    points: Optional[Tuple[OperatingPoint, ...]] = None

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.points is not None:
            object.__setattr__(self, "points", tuple(self.points))
            if not self.points:
                raise ValueError("points override must not be empty")

    def base_table(self) -> DVFSTable:
        """The group's base ladder before technology scaling."""
        if self.points is None:
            return PENTIUM_M_1400
        return DVFSTable(list(self.points))

    def ladder(self) -> DVFSTable:
        """The group's DVFS ladder, ported to its (tech, core) pair.

        Returns the shared :data:`~repro.hardware.dvfs.PENTIUM_M_1400`
        object itself for the default spec (identity, not a copy), so the
        default spec's nodes share the paper's ladder.
        """
        return scaled_table(self.base_table(), self.tech, self.core)


@dataclass(frozen=True)
class ClusterSpec:
    """An ordered sequence of node groups plus an optional fabric config.

    Node ids run sequentially across ``groups`` in declaration order;
    ``network=None`` defers to the calibration's fabric config at build
    time (so the default spec adds nothing over the legacy path).
    """

    groups: Tuple[NodeSpec, ...]
    network: Optional[NetworkConfig] = field(default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "groups", tuple(self.groups))
        if not self.groups:
            raise ValueError("a ClusterSpec needs at least one node group")

    # ------------------------------------------------------------------
    @classmethod
    def homogeneous(
        cls,
        count: int,
        *,
        tech: TechNode = TECH_BASE,
        core: CoreKind = CORE_O3,
        points: Optional[Tuple[OperatingPoint, ...]] = None,
        network: Optional[NetworkConfig] = None,
    ) -> "ClusterSpec":
        """A single-group spec of ``count`` identical nodes.

        With all defaults this is exactly the paper's homogeneous
        cluster.
        """
        return cls(
            groups=(NodeSpec(count=count, tech=tech, core=core, points=points),),
            network=network,
        )

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total node count across all groups."""
        return sum(group.count for group in self.groups)

    @property
    def is_homogeneous(self) -> bool:
        return len(self.groups) == 1

    def cache_key(self) -> str:
        """Canonical JSON encoding for sweep cache keys.

        Stable across construction spelling (kwarg order, list vs tuple
        groups) but sensitive to group *order* — reordering groups moves
        ranks onto different silicon and must miss the cache.
        """
        from repro.cache.keys import canonical_json

        return canonical_json(self)

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``512x16nm/itrs:o3 + 512x8nm/itrs:io``."""
        return " + ".join(
            f"{g.count}x{g.tech.label}:{g.core.name}" for g in self.groups
        )
