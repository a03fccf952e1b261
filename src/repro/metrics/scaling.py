"""Cross-generation verdicts: does the paper's result survive the shrink?

The ``techscaling`` experiment re-runs the paper's comparison — slack-
driven DVS vs the cpuspeed daemon vs static points — on the Table-2
platform ported to each projected technology generation.  This module
turns those per-generation point series into one
:class:`ScalingReport`: for every generation, did slack-driven DVS still
beat cpuspeed on **energy** and on **weighted E·D²** (the paper's δ=0.2
HPC setting), and how many ladder rungs were even left to work with.

All points are normalized *within their generation* to that
generation's fastest static run, exactly as the paper normalizes each
figure — the question is whether the paper's qualitative result holds,
not how many absolute joules a 8 nm part draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro.metrics.ed2p import DELTA_HPC, weighted_ed2p
from repro.metrics.protocol import ReportBase
from repro.metrics.records import EnergyDelayPoint

__all__ = ["GenerationVerdict", "ScalingReport", "build_scaling_report"]


@dataclass(frozen=True)
class GenerationVerdict(ReportBase):
    """The paper's comparison re-judged on one technology generation.

    Energies/delays are normalized to the generation's fastest static
    run; ``dyn_*`` is the best slack-driven point (lowest weighted
    E·D², the same criterion the paper's selection machinery uses).
    """

    tech: str  #: e.g. ``"22nm/itrs"``
    nm: int
    projection: str
    rungs: int  #: usable ladder rungs after the Vth-bounded cut
    slowest_mhz: float
    fastest_mhz: float
    dyn_label: str  #: which dyn base point won
    dyn_energy: float
    dyn_delay: float
    cpuspeed_energy: float
    cpuspeed_delay: float

    @property
    def dyn_ed2p(self) -> float:
        return weighted_ed2p(self.dyn_energy, self.dyn_delay, DELTA_HPC)

    @property
    def cpuspeed_ed2p(self) -> float:
        return weighted_ed2p(
            self.cpuspeed_energy, self.cpuspeed_delay, DELTA_HPC
        )

    @property
    def dvs_beats_cpuspeed_energy(self) -> bool:
        return self.dyn_energy < self.cpuspeed_energy

    @property
    def dvs_beats_cpuspeed_ed2p(self) -> bool:
        return self.dyn_ed2p < self.cpuspeed_ed2p

    @property
    def holds(self) -> bool:
        """The paper's result on this generation: DVS wins both axes."""
        return self.dvs_beats_cpuspeed_energy and self.dvs_beats_cpuspeed_ed2p

    def to_dict(self) -> dict:
        # The verdicts ride along for readers of the stored form;
        # from_dict ignores them and recomputes from the fields.
        return {
            **super().to_dict(),
            "dyn_ed2p": self.dyn_ed2p,
            "cpuspeed_ed2p": self.cpuspeed_ed2p,
            "beats_energy": self.dvs_beats_cpuspeed_energy,
            "beats_ed2p": self.dvs_beats_cpuspeed_ed2p,
            "holds": self.holds,
        }


@dataclass(frozen=True)
class ScalingReport(ReportBase):
    """Per-generation verdicts for one workload across the shrink."""

    label: str  #: e.g. "techscaling/ft.B.8"
    workload: str
    verdicts: Tuple[GenerationVerdict, ...]

    @property
    def holds_everywhere(self) -> bool:
        """Whether the paper's result survives every generation swept."""
        return all(v.holds for v in self.verdicts)

    def verdict_for(self, tech: str) -> GenerationVerdict:
        for v in self.verdicts:
            if v.tech == tech:
                return v
        raise KeyError(
            f"no verdict for {tech!r}; "
            f"swept: {[v.tech for v in self.verdicts]}"
        )

    def to_dict(self) -> dict:
        # the headline verdict rides along, as in GenerationVerdict
        return {**super().to_dict(), "holds_everywhere": self.holds_everywhere}

    def summary_lines(self) -> List[str]:
        lines = [
            f"{self.label}: paper's result "
            + (
                "holds on every generation swept"
                if self.holds_everywhere
                else "BREAKS on at least one generation"
            )
        ]
        for v in self.verdicts:
            energy = "<" if v.dvs_beats_cpuspeed_energy else ">="
            ed2p = "<" if v.dvs_beats_cpuspeed_ed2p else ">="
            lines.append(
                f"  {v.tech}: {v.rungs} rungs "
                f"({v.slowest_mhz:.0f}-{v.fastest_mhz:.0f} MHz) — "
                f"dyn E={v.dyn_energy:.3f} {energy} cpuspeed "
                f"E={v.cpuspeed_energy:.3f}; "
                f"dyn ED2={v.dyn_ed2p:.3f} {ed2p} cpuspeed "
                f"ED2={v.cpuspeed_ed2p:.3f} "
                f"[{'holds' if v.holds else 'breaks'}]"
            )
        return lines


def build_scaling_report(
    label: str,
    workload: str,
    generations: Sequence[
        Tuple[object, Sequence[float], Mapping[str, Sequence[EnergyDelayPoint]]]
    ],
) -> ScalingReport:
    """Assemble the report from per-generation normalized series.

    ``generations`` is one ``(tech, ladder_frequencies_hz, series)``
    triple per generation, in sweep order: ``tech`` is a
    :class:`~repro.hardware.scaling.TechNode`, the frequencies are the
    generation's *usable* ladder (slowest first), and ``series`` maps
    ``"dyn"`` (one point per base frequency) and ``"cpuspeed"`` (one
    point), both already normalized to the generation's fastest static
    run.  The best dyn point is picked by weighted E·D² (δ=0.2).
    """
    verdicts: List[GenerationVerdict] = []
    for tech, frequencies, series in generations:
        dyn_points = list(series["dyn"])
        if not dyn_points:
            raise ValueError(f"{tech}: empty dyn series")
        cpuspeed = list(series["cpuspeed"])[0]
        best = min(
            dyn_points,
            key=lambda p: weighted_ed2p(p.energy, p.delay, DELTA_HPC),
        )
        verdicts.append(
            GenerationVerdict(
                tech=str(getattr(tech, "label", tech)),
                nm=int(getattr(tech, "nm", 0)),
                projection=str(getattr(tech, "projection", "")),
                rungs=len(frequencies),
                slowest_mhz=min(frequencies) / 1e6,
                fastest_mhz=max(frequencies) / 1e6,
                dyn_label=best.label,
                dyn_energy=best.energy,
                dyn_delay=best.delay,
                cpuspeed_energy=cpuspeed.energy,
                cpuspeed_delay=cpuspeed.delay,
            )
        )
    return ScalingReport(
        label=label, workload=workload, verdicts=tuple(verdicts)
    )
