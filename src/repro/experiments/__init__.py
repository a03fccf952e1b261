"""Experiment drivers: one module per paper table/figure, a registry, and
the ``repro-experiment`` CLI."""

from repro.experiments.registry import run_experiment

__all__ = ["run_experiment"]
