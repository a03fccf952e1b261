"""Scalar-vs-columnar equivalence on the paper's headline outputs.

The columnar engine is the default; the scalar engine is the oracle.
Running the same reduced experiment under both modes must produce the
same numbers to within 1e-9 — fig3's energy/delay series, the powercap
allocation summary, the serving SLO table, and the span-energy
attribution report.  (Fault-free runs are in fact bit-identical; the
tolerance only leaves room for the contract, not for drift.)
"""

import pytest

from repro.analysis.runner import traced_run
from repro.dvs.strategy import StaticStrategy
from repro.experiments import run_experiment
from repro.metrics.attribution import build_attribution_report
from repro.obs.tracer import Tracer
from repro.sim import using_engine_mode
from repro.workloads.nas_ft import NasFT

from tests.hardware.test_spec_equivalence import (
    LARGE_SPEC_GOLDENS,
    large_spec_point,
)

TOL = 1e-9


def _both_modes(fn):
    """Run ``fn()`` under the scalar and columnar engine modes."""
    out = {}
    for mode in ("scalar", "columnar"):
        with using_engine_mode(mode):
            out[mode] = fn()
    return out["scalar"], out["columnar"]


def _assert_results_match(scalar, columnar):
    assert [c.quantity for c in scalar.comparisons] == [
        c.quantity for c in columnar.comparisons
    ]
    for s, c in zip(scalar.comparisons, columnar.comparisons):
        assert c.measured == pytest.approx(s.measured, rel=TOL, abs=TOL), s.quantity
    assert set(scalar.series) == set(columnar.series)
    for name in scalar.series:
        s_pts = scalar.series[name].points
        c_pts = columnar.series[name].points
        assert len(s_pts) == len(c_pts)
        for sp, cp in zip(s_pts, c_pts):
            assert cp.energy == pytest.approx(sp.energy, rel=TOL, abs=TOL)
            assert cp.delay == pytest.approx(sp.delay, rel=TOL, abs=TOL)


def test_fig3_is_engine_invariant():
    scalar, columnar = _both_modes(lambda: run_experiment("fig3", iterations=1))
    _assert_results_match(scalar, columnar)


def test_powercap_is_engine_invariant():
    scalar, columnar = _both_modes(
        lambda: run_experiment("powercap", cap_fractions=(0.9,), transpose_n=1500)
    )
    _assert_results_match(scalar, columnar)
    assert scalar.tables.keys() == columnar.tables.keys()


def test_serving_is_engine_invariant():
    scalar, columnar = _both_modes(lambda: run_experiment("serving", horizon_s=6.0))
    _assert_results_match(scalar, columnar)


@pytest.mark.parametrize("strategy", sorted(LARGE_SPEC_GOLDENS))
def test_1024_node_spec_is_engine_invariant(strategy):
    scalar, columnar = _both_modes(lambda: large_spec_point(strategy))
    assert (scalar.energy, scalar.delay) == (columnar.energy, columnar.delay)
    assert (columnar.energy, columnar.delay) == LARGE_SPEC_GOLDENS[strategy]


def test_attribution_is_engine_invariant():
    def attribute():
        tracer = Tracer()
        run = traced_run(
            NasFT("S", n_ranks=4, iterations=2), StaticStrategy(1.4e9), tracer
        )
        report = build_attribution_report(
            run.cluster, tracer, run.spmd.start, run.spmd.end
        )
        return run, report

    (s_run, s_report), (c_run, c_report) = _both_modes(attribute)
    assert c_run.point.energy == pytest.approx(s_run.point.energy, rel=TOL)
    assert c_run.point.delay == pytest.approx(s_run.point.delay, rel=TOL)
    assert len(c_report.rows) == len(s_report.rows)
    for s_row, c_row in zip(s_report.rows, c_report.rows):
        assert (c_row.rank, c_row.phase) == (s_row.rank, s_row.phase)
        assert c_row.energy_j == pytest.approx(s_row.energy_j, rel=TOL, abs=TOL)
    assert c_report.total_energy_j == pytest.approx(
        s_report.total_energy_j, rel=TOL, abs=TOL
    )
