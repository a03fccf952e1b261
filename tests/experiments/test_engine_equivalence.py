"""Walk-vs-bulk equivalence on the paper's headline outputs.

Production runs take the bulk model paths: one armed completion per
``run_cycles`` quantum and one link hold per uncontended message.  The
walks in ``tests/oracles.py`` race a timeout per scheduling round and
hold a link per chunk.  Running the same reduced experiment both ways
must produce the same numbers to within 1e-9 — fig3's energy/delay
series, the powercap allocation summary, the serving SLO table, and the
span-energy attribution report.  (Fault-free runs are in fact
bit-identical; the tolerance only leaves room for the contract, not for
drift.)
"""

import pytest

from repro.analysis.runner import traced_run
from repro.dvs.strategy import StaticStrategy
from repro.experiments import run_experiment
from repro.metrics.attribution import build_attribution_report
from repro.obs.tracer import Tracer
from repro.workloads.nas_ft import NasFT

from tests.hardware.test_spec_equivalence import (
    LARGE_SPEC_GOLDENS,
    large_spec_point,
)
from tests.oracles import using_walks

TOL = 1e-9


def _both_paths(fn):
    """Run ``fn()`` on the walks, then on the bulk paths."""
    with using_walks():
        walk = fn()
    return walk, fn()


def _assert_results_match(walk, bulk):
    assert [c.quantity for c in walk.comparisons] == [
        c.quantity for c in bulk.comparisons
    ]
    for w, b in zip(walk.comparisons, bulk.comparisons):
        assert b.measured == pytest.approx(w.measured, rel=TOL, abs=TOL), w.quantity
    assert set(walk.series) == set(bulk.series)
    for name in walk.series:
        w_pts = walk.series[name].points
        b_pts = bulk.series[name].points
        assert len(w_pts) == len(b_pts)
        for wp, bp in zip(w_pts, b_pts):
            assert bp.energy == pytest.approx(wp.energy, rel=TOL, abs=TOL)
            assert bp.delay == pytest.approx(wp.delay, rel=TOL, abs=TOL)


def test_fig3_is_engine_invariant():
    walk, bulk = _both_paths(lambda: run_experiment("fig3", iterations=1))
    _assert_results_match(walk, bulk)


def test_powercap_is_engine_invariant():
    walk, bulk = _both_paths(
        lambda: run_experiment("powercap", cap_fractions=(0.9,), transpose_n=1500)
    )
    _assert_results_match(walk, bulk)
    assert walk.tables.keys() == bulk.tables.keys()


def test_serving_is_engine_invariant():
    walk, bulk = _both_paths(lambda: run_experiment("serving", horizon_s=6.0))
    _assert_results_match(walk, bulk)


@pytest.mark.parametrize("strategy", sorted(LARGE_SPEC_GOLDENS))
def test_1024_node_spec_is_engine_invariant(strategy):
    walk, bulk = _both_paths(lambda: large_spec_point(strategy))
    assert (walk.energy, walk.delay) == (bulk.energy, bulk.delay)
    assert (bulk.energy, bulk.delay) == LARGE_SPEC_GOLDENS[strategy]


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

    (w_run, w_report), (b_run, b_report) = _both_paths(attribute)
    assert b_run.point.energy == pytest.approx(w_run.point.energy, rel=TOL)
    assert b_run.point.delay == pytest.approx(w_run.point.delay, rel=TOL)
    assert len(b_report.rows) == len(w_report.rows)
    for w_row, b_row in zip(w_report.rows, b_report.rows):
        assert (b_row.rank, b_row.phase) == (w_row.rank, w_row.phase)
        assert b_row.energy_j == pytest.approx(w_row.energy_j, rel=TOL, abs=TOL)
    assert b_report.total_energy_j == pytest.approx(
        w_report.total_energy_j, rel=TOL, abs=TOL
    )
