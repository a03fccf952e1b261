"""Tests for telemetry windows, α inference, and power prediction."""

import pytest

from repro.hardware import PENTIUM_M_1400
from repro.hardware.activity import CpuActivity
from repro.hardware.calibration import DEFAULT_CALIBRATION
from repro.hardware.cluster import Cluster
from repro.hardware.spec import ClusterSpec
from repro.powercap import (
    ClusterTelemetry,
    NodeWindowSample,
    compute_intensity,
    infer_busy_alpha,
    predict_node_power,
)
from repro.powercap.telemetry import (
    LadderWatts,
    demand_power,
    solve_busy_alpha,
    spin_floor_power,
)
from repro.util.units import MHZ

TABLE = PENTIUM_M_1400
MODEL = DEFAULT_CALIBRATION.node_power_model(TABLE)


def sample_at(state, busy, frequency=1400 * MHZ, utilization=None):
    """A synthetic window whose watts match the node power model exactly.

    ``busy`` time draws at the activity factor of ``state``; the rest of
    the window idles.
    """
    point = TABLE.point_for(frequency)
    busy_watts = MODEL.power(point, state=state, utilization=1.0)
    idle_watts = MODEL.power(point, state=CpuActivity.IDLE, utilization=1.0)
    avg = busy * busy_watts + (1.0 - busy) * idle_watts
    return NodeWindowSample(
        node_id=0,
        t0=0.0,
        t1=0.25,
        avg_watts=avg,
        busy_fraction=busy,
        frequency=frequency,
    )


class TestAlphaInference:
    """Power tells apart what /proc/stat cannot (the Fig-3 blindness)."""

    def test_fully_active_rank_infers_alpha_one(self):
        alpha = infer_busy_alpha(MODEL, TABLE, sample_at(CpuActivity.ACTIVE, 1.0))
        assert alpha == pytest.approx(1.0, abs=1e-9)

    def test_spinning_rank_infers_spin_alpha_despite_full_busy(self):
        # 100 % busy to the kernel, but the watts say "busy-wait".
        alpha = infer_busy_alpha(MODEL, TABLE, sample_at(CpuActivity.SPIN, 1.0))
        assert alpha == pytest.approx(MODEL.cpu.factors[CpuActivity.SPIN], abs=1e-9)

    def test_memstalled_rank_infers_memstall_alpha(self):
        alpha = infer_busy_alpha(
            MODEL, TABLE, sample_at(CpuActivity.MEMSTALL, 1.0)
        )
        assert alpha == pytest.approx(
            MODEL.cpu.factors[CpuActivity.MEMSTALL], abs=1e-9
        )

    def test_inference_holds_at_reduced_frequency(self):
        alpha = infer_busy_alpha(
            MODEL, TABLE, sample_at(CpuActivity.ACTIVE, 0.6, frequency=800 * MHZ)
        )
        assert alpha == pytest.approx(1.0, abs=1e-9)

    def test_near_idle_window_is_conservatively_fully_active(self):
        # With almost no busy time, α is unidentifiable: assume the worst.
        assert infer_busy_alpha(MODEL, TABLE, sample_at(CpuActivity.ACTIVE, 0.0)) == 1.0
        assert infer_busy_alpha(MODEL, TABLE, sample_at(CpuActivity.SPIN, 0.01)) == 1.0

    def test_alpha_is_clamped_to_unit_interval(self):
        point = TABLE.fastest
        hot = NodeWindowSample(0, 0.0, 0.25, avg_watts=1e4, busy_fraction=1.0,
                               frequency=point.frequency)
        cold = NodeWindowSample(0, 0.0, 0.25, avg_watts=0.0, busy_fraction=1.0,
                                frequency=point.frequency)
        assert infer_busy_alpha(MODEL, TABLE, hot) == 1.0
        assert infer_busy_alpha(MODEL, TABLE, cold) == 0.0

    def test_a_busy_window_off_the_ladder_raises_the_ladders_key_error(self):
        off = NodeWindowSample(0, 0.0, 0.25, avg_watts=20.0, busy_fraction=0.5,
                               frequency=1904 * MHZ)
        with pytest.raises(KeyError, match="no operating point at 1.904GHz"):
            infer_busy_alpha(MODEL, TABLE, off)
        with pytest.raises(KeyError, match="no operating point at 1.904GHz"):
            solve_busy_alpha(off, MODEL.base_power, LadderWatts(MODEL, TABLE))
        quiet = NodeWindowSample(0, 0.0, 0.25, avg_watts=20.0, busy_fraction=0.0,
                                 frequency=1904 * MHZ)
        assert infer_busy_alpha(MODEL, TABLE, quiet) == 1.0


class TestPrediction:
    def test_predicting_the_sampled_point_reproduces_the_measurement(self):
        sample = sample_at(CpuActivity.SPIN, 1.0, frequency=1000 * MHZ)
        predicted = predict_node_power(
            MODEL, TABLE, sample, TABLE.point_for(1000 * MHZ)
        )
        assert predicted == pytest.approx(sample.avg_watts, rel=1e-9)

    def test_prediction_is_monotone_in_frequency(self):
        sample = sample_at(CpuActivity.ACTIVE, 0.8)
        watts = [
            predict_node_power(MODEL, TABLE, sample, p) for p in TABLE.points
        ]
        assert watts == sorted(watts)

    def test_demand_power_is_monotone_in_demand_and_point(self):
        point = TABLE.fastest
        assert demand_power(MODEL, TABLE, 0.2, point) < demand_power(
            MODEL, TABLE, 0.9, point
        )
        assert demand_power(MODEL, TABLE, 0.5, TABLE.slowest) < demand_power(
            MODEL, TABLE, 0.5, TABLE.fastest
        )

    def test_spin_floor_matches_a_full_busy_wait(self):
        point = TABLE.point_for(1200 * MHZ)
        expected = MODEL.power(point, state=CpuActivity.SPIN, utilization=1.0)
        assert spin_floor_power(MODEL, TABLE, point) == pytest.approx(expected)


class TestComputeIntensity:
    def test_orders_compute_above_protocol_above_spin(self):
        active = compute_intensity(MODEL, TABLE, sample_at(CpuActivity.ACTIVE, 1.0))
        proto = compute_intensity(MODEL, TABLE, sample_at(CpuActivity.PROTO, 1.0))
        spin = compute_intensity(MODEL, TABLE, sample_at(CpuActivity.SPIN, 1.0))
        assert active > proto > spin

    def test_scales_with_busy_fraction(self):
        full = compute_intensity(MODEL, TABLE, sample_at(CpuActivity.ACTIVE, 1.0))
        half = compute_intensity(MODEL, TABLE, sample_at(CpuActivity.ACTIVE, 0.5))
        assert half == pytest.approx(0.5 * full, rel=1e-6)


class TestClusterTelemetry:
    def test_windows_tile_the_run_and_report_true_power(self):
        cluster = Cluster.from_spec(ClusterSpec.homogeneous(2))
        telemetry = ClusterTelemetry(cluster)
        engine = cluster.engine

        def work(node):
            yield from node.cpu.run_cycles(0.2 * node.cpu.frequency)

        for node in cluster.nodes:
            engine.process(work(node))
        engine.run(until=0.1)
        first = telemetry.sample()
        engine.run(until=0.3)
        second = telemetry.sample()

        assert [s.t0 for s in first] == [0.0, 0.0]
        assert [s.t1 for s in first] == [0.1, 0.1]
        assert [s.t0 for s in second] == [0.1, 0.1]
        assert [s.t1 for s in second] == [0.3, 0.3]
        for s in first:
            node = cluster.nodes[s.node_id]
            assert s.avg_watts == pytest.approx(
                node.timeline.average_power(0.0, 0.1)
            )
            assert s.busy_fraction == pytest.approx(1.0)
        # After the work ends the nodes idle, and the windows see it.
        for s in second:
            assert s.busy_fraction == pytest.approx(0.5, abs=1e-6)


class TestWindowGuards:
    def test_zero_length_window_returns_no_samples(self):
        # The governor fired twice at the same sim time: nothing was
        # measured, and a NaN from 0/0 must never reach the policies.
        cluster = Cluster.from_spec(ClusterSpec.homogeneous(2))
        telemetry = ClusterTelemetry(cluster)
        assert telemetry.sample() == []

    def test_dark_node_reports_no_sample(self):
        cluster = Cluster.from_spec(ClusterSpec.homogeneous(2))
        telemetry = ClusterTelemetry(cluster)
        cluster.nodes[0].faults.telemetry_dark = True
        cluster.engine.process(
            cluster.nodes[1].cpu.run_cycles(0.1 * cluster.nodes[1].cpu.frequency)
        )
        cluster.engine.run(until=0.2)
        assert [s.node_id for s in telemetry.sample()] == [1]

    def test_window_joules_are_raw_and_cover_dark_nodes(self):
        # The PDU view: every node's energy over the window, the dark one
        # included, and unaffected by a power-noise fault that perturbs
        # the reported sample.
        cluster = Cluster.from_spec(ClusterSpec.homogeneous(2))
        telemetry = ClusterTelemetry(cluster)
        cluster.nodes[0].faults.telemetry_dark = True
        cluster.nodes[1].faults.power_noise = lambda watts, now: watts + 5.0
        cluster.engine.process(
            cluster.nodes[1].cpu.run_cycles(0.1 * cluster.nodes[1].cpu.frequency)
        )
        cluster.engine.run(until=0.2)
        (sample,) = telemetry.sample()
        assert list(telemetry.window_joules) == [0, 1]
        for node in cluster.nodes:
            assert telemetry.window_joules[node.node_id] == pytest.approx(
                node.timeline.energy(0.0, 0.2)
            )
        assert sample.avg_watts == telemetry.window_joules[1] / 0.2 + 5.0
