"""The stable top-level API: ``from repro import ...`` with no deep
imports, lazily resolved (PEP 562), documented in ``docs/API.md``."""

import subprocess
import sys

import pytest

import repro


class TestExports:
    def test_the_issue_line_works(self):
        from repro import Session, Tracer, run_sweep  # noqa: F401

    def test_every_all_name_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_all_is_sorted_and_complete(self):
        assert repro.__all__ == ["__version__", *sorted(repro._EXPORTS)]
        assert set(repro._EXPORTS) <= set(dir(repro))

    def test_facade_names_are_the_canonical_objects(self):
        from repro.analysis.parallel import run_sweep as deep_run_sweep
        from repro.obs.tracer import Tracer as DeepTracer
        from repro.session import Session as DeepSession

        assert repro.run_sweep is deep_run_sweep
        assert repro.Tracer is DeepTracer
        assert repro.Session is DeepSession

    def test_serving_facade_names_are_the_canonical_objects(self):
        from repro.metrics.serving import ServingReport as DeepReport
        from repro.serving.runner import run_serving as deep_run_serving
        from repro.serving.spec import ServingWorkload as DeepWorkload
        from repro.serving.sweep import run_serving_sweep as deep_sweep

        assert repro.run_serving is deep_run_serving
        assert repro.run_serving_sweep is deep_sweep
        assert repro.ServingWorkload is DeepWorkload
        assert repro.ServingReport is DeepReport

    def test_engine_facade_names_are_the_canonical_objects(self):
        from repro.sim.engine import Engine as DeepEngine
        from repro.sim.engine import EngineStats as DeepStats

        assert repro.Engine is DeepEngine
        assert repro.EngineStats is DeepStats

    def test_exec_facade_names_are_the_canonical_objects(self):
        from repro.exec.backends import (
            ExecBackend as DeepBackend,
            ProcessPoolBackend as DeepPool,
            SerialBackend as DeepSerial,
            resolve_backend as deep_resolve,
        )
        from repro.exec.mpi import MpiBackend as DeepMpi
        from repro.exec.retry import (
            RetryPolicy as DeepRetry,
            WorkerLostError as DeepLost,
        )

        assert repro.ExecBackend is DeepBackend
        assert repro.SerialBackend is DeepSerial
        assert repro.ProcessPoolBackend is DeepPool
        assert repro.MpiBackend is DeepMpi
        assert repro.resolve_backend is deep_resolve
        assert repro.RetryPolicy is DeepRetry
        assert repro.WorkerLostError is DeepLost
        assert repro.BACKENDS == ("serial", "process", "mpi")

    def test_scaling_facade_names_are_the_canonical_objects(self):
        from repro.hardware.cluster import Cluster as DeepCluster
        from repro.hardware.scaling import (
            TechNode as DeepTechNode,
            scaled_table as deep_scaled_table,
            tech_node as deep_tech_node,
        )
        from repro.hardware.spec import (
            ClusterSpec as DeepSpec,
            NodeSpec as DeepNodeSpec,
        )
        from repro.metrics.scaling import ScalingReport as DeepScalingReport

        assert repro.Cluster is DeepCluster
        assert repro.ClusterSpec is DeepSpec
        assert repro.NodeSpec is DeepNodeSpec
        assert repro.TechNode is DeepTechNode
        assert repro.tech_node is deep_tech_node
        assert repro.scaled_table is deep_scaled_table
        assert repro.ScalingReport is DeepScalingReport
        assert repro.CORE_IO.name == "io"
        assert repro.CORE_O3.name == "o3"
        assert len(repro.TECH_NODES) == 12

    def test_elastic_facade_names_are_the_canonical_objects(self):
        from repro.metrics.knobmap import KnobMapReport as DeepKnobMap
        from repro.powercap.actions import (
            Action as DeepAction,
            GovernorPlan as DeepPlan,
        )
        from repro.powercap.actuators import Actuator as DeepActuator
        from repro.powercap.elastic import ElasticPolicy as DeepElastic
        from repro.serving.elastic import (
            ElasticServingPolicy as DeepServingElastic,
        )

        assert repro.Action is DeepAction
        assert repro.GovernorPlan is DeepPlan
        assert repro.Actuator is DeepActuator
        assert repro.ElasticPolicy is DeepElastic
        assert repro.ElasticServingPolicy is DeepServingElastic
        assert repro.KnobMapReport is DeepKnobMap
        assert repro.ELASTIC_KNOBS == ("dvfs", "cores", "gate")

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist

    def test_stable_surface_is_exactly_the_documented_one(self):
        """Removing a name from this list is an API break; additions are
        fine (extend the list and docs/API.md together)."""
        documented = {
            "AttributionReport",
            "Engine",
            "EngineStats",
            "ChaosOutcome",
            "ChaosTask",
            "EnergyDelayPoint",
            "FaultInjector",
            "FaultPlan",
            "DiurnalArrivals",
            "MMPPArrivals",
            "PoissonArrivals",
            "PowerBudget",
            "PowerCapStrategy",
            "Action",
            "GovernorPlan",
            "Actuator",
            "ElasticPolicy",
            "ELASTIC_KNOBS",
            "ElasticServingPolicy",
            "KnobCell",
            "KnobMapReport",
            "RunCache",
            "ServingOutcome",
            "ServingReport",
            "ServingTask",
            "ServingWorkload",
            "Session",
            "TierDvsPolicy",
            "TierSpec",
            "SweepError",
            "SweepEvent",
            "SweepTask",
            "BACKENDS",
            "ExecBackend",
            "SerialBackend",
            "ProcessPoolBackend",
            "MpiBackend",
            "RetryPolicy",
            "AttemptRecord",
            "WorkerLostError",
            "SweepTimeoutError",
            "mpi_available",
            "resolve_backend",
            "Tracer",
            "Workload",
            "Cluster",
            "ClusterSpec",
            "NodeSpec",
            "TechNode",
            "CoreKind",
            "CORE_O3",
            "CORE_IO",
            "TECH_NODES",
            "tech_node",
            "scaled_table",
            "scaled_calibration",
            "ScalingReport",
            "build_scaling_report",
            "active_tracer",
            "build_attribution_report",
            "export_chrome_trace",
            "export_jsonl",
            "list_experiments",
            "load_trace_file",
            "build_serving_report",
            "run_chaos_sweep",
            "run_experiment",
            "run_measured",
            "run_serving",
            "run_serving_sweep",
            "run_sweep",
            "sweep_context",
            "traced_run",
            "tracing",
            "validate_chrome_trace",
        }
        assert documented <= set(repro._EXPORTS)


class TestLaziness:
    def test_bare_import_does_not_pull_the_stack(self):
        """``import repro`` must stay cheap: no simulator, no numpy-era
        heavyweights, no experiment registry until a name is touched."""
        code = (
            "import sys; import repro; "
            "heavy = [m for m in sys.modules if m.startswith(("
            "'repro.sim', 'repro.simmpi', 'repro.experiments', "
            "'repro.workloads', 'repro.hardware', 'repro.serving'))]; "
            "print(','.join(heavy))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "", (
            f"import repro eagerly imported: {out.stdout.strip()}"
        )


class TestSessionFacade:
    def test_default_session_is_bare(self):
        s = repro.Session()
        assert s.cache is None
        assert s.tracer is None
        assert s.jobs is None

    def test_untraced_session_rejects_trace_asks(self):
        s = repro.Session()
        with pytest.raises(ValueError, match="tracer"):
            s.attribution(object())
        with pytest.raises(ValueError, match="tracer"):
            s.export_trace("x.json")

    def test_traced_session_rejects_unknown_format(self, tmp_path):
        s = repro.Session(tracer=repro.Tracer())
        with pytest.raises(ValueError, match="format"):
            s.export_trace(tmp_path / "x.bin", format="protobuf")


class TestPowerTrackExport:
    def test_export_trace_with_run_adds_power_counter_tracks(self, tmp_path):
        import json

        from repro.dvs.strategy import StaticStrategy
        from repro.workloads.nas_ft import NasFT

        s = repro.Session(tracer=repro.Tracer())
        run = s.run(
            NasFT("S", n_ranks=2, iterations=1),
            StaticStrategy(1.4e9),
        )
        bare = tmp_path / "bare.json"
        with_power = tmp_path / "power.json"
        n_bare = s.export_trace(bare, run=None)
        n_power = s.export_trace(with_power, run=run)
        assert n_power > n_bare
        events = json.loads(with_power.read_text())["traceEvents"]
        power = [e for e in events if e.get("name") == "power_w"]
        assert {e["pid"] for e in power} == {
            node.node_id for node in run.cluster.nodes
        }
        assert all(e["ph"] == "C" for e in power)
