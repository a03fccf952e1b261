"""The unified sweep contract: one front door (``run_sweep``, which the
chaos and serving family names alias), one signature, one error
contract."""

import inspect

import pytest

from repro.analysis.parallel import SweepTask, run_sweep
from repro.cache.store import RunCache
from repro.faults.sweep import run_chaos_sweep
from repro.obs.tracer import Tracer
from repro.serving.sweep import run_serving_sweep
from repro.util.units import MHZ
from repro.workloads.micro import L2BoundMicro

FREQS = [600 * MHZ, 1400 * MHZ]


def make_tasks():
    return [
        SweepTask(L2BoundMicro(passes=3), "stat", frequency=f) for f in FREQS
    ]


class TestSignatureSync:
    def test_signatures_match_parameter_for_parameter(self):
        """The family names cannot drift apart: they are the one front
        door, so every parameter matches by construction."""
        assert run_chaos_sweep is run_serving_sweep is run_sweep

    def test_options_are_keyword_only(self):
        for fn in (run_sweep, run_chaos_sweep):
            sig = inspect.signature(fn)
            for name, param in sig.parameters.items():
                if name == "tasks":
                    continue
                assert param.kind is inspect.Parameter.KEYWORD_ONLY, (
                    f"{fn.__name__}({name}) must be keyword-only"
                )

    def test_positional_options_rejected(self):
        with pytest.raises(TypeError):
            run_sweep(make_tasks(), 2)
        with pytest.raises(TypeError):
            run_chaos_sweep([], 2)


class TestJobsConvention:
    def test_default_is_serial_in_process(self):
        points = run_sweep(make_tasks())
        assert [p.frequency for p in points] == FREQS

    def test_explicit_jobs_n(self):
        assert run_sweep(make_tasks(), jobs=2) == run_sweep(make_tasks())

    def test_negative_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(make_tasks(), jobs=-1)
        with pytest.raises(ValueError):
            run_chaos_sweep([], jobs=-1)


class TestTracerParameter:
    def test_tracer_records_one_wall_span_per_task(self):
        tracer = Tracer()
        run_sweep(make_tasks(), tracer=tracer)
        task_spans = [s for s in tracer.spans if s.cat == "sweep.task"]
        assert len(task_spans) == len(FREQS)
        assert all(s.clock == "wall" for s in task_spans)

    def test_tracer_forces_serial_but_identical_results(self):
        untraced = run_sweep(make_tasks())
        with pytest.warns(UserWarning, match="ignoring jobs=2"):
            traced = run_sweep(make_tasks(), jobs=2, tracer=Tracer())
        assert traced == untraced

    def test_tracer_override_warning_names_backend(self):
        with pytest.warns(UserWarning, match="ignoring backend='process'"):
            run_sweep(make_tasks(), backend="process", tracer=Tracer())

    def test_tracer_with_default_options_does_not_warn(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            run_sweep(make_tasks(), tracer=Tracer())

    def test_tracer_with_explicit_serial_backend_does_not_warn(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            run_sweep(make_tasks(), backend="serial", tracer=Tracer())

    def test_tracer_sees_cache_hits(self, tmp_path):
        cache = RunCache(tmp_path)
        run_sweep(make_tasks(), use_cache=cache)
        tracer = Tracer()
        run_sweep(make_tasks(), use_cache=cache, tracer=tracer)
        hits = [i for i in tracer.instants if i.name == "hit"]
        assert len(hits) == len(FREQS)


class TestUseCache:
    def test_use_cache_true_opens_at_cache_dir(self, tmp_path):
        run_sweep(make_tasks(), use_cache=True, cache_dir=tmp_path)
        warm = RunCache(tmp_path)
        assert warm.stats.entries == len(FREQS)

    def test_use_cache_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        run_sweep(make_tasks(), use_cache=True)
        assert RunCache(tmp_path / "env").stats.entries == len(FREQS)
