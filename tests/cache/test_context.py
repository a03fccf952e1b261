"""The ambient sweep context and the default cache location."""

from pathlib import Path

from repro.cache.context import active_context, default_cache_dir, sweep_context
from repro.cache.store import RunCache


def test_default_context_is_serial_and_uncached():
    ctx = active_context()
    assert ctx.cache is None
    assert ctx.jobs is None


def test_default_cache_dir_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "from-env"))
    assert default_cache_dir() == tmp_path / "from-env"
    monkeypatch.delenv("REPRO_CACHE_DIR")
    assert default_cache_dir() == Path("~/.cache/repro/runs").expanduser()


def test_sweep_context_installs_and_restores(tmp_path):
    cache = RunCache(tmp_path)
    with sweep_context(cache=cache, jobs=3):
        ctx = active_context()
        assert ctx.cache is cache
        assert ctx.jobs == 3
        with sweep_context():  # nesting shadows, exit restores
            assert active_context().cache is None
        assert active_context().cache is cache
    assert active_context().cache is None
    assert active_context().jobs is None
