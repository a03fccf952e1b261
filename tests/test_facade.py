"""The stable top-level API: ``from repro import ...`` with no deep
imports, lazily resolved (PEP 562), documented in ``docs/API.md``."""

import re
import subprocess
import sys
from pathlib import Path

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
        """Each facade name is the very object its defining module holds."""
        from importlib import import_module

        forked = [
            name
            for name, module in repro._EXPORTS.items()
            if getattr(repro, name) is not getattr(import_module(module), name)
        ]
        assert not forked, f"facade names that are not their module's: {forked}"

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.does_not_exist

    def test_stable_surface_is_exactly_the_documented_one(self):
        """A facade name stays only while README, EXPERIMENTS, docs/,
        examples/, benchmarks/ or perfbench/ import it as ``from repro
        import <name>`` or use it as ``repro.<name>`` (the docs/API.md
        table does not count: it lists the facade, it does not use it)."""
        referenced = set()
        for text in _facade_user_texts():
            for match in _FROM_REPRO.finditer(text):
                body = re.sub(r"#[^\n]*", "", match.group(1).strip("()"))
                referenced.update(
                    part.split()[0] for part in body.split(",") if part.strip()
                )
            referenced.update(_DOTTED_REPRO.findall(text))
        unused = sorted(set(repro._EXPORTS) - referenced)
        assert not unused, (
            f"facade names no doc, example or benchmark uses: {unused}; "
            "drop them from repro._EXPORTS and docs/API.md"
        )


_REPO = Path(__file__).resolve().parents[1]
_FROM_REPRO = re.compile(r"from\s+repro\s+import\s+(\([^)]*\)|[\w ,]+)")
_DOTTED_REPRO = re.compile(r"\brepro\.(\w+)")


def _facade_user_texts():
    """The text of every file whose use keeps a facade name."""
    for name in ("README.md", "EXPERIMENTS.md"):
        yield (_REPO / name).read_text()
    for path in sorted((_REPO / "docs").glob("*.md")):
        text = path.read_text()
        if path.name == "API.md":
            text = "\n".join(
                line for line in text.splitlines() if not line.startswith("|")
            )
        yield text
    for folder in ("examples", "benchmarks", "perfbench"):
        for path in sorted((_REPO / folder).rglob("*.py")):
            yield path.read_text()


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

    def test_a_measured_run_loads_neither_scipy_nor_numpy_ma(self):
        """The sweep module and a measured FT run import only what they
        use: not the CG verifier's ``scipy``, and not ``numpy.ma``, which
        ``np.unique`` imports on its first call."""
        code = (
            "import sys\n"
            "import repro.analysis.parallel\n"
            "from repro.analysis.runner import run_measured\n"
            "from repro.dvs.strategy import StaticStrategy\n"
            "from repro.workloads.nas_ft import NasFT\n"
            "run = run_measured(NasFT('S', n_ranks=2, iterations=1),"
            " StaticStrategy(1.4e9))\n"
            "assert run.point.energy > 0\n"
            "print(','.join(m for m in ('scipy', 'numpy.ma') if m in sys.modules))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "", f"loaded: {out.stdout.strip()}"


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
