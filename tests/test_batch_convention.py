"""Convention guard: no scalar timeline queries inside Python loops.

The columnar power-series kernel exists so consumers batch their energy
questions (``energy_many`` / ``windowed_average`` / ``sample``) or use
an :class:`~repro.hardware.timeline.EnergyCursor` instead of hammering
scalar ``power_at``/``energy`` bisects from Python loops — the O(n·m)
anti-pattern the refactor removed.  This test scans every module under
``src/repro`` and fails on any scalar query call lexically inside a
``for``/``while`` body, so the slow path cannot creep back in.

Only the kernel itself (``hardware/timeline.py``, ``hardware/series.py``)
may walk segments in loops: it hosts the brute-force oracles the
property tests compare against.
"""

import ast
from pathlib import Path

#: scalar timeline/series query methods that must not be called per-item
BANNED_CALLS = frozenset(
    {"power_at", "energy", "average_power", "peak_power"}
)

#: the kernel itself — the only place segment walks belong
ALLOWED_FILES = frozenset(
    {
        "src/repro/hardware/timeline.py",
        "src/repro/hardware/series.py",
    }
)

#: per-event scheduling methods that must not be called per-item.  A
#: ``yield engine.timeout(dt)`` inside a daemon loop is a *wait* (one
#: event alive at a time) and stays legal; queueing many future events
#: one ``schedule``/``schedule_at``/``timeout_at`` call at a time is the
#: per-event anti-pattern the bulk paths (``run_cycles`` cycle work, the
#: fabric's bulk holds) exist to replace.
BANNED_SCHEDULING = frozenset({"schedule", "schedule_at", "timeout_at"})

#: the engine internals — batching has to be built out of something
ALLOWED_SCHEDULING_PREFIX = "src/repro/sim/"

REPO_ROOT = Path(__file__).resolve().parent.parent


def _calls_in_loops(tree, rel, banned):
    found = []
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While, ast.comprehension)):
            continue
        body = loop.ifs if isinstance(loop, ast.comprehension) else loop.body
        for stmt in body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in banned
                ):
                    found.append(
                        f"{rel}:{sub.lineno}: .{sub.func.attr}() "
                        f"called inside a loop"
                    )
    return found


def _violations():
    found = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        if rel in ALLOWED_FILES:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        found.extend(_calls_in_loops(tree, rel, BANNED_CALLS))
    return found


def _scheduling_violations():
    found = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        if rel.startswith(ALLOWED_SCHEDULING_PREFIX):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        found.extend(_calls_in_loops(tree, rel, BANNED_SCHEDULING))
    return found


def test_no_scalar_timeline_queries_inside_loops():
    violations = _violations()
    assert not violations, (
        "scalar timeline queries inside Python loops (batch them with "
        "energy_many/windowed_average/sample or use an EnergyCursor):\n"
        + "\n".join(violations)
    )


def test_no_per_event_scheduling_inside_loops():
    violations = _scheduling_violations()
    assert not violations, (
        "per-event scheduling inside Python loops outside repro.sim "
        "(charge the work in bulk — run_cycles cycle batches, the "
        "fabric's bulk holds — or wait on one event per pass):\n"
        + "\n".join(violations)
    )


def test_scheduling_guard_detects_the_anti_pattern():
    """Self-check: the scanner flags one schedule call per loop item."""
    offender = (
        "def f(engine, events):\n"
        "    for i, ev in enumerate(events):\n"
        "        engine.schedule_at(ev, float(i))\n"
    )
    hits = _calls_in_loops(ast.parse(offender), "x.py", BANNED_SCHEDULING)
    assert hits == ["x.py:3: .schedule_at() called inside a loop"]


def test_guard_actually_detects_the_anti_pattern(tmp_path):
    """Self-check: the scanner flags the exact pattern it exists for."""
    offender = (
        "def f(timeline, windows):\n"
        "    total = 0.0\n"
        "    for t0, t1 in windows:\n"
        "        total += timeline.energy(t0, t1)\n"
        "    return total\n"
    )
    tree = ast.parse(offender)
    hits = [
        sub.func.attr
        for loop in ast.walk(tree)
        if isinstance(loop, (ast.For, ast.While))
        for stmt in loop.body
        for sub in ast.walk(stmt)
        if isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr in BANNED_CALLS
    ]
    assert hits == ["energy"]
