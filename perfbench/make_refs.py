"""Regenerate ``refs.json``: the reference output of every case.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_refs.py

Each family's universe runs as one sweep over every CPU (bit-identical
to serial).  The chaos constants in ``suite.py`` are re-measured first;
the script stops if the model no longer matches them.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import suite  # noqa: E402
from repro.analysis.runner import run_measured  # noqa: E402
from repro.dvs.strategy import StaticStrategy  # noqa: E402


def check_chaos_constants() -> None:
    base = run_measured(suite.chaos_workload(), StaticStrategy(1.4e9))
    watts = base.point.energy / base.point.delay
    if (
        abs(base.point.delay - suite.CHAOS_UNCAPPED_DELAY_S) > 1e-9
        or abs(watts - suite.CHAOS_UNCAPPED_WATTS) > 1e-6
    ):
        raise SystemExit(
            f"uncapped chaos mix now runs {base.point.delay!r} s at "
            f"{watts!r} W; update CHAOS_UNCAPPED_* in suite.py"
        )


def main() -> int:
    check_chaos_constants()

    cases = suite.universe()
    refs = {}
    for family, run in suite._ENTRY_POINTS.items():
        batch = [c for c in cases if c.family == family]
        outcomes = run([c.task for c in batch], jobs=os.cpu_count() or 1)
        for case, outcome in zip(batch, outcomes):
            refs[case.id] = suite.record(case, outcome)
        print(f"{family}: {len(batch)} cases", file=sys.stderr)

    payload = {
        "seeds": {"default": suite.DEFAULT_SEED, "held_out": suite.HELD_OUT_SEED},
        "cases": refs,
    }
    suite.REFS_PATH.write_text(json.dumps(payload, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
