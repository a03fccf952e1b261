"""Paired perfbench runs of two git revisions, for a speed claim.

Usage, from the repository root::

    python3 benchmarks/pairs.py PARENT CHANGE --workload capped_chaos \\
        --seed 1 --pairs 10 --seconds 10

Each revision is checked out into a temporary ``git worktree`` (removed
at exit).  The runner then runs ``perfbench/run.py`` in the two
checkouts by turns, ``--pairs`` times each, starting with the parent on
even pairs and with the change on odd ones, so that a slow stretch of
the host falls on both sides alike.  Every run must report
``correct: true``.

For each metric it prints the median of the parent's runs and of the
change's, their ratio, how many pairs the change won (by the metric's
direction: ``tasks_per_s`` is better higher, the rest lower) and the
parent's interquartile range.  A claim holds when the change wins at
least nine of ten pairs and the medians differ by more than the parent's
IQR.  ``--json PATH`` also writes every run's metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

#: metrics that are better higher; every other one is better lower
HIGHER_IS_BETTER = frozenset({"tasks_per_s"})


def _git(*args: str, cwd: Path) -> str:
    proc = subprocess.run(
        ["git", *args], cwd=cwd, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


def _run(checkout: Path, args) -> Dict[str, float]:
    """One ``perfbench/run.py`` run in ``checkout``: metric → value."""
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        cwd=checkout,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"perfbench failed in {checkout} (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        )
    summary = json.loads(lines[-1])
    if summary["correct"] is not True:
        raise RuntimeError(f"perfbench reported incorrect output in {checkout}")
    return {name: m["value"] for name, m in summary["metrics"].items()}


def _quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(runs: Dict[str, List[Dict[str, float]]]) -> List[str]:
    """One line per metric both sides report, in the parent's order."""
    parent, change = runs["parent"], runs["change"]
    lines = [
        f"{'metric':<28} {'parent':>12} {'change':>12} {'ratio':>7} "
        f"{'wins':>6} {'parent IQR':>11}"
    ]
    for name in parent[0]:
        if not all(name in r for r in parent + change):
            continue
        a = [r[name] for r in parent]
        b = [r[name] for r in change]
        higher = name in HIGHER_IS_BETTER
        wins = sum(
            1 for x, y in zip(a, b) if (y > x if higher else y < x)
        )
        q1, q3 = _quartiles(a)
        med_a, med_b = statistics.median(a), statistics.median(b)
        ratio = med_b / med_a if med_a else float("nan")
        lines.append(
            f"{name:<28} {med_a:>12.4g} {med_b:>12.4g} {ratio:>7.3f} "
            f"{wins:>3}/{len(a):<2} {q3 - q1:>11.4g}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the baseline revision")
    parser.add_argument("change", help="the revision whose gain is claimed")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--workdir", default=None,
        help="directory for the temporary worktrees (default: a temp dir)",
    )
    parser.add_argument("--json", default=None, help="write every run here")
    args = parser.parse_args(argv)

    root = Path(_git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    revs = {
        side: _git("rev-parse", "--verify", f"{rev}^{{commit}}", cwd=root)
        for side, rev in (("parent", args.parent), ("change", args.change))
    }
    runs: Dict[str, List[Dict[str, float]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        checkouts = {}
        try:
            for side, commit in revs.items():
                checkouts[side] = Path(tmp) / side
                _git(
                    "worktree", "add", "--detach", str(checkouts[side]), commit,
                    cwd=root,
                )
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    runs[side].append(_run(checkouts[side], args))
                print(
                    f"pair {i + 1}/{args.pairs}: "
                    + " ".join(
                        f"{side} {runs[side][-1].get('tasks_per_s', 0.0):.4g}"
                        for side in ("parent", "change")
                    ),
                    file=sys.stderr,
                )
        finally:
            for checkout in checkouts.values():
                subprocess.run(
                    ["git", "worktree", "remove", "--force", str(checkout)],
                    cwd=root, capture_output=True,
                )
            subprocess.run(["git", "worktree", "prune"], cwd=root, capture_output=True)
    print(
        f"{args.workload} seed {args.seed}, {args.pairs} pairs, "
        f"--seconds {args.seconds} --trace {args.trace}: "
        f"parent {revs['parent'][:10]}, change {revs['change'][:10]}"
    )
    print("\n".join(report(runs)))
    if args.json:
        Path(args.json).write_text(
            json.dumps({"revisions": revs, "runs": runs}, indent=1) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
