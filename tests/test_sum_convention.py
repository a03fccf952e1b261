"""Convention guard: no builtin ``sum()`` of floats in ``repro.powercap``.

Python 3.12 compensates a ``sum()`` of floats, so the same totals round
differently on 3.10/3.11 and on 3.12.  The cap governor's totals decide
which ladder step fits and land in its stored windows, so one interpreter
would steer another trajectory than the other.  This test scans every
module under ``src/repro/powercap`` and fails on any ``sum()`` call that
is not a count, ``sum(1 for ...)``: float totals there are plain
``total += x`` loops, which fold left on every interpreter.
``tests/sum312.py`` emulates the 3.12 rounding for a whole suite run.
"""

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro" / "powercap"


def _is_count(call: ast.Call) -> bool:
    """``sum(<int literal> for ...)``: a count of integers."""
    if len(call.args) != 1 or call.keywords:
        return False
    arg = call.args[0]
    return (
        isinstance(arg, (ast.GeneratorExp, ast.ListComp))
        and isinstance(arg.elt, ast.Constant)
        and type(arg.elt.value) is int
    )


def _float_sums(tree, rel):
    return [
        f"{rel}:{node.lineno}: sum() over something other than a count"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
        and not _is_count(node)
    ]


def test_no_float_sums_in_powercap():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=rel)
        found.extend(_float_sums(tree, rel))
    assert not found, (
        "builtin sum() rounds floats differently from Python 3.12 on; "
        "fold the total left in a loop:\n" + "\n".join(found)
    )


def test_guard_flags_float_sums_and_passes_counts():
    """Self-check: the scanner flags float totals, not integer counts."""
    source = (
        "def f(samples, watts, windows):\n"
        "    a = sum(predict(s) for s in samples)\n"
        "    b = sum(watts.values())\n"
        "    c = sum(1 for w in windows if not w.compliant)\n"
        "    d = sum([1 for w in windows])\n"
        "    e = sum(1.0 for w in windows)\n"
    )
    hits = _float_sums(ast.parse(source), "x.py")
    assert [hit.split(":")[1] for hit in hits] == ["2", "3", "6"]
