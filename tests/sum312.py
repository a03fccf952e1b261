"""A pytest plugin that gives ``sum()`` Python 3.12's float rounding.

Python 3.12 made the builtin ``sum()`` of floats compensated (Neumaier's
improvement of Kahan summation), so ``sum([0.1] * 10) == 1.0`` there and
``0.9999999999999999`` on 3.10 and 3.11.  A float total that feeds a
control decision, a stored record or an ``==`` pin must therefore be a
plain left fold, or the same code decides differently on different
interpreters.  This plugin swaps ``builtins.sum`` for an emulation of
the 3.12 float path, so one run of the suite on an older interpreter
shows what would move on 3.12::

    PYTHONPATH=src python -m pytest -p tests.sum312

It is loaded only by ``-p``; on 3.12 and later it changes nothing.  The
emulation follows CPython's ``builtin_sum_impl``: an exact-integer phase,
then a float phase that compensates float items, adds integer items
uncompensated and adds the compensation once at the end; any other item
falls back to ``+``.  It is not a 3.12 interpreter.
"""

import builtins
import math
import sys

_builtin_sum = builtins.sum


def compensated_sum(iterable, /, start=0):
    """``sum(iterable, start)`` with 3.12's compensated float phase."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) in (int, bool):
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is float:
        total, compensation = result, 0.0
        for item in items:
            if type(item) is float:
                partial = total + item
                if abs(total) >= abs(item):
                    compensation += (total - partial) + item
                else:
                    compensation += (item - partial) + total
                total = partial
                continue
            if type(item) in (int, bool):
                total += float(item)
                continue
            if compensation and math.isfinite(compensation):
                total += compensation
            result = total + item
            break
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            return total
    for item in items:
        result = result + item
    return result


def pytest_configure(config):
    if sys.version_info < (3, 12):
        builtins.sum = compensated_sum


def pytest_unconfigure(config):
    builtins.sum = _builtin_sum
