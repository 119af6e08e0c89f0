"""Checks for model functions that take one value or one column per quantity.

Every function of the model accepts either floats (one scenario) or numpy
columns (one row per sweep step, floats broadcast against them).  A check is
a plain ``if`` either way, and a value range is checked by one call per
value, ``require(limits, name, value)``, against a range declared once: here,
or beside the model function that owns it.  On a column a check fails when any
row fails, and the error raised for the column as a whole says only that
some row failed: its message formats values through :func:`shown`.  Rows are
independent, so :func:`hbc_channel.sweep.run_sweep` finds the lowest failing
row by halving and evaluates that row on its own, which raises that row's
own error.  The two piecewise-linear tables, the dielectric table and the
shadowing profile, share one lookup rule, held here: :func:`anchor_columns`
and :func:`lookup`.
"""

from __future__ import annotations

from math import inf

import numpy as np


def fails(bad) -> bool:
    """Whether the failure condition ``bad`` (a bool or a bool column) holds on any row."""
    if bad is False:  # the common scalar case first: checks sit on every path
        return False
    return bad.any() if isinstance(bad, np.ndarray) else bad


def holds(ok) -> bool:
    """Whether the condition ``ok`` (a bool or a bool column) holds on every row."""
    if ok is True:
        return True
    return ok.all() if isinstance(ok, np.ndarray) else ok


def shown(value, spec: str) -> str:
    """``value`` formatted with the format ``spec``; a column reads as "some row"."""
    return "some row" if isinstance(value, np.ndarray) else format(value, spec)


# Value ranges, each a ``(text, test)`` pair for :func:`require`: ``test``
# takes a value or a column and gives a bool or a bool column.  NaN and inf
# fail all four.
POSITIVE = "positive", lambda v: (v > 0.0) & (v < inf)
NONNEGATIVE = "nonnegative", lambda v: (v >= 0.0) & (v < inf)
FRACTION = "in (0, 1]", lambda v: (v > 0.0) & (v <= 1.0)
COORDINATE = "in [0, 1]", lambda v: (v >= 0.0) & (v <= 1.0)


def one_of(names: tuple[str, ...]):
    """The range of a value that must be one of ``names``."""
    return f"one of {names}", lambda v: v in names


def integer_at_least(least: int):
    """The range of a count: a Python or numpy integer of at least ``least``
    (a float fails, whole or not: numpy takes no float as a count)."""
    return (f"an integer of at least {least}",
            lambda v: isinstance(v, (int, np.integer)) and v >= least)


def require(limits, name: str, value, error=ValueError) -> None:
    """Raise ``error`` unless ``value`` lies in the range ``limits``.

    The message reads "<name> must be <range>, got <value>"; a column must
    lie within on every row, and reads as "some row".
    """
    text, test = limits
    ok = test(value)
    if ok is not True and not holds(ok):
        got = repr(value) if value.__class__ is str else shown(value, "")
        raise error(f"{name} must be {text}, got {got}")


def anchor_columns(pairs, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The x and y columns of ``(x, y)`` pairs as read-only float arrays; x,
    called ``name`` in the error, must ascend strictly."""
    xs = [pair[0] for pair in pairs]  # a list: checks by numpy cost more on a few pairs
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ValueError(f"{name} must be strictly ascending")
    columns = np.array(xs, dtype=float), np.array([pair[1] for pair in pairs], dtype=float)
    for column in columns:
        column.flags.writeable = False
    return columns


def lookup(value, pairs, columns: tuple[np.ndarray, np.ndarray], outside: str):
    """The piecewise-linear value at ``value`` (a column gives a column) of ``pairs``,
    whose :func:`anchor_columns` are ``columns``; a NaN or a value outside their span
    (no extrapolation) raises ValueError(``outside.format(shown value, low, high)``)."""
    low, high = pairs[0][0], pairs[-1][0]  # floats: reading the columns costs more
    if not holds((value >= low) & (value <= high)):
        raise ValueError(outside.format(shown(value, ".6g"), low, high))
    y = np.interp(value, *columns)
    return y if isinstance(value, np.ndarray) else float(y)
