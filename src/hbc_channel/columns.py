"""Checks for model functions that take one value or one column per quantity.

Every function of the model accepts either floats (one scenario) or numpy
columns (one row per sweep step, floats broadcast against them).  A check is
a plain ``if`` either way.  On a column it fails when any row fails, and the
error raised for the column as a whole says only that some row failed: its
message formats values through :func:`shown`.  Rows are independent, so
:func:`hbc_channel.sweep.run_sweep` finds the lowest failing row by halving
and evaluates that row on its own, which raises that row's own error.
"""

from __future__ import annotations

import math

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


def require_positive(**values) -> None:
    """Raise ``ValueError`` for the first value that is not positive and finite.

    A column must be so on every row.
    """
    for name, value in values.items():
        if not (
            0.0 < value < math.inf if value.__class__ is float
            else holds((value > 0) & (value < math.inf))
        ):
            raise ValueError(f"{name} must be positive, got {shown(value, '')}")


def require_nonnegative(**values) -> None:
    """Raise ``ValueError`` for the first value that is negative or not finite.

    A column must be so on every row.
    """
    for name, value in values.items():
        if not (
            0.0 <= value < math.inf if value.__class__ is float
            else holds((value >= 0) & (value < math.inf))
        ):
            raise ValueError(f"{name} must be nonnegative, got {shown(value, '')}")
