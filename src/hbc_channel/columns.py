"""Checks for model functions that take one value or one column per quantity.

Every function of the model accepts either floats (one scenario) or numpy
columns (one row per sweep step, floats broadcast against them).  A check on
floats behaves as a plain ``if``: the caller raises its own error.  A check on
a column that fails on any row raises :class:`RowFailure` naming the first
such row instead, before any message is formatted.  The sweep engine then
evaluates the lowest failing row on its own, which raises that row's error.
"""

from __future__ import annotations

import numpy as np


class RowFailure(Exception):
    """A check failed on a column; ``row`` is the first row where it failed.

    Not a ``ValueError``: handlers that turn a ``ValueError`` into a
    ``ConfigError`` must let it through.
    """

    def __init__(self, row: int):
        super().__init__(f"check failed on row {row}")
        self.row = row


def fails(bad) -> bool:
    """Whether the failure condition ``bad`` (a bool or a bool column) holds."""
    if bad is False:  # the common scalar case first: checks sit on every path
        return False
    if isinstance(bad, np.ndarray):
        if bad.any():
            raise RowFailure(int(bad.argmax()))
        return False
    return bad


def holds(ok) -> bool:
    """Whether the condition ``ok`` (a bool or a bool column) holds."""
    if ok is True:
        return True
    if isinstance(ok, np.ndarray):
        return not fails(~ok)
    return ok
