"""Body-position to shadowing-fraction profiles.

A profile maps a normalised body coordinate s along a named segment (0 at
the torso junction / shoulder, 1 at the extremity / wrist) to the shadowing
fraction x in (0, 1] that scales the disc self capacitance into the
return-path capacitance.  Values between anchors are linearly interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .columns import COORDINATE, FRACTION, anchor_columns, lookup, one_of, require

SEGMENT = one_of(("arm", "torso", "custom"))


@dataclass(frozen=True)
class ShadowingProfile:
    """Piecewise-linear shadowing profile along one body segment.

    Attributes:
        segment: Segment name ("arm", "torso" or "custom").
        anchors: (s, x) pairs with strictly ascending s in [0, 1] and
            x in (0, 1].
        columns: The anchors' s and x columns as read-only arrays, made once.
    """

    segment: str
    anchors: tuple[tuple[float, float], ...]
    columns: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require(SEGMENT, "segment", self.segment)
        if len(self.anchors) < 2:
            raise ValueError("profile needs at least 2 anchors")
        for s, x in self.anchors:
            require(COORDINATE, "anchor coordinate", s)
            require(FRACTION, "anchor shadowing fraction", x)
        object.__setattr__(self, "columns", anchor_columns(self.anchors, "anchor coordinates"))


def shadowing_factor(s: float, profile: ShadowingProfile) -> float:
    """Interpolate the shadowing fraction at body coordinate s.

    Args:
        s: Coordinate in [0, 1], restricted to the profile's anchor span; a
            numpy column gives a column.

    Raises:
        ValueError: If s is NaN or outside the anchor range, which lies in
            [0, 1] (no extrapolation).
    """
    return lookup(s, profile.anchors, profile.columns,
                  "body coordinate {} outside profile anchor range [{:.6g}, {:.6g}]")
