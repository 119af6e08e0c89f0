"""Body-position to shadowing-fraction profiles.

A profile maps a normalised body coordinate s along a named segment (0 at
the torso junction / shoulder, 1 at the extremity / wrist) to the shadowing
fraction x in (0, 1] that scales the disc self capacitance into the
return-path capacitance.  Values between anchors are linearly interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .columns import holds, shown

SEGMENT_NAMES = ("arm", "torso", "custom")


@dataclass(frozen=True)
class ShadowingProfile:
    """Piecewise-linear shadowing profile along one body segment.

    Attributes:
        segment: Segment name ("arm", "torso" or "custom").
        anchors: (s, x) pairs with strictly ascending s in [0, 1] and
            x in (0, 1].
    """

    segment: str
    anchors: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if self.segment not in SEGMENT_NAMES:
            raise ValueError(
                f"unknown segment {self.segment!r}; expected one of {SEGMENT_NAMES}"
            )
        if len(self.anchors) < 2:
            raise ValueError("profile needs at least 2 anchors")
        for s, x in self.anchors:
            if not (0.0 <= s <= 1.0) or not math.isfinite(s):
                raise ValueError(f"anchor coordinate {s} outside [0, 1]")
            if not (0.0 < x <= 1.0):
                raise ValueError(f"anchor shadowing fraction {x} outside (0, 1]")
        coords = [a[0] for a in self.anchors]
        if any(b <= a for a, b in zip(coords, coords[1:])):
            raise ValueError("anchor coordinates must be strictly ascending")


def shadowing_factor(s: float, profile: ShadowingProfile) -> float:
    """Interpolate the shadowing fraction at body coordinate s.

    Args:
        s: Coordinate in [0, 1], restricted to the profile's anchor span; a
            numpy column gives a column.

    Raises:
        ValueError: If s is outside the anchor range (no extrapolation).
    """
    if not holds((s >= 0.0) & (s <= 1.0)):
        raise ValueError(f"body coordinate s={s} outside [0, 1]")
    low, high = profile.anchors[0][0], profile.anchors[-1][0]
    if not holds((s >= low) & (s <= high)):
        raise ValueError(
            f"body coordinate {shown(s, '.6g')} outside profile anchor range "
            f"[{low:.6g}, {high:.6g}]"
        )
    coords = [a[0] for a in profile.anchors]
    values = [a[1] for a in profile.anchors]
    x = np.interp(s, coords, values)
    return x if isinstance(s, np.ndarray) else float(x)
