"""Capacitance laws for disc-shaped wearable devices.

Every lumped capacitance of the channel model is computed here from device
geometry, position and calibration constants:

* parallel-plate capacitance between a device's signal and ground plates,
* return-path capacitance as a body-shadowing fraction of the thin-disc 8*eps0*a,
* near-field coupling capacitance between two device ground plates,
* ground-to-body capacitance as plate-to-plate plus fringe contribution.

All functions are pure and all results are validated finite and nonnegative;
subnormal results are flushed to zero.  Radii, shadowing fractions and
separations may be numpy columns (see :mod:`hbc_channel.columns`).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .columns import fails, holds
from .constants import EPSILON_0

# Largest radius whose plate area pi*a^2 is a finite float.
MAX_RADIUS_M = math.sqrt(sys.float_info.max / math.pi)


@dataclass(frozen=True)
class DeviceGeometry:
    """Disc-shaped wearable device (transmitter or receiver).

    Attributes:
        radius_a: Disc radius in m.
        thickness_t: Signal-plate to ground-plate separation in m.
    """

    radius_a: float
    thickness_t: float

    def __post_init__(self) -> None:
        if not holds((self.radius_a > 0) & (self.radius_a <= MAX_RADIUS_M)):
            raise ValueError(
                f"radius_a must be positive and give a finite plate area pi*a^2 "
                f"(at most {MAX_RADIUS_M:.6g} m), got {self.radius_a}"
            )
        if not holds((self.thickness_t > 0) & (self.thickness_t < math.inf)):
            raise ValueError(f"thickness_t must be positive, got {self.thickness_t}")

    @property
    def plate_area(self) -> float:
        """Plate area pi*a^2 in m^2."""
        a = self.radius_a
        # A float's a**2 is libm pow, which rounds differently from a*a for
        # about 0.1 % of radii; numpy's ** squares, its float_power calls pow.
        return math.pi * (np.float_power(a, 2) if isinstance(a, np.ndarray) else a**2)


@dataclass(frozen=True)
class CouplingConstant:
    """Proportionality constant of the inter-device coupling law, F/m."""

    k: float

    def __post_init__(self) -> None:
        if not (self.k > 0 and math.isfinite(self.k)):
            raise ValueError(f"coupling constant k must be positive, got {self.k}")


def _validated_capacitance(value: float, context: str) -> float:
    """Clamp a computed capacitance to a finite nonnegative float.

    Subnormals are flushed to zero so downstream ratios never divide by a
    denormal tail.
    """
    if not holds((value >= 0) & (value < math.inf)):
        raise ValueError(f"{context} produced invalid capacitance {value}")
    if isinstance(value, np.ndarray):
        return np.where((value > 0) & (value < sys.float_info.min), 0.0, value)
    return 0.0 if 0 < value < sys.float_info.min else value


def plate_to_plate_capacitance(geom: DeviceGeometry) -> float:
    """Parallel-plate capacitance between signal and ground plates, F.

    ``C_PP = eps0 * pi * a^2 / t`` with t the plate separation.
    """
    value = EPSILON_0 * geom.plate_area / geom.thickness_t
    return _validated_capacitance(value, "plate_to_plate_capacitance")


def return_path_capacitance(geom: DeviceGeometry, x: float) -> float:
    """Return-path capacitance from device ground plate to earth ground, F.

    The body shadows the direct path to earth, so only a fraction
    ``x in (0, 1]`` of the thin-disc self capacitance survives::

        C_x = x * 8*eps0*a

    Args:
        geom: Device geometry; only the radius enters.
        x: Shadowing fraction, 1 meaning an unshadowed plate.

    Raises:
        ValueError: If x is outside (0, 1].
    """
    if not holds((x > 0.0) & (x <= 1.0)):
        raise ValueError(f"shadowing fraction x must be in (0, 1], got {x}")
    value = x * 8.0 * EPSILON_0 * geom.radius_a
    return _validated_capacitance(value, "return_path_capacitance")


def coupling_capacitance(geom: DeviceGeometry, d: float, k: CouplingConstant) -> float:
    """Near-field coupling capacitance between two device ground plates, F.

    ``C_c = k * pi * a^2 / d``: proportional to plate area, inversely
    proportional to the plate separation d (zero at d = inf).

    Raises:
        ValueError: If d <= 0 or NaN.
    """
    if not holds(d > 0):
        raise ValueError(f"device separation d must be positive, got {d}")
    value = k.k * geom.plate_area / d
    return _validated_capacitance(value, "coupling_capacitance")


def ground_to_body_capacitance(c_pp: float, c_fringe: float) -> float:
    """Body to floating-ground-plate capacitance, F.

    Sum of the plate-to-plate capacitance and the fringe-field capacitance
    between the body and the ground plate.
    """
    if fails((c_pp < 0) | (c_fringe < 0)):
        raise ValueError(
            f"capacitances must be nonnegative, got c_pp={c_pp}, c_fringe={c_fringe}"
        )
    return _validated_capacitance(c_pp + c_fringe, "ground_to_body_capacitance")


def calibrate_coupling_constant(
    c_c_ref: float, d_ref: float, area_ref: float
) -> CouplingConstant:
    """Back-solve the coupling constant from one measured reference point.

    Inverts ``C_c = k * A / d`` so that :func:`coupling_capacitance` with the
    returned constant reproduces ``c_c_ref`` exactly at ``(area_ref, d_ref)``.

    Args:
        c_c_ref: Reference coupling capacitance, F.
        d_ref: Separation at which it was observed, m.
        area_ref: Plate area of the devices used, m^2.

    Raises:
        ValueError: On any nonpositive input.
    """
    if not (c_c_ref > 0 and d_ref > 0 and area_ref > 0):
        raise ValueError(
            "calibration inputs must be positive, got "
            f"c_c_ref={c_c_ref}, d_ref={d_ref}, area_ref={area_ref}"
        )
    return CouplingConstant(c_c_ref * d_ref / area_ref)
