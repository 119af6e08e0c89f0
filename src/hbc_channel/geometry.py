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

from .columns import FRACTION, NONNEGATIVE, POSITIVE, holds, require, shown
from .constants import EPSILON_0

# Largest radius whose plate area pi*a^2 is a finite float.
MAX_RADIUS_M = math.sqrt(sys.float_info.max / math.pi)

# The ranges of a device radius and of a device separation; unlike
# columns.POSITIVE, a separation may be inf (plates that never couple).
RADIUS = (f"positive with a finite plate area pi*a^2 (at most {MAX_RADIUS_M:.6g} m)",
          lambda v: (v > 0.0) & (v <= MAX_RADIUS_M))
SEPARATION = "positive", lambda v: v > 0.0


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
        require(RADIUS, "radius_a", self.radius_a)
        require(POSITIVE, "thickness_t", self.thickness_t)

    @property
    def plate_area(self) -> float:
        """Plate area pi*a^2 in m^2."""
        a = self.radius_a
        # A float's a**2 is libm pow, which rounds differently from a*a for
        # about 0.1 % of radii; numpy's ** squares, its float_power calls pow.
        return math.pi * (np.float_power(a, 2) if isinstance(a, np.ndarray) else a**2)


def _validated_capacitance(value: float, context: str) -> float:
    """Clamp a computed capacitance to a finite nonnegative float.

    Subnormals are flushed to zero so downstream ratios never divide by a
    denormal tail.  A law whose value can overflow computes a column under
    ``np.errstate(over="ignore")``, so that the overflow reaches this check
    as a quiet inf, as it does on floats, whose arithmetic never warns; the
    float path takes no errstate, which every scenario build would pay for.
    """
    if not holds(NONNEGATIVE[1](value)):
        raise ValueError(f"{context} produced invalid capacitance {shown(value, '')}")
    if isinstance(value, np.ndarray):
        return np.where((value > 0) & (value < sys.float_info.min), 0.0, value)
    return 0.0 if 0 < value < sys.float_info.min else value


def plate_to_plate_capacitance(geom: DeviceGeometry) -> float:
    """Parallel-plate capacitance between signal and ground plates, F.

    ``C_PP = eps0 * pi * a^2 / t`` with t the plate separation.
    """
    area, t = geom.plate_area, geom.thickness_t
    if isinstance(area, np.ndarray) or isinstance(t, np.ndarray):
        with np.errstate(over="ignore"):
            value = EPSILON_0 * area / t
    else:
        value = EPSILON_0 * area / t
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
    require(FRACTION, "shadowing fraction x", x)
    value = x * 8.0 * EPSILON_0 * geom.radius_a
    return _validated_capacitance(value, "return_path_capacitance")


def coupling_capacitance(geom: DeviceGeometry, d: float, k: float) -> float:
    """Near-field coupling capacitance between two device ground plates, F.

    ``C_c = k * pi * a^2 / d`` with the coupling constant k in F/m:
    proportional to plate area, inversely proportional to the plate
    separation d (zero at d = inf).

    Raises:
        ValueError: If d <= 0 or NaN, or k is not positive and finite.
    """
    require(SEPARATION, "device separation d", d)
    require(POSITIVE, "k", k)
    area = geom.plate_area
    if isinstance(area, np.ndarray) or isinstance(d, np.ndarray) or isinstance(k, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):  # inf/inf at d = inf
            value = k * area / d
    else:
        value = k * area / d
    return _validated_capacitance(value, "coupling_capacitance")


def ground_to_body_capacitance(c_pp: float, c_fringe: float) -> float:
    """Body to floating-ground-plate capacitance, F.

    Sum of the plate-to-plate capacitance and the fringe-field capacitance
    between the body and the ground plate.
    """
    require(NONNEGATIVE, "c_pp", c_pp)
    require(NONNEGATIVE, "c_fringe", c_fringe)
    if isinstance(c_pp, np.ndarray) or isinstance(c_fringe, np.ndarray):
        with np.errstate(over="ignore"):
            value = c_pp + c_fringe
    else:
        value = c_pp + c_fringe
    return _validated_capacitance(value, "ground_to_body_capacitance")


def calibrate_coupling_constant(c_c_ref: float, d_ref: float, area_ref: float) -> float:
    """Back-solve the coupling constant k, F/m, from one measured reference point.

    Inverts ``C_c = k * A / d`` so that :func:`coupling_capacitance` with the
    returned constant reproduces ``c_c_ref`` exactly at ``(area_ref, d_ref)``.

    Args:
        c_c_ref: Reference coupling capacitance, F.
        d_ref: Separation at which it was observed, m.
        area_ref: Plate area of the devices used, m^2.

    Raises:
        ValueError: Naming the first input that is not positive and finite,
            or ``k`` when the quotient overflows or underflows.
    """
    require(POSITIVE, "c_c_ref", c_c_ref)
    require(POSITIVE, "d_ref", d_ref)
    require(POSITIVE, "area_ref", area_ref)
    k = c_c_ref * d_ref / area_ref
    require(POSITIVE, "k", k)
    return k
