"""Tests for the disc-device capacitance laws."""

import math

import numpy as np
import pytest

from hbc_channel import (
    EPSILON_0,
    CouplingConstant,
    DeviceGeometry,
    calibrate_coupling_constant,
    coupling_capacitance,
    ground_to_body_capacitance,
    plate_to_plate_capacitance,
    return_path_capacitance,
)
from hbc_channel.geometry import MAX_RADIUS_M


class TestDeviceGeometry:
    def test_valid_geometry(self):
        geom = DeviceGeometry(radius_a=0.03, thickness_t=0.005)
        assert geom.plate_area == pytest.approx(math.pi * 0.03**2, rel=1e-15)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="radius_a"):
            DeviceGeometry(radius_a=0.0, thickness_t=0.005)
        with pytest.raises(ValueError, match="radius_a"):
            DeviceGeometry(radius_a=-0.01, thickness_t=0.005)

    def test_rejects_nonpositive_thickness(self):
        with pytest.raises(ValueError, match="thickness_t"):
            DeviceGeometry(radius_a=0.03, thickness_t=0.0)

    def test_rejects_radius_whose_plate_area_overflows(self):
        """pi*a^2 is finite up to MAX_RADIUS_M and inf one float above it."""
        largest = DeviceGeometry(MAX_RADIUS_M, 0.005)
        assert math.isfinite(plate_to_plate_capacitance(largest))
        above = math.nextafter(MAX_RADIUS_M, math.inf)
        assert math.isinf(math.pi * above**2)
        for radius in (above, 1e200, np.array([0.03, 1e200])):
            with pytest.raises(ValueError, match="radius_a .*plate area"):
                DeviceGeometry(radius_a=radius, thickness_t=0.005)


class TestDiscSelfCapacitance:
    """Thin-disc self capacitance 8*eps0*a, the unshadowed return path."""

    def test_thin_disc_1cm(self):
        """a = 1 cm: exactly 8*eps0*a = 0.7083 pF."""
        geom = DeviceGeometry(0.01, 0.005)
        assert return_path_capacitance(geom, 1.0) == 8 * EPSILON_0 * 0.01
        assert return_path_capacitance(geom, 1.0) == pytest.approx(0.7083e-12, rel=5e-4)

    def test_thin_disc_3cm(self):
        geom = DeviceGeometry(0.03, 0.005)
        assert return_path_capacitance(geom, 1.0) == pytest.approx(2.125e-12, rel=5e-4)

    def test_strictly_increasing_in_radius(self):
        radii = np.linspace(0.002, 0.08, 25)
        values = [return_path_capacitance(DeviceGeometry(a, 0.005), 1.0) for a in radii]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_subnormal_result_flushed_to_zero(self):
        geom = DeviceGeometry(1e-300, 0.005)
        assert return_path_capacitance(geom, 1.0) == 0.0


class TestPlateToPlateCapacitance:
    def test_reference_plate_value(self):
        """a^2/t = 0.08087 m reproduces the 2.25 pF reference within 1%."""
        geom = DeviceGeometry(radius_a=0.03, thickness_t=0.03**2 / 0.08087)
        assert plate_to_plate_capacitance(geom) == pytest.approx(2.25e-12, rel=0.01)

    def test_3cm_5mm(self):
        geom = DeviceGeometry(0.03, 0.005)
        assert plate_to_plate_capacitance(geom) == pytest.approx(5.007e-12, rel=5e-4)

    def test_vanishing_area(self):
        geom = DeviceGeometry(1e-160, 0.005)
        assert plate_to_plate_capacitance(geom) == pytest.approx(0.0, abs=1e-300)

    def test_proportional_to_area_inverse_in_separation(self):
        base = plate_to_plate_capacitance(DeviceGeometry(0.02, 0.004))
        assert plate_to_plate_capacitance(DeviceGeometry(0.04, 0.004)) == pytest.approx(
            4 * base, rel=1e-12
        )
        assert plate_to_plate_capacitance(DeviceGeometry(0.02, 0.008)) == pytest.approx(
            base / 2, rel=1e-12
        )


class TestReturnPathCapacitance:
    def test_unshadowed_recovers_thin_disc(self):
        geom = DeviceGeometry(0.03, 0.005)
        assert return_path_capacitance(geom, 1.0) == 8 * EPSILON_0 * 0.03

    def test_half_shadowed(self):
        geom = DeviceGeometry(0.03, 0.005)
        assert return_path_capacitance(geom, 0.5) == pytest.approx(1.0625e-12, rel=5e-4)

    def test_quarter_shadowed_small_disc(self):
        geom = DeviceGeometry(0.01, 0.005)
        assert return_path_capacitance(geom, 0.25) == pytest.approx(0.1771e-12, rel=5e-4)

    def test_linear_in_fraction(self):
        geom = DeviceGeometry(0.025, 0.005)
        full = return_path_capacitance(geom, 1.0)
        for x in np.linspace(0.05, 1.0, 20):
            assert return_path_capacitance(geom, float(x)) == pytest.approx(
                x * full, rel=1e-12
            )

    @pytest.mark.parametrize("x", [0.0, -0.2, 1.0001, math.inf, math.nan])
    def test_rejects_out_of_range_fraction(self, x):
        with pytest.raises(ValueError, match="shadowing fraction"):
            return_path_capacitance(DeviceGeometry(0.03, 0.005), x)


class TestCouplingCapacitance:
    def test_reference_60_femtofarad_point(self):
        """30 cm^2 plates 10 cm apart with the sample constant: ~60 fF."""
        geom = DeviceGeometry(radius_a=0.0309, thickness_t=0.005)
        value = coupling_capacitance(geom, 0.1, CouplingConstant(2.0e-12))
        assert value == pytest.approx(60e-15, rel=2e-3)

    def test_inverse_distance_scaling(self):
        geom = DeviceGeometry(0.0309, 0.005)
        k = CouplingConstant(2.0e-12)
        near = coupling_capacitance(geom, 0.1, k)
        assert coupling_capacitance(geom, 0.2, k) == pytest.approx(near / 2, rel=1e-12)

    def test_infinite_separation_gives_zero(self):
        geom = DeviceGeometry(0.03, 0.005)
        assert coupling_capacitance(geom, math.inf, CouplingConstant(2e-12)) == 0.0

    def test_proportional_to_area(self):
        k = CouplingConstant(2e-12)
        base = coupling_capacitance(DeviceGeometry(0.01, 0.005), 0.1, k)
        assert coupling_capacitance(DeviceGeometry(0.03, 0.005), 0.1, k) == pytest.approx(
            9 * base, rel=1e-12
        )

    def test_strictly_decreasing_in_distance(self):
        geom = DeviceGeometry(0.03, 0.005)
        k = CouplingConstant(2e-12)
        values = [coupling_capacitance(geom, float(d), k) for d in np.linspace(0.02, 1.0, 30)]
        assert all(b < a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("d", [0.0, -0.1])
    def test_rejects_nonpositive_distance(self, d):
        with pytest.raises(ValueError, match="separation"):
            coupling_capacitance(DeviceGeometry(0.03, 0.005), d, CouplingConstant(2e-12))


class TestGroundToBodyCapacitance:
    def test_reference_sum_lower(self):
        assert ground_to_body_capacitance(2.25e-12, 0.60e-12) == pytest.approx(
            2.85e-12, rel=1e-12
        )

    def test_reference_sum_upper(self):
        assert ground_to_body_capacitance(2.25e-12, 0.75e-12) == pytest.approx(
            3.00e-12, rel=1e-12
        )

    def test_no_fringe_reduces_to_plate_value(self):
        assert ground_to_body_capacitance(2.25e-12, 0.0) == 2.25e-12

    def test_rejects_negative_input(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ground_to_body_capacitance(-1e-12, 0.5e-12)


class TestCalibrateCouplingConstant:
    def test_reference_inversion(self):
        """60 fF at 10 cm on 30 cm^2 back-solves to k = 2.0e-12 F/m."""
        k = calibrate_coupling_constant(60e-15, 0.1, 30e-4)
        assert k.k == pytest.approx(2.0e-12, rel=1e-12)

    def test_unit_case(self):
        assert calibrate_coupling_constant(1.0, 1.0, 1.0).k == 1.0

    def test_exact_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c_ref = float(10 ** rng.uniform(-15, -12))
            d_ref = float(rng.uniform(0.01, 1.0))
            radius = float(rng.uniform(0.005, 0.06))
            geom = DeviceGeometry(radius, 0.005)
            k = calibrate_coupling_constant(c_ref, d_ref, geom.plate_area)
            reproduced = coupling_capacitance(geom, d_ref, k)
            assert abs(reproduced - c_ref) / c_ref < 1e-12

    @pytest.mark.parametrize("args", [(0, 0.1, 3e-3), (60e-15, 0, 3e-3), (60e-15, 0.1, 0)])
    def test_rejects_nonpositive_inputs(self, args):
        with pytest.raises(ValueError, match="positive"):
            calibrate_coupling_constant(*args)

    def test_coupling_constant_validation(self):
        with pytest.raises(ValueError, match="k must be positive"):
            CouplingConstant(0.0)
