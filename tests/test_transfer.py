"""Tests for the closed-form transfer functions and the comparison report."""

import math

import numpy as np
import pytest

from conftest import reference_channel_ratio
from hbc_channel import (
    ChannelScenario,
    CouplingConstant,
    DegenerateScenarioError,
    DeviceGeometry,
    GeometricProvenance,
    body_potential_ratio,
    compare_closed_forms,
    coupling_capacitance,
    extract_return_path,
    full_transfer,
    geometric_transfer,
    ground_to_body_capacitance,
    plate_to_plate_capacitance,
    ratio_to_db,
    return_path_capacitance,
    rx_transfer_distant,
    simplified_transfer,
)

# Frozen expected values, hand-evaluated with exact rational arithmetic from
# the closed-form expressions before the implementation existed.
EQ_FULL_CC0 = 1.2197722148575087e-4
EQ_DISTANT = 1.2749286804896134e-4
EQ_SIMPLIFIED_60F = 4.721087847215658e-3
EQ_FULL_60F = 4.546753528563794e-3
EQ_GEOMETRIC_DISTANT = 4.7498261240212964e-4


def scenario_with_cc(c_c: float) -> ChannelScenario:
    return ChannelScenario(
        c_x_tx=0.5e-12, c_x_rx=0.5e-12, c_gb_rx=3e-12,
        c_l=10e-12, c_b=150.838e-12, c_c=c_c,
    )


def sample_box_scenarios(count: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        cxt, cxr = (float(v) for v in rng.uniform(0.1e-12, 1e-12, 2))
        yield ChannelScenario(
            c_x_tx=cxt,
            c_x_rx=cxr,
            c_gb_rx=float(rng.uniform(2e-12, 6e-12)),
            c_l=float(rng.uniform(5e-12, 20e-12)),
            c_b=float(rng.uniform(100e-12, 200e-12)),
            c_c=float(rng.uniform(0.0, 100e-15)),
        )


class TestBodyPotentialRatio:
    def test_thin_disc_on_reference_body(self):
        assert body_potential_ratio(0.7083e-12, 150.838e-12) == pytest.approx(
            4.696e-3, rel=5e-4
        )
        db = ratio_to_db(body_potential_ratio(0.70834e-12, 150.838e-12))
        assert db == pytest.approx(-46.6, abs=0.05)

    def test_equal_capacitances_give_unity(self):
        assert body_potential_ratio(150.838e-12, 150.838e-12) == 1.0

    def test_half_shadowed_3cm(self):
        assert body_potential_ratio(1.0625e-12, 150.838e-12) == pytest.approx(
            7.044e-3, rel=5e-4
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="positive"):
            body_potential_ratio(0.0, 150e-12)
        with pytest.raises(ValueError, match="positive"):
            body_potential_ratio(1e-12, -1e-12)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateScenarioError):
            body_potential_ratio(1e-31, 1e-31)


class TestExtractReturnPath:
    def test_inverts_reference_example(self):
        assert extract_return_path(4.696e-3, 150.838e-12) == pytest.approx(
            0.7083e-12, rel=5e-4
        )

    def test_unit_recovery(self):
        assert extract_return_path(1 / 150.838, 150.838e-12) == pytest.approx(
            1e-12, rel=1e-12
        )

    def test_round_trip_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            c_return = float(10 ** rng.uniform(-13.5, -12))
            c_b = float(rng.uniform(100e-12, 200e-12))
            back = extract_return_path(body_potential_ratio(c_return, c_b), c_b)
            assert abs(back - c_return) / c_return < 1e-12

    @pytest.mark.parametrize("v", [0.0, 1.0, 1.5, -0.1])
    def test_rejects_out_of_range_ratio(self, v):
        with pytest.raises(ValueError, match="v_ratio"):
            extract_return_path(v, 150e-12)


class TestRxTransferDistant:
    def test_default_scenario(self):
        value = rx_transfer_distant(scenario_with_cc(0.0))
        assert value == pytest.approx(EQ_DISTANT, rel=1e-12)
        assert ratio_to_db(value) == pytest.approx(-77.89, abs=0.01)

    def test_vanishing_forward_coupling(self):
        s = ChannelScenario(
            c_x_tx=1e-18, c_x_rx=0.5e-12, c_gb_rx=3e-12, c_l=10e-12, c_b=150.838e-12
        )
        assert rx_transfer_distant(s) < 1e-9

    def test_agrees_with_full_form_within_regime(self):
        """Product form vs complete form at c_c = 0: ~4.3% on the default point."""
        distant = rx_transfer_distant(scenario_with_cc(0.0))
        full = full_transfer(scenario_with_cc(0.0))
        assert abs(distant - full) / max(distant, full) < 0.045


class TestFullTransfer:
    def test_default_scenario_no_coupling(self):
        assert full_transfer(scenario_with_cc(0.0)) == pytest.approx(
            EQ_FULL_CC0, rel=1e-12
        )

    def test_default_scenario_60_femtofarad(self):
        value = full_transfer(scenario_with_cc(60e-15))
        assert value == pytest.approx(EQ_FULL_60F, rel=1e-12)
        # The simplified form overshoots it by ~3.7% here.
        assert abs(value - EQ_SIMPLIFIED_60F) / EQ_SIMPLIFIED_60F < 0.04

    def test_dominant_coupling_saturates_at_unity(self):
        assert full_transfer(scenario_with_cc(1.0)) == pytest.approx(1.0, rel=1e-9)

    def test_bounded_in_unit_interval_over_box(self):
        for s in sample_box_scenarios(300, seed=23):
            assert 0.0 < full_transfer(s) < 1.0
            assert 0.0 < simplified_transfer(s) < 1.0
            assert 0.0 < rx_transfer_distant(s) < 1.0

    def test_strictly_increasing_in_coupling(self):
        values = [full_transfer(scenario_with_cc(c)) for c in np.linspace(0, 200e-15, 40)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_strictly_decreasing_in_load(self):
        values = [
            full_transfer(
                ChannelScenario(
                    c_x_tx=0.5e-12, c_x_rx=0.5e-12, c_gb_rx=3e-12,
                    c_l=float(cl), c_b=150.838e-12, c_c=60e-15,
                )
            )
            for cl in np.linspace(5e-12, 20e-12, 40)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_matches_nodal_elimination_when_symmetric(self):
        """With equal return paths the closed form equals the nodal solution."""
        value = full_transfer(scenario_with_cc(60e-15))
        nodal = reference_channel_ratio(
            0.5e-12, 0.5e-12, 3e-12, 10e-12, 150.838e-12, 60e-15
        )
        assert value == pytest.approx(nodal, rel=1e-12)


class TestSimplifiedTransfer:
    def test_default_scenario_60_femtofarad(self):
        value = simplified_transfer(scenario_with_cc(60e-15))
        assert value == pytest.approx(EQ_SIMPLIFIED_60F, rel=1e-12)
        assert ratio_to_db(value) == pytest.approx(-46.5, abs=0.05)

    def test_reduces_to_distant_form_exactly_at_zero_coupling(self):
        s = scenario_with_cc(0.0)
        assert simplified_transfer(s) == rx_transfer_distant(s)

    def test_reduction_is_bitwise_over_box(self):
        for s in sample_box_scenarios(200, seed=31):
            s0 = ChannelScenario(
                c_x_tx=s.c_x_tx, c_x_rx=s.c_x_rx, c_gb_rx=s.c_gb_rx,
                c_l=s.c_l, c_b=s.c_b, c_c=0.0,
            )
            assert simplified_transfer(s0) == rx_transfer_distant(s0)

    def test_dominant_coupling_limit(self):
        assert simplified_transfer(scenario_with_cc(1.0)) == pytest.approx(1.0, rel=1e-9)


class TestApproximationErrorBound:
    def test_distant_vs_full_respects_analytic_bound(self):
        """|distant - full| / full <= 2*max(c_x)*(1/(c_l+c_gb) + 1/c_b)."""
        for s in sample_box_scenarios(500, seed=41):
            s0 = ChannelScenario(
                c_x_tx=s.c_x_tx, c_x_rx=s.c_x_rx, c_gb_rx=s.c_gb_rx,
                c_l=s.c_l, c_b=s.c_b, c_c=0.0,
            )
            full = full_transfer(s0)
            distant = rx_transfer_distant(s0)
            bound = 2 * max(s.c_x_tx, s.c_x_rx) * (
                1 / (s.c_l + s.c_gb_rx) + 1 / s.c_b
            )
            assert abs(distant - full) / full <= bound


class TestGeometricTransfer:
    GEOM = DeviceGeometry(radius_a=0.03, thickness_t=0.005)
    ARGS = dict(x_tx=0.5, x_rx=0.5, c_f=0.75e-12, c_l=10e-12, c_b=150.838e-12)

    def test_distant_reference_value(self):
        value = geometric_transfer(self.GEOM, self.GEOM, distant=True, **self.ARGS)
        assert value == pytest.approx(EQ_GEOMETRIC_DISTANT, rel=1e-12)
        assert ratio_to_db(value) == pytest.approx(-66.5, abs=0.05)

    def test_coupled_exceeds_distant(self):
        distant = geometric_transfer(self.GEOM, self.GEOM, distant=True, **self.ARGS)
        coupled = geometric_transfer(
            self.GEOM, self.GEOM, distant=False, d=0.1, k=CouplingConstant(2e-12),
            **self.ARGS,
        )
        assert coupled > distant

    def test_coupled_converges_to_distant_at_large_separation(self):
        distant = geometric_transfer(self.GEOM, self.GEOM, distant=True, **self.ARGS)
        far = geometric_transfer(
            self.GEOM, self.GEOM, distant=False, d=1e6, k=CouplingConstant(2e-12),
            **self.ARGS,
        )
        assert abs(far - distant) / distant < 1e-6

    def test_rejects_mismatched_radii(self):
        other = DeviceGeometry(0.02, 0.005)
        with pytest.raises(ValueError, match="equal radii"):
            geometric_transfer(self.GEOM, other, distant=True, **self.ARGS)

    def test_coupled_requires_d_and_k(self):
        with pytest.raises(ValueError, match="requires d and k"):
            geometric_transfer(self.GEOM, self.GEOM, distant=False, **self.ARGS)

    def test_distant_strictly_increasing_in_radius_and_bounded(self):
        radii = np.linspace(0.005, 0.25, 60)
        values = [
            geometric_transfer(
                DeviceGeometry(float(a), 0.005), DeviceGeometry(float(a), 0.005),
                distant=True, **self.ARGS,
            )
            for a in radii
        ]
        assert all(b > a for a, b in zip(values, values[1:]))
        # Saturation: the large-radius limit stays finite.
        huge = geometric_transfer(
            DeviceGeometry(100.0, 0.005), DeviceGeometry(100.0, 0.005),
            distant=True, **self.ARGS,
        )
        assert values[-1] < huge < 1.0

    def test_distant_independent_of_separation(self):
        value = geometric_transfer(self.GEOM, self.GEOM, distant=True, **self.ARGS)
        also = geometric_transfer(
            self.GEOM, self.GEOM, distant=True, d=0.05, k=CouplingConstant(2e-12),
            **self.ARGS,
        )
        assert value == also

    def test_coupled_strictly_decreasing_in_separation(self):
        k = CouplingConstant(2e-12)
        values = [
            geometric_transfer(
                self.GEOM, self.GEOM, distant=False, d=float(d), k=k, **self.ARGS
            )
            for d in np.linspace(0.02, 1.0, 40)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_composition_identity_with_capacitance_pipeline(self):
        """Geometric form == capacitance laws + simplified form, < 1e-12."""
        rng = np.random.default_rng(53)
        k = CouplingConstant(2e-12)
        for _ in range(100):
            a = float(rng.uniform(0.005, 0.05))
            t = float(rng.uniform(0.001, 0.01))
            geom = DeviceGeometry(a, t)
            x_tx = float(rng.uniform(0.1, 1.0))
            x_rx = float(rng.uniform(0.1, 1.0))
            c_f = float(rng.uniform(0.0, 2e-12))
            c_l = float(rng.uniform(5e-12, 20e-12))
            c_b = float(rng.uniform(100e-12, 200e-12))
            d = float(rng.uniform(0.02, 2.0))
            composed = ChannelScenario(
                c_x_tx=return_path_capacitance(geom, x_tx),
                c_x_rx=return_path_capacitance(geom, x_rx),
                c_gb_rx=ground_to_body_capacitance(plate_to_plate_capacitance(geom), c_f),
                c_l=c_l,
                c_b=c_b,
                c_c=coupling_capacitance(geom, d, k),
            )
            direct = geometric_transfer(
                geom, geom, x_tx=x_tx, x_rx=x_rx, c_f=c_f, c_l=c_l, c_b=c_b,
                distant=False, d=d, k=k,
            )
            assert abs(direct - simplified_transfer(composed)) / direct < 1e-12

            composed0 = ChannelScenario(
                c_x_tx=composed.c_x_tx, c_x_rx=composed.c_x_rx,
                c_gb_rx=composed.c_gb_rx, c_l=c_l, c_b=c_b, c_c=0.0,
            )
            direct0 = geometric_transfer(
                geom, geom, x_tx=x_tx, x_rx=x_rx, c_f=c_f, c_l=c_l, c_b=c_b,
                distant=True,
            )
            assert abs(direct0 - simplified_transfer(composed0)) / direct0 < 1e-12


class TestRatioToDb:
    def test_unity_is_zero_db(self):
        assert ratio_to_db(1.0) == 0.0

    def test_tenth_is_minus_twenty(self):
        assert ratio_to_db(0.1) == pytest.approx(-20.0, rel=1e-12)

    def test_distant_reference(self):
        assert ratio_to_db(1.2749286804896134e-4) == pytest.approx(-77.89, abs=0.005)

    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf])
    def test_rejects_nonpositive_or_nonfinite(self, r):
        with pytest.raises(ValueError, match="ratio"):
            ratio_to_db(r)


class TestCompareClosedForms:
    def test_default_scenario_distant_flag_and_error(self):
        report = compare_closed_forms(scenario_with_cc(0.0))
        assert "distant" in report.flags
        assert "coupled" not in report.flags
        assert report.relative_errors["distant_vs_full"] == pytest.approx(
            0.0433, abs=0.002
        )
        # Simplified equals distant exactly at c_c = 0.
        assert report.ratios["simplified"] == report.ratios["distant"]

    def test_coupled_flag_at_60_femtofarad(self):
        report = compare_closed_forms(scenario_with_cc(60e-15))
        assert "coupled" in report.flags
        assert "distant" not in report.flags

    def test_oracle_matches_full_for_symmetric_scenario(self):
        report = compare_closed_forms(scenario_with_cc(60e-15))
        assert report.relative_errors["full_vs_oracle"] < 1e-9

    def test_invalid_approximation_flag(self):
        s = ChannelScenario(
            c_x_tx=0.9e-12, c_x_rx=0.9e-12, c_gb_rx=2e-12, c_l=5e-12, c_b=8e-12
        )
        assert "invalid-approximation" in compare_closed_forms(s).flags

    def test_geometric_forms_included_with_provenance(self):
        geom = DeviceGeometry(0.03, 0.005)
        provenance = GeometricProvenance(
            tx_geom=geom, rx_geom=geom, x_tx=0.5, x_rx=0.5, c_f=0.75e-12,
        )
        s = ChannelScenario(
            c_x_tx=return_path_capacitance(geom, 0.5),
            c_x_rx=return_path_capacitance(geom, 0.5),
            c_gb_rx=ground_to_body_capacitance(plate_to_plate_capacitance(geom), 0.75e-12),
            c_l=10e-12,
            c_b=150.838e-12,
            c_c=0.0,
            provenance=provenance,
        )
        report = compare_closed_forms(s)
        assert report.ratios["geometric_distant"] == pytest.approx(
            EQ_GEOMETRIC_DISTANT, rel=1e-12
        )
        assert "geometric_full" not in report.ratios  # no d/k in provenance
        assert all(err >= 0 for err in report.relative_errors.values())

    def test_loss_db_accessor(self):
        report = compare_closed_forms(scenario_with_cc(0.0))
        assert report.loss_db("full") == pytest.approx(78.27, abs=0.01)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            compare_closed_forms(scenario_with_cc(0.0), 0.0)


class TestScenarioValidation:
    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError, match="c_b"):
            ChannelScenario(
                c_x_tx=0.5e-12, c_x_rx=0.5e-12, c_gb_rx=3e-12, c_l=10e-12, c_b=0.0
            )

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError, match="c_c"):
            ChannelScenario(
                c_x_tx=0.5e-12, c_x_rx=0.5e-12, c_gb_rx=3e-12, c_l=10e-12,
                c_b=150e-12, c_c=-1e-15,
            )
