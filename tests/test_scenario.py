"""Tests for shadowing profiles and config-driven scenario assembly."""

import warnings

import pytest

from hbc_channel import (
    ConfigError,
    EqsRegimeWarning,
    ShadowingProfile,
    build_scenario,
    effective_coupling_capacitance,
    load_config_file,
    shadowing_factor,
    CouplingConstant,
    DeviceGeometry,
    coupling_capacitance,
    ground_to_body_capacitance,
    plate_to_plate_capacitance,
    return_path_capacitance,
)
from hbc_channel.config import ScenarioConfig, SideConfig

ARM = ShadowingProfile("arm", ((0.0, 0.2), (1.0, 0.8)))
TORSO = ShadowingProfile("torso", ((0.0, 0.35), (1.0, 0.35)))


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


DIRECT_CFG = """
[tx]
return_path_f = 0.5e-12

[rx]
return_path_f = 0.5e-12
ground_body_f = 3e-12
load_f = 10e-12

[body]
c_b_f = 150.838e-12

[link]
coupling_f = 0
"""


class TestShadowingProfile:
    def test_anchor_identity(self):
        assert shadowing_factor(0.0, ARM) == 0.2
        assert shadowing_factor(1.0, ARM) == 0.8

    def test_strictly_increasing_away_from_torso(self):
        values = [shadowing_factor(s / 20, ARM) for s in range(21)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_torso_profile_is_constant(self):
        assert all(shadowing_factor(s / 10, TORSO) == 0.35 for s in range(11))

    def test_out_of_range_coordinate(self):
        partial = ShadowingProfile("custom", ((0.2, 0.3), (0.8, 0.6)))
        with pytest.raises(ValueError, match="anchor range"):
            shadowing_factor(0.1, partial)
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            shadowing_factor(1.5, ARM)

    def test_requires_two_anchors(self):
        with pytest.raises(ValueError, match="at least 2"):
            ShadowingProfile("arm", ((0.5, 0.5),))

    def test_rejects_descending_coordinates(self):
        with pytest.raises(ValueError, match="ascending"):
            ShadowingProfile("arm", ((0.5, 0.5), (0.2, 0.6)))

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            ShadowingProfile("arm", ((0.0, 0.0), (1.0, 0.5)))

    def test_rejects_unknown_segment(self):
        with pytest.raises(ValueError, match="segment"):
            ShadowingProfile("leg", ((0.0, 0.5), (1.0, 0.6)))


class TestDirectConfig:
    def test_passthrough(self, tmp_path):
        parsed = load_config_file(write_config(tmp_path, DIRECT_CFG))
        scenario = build_scenario(parsed.scenario)
        assert scenario.c_x_tx == 0.5e-12
        assert scenario.c_x_rx == 0.5e-12
        assert scenario.c_gb_rx == 3e-12
        assert scenario.c_l == 10e-12
        assert scenario.c_b == 150.838e-12
        assert scenario.c_c == 0.0
        assert scenario.provenance is None

    def test_missing_load_names_field(self, tmp_path):
        text = DIRECT_CFG.replace("load_f = 10e-12\n", "")
        parsed = load_config_file(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="load_f"):
            build_scenario(parsed.scenario)

    def test_missing_coupling_names_field(self, tmp_path):
        text = DIRECT_CFG.replace("[link]\ncoupling_f = 0\n", "")
        parsed = load_config_file(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="coupling_f"):
            build_scenario(parsed.scenario)

    def test_missing_body_names_field(self, tmp_path):
        text = DIRECT_CFG.replace("c_b_f = 150.838e-12\n", "")
        parsed = load_config_file(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="c_b_f"):
            build_scenario(parsed.scenario)


class TestGeometricConfig:
    def test_sample_config_derivations(self, config_dir):
        parsed = load_config_file(config_dir / "sample_geometric.cfg")
        scenario = build_scenario(parsed.scenario)
        assert scenario.c_x_tx == pytest.approx(1.0625e-12, rel=5e-4)
        assert scenario.c_x_rx == pytest.approx(1.0625e-12, rel=5e-4)
        assert scenario.c_c == pytest.approx(56.5e-15, rel=1e-3)
        assert scenario.c_b == 150.838e-12
        assert scenario.c_gb_rx == pytest.approx(5.7569e-12, rel=1e-4)
        assert scenario.has_full_geometry()
        # The stored values are the geometry laws at the recorded provenance.
        p = scenario.provenance
        assert scenario.c_x_tx == return_path_capacitance(p.tx_geom, p.x_tx)
        assert scenario.c_x_rx == return_path_capacitance(p.rx_geom, p.x_rx)
        assert scenario.c_gb_rx == ground_to_body_capacitance(
            plate_to_plate_capacitance(p.rx_geom), p.c_f
        )
        assert scenario.c_c == coupling_capacitance(p.tx_geom, p.d, p.k)

    def test_consistent_direct_and_geometric_accepted(self, tmp_path):
        text = DIRECT_CFG.replace(
            "[tx]\nreturn_path_f = 0.5e-12\n",
            "[tx]\nreturn_path_f = 1.062502537536e-12\n"
            "radius_m = 0.03\nplate_separation_m = 0.005\nshadowing_x = 0.5\n",
        )
        parsed = load_config_file(write_config(tmp_path, text))
        scenario = build_scenario(parsed.scenario)
        assert scenario.c_x_tx == pytest.approx(1.0625e-12, rel=1e-4)

    def test_inconsistent_direct_and_geometric_rejected(self, tmp_path):
        text = DIRECT_CFG.replace(
            "[tx]\nreturn_path_f = 0.5e-12\n",
            "[tx]\nreturn_path_f = 0.5e-12\n"
            "radius_m = 0.03\nplate_separation_m = 0.005\nshadowing_x = 0.5\n",
        )
        parsed = load_config_file(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="disagrees"):
            build_scenario(parsed.scenario)

    def test_radius_without_separation_rejected(self, tmp_path):
        text = DIRECT_CFG.replace(
            "[tx]\nreturn_path_f = 0.5e-12\n",
            "[tx]\nradius_m = 0.03\nshadowing_x = 0.5\n",
        )
        parsed = load_config_file(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="plate_separation_m"):
            build_scenario(parsed.scenario)

    def test_profile_position_resolution(self, tmp_path):
        text = """
[tx]
radius_m = 0.03
plate_separation_m = 0.005
position_s = 1.0

[rx]
radius_m = 0.03
plate_separation_m = 0.005
position_s = 0.5
fringe_f = 0.75e-12
load_f = 10e-12

[body]
c_b_f = 150.838e-12
segment = arm
shadowing_anchors = 0.0:0.2, 1.0:0.8
segment_length_m = 0.6

[link]
k_f_per_m = 2.0e-12
"""
        parsed = load_config_file(write_config(tmp_path, text))
        scenario = build_scenario(parsed.scenario)
        assert scenario.provenance.x_tx == pytest.approx(0.8, rel=1e-12)
        assert scenario.provenance.x_rx == pytest.approx(0.5, rel=1e-12)
        # Separation derived from positions: 0.5 * 0.6 = 0.3 m < decoupling.
        assert scenario.provenance.d == pytest.approx(0.3, rel=1e-12)
        assert scenario.c_c > 0


class TestCouplingDecoupling:
    GEOM = DeviceGeometry(0.03, 0.005)
    K = CouplingConstant(2e-12)

    def test_near_field_uses_inverse_distance_law(self):
        value = effective_coupling_capacitance(self.GEOM, 0.1, self.K, 0.5)
        assert value == pytest.approx(56.5e-15, rel=1e-3)

    def test_beyond_decoupling_distance_is_zero(self):
        assert effective_coupling_capacitance(self.GEOM, 0.5, self.K, 0.5) == 0.0
        assert effective_coupling_capacitance(self.GEOM, 0.8, self.K, 0.5) == 0.0

    def test_config_respects_decoupling(self, tmp_path):
        base = """
[tx]
radius_m = 0.03
plate_separation_m = 0.005
shadowing_x = 0.5

[rx]
radius_m = 0.03
plate_separation_m = 0.005
shadowing_x = 0.5
fringe_f = 0.75e-12
load_f = 10e-12

[body]
c_b_f = 150.838e-12

[link]
k_f_per_m = 2.0e-12
separation_m = {d}
"""
        near = build_scenario(
            load_config_file(write_config(tmp_path, base.format(d=0.4), "near.cfg")).scenario
        )
        far = build_scenario(
            load_config_file(write_config(tmp_path, base.format(d=0.6), "far.cfg")).scenario
        )
        assert near.c_c > 0
        assert far.c_c == 0.0


class TestConfigParsing:
    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config_file("/nonexistent/path.cfg")

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_file(write_config(tmp_path, "[tx]\nradius = 0.03\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            load_config_file(write_config(tmp_path, "[transmitter]\nradius_m = 0.03\n"))

    def test_non_numeric_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="not a number"):
            load_config_file(write_config(tmp_path, "[tx]\nradius_m = big\n"))

    def test_eqs_warning_above_one_megahertz(self, tmp_path):
        text = DIRECT_CFG + "\n[channel]\nfrequency_hz = 2e6\n"
        with pytest.warns(EqsRegimeWarning, match="electro-quasistatic"):
            load_config_file(write_config(tmp_path, text))

    def test_no_warning_inside_band(self, tmp_path):
        text = DIRECT_CFG + "\n[channel]\nfrequency_hz = 1e6\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            load_config_file(write_config(tmp_path, text))

    def test_inline_comments_allowed(self, tmp_path):
        text = DIRECT_CFG.replace("load_f = 10e-12", "load_f = 10e-12  # receiver input")
        parsed = load_config_file(write_config(tmp_path, text))
        assert build_scenario(parsed.scenario).c_l == 10e-12

    def test_table_dir_env_fallback(self, tmp_path, monkeypatch, config_dir):
        monkeypatch.setenv("HBC_TABLE_DIR", str(config_dir))
        text = """
[tx]
return_path_f = 0.5e-12

[rx]
return_path_f = 0.5e-12
ground_body_f = 3e-12
load_f = 10e-12

[body]
dielectric_thickness_m = 0.40
dielectric_table = dielectric_cb.csv

[link]
coupling_f = 0
"""
        parsed = load_config_file(write_config(tmp_path, text))
        assert build_scenario(parsed.scenario).c_b == 150.838e-12

    def test_missing_table_reports_locations(self, tmp_path, monkeypatch):
        monkeypatch.delenv("HBC_TABLE_DIR", raising=False)
        text = """
[tx]
return_path_f = 0.5e-12

[rx]
return_path_f = 0.5e-12
ground_body_f = 3e-12
load_f = 10e-12

[body]
dielectric_thickness_m = 0.40
dielectric_table = nowhere.csv

[link]
coupling_f = 0
"""
        parsed = load_config_file(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match="nowhere.csv"):
            build_scenario(parsed.scenario)


class TestProgrammaticConfig:
    def test_side_and_scenario_dataclasses(self):
        config = ScenarioConfig(
            tx=SideConfig(return_path_f=0.5e-12),
            rx=SideConfig(return_path_f=0.5e-12, ground_body_f=3e-12, load_f=10e-12),
            c_b_f=150.838e-12,
            coupling_f=0.0,
        )
        scenario = build_scenario(config)
        assert scenario.c_x_tx == 0.5e-12

    def test_shadowing_x_out_of_range(self):
        config = ScenarioConfig(
            tx=SideConfig(radius_m=0.03, plate_separation_m=0.005, shadowing_x=1.5),
            rx=SideConfig(return_path_f=0.5e-12, ground_body_f=3e-12, load_f=10e-12),
            c_b_f=150.838e-12,
            coupling_f=0.0,
        )
        with pytest.raises(ConfigError, match="shadowing_x"):
            build_scenario(config)
