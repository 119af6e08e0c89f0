"""Tests for shadowing profiles and config-driven scenario assembly."""

import math
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from hbc_channel import (
    ConfigError,
    DielectricTable,
    body_capacitance_lookup,
    EqsRegimeWarning,
    ShadowingProfile,
    build_scenario,
    compare_closed_forms,
    load_config_file,
    shadowing_factor,
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


DIRECT_CONFIG = ScenarioConfig(
    tx=SideConfig(return_path_f=0.5e-12),
    rx=SideConfig(return_path_f=0.5e-12, ground_body_f=3e-12, load_f=10e-12),
    c_b_f=150.838e-12,
    coupling_f=0.0,
)


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
        with pytest.raises(ValueError, match=r"outside profile anchor range \[0, 1\]"):
            shadowing_factor(1.5, ARM)

    @pytest.mark.parametrize(
        "table, lookup, value, column",
        [
            (ShadowingProfile("arm", ((0.0, 0.2), (0.35, 0.45), (1.0, 0.8))), shadowing_factor,
             0.3, np.linspace(0.0, 1.0, 41)),
            (DielectricTable(((0.30, 200e-12), (0.35, 170e-12), (0.50, 100e-12))),
             body_capacitance_lookup, 0.32, np.linspace(0.30, 0.50, 41)),
        ],
        ids=["profile", "dielectric-table"],
    )
    def test_interpolates_on_columns_made_once(self, monkeypatch, table, lookup, value, column):
        """Both tables hold read-only columns made when the table is made, and
        hand those same objects to ``np.interp``; floats and columns are
        bit-identical to ``np.interp`` on the anchors."""
        pairs = getattr(table, "anchors", None) or table.rows
        xs, ys = [pair[0] for pair in pairs], [pair[1] for pair in pairs]
        columns = vars(table)["columns"]  # there before any lookup
        assert not columns[0].flags.writeable and not columns[1].flags.writeable
        tables, interp = [], np.interp

        def recording_interp(s, xp, fp):
            tables.append((xp, fp))
            return interp(s, xp, fp)

        monkeypatch.setattr(np, "interp", recording_interp)
        result = lookup(value, table)
        assert type(result) is float and result == interp(value, xs, ys)
        assert lookup(column, table).tobytes() == interp(column, xs, ys).tobytes()
        # Both calls interpolated on the table's one pair of read-only columns.
        assert tables[0][0] is tables[1][0] is columns[0] is table.columns[0]
        assert tables[0][1] is tables[1][1] is columns[1] is table.columns[1]

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
        with pytest.raises(
            ValueError, match=r"^segment must be one of \('arm', 'torso', 'custom'\), got 'leg'$"
        ):
            ShadowingProfile("leg", ((0.0, 0.5), (1.0, 0.6)))


@st.composite
def tables_with_lookups(draw):
    """A shadowing profile or a dielectric table on random ascending anchors,
    its lookup, and its anchor span."""
    if draw(st.booleans()):
        xs = sorted(draw(st.sets(st.floats(0.0, 1.0), min_size=2, max_size=6)))
        ys = draw(st.lists(st.floats(0.01, 1.0), min_size=len(xs), max_size=len(xs)))
        table, lookup = ShadowingProfile("custom", tuple(zip(xs, ys))), shadowing_factor
    else:
        xs = sorted(draw(st.sets(st.floats(1e-3, 1.0), min_size=1, max_size=6)))
        ys = sorted(draw(st.sets(st.floats(1e-12, 1e-9), min_size=len(xs), max_size=len(xs))))
        table = DielectricTable(tuple(zip(xs, reversed(ys))))
        lookup = body_capacitance_lookup
    return table, lookup, xs[0], xs[-1]


@settings(max_examples=200, deadline=None)
@given(
    drawn=tables_with_lookups(),
    value=st.floats(-1.0, 2.0) | st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_lookups_reject_exactly_outside_the_anchor_span(drawn, value):
    """Each lookup raises ValueError exactly for a value outside its anchors'
    span, NaN included, as a float and as a column that holds it."""
    table, lookup, low, high = drawn
    for query in (value, np.array([low, value, high])):
        if low <= value <= high:
            lookup(query, table)
        else:
            with pytest.raises(ValueError, match="outside"):
                lookup(query, table)


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
        # Every geometric input is recorded, the near-field d and k included.
        p = scenario.provenance
        assert None not in vars(p).values()
        # The stored values are the geometry laws at the recorded provenance.
        assert scenario.c_x_tx == return_path_capacitance(p.tx_geom, p.x_tx)
        assert scenario.c_x_rx == return_path_capacitance(p.rx_geom, p.x_rx)
        assert scenario.c_gb_rx == ground_to_body_capacitance(
            plate_to_plate_capacitance(p.rx_geom), p.c_f
        )
        assert scenario.c_c == coupling_capacitance(p.tx_geom, p.d, p.k)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_geometric_distant_is_distant_bit_for_bit(self, data):
        """Assembly and the geometric forms derive each capacitance by the same
        law, so the geometric distant form is the distant form itself."""
        draw, unit = data.draw, st.floats(0.05, 1.0)
        radius = draw(st.floats(0.002, 0.2))
        side = {
            name: {"radius_m": radius, "plate_separation_m": draw(st.floats(5e-4, 0.02))}
            for name in ("tx", "rx")
        }
        # Every separation lies inside the default 0.5 m decoupling distance.
        other = {"k_f_per_m": draw(st.floats(1e-13, 1e-11))}
        if draw(st.booleans()):
            side["tx"]["shadowing_x"], side["rx"]["shadowing_x"] = draw(unit), draw(unit)
            other["separation_m"] = draw(st.floats(0.005, 0.49))
        else:
            xs = draw(st.lists(unit, min_size=2, max_size=5))
            other["shadowing_anchors"] = tuple((i / (len(xs) - 1), x) for i, x in enumerate(xs))
            other["segment_length_m"] = draw(st.floats(0.05, 0.49))
            s_tx = side["tx"]["position_s"] = draw(st.floats(0.0, 1.0))
            side["rx"]["position_s"] = draw(st.floats(0.0, 1.0).filter(lambda s: abs(s - s_tx) > 1e-3))
        if draw(st.booleans()):
            other["dielectric_thickness_m"] = draw(st.floats(0.1, 0.6))
            other["dielectric_table"] = str(CONFIG_DIR / "dielectric_cb.csv")
        else:
            other["c_b_f"] = draw(st.floats(20e-12, 500e-12))
        config = ScenarioConfig(
            tx=SideConfig(**side["tx"]),
            rx=SideConfig(**side["rx"], fringe_f=draw(st.floats(0.0, 3e-12)),
                          load_f=draw(st.floats(1e-12, 50e-12))),
            **other,
        )
        ratios = compare_closed_forms(build_scenario(config)).ratios
        assert "geometric_full" in ratios
        assert ratios["geometric_distant"] == ratios["distant"]

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
    K = 2e-12

    def scenario(self, d, decouple_m=0.5):
        """A scenario whose coupling comes from the law k*pi*a^2/d."""
        tx = replace(DIRECT_CONFIG.tx, radius_m=0.03, plate_separation_m=0.005)
        return build_scenario(replace(
            DIRECT_CONFIG, tx=tx, coupling_f=None, k_f_per_m=self.K, separation_m=d,
            decouple_m=decouple_m,
        ))

    def test_near_field_uses_inverse_distance_law(self):
        scenario = self.scenario(0.1)
        assert scenario.c_c == coupling_capacitance(self.GEOM, 0.1, self.K)
        assert scenario.c_c == pytest.approx(56.5e-15, rel=1e-3)
        assert scenario.provenance.k == self.K

    def test_beyond_decoupling_distance_is_zero(self):
        assert self.scenario(0.5).c_c == 0.0
        assert self.scenario(0.8).c_c == 0.0

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


class TestTableCache:
    """Tables are cached on path and content: an edit is never missed."""

    def table_config(self, tmp_path, config_dir):
        table = tmp_path / "table.csv"
        table.write_bytes((config_dir / "dielectric_cb.csv").read_bytes())
        config = replace(DIRECT_CONFIG, c_b_f=None, dielectric_thickness_m=0.40,
                         dielectric_table="table.csv", base_dir=tmp_path)
        return table, config

    def test_same_size_rewrite_in_one_timestamp_is_read(self, tmp_path, config_dir):
        table, config = self.table_config(tmp_path, config_dir)
        assert build_scenario(config).c_b == 150.838e-12
        before = os.stat(table)
        table.write_text(table.read_text().replace("0.40,1.50838e-10", "0.40,1.60838e-10"))
        os.utime(table, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(table)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert build_scenario(config).c_b == 160.838e-12

    def test_failed_parse_is_not_kept(self, tmp_path, config_dir):
        table, config = self.table_config(tmp_path, config_dir)
        good = table.read_text()
        table.write_text(good.replace("thickness_m,c_b_farads", "thickness,c_b"))
        with pytest.raises(ValueError, match="expected header"):
            build_scenario(config)
        table.write_text(good)
        assert build_scenario(config).c_b == 150.838e-12


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
        """Rejected when the config is made, before any scenario is built."""
        with pytest.raises(ConfigError, match="shadowing_x"):
            ScenarioConfig(
                tx=SideConfig(radius_m=0.03, plate_separation_m=0.005, shadowing_x=1.5),
                rx=SideConfig(return_path_f=0.5e-12, ground_body_f=3e-12, load_f=10e-12),
                c_b_f=150.838e-12,
                coupling_f=0.0,
            )

    @pytest.mark.parametrize("key", ["fringe_f", "ground_body_f", "load_f"])
    @pytest.mark.parametrize("value", [1e-12, -5.0, math.nan, math.inf])
    def test_receiver_only_key_on_tx_is_rejected(self, key, value):
        """A receiver-only key set on ``tx`` is rejected naming ``[tx] <key>``,
        as a file's ``[tx]`` section rejects it, by the constructor and by
        ``replace``; it is never silently ignored."""
        side = replace(DIRECT_CONFIG.tx, **{key: value})
        message = f"^{re.escape(f'[tx] {key} must be unset (not a [tx] key), got {value!r}')}$"
        for make in (lambda: replace(DIRECT_CONFIG, tx=side),
                     lambda: ScenarioConfig(tx=side, rx=DIRECT_CONFIG.rx, c_b_f=150.838e-12)):
            with pytest.raises(ConfigError, match=message):
                make()

    def test_receiver_only_keys_on_tx_name_the_first(self):
        tx = SideConfig(return_path_f=1e-12, load_f=-5.0, fringe_f=math.nan, ground_body_f=math.inf)
        with pytest.raises(ConfigError, match=r"^\[tx\] fringe_f must be unset"):
            replace(DIRECT_CONFIG, tx=tx)

    @pytest.mark.parametrize(
        "key, config",
        [
            ("[link] decouple_m", lambda: replace(DIRECT_CONFIG, decouple_m=math.nan)),
            ("[body] segment_length_m",
             lambda: replace(DIRECT_CONFIG, segment_length_m=math.nan)),
            ("[link] coupling_f", lambda: replace(DIRECT_CONFIG, coupling_f=math.nan)),
            ("[rx] fringe_f",
             lambda: replace(DIRECT_CONFIG, rx=replace(DIRECT_CONFIG.rx, fringe_f=math.nan))),
        ],
        ids=["decouple_m", "segment_length_m", "coupling_f", "fringe_f"],
    )
    def test_nan_value_names_key(self, key, config):
        """NaN is neither positive nor nonnegative, and the error names its key."""
        message = f"^{re.escape(key)} must be (positive|nonnegative), got nan$"
        with pytest.raises(ConfigError, match=message):
            build_scenario(config())

    @pytest.mark.parametrize(
        "key, config",
        [
            ("[link] k_f_per_m", lambda: replace(DIRECT_CONFIG, k_f_per_m=math.inf)),
            ("[link] decouple_m", lambda: replace(DIRECT_CONFIG, decouple_m=math.inf)),
            ("[body] segment_length_m",
             lambda: replace(DIRECT_CONFIG, segment_length_m=math.inf)),
            ("[link] coupling_f", lambda: replace(DIRECT_CONFIG, coupling_f=math.inf)),
        ],
        ids=["k_f_per_m", "decouple_m", "segment_length_m", "coupling_f"],
    )
    def test_infinite_value_names_key(self, key, config):
        """Config files cannot hold inf; a config built in Python is held to the
        same finite range, and the error names its key."""
        message = f"^{re.escape(key)} must be (positive|nonnegative), got inf$"
        with pytest.raises(ConfigError, match=message):
            build_scenario(config())
