"""Tests for the sweep engine and its CSV output."""

import numpy as np
import pytest

from hbc_channel import (
    ConfigError,
    SweepSpec,
    SweepStepError,
    emit_csv,
    load_config_file,
    read_sweep_csv,
    run_sweep,
)
from hbc_channel.config import ScenarioConfig, SideConfig


def spec_from_config(path, include_oracle=False) -> SweepSpec:
    parsed = load_config_file(path)
    assert parsed.sweep is not None
    return SweepSpec(
        kind=parsed.sweep.kind,
        start=parsed.sweep.start,
        stop=parsed.sweep.stop,
        steps=parsed.sweep.steps,
        base=parsed.scenario,
        include_oracle=include_oracle,
    )


@pytest.fixture(scope="module")
def separation_result():
    from conftest import CONFIG_DIR

    return run_sweep(spec_from_config(CONFIG_DIR / "separation_sweep.cfg"))


class TestSeparationSweep:
    def test_row_count_and_monotone_swept_column(self, separation_result):
        assert len(separation_result.swept) == 46
        values = separation_result.swept
        assert np.all(np.diff(values) > 0)

    def test_flat_band_beyond_decoupling(self, separation_result):
        """Loss varies less than 1 dB across all rows at d >= 0.5 m."""
        losses = separation_result.loss_db
        d = separation_result.swept
        far = losses[d >= 0.5]
        assert far.size >= 2
        assert far.max() - far.min() < 1.0

    def test_loss_strictly_improves_below_decoupling(self, separation_result):
        """Shrinking d below 0.5 m strictly lowers the loss."""
        losses = separation_result.loss_db
        d = separation_result.swept
        near = losses[d < 0.5]
        assert near.size >= 2
        assert all(b > a for a, b in zip(near, near[1:]))  # loss grows with d

    def test_near_rows_lose_less_than_far_rows(self, separation_result):
        losses = separation_result.loss_db
        d = separation_result.swept
        assert losses[d < 0.5].max() < losses[d >= 0.5].min() + 1e-9

    def test_coupling_column_zero_beyond_decoupling(self, separation_result):
        c_c = separation_result.capacitance["c_c_f"]
        d = separation_result.swept
        assert np.all(c_c[d >= 0.5] == 0.0)
        assert np.all(c_c[d < 0.5] > 0.0)

    def test_distant_flag_set_on_far_rows(self, separation_result):
        for value, flags in zip(separation_result.swept, separation_result.flags):
            if value >= 0.5:
                assert "distant" in flags


class TestAreaSweep:
    def test_coupling_linear_in_area(self, config_dir):
        """C_c column fits a line through the origin with residual < 1e-9."""
        result = run_sweep(spec_from_config(config_dir / "area_sweep.cfg"))
        area = result.swept
        c_c = result.capacitance["c_c_f"]
        slope = (area @ c_c) / (area @ area)
        residual = np.max(np.abs(c_c - slope * area)) / np.max(c_c)
        assert residual < 1e-9

    def test_received_ratio_grows_with_area(self, config_dir):
        result = run_sweep(spec_from_config(config_dir / "area_sweep.cfg"))
        ratios = result.ratio
        assert all(b > a for a, b in zip(ratios, ratios[1:]))


class TestRadiusSweep:
    def test_return_path_columns_linear_in_radius(self, config_dir):
        result = run_sweep(spec_from_config(config_dir / "radius_sweep.cfg"))
        radius = result.swept
        for column in ("c_x_tx_f", "c_x_rx_f"):
            values = result.capacitance[column]
            slope = (radius @ values) / (radius @ radius)
            residual = np.max(np.abs(values - slope * radius)) / np.max(values)
            assert residual < 1e-9

    def test_rows_are_distant(self, config_dir):
        result = run_sweep(spec_from_config(config_dir / "radius_sweep.cfg"))
        assert all("distant" in flags for flags in result.flags)


class TestArmScenarioSweep:
    def test_interior_loss_maximum(self, config_dir):
        """Shadowing worsens toward the torso end while coupling improves
        small separations, so the loss column peaks at an interior row."""
        result = run_sweep(spec_from_config(config_dir / "arm_sweep.cfg"))
        losses = result.loss_db
        peak = int(np.argmax(losses))
        assert 0 < peak < len(losses) - 1
        assert losses[peak] > losses[0]
        assert losses[peak] > losses[-1]

    def test_loss_improves_at_small_separation(self, config_dir):
        result = run_sweep(spec_from_config(config_dir / "arm_sweep.cfg"))
        losses = result.loss_db
        # Rx approaching the Tx: the last rows are the best of the sweep.
        assert losses[-1] == losses.min()

    def test_oracle_agreement_per_row(self, config_dir):
        """Every row's closed-form/oracle error stays within the 5% bound."""
        result = run_sweep(spec_from_config(config_dir / "arm_sweep.cfg", include_oracle=True))
        assert np.all(result.oracle_rel_error < 0.05)


class TestPositionSweepMonotonicity:
    def base_config(self):
        return ScenarioConfig(
            tx=SideConfig(radius_m=0.03, plate_separation_m=0.005, shadowing_x=0.7),
            rx=SideConfig(
                radius_m=0.03, plate_separation_m=0.005,
                fringe_f=0.75e-12, load_f=10e-12,
            ),
            c_b_f=150.838e-12,
            segment="arm",
            shadowing_anchors=((0.0, 0.2), (1.0, 0.8)),
            coupling_f=0.0,
        )

    def test_monotone_profile_gives_monotone_columns_in_distant_regime(self):
        spec = SweepSpec(
            kind="rx_position", start=0.0, stop=1.0, steps=40, base=self.base_config()
        )
        result = run_sweep(spec)
        c_x_rx = result.capacitance["c_x_rx_f"]
        ratios = result.ratio
        assert all(b > a for a, b in zip(c_x_rx, c_x_rx[1:]))
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_tx_position_sweep_symmetric_behaviour(self):
        base = ScenarioConfig(
            tx=SideConfig(radius_m=0.03, plate_separation_m=0.005),
            rx=SideConfig(
                radius_m=0.03, plate_separation_m=0.005, shadowing_x=0.7,
                fringe_f=0.75e-12, load_f=10e-12,
            ),
            c_b_f=150.838e-12,
            segment="arm",
            shadowing_anchors=((0.0, 0.2), (1.0, 0.8)),
            coupling_f=0.0,
        )
        spec = SweepSpec(kind="tx_position", start=0.0, stop=1.0, steps=20, base=base)
        c_x_tx = run_sweep(spec).capacitance["c_x_tx_f"]
        assert all(b > a for a, b in zip(c_x_tx, c_x_tx[1:]))


class TestDielectricSweep:
    def test_body_capacitance_tracks_table(self, config_dir):
        result = run_sweep(spec_from_config(config_dir / "dielectric_sweep.cfg"))
        c_b = result.capacitance["c_b_f"]
        assert all(b < a for a, b in zip(c_b, c_b[1:]))  # thicker -> smaller
        losses = result.loss_db
        assert all(b < a for a, b in zip(losses, losses[1:]))  # smaller C_B -> less loss

    def test_anchor_row_hit_exactly(self, config_dir):
        result = run_sweep(spec_from_config(config_dir / "dielectric_sweep.cfg"))
        d = result.swept
        c_b = result.capacitance["c_b_f"]
        at_anchor = c_b[np.isclose(d, 0.40)]
        assert at_anchor.size == 1
        assert at_anchor[0] == pytest.approx(150.838e-12, rel=1e-12)


class TestSweepSpecValidation:
    def test_unknown_kind(self, config_dir):
        base = load_config_file(config_dir / "separation_sweep.cfg").scenario
        with pytest.raises(ConfigError, match="unknown sweep kind"):
            SweepSpec(kind="voltage", start=0.1, stop=1.0, steps=5, base=base)

    def test_min_not_below_max(self, config_dir):
        base = load_config_file(config_dir / "separation_sweep.cfg").scenario
        with pytest.raises(ConfigError, match="min < max"):
            SweepSpec(kind="separation", start=1.0, stop=0.1, steps=5, base=base)

    def test_too_few_steps(self, config_dir):
        base = load_config_file(config_dir / "separation_sweep.cfg").scenario
        with pytest.raises(ConfigError, match="at least 2 steps"):
            SweepSpec(kind="separation", start=0.1, stop=1.0, steps=1, base=base)

    def test_swept_parameter_must_not_be_fixed(self, config_dir):
        base = load_config_file(config_dir / "sample_geometric.cfg").scenario
        with pytest.raises(ConfigError, match="separation_m"):
            SweepSpec(kind="separation", start=0.1, stop=1.0, steps=5, base=base)

    def test_radius_sweep_conflicts_with_fixed_radius(self, config_dir):
        base = load_config_file(config_dir / "sample_geometric.cfg").scenario
        with pytest.raises(ConfigError, match="radius_m"):
            SweepSpec(kind="radius", start=0.01, stop=0.05, steps=5, base=base)

    def test_position_sweep_requires_profile(self, config_dir):
        base = load_config_file(config_dir / "default_direct.cfg").scenario
        with pytest.raises(ConfigError, match="profile"):
            SweepSpec(kind="rx_position", start=0.0, stop=1.0, steps=5, base=base)

    def test_step_error_carries_index(self, config_dir):
        """A failing step reports its index and swept value, with the row's
        own error as the cause."""
        base = load_config_file(config_dir / "arm_sweep.cfg").scenario
        # Sweeping across the Tx position makes one row's separation zero.
        spec = SweepSpec(kind="rx_position", start=0.94, stop=1.0, steps=3, base=base)
        with pytest.raises(SweepStepError, match=r"sweep step 1 \(value 0\.97\)") as info:
            run_sweep(spec)
        assert info.value.step == 1
        assert info.value.value == 0.97
        assert isinstance(info.value.__cause__, ConfigError)
        assert "positions coincide" in str(info.value.__cause__)

    def test_lower_row_failing_a_later_check_is_named(self):
        """The profile check runs first and fails on rows 6-8 (beyond the
        last anchor at 0.6); the later separation check fails on row 2 only,
        where the Rx position meets the Tx position."""
        values = np.linspace(0.1, 0.9, 9).tolist()
        device = dict(radius_m=0.03, plate_separation_m=0.005)
        base = ScenarioConfig(
            tx=SideConfig(position_s=values[2], **device),
            rx=SideConfig(fringe_f=0.75e-12, load_f=10e-12, **device),
            c_b_f=150e-12, shadowing_anchors=((0.0, 0.5), (0.6, 0.8)),
            segment_length_m=0.6, k_f_per_m=2e-12,
        )
        spec = SweepSpec(kind="rx_position", start=0.1, stop=0.9, steps=9, base=base)
        with pytest.raises(SweepStepError) as info:
            run_sweep(spec)
        assert info.value.step == 2
        assert info.value.value == values[2]
        assert isinstance(info.value.__cause__, ConfigError)
        assert "tx and rx positions coincide" in str(info.value.__cause__)


class TestCsvEmission:
    def test_two_rows_make_three_lines(self, tmp_path, config_dir):
        base = load_config_file(config_dir / "separation_sweep.cfg").scenario
        spec = SweepSpec(kind="separation", start=0.1, stop=0.2, steps=2, base=base)
        out = tmp_path / "two.csv"
        emit_csv(run_sweep(spec), out)
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("separation_m,")

    def test_round_trip_parse_and_reemit_is_byte_stable(self, tmp_path, config_dir):
        result = run_sweep(spec_from_config(config_dir / "separation_sweep.cfg"))
        first = tmp_path / "first.csv"
        emit_csv(result, first)
        parsed = read_sweep_csv(first)
        second = tmp_path / "second.csv"
        emit_csv(parsed, second)
        assert first.read_bytes() == second.read_bytes()

    def test_round_trip_values_12_significant_digits(self, tmp_path, config_dir):
        result = run_sweep(spec_from_config(config_dir / "separation_sweep.cfg"))
        out = tmp_path / "sweep.csv"
        emit_csv(result, out)
        parsed = read_sweep_csv(out)
        assert parsed.ratio == pytest.approx(result.ratio, rel=1e-11)
        assert parsed.capacitance["c_c_f"] == pytest.approx(
            result.capacitance["c_c_f"], rel=1e-11, abs=1e-30
        )
        assert parsed.flags == result.flags

    def test_determinism_byte_identical(self, tmp_path, config_dir):
        spec = spec_from_config(config_dir / "separation_sweep.cfg")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_sweep(spec), a)
        emit_csv(run_sweep(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_oracle_columns_round_trip(self, tmp_path, config_dir):
        result = run_sweep(spec_from_config(config_dir / "arm_sweep.cfg", include_oracle=True))
        out = tmp_path / "oracle.csv"
        emit_csv(result, out)
        parsed = read_sweep_csv(out)
        assert parsed.include_oracle
        assert parsed.oracle_ratio[0] == pytest.approx(result.oracle_ratio[0], rel=1e-11)

    def test_empty_destination_raises_io_error(self, config_dir):
        result = run_sweep(spec_from_config(config_dir / "separation_sweep.cfg"))
        with pytest.raises(OSError, match="cannot write sweep CSV"):
            emit_csv(result, "")
