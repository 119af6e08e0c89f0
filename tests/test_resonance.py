"""Tests for resonance-based body-capacitance extraction."""

import math

import numpy as np
import pytest

from hbc_channel import (
    BoundaryPeakError,
    DielectricTable,
    FlatSweepError,
    FrequencySweep,
    ResonanceCircuit,
    body_capacitance_lookup,
    capacitance_from_resonance,
    default_frequency_grid,
    extract_body_capacitance,
    find_resonant_frequency,
    lc_response,
)

REFERENCE = ResonanceCircuit(
    inductance=1e-3, capacitance_true=150.838e-12, series_resistance=10.0
)
REFERENCE_F_R = 409793.201330626  # 1/(2*pi*sqrt(LC)) for the values above


class TestResonanceCircuit:
    def test_resonant_frequency(self):
        assert REFERENCE.resonant_frequency == pytest.approx(REFERENCE_F_R, rel=1e-12)
        assert REFERENCE.resonant_frequency == pytest.approx(409.8e3, rel=1e-4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(inductance=0.0, capacitance_true=1e-10),
            dict(inductance=1e-3, capacitance_true=0.0),
            dict(inductance=1e-3, capacitance_true=1e-10, series_resistance=0.0),
        ],
    )
    def test_rejects_nonpositive_elements(self, kwargs):
        with pytest.raises(ValueError, match="positive"):
            ResonanceCircuit(**kwargs)

    def test_small_inductor_moves_peak_out_of_band(self):
        """1 uH pushes resonance to ~12.96 MHz, far above the EQS band."""
        circuit = ResonanceCircuit(1e-6, 150.838e-12, 10.0)
        assert circuit.resonant_frequency == pytest.approx(12.96e6, rel=1e-3)
        assert circuit.resonant_frequency > 1e6


class TestLcResponse:
    def test_peak_sits_near_resonance(self):
        sweep = lc_response(REFERENCE, default_frequency_grid())
        mags = np.asarray(sweep.magnitudes)
        peak_freq = sweep.frequencies[int(np.argmax(mags))]
        assert peak_freq == pytest.approx(REFERENCE_F_R, rel=5e-3)

    def test_low_frequency_limit_is_unity(self):
        sweep = lc_response(REFERENCE, [1.0, 2.0, 3.0])
        assert sweep.magnitudes[0] == pytest.approx(1.0, rel=1e-9)

    def test_high_frequency_limit_vanishes(self):
        sweep = lc_response(REFERENCE, [1e9, 2e9])
        assert sweep.magnitudes[0] < 1e-5

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            lc_response(REFERENCE, [])

    def test_sweep_holds_read_only_copies(self):
        grid = default_frequency_grid()
        sweep = lc_response(REFERENCE, grid)
        assert isinstance(sweep.frequencies, np.ndarray)
        assert sweep.frequencies is not grid
        assert np.array_equal(sweep.frequencies, grid)
        assert not sweep.frequencies.flags.writeable
        assert not sweep.magnitudes.flags.writeable
        assert grid.flags.writeable


class TestFrequencySweepValidation:
    """Each check runs on tuples and on numpy arrays."""

    INPUTS = (tuple, np.array)

    def test_rejects_length_mismatch(self):
        for as_input in self.INPUTS:
            with pytest.raises(ValueError, match="mismatch"):
                FrequencySweep(as_input((1.0, 2.0)), as_input((0.5,)))

    def test_rejects_unsorted_grid(self):
        for as_input in self.INPUTS:
            with pytest.raises(ValueError, match="ascending"):
                FrequencySweep(as_input((2.0, 1.0)), as_input((0.5, 0.5)))

    def test_rejects_nonpositive_frequency(self):
        for as_input in self.INPUTS:
            with pytest.raises(ValueError, match="positive"):
                FrequencySweep(as_input((0.0, 1.0)), as_input((0.5, 0.5)))

    def test_rejects_negative_magnitude(self):
        for as_input in self.INPUTS:
            with pytest.raises(ValueError, match="nonnegative"):
                FrequencySweep(as_input((1.0, 2.0)), as_input((0.5, -0.1)))

    def test_rejects_empty(self):
        for as_input in self.INPUTS:
            with pytest.raises(ValueError, match="nonempty"):
                FrequencySweep(as_input(()), as_input(()))


class TestFindResonantFrequency:
    def test_reference_peak_within_point_one_percent(self):
        sweep = lc_response(REFERENCE, default_frequency_grid())
        f_r = find_resonant_frequency(sweep)
        assert abs(f_r - REFERENCE_F_R) / REFERENCE_F_R < 1e-3

    def test_symmetric_triangular_peak_exact_at_center(self):
        freqs = tuple(np.linspace(100.0, 200.0, 11))
        mags = tuple(np.concatenate([np.linspace(1, 2, 6), np.linspace(2, 1, 6)[1:]]))
        assert find_resonant_frequency(FrequencySweep(freqs, mags)) == pytest.approx(
            150.0, rel=1e-12
        )

    def test_monotone_sweep_raises_boundary_error(self):
        freqs = tuple(np.linspace(1e4, 1e5, 50))
        mags = tuple(np.linspace(0.1, 1.0, 50))
        with pytest.raises(BoundaryPeakError, match="widen"):
            find_resonant_frequency(FrequencySweep(freqs, mags))

    def test_flat_sweep_raises(self):
        freqs = tuple(np.linspace(1e4, 1e5, 50))
        with pytest.raises(FlatSweepError):
            find_resonant_frequency(FrequencySweep(freqs, (0.5,) * 50))

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            find_resonant_frequency(FrequencySweep((1.0, 2.0), (0.1, 0.2)))

    def test_array_sweep_matches_tuple_sweep_bitwise(self):
        """The peak found on lc_response's arrays equals, bit for bit, the
        peak found on the same values held as tuples of floats."""
        rng = np.random.default_rng(73)
        grid = default_frequency_grid()
        for _ in range(200):
            # Resonances between about 71 and 712 kHz, inside the grid.
            circuit = ResonanceCircuit(
                float(rng.uniform(1e-3, 10e-3)),
                float(rng.uniform(50e-12, 500e-12)),
                float(rng.uniform(1.0, 50.0)),
            )
            sweep = lc_response(circuit, grid)
            as_tuples = FrequencySweep(
                tuple(sweep.frequencies.tolist()), tuple(sweep.magnitudes.tolist())
            )
            assert find_resonant_frequency(sweep) == find_resonant_frequency(as_tuples)

    def test_peak_frequency_decreases_with_capacitance(self):
        grid = default_frequency_grid()
        recovered = []
        for c in np.linspace(50e-12, 500e-12, 12):
            circuit = ResonanceCircuit(1e-3, float(c), 10.0)
            recovered.append(find_resonant_frequency(lc_response(circuit, grid)))
        assert all(b < a for a, b in zip(recovered, recovered[1:]))


class TestCapacitanceFromResonance:
    def test_reference_recovery(self):
        """409.8 kHz with 1 mH recovers the 150.8 pF reference body value."""
        assert capacitance_from_resonance(409.8e3, 1e-3) == pytest.approx(
            150.8e-12, rel=1e-3
        )

    def test_inverse_square_scaling(self):
        base = capacitance_from_resonance(409.8e3, 1e-3)
        assert capacitance_from_resonance(2 * 409.8e3, 1e-3) == pytest.approx(
            base / 4, rel=1e-12
        )

    @pytest.mark.parametrize("args", [(0.0, 1e-3), (409.8e3, 0.0), (-1.0, 1e-3)])
    def test_rejects_nonpositive(self, args):
        with pytest.raises(ValueError, match="positive"):
            capacitance_from_resonance(*args)

    def test_out_of_band_resonance_still_computes(self):
        """The op itself succeeds above the EQS band; band policing is the
        scenario layer's job."""
        f_r = ResonanceCircuit(1e-6, 150.838e-12, 10.0).resonant_frequency
        assert capacitance_from_resonance(f_r, 1e-6) == pytest.approx(
            150.838e-12, rel=1e-12
        )


class TestExtractionPipeline:
    def test_reference_round_trip(self):
        recovered, f_r, _ = extract_body_capacitance(REFERENCE)
        assert abs(f_r - REFERENCE_F_R) / REFERENCE_F_R < 1e-3
        assert abs(recovered - REFERENCE.capacitance_true) / REFERENCE.capacitance_true < 1e-3

    def test_round_trip_over_capacitance_range(self):
        """C in [50, 500] pF with R <= 50 ohm recovers within 0.5%."""
        rng = np.random.default_rng(61)
        grid = default_frequency_grid()
        for _ in range(100):
            c_true = float(rng.uniform(50e-12, 500e-12))
            r = float(rng.uniform(1.0, 50.0))
            circuit = ResonanceCircuit(1e-3, c_true, r)
            recovered, _, _ = extract_body_capacitance(circuit, grid)
            assert abs(recovered - c_true) / c_true < 5e-3

    def test_recovered_peaks_stay_in_eqs_band(self):
        """With 1 mH, any peak the default grid can resolve lies below 1 MHz."""
        rng = np.random.default_rng(67)
        for _ in range(25):
            c_true = float(rng.uniform(26e-12, 500e-12))
            circuit = ResonanceCircuit(1e-3, c_true, 10.0)
            _, f_r, _ = extract_body_capacitance(circuit)
            assert f_r < 1e6

    def test_peak_beyond_grid_raises_boundary_error(self):
        """A 25 pF body resonates just above 1 MHz: the default grid refuses
        to report a peak instead of misreporting one."""
        circuit = ResonanceCircuit(1e-3, 25e-12, 10.0)
        with pytest.raises(BoundaryPeakError):
            extract_body_capacitance(circuit)


class TestDielectricTable:
    ROWS = ((0.30, 200e-12), (0.50, 100e-12))

    def test_lookup_exact_at_rows(self):
        table = DielectricTable(self.ROWS)
        assert body_capacitance_lookup(0.30, table) == 200e-12
        assert body_capacitance_lookup(0.50, table) == 100e-12

    def test_linear_midpoint(self):
        table = DielectricTable(self.ROWS)
        assert body_capacitance_lookup(0.40, table) == pytest.approx(150e-12, rel=1e-12)

    def test_out_of_range_rejected(self):
        table = DielectricTable(self.ROWS)
        with pytest.raises(ValueError, match="outside table range"):
            body_capacitance_lookup(0.25, table)
        with pytest.raises(ValueError, match="outside table range"):
            body_capacitance_lookup(0.55, table)

    def test_rejects_non_ascending_thickness(self):
        with pytest.raises(ValueError, match="ascending"):
            DielectricTable(((0.50, 100e-12), (0.30, 200e-12)))

    def test_rejects_non_descending_capacitance(self):
        with pytest.raises(ValueError, match="descending"):
            DielectricTable(((0.30, 100e-12), (0.50, 200e-12)))

    def test_shipped_table_anchor_row(self, config_dir):
        table = DielectricTable.from_csv(config_dir / "dielectric_cb.csv")
        assert body_capacitance_lookup(0.40, table) == 150.838e-12

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("thickness_m,c_b_farads\n0.3,2e-10\n0.5,1e-10\n")
        assert DielectricTable.from_csv(path) == DielectricTable(self.ROWS)

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("thickness,c_b\n0.3,2e-10\n")
        with pytest.raises(ValueError, match="header"):
            DielectricTable.from_csv(path)


class TestDefaultGrid:
    def test_default_span_and_size(self):
        grid = default_frequency_grid()
        assert len(grid) == 2000
        assert grid[0] == pytest.approx(10e3, rel=1e-12)
        assert grid[-1] == pytest.approx(1e6, rel=1e-12)

    def test_rejects_bad_span(self):
        with pytest.raises(ValueError, match="f_min"):
            default_frequency_grid(f_min=1e6, f_max=1e4)
