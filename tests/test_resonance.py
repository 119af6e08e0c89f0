"""Tests for resonance-based body-capacitance extraction."""

import hashlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hbc_channel import (
    BoundaryPeakError,
    DielectricTable,
    FlatSweepError,
    FrequencySweep,
    ResonanceCircuit,
    UnresolvedPeakError,
    body_capacitance_lookup,
    capacitance_from_resonance,
    default_frequency_grid,
    extract_body_capacitance,
    find_resonant_frequency,
    lc_response,
)
from hbc_channel import resonance
from hbc_channel.resonance import MAX_FREQUENCY_HZ, MAX_PEAK_BRACKET

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

    @pytest.mark.parametrize("element", [1e-200, 1e200], ids=["L*C-underflows", "L*C-overflows"])
    def test_resonant_frequency_where_lc_leaves_float_range(self, element):
        """L*C underflows to 0 or overflows to inf; sqrt(L)*sqrt(C) does not."""
        circuit = ResonanceCircuit(element, element)
        expected = 1.0 / (2.0 * math.pi * element)
        assert circuit.resonant_frequency == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("element", [5e-324, 1e308], ids=["overflows", "underflows"])
    def test_resonant_frequency_beyond_float_range_rejected(self, element):
        with pytest.raises(ValueError, match="no finite positive resonant frequency"):
            ResonanceCircuit(element, element).resonant_frequency

    @pytest.mark.parametrize("resistance", [1e-170, 1e170], ids=["underflows", "overflows"])
    def test_rejects_resistance_without_finite_positive_square(self, resistance):
        with pytest.raises(ValueError, match="no finite positive square"):
            ResonanceCircuit(1.0, 1.0, resistance)

    def test_smallest_resistances_keep_the_peak_finite(self):
        """R**2 is subnormal but positive: the magnitude at the exact
        resonance is about x_c/R (R**2 keeps only a few digits), with no
        division by zero."""
        grid = [0.05, 0.1, 1 / (2 * math.pi), 0.3, 0.5]
        sweep = lc_response(ResonanceCircuit(1.0, 1.0, 1e-160), grid)
        assert sweep.magnitudes[2] == pytest.approx(1e160, rel=1e-4)

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

    def test_sweep_on_the_shared_grid_holds_it_and_is_checked(self, monkeypatch):
        """The shared read-only grid is not copied, and its sweep is checked
        like any other."""
        checked = []
        check_grid = resonance._check_grid
        monkeypatch.setattr(resonance, "_check_grid", lambda f: checked.append(f) or check_grid(f))
        for sweep in (lc_response(REFERENCE, resonance._DEFAULT_GRID),
                      extract_body_capacitance(REFERENCE)[2]):
            assert sweep.frequencies is resonance._DEFAULT_GRID
            assert not sweep.magnitudes.flags.writeable
        assert len(checked) == 2
        assert all(grid is resonance._DEFAULT_GRID for grid in checked)

    @pytest.mark.parametrize(
        "circuit",
        [ResonanceCircuit(1e300, 5e-324), ResonanceCircuit(1e-3, 1e-300)],
        ids=["no-grid-resolves", "bracket-closely"],
    )
    def test_shared_grid_overflow_reads_as_an_explicit_grid(self, circuit):
        """Both overflow errors read the same on the shared grid, whose
        angular frequencies are built once, as on the same grid built anew."""
        messages = []
        for grid in (resonance._DEFAULT_GRID, np.geomspace(1e4, 1e6, 2000)):
            with pytest.raises(ValueError, match="overflows on the frequency grid") as info:
                lc_response(circuit, grid)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize(
        "circuit, grid, advice",
        [
            (ResonanceCircuit(1e-12, 1e4), np.geomspace(1e-300, 1e-3, 2000),
             "the circuit resonates at 1591.55 Hz, which a grid must bracket closely"),
            (ResonanceCircuit(1e-3, 1e-300), [5e-324, 1.0, 2.0],
             "the circuit resonates at 5.03292e+150 Hz, which a grid must bracket closely"),
            (ResonanceCircuit(1e300, 150e-12), np.geomspace(1e-147, 1e-145, 2000),
             "the circuit resonates at 1.29949e-146 Hz, which a grid must bracket closely"),
            (ResonanceCircuit(5e-324, 5e-324), [1.0, 2.0, 3.0],
             "the circuit has no finite resonant frequency for a grid to bracket"),
            (ResonanceCircuit(1e300, 5e-324), [1e10],
             "the circuit resonates at 7.16024e+10 Hz, where its reactance overflows too: "
             "no grid can resolve the peak"),
        ],
        ids=[
            "difference-square-overflows", "capacitive-reactance-overflows",
            "huge-inductance", "no-finite-resonance", "reactance-overflows-at-resonance",
        ],
    )
    def test_overflowing_reactance_rejected(self, circuit, grid, advice):
        """An overflow is a ValueError, not a numpy warning and a magnitude
        of 0, and it says where a grid must go, or that none can help."""
        with pytest.raises(ValueError, match="overflows on the frequency grid") as info:
            lc_response(circuit, grid)
        assert str(info.value).endswith(advice)

    def test_grid_bracketing_a_far_resonance_extracts_c(self):
        """With L = 1e300 H the huge-inductance grid above overflows, yet a
        grid that brackets the 1.3e-146 Hz resonance closely recovers C."""
        circuit = ResonanceCircuit(1e300, 150e-12)
        recovered, f_r, _ = extract_body_capacitance(
            circuit, np.geomspace(1.2e-146, 1.4e-146, 2000)
        )
        assert f_r == pytest.approx(circuit.resonant_frequency, rel=1e-4)
        assert recovered == pytest.approx(150e-12, rel=1e-4)

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([1e4, math.nan, 1e6], "strictly ascending"),
            ([0.0, 1e5, 1e6], "must be positive"),
            ([-1e5, 0.0, 1e5], "must be positive"),
            ([math.nan], "must be positive"),
        ],
        ids=["nan-point", "zero-point", "negative-points", "lone-nan-point"],
    )
    def test_invalid_grid_named_as_invalid(self, grid, message):
        """A grid point that makes a reactance infinite or NaN gets the
        error FrequencySweep gives that grid, not the overflow error."""
        with pytest.raises(ValueError, match=message):
            lc_response(REFERENCE, grid)
        with pytest.raises(ValueError, match=message):
            FrequencySweep(grid, [1.0] * len(grid))

    def test_both_reactances_infinite_rejected(self):
        """x_l and x_c both overflow, so their difference is NaN: a
        ValueError, with no numpy warning."""
        with pytest.raises(ValueError, match="overflows on the frequency grid"):
            lc_response(ResonanceCircuit(1e300, 5e-324), [1e10])

    def test_overflowing_magnitude_rejected(self):
        """x_c/R overflows at the exact resonance: a ValueError, with no
        numpy warning."""
        circuit = ResonanceCircuit(2.0**600, 2.0**-600, 1e-150)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            lc_response(circuit, [1 / (2 * math.pi)])


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

    @pytest.mark.parametrize(
        "index, value", [(10, math.nan), (25, math.inf), (0, -math.inf)],
        ids=["nan-inside", "inf-at-peak", "minus-inf-at-edge"],
    )
    def test_rejects_non_finite_magnitude(self, index, value):
        """A 50-point Gaussian sweep with one non-finite magnitude."""
        freqs = np.linspace(1e4, 1e5, 50)
        mags = np.exp(-(((freqs - freqs[25]) / 2e4) ** 2))
        mags[index] = value
        for as_input in self.INPUTS:
            with pytest.raises(ValueError, match="finite and nonnegative"):
                FrequencySweep(as_input(freqs.tolist()), as_input(mags.tolist()))


class TestFindResonantFrequency:
    def test_reference_peak_within_point_one_percent(self):
        sweep = lc_response(REFERENCE, default_frequency_grid())
        f_r = find_resonant_frequency(sweep)[0]
        assert abs(f_r - REFERENCE_F_R) / REFERENCE_F_R < 1e-3

    def test_symmetric_triangular_peak_exact_at_center(self):
        freqs = tuple(np.linspace(100.0, 200.0, 11))
        mags = tuple(np.concatenate([np.linspace(1, 2, 6), np.linspace(2, 1, 6)[1:]]))
        f_r, bracket = find_resonant_frequency(FrequencySweep(freqs, mags))
        assert f_r == pytest.approx(150.0, rel=1e-12)
        assert bracket == (140.0, 150.0, 160.0)

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

    def test_peak_above_frequency_limit_rejected(self):
        """Squaring a frequency near 1e200 Hz would overflow."""
        circuit = ResonanceCircuit(1e-300, 2.5e-102, 1e-120)
        sweep = lc_response(circuit, default_frequency_grid(1e199, 1e201))
        with pytest.raises(ValueError, match="frequency limit"):
            find_resonant_frequency(sweep)

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

    def test_returns_python_floats(self):
        """f_r and the three bracket points are Python floats, on an array
        sweep and on a tuple sweep, at a fitted peak and at a grid point."""
        fitted = lc_response(REFERENCE, default_frequency_grid())
        grid_point = FrequencySweep(np.array([1.0, 2.0, 3.0]), np.array([0.0, 1.0, 0.5]))
        for sweep in (fitted, grid_point):
            for as_input in (np.array, tuple):
                f_r, bracket = find_resonant_frequency(FrequencySweep(
                    as_input(sweep.frequencies.tolist()), as_input(sweep.magnitudes.tolist())))
                assert [type(x) for x in (f_r, *bracket)] == [float] * 4

    def test_peak_frequency_decreases_with_capacitance(self):
        grid = default_frequency_grid()
        recovered = []
        for c in np.linspace(50e-12, 500e-12, 12):
            circuit = ResonanceCircuit(1e-3, float(c), 10.0)
            recovered.append(find_resonant_frequency(lc_response(circuit, grid))[0])
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

    def test_frequency_limit(self):
        """At the limit the capacitance is finite; above it, rejected."""
        assert math.isfinite(capacitance_from_resonance(MAX_FREQUENCY_HZ, 1e-300))
        with pytest.raises(ValueError, match="limit"):
            capacitance_from_resonance(2.2e153, 1e-300)

    def test_underflowing_denominator_rejected(self):
        with pytest.raises(ValueError, match="no finite capacitance"):
            capacitance_from_resonance(1e-170, 1e-3)

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

    def test_coarse_grid_raises_unresolved_peak(self):
        """Three points around an 18 kHz peak recovered 6.8e-13 F for 1.5e-10 F."""
        circuit = ResonanceCircuit(0.5, 150e-12)
        with pytest.raises(UnresolvedPeakError, match="grid too coarse"):
            extract_body_capacitance(circuit, default_frequency_grid(10.0, 1e6, 3))

    def test_accepted_extraction_within_gate_tolerance(self):
        """Every grid the gate accepts recovers C within its tolerance."""
        accepted = 0
        for points in range(3, 400, 7):
            grid = default_frequency_grid(points=points)
            try:
                recovered, _, _ = extract_body_capacitance(REFERENCE, grid)
            except UnresolvedPeakError:
                continue
            accepted += 1
            error = abs(recovered - REFERENCE.capacitance_true) / REFERENCE.capacitance_true
            assert error <= MAX_PEAK_BRACKET
        assert 0 < accepted < len(range(3, 400, 7))

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

    @pytest.mark.parametrize(
        "rows, message",
        [
            ((), "^dielectric table needs at least one row$"),
            (((0.50, 100e-12), (0.30, 200e-12)), "thickness column must be strictly ascending"),
            (((0.30, 100e-12), (0.50, 200e-12)), "capacitance column must be strictly descending"),
        ],
        ids=["empty", "non-ascending-thickness", "non-descending-capacitance"],
    )
    def test_rejects_bad_rows(self, rows, message):
        with pytest.raises(ValueError, match=message):
            DielectricTable(rows)

    def test_shipped_table_anchor_row(self, config_dir):
        table = DielectricTable.from_csv(config_dir / "dielectric_cb.csv")
        assert body_capacitance_lookup(0.40, table) == 150.838e-12

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("thickness_m,c_b_farads\n0.3,2e-10\n0.5,1e-10\n")
        assert DielectricTable.from_csv(path) == DielectricTable(self.ROWS)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("thickness,c_b\n0.3,2e-10\n", "expected header 'thickness_m,c_b_farads'"),
            ("thickness_m,c_b_farads\n0.3,2e-10,1\n",
             r"bad\.csv:2: expected two comma-separated columns$"),
            ("thickness_m,c_b_farads\n0.3,2e-10\n0.5,none\n",
             r"bad\.csv:3: could not convert string to float: 'none'$"),
        ],
        ids=["bad-header", "three-columns", "not-a-number"],
    )
    def test_csv_rejects_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            DielectricTable.from_csv(path)


class TestDefaultGrid:
    def test_default_span_and_size(self):
        grid = default_frequency_grid()
        assert len(grid) == 2000
        assert grid[0] == pytest.approx(10e3, rel=1e-12)
        assert grid[-1] == pytest.approx(1e6, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"f_min": 1e6, "f_max": 1e4}, "need f_min < f_max, got 1000000.0, 10000.0"),
            ({"points": 2}, "points must be an integer of at least 3, got 2"),
            ({"points": 3.5}, "points must be an integer of at least 3, got 3.5"),
            ({"points": math.inf}, "points must be an integer of at least 3, got inf"),
        ],
        ids=["reversed-span", "two-points", "fractional-points", "infinite-points"],
    )
    def test_rejects_bad_span_or_points(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            default_frequency_grid(**kwargs)

    @pytest.mark.parametrize("points", [5, 2000])
    def test_rejects_infinite_f_max(self, points):
        """Rejected with no numpy warning and no inf points."""
        with pytest.raises(ValueError, match="^f_max must be positive, got inf$"):
            default_frequency_grid(1e4, math.inf, points)

    def test_returns_a_writable_array_of_its_own(self):
        first, second = default_frequency_grid(), default_frequency_grid()
        assert first is not second
        assert first.flags.writeable and first.flags.owndata

    def test_writes_to_a_returned_grid_change_no_later_result(self):
        expected_capacitance, expected_f_r, expected_sweep = extract_body_capacitance(REFERENCE)
        default_frequency_grid()[:] = 1.0
        recovered, f_r, sweep = extract_body_capacitance(REFERENCE)
        assert (recovered, f_r) == (expected_capacitance, expected_f_r)
        assert np.array_equal(sweep.magnitudes, expected_sweep.magnitudes)
        assert np.array_equal(default_frequency_grid(), np.geomspace(1e4, 1e6, 2000))

    def test_shared_default_grid_is_read_only(self):
        grid = resonance._DEFAULT_GRID
        assert np.array_equal(grid, np.geomspace(1e4, 1e6, 2000))
        assert not grid.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 1.0

    def test_shared_angular_grid_is_read_only_and_exact(self):
        omega = resonance._DEFAULT_OMEGA
        assert bits(omega).tolist() == bits(2.0 * math.pi * resonance._DEFAULT_GRID).tolist()
        assert not omega.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            omega[0] = 1.0


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    inductance=st.floats(1e-4, 1.0),
    capacitance=st.floats(1e-12, 1e-8),
    resistance=st.floats(1e-2, 1e3),
)
def test_default_grid_extraction_matches_explicit_grid_bitwise(
    inductance, capacitance, resistance
):
    """The shared default grid and a freshly built one give the same
    extraction, bit for bit, or the same error."""
    circuit = ResonanceCircuit(inductance, capacitance, resistance)

    def outcome(*grid):
        try:
            recovered, f_r, sweep = extract_body_capacitance(circuit, *grid)
        except ValueError as exc:
            return type(exc), str(exc)
        return bits([recovered, f_r]).tolist(), bits(sweep.magnitudes).tolist()

    assert outcome() == outcome(np.geomspace(1e4, 1e6, 2000))


def reference_peak(frequencies, mags):
    """The peak search as first written: three scans for flatness and the peak."""
    if len(frequencies) < 3:
        raise ValueError("too few points")
    if np.max(mags) == np.min(mags):
        raise FlatSweepError("flat")
    peak = int(np.argmax(mags))
    if peak == 0 or peak == len(mags) - 1:
        raise BoundaryPeakError("boundary")
    x0, x1, x2 = map(float, frequencies[peak - 1 : peak + 2])
    if mags[peak - 1] <= 0 or mags[peak + 1] <= 0:
        return x1
    if x2 > MAX_FREQUENCY_HZ:
        raise ValueError("frequency limit")
    y0, y1, y2 = np.log(mags[peak - 1 : peak + 2])
    denominator = y0 * (x1 - x2) + y1 * (x2 - x0) + y2 * (x0 - x1)
    if denominator <= 0:
        return x1
    numerator = y0 * (x1**2 - x2**2) + y1 * (x2**2 - x0**2) + y2 * (x0**2 - x1**2)
    return float(0.5 * numerator / denominator)


def reference_sweep_peak(frequencies, magnitudes):
    """The sweep checks as first written (``np.diff``, ``np.min``), plus the
    one intended difference: non-finite magnitudes are rejected."""
    if len(frequencies) == 0:
        raise ValueError("empty")
    if len(frequencies) != len(magnitudes):
        raise ValueError("mismatch")
    if not np.all(np.diff(frequencies) > 0):
        raise ValueError("not ascending")
    if frequencies[0] <= 0:
        raise ValueError("not positive")
    if np.min(magnitudes) < 0:
        raise ValueError("negative")
    if not np.all(np.isfinite(magnitudes)):
        raise ValueError("not finite")
    return reference_peak(frequencies, magnitudes)


def peak_outcome(search, *args):
    """The found frequency's bits, or the type of the error raised."""
    try:
        return bits([search(*args)]).tolist()
    except ValueError as exc:
        return type(exc)


FINITE_MAGNITUDES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0]), st.floats(0.0, 10.0))
MAGNITUDES = st.one_of(FINITE_MAGNITUDES, st.sampled_from([-1.0, math.nan, math.inf]))


@st.composite
def raw_sweeps(draw):
    """Grids, mostly valid, and magnitudes with plateaus, ties and, in
    some sweeps, negative or non-finite values, as tuples or as arrays."""
    n = draw(st.integers(0, 12))
    if draw(st.sampled_from([True, True, True, False])):
        freqs = sorted(draw(st.lists(st.floats(1e-3, 1e6), min_size=n, max_size=n, unique=True)))
    else:
        point = st.one_of(st.floats(-2.0, 1e308), st.sampled_from([0.0, math.nan, math.inf]))
        freqs = draw(st.lists(point, min_size=n, max_size=n))
    size = n if draw(st.sampled_from([True] * 9 + [False])) else draw(st.integers(0, 12))
    magnitude = draw(st.sampled_from([FINITE_MAGNITUDES, FINITE_MAGNITUDES, MAGNITUDES]))
    mags = draw(st.lists(magnitude, min_size=size, max_size=size))
    as_input = draw(st.sampled_from([tuple, np.array]))
    return as_input(freqs), as_input(mags)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(raw=raw_sweeps())
@example(raw=((1.0, 2.0, 3.0, 4.0), (1.0, 2.0, 2.0, 1.0)))  # plateau at the peak
@example(raw=((1.0, 2.0, 3.0, 4.0, 5.0), (1.0, 2.0, 1.0, 2.0, 1.0)))  # tied maxima
@example(raw=((1.0, 2.0, 3.0), (2.0, 1.0, 2.0)))  # tied maxima at both edges
@example(raw=((1.0, 2.0, 3.0), (0.5, 0.5, 0.5)))  # flat
@example(raw=((1.0, 2.0, 3.0), (math.nan, 1.0, 0.5)))  # NaN at an edge
@example(raw=((1.0, 2.0, 3.0, 4.0), (0.5, math.nan, 1.0, 0.5)))  # NaN inside
@example(raw=((1.0, 2.0, 3.0), (math.nan,) * 3))  # NaN throughout
@example(raw=((1.0, 2.0, 3.0), (0.5, math.inf, 0.5)))  # inf at the peak
@example(raw=((1.0, 2.0, 2.0, 3.0), (0.5, 1.0, 0.8, 0.5)))  # a repeated frequency
def test_sweep_checks_and_peak_search_match_reference(raw):
    """FrequencySweep plus find_resonant_frequency give the reference's
    frequency bit for bit or raise the reference's error type; so does the
    peak search alone on the unchecked values, NaN and inf included."""
    freqs, mags = raw
    with np.errstate(all="ignore"):
        expected = peak_outcome(reference_sweep_peak, freqs, mags)
    actual = peak_outcome(
        lambda f, m: find_resonant_frequency(FrequencySweep(f, m))[0], freqs, mags
    )
    assert actual == expected

    if len(freqs) != len(mags) or not all(b > a for a, b in zip(freqs, freqs[1:])):
        return
    raw_sweep = SimpleNamespace(frequencies=freqs, magnitudes=mags)
    with np.errstate(all="ignore"):
        expected = peak_outcome(reference_peak, freqs, mags)
        actual = peak_outcome(lambda s: find_resonant_frequency(s)[0], raw_sweep)
    assert actual == expected


def test_seeded_extractions_keep_their_bits():
    """200 seeded circuits, 149 on the default grid and 51 with the peak
    off it: the recovered C, f_r and every magnitude are those the
    three-scan peak search and the np.diff sweep checks gave, bit for bit
    (the digest was recorded with that code)."""
    rng = np.random.default_rng(1212)
    digest = hashlib.sha256()
    recovered_bits = []
    for _ in range(200):
        inductance, capacitance, resistance = 10.0 ** rng.uniform([-4, -12, -1], [-1, -8, 3])
        circuit = ResonanceCircuit(float(inductance), float(capacitance), float(resistance))
        try:
            recovered, f_r, sweep = extract_body_capacitance(circuit)
        except ValueError as exc:
            digest.update(type(exc).__name__.encode())
            continue
        digest.update(np.array([recovered, f_r]).tobytes())
        digest.update(sweep.magnitudes.tobytes())
        recovered_bits.append((recovered.hex(), f_r.hex()))
    assert len(recovered_bits) == 149
    assert recovered_bits[:3] == [
        ("0x1.2096e915a3387p-30", "0x1.65f1391f59510p+17"),
        ("0x1.5054e7cbe3fcfp-29", "0x1.c969c472bfb3ep+16"),
        ("0x1.0bb01b4c649abp-35", "0x1.635fa0d66d513p+18"),
    ]
    assert digest.hexdigest() == (
        "492006f77eaf6b3a1729e4ddc9ba5fb363ff0dc6bd91c2b37c149da772921215"
    )
