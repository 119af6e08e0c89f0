"""Body-capacitance extraction from series-inductor resonance sweeps.

The body-to-earth capacitance is measured by driving the body through a
series inductor and locating the resulting LC resonance: sweep the source
frequency, record the voltage magnitude across the capacitance, pick the
peak, and recover C = 1/((2*pi*f_r)^2 * L).

The ideal LC circuit has an unbounded peak, so a small series resistance
(default 10 ohm) is included purely to keep the peak finite and findable; it
shifts the resonant frequency only to second order (by CR^2/(2L) relative).

A dielectric-thickness to body-capacitance table (the output of such
extractions for a body standing on dielectric spacers of varying height)
is held here as well, with piecewise-linear lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .columns import holds, shown

DEFAULT_SERIES_RESISTANCE_OHM = 10.0
DEFAULT_GRID_MIN_HZ = 10e3
DEFAULT_GRID_MAX_HZ = 1e6
DEFAULT_GRID_POINTS = 2000


class BoundaryPeakError(ValueError):
    """Sweep maximum sits on the grid edge; widen the grid."""


class FlatSweepError(ValueError):
    """Sweep has no distinguishable peak."""


@dataclass(frozen=True)
class ResonanceCircuit:
    """Series R-L driving a shunt capacitance (the body-to-earth path)."""

    inductance: float
    capacitance_true: float
    series_resistance: float = DEFAULT_SERIES_RESISTANCE_OHM

    def __post_init__(self) -> None:
        for name in ("inductance", "capacitance_true", "series_resistance"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive, got {value}")
        if not math.isfinite(self.series_resistance * self.series_resistance):
            raise ValueError(f"series_resistance {self.series_resistance} has no finite square")

    @property
    def resonant_frequency(self) -> float:
        """Ideal (lossless) resonant frequency 1/(2*pi*sqrt(LC)), Hz."""
        return 1.0 / (2.0 * math.pi * math.sqrt(self.inductance * self.capacitance_true))


@dataclass(frozen=True, eq=False)
class FrequencySweep:
    """Magnitude response |V_node/V_src| sampled on an ascending grid.

    :func:`lc_response` gives read-only arrays of its own; any float
    sequences are accepted and held as given.
    """

    frequencies: np.ndarray
    magnitudes: np.ndarray

    def __post_init__(self) -> None:
        if len(self.frequencies) == 0:
            raise ValueError("sweep grid must be nonempty")
        if len(self.frequencies) != len(self.magnitudes):
            raise ValueError(
                f"grid/magnitude length mismatch: {len(self.frequencies)} vs "
                f"{len(self.magnitudes)}"
            )
        if not np.all(np.diff(self.frequencies) > 0):
            raise ValueError("sweep grid must be strictly ascending")
        if self.frequencies[0] <= 0:
            raise ValueError("sweep frequencies must be positive")
        if np.min(self.magnitudes) < 0:
            raise ValueError("sweep magnitudes must be nonnegative")


def default_frequency_grid(
    f_min: float = DEFAULT_GRID_MIN_HZ,
    f_max: float = DEFAULT_GRID_MAX_HZ,
    points: int = DEFAULT_GRID_POINTS,
) -> np.ndarray:
    """Logarithmically spaced analysis grid."""
    if not (f_min > 0 and f_max > f_min):
        raise ValueError(f"need 0 < f_min < f_max, got {f_min}, {f_max}")
    if points < 3:
        raise ValueError(f"grid needs at least 3 points, got {points}")
    return np.geomspace(f_min, f_max, points)


def lc_response(circuit: ResonanceCircuit, grid) -> FrequencySweep:
    """Magnitude response of the series R-L, shunt-C divider.

    |V_C/V_src| = |1/(jwC)| / |R + jwL + 1/(jwC)| evaluated pointwise; tends
    to 1 at low frequency (the capacitor open-circuits) and to 0 at high
    frequency (the inductor blocks), with the global maximum near the
    resonant frequency for small R.
    """
    freqs = np.array(grid, dtype=float)  # a copy: the caller keeps its grid
    if freqs.size == 0:
        raise ValueError("frequency grid is empty")
    w = 2.0 * math.pi * freqs
    x_c = 1.0 / (w * circuit.capacitance_true)
    x_l = w * circuit.inductance
    magnitude = x_c / np.sqrt(circuit.series_resistance**2 + (x_l - x_c) ** 2)
    freqs.flags.writeable = False
    magnitude.flags.writeable = False
    return FrequencySweep(freqs, magnitude)


def find_resonant_frequency(sweep: FrequencySweep) -> float:
    """Locate the sweep's peak frequency.

    Takes the grid maximum and refines it with a 3-point parabolic fit on
    log-magnitude, which is robust on logarithmically spaced grids.  A
    symmetric peak centred on a uniform-grid point is returned exactly.

    Raises:
        FlatSweepError: If the sweep has no distinguishable peak.
        BoundaryPeakError: If the maximum sits on the first or last grid
            point (the grid must be widened).
        ValueError: If the sweep has fewer than 3 points.
    """
    if len(sweep.frequencies) < 3:
        raise ValueError("peak refinement needs at least 3 sweep points")
    mags = sweep.magnitudes
    if np.max(mags) == np.min(mags):
        raise FlatSweepError("sweep is flat; no resonant peak to locate")
    peak = int(np.argmax(mags))
    if peak == 0 or peak == len(mags) - 1:
        raise BoundaryPeakError(
            f"sweep maximum at grid boundary ({sweep.frequencies[peak]:.6g} Hz); "
            "widen the frequency grid"
        )
    if mags[peak - 1] <= 0 or mags[peak + 1] <= 0:
        return float(sweep.frequencies[peak])

    # Python floats, so that x**2 below is libm pow for any sequence type.
    x0, x1, x2 = map(float, sweep.frequencies[peak - 1 : peak + 2])
    y0, y1, y2 = np.log(mags[peak - 1 : peak + 2])
    denominator = y0 * (x1 - x2) + y1 * (x2 - x0) + y2 * (x0 - x1)
    if denominator <= 0:
        # Collinear or non-concave triple (e.g. a plateau edge): the grid
        # maximum is the best available estimate.
        return float(x1)
    numerator = y0 * (x1**2 - x2**2) + y1 * (x2**2 - x0**2) + y2 * (x0**2 - x1**2)
    return float(0.5 * numerator / denominator)


def capacitance_from_resonance(f_r: float, inductance: float) -> float:
    """Recover the capacitance from a resonant frequency: C = 1/((2*pi*f_r)^2 L)."""
    if not (f_r > 0 and math.isfinite(f_r)):
        raise ValueError(f"resonant frequency must be positive, got {f_r}")
    if not (inductance > 0 and math.isfinite(inductance)):
        raise ValueError(f"inductance must be positive, got {inductance}")
    denominator = (2.0 * math.pi * f_r) ** 2 * inductance
    if not (denominator > 0 and math.isfinite(denominator)):
        raise ValueError(f"(2*pi*f_r)^2 * L = {denominator} gives no finite capacitance")
    return 1.0 / denominator


def extract_body_capacitance(
    circuit: ResonanceCircuit, grid=None
) -> tuple[float, float, FrequencySweep]:
    """Run the full synthetic extraction pipeline.

    Generates the sweep, locates the peak and recovers the capacitance.

    Returns:
        (recovered capacitance F, resonant frequency Hz, sweep).
    """
    if grid is None:
        grid = default_frequency_grid()
    sweep = lc_response(circuit, grid)
    f_r = find_resonant_frequency(sweep)
    return capacitance_from_resonance(f_r, circuit.inductance), f_r, sweep


@dataclass(frozen=True)
class DielectricTable:
    """Dielectric thickness (m) to body capacitance (F) mapping.

    Thickness rows must ascend strictly while capacitance descends strictly:
    a thinner dielectric brings the body closer to ground and raises the
    capacitance.
    """

    rows: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.rows) < 1:
            raise ValueError("dielectric table needs at least one row")
        for thickness, c_b in self.rows:
            if not (thickness > 0 and math.isfinite(thickness)):
                raise ValueError(f"table thickness must be positive, got {thickness}")
            if not (c_b > 0 and math.isfinite(c_b)):
                raise ValueError(f"table capacitance must be positive, got {c_b}")
        thicknesses = [r[0] for r in self.rows]
        capacitances = [r[1] for r in self.rows]
        if any(b <= a for a, b in zip(thicknesses, thicknesses[1:])):
            raise ValueError("table thickness column must be strictly ascending")
        if any(b >= a for a, b in zip(capacitances, capacitances[1:])):
            raise ValueError(
                "table capacitance column must be strictly descending "
                "(thinner dielectric means larger body capacitance)"
            )

    @classmethod
    def from_csv(cls, path: str | Path) -> "DielectricTable":
        """Load a two-column `thickness_m,c_b_farads` CSV file."""
        path = Path(path)
        lines = [
            line.strip()
            for line in path.read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        if not lines or lines[0].replace(" ", "") != "thickness_m,c_b_farads":
            raise ValueError(
                f"{path}: expected header 'thickness_m,c_b_farads', "
                f"got {lines[0] if lines else '<empty file>'!r}"
            )
        rows = []
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two comma-separated columns")
            try:
                rows.append((float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
        return cls(tuple(rows))


def body_capacitance_lookup(thickness: float, table: DielectricTable) -> float:
    """Interpolate the body capacitance for a dielectric thickness.

    Piecewise-linear between rows and exact at them; queries outside the
    table range are rejected rather than extrapolated.  A numpy column of
    thicknesses gives a column.
    """
    if not holds(abs(thickness) < math.inf):
        raise ValueError(f"thickness must be finite, got {thickness}")
    low, high = table.rows[0][0], table.rows[-1][0]
    if not holds((thickness >= low) & (thickness <= high)):
        raise ValueError(
            f"thickness {shown(thickness, '.6g')} m outside table range "
            f"[{low:.6g}, {high:.6g}] m; extrapolation is not supported"
        )
    thicknesses = [r[0] for r in table.rows]
    capacitances = [r[1] for r in table.rows]
    c_b = np.interp(thickness, thicknesses, capacitances)
    return c_b if isinstance(thickness, np.ndarray) else float(c_b)
