"""Body-capacitance extraction from series-inductor resonance sweeps.

The body-to-earth capacitance is measured by driving the body through a
series inductor and locating the resulting LC resonance: sweep the source
frequency, record the voltage magnitude across the capacitance, pick the
peak, and recover C = 1/((2*pi*f_r)^2 * L).

The ideal LC circuit has an unbounded peak, so a small series resistance
(default 10 ohm) is included purely to keep the peak finite and findable; it
shifts the resonant frequency only to second order (by CR^2/(2L) relative).

The default analysis grid and its angular frequencies 2*pi*f are built once,
at import, and shared read-only: a sweep on that grid holds it, uncopied.
The response is computed in place, each step the IEEE operation of the plain
formula on the same operands, so every magnitude keeps its bits on any grid,
and the peak is refined on Python floats.  Every sweep is still checked by
:class:`FrequencySweep`, the shared-grid ones included.

A dielectric-thickness to body-capacitance table (the output of such
extractions for a body standing on dielectric spacers of varying height)
is held here as well; its piecewise-linear lookup follows the one rule of
:func:`hbc_channel.columns.lookup`, which shadowing profiles share.
"""

from __future__ import annotations

import functools
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .columns import POSITIVE, anchor_columns, integer_at_least, lookup, require

DEFAULT_SERIES_RESISTANCE_OHM = 10.0
DEFAULT_GRID_MIN_HZ = 10e3
DEFAULT_GRID_MAX_HZ = 1e6
DEFAULT_GRID_POINTS = 2000
# Largest frequency whose (2*pi*f)**2 stays a finite float (the limit is
# about 2.1e153 Hz; a round value below it).
MAX_FREQUENCY_HZ = 1e153
# The ranges of a resonant frequency and of a grid's number of points.
FREQUENCY = (f"positive and at most the {MAX_FREQUENCY_HZ:.6g} Hz limit",
             lambda v: (v > 0.0) & (v <= MAX_FREQUENCY_HZ))
GRID_POINTS = integer_at_least(3)
# Largest accepted 2*(x2 - x0)/x1 over the grid points (x0, x1, x2) around
# the peak: since C is proportional to f_r**-2, it bounds the relative error
# of the recovered capacitance.  The default grid gives 0.92 %.
MAX_PEAK_BRACKET = 0.05


class BoundaryPeakError(ValueError):
    """Sweep maximum sits on the grid edge; widen the grid."""


class FlatSweepError(ValueError):
    """Sweep has no distinguishable peak."""


class UnresolvedPeakError(ValueError):
    """Grid too coarse around the peak to recover the capacitance."""


@dataclass(frozen=True)
class ResonanceCircuit:
    """Series R-L driving a shunt capacitance (the body-to-earth path)."""

    inductance: float
    capacitance_true: float
    series_resistance: float = DEFAULT_SERIES_RESISTANCE_OHM

    def __post_init__(self) -> None:
        require(POSITIVE, "inductance", self.inductance)
        require(POSITIVE, "capacitance_true", self.capacitance_true)
        require(POSITIVE, "series_resistance", self.series_resistance)
        # A square that underflows to 0 would let the magnitude divide by 0.
        if not 0 < self.series_resistance * self.series_resistance < math.inf:
            raise ValueError(
                f"series_resistance {self.series_resistance} has no finite positive square"
            )

    @property
    def resonant_frequency(self) -> float:
        """Ideal (lossless) resonant frequency 1/(2*pi*sqrt(L)*sqrt(C)), Hz.

        The roots are taken apart so that L*C cannot underflow or overflow.

        Raises:
            ValueError: If the frequency is not a finite positive float.
        """
        f_r = 1.0 / (2.0 * math.pi * math.sqrt(self.inductance) * math.sqrt(self.capacitance_true))
        if not 0 < f_r < math.inf:
            raise ValueError(
                f"L = {self.inductance}, C = {self.capacitance_true} give no finite "
                f"positive resonant frequency (got {f_r})"
            )
        return f_r


@dataclass(frozen=True, eq=False)
class FrequencySweep:
    """Magnitude response |V_node/V_src| sampled on an ascending grid.

    Every sweep is checked: the grid must be nonempty, strictly ascending
    and start above 0, and the magnitudes finite and nonnegative.
    :func:`lc_response` gives read-only arrays: its magnitudes and a copy of
    the caller's grid, or the shared default grid itself; any float
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
        _check_grid(np.asarray(self.frequencies))
        mags = np.asarray(self.magnitudes)
        # NaN fails both comparisons.
        if not (0 <= mags.min() and mags.max() < math.inf):
            raise ValueError("sweep magnitudes must be finite and nonnegative")


def _check_grid(freqs: np.ndarray) -> None:
    """Raise ValueError unless a nonempty grid ascends strictly from a
    positive first point."""
    if not (freqs[1:] > freqs[:-1]).all():
        raise ValueError("sweep grid must be strictly ascending")
    if not freqs[0] > 0:  # a lone NaN point fails here
        raise ValueError("sweep frequencies must be positive")


def default_frequency_grid(
    f_min: float = DEFAULT_GRID_MIN_HZ,
    f_max: float = DEFAULT_GRID_MAX_HZ,
    points: int = DEFAULT_GRID_POINTS,
) -> np.ndarray:
    """Logarithmically spaced analysis grid, as an array the caller owns."""
    require(POSITIVE, "f_min", f_min)
    require(POSITIVE, "f_max", f_max)
    if not f_max > f_min:
        raise ValueError(f"need f_min < f_max, got {f_min}, {f_max}")
    require(GRID_POINTS, "points", points)
    return np.geomspace(f_min, f_max, points)


# The default grid and its angular frequencies 2*pi*f, built once and shared
# read-only by every extraction that is given no grid of its own.
_DEFAULT_GRID = default_frequency_grid()
_DEFAULT_GRID.flags.writeable = False
_DEFAULT_OMEGA = 2.0 * math.pi * _DEFAULT_GRID
_DEFAULT_OMEGA.flags.writeable = False


def _response(circuit: ResonanceCircuit, freqs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|V_C/V_src| and |R + jwL + 1/(jwC)|^2 at ``freqs``; an overflow is a quiet inf.

    Worked in place on three new arrays.  Each step is an IEEE operation of
    ``x_c / sqrt(R**2 + (w*L - x_c)**2)``, ``x_c = 1/(w*C)``, on the same
    operands (numpy's ``**2`` is a square and the sum commutes), so every
    value keeps its bits.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = _DEFAULT_OMEGA if freqs is _DEFAULT_GRID else 2.0 * math.pi * freqs
        x_c = w * circuit.capacitance_true
        np.divide(1.0, x_c, out=x_c)
        impedance_sq = w * circuit.inductance
        impedance_sq -= x_c
        np.multiply(impedance_sq, impedance_sq, out=impedance_sq)
        impedance_sq += circuit.series_resistance**2
        magnitude = np.sqrt(impedance_sq)
        np.divide(x_c, magnitude, out=magnitude)
        return magnitude, impedance_sq


def lc_response(circuit: ResonanceCircuit, grid) -> FrequencySweep:
    """Magnitude response of the series R-L, shunt-C divider.

    |V_C/V_src| = |1/(jwC)| / |R + jwL + 1/(jwC)| evaluated pointwise; tends
    to 1 at low frequency (the capacitor open-circuits) and to 0 at high
    frequency (the inductor blocks), with the global maximum near the
    resonant frequency for small R.
    """
    # The shared grid is read-only already; any other grid is copied, so that
    # the caller keeps its grid.
    freqs = grid if grid is _DEFAULT_GRID else np.array(grid, dtype=float)
    if freqs.size == 0:
        raise ValueError("frequency grid is empty")
    magnitude, impedance_sq = _response(circuit, freqs)
    # Not finite when a reactance or the square of their difference
    # overflows, or at a zero or NaN grid point: an invalid grid gets the
    # error FrequencySweep gives it.  No point is negative, so the max alone
    # tests them all; a NaN fails the comparison.
    if not impedance_sq.max() < math.inf:
        _check_grid(freqs)
        try:
            f_r = circuit.resonant_frequency
            # No grid resolves the peak if the floats next to f_r overflow too.
            near = _response(circuit, np.nextafter(f_r, [0.0, math.inf]))[1].max() < math.inf
            advice = f"the circuit resonates at {f_r:.6g} Hz, " + (
                "which a grid must bracket closely" if near
                else "where its reactance overflows too: no grid can resolve the peak"
            )
        except ValueError:
            advice = "the circuit has no finite resonant frequency for a grid to bracket"
        raise ValueError(
            "a reactance or its square overflows on the frequency grid "
            f"[{freqs[0]:.6g}, {freqs[-1]:.6g}] Hz; {advice}"
        )
    freqs.flags.writeable = False
    magnitude.flags.writeable = False
    return FrequencySweep(freqs, magnitude)


def find_resonant_frequency(sweep: FrequencySweep) -> tuple[float, tuple[float, float, float]]:
    """Locate the sweep's peak: ``(f_r, (x0, x1, x2))``, the refined peak
    frequency and the grid points around the grid maximum.

    Takes the grid maximum and refines it with a 3-point parabolic fit on
    log-magnitude, which is robust on logarithmically spaced grids.  A
    symmetric peak centred on a uniform-grid point is returned exactly.

    Raises:
        FlatSweepError: If the sweep has no distinguishable peak.
        BoundaryPeakError: If the maximum sits on the first or last grid
            point (the grid must be widened).
        ValueError: If the sweep has fewer than 3 points, or the points
            around the peak lie above :data:`MAX_FREQUENCY_HZ`.
    """
    if len(sweep.frequencies) < 3:
        raise ValueError("peak refinement needs at least 3 sweep points")
    mags = sweep.magnitudes
    peak = int(np.asarray(mags).argmax())
    if peak == 0 or peak == len(mags) - 1:
        # Only a flat sweep has max == min, and its argmax is 0.  A NaN
        # compares unequal to everything, so a sweep holding one is never flat.
        if mags[peak] == np.min(mags):
            raise FlatSweepError("sweep is flat; no resonant peak to locate")
        raise BoundaryPeakError(
            f"sweep maximum at grid boundary ({sweep.frequencies[peak]:.6g} Hz); "
            "widen the frequency grid"
        )
    # Python floats, so that x**2 below is libm pow for any sequence type,
    # and the fit is float arithmetic rather than numpy-scalar arithmetic.
    x0, x1, x2 = np.asarray(sweep.frequencies[peak - 1 : peak + 2], dtype=float).tolist()
    if mags[peak - 1] <= 0 or mags[peak + 1] <= 0:
        return x1, (x0, x1, x2)
    if x2 > MAX_FREQUENCY_HZ:
        raise ValueError(
            f"peak at {x1:.6g} Hz lies above the {MAX_FREQUENCY_HZ:.6g} Hz frequency limit"
        )
    y0, y1, y2 = np.log(mags[peak - 1 : peak + 2]).tolist()
    denominator = y0 * (x1 - x2) + y1 * (x2 - x0) + y2 * (x0 - x1)
    if denominator <= 0:
        # Collinear or non-concave triple (e.g. a plateau edge): the grid
        # maximum is the best available estimate.
        return x1, (x0, x1, x2)
    numerator = y0 * (x1**2 - x2**2) + y1 * (x2**2 - x0**2) + y2 * (x0**2 - x1**2)
    return 0.5 * numerator / denominator, (x0, x1, x2)


def capacitance_from_resonance(f_r: float, inductance: float) -> float:
    """Recover the capacitance from a resonant frequency: C = 1/((2*pi*f_r)^2 L)."""
    require(FREQUENCY, "resonant frequency", f_r)
    require(POSITIVE, "inductance", inductance)
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

    Raises:
        UnresolvedPeakError: If ``2*(x2 - x0)/x1`` over the grid points
            around the peak exceeds :data:`MAX_PEAK_BRACKET`.
    """
    if grid is None:
        grid = _DEFAULT_GRID
    sweep = lc_response(circuit, grid)
    f_r, (x0, x1, x2) = find_resonant_frequency(sweep)
    bracket = 2.0 * (x2 - x0) / x1
    if bracket > MAX_PEAK_BRACKET:
        raise UnresolvedPeakError(
            f"grid too coarse at the peak: 2*(x2-x0)/x1 = {bracket:.3g} over "
            f"({x0:.6g}, {x1:.6g}, {x2:.6g}) Hz exceeds the {MAX_PEAK_BRACKET:.3g} "
            "tolerance; use more grid points"
        )
    return capacitance_from_resonance(f_r, circuit.inductance), f_r, sweep


@dataclass(frozen=True)
class DielectricTable:
    """Dielectric thickness (m) to body capacitance (F) mapping.

    Thickness rows must ascend strictly while capacitance descends strictly:
    a thinner dielectric brings the body closer to ground and raises the
    capacitance.  ``columns`` holds the two as read-only arrays, made once.
    """

    rows: tuple[tuple[float, float], ...]
    columns: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.rows) < 1:
            raise ValueError("dielectric table needs at least one row")
        for thickness, c_b in self.rows:
            require(POSITIVE, "table thickness", thickness)
            require(POSITIVE, "table capacitance", c_b)
        object.__setattr__(self, "columns", anchor_columns(self.rows, "table thickness column"))
        if any(b[1] >= a[1] for a, b in zip(self.rows, self.rows[1:])):
            raise ValueError(
                "table capacitance column must be strictly descending "
                "(thinner dielectric means larger body capacitance)"
            )

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "DielectricTable":
        """Load a two-column `thickness_m,c_b_farads` CSV file.

        The file is read on every call; the table parsed from it is cached on
        the path and the bytes read, so an edited file gives a new table on the
        next call.
        """
        with open(path, "rb", buffering=0) as file:
            data = file.read()
        return _parse_table(cls, os.fspath(path), data)


# A few tables of a few rows each; a parse that raises is not cached.
@functools.lru_cache(maxsize=8)
def _parse_table(cls: type[DielectricTable], name: str, data: bytes) -> DielectricTable:
    """The table of the CSV file ``name`` that held ``data``."""
    text = io.TextIOWrapper(io.BytesIO(data)).read()  # decoded as open(name).read() does
    lines = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not lines or lines[0].replace(" ", "") != "thickness_m,c_b_farads":
        raise ValueError(
            f"{name}: expected header 'thickness_m,c_b_farads', "
            f"got {lines[0] if lines else '<empty file>'!r}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise ValueError(f"{name}:{lineno}: expected two comma-separated columns")
        try:
            rows.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ValueError(f"{name}:{lineno}: {exc}") from exc
    return cls(tuple(rows))


def body_capacitance_lookup(thickness: float, table: DielectricTable) -> float:
    """Interpolate the body capacitance for a dielectric thickness.

    Piecewise-linear between rows and exact at them; queries outside the
    table range are rejected rather than extrapolated.  A numpy column of
    thicknesses gives a column.
    """
    return lookup(thickness, table.rows, table.columns,
                  "thickness {} m outside table range [{:.6g}, {:.6g}] m; "
                  "extrapolation is not supported")
