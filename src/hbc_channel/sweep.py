"""Parameter sweeps over channel scenarios, with CSV output.

A sweep varies exactly one scenario parameter over a linear range and
records the derived capacitances, the transfer ratio, the loss in dB and the
regime flags per row; the nodal oracle can be added per row on request.

A sweep is evaluated as columns: the swept value is one numpy column, and
one :func:`hbc_channel.config.build_scenario` call, one transfer and flag
pass and, with the oracle, one stacked nodal solve cover every row.  Each
row's numbers are bit-identical to evaluating that row on its own, so the
CSV is too.  Sweeps are deterministic: the same spec always produces
byte-identical CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, build_scenario, load_dielectric_table
from .transfer import (
    CAPACITANCE_NAMES, ChannelScenario, full_transfer, oracle_ratio, ratio_to_db, regime_flags,
    relative_error,
)


def _both_radii(config: ScenarioConfig, radius: float) -> ScenarioConfig:
    return replace(
        config, tx=replace(config.tx, radius_m=radius), rx=replace(config.rx, radius_m=radius)
    )


_RADIUS_PINS = (
    "[tx] radius_m", "[rx] radius_m", "[tx] return_path_f", "[rx] return_path_f",
    "[rx] ground_body_f",
)

# Sweep kind -> (CSV column of the swept value, the base config with the
# swept value set, config keys that fix the swept value or a value derived
# from it when set; "a + b" pins only when both keys are set).
SWEEP_KINDS = {
    "separation": (
        "separation_m",
        lambda c, d: replace(c, separation_m=d),
        ("[link] separation_m", "[link] coupling_f", "[tx] position_s + [rx] position_s"),
    ),
    "radius": ("radius_m", _both_radii, _RADIUS_PINS),
    "device_area": (
        "area_m2", lambda c, area: _both_radii(c, np.sqrt(area / math.pi)), _RADIUS_PINS
    ),
    "tx_position": (
        "tx_position_s",
        lambda c, s: replace(c, tx=replace(c.tx, position_s=s)),
        ("[tx] position_s", "[tx] shadowing_x", "[tx] return_path_f"),
    ),
    "rx_position": (
        "rx_position_s",
        lambda c, s: replace(c, rx=replace(c.rx, position_s=s)),
        ("[rx] position_s", "[rx] shadowing_x", "[rx] return_path_f"),
    ),
    "dielectric_thickness": (
        "dielectric_thickness_m",
        lambda c, t: replace(c, dielectric_thickness_m=t),
        ("[body] c_b_f", "[body] dielectric_thickness_m"),
    ),
}

SWEPT_COLUMN = {kind: column for kind, (column, _, _) in SWEEP_KINDS.items()}

_CAP_COLUMNS = tuple(f"{name}_f" for name in CAPACITANCE_NAMES)
_ORACLE_COLUMNS = ("oracle_ratio", "oracle_rel_error")


class SweepStepError(Exception):
    """One sweep row failed; its own error is chained as ``__cause__``.

    Attributes:
        step: Index of the lowest failing row.
        value: Swept value of that row.
    """

    def __init__(self, step: int, value: float):
        super().__init__(step, value)
        self.step = step
        self.value = value

    def __str__(self) -> str:
        return f"sweep step {self.step} (value {self.value:.6g}): {self.__cause__}"


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep as columns: one array per CSV column and one flag tuple per row.

    ``swept`` holds the swept values, ``capacitance`` maps each capacitance
    CSV column (e.g. ``c_c_f``) to its array, ``ratio`` and ``loss_db`` hold
    the full-form transfer and its loss, and ``flags`` holds one regime-flag
    tuple per row.  The oracle columns are ``None`` without the oracle.
    """

    kind: str
    swept_name: str
    swept: np.ndarray
    capacitance: dict[str, np.ndarray]
    ratio: np.ndarray
    loss_db: np.ndarray
    flags: tuple[tuple[str, ...], ...]
    oracle_ratio: np.ndarray | None = None
    oracle_rel_error: np.ndarray | None = None

    @property
    def include_oracle(self) -> bool:
        return self.oracle_ratio is not None

    def numeric_columns(self) -> list[np.ndarray]:
        """Every numeric column in CSV order (flags excluded)."""
        columns = [self.swept, *self.capacitance.values(), self.ratio, self.loss_db]
        if self.include_oracle:
            columns += [self.oracle_ratio, self.oracle_rel_error]
        return columns


def _is_set(config: ScenarioConfig, pin: str) -> bool:
    """Whether every ``[section] key`` of a pin holds a value in ``config``."""
    for key in pin.split(" + "):
        section, name = key[1:].split("] ")
        holder = getattr(config, section) if section in ("tx", "rx") else config
        if getattr(holder, name) is None:
            return False
    return True


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: kind, linear range, and the fixed base scenario."""

    kind: str
    start: float
    stop: float
    steps: int
    base: ScenarioConfig
    include_oracle: bool = False

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise ConfigError(
                f"unknown sweep kind {self.kind!r} (expected one of "
                f"{sorted(SWEEP_KINDS)})"
            )
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep range must be finite")
        if not self.start < self.stop:
            raise ConfigError(f"sweep needs min < max, got {self.start} >= {self.stop}")
        if self.steps < 2:
            raise ConfigError(f"sweep needs at least 2 steps, got {self.steps}")
        if self.kind in ("tx_position", "rx_position"):
            if not (0.0 <= self.start and self.stop <= 1.0):
                raise ConfigError("position sweeps must stay within [0, 1]")
            if self.base.profile() is None:
                raise ConfigError(
                    "position sweeps need [body] shadowing_anchors (a shadowing profile)"
                )
        elif self.start <= 0:
            raise ConfigError(f"{self.kind} sweep requires positive values, got min={self.start}")
        _, _, pins = SWEEP_KINDS[self.kind]
        conflicts = [pin for pin in pins if _is_set(self.base, pin)]
        if conflicts:
            raise ConfigError(
                f"{self.kind} sweep conflicts with fixed config value(s): "
                + ", ".join(conflicts)
            )


def _evaluate(spec: SweepSpec, values, table) -> SweepResult:
    """The sweep at ``values``: a column of swept values gives every row.

    A float gives that one row's scalars, which is how a failing row raises
    its own error.  The order of work within a row is the one a row's error
    depends on: scenario, full transfer, oracle, loss.
    """
    column, drive, _ = SWEEP_KINDS[spec.kind]
    scenario = build_scenario(drive(spec.base, values), table)
    capacitances = [getattr(scenario, name) for name in CAPACITANCE_NAMES]
    if isinstance(values, np.ndarray):
        # Quantities the swept value does not reach become constant columns.
        capacitances = [np.broadcast_to(c, values.shape) for c in capacitances]
        scenario = ChannelScenario(*capacitances)
    ratio = full_transfer(scenario)
    oracle = oracle_error = None
    if spec.include_oracle:
        oracle = oracle_ratio(capacitances)
        oracle_error = relative_error(ratio, oracle)
    return SweepResult(
        kind=spec.kind,
        swept_name=column,
        swept=values,
        capacitance=dict(zip(_CAP_COLUMNS, capacitances)),
        ratio=ratio,
        loss_db=-ratio_to_db(ratio),
        flags=tuple(regime_flags(scenario)),
        oracle_ratio=oracle,
        oracle_rel_error=oracle_error,
    )


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep as columns, every row in one pass.

    Raises:
        SweepStepError: For the lowest failing row, with that row's own
            error (ConfigError, solver error, ...) as its ``__cause__``.
    """
    _, drive, _ = SWEEP_KINDS[spec.kind]
    # Every row shares the base config's dielectric table: load it once.
    needs_table = drive(spec.base, spec.start).dielectric_thickness_m is not None
    table = load_dielectric_table(spec.base) if needs_table else None
    values = np.linspace(spec.start, spec.stop, spec.steps)
    # Rows are independent, so a slice fails exactly when one of its rows
    # does.  On failure, halve: rows below lo pass and [lo, hi) holds a
    # failing row.  Rows that fail may overflow or divide by zero before
    # their check sees them: numpy stays quiet.
    with np.errstate(all="ignore"):
        try:
            return _evaluate(spec, values, table)
        except Exception as exc:
            column_error = exc
        lo, hi = 0, len(values)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _evaluate(spec, values[lo:mid], table)
                lo = mid
            except Exception:
                hi = mid
    value = values.tolist()[lo]
    try:
        _evaluate(spec, value, table)
    except Exception as exc:
        raise SweepStepError(lo, value) from exc
    raise RuntimeError(f"sweep row {lo} failed as a column only") from column_error


def emit_csv(result: SweepResult, destination: str | Path) -> None:
    """Write the sweep as CSV: a header row then one row per step.

    Values are written with 12 significant digits, which re-parse to floats
    that reprint identically (byte-stable round trip).

    Raises:
        OSError: With the destination path in the message.
    """
    header = [result.swept_name, *_CAP_COLUMNS, "ratio", "loss_db", "flags"]
    cells = ["%.12g"] * 9 + ["%s"]
    if result.include_oracle:
        header += list(_ORACLE_COLUMNS)
        cells += ["%.12g"] * 2
    row_format = ",".join(cells) + "\n"
    columns = [column.tolist() for column in result.numeric_columns()]
    columns.insert(9, ["|".join(flags) for flags in result.flags])
    text = ",".join(header) + "\n" + "".join(row_format % row for row in zip(*columns))
    try:
        with open(destination, "w", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write sweep CSV to {str(destination)!r}: {exc}") from exc


def read_sweep_csv(path: str | Path) -> SweepResult:
    """Parse a CSV produced by :func:`emit_csv` back into a SweepResult."""
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            records = list(reader)
    except OSError as exc:
        raise OSError(f"cannot read sweep CSV from {str(path)!r}: {exc}") from exc
    if not records:
        raise ValueError(f"{path}: empty sweep CSV")
    header = records[0]
    column_to_kind = {column: kind for kind, column in SWEPT_COLUMN.items()}
    if header[0] not in column_to_kind:
        raise ValueError(f"{path}: unknown swept column {header[0]!r}")
    include_oracle = header[-2:] == list(_ORACLE_COLUMNS)
    expected = [header[0], *_CAP_COLUMNS, "ratio", "loss_db", "flags"]
    if include_oracle:
        expected += list(_ORACLE_COLUMNS)
    if header != expected:
        raise ValueError(f"{path}: unexpected header {header}")

    body = records[1:]
    for record in body:
        if len(record) != len(header):
            raise ValueError(f"{path}: row width {len(record)} != header width {len(header)}")
    numbers = [
        np.array([float(record[i]) for record in body]) for i in range(len(header)) if i != 9
    ]
    return SweepResult(
        kind=column_to_kind[header[0]],
        swept_name=header[0],
        swept=numbers[0],
        capacitance=dict(zip(_CAP_COLUMNS, numbers[1:7])),
        ratio=numbers[7],
        loss_db=numbers[8],
        flags=tuple(tuple(record[9].split("|")) if record[9] else () for record in body),
        oracle_ratio=numbers[9] if include_oracle else None,
        oracle_rel_error=numbers[10] if include_oracle else None,
    )
