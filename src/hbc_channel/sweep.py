"""Parameter sweeps over channel scenarios, with CSV output.

A sweep varies exactly one scenario parameter over a linear range, rebuilds
the scenario at every step through :func:`hbc_channel.config.build_scenario`,
and records the derived capacitances, the transfer ratio, the loss in dB and
the regime flags per row.  The nodal oracle can be run per row on request.

Sweeps are deterministic: the same spec always produces byte-identical CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ConfigError, ScenarioConfig, build_scenario, load_dielectric_table
from .network import build_channel_network, solve_transfer
from .transfer import full_transfer, ratio_to_db, regime_flags, relative_error


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
        "area_m2", lambda c, area: _both_radii(c, math.sqrt(area / math.pi)), _RADIUS_PINS
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

_CAP_COLUMNS = ("c_x_tx_f", "c_x_rx_f", "c_gb_rx_f", "c_l_f", "c_b_f", "c_c_f")
_ORACLE_COLUMNS = ("oracle_ratio", "oracle_rel_error")


@dataclass(frozen=True)
class SweepRow:
    swept_value: float
    c_x_tx: float
    c_x_rx: float
    c_gb_rx: float
    c_l: float
    c_b: float
    c_c: float
    ratio: float
    loss_db: float
    flags: tuple[str, ...]
    oracle_ratio: float | None = None
    oracle_rel_error: float | None = None


@dataclass(frozen=True)
class SweepResult:
    kind: str
    swept_name: str
    rows: tuple[SweepRow, ...]
    include_oracle: bool = False

    def swept_values(self) -> np.ndarray:
        return np.array([r.swept_value for r in self.rows])

    def ratios(self) -> np.ndarray:
        return np.array([r.ratio for r in self.rows])

    def losses_db(self) -> np.ndarray:
        return np.array([r.loss_db for r in self.rows])

    def capacitances(self, column: str) -> np.ndarray:
        """Capacitance column by CSV name (e.g. ``c_c_f``)."""
        attribute = column.removesuffix("_f")
        if column not in _CAP_COLUMNS:
            raise KeyError(f"unknown capacitance column {column!r}")
        return np.array([getattr(r, attribute) for r in self.rows])


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


def run_sweep(spec: SweepSpec) -> SweepResult:
    """Evaluate the sweep, one scenario per step.

    Raises:
        The underlying ConfigError / solver error, re-raised with the
        offending step index and swept value prepended.
    """
    column, drive, _ = SWEEP_KINDS[spec.kind]
    # Every row shares the base config's dielectric table: load it once.
    needs_table = drive(spec.base, spec.start).dielectric_thickness_m is not None
    table = load_dielectric_table(spec.base) if needs_table else None
    values = np.linspace(spec.start, spec.stop, spec.steps)
    rows = []
    for index, value in enumerate(values.tolist()):
        try:
            scenario = build_scenario(drive(spec.base, value), table)
            ratio = full_transfer(scenario)
            oracle_ratio = None
            oracle_err = None
            if spec.include_oracle:
                net = build_channel_network(
                    scenario.c_x_tx, scenario.c_x_rx, scenario.c_gb_rx,
                    scenario.c_l, scenario.c_b, scenario.c_c,
                )
                oracle_ratio = solve_transfer(net, spec.base.frequency_hz).ratio.real
                oracle_err = relative_error(ratio, oracle_ratio)
        except Exception as exc:
            raise type(exc)(f"sweep step {index} (value {value:.6g}): {exc}") from exc
        rows.append(SweepRow(
            swept_value=value,
            c_x_tx=scenario.c_x_tx,
            c_x_rx=scenario.c_x_rx,
            c_gb_rx=scenario.c_gb_rx,
            c_l=scenario.c_l,
            c_b=scenario.c_b,
            c_c=scenario.c_c,
            ratio=ratio,
            loss_db=-ratio_to_db(ratio),
            flags=regime_flags(scenario),
            oracle_ratio=oracle_ratio,
            oracle_rel_error=oracle_err,
        ))
    return SweepResult(
        kind=spec.kind,
        swept_name=column,
        rows=tuple(rows),
        include_oracle=spec.include_oracle,
    )


def _format(value: float) -> str:
    return f"{value:.12g}"


def emit_csv(result: SweepResult, destination: str | Path) -> None:
    """Write the sweep as CSV: a header row then one row per step.

    Values are written with 12 significant digits, which re-parse to floats
    that reprint identically (byte-stable round trip).

    Raises:
        OSError: With the destination path in the message.
    """
    header = [result.swept_name, *_CAP_COLUMNS, "ratio", "loss_db", "flags"]
    if result.include_oracle:
        header += list(_ORACLE_COLUMNS)
    try:
        with open(destination, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(header)
            for row in result.rows:
                record = [
                    _format(row.swept_value),
                    _format(row.c_x_tx), _format(row.c_x_rx), _format(row.c_gb_rx),
                    _format(row.c_l), _format(row.c_b), _format(row.c_c),
                    _format(row.ratio), _format(row.loss_db),
                    "|".join(row.flags),
                ]
                if result.include_oracle:
                    record += [_format(row.oracle_ratio), _format(row.oracle_rel_error)]
                writer.writerow(record)
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

    rows = []
    for record in records[1:]:
        if len(record) != len(header):
            raise ValueError(f"{path}: row width {len(record)} != header width {len(header)}")
        flags = tuple(record[9].split("|")) if record[9] else ()
        rows.append(SweepRow(
            swept_value=float(record[0]),
            c_x_tx=float(record[1]), c_x_rx=float(record[2]), c_gb_rx=float(record[3]),
            c_l=float(record[4]), c_b=float(record[5]), c_c=float(record[6]),
            ratio=float(record[7]), loss_db=float(record[8]),
            flags=flags,
            oracle_ratio=float(record[10]) if include_oracle else None,
            oracle_rel_error=float(record[11]) if include_oracle else None,
        ))
    return SweepResult(
        kind=column_to_kind[header[0]],
        swept_name=header[0],
        rows=tuple(rows),
        include_oracle=include_oracle,
    )
