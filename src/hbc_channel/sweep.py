"""Parameter sweeps over channel scenarios, with CSV output.

A sweep varies exactly one scenario parameter over a linear range and
records the derived capacitances, the transfer ratio, the loss in dB and the
regime flags per row; the nodal oracle can be added per row on request.  The
sweep itself, :class:`hbc_channel.config.SweepSpec`, is a config section and
is declared with the other sections in :mod:`hbc_channel.config`.

A sweep is evaluated as columns: the swept value is one numpy column, and
one :func:`hbc_channel.config.build_scenario` call, one transfer and flag
pass and, with the oracle, one stacked nodal solve cover every row.  Each
row's numbers are bit-identical to evaluating that row on its own, so the
CSV is too.  Sweeps are deterministic: the same spec always produces
byte-identical CSV.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import SWEEP_KINDS, SweepSpec, build_scenario
from .transfer import (
    CAPACITANCE_NAMES, full_transfer, oracle_ratio, ratio_to_db, regime_flags, relative_error,
)


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


def _evaluate(spec: SweepSpec, values) -> SweepResult:
    """The sweep at ``values``: a column of swept values gives every row.

    A float gives that one row's scalars, which is how a failing row raises
    its own error.  The order of work within a row is the one a row's error
    depends on: scenario, full transfer, oracle, loss.
    """
    column, drive, _ = SWEEP_KINDS[spec.kind]
    scenario = build_scenario(drive(spec.base, values))
    capacitances = {name: getattr(scenario, name) for name in CAPACITANCE_NAMES}
    if isinstance(values, np.ndarray):
        # Quantities the swept value does not reach become constant CSV
        # columns; the scenario keeps them as floats, which broadcast alike.
        capacitances = {n: np.broadcast_to(c, values.shape) for n, c in capacitances.items()}
    ratio = full_transfer(scenario)
    oracle = oracle_error = None
    if spec.include_oracle:
        oracle = oracle_ratio(scenario)
        oracle_error = relative_error(ratio, oracle)
    return SweepResult(
        swept_name=column,
        swept=values,
        capacitance=dict(zip(_CAP_COLUMNS, capacitances.values())),
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
        MemoryError: When the columns cannot be allocated; no row is at fault.
    """
    values = np.linspace(spec.start, spec.stop, spec.steps)
    # Rows are independent, so a slice fails exactly when one of its rows
    # does.  On failure, halve: rows below lo pass and [lo, hi) holds a
    # failing row.  Rows that fail may overflow or divide by zero before
    # their check sees them, in a slice or alone (where a derived value can
    # still be a numpy scalar): numpy stays quiet.
    with np.errstate(all="ignore"):
        try:
            return _evaluate(spec, values)
        except MemoryError:
            raise
        except Exception as exc:
            column_error = exc
        lo, hi = 0, len(values)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                _evaluate(spec, values[lo:mid])
                lo = mid
            except Exception:
                hi = mid
        value = values.tolist()[lo]
        try:
            _evaluate(spec, value)
        except Exception as exc:
            raise SweepStepError(lo, value) from exc
    raise RuntimeError(f"sweep row {lo} failed as a column only") from column_error


def _csv_header(swept_name: str, include_oracle: bool) -> list[str]:
    """The header :func:`emit_csv` writes and :func:`read_sweep_csv` expects."""
    oracle = _ORACLE_COLUMNS if include_oracle else ()
    return [swept_name, *_CAP_COLUMNS, "ratio", "loss_db", "flags", *oracle]


def emit_csv(result: SweepResult, destination: str | Path) -> None:
    """Write the sweep as CSV: a header row then one row per step.

    Values are written with 12 significant digits, which re-parse to floats
    that reprint identically (byte-stable round trip).  A column whose rows
    all equal its first bit for bit is formatted once, into the row template.

    Raises:
        OSError: With the destination path in the message.
    """
    header = _csv_header(result.swept_name, result.include_oracle)
    joined = {flags: "|".join(flags) for flags in set(result.flags)}
    cells, columns = [], []
    for column in result.numeric_columns():
        # Bits, not values, so that -0.0 and 0.0 stay distinct.
        bits = column.view(np.int64)
        if bits.size and (bits == bits[0]).all():
            cells.append("%.12g" % float(column[0]))
        else:
            cells.append("%.12g")
            columns.append(column.tolist())
        if len(cells) == 9:
            # Flags stay a template field, so zip(*columns) yields one tuple
            # per row even when every numeric column is constant.
            cells.append("%s")
            columns.append([joined[flags] for flags in result.flags])
    row_format = ",".join(cells) + "\n"
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
    if header[0] not in SWEPT_COLUMN.values():
        raise ValueError(f"{path}: unknown swept column {header[0]!r}")
    include_oracle = header[-2:] == list(_ORACLE_COLUMNS)
    if header != _csv_header(header[0], include_oracle):
        raise ValueError(f"{path}: unexpected header {header}")

    body = records[1:]
    for record in body:
        if len(record) != len(header):
            raise ValueError(f"{path}: row width {len(record)} != header width {len(header)}")
    numbers = [
        np.array([float(record[i]) for record in body]) for i in range(len(header)) if i != 9
    ]
    return SweepResult(
        swept_name=header[0],
        swept=numbers[0],
        capacitance=dict(zip(_CAP_COLUMNS, numbers[1:7])),
        ratio=numbers[7],
        loss_db=numbers[8],
        flags=tuple(tuple(record[9].split("|")) if record[9] else () for record in body),
        oracle_ratio=numbers[9] if include_oracle else None,
        oracle_rel_error=numbers[10] if include_oracle else None,
    )
