"""`emit_csv` against a cell-by-cell reference formatter.

``emit_csv`` formats a column whose rows are bit-equal once and joins each
distinct flag tuple once; the reference below formats every cell of every
row.  Their bytes must be equal for any columns: varying, constant by value,
stride-0 broadcasts, mixed signed zeros, subnormal or huge values, with and
without the oracle columns.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from hbc_channel import SweepResult, emit_csv, load_config_file, read_sweep_csv, run_sweep
from hbc_channel.sweep import SWEPT_COLUMN, SweepSpec
from hbc_channel.transfer import CAPACITANCE_NAMES

CAP_COLUMNS = tuple(f"{name}_f" for name in CAPACITANCE_NAMES)
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, 1e300, 1e-300)

SETTINGS = settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def reference_csv(result: SweepResult) -> bytes:
    """Header, then ``%.12g`` per numeric cell and ``|``-joined flags per row."""
    header = [result.swept_name, *CAP_COLUMNS, "ratio", "loss_db", "flags"]
    numeric = [result.swept, *result.capacitance.values(), result.ratio, result.loss_db]
    if result.include_oracle:
        header += ["oracle_ratio", "oracle_rel_error"]
        numeric += [result.oracle_ratio, result.oracle_rel_error]
    lines = [",".join(header)]
    for i, flags in enumerate(result.flags):
        cells = ["%.12g" % float(column[i]) for column in numeric]
        cells.insert(9, "|".join(flags))
        lines.append(",".join(cells))
    return "".join(line + "\n" for line in lines).encode()


values = st.one_of(st.floats(), st.sampled_from(SPECIAL))
flag_tuples = st.lists(
    st.sampled_from(["distant", "coupled", "invalid-approximation"]), unique=True
).map(tuple)


@st.composite
def columns(draw, rows: int) -> np.ndarray:
    shape = draw(st.sampled_from(["varying", "constant", "broadcast", "signed-zeros"]))
    if shape == "varying":
        return np.array(draw(st.lists(values, min_size=rows, max_size=rows)))
    if shape == "constant":
        return np.full(rows, draw(values))
    if shape == "broadcast":
        column = np.broadcast_to(np.float64(draw(values)), (rows,))
        assert column.strides == (0,)
        return column
    signs = draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
    return np.array([-0.0 if negative else 0.0 for negative in signs])


@st.composite
def sweep_results(draw) -> SweepResult:
    rows = draw(st.integers(0, 12))
    numeric = [draw(columns(rows)) for _ in range(9)]
    oracle = draw(st.booleans())
    extra = [draw(columns(rows)) for _ in range(2)] if oracle else [None, None]
    return SweepResult(
        swept_name=draw(st.sampled_from(sorted(SWEPT_COLUMN.values()))),
        swept=numeric[0],
        capacitance=dict(zip(CAP_COLUMNS, numeric[1:7])),
        ratio=numeric[7],
        loss_db=numeric[8],
        flags=tuple(draw(st.lists(flag_tuples, min_size=rows, max_size=rows))),
        oracle_ratio=extra[0],
        oracle_rel_error=extra[1],
    )


@SETTINGS
@given(result=sweep_results())
def test_emit_matches_reference_formatter(tmp_path_factory, result):
    out = tmp_path_factory.mktemp("emit") / "sweep.csv"
    emit_csv(result, out)
    assert out.read_bytes() == reference_csv(result)


@SETTINGS
@given(result=sweep_results())
def test_read_then_emit_gives_back_the_bytes(tmp_path_factory, result):
    first = tmp_path_factory.mktemp("emit") / "first.csv"
    second = first.with_name("second.csv")
    emit_csv(result, first)
    emit_csv(read_sweep_csv(first), second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
@pytest.mark.parametrize("config", sorted(p.name for p in CONFIG_DIR.glob("*_sweep.cfg")))
def test_sample_sweeps_match_reference_formatter(tmp_path, config, oracle):
    parsed = load_config_file(CONFIG_DIR / config)
    result = run_sweep(SweepSpec(**parsed.sweep, base=parsed.scenario, include_oracle=oracle))
    out = tmp_path / "sweep.csv"
    emit_csv(result, out)
    assert out.read_bytes() == reference_csv(result)
