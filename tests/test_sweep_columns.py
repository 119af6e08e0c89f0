"""The column sweep against a row-by-row evaluation of the same sweep.

For every sweep kind, with and without the nodal oracle, every column and
flag tuple from :func:`run_sweep` must equal (``==``, not approximately) what
``build_scenario`` + ``full_transfer`` + ``regime_flags`` + a scalar
``solve_transfer`` give for each row on its own.  Sweeps that fail part way
must name the same step and raise the same cause as the first failing row of
a row-by-row scan.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from hbc_channel import (
    ChannelScenario,
    ConfigError,
    DegenerateScenarioError,
    DeviceGeometry,
    DielectricTable,
    ScenarioConfig,
    ShadowingProfile,
    SideConfig,
    SweepSpec,
    SweepStepError,
    body_capacitance_lookup,
    build_channel_network,
    build_scenario,
    full_transfer,
    plate_to_plate_capacitance,
    ratio_to_db,
    regime_flags,
    relative_error,
    run_sweep,
    shadowing_factor,
    solve_transfer,
)
from hbc_channel.config import body_capacitance
from hbc_channel.sweep import SWEEP_KINDS
from hbc_channel.transfer import oracle_ratio

TABLE = str(CONFIG_DIR / "dielectric_cb.csv")
FIELDS = ("c_x_tx", "c_x_rx", "c_gb_rx", "c_l", "c_b", "c_c")

SETTINGS = settings(
    max_examples=30, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def between(data, low, high):
    return data.draw(st.floats(low, high, allow_nan=False, allow_infinity=False))


def anchors(data, last=1.0):
    """Profile anchors from s = 0 to s = ``last``."""
    inner = sorted(set(data.draw(st.lists(st.floats(0.1 * last, 0.9 * last), max_size=3))))
    coords = [0.0, *inner, last]
    return tuple((s, between(data, 0.2, 1.0)) for s in coords)


def device(data, **extra):
    return SideConfig(
        radius_m=between(data, 0.005, 0.05), plate_separation_m=between(data, 0.002, 0.01),
        **extra,
    )


def receiver_extras(data):
    return dict(fringe_f=between(data, 0.0, 2e-12), load_f=between(data, 1e-12, 30e-12))


def base_and_range(data, kind):
    """A valid base config for ``kind`` and a range whose every row evaluates."""
    frequency = between(data, 1e4, 1e6)
    c_b = between(data, 50e-12, 500e-12)
    if kind == "separation":
        decouple = between(data, 0.2, 0.8)
        base = ScenarioConfig(
            tx=device(data, shadowing_x=between(data, 0.2, 1.0)),
            rx=device(data, shadowing_x=between(data, 0.2, 1.0), **receiver_extras(data)),
            c_b_f=c_b, k_f_per_m=between(data, 0.5e-12, 5e-12), decouple_m=decouple,
            frequency_hz=frequency,
        )
        # The range crosses decouple_m: rows on both sides of the cutoff.
        return base, between(data, 0.01, 0.9 * decouple), between(data, 1.1 * decouple, 2.0)
    if kind in ("radius", "device_area"):
        plates = dict(plate_separation_m=between(data, 0.002, 0.01))
        link = data.draw(st.sampled_from(["law", "direct"]))
        base = ScenarioConfig(
            tx=SideConfig(shadowing_x=between(data, 0.2, 1.0), **plates),
            rx=SideConfig(shadowing_x=between(data, 0.2, 1.0), **plates, **receiver_extras(data)),
            c_b_f=c_b,
            k_f_per_m=between(data, 0.5e-12, 5e-12) if link == "law" else None,
            separation_m=between(data, 0.02, 0.8) if link == "law" else None,
            coupling_f=None if link == "law" else between(data, 0.0, 100e-15),
            frequency_hz=frequency,
        )
        if kind == "radius":
            start = between(data, 0.005, 0.03)
            return base, start, start + between(data, 0.001, 0.05)
        start = between(data, 1e-4, 2e-3)
        return base, start, start * between(data, 1.1, 5.0)
    if kind in ("tx_position", "rx_position"):
        swept, other = ("tx", "rx") if kind == "tx_position" else ("rx", "tx")
        # Either the other device sits beyond the swept range (separation
        # from positions, coupling from the law) or coupling is direct.
        positioned = data.draw(st.booleans())
        sides = {
            swept: device(data),
            other: device(
                data, **({"position_s": between(data, 0.95, 1.0)} if positioned
                         else {"shadowing_x": between(data, 0.2, 1.0)})),
        }
        sides["rx"] = replace(sides["rx"], **receiver_extras(data))
        base = ScenarioConfig(
            tx=sides["tx"], rx=sides["rx"], c_b_f=c_b, segment="arm",
            shadowing_anchors=anchors(data), segment_length_m=between(data, 0.3, 0.9),
            k_f_per_m=between(data, 0.5e-12, 5e-12) if positioned else None,
            coupling_f=None if positioned else between(data, 0.0, 100e-15),
            frequency_hz=frequency,
        )
        start = between(data, 0.0, 0.5)
        return base, start, start + between(data, 0.05, 0.9 - start)
    assert kind == "dielectric_thickness"
    base = ScenarioConfig(
        tx=SideConfig(return_path_f=between(data, 0.1e-12, 1.5e-12)),
        rx=SideConfig(
            return_path_f=between(data, 0.1e-12, 1.5e-12),
            ground_body_f=between(data, 1e-12, 8e-12), load_f=between(data, 1e-12, 30e-12),
        ),
        dielectric_table=TABLE, coupling_f=between(data, 0.0, 150e-15), frequency_hz=frequency,
    )
    start = between(data, 0.1, 0.5)
    return base, start, between(data, start + 0.01, 0.6)


def evaluate_row(spec, value):
    """One row as the scalar functions give it, in the order a row fails."""
    _, drive, _ = SWEEP_KINDS[spec.kind]
    scenario = build_scenario(drive(spec.base, value))
    ratio = full_transfer(scenario)
    row = {name: getattr(scenario, name) for name in FIELDS}
    if spec.include_oracle:
        row["oracle_ratio"] = solve_transfer(build_channel_network(scenario)).ratio
        row["oracle_rel_error"] = relative_error(ratio, row["oracle_ratio"])
    row.update(ratio=ratio, loss_db=-ratio_to_db(ratio), flags=regime_flags(scenario))
    return row


def first_failure(spec):
    """(step, cause) of the first row that fails, scanning row by row."""
    for step, value in enumerate(np.linspace(spec.start, spec.stop, spec.steps).tolist()):
        try:
            evaluate_row(spec, value)
        except Exception as exc:  # noqa: BLE001 - any row error is the expectation
            return step, exc
    return None, None


@pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
@pytest.mark.parametrize("kind", sorted(SWEEP_KINDS))
@SETTINGS
@given(data=st.data())
def test_columns_equal_row_by_row_evaluation(kind, oracle, data):
    base, start, stop = base_and_range(data, kind)
    steps = data.draw(st.integers(2, 25))
    spec = SweepSpec(kind=kind, start=start, stop=stop, steps=steps, base=base,
                     include_oracle=oracle)
    result = run_sweep(spec)
    values = np.linspace(start, stop, steps).tolist()
    rows = [evaluate_row(spec, value) for value in values]

    assert result.swept.tolist() == values
    for name in FIELDS:
        assert result.capacitance[f"{name}_f"].tolist() == [row[name] for row in rows], name
    assert result.ratio.tolist() == [row["ratio"] for row in rows]
    assert result.loss_db.tolist() == [row["loss_db"] for row in rows]
    assert list(result.flags) == [row["flags"] for row in rows]
    if oracle:
        assert result.oracle_ratio.tolist() == [row["oracle_ratio"] for row in rows]
        assert result.oracle_rel_error.tolist() == [row["oracle_rel_error"] for row in rows]
    else:
        assert not result.include_oracle


def failing_spec(data, how, oracle):
    """A sweep whose rows start failing part way (or from row 0)."""
    steps = data.draw(st.integers(3, 25))
    if how == "coinciding_positions":
        base, start, stop = base_and_range(data, "rx_position")
        values = np.linspace(start, stop, steps).tolist()
        at = values[data.draw(st.integers(0, steps - 1))]
        tx = replace(base.tx, position_s=at, shadowing_x=None)
        base = replace(base, tx=tx, k_f_per_m=2e-12, coupling_f=None)
        return SweepSpec("rx_position", start, stop, steps, base, oracle)
    if how == "beyond_table":
        base, start, _ = base_and_range(data, "dielectric_thickness")
        return SweepSpec("dielectric_thickness", start, between(data, 0.61, 0.9), steps, base,
                         oracle)
    if how == "beyond_profile":
        base, start, stop = base_and_range(data, "tx_position")
        last = between(data, start + 0.01, stop - 0.01)
        base = replace(base, shadowing_anchors=anchors(data, last))
        return SweepSpec("tx_position", start, stop, steps, base, oracle)
    if how == "degenerate_beyond_cutoff":
        # Tiny direct capacitances: only the coupling keeps the full-form
        # denominator above the degenerate limit, until d >= decouple_m.
        tiny = between(data, 1e-22, 1e-21)
        base = ScenarioConfig(
            tx=SideConfig(radius_m=0.03, plate_separation_m=0.005, return_path_f=tiny),
            rx=SideConfig(return_path_f=tiny, ground_body_f=tiny, load_f=tiny),
            c_b_f=1e-10, k_f_per_m=2e-12, decouple_m=0.5,
        )
        return SweepSpec("separation", between(data, 0.05, 0.45), between(data, 0.55, 1.5),
                         steps, base, oracle)
    if how == "overflowing_coupling_beyond_cutoff":
        # Wholly beyond the cutoff, with a coupling law that overflows: the
        # law runs on every row, so row 0 fails, as a column and on its own.
        base = ScenarioConfig(
            tx=SideConfig(radius_m=1e5, plate_separation_m=0.005, shadowing_x=0.5),
            rx=SideConfig(radius_m=1e5, plate_separation_m=0.005, shadowing_x=0.5,
                          fringe_f=0.75e-12, load_f=10e-12),
            c_b_f=150.838e-12, k_f_per_m=between(data, 1e298, 1e300),
        )
        return SweepSpec("separation", between(data, 0.5, 0.9), between(data, 0.95, 2.0),
                         steps, base, oracle)
    assert how == "inconsistent_coupling"
    base, start, stop = base_and_range(data, "radius")
    base = replace(base, k_f_per_m=2e-12, separation_m=0.1,
                   coupling_f=between(data, 1e-15, 100e-15))
    return SweepSpec("radius", start, stop, steps, base, oracle)


@pytest.mark.parametrize("oracle", [False, True], ids=["plain", "oracle"])
@pytest.mark.parametrize("how", [
    "coinciding_positions", "beyond_table", "beyond_profile", "degenerate_beyond_cutoff",
    "inconsistent_coupling", "overflowing_coupling_beyond_cutoff",
])
@SETTINGS
@given(data=st.data())
def test_failing_sweep_names_first_failing_row(how, oracle, data):
    spec = failing_spec(data, how, oracle)
    step, cause = first_failure(spec)
    assert step is not None
    with pytest.raises(SweepStepError) as info:
        run_sweep(spec)
    assert info.value.step == step
    assert info.value.value == np.linspace(spec.start, spec.stop, spec.steps).tolist()[step]
    assert type(info.value.__cause__) is type(cause)
    assert str(info.value.__cause__) == str(cause)


SMALL_TABLE = DielectricTable(((0.3, 2e-10), (0.5, 1e-10)))
DIRECT_SIDES = dict(
    tx=SideConfig(return_path_f=1e-12, position_s=np.array([0.5, 0.7])),
    rx=SideConfig(return_path_f=1e-12, ground_body_f=3e-12, load_f=1e-11, position_s=0.5),
)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: full_transfer(ChannelScenario(np.array([1e-12, 1e-25]), 1e-25, 1e-25, 1e-25,
                                               1e-10, 0.0)), DegenerateScenarioError),
        (lambda: body_capacitance(ScenarioConfig(
            c_b_f=1.899e-10, dielectric_thickness_m=np.array([0.3, 0.4]),
            dielectric_table=TABLE)), ConfigError),
        (lambda: build_scenario(ScenarioConfig(
            **DIRECT_SIDES, c_b_f=1e-10, coupling_f=0.0, segment_length_m=0.65)), ConfigError),
        (lambda: shadowing_factor(np.array([0.5, 0.95]),
                                  ShadowingProfile("arm", ((0.1, 0.3), (0.9, 0.5)))), ValueError),
        (lambda: shadowing_factor(np.array([0.5, 1.5]),
                                  ShadowingProfile("arm", ((0.1, 0.3), (0.9, 0.5)))), ValueError),
        (lambda: body_capacitance_lookup(np.array([0.4, 9.0]), SMALL_TABLE), ValueError),
        (lambda: body_capacitance_lookup(np.array([0.4, np.inf]), SMALL_TABLE), ValueError),
        (lambda: ChannelScenario(np.array([1e-12, -1e-12]), 1e-12, 3e-12, 1e-11, 1e-10, 0.0),
         ValueError),
        (lambda: ChannelScenario(1e-12, 1e-12, 1e-12, 1e-12, 1e-10, np.array([0.0, -1e-15])),
         ValueError),
        # The numerator underflows to 0 on the middle row only.
        (lambda: full_transfer(ChannelScenario(np.array([1e-12, 1e-300, 1e-12]), 1e-30, 3e-12,
                                               1e-11, 1e-10, 0.0)), DegenerateScenarioError),
        (lambda: oracle_ratio(ChannelScenario(np.array([1e-12, 1e-200]), 1e-200, 3e-12, 1e-11,
                                              1e-10, 0.0)), DegenerateScenarioError),
        # eps0*pi*a^2/t overflows on the second row.
        (lambda: plate_to_plate_capacitance(DeviceGeometry(np.array([0.03, 1e150]), 1e-300)),
         ValueError),
    ],
    ids=["checked-ratio", "pick", "separation", "shadowing", "shadowing-outside-unit",
         "table-lookup", "table-lookup-inf", "positive", "nonnegative",
         "checked-ratio-underflow", "oracle-ratio", "law-overflow"],
)
def test_failing_column_raises_documented_error(call, error):
    """A check that fails on a column passed straight to a model function
    raises the function's own error, whose message names no row."""
    with pytest.raises(error, match="some row"):
        call()
