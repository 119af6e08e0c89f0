"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are pinned here and nowhere else; every expected number was
computed independently (exact rational arithmetic for the closed forms, the
hand-derived supernode elimination for the nodal circuit) before being
frozen.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import CONFIG_DIR, make_random_network, reference_channel_ratio
from hbc_channel import (
    CapNetwork,
    ChannelScenario,
    CouplingConstant,
    DeviceGeometry,
    SweepSpec,
    body_potential_ratio,
    build_channel_network,
    calibrate_coupling_constant,
    coupling_capacitance,
    default_frequency_grid,
    emit_csv,
    extract_body_capacitance,
    extract_return_path,
    full_transfer,
    geometric_transfer,
    ground_to_body_capacitance,
    load_config_file,
    plate_to_plate_capacitance,
    read_sweep_csv,
    return_path_capacitance,
    run_sweep,
    rx_transfer_distant,
    simplified_transfer,
    solve_transfer,
    ResonanceCircuit,
)


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {number} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def box_draw(rng):
    cxt, cxr = (float(v) for v in rng.uniform(0.1e-12, 1e-12, 2))
    return dict(
        c_x_tx=cxt,
        c_x_rx=cxr,
        c_gb_rx=float(rng.uniform(2e-12, 6e-12)),
        c_l=float(rng.uniform(5e-12, 20e-12)),
        c_b=float(rng.uniform(100e-12, 200e-12)),
        c_c=float(rng.uniform(0.0, 100e-15)),
    )


def test_criterion_1_oracle_agreement():
    """Closed form vs nodal solve over 1000 regime draws.

    The two differ only by a denominator cross term that swaps the Tx and Rx
    return paths, which is provably bounded by ~12.7% at the box corner and
    vanishes for matched devices; agreement is asserted on the median (with
    the analytic corner bound as a hard per-draw cap) and the median is
    reported.
    """
    rng = np.random.default_rng(20260811)
    started = time.perf_counter()
    errors = []
    for _ in range(1000):
        draw = box_draw(rng)
        closed = full_transfer(ChannelScenario(**draw))
        net = build_channel_network(**draw)
        oracle = solve_transfer(net).ratio
        errors.append(abs(closed - oracle) / max(abs(closed), abs(oracle)))
    elapsed = time.perf_counter() - started
    errors = np.asarray(errors)
    median = float(np.median(errors))
    worst = float(errors.max())
    ok = median <= 0.05 and worst <= 0.13 and elapsed < 5.0
    report(
        1, "oracle agreement", ok,
        f"median error {median:.4%} (<= 5%), max {worst:.4%} (<= analytic corner "
        f"bound 13%), 1000 draws in {elapsed:.2f} s (< 5 s)",
    )


def test_criterion_2_regime_approximation():
    """Distant product form vs full form at zero coupling."""
    default = ChannelScenario(
        c_x_tx=0.5e-12, c_x_rx=0.5e-12, c_gb_rx=3e-12, c_l=10e-12,
        c_b=150.838e-12, c_c=0.0,
    )
    distant = rx_transfer_distant(default)
    full = full_transfer(default)
    gap = abs(distant - full) / max(distant, full)
    in_band = 0.043 - 0.005 <= gap <= 0.043 + 0.005

    rng = np.random.default_rng(2)
    bound_ok = True
    for _ in range(1000):
        draw = box_draw(rng)
        draw["c_c"] = 0.0
        s = ChannelScenario(**draw)
        err = abs(rx_transfer_distant(s) - full_transfer(s)) / full_transfer(s)
        bound = 2 * max(s.c_x_tx, s.c_x_rx) * (1 / (s.c_l + s.c_gb_rx) + 1 / s.c_b)
        if err > bound:
            bound_ok = False
            break
    ok = in_band and bound_ok
    report(
        2, "regime approximation", ok,
        f"default-scenario gap {gap:.4%} within 4.3% +/- 0.5%; analytic bound "
        f"held on 1000 box draws: {bound_ok}",
    )


def test_criterion_3_resonance_pipeline():
    """Synthetic extraction recovers the reference body capacitance."""
    circuit = ResonanceCircuit(1e-3, 150.838e-12, 10.0)
    recovered, f_r, _ = extract_body_capacitance(circuit)
    f_err = abs(f_r - 409.8e3) / 409.8e3
    c_err = abs(recovered - circuit.capacitance_true) / circuit.capacitance_true

    rng = np.random.default_rng(3)
    grid = default_frequency_grid()
    worst_round_trip = 0.0
    for _ in range(100):
        c_true = float(rng.uniform(50e-12, 500e-12))
        got, _, _ = extract_body_capacitance(ResonanceCircuit(1e-3, c_true, 10.0), grid)
        worst_round_trip = max(worst_round_trip, abs(got - c_true) / c_true)
    ok = f_err < 1e-3 and c_err < 1e-3 and worst_round_trip < 5e-3
    report(
        3, "resonance pipeline", ok,
        f"f_r {f_r:.1f} Hz ({f_err:.3%} from 409.8 kHz, < 0.1%), C error "
        f"{c_err:.3%} (< 0.1%), worst of 100 round trips {worst_round_trip:.3%} "
        f"(< 0.5%)",
    )


def test_criterion_4_reference_anchors():
    """Plate capacitance and coupling-constant calibration anchors."""
    geom = DeviceGeometry(radius_a=0.03, thickness_t=0.03**2 / 0.08087)
    c_pp = plate_to_plate_capacitance(geom)
    pp_err = abs(c_pp - 2.25e-12) / 2.25e-12

    area = 30e-4
    k = calibrate_coupling_constant(60e-15, 0.1, area)
    device = DeviceGeometry(radius_a=float(np.sqrt(area / np.pi)), thickness_t=0.005)
    reproduced = coupling_capacitance(device, 0.1, k)
    cc_err = abs(reproduced - 60e-15) / 60e-15

    ok = pp_err < 0.01 and cc_err < 1e-9
    report(
        4, "reference anchors", ok,
        f"C_PP {c_pp * 1e12:.4f} pF ({pp_err:.3%} from 2.25 pF, < 1%); calibrated "
        f"coupling round trip error {cc_err:.2e} (< 1e-9)",
    )


def test_criterion_5_trend_reproduction():
    """Sweep shapes: separation knee, area/radius linearity, arm loss peak."""
    def timed_sweep(config_name):
        parsed = load_config_file(CONFIG_DIR / config_name)
        spec = SweepSpec(
            kind=parsed.sweep.kind, start=parsed.sweep.start, stop=parsed.sweep.stop,
            steps=parsed.sweep.steps, base=parsed.scenario,
        )
        started = time.perf_counter()
        result = run_sweep(spec)
        return result, time.perf_counter() - started

    separation, t_sep = timed_sweep("separation_sweep.cfg")
    d = separation.swept
    losses = separation.loss_db
    far = losses[d >= 0.5]
    near = losses[d < 0.5]
    sep_ok = (far.max() - far.min() < 1.0) and all(
        b > a for a, b in zip(near, near[1:])
    )

    area, t_area = timed_sweep("area_sweep.cfg")
    a_vals = area.swept
    c_c = area.capacitance["c_c_f"]
    slope = (a_vals @ c_c) / (a_vals @ a_vals)
    area_residual = float(np.max(np.abs(c_c - slope * a_vals)) / np.max(c_c))
    area_ok = area_residual < 1e-9

    radius, t_rad = timed_sweep("radius_sweep.cfg")
    r_vals = radius.swept
    radius_ok = True
    for column in ("c_x_tx_f", "c_x_rx_f"):
        values = radius.capacitance[column]
        slope = (r_vals @ values) / (r_vals @ r_vals)
        if float(np.max(np.abs(values - slope * r_vals)) / np.max(values)) >= 1e-9:
            radius_ok = False

    arm, t_arm = timed_sweep("arm_sweep.cfg")
    arm_losses = arm.loss_db
    peak = int(np.argmax(arm_losses))
    arm_ok = 0 < peak < len(arm_losses) - 1

    timing_ok = max(t_sep, t_area, t_rad, t_arm) < 1.0
    ok = sep_ok and area_ok and radius_ok and arm_ok and timing_ok
    report(
        5, "trend reproduction", ok,
        f"(a) flat band {far.max() - far.min():.3f} dB (< 1 dB) + monotone knee: "
        f"{sep_ok}; (b) area-linearity residual {area_residual:.1e} (< 1e-9); "
        f"(c) radius linearity: {radius_ok}; (d) interior arm loss peak at row "
        f"{peak}/{len(arm_losses) - 1}: {arm_ok}; slowest sweep "
        f"{max(t_sep, t_area, t_rad, t_arm):.3f} s (< 1 s)",
    )


def test_criterion_6_algebraic_identities():
    """Geometric/composed consistency, divider inversion, exact reduction."""
    rng = np.random.default_rng(6)
    k = CouplingConstant(2e-12)
    worst_compose = 0.0
    for _ in range(100):
        geom = DeviceGeometry(
            float(rng.uniform(0.005, 0.05)), float(rng.uniform(0.001, 0.01))
        )
        x_tx, x_rx = (float(v) for v in rng.uniform(0.1, 1.0, 2))
        c_f = float(rng.uniform(0.0, 2e-12))
        c_l = float(rng.uniform(5e-12, 20e-12))
        c_b = float(rng.uniform(100e-12, 200e-12))
        d = float(rng.uniform(0.02, 2.0))
        composed = ChannelScenario(
            c_x_tx=return_path_capacitance(geom, x_tx),
            c_x_rx=return_path_capacitance(geom, x_rx),
            c_gb_rx=ground_to_body_capacitance(plate_to_plate_capacitance(geom), c_f),
            c_l=c_l, c_b=c_b,
            c_c=coupling_capacitance(geom, d, k),
        )
        direct = geometric_transfer(
            geom, geom, x_tx=x_tx, x_rx=x_rx, c_f=c_f, c_l=c_l, c_b=c_b,
            distant=False, d=d, k=k,
        )
        worst_compose = max(
            worst_compose,
            abs(direct - simplified_transfer(composed)) / direct,
        )
    compose_ok = worst_compose < 1e-12

    worst_invert = 0.0
    for _ in range(100):
        c_return = float(10 ** rng.uniform(-13.5, -12.0))
        c_b = float(rng.uniform(100e-12, 200e-12))
        back = extract_return_path(body_potential_ratio(c_return, c_b), c_b)
        worst_invert = max(worst_invert, abs(back - c_return) / c_return)
    invert_ok = worst_invert < 1e-12

    exact_ok = True
    for _ in range(100):
        draw = box_draw(rng)
        draw["c_c"] = 0.0
        s = ChannelScenario(**draw)
        if simplified_transfer(s) != rx_transfer_distant(s):
            exact_ok = False
            break

    ok = compose_ok and invert_ok and exact_ok
    report(
        6, "algebraic identities", ok,
        f"geometric-vs-composed worst {worst_compose:.2e} (< 1e-12); divider "
        f"inversion worst {worst_invert:.2e} (< 1e-12); simplified == distant "
        f"at zero coupling bitwise: {exact_ok}",
    )


def test_criterion_7_solver_properties():
    """Scale invariance on 100 random networks."""
    rng = np.random.default_rng(20260811)
    worst_scale = 0.0
    for _ in range(100):
        net = make_random_network(rng)
        r1 = solve_transfer(net).ratio
        lam = float(10 ** rng.uniform(-2, 2))
        scaled = CapNetwork(
            net.node_count, net.reference_node,
            tuple((i, j, c * lam) for i, j, c in net.branches),
            net.source, net.output,
        )
        r3 = solve_transfer(scaled).ratio
        worst_scale = max(worst_scale, abs(r1 - r3) / abs(r1))
    ok = worst_scale < 1e-12
    report(
        7, "solver properties", ok,
        f"worst scale-invariance drift {worst_scale:.2e} (< 1e-12, 100 networks "
        "of <= 8 nodes)",
    )


def test_criterion_8_cli_contract(tmp_path):
    """Shipped sample config through the CLI; byte-stable sweep CSV."""
    proc = subprocess.run(
        [sys.executable, "-m", "hbc_channel", "eval",
         str(CONFIG_DIR / "sample_geometric.cfg"), "--json"],
        capture_output=True, text=True,
    )
    payload = json.loads(proc.stdout)
    value = payload["ratios"]["geometric_distant"]
    value_err = abs(value - 4.750e-4) / 4.750e-4
    db = -payload["loss_db"]["geometric_distant"]
    eval_ok = proc.returncode == 0 and value_err < 1e-4 and abs(db + 66.5) < 0.05

    out = tmp_path / "sweep.csv"
    proc2 = subprocess.run(
        [sys.executable, "-m", "hbc_channel", "sweep",
         str(CONFIG_DIR / "separation_sweep.cfg"), "--out", str(out)],
        capture_output=True, text=True,
    )
    original = out.read_bytes()
    reemitted = tmp_path / "reemitted.csv"
    emit_csv(read_sweep_csv(out), reemitted)
    csv_ok = proc2.returncode == 0 and reemitted.read_bytes() == original

    ok = eval_ok and csv_ok
    report(
        8, "CLI contract", ok,
        f"eval geometric-distant ratio {value:.6e} ({value_err:.2e} from "
        f"4.750e-4, < 0.01%), loss {-db:.2f} dB; sweep CSV parser round trip "
        f"byte-stable: {csv_ok}",
    )
