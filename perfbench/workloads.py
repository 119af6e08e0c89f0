"""Seeded inputs and operations of the three benchmark workloads.

Every workload is a closed loop with one client: an operation starts only
after the previous one ended, and at most one child process runs at a time.
A run executes whole cycles; each cycle holds a fixed mix of operation
classes in a seeded order, so every seed measures the same mix.

The generators draw only valid inputs (thickness inside the dielectric
table's range, no key that pins a sweep's swept parameter, anchors present
for position sweeps, frequency at most 1 MHz).  An error raised while
building one of them is a generator bug, not a program failure.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from checks import OUT_CSV, WORK_DIR

TABLE_CSV = "configs/dielectric_cb.csv"
BULK_SWEEP_ROWS = 1000


@dataclass
class Op:
    """One timed operation and the check of its output.

    ``run`` is None for ``cli_oneshot``: the runner spawns ``argv`` as a child.
    """

    label: str
    rows: int
    oracle: bool
    run: Callable[[], object]
    check: Callable[[object], None]
    argv: list[str] = field(default_factory=list)


def read_table():
    thicknesses, capacitances = [], []
    for line in Path(TABLE_CSV).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("thickness"):
            continue
        t, c = line.split(",")
        thicknesses.append(float(t))
        capacitances.append(float(c))
    return thicknesses, capacitances


def write_config(path: str, sections: dict[str, dict[str, object]]) -> str:
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}"
                  for key, value in keys.items()]
        lines.append("")
    Path(path).write_text("\n".join(lines))
    return path


def draw_anchors(rng: random.Random):
    """Shadowing profile over the whole segment, s = 0 and s = 1 included."""
    inner = sorted(rng.uniform(0.05, 0.95) for _ in range(rng.randint(1, 3)))
    coords = [0.0, *inner, 1.0]
    values = [rng.uniform(0.3, 0.9) for _ in coords]
    return coords, values


def anchors_text(coords, values) -> str:
    return ", ".join(f"{s!r}:{x!r}" for s, x in zip(coords, values))


def draw_device(rng: random.Random):
    return rng.uniform(0.01, 0.04), rng.uniform(0.002, 0.008)


def draw_rx_extras(rng: random.Random):
    return {"fringe_f": rng.uniform(0.2e-12, 1.5e-12), "load_f": rng.uniform(5e-12, 20e-12)}


def draw_direct_values(rng: random.Random):
    """Directly given channel capacitances in the model's physical range."""
    return {
        "tx": {"return_path_f": rng.uniform(0.1e-12, 1.5e-12)},
        "rx": {"return_path_f": rng.uniform(0.1e-12, 1.5e-12),
               "ground_body_f": rng.uniform(1e-12, 8e-12),
               "load_f": rng.uniform(5e-12, 20e-12)},
        "body": {"c_b_f": rng.uniform(100e-12, 460e-12)},
        "link": {"coupling_f": rng.choice([0.0, rng.uniform(1e-15, 150e-15)])},
        "channel": {"frequency_hz": rng.uniform(10e3, 1e6)},
    }


def draw_geometric_table(rng: random.Random, table_path: str):
    """Geometry with shadowing fractions, body capacitance from the table."""
    radius, plate = draw_device(rng)
    return {
        "tx": {"radius_m": radius, "plate_separation_m": plate,
               "shadowing_x": rng.uniform(0.3, 0.9)},
        "rx": {"radius_m": radius, "plate_separation_m": plate,
               "shadowing_x": rng.uniform(0.3, 0.9), **draw_rx_extras(rng)},
        "body": {"dielectric_thickness_m": rng.uniform(0.10, 0.60),
                 "dielectric_table": table_path},
        "link": {"k_f_per_m": rng.uniform(1e-12, 3e-12),
                 "separation_m": rng.uniform(0.05, 0.45)},
        "channel": {"frequency_hz": rng.uniform(10e3, 1e6)},
    }


def draw_geometric_profile(rng: random.Random):
    """Geometry with body positions: shadowing from a profile, separation
    from the positions."""
    radius, plate = draw_device(rng)
    coords, values = draw_anchors(rng)
    tx_s = rng.uniform(0.0, 0.45)
    rx_s = rng.uniform(0.55, 1.0)
    return {
        "tx": {"radius_m": radius, "plate_separation_m": plate, "position_s": tx_s},
        "rx": {"radius_m": radius, "plate_separation_m": plate, "position_s": rx_s,
               **draw_rx_extras(rng)},
        "body": {"c_b_f": rng.uniform(100e-12, 460e-12), "segment": "arm",
                 "shadowing_anchors": anchors_text(coords, values),
                 "segment_length_m": rng.uniform(0.4, 0.9)},
        "link": {"k_f_per_m": rng.uniform(1e-12, 3e-12)},
        "channel": {"frequency_hz": rng.uniform(10e3, 1e6)},
    }


def draw_circuit(rng: random.Random):
    """Resonance circuit whose peak lies well inside the default grid."""
    return (10 ** rng.uniform(math.log10(0.5e-3), math.log10(5e-3)),
            rng.uniform(100e-12, 460e-12), rng.uniform(5.0, 20.0))


@dataclass
class SweepCase:
    """A generated sweep config and what its CSV must satisfy."""

    name: str
    kind: str
    column: str
    start: float
    stop: float
    steps: int
    oracle: bool
    k: float = 0.0
    radius: float = 0.0
    separation: float = 0.0
    decouple_m: float = 0.0
    table: tuple = ()
    anchors: tuple = ()


def draw_sweep(rng: random.Random, kind: str, oracle: bool, steps: int, path: str,
               table) -> SweepCase:
    """One valid sweep config of ``kind``; no key pins the swept parameter."""
    radius, plate = draw_device(rng)
    k = rng.uniform(1e-12, 3e-12)
    rx_extras = draw_rx_extras(rng)
    c_b = rng.uniform(100e-12, 460e-12)
    shadowed = {"plate_separation_m": plate, "shadowing_x": rng.uniform(0.3, 0.9)}
    case = SweepCase(name=Path(path).stem, kind=kind, column="", start=0.0, stop=0.0,
                     steps=steps, oracle=oracle, k=k, radius=radius)
    if kind == "separation":
        # The range crosses decouple_m: rows on both sides of the cutoff.
        case.decouple_m = rng.uniform(0.35, 0.6)
        case.column = "separation_m"
        case.start = rng.uniform(0.05, 0.25)
        case.stop = rng.uniform(case.decouple_m + 0.2, 1.5)
        sections = {
            "tx": {"radius_m": radius, **shadowed},
            "rx": {"radius_m": radius, **shadowed, **rx_extras},
            "body": {"c_b_f": c_b},
            "link": {"k_f_per_m": k, "decouple_m": case.decouple_m},
        }
    elif kind == "rx_position":
        # The transmitter sits beyond the swept range, so no row puts both
        # devices at one position.
        coords, values = draw_anchors(rng)
        case.anchors = (coords, values)
        case.column = "rx_position_s"
        case.start = rng.uniform(0.0, 0.2)
        case.stop = rng.uniform(0.7, 0.9)
        sections = {
            "tx": {"radius_m": radius, "plate_separation_m": plate,
                   "position_s": rng.uniform(0.95, 1.0)},
            "rx": {"radius_m": radius, "plate_separation_m": plate, **rx_extras},
            "body": {"c_b_f": c_b, "segment": "arm",
                     "shadowing_anchors": anchors_text(coords, values),
                     "segment_length_m": rng.uniform(0.4, 0.9)},
            "link": {"k_f_per_m": k},
        }
    elif kind == "dielectric_thickness":
        case.table = table
        case.column = "dielectric_thickness_m"
        case.start = rng.uniform(table[0][0], 0.2)
        case.stop = rng.uniform(0.45, table[0][-1])
        direct = draw_direct_values(rng)
        sections = {
            "tx": direct["tx"], "rx": direct["rx"],
            "body": {"dielectric_table": os.path.abspath(TABLE_CSV)},
            "link": direct["link"],
        }
    else:  # device_area
        case.separation = rng.uniform(0.03, 0.3)
        case.column = "area_m2"
        case.start = rng.uniform(3e-4, 8e-4)
        case.stop = rng.uniform(2e-3, 4e-3)
        sections = {
            "tx": dict(shadowed),
            "rx": {**shadowed, **rx_extras},
            "body": {"c_b_f": c_b},
            "link": {"k_f_per_m": k, "separation_m": case.separation},
        }
    sections["channel"] = {"frequency_hz": rng.uniform(10e3, 1e6)}
    sections["sweep"] = {"kind": kind, "min": case.start, "max": case.stop, "steps": steps}
    write_config(path, sections)
    return case


def expect_exit_zero(code, what):
    if code != 0:
        raise checks.CheckFailed(f"{what}: exit code {code}")


# ----------------------------------------------------------------------------
# cli_oneshot: each operation is a fresh `python -m hbc_channel` process.
# Chosen because each call's sub-millisecond model work sits behind the
# interpreter start and the package import, so start-up work shows here and
# nowhere else.

def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stem="child", env=None):
    """Run one child to completion, its output in files under the work dir.

    Returns (exit code, stdout, stderr, resource usage of the child).
    """
    out_path, err_path = f"{WORK_DIR}/{stem}.out", f"{WORK_DIR}/{stem}.err"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(argv[0], argv, env or child_env(), file_actions=[
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ])
    _, status, usage = os.wait4(pid, 0)
    return (os.waitstatus_to_exitcode(status), Path(out_path).read_bytes(),
            Path(err_path).read_bytes(), usage)


def cli_cycle(rng: random.Random, index: int) -> list[Op]:
    """Ten calls: the two sample evals, two generated evals (one geometric,
    one direct), the sample resonance and the five sample sweeps, with
    ``--oracle`` on every other cycle."""
    ops = []
    for name, argv, compares_stdout, compares_csv in checks.golden_cases():
        if name.startswith("sweep_") and name.endswith("_oracle") != bool(index % 2):
            continue
        oracle = argv[0] == "eval" or "--oracle" in argv
        rows = 1
        if argv[0] == "sweep":
            rows = checks.golden_bytes(name, "csv").count(b"\n") - 1

        def check(output, name=name, compares_stdout=compares_stdout,
                  compares_csv=compares_csv, argv=argv):
            code, stdout = output
            expect_exit_zero(code, name)
            checks.check_golden(name, compares_stdout, compares_csv, stdout)
            if name.startswith("eval_"):
                checks.check_eval_json(json.loads(stdout), argv[1])

        ops.append(Op(name, rows, oracle, None, check, argv))
    for label, draw in (("geometric", lambda: draw_geometric_table(rng, os.path.abspath(TABLE_CSV))),
                        ("direct", lambda: draw_direct_values(rng))):
        path = write_config(f"{WORK_DIR}/cli_{label}_{index}.cfg", draw())

        def check(output, path=path):
            code, stdout = output
            expect_exit_zero(code, path)
            checks.check_eval_json(json.loads(stdout), path)

        ops.append(Op(f"eval_generated_{label}", 1, True, None, check,
                      ["eval", path, "--json"]))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------------
# bulk_sweep: in-process `cli.main(["sweep", cfg, "--out", csv])` on seeded
# configs of BULK_SWEEP_ROWS rows, half with --oracle.  Chosen because one
# parse feeds many scenario rebuilds, closed forms, optional nodal solves and
# CSV rows: the per-row path.  Import is paid before timing.

SWEEP_KINDS = ("separation", "rx_position", "dielectric_thickness", "device_area")


def bulk_cycle(rng: random.Random, index: int, package, table) -> list[Op]:
    """One sweep of each kind with and without the oracle (eight sweeps)."""
    ops = []
    for kind in SWEEP_KINDS:
        for oracle in (False, True):
            path = f"{WORK_DIR}/bulk_{index}_{kind}{'_oracle' if oracle else ''}.cfg"
            case = draw_sweep(rng, kind, oracle, BULK_SWEEP_ROWS, path, table)
            argv = ["sweep", path, "--out", OUT_CSV] + (["--oracle"] if oracle else [])

            def run(argv=argv):
                return checks.run_cli_in_process(package.cli.main, argv)

            def check(output, case=case):
                code, _ = output
                expect_exit_zero(code, case.name)
                checks.check_sweep_csv(OUT_CSV, case)

            ops.append(Op(f"sweep_{kind}{'_oracle' if oracle else ''}", BULK_SWEEP_ROWS,
                          oracle, run, check, argv))
    rng.shuffle(ops)
    return ops


# ----------------------------------------------------------------------------
# point_eval: independent scenarios as ScenarioConfig values, each through
# build_scenario and compare_closed_forms (every closed form plus the nodal
# solve), with extractions interleaved.  Chosen because it uses the same
# config, transfer and network modules as bulk_sweep while no work is shared
# between operations, so a per-sweep cache or batch should not move it; the
# general nodal solver and the resonance module stay measured.

def scenario_config(package, sections, base_dir):
    """The generator's config sections as a ``ScenarioConfig`` value."""
    config = package.config
    side = {name: config.SideConfig(**sections.get(name, {})) for name in ("tx", "rx")}
    body = dict(sections.get("body", {}))
    if "shadowing_anchors" in body:
        body["shadowing_anchors"] = tuple(
            tuple(float(v) for v in pair.split(":"))
            for pair in body["shadowing_anchors"].split(", "))
    return config.ScenarioConfig(
        tx=side["tx"], rx=side["rx"], **body, **sections.get("link", {}),
        **sections.get("channel", {}), base_dir=base_dir)


def point_cycle(rng: random.Random, index: int, package) -> list[Op]:
    """Eight operations: three direct scenarios, two geometric ones with the
    body capacitance from the table, two with body positions and a profile,
    and one extraction."""
    base_dir = Path("configs").resolve()
    draws = ([("direct", lambda: draw_direct_values(rng))] * 3
             + [("geometric_table", lambda: draw_geometric_table(rng, "dielectric_cb.csv"))] * 2
             + [("geometric_profile", lambda: draw_geometric_profile(rng))] * 2)
    ops = []
    for label, draw in draws:
        cfg = scenario_config(package, draw(), base_dir)

        def run(cfg=cfg):
            scenario = package.config.build_scenario(cfg)
            return scenario, package.transfer.compare_closed_forms(scenario, cfg.frequency_hz)

        def check(output, label=label):
            s, report = output
            checks.check_report((s.c_x_tx, s.c_x_rx, s.c_gb_rx, s.c_l, s.c_b, s.c_c),
                                report.ratios, label)

        ops.append(Op(f"eval_{label}", 1, True, run, check))
    inductance, capacitance, resistance = draw_circuit(rng)
    circuit = package.resonance.ResonanceCircuit(inductance, capacitance, resistance)

    def extract(circuit=circuit):
        return package.resonance.extract_body_capacitance(circuit)

    def check_extract(output, circuit=circuit):
        checks.check_extraction(output[0], circuit.capacitance_true, "extraction")

    ops.append(Op("extraction", 1, False, extract, check_extract))
    rng.shuffle(ops)
    return ops


WORKLOADS = ("cli_oneshot", "bulk_sweep", "point_eval")


def cycle(workload: str, seed: int, index: int, package, table) -> list[Op]:
    rng = random.Random(f"{seed}:{workload}:{index}")
    if workload == "cli_oneshot":
        return cli_cycle(rng, index)
    if workload == "bulk_sweep":
        return bulk_cycle(rng, index, package, table)
    return point_cycle(rng, index, package)


def cli_argv(op: Op) -> list[str]:
    return [sys.executable, "-m", "hbc_channel", *op.argv]
