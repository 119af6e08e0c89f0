"""Output checks that do not trust the code under test.

Two kinds of check:

* goldens: byte-identical outputs of fixed inputs (the sample configs),
  recorded once with ``python3 perfbench/checks.py --record`` and compared on
  every benchmark run;
* independent checks of seeded outputs, from formulas written out here: the
  exact nodal solution of the 4-node channel (supernode across the source,
  Cramer's rule on the rest), the full closed form, and the capacitance laws
  each sweep kind exercises.

Every check raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import sys
from pathlib import Path

EPSILON_0 = 8.8541878128e-12

# The nodal oracle and the exact form are both computed in full precision.
ORACLE_REL_TOL = 1e-12
# CSV cells carry 12 significant digits (rounding up to 5e-12 relative per
# cell); values recomputed from rounded cells are compared at this bound.
CSV_REL_TOL = 1e-10
# Criterion 3 of the acceptance suite: recovered body capacitance.
EXTRACTION_REL_TOL = 1e-3

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
WORK_DIR = ".perfbench_work"
OUT_CSV = f"{WORK_DIR}/out.csv"

SAMPLE_EVALS = ("configs/sample_geometric.cfg", "configs/default_direct.cfg")
SAMPLE_SWEEPS = (
    "configs/separation_sweep.cfg", "configs/arm_sweep.cfg",
    "configs/dielectric_sweep.cfg", "configs/radius_sweep.cfg",
    "configs/area_sweep.cfg",
)
SAMPLE_RESONANCE = "configs/resonance.cfg"


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def golden_cases():
    """(name, argv, compares stdout, compares the written CSV) per fixed input."""
    cases = []
    for path in SAMPLE_EVALS:
        cases.append((f"eval_{Path(path).stem}", ["eval", path, "--json"], True, False))
    for path in SAMPLE_SWEEPS:
        stem = Path(path).stem
        cases.append((f"sweep_{stem}", ["sweep", path, "--out", OUT_CSV], False, True))
        cases.append((f"sweep_{stem}_oracle", ["sweep", path, "--out", OUT_CSV, "--oracle"],
                      False, True))
    cases.append(("resonance", ["resonance", SAMPLE_RESONANCE, "--out", OUT_CSV], True, True))
    return cases


def golden_bytes(name: str, suffix: str) -> bytes:
    return (GOLDEN_DIR / f"{name}.{suffix}").read_bytes()


def check_golden(name, compares_stdout, compares_csv, stdout: bytes) -> None:
    if compares_stdout and stdout != golden_bytes(name, "stdout"):
        raise CheckFailed(f"{name}: stdout differs from golden")
    if compares_csv and Path(OUT_CSV).read_bytes() != golden_bytes(name, "csv"):
        raise CheckFailed(f"{name}: CSV differs from golden")


def run_cli_in_process(main, argv) -> tuple[int, bytes]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue().encode()


def check_all_goldens(main) -> int:
    """Run every fixed input through ``cli.main`` in-process and compare."""
    os.makedirs(WORK_DIR, exist_ok=True)
    for name, argv, compares_stdout, compares_csv in golden_cases():
        code, stdout = run_cli_in_process(main, argv)
        if code != 0:
            raise CheckFailed(f"{name}: exit code {code}")
        check_golden(name, compares_stdout, compares_csv, stdout)
    return len(golden_cases())


def reference_ratio(cxt, cxr, cgb, cl, cb, cc) -> float:
    """Exact nodal solution of the channel circuit (supernode and Cramer)."""
    g = cl + cgb
    a1 = cb + g + cxt + cc
    b1 = g + cc
    a2 = cxr + g + cc
    det = a1 * a2 - b1 * b1
    v_body = ((cxt + cc) * a2 - b1 * cc) / det
    v_rx_ground = (b1 * (cxt + cc) - a1 * cc) / det
    return v_body - v_rx_ground


def full_form(cxt, cxr, cgb, cl, cb, cc) -> float:
    shared = cc * (cb + cxr + cxt)
    return (shared + cxr * cxt) / (
        shared + (cb + cxr) * (cl + cgb + cxt) + cxt * (cl + cgb))


def rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0 else abs(a - b) / scale


def expect_close(what: str, got: float, want: float, tol: float) -> None:
    if not (math.isfinite(got) and rel(got, want) <= tol):
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r} (rel tol {tol:g})")


def check_report(caps, ratios, what: str) -> None:
    """A transfer report against the exact nodal form and the full form.

    ``caps`` is (c_x_tx, c_x_rx, c_gb_rx, c_l, c_b, c_c) in full precision.
    """
    expect_close(f"{what} oracle", ratios["oracle"], reference_ratio(*caps), ORACLE_REL_TOL)
    expect_close(f"{what} full", ratios["full"], full_form(*caps), ORACLE_REL_TOL)
    for name, value in ratios.items():
        if not 0.0 < value < 1.0:
            raise CheckFailed(f"{what} ratio {name}={value!r} outside (0, 1)")


def check_eval_json(payload, config_path: str) -> None:
    """``hbc eval --json`` output of one config."""
    if payload["config"] != config_path:
        raise CheckFailed(f"eval config echo {payload['config']!r} != {config_path!r}")
    c = payload["capacitances"]
    caps = (c["c_x_tx_f"], c["c_x_rx_f"], c["c_gb_rx_f"], c["c_l_f"], c["c_b_f"], c["c_c_f"])
    check_report(caps, payload["ratios"], config_path)
    for name, ratio in payload["ratios"].items():
        expect_close(f"{config_path} loss_db {name}", payload["loss_db"][name],
                     -20.0 * math.log10(ratio), ORACLE_REL_TOL)


def interp(x: float, xs, ys) -> float:
    """Piecewise-linear interpolation inside [xs[0], xs[-1]]."""
    for i in range(1, len(xs)):
        if x <= xs[i]:
            t = (x - xs[i - 1]) / (xs[i] - xs[i - 1])
            return ys[i - 1] + t * (ys[i] - ys[i - 1])
    return ys[-1]


def linspace(start: float, stop: float, steps: int):
    step = (stop - start) / (steps - 1)
    return [start + i * step for i in range(steps)]


def check_sweep_csv(path, spec) -> int:
    """A generated sweep's CSV against ``spec`` (see ``workloads.SweepCase``).

    Returns the row count.
    """
    with open(path, newline="") as handle:
        records = list(csv.reader(handle))
    header, body = records[0], records[1:]
    expected = [spec.column, "c_x_tx_f", "c_x_rx_f", "c_gb_rx_f", "c_l_f", "c_b_f", "c_c_f",
                "ratio", "loss_db", "flags"]
    if spec.oracle:
        expected += ["oracle_ratio", "oracle_rel_error"]
    if header != expected:
        raise CheckFailed(f"{spec.name}: header {header}")
    if len(body) != spec.steps:
        raise CheckFailed(f"{spec.name}: {len(body)} rows, expected {spec.steps}")
    saw_cutoff = saw_coupled = False
    for index, (record, value) in enumerate(zip(body, linspace(spec.start, spec.stop, spec.steps))):
        where = f"{spec.name} row {index}"
        swept = float(record[0])
        expect_close(f"{where} swept value", swept, value, CSV_REL_TOL)
        cxt, cxr, cgb, cl, cb, cc, ratio, loss = (float(v) for v in record[1:9])
        caps = (cxt, cxr, cgb, cl, cb, cc)
        expect_close(f"{where} ratio", ratio, full_form(*caps), CSV_REL_TOL)
        if abs(loss + 20.0 * math.log10(ratio)) > 1e-9:
            raise CheckFailed(f"{where}: loss_db {loss!r} != -20 log10({ratio!r})")
        if spec.oracle:
            oracle, oracle_err = float(record[10]), float(record[11])
            expect_close(f"{where} oracle", oracle, reference_ratio(*caps), CSV_REL_TOL)
            if abs(oracle_err - rel(ratio, oracle)) > CSV_REL_TOL:
                raise CheckFailed(f"{where}: oracle_rel_error {oracle_err!r}")
        # The capacitance the swept value drives, from the laws written out,
        # at the exact swept value: a steep profile segment would amplify the
        # rounding of the swept cell.
        if spec.kind == "separation":
            if value >= spec.decouple_m:
                saw_cutoff = True
                if cc != 0.0:
                    raise CheckFailed(f"{where}: c_c={cc!r} beyond decouple_m")
            else:
                saw_coupled = True
                expect_close(f"{where} c_c", cc, spec.k * math.pi * spec.radius**2 / value,
                             CSV_REL_TOL)
        elif spec.kind == "device_area":
            expect_close(f"{where} c_c", cc, spec.k * value / spec.separation, CSV_REL_TOL)
        elif spec.kind == "dielectric_thickness":
            expect_close(f"{where} c_b", cb, interp(value, *spec.table), CSV_REL_TOL)
        elif spec.kind == "rx_position":
            x = interp(value, *spec.anchors)
            expect_close(f"{where} c_x_rx", cxr, x * 8.0 * EPSILON_0 * spec.radius, CSV_REL_TOL)
    if spec.kind == "separation" and not (saw_cutoff and saw_coupled):
        raise CheckFailed(f"{spec.name}: range does not cross decouple_m")
    return len(body)


def check_extraction(recovered: float, true: float, what: str) -> None:
    expect_close(f"{what} recovered C_B", recovered, true, EXTRACTION_REL_TOL)


def record_goldens() -> None:
    """Write the goldens from the checked-out program (run from the repo root)."""
    sys.path.insert(0, "src")
    from hbc_channel import cli

    GOLDEN_DIR.mkdir(exist_ok=True)
    os.makedirs(WORK_DIR, exist_ok=True)
    for name, argv, compares_stdout, compares_csv in golden_cases():
        code, stdout = run_cli_in_process(cli.main, argv)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        if compares_stdout:
            (GOLDEN_DIR / f"{name}.stdout").write_bytes(stdout)
        if compares_csv:
            (GOLDEN_DIR / f"{name}.csv").write_bytes(Path(OUT_CSV).read_bytes())
        print(f"recorded {name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python3 perfbench/checks.py --record  (from the repo root)")
    record_goldens()
