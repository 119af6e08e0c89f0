#!/usr/bin/env python3
"""hbc-channel benchmark: one workload per run, outputs checked, metrics printed.

Usage, from the root of a checkout (no install needed; the package is
imported from ``src``)::

    python3 perfbench/run.py --workload cli_oneshot --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
wraps the package's public functions and reports per-layer metrics plus the
tracing overhead against an untraced replay of the same operations.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

# Every workload is single-threaded.  numpy's import otherwise starts one
# BLAS thread per CPU whose start-up spin competes with the main thread, which
# made CLI wall times swing by 2x with the host's scheduling.  Set before the
# package (and numpy) is imported here; children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import WORK_DIR, CheckFailed  # noqa: E402

SETUP_SAMPLES = 7
FLOOR_SAMPLES = 3
PROBE_SAMPLES = 200
MAX_REPORTED_FAILURES = 5


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def median_ms(samples):
    """Median in ms; 0 when every operation failed (the run is then incorrect)."""
    return statistics.median(samples) * 1e3 if samples else 0.0


def p90_ms(samples):
    if len(samples) < 2:
        return median_ms(samples)
    return statistics.quantiles(samples, n=10, method="inclusive")[8] * 1e3


def time_child(argv, env=None):
    start = time.perf_counter()
    code, _, _, _ = workloads.run_child(argv, "floor", env)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    return time.perf_counter() - start


def floor_ms(code, env=None):
    return median_ms([time_child([sys.executable, "-c", code], env)
                      for _ in range(FLOOR_SAMPLES)])


def cpu_steal_s():
    """Time this VM's CPUs waited for the host, summed over CPUs."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def cpu_probe_ms():
    """Median time of a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(PROBE_SAMPLES):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        times.append(time.perf_counter() - start)
    return median_ms(times)


def run_record():
    """Where and on what the run was made.  A loaded or slow host shows in the
    load average, the CPU steal time and the probe loop's time."""
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    default_threads = {k: v for k, v in workloads.child_env().items()
                       if k != "OPENBLAS_NUM_THREADS"}
    return {
        "commit": commit,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_start": Path("/proc/loadavg").read_text().split()[:3],
        "steal_s_start": cpu_steal_s(),
        "cpu_probe_ms_start": cpu_probe_ms(),
        "python_pass_ms": floor_ms("pass"),
        "python_import_numpy_ms": floor_ms("import numpy"),
        "python_import_numpy_default_blas_threads_ms": floor_ms("import numpy", default_threads),
    }


def measure_setup(workload):
    """Median over fresh interpreters of import plus the first operation."""
    values = []
    for _ in range(SETUP_SAMPLES):
        code, stdout, stderr, _ = workloads.run_child(
            [sys.executable, str(HERE / "child.py"), "setup", workload], "setup")
        if code != 0:
            raise CheckFailed(f"setup child exited {code}: {stderr.decode()[-300:]}")
        values.append(json.loads(stdout)["setup_s"])
    return statistics.median(values), len(values)


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def fail(self, label, exc):
        self.failed += 1
        if len(self.messages) < MAX_REPORTED_FAILURES:
            self.messages.append(f"{label}: {type(exc).__name__}: {exc}")


def run_op(op, workload, tally, child_argv=None):
    """Run and check one operation; returns (wall s, cpu s, rss KiB, stderr)
    or None when it failed.  Only the call itself is timed."""
    tally.attempted += 1
    try:
        if workload == "cli_oneshot":
            start = time.perf_counter()
            code, stdout, stderr, usage = workloads.run_child(
                child_argv or workloads.cli_argv(op))
            wall = time.perf_counter() - start
            cpu, rss = usage.ru_utime + usage.ru_stime, usage.ru_maxrss
            output = (code, stdout)
        else:
            cpu_start = time.process_time()
            start = time.perf_counter()
            output = op.run()
            wall = time.perf_counter() - start
            cpu = time.process_time() - cpu_start
            rss, stderr = 0, b""
        op.check(output)
    except Exception as exc:  # a failed operation is counted, the run goes on
        tally.fail(op.label, exc)
        return None
    return wall, cpu, rss, stderr


def run_cycles(workload, seed, package, table, each, seconds=None, cycles=None):
    """Whole cycles until ``seconds`` have passed (or ``cycles`` cycles ran);
    ``each(op)`` runs one operation.  Returns the number of cycles run."""
    deadline = time.perf_counter() + (seconds or 0.0)
    index = 0
    while (index < cycles) if cycles is not None else (time.perf_counter() < deadline):
        for op in workloads.cycle(workload, seed, index, package, table):
            each(op)
        index += 1
    return index


def warm_up(workload, seed, package, table):
    """Fill caches and finish lazy set-up before timing (untimed)."""
    ops = workloads.cycle(workload, seed, -1, package, table)
    if workload == "cli_oneshot":
        ops = ops[:1]
    for op in ops:
        run_op(op, workload, Tally())


def timed_run(workload, seed, seconds, package, table, tally):
    walls, cpus = array("d"), array("d")
    by_class = {}  # op label -> (rows per op, runs the oracle, wall times)
    peak_child_kib = 0

    def each(op):
        nonlocal peak_child_kib
        result = run_op(op, workload, tally)
        if result is None:
            return
        wall, cpu, rss, _ = result
        walls.append(wall)
        cpus.append(cpu)
        by_class.setdefault(op.label, (op.rows, op.oracle, array("d")))[2].append(wall)
        peak_child_kib = max(peak_child_kib, rss)

    run_cycles(workload, seed, package, table, each, seconds=seconds)

    def rows_per_s(oracle):
        # Each op class at its median wall time, weighted by how often it
        # ran: a slow spell of the host shifts this less than a plain mean.
        chosen = [(rows, times) for rows, with_oracle, times in by_class.values()
                  if with_oracle == oracle]
        seconds = sum(statistics.median(times) * len(times) for _, times in chosen)
        return sum(rows * len(times) for rows, times in chosen) / seconds if seconds else 0.0

    if workload == "cli_oneshot":
        peak_kib = peak_child_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "latency_p50_ms": (median_ms(walls), "ms"),
        "latency_p90_ms": (p90_ms(walls), "ms"),
        "cpu_p50_ms": (median_ms(cpus), "ms"),
        "rows_per_s": (rows_per_s(False), "1/s"),
        "oracle_rows_per_s": (rows_per_s(True), "1/s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
    }, len(walls)


def import_times_ms(stderr: bytes):
    """(hbc_channel, numpy) cumulative import times from ``-X importtime``."""
    hbc = numpy = 0
    for line in stderr.decode(errors="replace").splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2]
        cumulative_us = int(fields[1])
        top_level = not name[1:].startswith(" ")
        if top_level and (name.strip() == "hbc_channel" or name.strip().startswith("hbc_channel.")):
            hbc += cumulative_us
        elif name.strip() == "numpy":
            numpy = cumulative_us
    return hbc / 1e3, numpy / 1e3


def traced_run(workload, seed, seconds, package, table, tally, record):
    """Traced pass for ``seconds``, then an untraced replay of the same ops."""
    done = 0
    traced_wall = 0.0
    imports = []
    if workload == "cli_oneshot":
        summaries = []
        summary_path = f"{WORK_DIR}/trace_summary.json"

        def each(op):
            nonlocal traced_wall, done
            argv = [sys.executable, "-X", "importtime", str(HERE / "child.py"), "trace",
                    summary_path, *op.argv]
            Path(summary_path).unlink(missing_ok=True)
            result = run_op(op, workload, tally, argv)
            if result is None:
                return
            traced_wall += result[0]
            summaries.append(json.loads(Path(summary_path).read_text()))
            imports.append(import_times_ms(result[3]))
            done += 1

        cycles = run_cycles(workload, seed, package, table, each, seconds=seconds)
        summary = tracing.merge(summaries)
    else:
        tracer = tracing.Tracer()
        tracer.install(package)

        def each(op):
            nonlocal traced_wall, done
            attr = tracing.PLAIN_SWEEP if op.argv[:1] == ["sweep"] and not op.oracle else 0
            with tracer.op(attr):
                result = run_op(op, workload, tally)
            if result is not None:
                traced_wall += result[0]
                done += 1

        try:
            cycles = run_cycles(workload, seed, package, table, each, seconds=seconds)
        finally:
            tracer.uninstall()
        summary = tracer.summary()

    untraced_wall = 0.0

    def replay(op):
        nonlocal untraced_wall
        result = run_op(op, workload, tally)
        if result is not None:
            untraced_wall += result[0]

    run_cycles(workload, seed, package, table, replay, cycles=cycles)

    metrics = tracing.layer_metrics(summary, traced_wall)
    if imports:
        metrics["import.hbc_channel_ms"] = (statistics.median([i[0] for i in imports]), "ms")
        metrics["import.numpy_ms"] = (statistics.median([i[1] for i in imports]), "ms")
        metrics["interp.pass_ms"] = (record["python_pass_ms"], "ms")
    else:
        # In-process workloads import before timing: no import work inside.
        metrics["import.hbc_channel_ms"] = (0.0, "ms")
        metrics["import.numpy_ms"] = (0.0, "ms")
        metrics["interp.pass_ms"] = (0.0, "ms")
    metrics["trace.overhead_fraction"] = (
        traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0, "fraction")
    return metrics, done, summary["absent"]


def main() -> int:
    args = parse_args()
    os.chdir(ROOT)
    missing = [p for p in ("src/hbc_channel/__init__.py", workloads.TABLE_CSV)
               + tuple(checks.SAMPLE_EVALS) if not Path(p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of hbc-channel (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hbc_channel
    import hbc_channel.cli

    os.makedirs(WORK_DIR, exist_ok=True)
    try:
        return run(args, hbc_channel)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)


def run(args, package) -> int:
    record = run_record()
    tally = Tally()
    problems = []
    try:
        goldens = checks.check_all_goldens(package.cli.main)
    except CheckFailed as exc:
        goldens = 0
        problems.append(f"golden: {exc}")
    table = workloads.read_table()
    warm_up(args.workload, args.seed, package, table)

    absent = []
    if args.trace:
        metrics, samples, absent = traced_run(args.workload, args.seed, args.seconds, package,
                                              table, tally, record)
    else:
        try:
            setup_s, setup_samples = measure_setup(args.workload)
        except (CheckFailed, ValueError, KeyError) as exc:
            setup_s, setup_samples = 0.0, 0
            problems.append(f"setup: {exc}")
        metrics, samples = timed_run(args.workload, args.seed, args.seconds, package, table,
                                     tally)
        metrics["setup_s"] = (setup_s, "s")
    record["loadavg_end"] = Path("/proc/loadavg").read_text().split()[:3]
    record["steal_s_during_run"] = round(cpu_steal_s() - record.pop("steal_s_start"), 2)
    record["cpu_probe_ms_end"] = cpu_probe_ms()

    correct = not problems and tally.failed == 0
    print(f"hbc-channel benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for key, value in record.items():
        print(f"  run.{key} = {value}")
    print(f"  goldens checked: {goldens} of {len(checks.golden_cases())}")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed "
          f"(failed_op_fraction {tally.failed / max(tally.attempted, 1):.6g}); "
          f"{samples} timed samples")
    if not args.trace:
        print(f"  setup samples: {setup_samples}; p90 has "
              f"{samples - int(0.9 * samples)} samples beyond it")
    for message in problems + tally.messages:
        print(f"  FAILED {message}")
    for target in absent:
        print(f"  absent (reported with zero calls): {target}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
