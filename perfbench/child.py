"""Child processes of the benchmark (run from the repo root, PYTHONPATH=src).

``child.py setup <workload>``
    Times ``import hbc_channel`` in this fresh interpreter plus the
    workload's first operation, and prints both as JSON.

``child.py trace <summary.json> <hbc argv...>``
    Times the import, wraps the traced functions, calls ``cli.main(argv)``
    as one operation and writes the span summary as JSON.  Stdout carries the
    CLI's own output; the exit code is the CLI's.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stdout

SETUP_FIRST_OPS = {
    "cli_oneshot": [["eval", "configs/sample_geometric.cfg", "--json"]],
    "bulk_sweep": [["sweep", "configs/separation_sweep.cfg", "--out",
                    ".perfbench_work/setup.csv", "--oracle"]],
    "point_eval": [["eval", "configs/sample_geometric.cfg", "--json"],
                   ["resonance", "configs/resonance.cfg"]],
}


def setup(workload: str) -> int:
    start = time.perf_counter()
    import hbc_channel.cli

    imported = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        for argv in SETUP_FIRST_OPS[workload]:
            if hbc_channel.cli.main(argv) != 0:
                return 1
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
    return 0


def trace(summary_path: str, argv: list[str]) -> int:
    start = time.perf_counter_ns()
    import hbc_channel.cli

    import_ns = time.perf_counter_ns() - start
    import tracing

    tracer = tracing.Tracer()
    tracer.install(hbc_channel)
    plain_sweep = argv[0] == "sweep" and "--oracle" not in argv
    with tracer.op(tracing.PLAIN_SWEEP if plain_sweep else 0):
        code = hbc_channel.cli.main(argv)
    sys.stdout.flush()
    summary = tracer.summary()
    summary["self_ns"] = {name: list(values) for name, values in summary["self_ns"].items()}
    summary["import_ns"] = import_ns
    with open(summary_path, "w") as handle:
        json.dump(summary, handle)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2]))
    sys.exit(trace(sys.argv[2], sys.argv[3:]))
