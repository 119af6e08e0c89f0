"""In-memory call spans around the public functions of ``hbc_channel``.

The tracer wraps functions from outside the package: each wrapper is stored
at every module attribute that held the original function, so callers that
imported the name (``from .config import build_scenario``) see the wrapper
too.  Spans are kept in flat arrays (name, start, end, parent, attribute) and
reduced to per-function self times only when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from array import array

# Span name -> the functions it covers, as "module:attribute".  The geometry
# laws share one span name: they are reported together.
TRACED = {
    "cli.main": ["cli:main"],
    "config.load_config_file": ["config:load_config_file"],
    "config.build_scenario": ["config:build_scenario"],
    "config.load_dielectric_table": ["config:load_dielectric_table"],
    "profiles.shadowing_factor": ["profiles:shadowing_factor"],
    "geometry.laws": [
        "geometry:return_path_capacitance",
        "geometry:plate_to_plate_capacitance",
        "geometry:ground_to_body_capacitance",
        "geometry:coupling_capacitance",
        "geometry:disc_self_capacitance",
    ],
    "transfer.full_transfer": ["transfer:full_transfer"],
    "transfer.regime_flags": ["transfer:regime_flags"],
    "transfer.compare_closed_forms": ["transfer:compare_closed_forms"],
    "network.build_channel_network": ["network:build_channel_network"],
    "network.solve_transfer": ["network:solve_transfer"],
    "sweep.run_sweep": ["sweep:run_sweep"],
    "sweep.emit_csv": ["sweep:emit_csv"],
    "resonance.extract_body_capacitance": ["resonance:extract_body_capacitance"],
    "resonance.lc_response": ["resonance:lc_response"],
    "resonance.find_resonant_frequency": ["resonance:find_resonant_frequency"],
    "resonance.body_capacitance_lookup": ["resonance:body_capacitance_lookup"],
}

OP = "op"
# Op attribute bit: the op is a sweep run without the nodal oracle.
PLAIN_SWEEP = 1


def _table_key(args, kwargs):
    scenario = args[0] if args else kwargs.get("scenario")
    return (getattr(scenario, "dielectric_table", None), str(getattr(scenario, "base_dir", None)))


def _sweep_rows(result):
    return len(getattr(result, "rows", ()))


def _emitted_bytes(args, kwargs):
    destination = args[1] if len(args) > 1 else kwargs.get("destination")
    try:
        return os.path.getsize(destination)
    except (OSError, TypeError):
        return 0


class Tracer:
    """Collects spans in memory; one instance per traced process."""

    def __init__(self):
        self.names = [OP, *TRACED]
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("B")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.attr = array("q")
        self._stack = []
        self._keys = {}
        self.absent = []
        self._restore = []

    def _open(self, name_id, attr=0):
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.attr.append(attr)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, attr=0):
        """One benchmark operation: a root span whose attribute flags its kind."""
        index = self._open(0, attr)
        try:
            yield
        finally:
            self._close(index)

    def _key_id(self, key):
        return self._keys.setdefault(key, len(self._keys))

    def _wrap(self, span, fn):
        name_id = self._name_id[span]
        tracer = self

        if span == "config.load_dielectric_table":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = tracer._open(name_id, tracer._key_id(_table_key(args, kwargs)))
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(index)
        elif span == "sweep.run_sweep":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = tracer._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                    tracer.attr[index] = _sweep_rows(result)
                    return result
                finally:
                    tracer._close(index)
        elif span == "sweep.emit_csv":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = tracer._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(index)
                    tracer.attr[index] = _emitted_bytes(args, kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = tracer._open(name_id)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(index)
        return traced

    def install(self, package):
        """Wrap every traced function wherever ``package`` modules refer to it.

        A function missing from its module is recorded in ``self.absent`` and
        reported with zero calls.
        """
        modules = [package] + [
            module for name, module in vars(package).items()
            if getattr(module, "__name__", "").startswith(package.__name__ + ".")
        ]
        for span, targets in TRACED.items():
            for target in targets:
                module_name, attribute = target.split(":")
                try:
                    module = importlib.import_module(f"{package.__name__}.{module_name}")
                except ImportError:
                    self.absent.append(target)
                    continue
                original = getattr(module, attribute, None)
                if original is None:
                    self.absent.append(target)
                    continue
                if module not in modules:
                    modules.append(module)
                wrapper = self._wrap(span, original)
                for holder in modules:
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, name, wrapper)
                            self._restore.append((holder, name, original))

    def uninstall(self):
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def summary(self):
        """Reduce the spans to per-function self times and layer counters."""
        n = len(self.start)
        child = array("q", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]

        def root(i):
            while self.parent[i] >= 0:
                i = self.parent[i]
            return i

        self_ns = {name: array("q") for name in TRACED}
        rows = emit_bytes = table_loads = plain_sweep_solves = 0
        table_pairs = set()
        load_id = self._name_id["config.load_dielectric_table"]
        solve_id = self._name_id["network.solve_transfer"]
        run_sweep_id = self._name_id["sweep.run_sweep"]
        emit_id = self._name_id["sweep.emit_csv"]
        for i in range(n):
            name_id = self.name[i]
            if name_id == 0:
                continue
            self_ns[self.names[name_id]].append(self.end[i] - self.start[i] - child[i])
            if name_id == load_id:
                table_loads += 1
                table_pairs.add((root(i), self.attr[i]))
            elif name_id == solve_id:
                if self.attr[root(i)] & PLAIN_SWEEP:
                    plain_sweep_solves += 1
            elif name_id == run_sweep_id:
                rows += self.attr[i]
            elif name_id == emit_id:
                emit_bytes += self.attr[i]
        return {
            "self_ns": self_ns,
            "sweep_rows": rows,
            "emit_bytes": emit_bytes,
            "table_loads": table_loads,
            "table_useful": len(table_pairs),
            "plain_sweep_solves": plain_sweep_solves,
            "absent": sorted(self.absent),
        }


def merge(summaries):
    """Sum summaries from several traced processes into one."""
    total = {
        "self_ns": {name: array("q") for name in TRACED},
        "sweep_rows": 0, "emit_bytes": 0, "table_loads": 0, "table_useful": 0,
        "plain_sweep_solves": 0, "absent": [],
    }
    for summary in summaries:
        for name, values in summary["self_ns"].items():
            total["self_ns"].setdefault(name, array("q")).extend(values)
        for key in ("sweep_rows", "emit_bytes", "table_loads", "table_useful",
                    "plain_sweep_solves"):
            total[key] += summary[key]
        total["absent"] = sorted(set(total["absent"]) | set(summary["absent"]))
    return total


def layer_metrics(summary, wall_s):
    """Per-layer metrics: calls, median self time and self share per function."""
    import numpy as np  # not at module level: the traced CLI child must not import it early

    metrics = {}
    wall_ns = wall_s * 1e9
    for name in TRACED:
        values = summary["self_ns"].get(name, [])
        metrics[f"{name}.calls"] = (len(values), "count")
        metrics[f"{name}.self_us"] = (
            float(np.median(np.frombuffer(values, dtype=np.int64))) / 1e3 if values else 0.0,
            "us")
        metrics[f"{name}.self_share"] = (sum(values) / wall_ns if wall_ns else 0.0, "fraction")
    rows = summary["sweep_rows"]
    run_sweep_self = sum(summary["self_ns"].get("sweep.run_sweep", []))
    emit_total = sum(summary["self_ns"].get("sweep.emit_csv", []))
    metrics["sweep.run_sweep.self_us_per_row"] = (run_sweep_self / rows / 1e3 if rows else 0.0, "us")
    metrics["sweep.emit_csv.us_per_row"] = (emit_total / rows / 1e3 if rows else 0.0, "us")
    metrics["sweep.emit_csv.bytes"] = (summary["emit_bytes"], "bytes")
    loads = summary["table_loads"]
    metrics["config.table_load_useful_ratio"] = (
        summary["table_useful"] / loads if loads else 1.0, "ratio")
    metrics["network.solve_transfer.plain_sweep_calls"] = (summary["plain_sweep_solves"], "count")
    return metrics
