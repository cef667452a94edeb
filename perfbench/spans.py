"""Span tracing of multinet's public layer functions, installed from outside.

The tracer replaces each listed function by a wrapper in every loaded
``multinet`` module namespace that holds it: the defining module, whose
globals catch intra-module calls, and every ``from .x import f`` site
(``schemes``, ``cli``, the package ``__init__``).  Nothing in the program
is edited, so a traced pass runs the same code as an untraced one plus the
wrappers; the difference between the two is reported as
``trace.overhead_frac``.

Each span records its name, start, end, parent and thread.  Parents come
from a per-thread stack.  A span opened on a thread whose stack is empty
(a worker of ``run_experiment``'s thread pool) takes as parent the
innermost open span of the main thread, which is the ``run_experiment``
call blocked on that pool.  Spans are kept in memory and written out once
the pass has ended.

A span's self time is its duration minus the part of its interval that its
child spans cover: same-thread children nest and never overlap, so their
durations are summed as they close; children on pool threads may overlap
one another, so the union of their intervals is taken after the pass.
A function's ``total_s`` sums its spans on all threads, so under the pool
it can exceed the pass's wall time.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import sys
import threading
import time
from array import array

# Functions traced, by defining module, with the statistics reported for each.
FULL = ("calls", "total_s", "self_s")
LAYERS: dict[str, dict[str, tuple[str, ...]]] = {
    "cli": {
        "run_experiment": ("total_s", "self_s"),
        "parse_config": ("total_s",),
    },
    "schemes": dict.fromkeys(
        (
            "cluster_architecture_run",
            "from_bell_run",
            "ghz_scheme_fidelity",
            "triangular_repeater",
            "storage_per_node",
            "allocate_global_storage",
            "family_cover",
            "validate_cover",
        ),
        FULL,
    ),
    "hashing": dict.fromkeys(
        (
            "max_output_copies_classes",
            "optimize_delta_split_classes",
            "multipartite_bound_classes",
            "bipartite_bound",
            "bennett_loss",
            "entropy",
        ),
        FULL,
    ),
    "blocks": dict.fromkeys(
        (
            "cover_blocks",
            "per_site_cost_histogram",
            "lattice_edges",
            "blocks_count",
            "per_copy_total",
            "degree_color_classes",
        ),
        FULL,
    ),
    "noise": dict.fromkeys(
        (
            "bit_marginals",
            "channel_to_flip_source",
            "pair_pattern_distribution",
            "uniform_depolarizing_marginal",
            "uniform_edge_channel_marginal",
        ),
        ("calls", "total_s"),
    ),
    "graphstate": {
        "merge_vertices": ("calls", "total_s", "us_per_call"),
        "build_graph": ("calls", "total_s"),
    },
}

# Derived ratios, computed from the counts above (see ``layer_metrics``).
DERIVED = (
    "hashing.bound_evals_per_result",
    "hashing.search_steps_per_search",
    "blocks.cover_blocks.repeat_frac",
    "trace.overhead_frac",
)

# Functions whose arguments are recorded, to count calls that repeat earlier ones.
ARG_RECORDED = ("blocks.cover_blocks",)

UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "us_per_call": "us"}
DERIVED_UNITS = {
    "hashing.bound_evals_per_result": "count",
    "hashing.search_steps_per_search": "count",
    "blocks.cover_blocks.repeat_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def metric_catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for module, funcs in LAYERS.items():
        for func, stats in funcs.items():
            out += [(f"{module}.{func}.{stat}", UNITS[stat]) for stat in stats]
    out += [(name, DERIVED_UNITS[name]) for name in DERIVED]
    return out


class _ThreadLog:
    """Spans opened on one thread; only that thread appends to it."""

    __slots__ = ("slot", "stack", "name", "parent", "start", "end", "self_s", "cross")

    def __init__(self, slot: int):
        self.slot = slot
        self.stack: list[list] = []  # open spans as [index, time covered by children]
        self.name = array("i")
        self.parent = array("q")  # encoded span id of the parent, -1 for none
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.cross: list[int] = []  # spans whose parent lives on another thread


def _span_id(slot: int, index: int) -> int:
    return (slot << 40) | index


class Tracer:
    """Wraps the listed multinet functions and records one span per call."""

    def __init__(self):
        self.names: list[str] = []
        self.args: dict[str, list] = {name: [] for name in ARG_RECORDED}
        self._logs: dict[int, _ThreadLog] = {}
        self._slots: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every listed function that the loaded package defines."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "multinet" or n.startswith("multinet.")]
        for module_name, funcs in LAYERS.items():
            home = sys.modules.get(f"multinet.{module_name}")
            for func in funcs:
                original = getattr(home, func, None)
                if original is None:
                    continue  # a later refactor removed it; its metrics read 0
                wrapper = self._wrap(f"{module_name}.{func}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _log(self) -> _ThreadLog:
        ident = threading.get_ident()
        log = self._logs.get(ident)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._slots))
                self._slots.append(log)
                self._logs[ident] = log
        return log

    def _cross_parent(self) -> int:
        main = self._logs.get(self._main)
        if main is None or not main.stack:
            return -1
        return _span_id(main.slot, main.stack[-1][0])

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        perf = time.perf_counter
        get_log = self._log
        cross_parent = self._cross_parent
        recorded = self.args.get(name)

        def wrapper(*args, **kwargs):
            log = get_log()
            stack = log.stack
            parent = _span_id(log.slot, stack[-1][0]) if stack else cross_parent()
            index = len(log.name)
            log.name.append(name_id)
            log.parent.append(parent)
            log.start.append(0.0)
            log.end.append(0.0)
            log.self_s.append(0.0)
            if recorded is not None:
                recorded.append(repr((args, sorted(kwargs.items()))))
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                duration = t1 - t0
                log.start[index] = t0
                log.end[index] = t1
                log.self_s[index] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                elif parent >= 0:
                    log.cross.append(index)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def _settle_cross_children(self) -> None:
        """Subtract from each parent the union of its pool-thread children."""
        by_parent: dict[int, list[tuple[float, float]]] = {}
        for log in self._slots:
            for index in log.cross:
                by_parent.setdefault(log.parent[index], []).append((log.start[index], log.end[index]))
        for parent, intervals in by_parent.items():
            log = self._slots[parent >> 40]
            index = parent & ((1 << 40) - 1)
            lo, hi = log.start[index], log.end[index]
            covered, reach = 0.0, lo
            for a, b in sorted(intervals):
                a, b = max(a, reach), min(b, hi)
                if b > a:
                    covered += b - a
                    reach = b
            log.self_s[index] -= covered

    def summary(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total_s and self_s over all recorded spans."""
        self._settle_cross_children()
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for log in self._slots:
            for name_id, a, b, s in zip(log.name, log.start, log.end, log.self_s):
                calls[name_id] += 1
                total[name_id] += b - a
                own[name_id] += s
        out = {}
        for i, name in enumerate(self.names):
            out[name] = {"calls": calls[i], "total_s": total[i], "self_s": own[i]}
        for name, keys in self.args.items():
            out.setdefault(name, {})["distinct_args"] = len(set(keys))
        return out

    def write_spans(self, directory: str) -> None:
        """Write the spans as raw arrays, one file per field and thread."""
        shutil.rmtree(directory, ignore_errors=True)
        os.makedirs(directory)
        for log in self._slots:
            for field in ("name", "parent", "start", "end", "self_s"):
                with open(os.path.join(directory, f"t{log.slot}.{field}.{getattr(log, field).typecode}"), "wb") as fh:
                    getattr(log, field).tofile(fh)
        with open(os.path.join(directory, "names.json"), "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "threads": len(self._slots)}, fh)


def layer_metrics(summaries: list[dict], multipartite_rows: int, overhead_frac: float) -> dict[str, float]:
    """Per-layer metrics from the summaries of one or more traced passes.

    Counts come from the first pass (the caller checks they repeat); times
    are medians over the passes.
    """
    first = summaries[0]

    def stat(name: str, key: str) -> float:
        if key == "calls":
            return first.get(name, {}).get("calls", 0)
        return statistics.median(s.get(name, {}).get(key, 0.0) for s in summaries)

    out: dict[str, float] = {}
    for module, funcs in LAYERS.items():
        for func, stats in funcs.items():
            name = f"{module}.{func}"
            for key in stats:
                if key == "us_per_call":
                    n = stat(name, "calls")
                    out[f"{name}.{key}"] = 1e6 * stat(name, "total_s") / n if n else 0.0
                else:
                    out[f"{name}.{key}"] = stat(name, key)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out["hashing.bound_evals_per_result"] = ratio(
        stat("hashing.multipartite_bound_classes", "calls"), multipartite_rows
    )
    out["hashing.search_steps_per_search"] = ratio(
        stat("hashing.optimize_delta_split_classes", "calls"),
        stat("hashing.max_output_copies_classes", "calls"),
    )
    cover_calls = stat("blocks.cover_blocks", "calls")
    distinct = first.get("blocks.cover_blocks", {}).get("distinct_args", 0)
    out["blocks.cover_blocks.repeat_frac"] = ratio(cover_calls - distinct, cover_calls)
    out["trace.overhead_frac"] = overhead_frac
    return out


def counts(summary: dict) -> dict[str, int]:
    """The exact counts of one traced pass, for the repeat check."""
    out = {name: s.get("calls", 0) for name, s in summary.items()}
    out.update({f"{name}.distinct_args": s["distinct_args"] for name, s in summary.items() if "distinct_args" in s})
    return out
