"""Spans around baoc's public entry points, and self-time arithmetic.

A span is ``[name, start, end, parent, counts]``: ``parent`` is the index of
the span that was open when it began (-1 at the root) and ``counts`` holds the
work counted at the same boundary (records, floats, samples, nodes, ...).
Spans stay in memory; the benchmark summarizes and writes them out at the end
of a run.

`traced` installs wrappers where callers look the functions up: the module
globals of `baoc.cli` and `baoc.pipeline`, the `baoc` package namespace the
benchmark's own ops call through, and the `DiagnosticsState` methods. Nothing
inside ``src/`` is edited; every wrapper is removed when the block exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterator

NO_PARENT = -1


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **counts: float) -> Iterator[dict]:
        """Record one span; the yielded dict takes counts known only at the end."""
        record = [name, self.clock(), None, self._open[-1] if self._open else NO_PARENT, dict(counts)]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record[4]
        finally:
            self._open.pop()
            record[2] = self.clock()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, counts in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "counts": counts}))
                fh.write("\n")


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name, the summed duration minus what direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent != NO_PARENT:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] += (end - start) - covered[i]
    return dict(out)


def count_totals(spans: list[list]) -> dict[str, float]:
    """Counts summed per ``<span name>.<count key>``."""
    out: dict[str, float] = defaultdict(float)
    for name, _, _, _, counts in spans:
        for key, value in counts.items():
            out[f"{name}.{key}"] += value
    return dict(out)


class _TracedRecords:
    """Record iterator of `read_trace`; each `next()` is a ``trace.read`` span."""

    def __init__(self, recorder: Recorder, records: Iterator):
        self._recorder = recorder
        self._records = records

    def __iter__(self) -> "_TracedRecords":
        return self

    def __next__(self):
        with self._recorder.span("trace.read") as counts:
            record = next(self._records)
            floats = sum(len(v) for v in record.grads.values())
            if record.params:
                floats += sum(len(v) for v in record.params.values())
            counts["records"] = 1
            counts["floats"] = floats
            return record

    def close(self) -> None:
        self._records.close()


def _count_read(recorder: Recorder, counts: dict, args: tuple, result):
    specs, records = result
    return specs, _TracedRecords(recorder, records)


def _count_update(recorder: Recorder, counts: dict, args: tuple, result):
    counts["calls"] = 1
    counts["samples"] = len(args[1])
    return result


def _count_partition(recorder: Recorder, counts: dict, args: tuple, result):
    counts["units_in"] = len(args[0])
    counts["blocks_out"] = len(result)
    return result


def _count_build(recorder: Recorder, counts: dict, args: tuple, result):
    counts["candidates"] = sum(len(c) for c in result.candidates)
    return result


def _count_solve(recorder: Recorder, counts: dict, args: tuple, result):
    counts["calls"] = 1
    counts["nodes"] = result.nodes_explored
    return result


def _cli_command(args: tuple) -> str:
    return f"cli.{args[0][0]}"


# (module, attribute, span name, counter). Each row is one place where a
# caller looks a baoc function up at call time.
SITES: tuple[tuple[str, str, str | Callable, Callable | None], ...] = (
    ("baoc.cli", "dispatch", _cli_command, None),
    ("baoc.cli", "read_trace", "trace.read", _count_read),
    ("baoc.pipeline", "read_trace", "trace.read", _count_read),
    ("baoc.cli", "write_trace", "trace.write", None),
    ("baoc.cli", "generate_stream", "simulator.generate", None),
    ("baoc.cli", "collect_metrics", "pipeline.collect_metrics", None),
    ("baoc.pipeline", "collect_metrics", "pipeline.collect_metrics", None),
    ("baoc.diagnostics.DiagnosticsState", "update", "diagnostics.update", _count_update),
    ("baoc.diagnostics.DiagnosticsState", "snapshot", "diagnostics.snapshot", None),
    ("baoc.cli", "signals_from_metrics", "risk.signals", None),
    ("baoc.pipeline", "signals_from_metrics", "risk.signals", None),
    ("baoc.cli", "partition", "partitioner.partition", _count_partition),
    ("baoc.cli", "compute_tau", "partitioner.compute_tau", None),
    ("baoc.partitioner", "compute_tau", "partitioner.compute_tau", None),
    ("baoc.cli", "run_allocation", "pipeline.run_allocation", None),
    ("baoc.pipeline", "build_problem", "allocator.build_problem", _count_build),
    ("baoc", "build_problem", "allocator.build_problem", _count_build),
    ("baoc.pipeline", "solve_exact", "allocator.solve", _count_solve),
    ("baoc", "solve_exact", "allocator.solve", _count_solve),
    ("baoc.pipeline", "render_plan", "pipeline.render", None),
    ("baoc", "plan_to_json_dict", "pipeline.render", None),
    ("baoc.pipeline", "plan_bytes", "pipeline.render", None),
    ("baoc.cli", "plan_bytes", "pipeline.render", None),
)


def _owner(path: str):
    """Module, or class inside a module, named by a dotted path."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, cls = path.rpartition(".")
        return getattr(importlib.import_module(module), cls)


def _wrap(recorder: Recorder, name: str | Callable, fn: Callable, counter: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name(args) if callable(name) else name) as counts:
            result = fn(*args, **kwargs)
            return counter(recorder, counts, args, result) if counter else result

    return wrapper


@contextlib.contextmanager
def traced(recorder: Recorder) -> Iterator[Recorder]:
    """Install span wrappers at every site in `SITES` for the block's duration."""
    saved = []
    try:
        for owner_path, attr, name, counter in SITES:
            owner = _owner(owner_path)
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, name, original, counter))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
