"""Per-layer tracing from outside the program.

``install`` replaces every public function of each layer module with a
wrapper that records a span, and rebinds the wrapper in every ``hardboost``
module that imported the function, so calls through any module name are
seen.  ``FeatureTable.rows_for`` is wrapped on the class.  The program's own
code is untouched.

Each span records its name, thread, parent span, start and end, and, when
``tracemalloc`` is tracing, the peak traced memory while it was open.  Stacks
are kept per thread: the sweep runs grid points on a pool, and one shared
stack would give children to the wrong parent.  ``tracemalloc`` is
process-wide, so a span's peak includes what other threads allocated while
it was open.  It also slows allocation-heavy Python code several-fold, so
times come from runs without it and peaks from runs with it.

Run as a script, it executes one traced CLI invocation and writes its spans
as JSON when the CLI exits (``--memory`` turns ``tracemalloc`` on)::

    PYTHONPATH=src python3 perfbench/tracer.py [--memory] spans.json hars --data ... --out ...
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
import tracemalloc

LAYERS = ("data", "hardness", "models", "hars", "harst", "evaluation", "cli", "benchmark")


def _rows(value) -> int:
    return int(value.shape[0]) if hasattr(value, "shape") else len(value)


# Work counts taken at layer boundaries: span name -> (bound args, result) -> counts.
COUNTERS = {
    "models.fit_classifier": lambda a, r: {
        "rows": _rows(a["features"]),
        "row_epochs": _rows(a["features"]) * a["config"].epochs,
    },
    "models.fit_embedding_rows": lambda a, r: {"rows": _rows(a["sem_rows"])},
    "models.sample_generator": lambda a, r: {"rows": _rows(r)},
    "hars.synthesize_hard_seen": lambda a, r: {"rows": len(r)},
    "hars.synthesize_unseen": lambda a, r: {"rows": len(r)},
    "harst.select_cfbs": lambda a, r: {"rows": len(r[0])},
}


class _Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "base", "peak", "child_s", "counts")

    def __init__(self, span_id, parent, name, base):
        self.id, self.parent, self.name = span_id, parent, name
        self.thread = threading.get_ident()
        self.base = self.peak = base
        self.child_s = 0.0
        self.counts = {}


class Recorder:
    """Collects spans in memory; thread-safe."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._open: dict[int, _Span] = {}
        self._lock = threading.Lock()
        self._ids = itertools.count()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _fold_peak(self) -> int:
        """Credit the peak since the last fold to every open span; caller holds the lock."""
        if not tracemalloc.is_tracing():
            return 0
        current, peak = tracemalloc.get_traced_memory()
        for span in self._open.values():
            span.peak = max(span.peak, peak)
        tracemalloc.reset_peak()
        return current

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                base = self._fold_peak()
                span = _Span(next(self._ids), stack[-1].id if stack else None, name, base)
                self._open[span.id] = span
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.counts = counter(bound.arguments, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self._fold_peak()
                    del self._open[span.id]
                if stack:
                    stack[-1].child_s += span.end - span.start
                self.spans.append(
                    {
                        "id": span.id,
                        "parent": span.parent,
                        "thread": span.thread,
                        "name": name,
                        "start": span.start,
                        "end": span.end,
                        "self_s": span.end - span.start - span.child_s,
                        "peak_bytes": span.peak - span.base,
                        "counts": span.counts,
                    }
                )

        return traced


def install(recorder: Recorder) -> None:
    """Wrap the public functions of every layer and rebind them everywhere."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"hardboost.{layer}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                wrappers[obj] = recorder.wrap(f"{layer}.{attr}", obj)
    for name, module in list(sys.modules.items()):
        if name == "hardboost" or name.startswith("hardboost."):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
    from hardboost.data import FeatureTable

    FeatureTable.rows_for = recorder.wrap("data.rows_for", FeatureTable.rows_for)


def _union(intervals) -> list[tuple[float, float]]:
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _overlap(a, b) -> float:
    """Length of the intersection of two sorted disjoint interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        total += max(0.0, min(a[i][1], b[j][1]) - max(a[i][0], b[j][0]))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Aggregate spans into per-function and per-layer figures.

    ``<fn>.s`` is inclusive time summed over calls, ``<fn>.calls`` the call
    count, ``<fn>.peak_mb`` the largest per-call peak in MiB, and
    ``<fn>.<count>`` the summed work counts.  ``<layer>.self_s`` sums span
    self times.  ``cli.self_s`` is instead the time a CLI span was open
    while no other layer's span was open on any thread, so time the sweep's
    dispatcher waits on its pool is not counted as CLI work.
    """
    out: dict[str, float] = {}
    for span in spans:
        name = span["name"]
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + span["end"] - span["start"]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.peak_mb"] = max(out.get(f"{name}.peak_mb", 0.0), span["peak_bytes"] / 2**20)
        for key, value in span["counts"].items():
            out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value
        layer = name.split(".")[0]
        if layer != "cli":
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + span["self_s"]
    cli = _union((s["start"], s["end"]) for s in spans if s["name"].startswith("cli."))
    below = _union((s["start"], s["end"]) for s in spans if not s["name"].startswith("cli."))
    out["cli.self_s"] = sum(e - s for s, e in cli) - _overlap(cli, below)
    return out


def median_metrics(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over several traced runs; a key missing from a run counts as 0."""
    keys = set().union(*runs)
    return {k: statistics.median(r.get(k, 0.0) for r in runs) for k in keys}


def _main(argv: list[str]) -> int:
    if argv[0] == "--memory":
        tracemalloc.start()
        argv = argv[1:]
    spans_path, cli_argv = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from hardboost import cli

    sys.argv = ["hardboost", *cli_argv]
    code = 0
    try:
        cli.main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
