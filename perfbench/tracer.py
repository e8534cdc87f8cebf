"""Outside-in span recorder for the traced benchmark run.

The recorder times layers from outside: it wraps the public functions of
the ``repro`` modules listed in :data:`TARGETS` and rebinds every loaded
``repro.*`` module attribute that aliases one of them (experiment
modules import ``simulate`` by name, the server imports
``decode_request`` by name), so no program file changes.

Each wrapped call becomes a span ``(id, layer, start, end, parent,
request id)``.  Spans stay in memory (up to :data:`MAX_SPANS`; the
aggregates below always cover every call) and :meth:`Recorder.dump`
writes them out at exit.  A layer's self time is its span's duration
minus the time its child spans cover; its total counts only spans not
nested inside another span of the same layer.

All wrapped functions are synchronous, so one stack serves the whole
process even under asyncio; the request id lives in a context variable
so that concurrent connection tasks keep their own.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute path, layer) for every function the recorder wraps.
#: A dotted attribute path names a method, wrapped on its class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.traces.synthetic.generator", "generate_trace", "traces"),
    ("repro.experiments.runner", "run_experiment", "experiments"),
    ("repro.sim.engine", "simulate", "sim.engine"),
    ("repro.sim.vectorized", "simulate_fast", "simulate_fast"),
    ("repro.sim.native", "run_table_kernel", "native"),
    ("repro.sim.native", "run_lazy1_kernel", "native"),
    ("repro.sim.native", "run_partial_kernel", "native"),
    ("repro.sim.scan", "simulate_scan", "scan"),
    ("repro.sim.scan_grid", "simulate_spec_grid", "scan_grid"),
    ("repro.sim.parallel", "run_cells", "parallel"),
    ("repro.sim.state", "PredictorState.capture", "state.capture"),
    ("repro.sim.state", "PredictorState.restore", "state.restore"),
    ("repro.sim.state", "PredictorState.to_bytes", "state.serialize"),
    ("repro.aliasing.three_cs", "measure_aliasing", "aliasing"),
    ("repro.aliasing.three_cs", "measure_aliasing_reference", "aliasing"),
    ("repro.aliasing.vectorized", "measure_aliasing_sweep", "aliasing"),
    ("repro.aliasing.vectorized", "measure_aliasing_vectorized", "aliasing"),
    ("repro.aliasing.interference", "classify_interference", "aliasing"),
    ("repro.aliasing.opt_table", "simulate_opt", "aliasing"),
    ("repro.serving.protocol", "decode_request", "serving.decode"),
    ("repro.serving.protocol", "encode_message", "serving.encode"),
    ("repro.serving.server", "PredictionService.handle", "serving.handle"),
    ("repro.serving.shard", "Shard.push", "serving.push"),
    ("repro.serving.shard", "Shard.flush_tenant", "serving.flush"),
)


#: Spans kept in memory per process; later ones only count as dropped.
MAX_SPANS = 200_000

#: Layers whose every span duration is kept (for medians and per-name times).
KEEP_DURATIONS = frozenset({"simulate_fast", "experiments"})

#: The engine entry points that call the native kernels; their outermost
#: spans are the denominator of ``native.kernel_share``.
ENTRY_LAYERS = frozenset({"simulate_fast", "scan_grid"})


class LayerStats:
    """Aggregates of one layer: calls, outermost calls, total, self time."""

    __slots__ = ("calls", "outer_calls", "total_s", "self_s", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.outer_calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations: List[float] = []


class Recorder:
    """In-memory spans plus per-layer aggregates and counters."""

    def __init__(self) -> None:
        self.enabled = True
        self.spans: List[Tuple[int, str, float, float, int, Any]] = []
        self.dropped = 0
        self.layers: Dict[str, LayerStats] = defaultdict(LayerStats)
        self.counts: Dict[str, float] = defaultdict(float)
        #: per request id: seconds spent in ``serving.handle``
        self.handle_by_rid: Dict[Any, float] = {}
        self.rid: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_rid", default=None
        )
        self._stack: List[list] = []  # [span id, layer, start, child time]
        self._depth: Dict[str, int] = defaultdict(int)
        self._entry_depth = 0
        self._next_id = 1

    def wrap(
        self,
        layer: str,
        fn: Callable,
        on_result: Optional[Callable[["Recorder", tuple, Any], None]] = None,
    ) -> Callable:
        """``fn`` recorded as a span of ``layer`` while enabled."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if on_result is not None:
                on_result(self, args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _enter(self, layer: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, layer, 0.0, 0.0]
        self._depth[layer] += 1
        if layer in ENTRY_LAYERS:
            self._entry_depth += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        span_id, layer, start, child = frame
        self._stack.pop()
        duration = end - start
        stats = self.layers[layer]
        stats.calls += 1
        stats.self_s += duration - child
        if layer in KEEP_DURATIONS:
            stats.durations.append(duration)
        self._depth[layer] -= 1
        if layer in ENTRY_LAYERS:
            self._entry_depth -= 1
            if self._entry_depth == 0:
                self.counts["engine_entry_s"] += duration
        if self._depth[layer] == 0:
            stats.outer_calls += 1
            stats.total_s += duration
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        rid = self.rid.get()
        if layer == "serving.handle" and rid is not None:
            self.handle_by_rid[rid] = self.handle_by_rid.get(rid, 0.0) + duration
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, layer, start, end, parent, rid))
        else:
            self.dropped += 1

    def dump(self, path: Path) -> None:
        """Write the spans (and how many were dropped) as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
            for span_id, layer, start, end, parent, rid in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": layer,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "rid": rid,
                        }
                    )
                    + "\n"
                )


# -- result hooks: counts measured where the work happens --------------------


def _count_branches(key: str) -> Callable:
    def hook(rec: Recorder, args: tuple, result: Any) -> None:
        rec.counts[key] += result.conditional_branches
        if key == "simulate_fast.branches":
            rec.counts[f"simulate_fast.tier.{result.engine}"] += 1

    return hook


def _experiment_time(rec: Recorder, args: tuple, result: Any) -> None:
    rec.counts[f"experiments.{args[0]}_s"] += rec.layers["experiments"].durations[-1]


def _grid_cells(rec: Recorder, args: tuple, result: Any) -> None:
    rec.counts["scan_grid.cells"] += len(result)


def _parallel_cells(rec: Recorder, args: tuple, result: Any) -> None:
    rec.counts["parallel.cells"] += len(result)


def _decoded(rec: Recorder, args: tuple, result: Any) -> None:
    rec.rid.set(result.get("rid"))


def _flushed(rec: Recorder, args: tuple, result: Any) -> None:
    if result:
        rec.counts["serving.flushes"] += 1
        rec.counts["serving.flushed_events"] += result
        rec.counts["serving.batch_size"] = args[0].batch_size


HOOKS: Dict[str, Callable] = {
    "simulate": _count_branches("sim.engine.branches"),
    "simulate_fast": _count_branches("simulate_fast.branches"),
    "run_experiment": _experiment_time,
    "simulate_spec_grid": _grid_cells,
    "run_cells": _parallel_cells,
    "decode_request": _decoded,
    "Shard.flush_tenant": _flushed,
}


def install(recorder: Recorder) -> None:
    """Wrap every target and rebind its aliases.

    Imports each target module first, so aliases made by any module the
    benchmark already loaded are found; modules imported later would
    keep the originals, so callers import their workload first.
    """
    originals: Dict[int, Callable] = {}
    for module_name, path, layer in TARGETS:
        module = importlib.import_module(module_name)
        owner: Any = module
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = recorder.wrap(layer, raw.__func__, HOOKS.get(path))
            setattr(owner, attr, classmethod(wrapped))
            continue
        wrapped = recorder.wrap(layer, raw, HOOKS.get(path))
        if owners:
            setattr(owner, attr, wrapped)
            continue
        originals[id(raw)] = wrapped
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            wrapped = originals.get(id(value))
            if wrapped is not None and getattr(
                wrapped, "__perfbench_original__", None
            ) is value:
                setattr(module, attr, wrapped)


def layer_metrics(rec: Recorder) -> Dict[str, float]:
    """The per-layer metrics one recorder measured (see README)."""
    layers = rec.layers
    counts = rec.counts

    def total(layer: str) -> float:
        return layers[layer].total_s if layer in layers else 0.0

    def calls(layer: str) -> int:
        return layers[layer].calls if layer in layers else 0

    def self_s(layer: str) -> float:
        return layers[layer].self_s if layer in layers else 0.0

    fast = layers.get("simulate_fast")
    fast_us = 0.0
    if fast is not None and fast.durations:
        ordered = sorted(fast.durations)
        fast_us = ordered[len(ordered) // 2] * 1e6
    flushes = counts.get("serving.flushes", 0.0)
    batch = counts.get("serving.batch_size", 0.0)
    metrics: Dict[str, float] = {
        "traces.generate_s": total("traces"),
        "traces.generated": calls("traces"),
        "experiments.self_s": self_s("experiments"),
        "sim.engine.calls": calls("sim.engine"),
        "sim.engine.self_s": self_s("sim.engine"),
        "sim.engine.branches": counts.get("sim.engine.branches", 0.0),
        "simulate_fast.calls": calls("simulate_fast"),
        "simulate_fast.self_s": self_s("simulate_fast"),
        "simulate_fast.branches": counts.get("simulate_fast.branches", 0.0),
        "simulate_fast.us_per_call": fast_us,
        "native.kernel_calls": calls("native"),
        "native.kernel_s": total("native"),
        "native.kernel_share": (
            total("native") / counts["engine_entry_s"]
            if counts.get("engine_entry_s")
            else 0.0
        ),
        "scan.calls": calls("scan"),
        "scan.s": total("scan"),
        "scan_grid.calls": calls("scan_grid"),
        "scan_grid.s": total("scan_grid"),
        "scan_grid.cells": counts.get("scan_grid.cells", 0.0),
        "parallel.cells": counts.get("parallel.cells", 0.0),
        "state.captures": calls("state.capture"),
        "state.capture_s": total("state.capture"),
        "state.restores": calls("state.restore"),
        "state.serialize_s": total("state.serialize"),
        "aliasing.calls": (
            layers["aliasing"].outer_calls if "aliasing" in layers else 0
        ),
        "aliasing.s": total("aliasing"),
        "serving.decode_s": total("serving.decode"),
        "serving.encode_s": total("serving.encode"),
        "serving.push_calls": calls("serving.push"),
        "serving.push_s": total("serving.push"),
        "serving.flushes": flushes,
        "serving.flush_s": total("serving.flush"),
        "serving.batch_fill": (
            counts.get("serving.flushed_events", 0.0) / flushes / batch
            if flushes and batch
            else 0.0
        ),
        "serving.handle_s": total("serving.handle"),
    }
    for tier in ("native", "scan", "vectorized", "generic"):
        key = f"simulate_fast.tier.{tier}"
        metrics[key] = counts.get(key, 0.0)
    for key, value in counts.items():
        if key.startswith("experiments."):
            metrics[key] = value
    return metrics


def program_counters() -> Dict[str, float]:
    """The program's own per-process counters that the metrics read."""
    from repro.sim.parallel import grid_fusion_stats, recovery_stats
    from repro.traces.cache import cache_stats

    fusion = grid_fusion_stats()
    recovery = recovery_stats()
    return {
        "traces.cache_hits": cache_stats()["hits"],
        "parallel.retries": recovery["retries"],
        "parallel.serial_cells": recovery["serial_cells"],
        "fused_cells": fusion["fused_cells"],
        "fallback_cells": fusion["fallback_cells"],
    }


def counter_metrics(
    before: Dict[str, float], after: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics from two :func:`program_counters` readings."""
    delta = {key: after[key] - before[key] for key in after}
    cells = delta.pop("fused_cells") + delta["fallback_cells"]
    fused = cells - delta.pop("fallback_cells")
    delta["scan_grid.fused_share"] = fused / cells if cells else 0.0
    return delta


def merge(into: Dict[str, float], other: Dict[str, float]) -> None:
    """Add ``other``'s metrics into ``into``.

    Used to combine processes that measure disjoint layers (the serve
    generator's trace generation, the server's everything else), so
    each key is non-zero on at most one side and ratios survive.
    """
    for key, value in other.items():
        into[key] = into.get(key, 0.0) + value
