"""Outside-in layer tracing for the crossemb benchmark.

A `Tracer` replaces public crossemb functions with timing wrappers at
every place they are looked up: the defining module and every crossemb
module that imported the name with `from ... import`. Each call records a
span (layer, start, end, parent span) in memory; self time is a span's
duration minus the time its child spans cover. Counts are read from
arguments and return values at the same boundary.

A target that no longer exists (renamed or removed by a later change)
is reported with a warning and yields null metrics; it never stops a run.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

PACKAGE = "crossemb"


def _ik_counts(counts, args, kwargs, result):
    if result[1] == "converged":
        counts["converged"] += 1
    else:
        counts["best_effort"] += 1


def _train_counts(counts, args, kwargs, result):
    counts["steps"] += int(kwargs["steps"] if "steps" in kwargs else args[2])


def _rollout_counts(counts, args, kwargs, result):
    counts["steps"] += result.steps_executed


def _retime_counts(counts, args, kwargs, result):
    counts["frames_out"] += len(result)


def _sync_counts(counts, args, kwargs, result):
    counts["dropped"] += result.dropped


def _ingest_counts(counts, args, kwargs, result):
    counts["frames_out"] += len(result)
    counts["dropped_frames"] += int(result.metadata.get("dropped_frames", 0))


def _dir_bytes(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).rglob("*") if p.is_file())


def _write_counts(counts, args, kwargs, result):
    counts["bytes"] += _dir_bytes(kwargs.get("directory", args[1] if len(args) > 1 else None))


def _read_counts(counts, args, kwargs, result):
    counts["bytes"] += _dir_bytes(kwargs.get("directory", args[0] if args else None))


@dataclass(frozen=True)
class Target:
    """One traced boundary: `module.attr` (or `module.Class.method`)."""

    path: str                      # e.g. "kinematics.ik_solve"
    name: str                      # metric prefix
    counter: Callable | None = None
    count_keys: tuple[str, ...] = ()
    generator: bool = False        # trace each next() of the returned iterator


# Layer boundaries, outermost first. Metric prefixes follow
# <module>.<function>; the sampler stream is reported as dataset.sampler.
TARGETS = (
    Target("harness.cotraining_experiment", "harness.cotraining_experiment"),
    Target("harness.rollout", "harness.rollout", _rollout_counts, ("steps",)),
    Target("policy.predict", "policy.predict"),
    Target("policy.train", "policy.train", _train_counts, ("steps",)),
    Target("policy.assemble_batch", "policy.assemble_batch"),
    Target("policy.backward", "policy.backward"),
    Target("dataset.MixedSampler.stream", "dataset.sampler", generator=True),
    Target("dataset.extract_pairs", "dataset.extract_pairs"),
    Target("tasks.generate_robot_demo", "tasks.generate_robot_demo"),
    Target("tasks.generate_human_demo", "tasks.generate_human_demo"),
    Target("kinematics.retarget_action", "kinematics.retarget_action"),
    Target("kinematics.ik_solve", "kinematics.ik_solve", _ik_counts,
           ("converged", "best_effort")),
    Target("kinematics.embed_robot_state", "kinematics.embed_robot_state"),
    Target("kinematics.forward_kinematics", "kinematics.forward_kinematics"),
    Target("retiming.retime", "retiming.retime", _retime_counts, ("frames_out",)),
    Target("retiming.sync_streams", "retiming.sync_streams", _sync_counts, ("dropped",)),
    Target("dataset.load_raw_capture", "dataset.load_raw_capture"),
    Target("dataset.ingest", "dataset.ingest", _ingest_counts,
           ("frames_out", "dropped_frames")),
    Target("dataset.write_dataset", "dataset.write_dataset", _write_counts, ("bytes",)),
    Target("dataset.read_dataset", "dataset.read_dataset", _read_counts, ("bytes",)),
)

ROOT = "bench.pass"


@dataclass
class _Layer:
    target: Target
    installed: bool = False
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Collects spans while installed; `metrics()` reduces them per layer."""

    def __init__(self, targets=TARGETS):
        self.layers = {t.name: _Layer(t, counts={k: 0 for k in t.count_keys})
                       for t in targets}
        self._names = [ROOT, *self.layers]
        self._ids = {name: i for i, name in enumerate(self._names)}
        self.spans: list[Any] = []   # (layer id, start, end, parent index)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, layer_id: int, idx: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (layer_id, start, end, parent)

    @contextlib.contextmanager
    def root(self):
        """The root span around one traced pass."""
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(self._ids[ROOT], idx, parent, start)

    def _wrap_function(self, layer: _Layer, fn):
        layer_id = self._ids[layer.target.name]
        counter = layer.target.counter
        counts = layer.counts
        tracer = self

        def traced(*args, **kwargs):
            idx, parent = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(layer_id, idx, parent, start)
            if counter is not None:
                counter(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, layer: _Layer, fn):
        layer_id = self._ids[layer.target.name]
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stream():
                while True:
                    idx, parent = tracer._open()
                    start = time.perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(layer_id, idx, parent, start)
                    yield item

            return stream()

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every lookup site of every target; warn on missing ones."""
        for layer in self.layers.values():
            module_name, *attrs = layer.target.path.split(".")
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, attrs[-1], None) if owner is not None else None
            if not callable(original):
                warnings.warn(f"trace target {layer.target.path} not found; "
                              "its metrics are reported as null", stacklevel=2)
                continue
            wrap = self._wrap_generator if layer.target.generator else self._wrap_function
            wrapper = wrap(layer, original)
            if len(attrs) > 1:
                # A method: patch the class attribute, seen by every caller.
                self._patch(owner, attrs[-1], wrapper)
            else:
                for name, module in list(sys.modules.items()):
                    if name != PACKAGE and not name.startswith(PACKAGE + "."):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
            layer.installed = True

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def _arrays(self):
        """Layer id, duration and self time per span (all spans closed)."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        layer = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int)
        child = np.zeros(len(arr))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return layer, dur, dur - child

    def metrics(self) -> dict[str, float | None]:
        """Per-layer calls, self seconds, latency percentiles and counts."""
        layer, dur, self_time = self._arrays()
        out: dict[str, float | None] = {}
        for name, entry in self.layers.items():
            mask = layer == self._ids[name]
            calls = int(mask.sum())
            ms = dur[mask] * 1e3
            values: dict[str, float | None] = {
                "calls": calls,
                "self_s": float(self_time[mask].sum()),
                "total_s": float(dur[mask].sum()),
                "p50_ms": float(np.percentile(ms, 50)) if calls else 0.0,
                "p99_ms": float(np.percentile(ms, 99)) if calls else 0.0,
                **entry.counts,
            }
            if not entry.installed:
                values = {k: None for k in values}
            for key, value in values.items():
                out[f"{name}.{key}"] = value
        root = layer == self._ids[ROOT]
        out["trace.wall_s"] = float(dur[root].sum())
        out["trace.bench_self_s"] = float(self_time[root].sum())
        out["trace.spans"] = int(len(dur))
        return out

    def write(self, path: Path) -> None:
        """Write the layer names, then one span per line: [layer, start, end, parent]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({"layers": self._names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(list(span)) + "\n")
