"""Measurement machinery shared by the workloads.

Spans are recorded in memory by the benchmark itself, around each call
it makes into a layer's public API; counters and spans the program
already exposes (``StreamReport.counters``, ``LabelServer.report()``,
``tracer=``) are folded in by the workloads. Nothing here touches the
program's internals.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import resource
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.config import SMALL_SCALE
from repro.core.label_model import LabelModelConfig
from repro.core.online_label_model import OnlineLabelModel
from repro.datasets.content import generate_product_dataset

#: Layers, named after the ``src/repro`` packages they time.
LAYERS = ("dfs", "mapreduce", "lf", "core", "streaming", "serving")

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 7

#: Optimizer steps per label-model fit: a quarter of the default 6000,
#: so that one run holds dozens of fits and refits to take medians over.
FIT_STEPS = 1500

#: Name of the benchmark-owned root span that wraps one measured
#: iteration; its self time is the wall time no layer covers.
ITERATION = "iteration"


class Spans:
    """In-memory span recorder with per-thread parent links.

    Each record holds a name, a layer, start and end (``perf_counter``
    seconds), the parent span id, the thread, and ``op``: the id of the
    request or batch the span belongs to. A disabled recorder records
    nothing and costs one attribute check per span.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.records: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the calling thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add(
        self,
        name: str,
        layer: str,
        start: float,
        end: float,
        parent: int | None = None,
        op: object = None,
        thread: str | None = None,
        span_id: int | None = None,
    ) -> int:
        """Record a finished span; returns its id (reserved or new)."""
        with self._lock:
            if span_id is None:
                span_id = self._reserve()
            self.records.append(
                {
                    "id": span_id,
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                    "thread": thread or threading.current_thread().name,
                }
            )
        return span_id

    def _reserve(self) -> int:
        self._next_id += 1
        return self._next_id

    @contextmanager
    def span(self, name: str, layer: str, op: object = None):
        """Time a block as one span, nested under the thread's open span.

        Children recorded while the block runs name this span as parent,
        so its id is reserved when the block opens.
        """
        if not self.enabled:
            yield
            return
        with self._lock:
            span_id = self._reserve()
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            self.add(
                name, layer, start, time.perf_counter(), parent, op,
                span_id=span_id,
            )

    def write(self, path: str) -> None:
        """Write every span as one JSON line, times relative to the first."""
        origin = min((r["start"] for r in self.records), default=0.0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in sorted(self.records, key=lambda r: r["start"]):
                out = dict(record)
                out["start"] = round(record["start"] - origin, 7)
                out["end"] = round(record["end"] - origin, 7)
                handle.write(json.dumps(out, sort_keys=True) + "\n")


def program_spans(spans: Spans, tracer_records: list[dict], layer_of: dict,
                  parent: int | None) -> None:
    """Fold ``repro.obs.Tracer`` records into the benchmark's spans.

    The program emits its spans after the work, with ``start_unix`` set
    at emission, so a span's interval is ``[emitted - duration, emitted]``
    on the wall clock; it is mapped onto ``perf_counter`` through one
    clock offset. Spans named outside ``layer_of`` are skipped.
    """
    offset = time.time() - time.perf_counter()
    for record in tracer_records:
        layer = layer_of.get(record["name"])
        if layer is None:
            continue
        end = record["start_unix"] - offset
        start = end - record["duration_us"] / 1e6
        attrs = record.get("attrs") or {}
        spans.add(
            record["name"],
            layer,
            start,
            end,
            parent=parent,
            op=attrs.get("seq"),
            thread="program",
        )


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(records: list[dict]) -> tuple[dict[str, float], float]:
    """Per-layer self time under the ``iteration`` root spans.

    A span's self time is its duration minus the part of its interval
    that its children cover. Returns ``(seconds by layer, wall)``, where
    wall is the summed duration of the roots; the roots' own self time
    is reported under the layer ``"bench"``.
    """
    children = defaultdict(list)
    for record in records:
        if record["parent"] is not None:
            children[record["parent"]].append(record)
    totals: dict[str, float] = defaultdict(float)
    wall = 0.0
    pending = [r for r in records if r["name"] == ITERATION and r["parent"] is None]
    for root in pending:
        wall += root["end"] - root["start"]
    while pending:
        span = pending.pop()
        kids = children.get(span["id"], [])
        cover = _covered(
            [
                (max(k["start"], span["start"]), min(k["end"], span["end"]))
                for k in kids
            ]
        )
        totals[span["layer"]] += (span["end"] - span["start"]) - cover
        pending.extend(kids)
    return dict(totals), wall


def run_for(seconds: float, iteration) -> int:
    """Call ``iteration(i)`` until ``seconds`` of loop wall time are used.

    Another iteration starts only when the median one so far still fits
    before the deadline, so a run overshoots by at most about half an
    iteration. At least one iteration always runs. Garbage from the
    previous iteration is collected before the next one starts, outside
    its timing, so each starts from the same collector state.
    """
    deadline = time.perf_counter() + seconds
    durations: list[float] = []
    while True:
        gc.collect()
        start = time.perf_counter()
        iteration(len(durations))
        durations.append(time.perf_counter() - start)
        if time.perf_counter() + statistics.median(durations) > deadline:
            return len(durations)


def timed_setup(build) -> tuple[float, object]:
    """Run ``build()`` ``SETUP_REPEATS`` times; returns (median s, last).

    ``build`` returns ``(system, close)``; every system but the last is
    closed, so the measured phase starts from a freshly built one.
    """
    durations = []
    system = close = None
    for _ in range(SETUP_REPEATS):
        if close is not None:
            close()
        start = time.perf_counter()
        system, close = build()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations), (system, close)


def product_pool(seed: int, size: int):
    """A seeded product-classification dataset of ``size`` pool examples.

    The pool is drawn exactly as the small-scale product pool is, minus
    its dev and test splits; every example carries its gold label.
    """
    scale = dataclasses.replace(
        SMALL_SCALE,
        name="perfbench",
        product_unlabeled=size,
        product_dev=0,
        product_test=0,
    )
    return generate_product_dataset(scale, seed=seed)


def label_config(seed: int):
    """The label-model configuration every workload fits with."""
    return LabelModelConfig(seed=seed, n_steps=FIT_STEPS)


@dataclass
class Swap:
    """One manifest deployed the way the serving registry deploys it."""

    restored: object
    """The ``OnlineLabelModel`` restored from the manifest."""
    model: object
    """Its refit ``SamplingFreeLabelModel``."""
    seconds: float
    """Load, restore and refit."""
    refit_seconds: float


def swap(manager, path: str, config, spans: Spans, op=None) -> Swap:
    """Load ``path``, restore a fresh ``OnlineLabelModel``, refit it."""
    start = time.perf_counter()
    with spans.span("streaming.load", "streaming", op=op):
        checkpoint = manager.load(path)
    with spans.span("core.restore", "core", op=op):
        restored = OnlineLabelModel(config).load_state(checkpoint.label_model_state)
    refit_start = time.perf_counter()
    with spans.span("core.refit", "core", op=op):
        model = restored.refit()
    end = time.perf_counter()
    return Swap(restored, model, end - start, end - refit_start)


def percentile_ms(samples_s: list[float], q: float) -> float:
    """Percentile ``q`` (0-100) of raw second samples, in milliseconds."""
    return float(np.percentile(np.asarray(samples_s), q)) * 1e3


def f1_positive(proba: np.ndarray, gold: np.ndarray) -> float:
    """F1 of the positive class, predicting positive when ``p > 0.5``."""
    predicted = np.asarray(proba) > 0.5
    actual = np.asarray(gold) == 1
    tp = int(np.sum(predicted & actual))
    fp = int(np.sum(predicted & ~actual))
    fn = int(np.sum(~predicted & actual))
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one measured pass of a workload reports."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    """End-to-end metrics by name."""
    layers: dict[str, float] = field(default_factory=dict)
    """Per-layer metrics the workload observed, by name."""
    layer_self_s: dict[str, float] = field(default_factory=dict)
    """Seconds to move between layers after the span walk, for work a
    program span credits to the wrong layer."""
    checks: list[str] = field(default_factory=list)
    """One line per failed output check."""
