"""durable_stream: the always-on path.

A ``CheckpointedStream`` reads a seeded product pool from DFS record
shards (``RecordStreamSource``), labels it in 2048-row micro-batches
with the same ``lf`` kernel the batch job uses, writes vote and label
sink shards and a manifest every other batch. Each iteration streams
into a fresh DFS and then deploys each manifest the way the serving
registry does (load, restore, refit), which is what ``swap_s`` times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.applications.product import build_product_lfs
from repro.core.label_model import SamplingFreeLabelModel
from repro.core.online_label_model import OnlineLabelModelConfig
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import iter_record_blobs, read_records
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.obs import ListTraceSink, Tracer
from repro.streaming import (
    CheckpointedStream,
    LabelSink,
    RecordStreamSource,
    VoteSink,
)
from repro.types import Example

from perfbench.common import (
    ITERATION,
    Outcome,
    f1_positive,
    label_config,
    peak_rss_mb,
    percentile_ms,
    product_pool,
    program_spans,
    run_for,
    swap,
    timed_setup,
)

#: Examples per stream (eight micro-batches).
POOL = 16_384
BATCH = 2048
CHECKPOINT_EVERY = 2
NUM_SHARDS = 8
WARMUP = 1024

#: Posterior agreement between the restored refit and an offline fit.
TOLERANCE = 1e-6

#: Program span name -> layer, for the consumer thread's spans. The
#: manifest writes (``stream.checkpoint``) happen inside sink spans, and
#: ``stream.ingest`` runs on the producer thread beside the consumer, so
#: both stay out of the breakdown.
_LAYER_OF = {"stream.label": "lf", "stream.sink": "streaming"}


def prepare(seed: int):
    """The seeded product pool, with gold labels."""
    return product_pool(seed, POOL)


def _stage(examples) -> tuple[DistributedFileSystem, list[str]]:
    dfs = DistributedFileSystem()
    return dfs, stage_examples(dfs, examples, "/in/examples", NUM_SHARDS)


def _stream(dfs, lfs, config, batch_size, tracer=None) -> CheckpointedStream:
    return CheckpointedStream(
        dfs,
        lfs,
        "/stream",
        batch_size=batch_size,
        online_config=config,
        checkpoint_every=CHECKPOINT_EVERY,
        tracer=tracer,
    )


def measure(dataset, seed: int, seconds: float, spans) -> Outcome:
    """Set up ``SETUP_REPEATS`` times, then stream into fresh DFSs for ``seconds``."""
    pool = dataset.unlabeled
    config = OnlineLabelModelConfig(base=label_config(seed), seed=seed)

    def build():
        lfs, _ = build_product_lfs(dataset.world)
        dfs, paths = _stage(pool[:WARMUP])
        _stream(dfs, lfs, config, WARMUP // 4).run(RecordStreamSource(dfs, paths))
        return lfs, None

    setup_s, (lfs, _) = timed_setup(build)

    # Offline references in stream order (the shards interleave the pool).
    dfs, paths = _stage(pool)
    decoded = [Example.from_record(r) for r in iter_record_blobs(dfs, paths)]
    stream_ids = [e.example_id for e in decoded]
    votes = apply_lfs_in_memory(lfs, decoded).matrix
    offline = SamplingFreeLabelModel(label_config(seed))
    offline.fit(votes)
    offline_proba = offline.predict_proba(votes)
    gold = {e.example_id: e.label for e in pool}
    lf_names = [lf.name for lf in lfs]

    runs: list[float] = []
    swaps: list[float] = []
    f1s: list[float] = []
    layer: dict[str, list[float]] = {}
    observe_s = 0.0
    failed = 0
    checks: list[str] = []

    def note(name: str, value: float) -> None:
        layer.setdefault(name, []).append(value)

    def iteration(i: int) -> None:
        nonlocal failed, observe_s
        dfs, paths = _stage(pool)
        tracer = (
            Tracer(ListTraceSink(), enabled=True, sample=1.0)
            if spans.enabled
            else None
        )
        stream = _stream(dfs, lfs, config, BATCH, tracer)
        with spans.span(ITERATION, "bench", op=i):
            with spans.span("streaming.run", "streaming", op=i):
                run_span = spans.current()
                start = time.perf_counter()
                report = stream.run(RecordStreamSource(dfs, paths))
                streamed = time.perf_counter()
            # Deploy every manifest the stream wrote, oldest first.
            deployed = [
                swap(stream.manager, path, config, spans, op=i)
                for path in stream.manager.manifest_paths()
            ]
        runs.append(streamed - start)
        swaps.extend(d.seconds for d in deployed)
        final = deployed[-1]
        counters = report.stream.counters
        sink_names = ("votes", "labels", "checkpoint")
        named_sink_us = sum(counters.get(f"sink/{n}/us", 0) for n in sink_names)
        # The sink stage's time minus the named sinks is the on-batch
        # model update, OnlineLabelModel.observe (layer core).
        observe = (counters.get("sink/us", 0) - named_sink_us) / 1e6
        note("core.observe_s", observe)
        note("core.refit_s", statistics.mean(d.refit_seconds for d in deployed))
        note("core.refits", len(deployed))
        note("core.patterns", final.restored.n_patterns)
        note("lf.label_s", counters.get("label/us", 0) / 1e6)
        note("streaming.decode_s", counters.get("ingest/decode_us", 0) / 1e6)
        note("streaming.queue_wait_s", counters.get("queue/wait_us", 0) / 1e6)
        note("streaming.backpressure_s", counters.get("ingest/wait_us", 0) / 1e6)
        note(
            "streaming.backpressure_waits",
            counters.get("ingest/backpressure_waits", 0),
        )
        note(
            "streaming.peak_resident_records",
            report.stream.peak_resident_records,
        )
        note("streaming.vote_sink_s", counters.get("sink/votes/us", 0) / 1e6)
        note("streaming.label_sink_s", counters.get("sink/labels/us", 0) / 1e6)
        note("streaming.checkpoints", report.checkpoints_written)
        note("streaming.manifest_bytes", dfs.size(report.manifest_path))
        if tracer is not None:
            records = tracer.sink.records
            program_spans(spans, records, _LAYER_OF, run_span)
            program_spans(spans, records, {"stream.ingest": "streaming"}, None)
            observe_s += observe
            for record in records:
                if record["name"] == "stream.checkpoint":
                    note("streaming.checkpoint_s", record["duration_us"] / 1e6)

        # Output checks (untimed).
        shard_rows = [
            r
            for path in VoteSink(dfs, "/stream", lf_names).existing_shards()
            for r in read_records(dfs, path)
            if r.get("kind") != "meta"
        ]
        ok = [r["example_id"] for r in shard_rows] == stream_ids and np.array_equal(
            np.array([r["votes"] for r in shard_rows], dtype=np.int8), votes
        )
        if not ok:
            checks.append(f"run {i}: vote shards differ from the streamed votes")
        drift = float(np.max(np.abs(final.model.predict_proba(votes) - offline_proba)))
        if drift > TOLERANCE:
            ok = False
            checks.append(f"run {i}: restored refit is {drift:.2e} from offline")
        if report.stream.examples != len(pool):
            ok = False
            checks.append(f"run {i}: streamed {report.stream.examples} examples")
        if not ok:
            failed += len(pool)
        labels = [
            r
            for path in LabelSink(dfs, "/stream", None).existing_shards()
            for r in read_records(dfs, path)
            if r.get("kind") != "meta"
        ]
        f1s.append(
            f1_positive(
                np.array([r["proba"] for r in labels]),
                np.array([gold[r["example_id"]] for r in labels]),
            )
        )

    iterations = run_for(seconds, iteration)
    rss = peak_rss_mb()
    return Outcome(
        attempted=iterations * len(pool),
        failed=failed,
        metrics={
            "setup_s": setup_s,
            "throughput_eps": len(pool) / statistics.median(runs),
            "latency_p50_ms": percentile_ms(runs, 50),
            "latency_p99_ms": percentile_ms(runs, 99),
            "swap_s": statistics.median(swaps),
            "label_f1": statistics.median(f1s),
            "peak_rss_mb": rss,
        },
        layers={k: statistics.median(v) for k, v in layer.items()},
        # The observe calls run inside the program's stream.sink spans,
        # which the self-time walk credits to streaming; move them.
        layer_self_s={"core": observe_s, "streaming": -observe_s},
        checks=checks,
    )
