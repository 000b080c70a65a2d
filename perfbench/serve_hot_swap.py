"""serve_hot_swap: label serving while new manifests deploy.

A ``LabelServer`` with the default ``ServeConfig`` answers ``nproc``
closed-loop client threads (each sends its next request when the last
one returns, because ``predict`` blocks). During the load, newer
checkpoint manifests are copied into the live root at even intervals;
the registry's watcher refits each one beside the request path.
``lf`` and ``core`` run at micro-batches of about two requests, so
per-call overhead and the 2 ms flush window dominate.

Every request carries a freshly decoded example, so no per-example
memo survives from an earlier request.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

from repro.applications.product import build_product_lfs
from repro.core.label_model import SamplingFreeLabelModel
from repro.core.online_label_model import OnlineLabelModelConfig
from repro.dfs.filesystem import DistributedFileSystem
from repro.dfs.records import iter_record_blobs
from repro.lf.applier import apply_lfs_in_memory, stage_examples
from repro.obs import ListTraceSink, Tracer
from repro.serving import CheckpointModelRegistry, LabelServer, ServeConfig
from repro.serving.service import ServeTimeout
from repro.streaming import CheckpointedStream, RecordStreamSource
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
    timed_setup,
)

#: Distinct examples requests cycle over.
CORPUS = 4096

#: Stream micro-batch that produces the manifests: sixteen of them.
STREAM_BATCH = 256

#: Manifests deployed during one measured load, after the first one
#: that set-up activates: every later manifest the stream writes, so
#: ``swap_s`` is a median over fifteen swaps.
DEPLOYS = CORPUS // STREAM_BATCH - 1

#: Requests each set-up sends once the first generation serves.
WARMUP_REQUESTS = 32

#: Client-side bound on one request; a wedged server, not a slow one.
TIMEOUT_MS = 30_000.0

#: How long past the window a deployed generation may take to serve.
SWAP_LIMIT_S = 60.0


class _Inputs:
    """Seeded corpus plus the manifests to deploy and their references."""

    def __init__(self, seed: int) -> None:
        dataset = product_pool(seed, CORPUS)
        self.lfs, _ = build_product_lfs(dataset.world)
        self.config = OnlineLabelModelConfig(base=label_config(seed), seed=seed)
        self.dfs = DistributedFileSystem()
        paths = stage_examples(self.dfs, dataset.unlabeled, "/corpus", 8)
        stream = CheckpointedStream(
            self.dfs,
            self.lfs,
            "/produced",
            batch_size=STREAM_BATCH,
            online_config=self.config,
            checkpoint_every=1,
            write_labels=False,
        )
        stream.run(RecordStreamSource(self.dfs, paths))
        #: Generation k (1-based) is ``manifests[k - 1]``.
        self.manifests = stream.manager.manifest_paths()[-(DEPLOYS + 1):]
        # Requests in stream order, which is the row order of the
        # offline references.
        self.records = list(iter_record_blobs(self.dfs, paths))
        self.gold = np.array([r["label"] for r in self.records])
        votes = apply_lfs_in_memory(
            self.lfs, [Example.from_record(r) for r in self.records]
        ).matrix
        self.reference = {}
        for generation, path in enumerate(self.manifests, start=1):
            model = SamplingFreeLabelModel(label_config(seed))
            model.fit(votes[: stream.manager.load(path).cursor])
            self.reference[generation] = model.predict_proba(votes)
        self.roots = 0

    def deploy(self, root: str, generation: int) -> None:
        """Copy generation ``generation``'s manifest into a live root."""
        path = self.manifests[generation - 1]
        name = path.rsplit("/", 1)[1]
        self.dfs.write_file(f"{root}/checkpoints/{name}", self.dfs.read_file(path))


def prepare(seed: int) -> _Inputs:
    """The seeded corpus, its manifests and their offline references."""
    return _Inputs(seed)


def measure(inputs: _Inputs, seed: int, seconds: float, spans) -> Outcome:
    """Set up ``SETUP_REPEATS`` servers, then load the last one for ``seconds``."""
    clients = len(os.sched_getaffinity(0))
    records = inputs.records

    def build():
        inputs.roots += 1
        root = f"/live-{inputs.roots}"
        inputs.deploy(root, 1)
        registry = CheckpointModelRegistry(
            inputs.dfs, root, online_config=inputs.config
        )
        tracer = (
            Tracer(ListTraceSink(), enabled=True, sample=1.0)
            if spans.enabled
            else None
        )
        server = LabelServer(registry, inputs.lfs, ServeConfig(), tracer=tracer)
        server.start()
        for row in range(WARMUP_REQUESTS):
            server.predict(Example.from_record(records[row]))
        return (server, root, tracer), server.stop

    setup_s, ((server, root, tracer), stop_server) = timed_setup(build)
    before = server.report()["counters"]
    flush_mark = len(tracer.sink.records) if tracer is not None else 0

    # One list per client: (row, posterior, generation, degraded, done,
    # client latency, server latency); and the newest generation each
    # client has been answered from.
    served: list[list[tuple]] = [[] for _ in range(clients)]
    seen = [1] * clients
    timeouts = [0] * clients
    stop = threading.Event()

    errors: list[str] = []

    def client(c: int) -> None:
        try:
            closed_loop(c)
        except Exception as error:  # reported as a failed check below
            errors.append(f"client {c}: {error!r}")

    def closed_loop(c: int) -> None:
        i = c
        out = served[c]
        while not stop.is_set():
            row = i % CORPUS
            i += clients
            example = Example.from_record(records[row])
            with spans.span(ITERATION, "bench", op=(c, i)):
                start = time.perf_counter()
                try:
                    with spans.span("serving.predict", "serving", op=(c, i)):
                        result = server.predict(example, timeout_ms=TIMEOUT_MS)
                except ServeTimeout:
                    timeouts[c] += 1
                    continue
                done = time.perf_counter()
            out.append(
                (
                    row,
                    result.posterior,
                    result.generation,
                    result.degraded,
                    done,
                    done - start,
                    result.latency_ms / 1e3,
                )
            )
            if result.generation is not None and result.generation > seen[c]:
                seen[c] = result.generation

    def answered_from(generation: int, limit: float) -> bool:
        """Wait until some client got an answer from ``generation``."""
        while max(seen) < generation:
            if time.perf_counter() > limit:
                return False
            time.sleep(0.005)
        return True

    threads = [
        threading.Thread(target=client, args=(c,), name=f"client-{c}")
        for c in range(clients)
    ]
    deployed: dict[int, float] = {}
    try:
        load_start = time.perf_counter()
        limit = load_start + seconds + SWAP_LIMIT_S
        for thread in threads:
            thread.start()
        # Each deploy waits for the previous generation to serve, so
        # every manifest becomes exactly one generation; the load runs
        # on past the window until the last one has served.
        for generation in range(2, DEPLOYS + 2):
            due = load_start + seconds * (generation - 1.5) / DEPLOYS
            time.sleep(max(0.0, due - time.perf_counter()))
            if not answered_from(generation - 1, limit):
                break
            inputs.deploy(root, generation)
            deployed[generation] = time.perf_counter()
        answered_from(max(deployed, default=1), limit)
        time.sleep(max(0.0, load_start + seconds - time.perf_counter()))
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=TIMEOUT_MS / 1e3 + 5)
    load_s = time.perf_counter() - load_start
    alive = [t.name for t in threads if t.is_alive()]
    rss = peak_rss_mb()
    report = server.report()
    stop_server()

    rows = [r for part in served for r in part]
    failed = sum(timeouts)
    checks = [f"{sum(timeouts)} requests timed out"] if failed else []
    if alive:
        checks.append(f"clients still running: {alive}")
    checks.extend(errors)
    mismatched = degraded = 0
    first_served: dict[int, float] = {}
    for row, posterior, generation, is_degraded, done, _, _ in rows:
        if is_degraded or generation is None:
            degraded += 1
            continue
        if posterior != inputs.reference[generation][row]:
            mismatched += 1
        if done < first_served.get(generation, float("inf")):
            first_served[generation] = done
    failed += mismatched + degraded
    if mismatched:
        checks.append(f"{mismatched} posteriors differ from the offline fit")
    if degraded:
        checks.append(f"{degraded} degraded answers after the first deploy")
    swaps = []
    if len(deployed) < DEPLOYS:
        checks.append(f"only {len(deployed)} of {DEPLOYS} manifests deployed")
    for generation, at in deployed.items():
        if generation in first_served:
            swaps.append(first_served[generation] - at)
        else:
            checks.append(f"generation {generation} never served")
    client_s = [r[5] for r in rows]
    server_s = [r[6] for r in rows]
    served_rows = np.array([r[0] for r in rows])

    counters = report["counters"]

    def delta(key: str) -> int:
        return counters.get(key, 0) - before.get(key, 0)

    requests, batches = delta("serving/requests"), delta("serving/batches")
    layers = {
        "serving.requests": requests,
        "serving.batches": batches,
        "serving.mean_batch": requests / batches if batches else 0.0,
        "serving.timeouts": delta("serving/timeouts"),
        # Every swap is one refit-on-deploy on the watcher thread.
        "core.refits": delta("serving/swaps"),
    }
    if tracer is not None:
        flushes = [
            r
            for r in tracer.sink.records[flush_mark:]
            if r["name"] == "serving.flush"
        ]
        weighted = sum(r["duration_us"] * r["attrs"]["requests"] for r in flushes)
        layers["serving.flush_s"] = (
            statistics.mean(r["duration_us"] for r in flushes) / 1e6
        )
        # Server-side latency minus the flush that answered the request.
        layers["serving.window_wait_ms"] = 1e3 * (
            statistics.mean(server_s) - weighted / requests / 1e6
        )
        program_spans(spans, flushes, {"serving.flush": "serving"}, None)
    return Outcome(
        attempted=len(rows) + sum(timeouts),
        failed=failed,
        metrics={
            "setup_s": setup_s,
            "throughput_eps": len(rows) / load_s,
            "latency_p50_ms": percentile_ms(client_s, 50),
            "latency_p99_ms": percentile_ms(client_s, 99),
            "swap_s": statistics.median(swaps) if swaps else load_s,
            "label_f1": f1_positive(
                np.array([r[1] for r in rows]), inputs.gold[served_rows]
            ),
            "peak_rss_mb": rss,
        },
        layers=layers,
        checks=checks,
    )
