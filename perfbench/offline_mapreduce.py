"""offline_mapreduce: the paper's batch job.

Stages a seeded product pool to the DFS, runs every labeling function
as a MapReduce job (``LFApplier.apply``), then fits the sampling-free
label model and scores the pool (``predict_proba``) — the three steps of
``DryBellPipeline.label`` / ``fit_label_model`` with no featurizer.
``mapreduce``, ``dfs`` and the ``lf`` kernels do most of the work; no
sink, checkpoint or serving code runs. Each job gets a fresh DFS.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.applications.product import build_product_lfs
from repro.dfs.filesystem import DistributedFileSystem
from repro.lf.applier import LFApplier, apply_lfs_in_memory, stage_examples
from repro.pipeline import DryBellPipeline
from repro.types import Example

from perfbench.common import (
    ITERATION,
    Outcome,
    f1_positive,
    label_config,
    peak_rss_mb,
    percentile_ms,
    product_pool,
    run_for,
    timed_setup,
)

#: Examples per job: a third of the small-scale product pool, so that a
#: run holds several jobs.
POOL = 12_000

#: Examples in the set-up's warm-up job (first-call costs of the LFs).
WARMUP = 1_000


def prepare(seed: int):
    """The seeded product pool, with gold labels."""
    return product_pool(seed, POOL)


def _pipeline(lfs, seed: int) -> DryBellPipeline:
    """A serial MapReduce pipeline over a fresh DFS."""
    return DryBellPipeline(
        lfs,
        label_model_config=label_config(seed),
        use_mapreduce=True,
        dfs=DistributedFileSystem(),
        parallelism=1,
    )


def _label(pipeline: DryBellPipeline, examples, run_id: str, spans):
    """``DryBellPipeline.label`` with the DFS and MapReduce steps timed.

    Returns ``(ApplyReport, stage seconds, apply seconds)``.
    """
    start = time.perf_counter()
    with spans.span("dfs.stage", "dfs"):
        paths = stage_examples(
            pipeline.dfs,
            list(examples),
            f"/data/{run_id}/examples",
            pipeline.num_shards,
        )
    applier = LFApplier(
        pipeline.dfs,
        paths,
        run_root=f"/runs/{run_id}",
        parallelism=pipeline.parallelism,
    )
    staged = time.perf_counter()
    with spans.span("mapreduce.apply", "mapreduce"):
        report = applier.apply(pipeline.lfs)
    return report, staged - start, time.perf_counter() - staged


def measure(dataset, seed: int, seconds: float, spans) -> Outcome:
    """Set up ``SETUP_REPEATS`` times, then run fresh batch jobs for ``seconds``."""
    pool = dataset.unlabeled
    ids = [e.example_id for e in pool]

    def build():
        lfs, _ = build_product_lfs(dataset.world)
        _label(_pipeline(lfs, seed), pool[:WARMUP], "warmup", spans)
        return lfs, None

    setup_s, (lfs, _) = timed_setup(build)
    reference = apply_lfs_in_memory(
        lfs, [Example.from_record(e.to_record()) for e in pool]
    ).matrix
    gold = np.array([e.label for e in pool])

    jobs: list[float] = []
    swaps: list[float] = []
    f1s: list[float] = []
    layer = {k: [] for k in (
        "dfs.stage_s", "mapreduce.apply_s", "mapreduce.votes_emitted",
        "core.fit_s", "core.predict_s", "core.patterns",
    )}
    failed = 0
    checks: list[str] = []

    def job(i: int) -> None:
        nonlocal failed
        pipeline = _pipeline(lfs, seed)
        with spans.span(ITERATION, "bench", op=i):
            start = time.perf_counter()
            report, stage_s, apply_s = _label(
                pipeline, pool, f"job-{i}", spans
            )
            labeled = time.perf_counter()
            with spans.span("core.fit", "core"):
                model = pipeline.fit_label_model(report.label_matrix)
            fitted = time.perf_counter()
            with spans.span("core.predict", "core"):
                proba = model.predict_proba(report.label_matrix.matrix)
            end = time.perf_counter()
        jobs.append(end - start)
        swaps.append(end - labeled)
        layer["dfs.stage_s"].append(stage_s)
        layer["mapreduce.apply_s"].append(apply_s)
        layer["core.fit_s"].append(fitted - labeled)
        layer["core.predict_s"].append(end - fitted)
        layer["mapreduce.votes_emitted"].append(
            sum(r.votes_emitted for r in report.lf_results)
        )
        matrix = report.label_matrix
        layer["core.patterns"].append(len(np.unique(matrix.matrix, axis=0)))
        row_of = {eid: r for r, eid in enumerate(matrix.example_ids)}
        if len(matrix.example_ids) != len(ids) or row_of.keys() != set(ids):
            failed += len(pool)
            checks.append(f"job {i}: MapReduce rows are not the pool's ids")
            return
        order = np.array([row_of[eid] for eid in ids])
        if not np.array_equal(matrix.matrix[order], reference):
            failed += len(pool)
            checks.append(f"job {i}: MapReduce votes differ from in-memory")
        f1s.append(f1_positive(proba[order], gold))

    iterations = run_for(seconds, job)
    rss = peak_rss_mb()
    return Outcome(
        attempted=iterations * len(pool),
        failed=failed,
        metrics={
            "setup_s": setup_s,
            "throughput_eps": len(pool) / statistics.median(jobs),
            "latency_p50_ms": percentile_ms(jobs, 50),
            "latency_p99_ms": percentile_ms(jobs, 99),
            "swap_s": statistics.median(swaps),
            "label_f1": statistics.median(f1s) if f1s else 0.0,
            "peak_rss_mb": rss,
        },
        layers={k: statistics.median(v) for k, v in layer.items() if v},
        checks=checks,
    )
