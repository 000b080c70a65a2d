"""vote_stream: label-model state on a long synthetic vote stream.

Vote rows come from a known generative model: a balanced true label
and twelve labeling functions with seeded accuracies and propensities,
which gives thousands of distinct vote patterns (the product task has
21). The stream goes through ``OnlineLabelModel.observe`` in 512-row
batches, with a ``refit``, ``state_dict`` and ``CheckpointManager.write``
every 32 batches. ``core`` and checkpoint state
do almost all the work; ``lf``, sources and sinks do none. Each
iteration then restores each of its manifests into a fresh model and
refits it, which is what ``swap_s`` times.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from repro.core.online_label_model import OnlineLabelModel, OnlineLabelModelConfig
from repro.dfs.filesystem import DistributedFileSystem
from repro.streaming import CheckpointManager

from perfbench.common import (
    ITERATION,
    Outcome,
    f1_positive,
    label_config,
    peak_rss_mb,
    percentile_ms,
    run_for,
    swap,
    timed_setup,
)

ROWS = 65_536
BATCH = 512
LFS = 12
REFIT_EVERY = 32
CHECKPOINT_EVERY = 32

#: Batches in the set-up's warm-up stream.
WARMUP_BATCHES = 2


def prepare(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """``(votes, truth)``: ``ROWS`` vote rows and their true labels.

    Accuracies and propensities are evenly spaced ladders that the seed
    shuffles, so every seed draws from the same LF suite up to column
    order, and label quality compares across seeds.
    """
    rng = np.random.default_rng(seed)
    accuracy = rng.permutation(np.linspace(0.62, 0.90, LFS))
    propensity = rng.permutation(np.linspace(0.03, 0.25, LFS))
    truth = np.where(rng.random(ROWS) < 0.5, 1, -1).astype(np.int8)
    fires = rng.random((ROWS, LFS)) < propensity
    right = rng.random((ROWS, LFS)) < accuracy
    votes = np.where(right, truth[:, None], -truth[:, None]) * fires
    return votes.astype(np.int8), truth


def measure(inputs, seed: int, seconds: float, spans) -> Outcome:
    """Set up ``SETUP_REPEATS`` times, then stream fresh models for ``seconds``."""
    votes, truth = inputs
    config = OnlineLabelModelConfig(base=label_config(seed), seed=seed)

    def build():
        model = OnlineLabelModel(config)
        manager = CheckpointManager(DistributedFileSystem(), "/warmup")
        for b in range(WARMUP_BATCHES):
            model.observe(votes[b * BATCH:(b + 1) * BATCH])
        model.refit()
        manager.write(WARMUP_BATCHES - 1, WARMUP_BATCHES * BATCH, model.state_dict())
        return None, None

    setup_s, _ = timed_setup(build)

    runs: list[float] = []
    steps: list[float] = []
    swaps: list[float] = []
    f1s: list[float] = []
    # Seconds per call, and per-iteration totals and counts.
    timing: dict[str, list[float]] = {
        "core.observe_s": [], "core.refit_s": [], "core.state_dict_s": [],
        "streaming.checkpoint_s": [],
    }
    totals: dict[str, list[float]] = {
        "core.observe_s": [], "core.refits": [], "streaming.checkpoints": [],
        "streaming.manifest_bytes": [], "core.patterns": [],
    }
    failed = 0
    checks: list[str] = []

    def timed(name: str, layer: str, op, call):
        with spans.span(name, layer, op=op):
            start = time.perf_counter()
            value = call()
            timing[f"{name}_s"].append(time.perf_counter() - start)
        return value

    def iteration(i: int) -> None:
        nonlocal failed
        model = OnlineLabelModel(config)
        dfs = DistributedFileSystem()
        manager = CheckpointManager(dfs, "/votes")
        observed_before = len(timing["core.observe_s"])
        path = None
        with spans.span(ITERATION, "bench", op=i):
            start = time.perf_counter()
            for b in range(ROWS // BATCH):
                step_start = time.perf_counter()
                batch = votes[b * BATCH:(b + 1) * BATCH]
                timed("core.observe", "core", b, lambda: model.observe(batch))
                if (b + 1) % REFIT_EVERY == 0:
                    timed("core.refit", "core", b, model.refit)
                if (b + 1) % CHECKPOINT_EVERY == 0:
                    state = timed("core.state_dict", "core", b, model.state_dict)
                    path = timed(
                        "streaming.checkpoint",
                        "streaming",
                        b,
                        lambda: manager.write(b, (b + 1) * BATCH, state),
                    )
                steps.append(time.perf_counter() - step_start)
            streamed = time.perf_counter()
            deployed = [
                swap(manager, path, config, spans, op=i)
                for path in manager.manifest_paths()
            ]
        runs.append(streamed - start)
        swaps.extend(d.seconds for d in deployed)
        totals["core.observe_s"].append(
            sum(timing["core.observe_s"][observed_before:])
        )
        totals["core.refits"].append(model.refits_done)
        totals["streaming.checkpoints"].append(ROWS // BATCH // CHECKPOINT_EVERY)
        totals["streaming.manifest_bytes"].append(dfs.size(path))
        totals["core.patterns"].append(model.n_patterns)

        # Output check (untimed): the manifest restores bit for bit.
        live = model.model.predict_proba(votes)
        if not np.array_equal(deployed[-1].model.predict_proba(votes), live):
            failed += ROWS
            checks.append(f"stream {i}: restored refit differs from the live one")
        f1s.append(f1_positive(live, truth))

    iterations = run_for(seconds, iteration)
    rss = peak_rss_mb()
    layers = {k: statistics.mean(v) for k, v in timing.items() if v}
    layers.update({k: statistics.median(v) for k, v in totals.items()})
    return Outcome(
        attempted=iterations * ROWS,
        failed=failed,
        metrics={
            "setup_s": setup_s,
            "throughput_eps": ROWS / statistics.median(runs),
            "latency_p50_ms": percentile_ms(steps, 50),
            "latency_p99_ms": percentile_ms(steps, 99),
            "swap_s": statistics.median(swaps),
            "label_f1": statistics.median(f1s),
            "peak_rss_mb": rss,
        },
        layers=layers,
        checks=checks,
    )
