"""Online generative label model for streaming weak supervision.

The Section 5.2 trainer (:class:`SamplingFreeLabelModel`) is full-batch:
it holds the whole ``(n, m)`` label matrix and samples minibatches from
it. A streaming deployment sees votes one micro-batch at a time and can
never hold the raw examples; this module provides the incremental
counterpart built on two observations about the conditionally
independent model:

1. **The data enters the likelihood only through vote patterns.** For m
   labeling functions there are at most ``3^m`` distinct vote rows, and
   in practice a handful: the stream is retained as a *pattern log* —
   each distinct row stored once, in first-seen order, with its
   multiplicity. The log's size tracks pattern diversity, never stream
   length, and its canonical form
   (:func:`repro.core.patterns.compress_votes`) is exactly what the
   offline fit of the same rows consumes.
2. **Cheap first/second vote moments track the stream between refits.**
   Per-LF vote sums, fire rates, and the pairwise agreement matrix are
   O(m^2) per micro-batch and feed monitoring (the Section 3.3
   "previously unknown low-quality sources" diagnostics, and the drift
   monitor in :mod:`repro.core.drift`) without any optimization.

Training interleaves two update kinds:

* ``observe(votes)`` folds a micro-batch into the moments and the
  pattern log, then takes a few exact-gradient ``partial_step``s on rows
  sampled from the new batch — the model tracks a drifting stream at
  O(steps x batch) cost per micro-batch;
* ``refit()`` (scheduled every ``refit_every`` batches, or called
  manually at stream end) fits the canonical form of the retained
  pattern log (:meth:`SamplingFreeLabelModel.fit_compressed`,
  O(patterns x m) per step). Because the offline ``fit`` compresses its
  matrix to the same canonical form, a cumulative refit equals the
  offline fit of the stream bitwise, for any batch split or row order.

Retention modes
---------------
Production traffic is non-stationary; a refit that pools all of history
keeps trusting labeling functions long after they rot. The accumulators
therefore run in one of three modes, selected by the config:

* **cumulative** (default): moments and pattern counts grow without
  forgetting. Refits reproduce the offline fit on the full stream
  *exactly* — same config, same seed, same bytes.
* **decay** (``decay=0.95``-ish): every observed micro-batch multiplies
  the moments and the per-pattern weights by ``decay`` before folding
  the new batch in — an exponential recency window with half-life
  ``ln 2 / ln(1/decay)`` batches. Patterns whose weight sinks below
  ``pattern_weight_floor`` are evicted, so the log's footprint tracks
  the *recent* pattern diversity, not all of history. Refits weight each
  retained pattern by its real-valued decayed weight.
* **window** (``window_batches=N``): moments and pattern counts cover
  exactly the last ``N`` micro-batches. Each batch's per-pattern count
  delta is kept until it leaves the window (exact integer rolling sums),
  and patterns no longer referenced by the window are evicted. Refits
  equal the offline fit of the window's rows.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.patterns import CompressedVotes, compress_votes

__all__ = ["OnlineLabelModelConfig", "OnlineLabelModel"]


@dataclass
class OnlineLabelModelConfig:
    """Configuration for :class:`OnlineLabelModel`.

    ``base`` is the offline trainer configuration used verbatim by
    :meth:`OnlineLabelModel.refit` — keep it identical to the offline
    model you want streaming runs to converge to.
    """

    base: LabelModelConfig = field(default_factory=LabelModelConfig)
    steps_per_batch: int = 8
    """Incremental exact-gradient steps taken per observed micro-batch."""
    refit_every: int | None = None
    """Full refit cadence in observed batches; ``None`` = manual only."""
    seed: int = 0
    """Seed for the incremental-step minibatch sampler (distinct from the
    refit seed, which lives in ``base.seed``)."""
    decay: float | None = None
    """Per-batch exponential decay on moments and pattern weights, in
    (0, 1); ``None`` (with ``window_batches=None``) keeps the cumulative
    all-of-history behavior. Mutually exclusive with ``window_batches``."""
    window_batches: int | None = None
    """Sliding-window retention: moments and pattern log cover exactly
    the last N observed micro-batches. Mutually exclusive with
    ``decay``."""
    pattern_weight_floor: float = 0.25
    """Decay mode only: patterns whose decayed weight falls below this
    floor are evicted from the log. Must be in (0, 1) so a pattern seen
    in the current batch (weight >= 1) is never evicted on arrival."""


class OnlineLabelModel:
    """Streaming accumulator + incremental trainer for the label model.

    Feed micro-batches via :meth:`observe`; read the current parameter
    estimate from :attr:`model`; call :meth:`refit` (or set
    ``refit_every``) for full re-estimates from the retained pattern
    log. Retention semantics (cumulative / decay / window) are set by
    the config — see the module docstring.
    """

    def __init__(self, config: OnlineLabelModelConfig | None = None) -> None:
        """Build an empty model.

        Args:
            config: Trainer + retention configuration; defaults to
                cumulative retention with the default offline config.

        Raises:
            ValueError: If the config sets both ``decay`` and
                ``window_batches``, or sets either to an out-of-range
                value, or sets ``pattern_weight_floor`` outside (0, 1).
        """
        self.config = config or OnlineLabelModelConfig()
        cfg = self.config
        if cfg.decay is not None and cfg.window_batches is not None:
            raise ValueError(
                "decay and window_batches are mutually exclusive "
                "retention modes; set at most one"
            )
        if cfg.decay is not None and not (0.0 < cfg.decay < 1.0):
            raise ValueError(f"decay must be in (0, 1), got {cfg.decay}")
        if cfg.window_batches is not None and cfg.window_batches < 1:
            raise ValueError(
                f"window_batches must be >= 1, got {cfg.window_batches}"
            )
        if not (0.0 < cfg.pattern_weight_floor < 1.0):
            raise ValueError(
                "pattern_weight_floor must be in (0, 1), got "
                f"{cfg.pattern_weight_floor}"
            )
        self._model = SamplingFreeLabelModel(replace(cfg.base))
        self._rng = np.random.default_rng(cfg.seed)
        self.n_lfs: int | None = None
        self.n_observed = 0
        self.batches_observed = 0
        self.refits_done = 0
        # Pattern log: distinct vote rows in first-seen order, with
        # integer counts (cumulative/window) or real-valued decayed
        # weights (decay); window mode also keeps each batch's
        # (pattern ids, counts) delta until it leaves the window.
        self._pattern_ids: dict[bytes, int] = {}
        self._pattern_rows: list[np.ndarray] = []
        self._pattern_weights = self._no_weights()
        self._window_patterns: deque[tuple[np.ndarray, np.ndarray]] | None = (
            deque() if cfg.window_batches is not None else None
        )
        # Streaming vote moments (recency-weighted in decay/window mode)
        # plus the effective sample weight behind them.
        self._vote_sum: np.ndarray | None = None
        self._fire_sum: np.ndarray | None = None
        self._agreement: np.ndarray | None = None
        self._moment_weight = 0.0
        self._window_moments: deque[tuple] | None = (
            deque() if cfg.window_batches is not None else None
        )

    @property
    def mode(self) -> str:
        """Retention mode: ``"cumulative"``, ``"decay"``, or ``"window"``."""
        if self.config.decay is not None:
            return "decay"
        if self.config.window_batches is not None:
            return "window"
        return "cumulative"

    # ------------------------------------------------------------------
    # streaming updates
    # ------------------------------------------------------------------
    def observe(self, votes: np.ndarray) -> None:
        """Fold one micro-batch of votes into the model.

        ``votes`` is an ``(B, m)`` array over ``{-1, 0, +1}``; its
        patterns enter the pattern log (and, in decay/window mode,
        displace stale history per the retention policy) so a later
        refit sees the retained stream's label matrix.

        Args:
            votes: The micro-batch's vote rows, stream-ordered.

        Raises:
            ValueError: On a non-2-D batch, a column-count mismatch with
                earlier batches, or votes outside ``{-1, 0, 1}``.
        """
        votes = self._validate(votes)
        if votes.shape[0] == 0:
            return
        self._update_moments(votes)
        self._append_patterns(votes)
        self.n_observed += votes.shape[0]
        self.batches_observed += 1
        self._incremental_steps(votes)
        cadence = self.config.refit_every
        if cadence is not None and self.batches_observed % cadence == 0:
            self.refit()

    def refit(self) -> SamplingFreeLabelModel:
        """Full offline fit on the retained pattern log.

        Fits :meth:`compressed_votes` with the ``base`` config via
        :meth:`SamplingFreeLabelModel.fit_compressed`. In cumulative
        mode the result is bitwise the offline ``fit`` of the observed
        rows; in window mode, of the window's rows; in decay mode it is
        the fit of the recency-weighted patterns.

        Returns:
            The freshly fitted inner model (also exposed as
            :attr:`model`).

        Raises:
            RuntimeError: If no votes have been observed yet.
        """
        if self.n_observed == 0:
            raise RuntimeError("cannot refit before observing any votes")
        self._model = SamplingFreeLabelModel(replace(self.config.base))
        self._model.fit_compressed(self.compressed_votes())
        self.refits_done += 1
        return self._model

    def compressed_votes(self) -> CompressedVotes:
        """The retained stream in canonical pattern-compressed form.

        Returns:
            The :class:`~repro.core.patterns.CompressedVotes` the next
            refit trains on: the retained patterns with their counts
            (cumulative / window mode) or decayed weights (decay mode).

        Raises:
            RuntimeError: If no votes have been observed yet.
        """
        self._check_observed()
        return compress_votes(
            np.vstack(self._pattern_rows), self._pattern_weights
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _validate(self, votes: np.ndarray) -> np.ndarray:
        votes = np.asarray(votes)
        if votes.ndim != 2:
            raise ValueError(f"votes must be 2-D, got shape {votes.shape}")
        if self.n_lfs is None:
            self.n_lfs = votes.shape[1]
        elif votes.shape[1] != self.n_lfs:
            raise ValueError(
                f"vote batch has {votes.shape[1]} columns, model has "
                f"{self.n_lfs} labeling functions"
            )
        if votes.size and not np.isin(votes, (-1, 0, 1)).all():
            bad = votes[~np.isin(votes, (-1, 0, 1))][0]
            raise ValueError(f"votes must be in {{-1, 0, 1}}, got {bad!r}")
        return votes.astype(np.int8, copy=False)

    def _update_moments(self, votes: np.ndarray) -> None:
        m = votes.shape[1]
        if self._vote_sum is None:
            self._vote_sum = np.zeros(m)
            self._fire_sum = np.zeros(m)
            self._agreement = np.zeros((m, m))
        dense = votes.astype(np.float64)
        vote = dense.sum(axis=0)
        fire = np.abs(dense).sum(axis=0)
        agree = dense.T @ dense
        count = float(votes.shape[0])
        mode = self.mode
        if mode == "decay":
            d = self.config.decay
            self._vote_sum = d * self._vote_sum + vote
            self._fire_sum = d * self._fire_sum + fire
            self._agreement = d * self._agreement + agree
            self._moment_weight = d * self._moment_weight + count
        elif mode == "window":
            # Rolling sums stay exact: every entry is an integer-valued
            # float64, so adding a batch in and subtracting it back out
            # later reproduces the same bits regardless of order.
            self._window_moments.append((vote, fire, agree, count))
            self._vote_sum += vote
            self._fire_sum += fire
            self._agreement += agree
            self._moment_weight += count
            while len(self._window_moments) > self.config.window_batches:
                o_vote, o_fire, o_agree, o_count = self._window_moments.popleft()
                self._vote_sum -= o_vote
                self._fire_sum -= o_fire
                self._agreement -= o_agree
                self._moment_weight -= o_count
        else:
            self._vote_sum += vote
            self._fire_sum += fire
            self._agreement += agree
            self._moment_weight += count

    def _no_weights(self) -> np.ndarray:
        """An empty weight vector of this mode's dtype."""
        return np.zeros(0, np.float64 if self.mode == "decay" else np.int64)

    def _append_patterns(self, votes: np.ndarray) -> None:
        batch = compress_votes(votes)
        if self.mode == "decay":
            # Age the whole log before folding this batch in.
            self._pattern_weights *= self.config.decay
        ids = np.empty(batch.n_patterns, dtype=np.int64)
        for k, row in enumerate(batch.patterns):
            key = row.tobytes()
            pattern = self._pattern_ids.get(key)
            if pattern is None:
                pattern = len(self._pattern_rows)
                self._pattern_ids[key] = pattern
                self._pattern_rows.append(row)
            ids[k] = pattern
        new_rows = len(self._pattern_rows) - len(self._pattern_weights)
        if new_rows:
            self._pattern_weights = np.concatenate(
                [self._pattern_weights, np.zeros(new_rows, self._pattern_weights.dtype)]
            )
        if self.mode == "decay":
            self._pattern_weights[ids] += batch.weights
            self._evict_patterns(
                self._pattern_weights >= self.config.pattern_weight_floor
            )
            return
        counts = batch.weights.astype(np.int64)
        self._pattern_weights[ids] += counts
        if self.mode == "window":
            self._window_patterns.append((ids, counts))
            while len(self._window_patterns) > self.config.window_batches:
                old_ids, old_counts = self._window_patterns.popleft()
                self._pattern_weights[old_ids] -= old_counts
            self._evict_patterns(self._pattern_weights > 0)

    def _evict_patterns(self, keep: np.ndarray) -> None:
        """Drop patterns where ``keep`` is False; remap retained ids."""
        if bool(keep.all()):
            return
        remap = np.cumsum(keep) - 1
        self._pattern_rows = [
            row for row, kept in zip(self._pattern_rows, keep) if kept
        ]
        self._pattern_ids = {
            row.tobytes(): i for i, row in enumerate(self._pattern_rows)
        }
        self._pattern_weights = self._pattern_weights[keep]
        if self._window_patterns is not None:
            self._window_patterns = deque(
                (remap[ids], counts) for ids, counts in self._window_patterns
            )

    def _incremental_steps(self, votes: np.ndarray) -> None:
        cfg = self.config
        if cfg.steps_per_batch < 1:
            return
        if self._model.alpha is None:
            self._model.init_params(votes.shape[1])
            # Mirror fit()'s warm start: beta from observed fire rates.
            propensity = np.clip(
                np.abs(votes).mean(axis=0), 1e-3, 1 - 1e-3
            )
            self._model.beta = np.log(propensity / (1 - propensity)) / 2.0
        batch_size = min(cfg.base.batch_size, votes.shape[0])
        for _ in range(cfg.steps_per_batch):
            idx = self._rng.integers(0, votes.shape[0], size=batch_size)
            self._model.partial_step(votes[idx])

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Bit-exact snapshot of everything :meth:`observe` mutates.

        Includes the minibatch sampler's RNG state, both step counters
        (``batches_observed`` here, ``steps_taken`` on the inner model),
        the pattern log with its counts or decayed weights, and the
        retention-mode state (decayed moments, or the rolling window's
        per-batch contributions) so a restored model takes *exactly* the
        updates the uninterrupted run would have taken — resumed streams
        converge to the same parameters to the bit. Its size is bounded
        by pattern diversity and the window length, not by the number
        of rows observed.

        Returns:
            A JSON-safe dict (arrays as base64 raw buffers). Schema 3;
            readers accept schema-1 and schema-2 dicts, which carried
            per-example pattern ids (see :meth:`load_state`).
        """
        from repro.dfs.records import encode_ndarray

        def enc(array: np.ndarray | None):
            return None if array is None else encode_ndarray(array)

        window = self._window_moments
        deltas = self._window_patterns
        return {
            "schema": 3,
            "n_lfs": self.n_lfs,
            "n_observed": self.n_observed,
            "batches_observed": self.batches_observed,
            "refits_done": self.refits_done,
            "rng_state": self._rng.bit_generator.state,
            "pattern_rows": enc(
                np.vstack(self._pattern_rows) if self._pattern_rows else None
            ),
            "pattern_weights": enc(
                self._pattern_weights if self._pattern_rows else None
            ),
            "vote_sum": enc(self._vote_sum),
            "fire_sum": enc(self._fire_sum),
            "agreement": enc(self._agreement),
            "model": self._model.state_dict(),
            "moment_weight": self._moment_weight,
            "window_vote_sums": enc(
                np.stack([e[0] for e in window]) if window else None
            ),
            "window_fire_sums": enc(
                np.stack([e[1] for e in window]) if window else None
            ),
            "window_agreements": enc(
                np.stack([e[2] for e in window]) if window else None
            ),
            "window_counts": enc(
                np.array([e[3] for e in window]) if window else None
            ),
            "window_pattern_ids": enc(
                np.concatenate([d[0] for d in deltas]) if deltas else None
            ),
            "window_pattern_counts": enc(
                np.concatenate([d[1] for d in deltas]) if deltas else None
            ),
            "window_pattern_lengths": [len(d[0]) for d in deltas or ()],
        }

    def load_state(self, state: dict) -> "OnlineLabelModel":
        """Restore a :meth:`state_dict` snapshot onto this instance.

        The instance must have been constructed with the same config the
        snapshot was taken under (configs are the caller's contract, the
        snapshot carries only mutable state). Older schemas migrate:

        * schema 1 (pre-drift, cumulative only) and schema 2 carry one
          pattern id per observed example; they become
          per-pattern counts, and in window mode ``row_id_lengths``
          splits them back into per-batch count deltas;
        * schema-1 dicts lack the retention keys, which default to the
          cumulative-mode values they implicitly had.

        Args:
            state: A dict produced by :meth:`state_dict` (schema 1-3).

        Returns:
            ``self``, for chaining.
        """
        from repro.dfs.records import decode_ndarray

        def dec(payload):
            return None if payload is None else decode_ndarray(payload)

        self.n_lfs = state["n_lfs"]
        self.n_observed = int(state["n_observed"])
        self.batches_observed = int(state["batches_observed"])
        self.refits_done = int(state["refits_done"])
        self._rng = np.random.default_rng(self.config.seed)
        self._rng.bit_generator.state = state["rng_state"]
        rows = dec(state["pattern_rows"])
        self._pattern_rows = [] if rows is None else list(rows)
        self._pattern_ids = {
            row.tobytes(): i for i, row in enumerate(self._pattern_rows)
        }
        self._vote_sum = dec(state["vote_sum"])
        self._fire_sum = dec(state["fire_sum"])
        self._agreement = dec(state["agreement"])
        self._moment_weight = float(
            state.get("moment_weight", self.n_observed)
        )
        if state.get("schema", 1) >= 3:
            weights = dec(state["pattern_weights"])
            deltas = _split(
                dec(state["window_pattern_ids"]),
                dec(state["window_pattern_counts"]),
                state["window_pattern_lengths"],
            )
        elif self.mode == "decay":
            weights, deltas = dec(state.get("pattern_weights")), []
        else:
            # The one read of the legacy per-example id key.
            weights, deltas = self._migrate_example_ids(
                dec(state["row_ids"]), state["row_id_lengths"]
            )
        self._pattern_weights = (
            self._no_weights() if weights is None else weights
        )
        self._window_patterns = (
            deque(deltas) if self.mode == "window" else None
        )
        self._window_moments = (
            deque() if self.config.window_batches is not None else None
        )
        w_votes = dec(state.get("window_vote_sums"))
        if w_votes is not None and self._window_moments is not None:
            w_fires = dec(state.get("window_fire_sums"))
            w_agrees = dec(state.get("window_agreements"))
            w_counts = dec(state.get("window_counts"))
            for k in range(len(w_counts)):
                self._window_moments.append(
                    (w_votes[k], w_fires[k], w_agrees[k], float(w_counts[k]))
                )
        self._model = SamplingFreeLabelModel(replace(self.config.base))
        self._model.load_state(state["model"])
        return self

    def _migrate_example_ids(
        self, ids: np.ndarray | None, lengths: list[int]
    ) -> tuple[np.ndarray | None, list[tuple[np.ndarray, np.ndarray]]]:
        """Schema-1/2 per-example pattern ids -> per-pattern counts, plus
        per-batch count deltas (split by ``lengths``) in window mode."""
        if ids is None:
            return None, []
        weights = np.bincount(ids, minlength=len(self._pattern_rows))
        deltas = []
        if self.mode == "window":
            offset = 0
            for length in lengths:
                batch_ids, counts = np.unique(
                    ids[offset:offset + length], return_counts=True
                )
                deltas.append(
                    (batch_ids.astype(np.int64), counts.astype(np.int64))
                )
                offset += length
        return weights.astype(np.int64), deltas

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def model(self) -> SamplingFreeLabelModel:
        """The current parameter estimate (incremental or last refit)."""
        return self._model

    @property
    def n_patterns(self) -> int:
        """Distinct vote rows retained — the compressed stream size."""
        return len(self._pattern_rows)

    @property
    def effective_examples(self) -> float:
        """The weight behind the current moments: ``n_observed`` in
        cumulative mode, the decayed mass in decay mode, the window's
        example count in window mode."""
        return self._moment_weight

    def predict_proba(self, L: np.ndarray) -> np.ndarray:
        """Posterior ``P(Y=+1 | L)`` from the current parameter estimate.

        Args:
            L: ``(n, m)`` vote matrix over ``{-1, 0, 1}``.

        Returns:
            ``(n,)`` float64 posteriors.

        Raises:
            RuntimeError: If the inner model has no parameters yet.
        """
        return self._model.predict_proba(L)

    def predict(self, L: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        """Hard labels in ``{-1, +1}`` at a probability threshold.

        Args:
            L: ``(n, m)`` vote matrix over ``{-1, 0, 1}``.
            threshold: Posterior cut; rows at exactly the threshold
                (no-evidence rows under the uniform prior) stay -1.

        Returns:
            ``(n,)`` int8 labels.

        Raises:
            RuntimeError: If the inner model has no parameters yet.
        """
        return self._model.predict(L, threshold)

    def accuracies(self) -> np.ndarray:
        """Estimated ``P(lambda_j correct | lambda_j != 0)`` per LF.

        Returns:
            ``(m,)`` float64 accuracies from the current estimate.

        Raises:
            RuntimeError: If the inner model has no parameters yet.
        """
        return self._model.accuracies()

    def propensities(self) -> np.ndarray:
        """Estimated ``P(lambda_j != 0)`` per LF.

        Returns:
            ``(m,)`` float64 propensities from the current estimate.

        Raises:
            RuntimeError: If the inner model has no parameters yet.
        """
        return self._model.propensities()

    # ------------------------------------------------------------------
    # streaming moments (monitoring surface)
    # ------------------------------------------------------------------
    def mean_votes(self) -> np.ndarray:
        """First vote moment per LF: ``E[lambda_j]`` over the retained
        (recency-weighted) stream.

        Returns:
            ``(m,)`` float64 means.

        Raises:
            RuntimeError: If no votes have been observed yet.
        """
        self._check_observed()
        return self._vote_sum / self._moment_weight

    def fire_rates(self) -> np.ndarray:
        """Empirical propensity per LF: ``P(lambda_j != 0)`` over the
        retained (recency-weighted) stream.

        Returns:
            ``(m,)`` float64 rates.

        Raises:
            RuntimeError: If no votes have been observed yet.
        """
        self._check_observed()
        return self._fire_sum / self._moment_weight

    def agreement_matrix(self) -> np.ndarray:
        """Second vote moment ``E[lambda_j lambda_k]`` — the signal the
        LF-quality diagnostics and the drift monitor read for polarity
        conflicts.

        Returns:
            ``(m, m)`` float64 matrix.

        Raises:
            RuntimeError: If no votes have been observed yet.
        """
        self._check_observed()
        return self._agreement / self._moment_weight

    def _check_observed(self) -> None:
        if self.n_observed == 0:
            raise RuntimeError("no votes observed yet")


def _split(
    ids: np.ndarray | None, counts: np.ndarray | None, lengths: list[int]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Cut concatenated per-batch (pattern ids, counts) back into batches."""
    deltas = []
    offset = 0
    for length in lengths:
        deltas.append(
            (ids[offset:offset + length], counts[offset:offset + length])
        )
        offset += length
    return deltas
