"""Categorical-target generalization of the label model.

Section 2: "For simplicity, we focus on binary classification ... however
Snorkel DryBell can handle arbitrary categorical targets as well, e.g.
``Y_i in {1, ..., k}``."

Votes are ``lambda_j in {0, 1, ..., k}`` with 0 = abstain. The per-LF
parameterization extends naturally: a correct non-abstain vote carries
unnormalized log-probability ``alpha_j + beta_j``, each of the ``k - 1``
incorrect labels ``-alpha_j + beta_j`` (errors are spread uniformly across
wrong classes, the same tying the binary model uses), and abstain ``0``,
giving::

    Z_j = log( exp(alpha_j+beta_j) + (k-1) exp(-alpha_j+beta_j) + 1 )

Training minimizes the marginal NLL ``-sum_i log sum_y P(Lambda_i, y)``
with exact gradients, mirroring :class:`repro.core.SamplingFreeLabelModel`:
the fit consumes the canonical ``(patterns, multiplicities)`` form of the
vote matrix (:func:`repro.core.patterns.compress_votes`), so it does not
depend on row order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.optim import AdamState, adam_step
from repro.core.patterns import CompressedVotes, compress_votes

__all__ = ["MulticlassConfig", "MulticlassLabelModel"]


@dataclass
class MulticlassConfig:
    """Training configuration for :class:`MulticlassLabelModel`."""

    n_steps: int = 1500
    batch_size: int = 64
    learning_rate: float = 0.05
    seed: int = 0
    init_alpha: float = 0.7
    min_alpha: float | None = 0.0
    """Better-than-random accuracy anchor; see
    :class:`repro.core.label_model.LabelModelConfig.min_alpha`."""


class MulticlassLabelModel:
    """Sampling-free label model for ``Y in {1..k}``."""

    def __init__(
        self, n_classes: int, config: MulticlassConfig | None = None
    ) -> None:
        if n_classes < 2:
            raise ValueError("need at least two classes")
        self.n_classes = n_classes
        self.config = config or MulticlassConfig()
        self.alpha: np.ndarray | None = None
        self.beta: np.ndarray | None = None

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(self, L: np.ndarray) -> "MulticlassLabelModel":
        """Estimate parameters from a vote matrix ``L`` in ``{0..k}``:
        ``fit_compressed(compress_votes(L))``."""
        return self.fit_compressed(compress_votes(L))

    def fit_compressed(self, votes: CompressedVotes) -> "MulticlassLabelModel":
        """Estimate parameters from a pattern-compressed vote matrix.

        Same contract as
        :meth:`repro.core.label_model.SamplingFreeLabelModel.fit_compressed`:
        minibatch steps draw patterns by inverse CDF over the cumulative
        weights; full-batch steps use exact multiplicity-weighted
        gradients at O(patterns × m).

        Args:
            votes: The compressed matrix (see
                :func:`repro.core.patterns.compress_votes`).

        Returns:
            ``self``, fitted.
        """
        cfg = self.config
        P = self._validate(votes.patterns)
        weights = votes.weights
        total = votes.n_rows
        rng = np.random.default_rng(cfg.seed)

        self._init_fit(
            P.shape[1], ((P != 0) * weights[:, None]).sum(axis=0), total
        )
        adam_alpha = AdamState.like(self.alpha)
        adam_beta = AdamState.like(self.beta)
        pattern_ends = np.cumsum(weights)

        for _ in range(cfg.n_steps):
            if cfg.batch_size >= total:
                grad_alpha, grad_beta = self._gradients_weighted(P, weights)
            else:
                draw = rng.random(cfg.batch_size) * total
                picked = np.searchsorted(pattern_ends, draw, side="right")
                grad_alpha, grad_beta = self._gradients(
                    P[np.minimum(picked, len(P) - 1)]
                )
            self._apply_step(grad_alpha, grad_beta, adam_alpha, adam_beta)
        return self

    def _init_fit(
        self, n_lfs: int, fire_counts: np.ndarray, total: float
    ) -> None:
        """Reset alpha/beta for a fresh fit (propensity-matched beta)."""
        cfg = self.config
        self.alpha = np.full(n_lfs, cfg.init_alpha, dtype=np.float64)
        observed_propensity = np.clip(fire_counts / total, 1e-3, 1 - 1e-3)
        self.beta = np.log(observed_propensity / (1 - observed_propensity)) / 2.0

    def _apply_step(
        self,
        grad_alpha: np.ndarray,
        grad_beta: np.ndarray,
        adam_alpha: AdamState,
        adam_beta: AdamState,
    ) -> None:
        """One Adam update + min_alpha projection."""
        cfg = self.config
        self.alpha = adam_step(self.alpha, grad_alpha, adam_alpha, cfg.learning_rate)
        self.beta = adam_step(self.beta, grad_beta, adam_beta, cfg.learning_rate)
        if cfg.min_alpha is not None:
            self.alpha = np.maximum(self.alpha, cfg.min_alpha)

    def _gradients_weighted(
        self, P: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Multiplicity-weighted :meth:`_gradients` over distinct
        patterns: per-row sums become weighted sums and the batch factor
        ``B`` becomes the total row mass ``weights.sum()``."""
        total = float(weights.sum())
        posterior = self.predict_proba(P)
        non_abstain = P != 0
        vote_index = np.clip(P, 1, self.n_classes) - 1
        q_match = _gather_rows(posterior, vote_index) * non_abstain

        p_correct, p_wrong_total, p_abstain = self._outcome_probs()
        grad_alpha = -(
            (2.0 * q_match - 1.0) * non_abstain * weights[:, None]
        ).sum(axis=0) + total * (p_correct - p_wrong_total)
        grad_beta = -(non_abstain * weights[:, None]).sum(axis=0) + total * (
            1.0 - p_abstain
        )
        return grad_alpha, grad_beta

    def _gradients(self, L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        B, n = L.shape
        posterior = self.predict_proba(L)         # (B, k)
        non_abstain = L != 0

        # q_match[i, j] = posterior probability that LF j's vote on i is
        # correct (0 where it abstained).
        vote_index = np.clip(L, 1, self.n_classes) - 1
        q_match = _gather_rows(posterior, vote_index) * non_abstain

        p_correct, p_wrong_total, p_abstain = self._outcome_probs()
        grad_alpha = -np.sum(
            (2.0 * q_match - 1.0) * non_abstain, axis=0
        ) + B * (p_correct - p_wrong_total)
        grad_beta = -non_abstain.sum(axis=0) + B * (1.0 - p_abstain)
        return grad_alpha, grad_beta

    def _outcome_probs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        k = self.n_classes
        logits = np.stack([
            self.alpha + self.beta,
            -self.alpha + self.beta + np.log(k - 1),
            np.zeros_like(self.alpha),
        ])
        peak = logits.max(axis=0)
        Z = peak + np.log(np.exp(logits - peak).sum(axis=0))
        probs = np.exp(logits - Z)
        return probs[0], probs[1], probs[2]

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def predict_proba(self, L: np.ndarray) -> np.ndarray:
        """Posterior ``P(Y_i = y | Lambda_i)`` of shape ``(m, k)``."""
        if self.alpha is None:
            raise RuntimeError("model is not fitted")
        L = self._validate(L)
        m, n = L.shape
        k = self.n_classes
        non_abstain = (L != 0).astype(np.float64)

        # score(i, y) = 2 alpha . 1{L_i = y} + const(i); constants cancel
        # in the softmax.
        scores = np.zeros((m, k))
        for y in range(1, k + 1):
            scores[:, y - 1] = ((L == y).astype(np.float64)) @ (2.0 * self.alpha)
        scores -= scores.max(axis=1, keepdims=True)
        exp = np.exp(scores)
        return exp / exp.sum(axis=1, keepdims=True)

    def predict(self, L: np.ndarray) -> np.ndarray:
        """Hard labels in {1..k}."""
        return self.predict_proba(L).argmax(axis=1) + 1

    def accuracies(self) -> np.ndarray:
        """``P(correct | non-abstain)`` per LF."""
        p_correct, p_wrong_total, _ = self._outcome_probs()
        return p_correct / (p_correct + p_wrong_total)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _validate(self, L: np.ndarray) -> np.ndarray:
        L = np.asarray(L)
        if L.ndim != 2:
            raise ValueError(f"label matrix must be 2-D, got {L.shape}")
        if L.min() < 0 or L.max() > self.n_classes:
            raise ValueError(
                f"votes must be in 0..{self.n_classes}, got range "
                f"[{L.min()}, {L.max()}]"
            )
        return L.astype(np.int64, copy=False)


def _gather_rows(posterior: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``out[i, j] = posterior[i, index[i, j]]``."""
    m = posterior.shape[0]
    return posterior[np.arange(m)[:, None], index]
