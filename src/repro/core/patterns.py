"""Pattern compression: the label model's only input.

The generative model only sees the data through vote *patterns*: two
examples with identical vote rows contribute identically to the marginal
likelihood, so an ``(n, m)`` label matrix is losslessly equivalent to the
pair ``(patterns, multiplicities)`` — the distinct rows and how often
each occurs. At the benchmark workloads distinct patterns number in the
low thousands while ``n`` grows unbounded (≈5k patterns at n=30,720 in
the drift bench), so every fit works on the compressed pair: a
full-batch gradient step costs O(patterns × m) *independent of stream
length*, and a minibatch step draws patterns by inverse CDF over the
cumulative weights.

:func:`compress_votes` puts any vote matrix — or any ``(patterns,
weights)`` log, such as the online model's retained pattern counts —
into one canonical form: int8 rows, sorted lexicographically by value,
with the weights of equal rows summed. Two inputs that hold the same
rows with the same total weights (a matrix and any row permutation of
it, or a stream split into any micro-batches) therefore compress to the
same bytes, so their fits agree bitwise by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CompressedVotes", "compress_votes"]


@dataclass(frozen=True)
class CompressedVotes:
    """A deduplicated vote matrix: distinct rows plus multiplicities.

    Attributes:
        patterns: ``(k, m)`` int8 array of distinct vote rows.
        weights: ``(k,)`` float64 positive multiplicities: integer row
            counts for a vote matrix, real-valued recency weights in the
            online model's decay mode.
    """

    patterns: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.patterns.ndim != 2:
            raise ValueError(
                f"patterns must be 2-D, got shape {self.patterns.shape}"
            )
        if self.weights.shape != (self.patterns.shape[0],):
            raise ValueError(
                f"weights shape {self.weights.shape} does not match "
                f"{self.patterns.shape[0]} patterns"
            )
        if len(self.weights) and float(self.weights.min()) <= 0.0:
            raise ValueError("pattern weights must be strictly positive")

    @property
    def n_patterns(self) -> int:
        """Distinct vote rows — the compressed size."""
        return self.patterns.shape[0]

    @property
    def n_rows(self) -> float:
        """Total row mass ``weights.sum()`` — the ``n`` of the matrix
        this compression stands for (real-valued in decay mode)."""
        return float(self.weights.sum())


def compress_votes(
    L: np.ndarray, weights: np.ndarray | None = None
) -> CompressedVotes:
    """Put a vote matrix or a weighted pattern log into canonical form.

    Rows are deduplicated through a contiguous row-bytes view (each int8
    byte offset by 128, so byte order is value order), which is an order
    of magnitude faster than ``np.unique(axis=0)`` and yields the same
    sorted rows.

    Args:
        L: ``(n, m)`` integer vote matrix; every entry must fit in int8.
        weights: Optional ``(n,)`` positive weight per row; ``None``
            counts each row once.

    Returns:
        The canonical :class:`CompressedVotes`: sorted distinct int8
        rows with the summed weight of each. A 0-row input yields 0
        patterns.

    Raises:
        ValueError: If ``L`` is not 2-D, holds values that are not int8
            integers, has rows but no columns, or ``weights`` does not
            have one entry per row.
    """
    L = np.asarray(L)
    if L.ndim != 2:
        raise ValueError(f"vote matrix must be 2-D, got shape {L.shape}")
    rows = np.ascontiguousarray(L, dtype=np.int8)
    if L.dtype != np.int8 and not np.array_equal(rows, L):
        raise ValueError("votes must be integers in the int8 range")
    if weights is not None and np.shape(weights) != (L.shape[0],):
        raise ValueError(
            f"weights shape {np.shape(weights)} does not match "
            f"{L.shape[0]} rows"
        )
    if rows.shape[0] == 0:
        return CompressedVotes(patterns=rows, weights=np.zeros(0))
    if rows.shape[1] == 0:
        raise ValueError("vote matrix needs at least one column")
    row_bytes = np.dtype((np.void, rows.shape[1]))
    keys = (rows.view(np.uint8) ^ np.uint8(0x80)).view(row_bytes).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    summed = np.bincount(
        inverse.ravel(),
        weights=None if weights is None else np.asarray(weights, np.float64),
        minlength=len(first),
    )
    return CompressedVotes(
        patterns=rows[first], weights=summed.astype(np.float64)
    )
