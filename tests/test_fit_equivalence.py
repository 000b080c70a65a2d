"""Properties of the one label-model fit.

Every fit trains on the canonical ``(patterns, multiplicities)`` form of
its votes (:func:`repro.core.patterns.compress_votes`), so:

* ``fit(L)`` is **bitwise** equal to ``fit(L[perm])`` for any row
  permutation, for the binary and the multiclass model alike;
* an :class:`OnlineLabelModel` that observed ``L`` split into any
  micro-batches refits to the same bits — in cumulative mode over all
  rows, in window mode over the window's rows;
* the multiplicity-weighted gradients agree with the per-row gradients
  of the expanded matrix to 1e-9, and a full-batch fit agrees to 1e-9
  with a five-line per-row reference loop kept below.

Families: dense uniform votes, abstain-heavy, duplicate-heavy (few
distinct patterns), single-pattern degenerate, matrices with all-abstain
rows, and multiclass votes — across several (n, m) shapes and seeds,
plus hypothesis-drawn matrices, permutations and stream splits.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.label_model import LabelModelConfig, SamplingFreeLabelModel
from repro.core.multiclass import MulticlassConfig, MulticlassLabelModel
from repro.core.online_label_model import (
    OnlineLabelModel,
    OnlineLabelModelConfig,
)
from repro.core.optim import AdamState
from repro.core.patterns import CompressedVotes, compress_votes


# ----------------------------------------------------------------------
# case families (binary): seeded generators over {-1, 0, 1}
# ----------------------------------------------------------------------
def uniform(rng, n, m):
    return rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(n, m))


def abstain_heavy(rng, n, m):
    votes = rng.choice(
        np.array([-1, 0, 1], dtype=np.int8), size=(n, m), p=[0.08, 0.85, 0.07]
    )
    return votes


def duplicate_heavy(rng, n, m):
    pool = rng.choice(np.array([-1, 0, 0, 1], dtype=np.int8), size=(12, m))
    return pool[rng.integers(0, len(pool), size=n)]


def single_pattern(rng, n, m):
    row = rng.choice(np.array([-1, 0, 1], dtype=np.int8), size=(1, m))
    return np.repeat(row, n, axis=0)


def with_all_abstain_rows(rng, n, m):
    votes = uniform(rng, n, m)
    votes[rng.random(n) < 0.3] = 0
    return votes


FAMILIES = [
    uniform,
    abstain_heavy,
    duplicate_heavy,
    single_pattern,
    with_all_abstain_rows,
]

SHAPES = [(400, 5), (1_500, 12)]


def assert_bitwise(a, b, L):
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.beta, b.beta)
    assert a.prior_logit == b.prior_logit
    assert a.loss_history == b.loss_history
    assert np.array_equal(a.predict_proba(L), b.predict_proba(L))


def random_split(rng, n):
    """Sorted cut points splitting ``n`` rows into 1+ micro-batches."""
    n_cuts = min(n - 1, int(rng.integers(0, 12)))
    cuts = rng.choice(np.arange(1, n), size=n_cuts, replace=False)
    return np.split(np.arange(n), np.sort(cuts))


def streamed(config, L, batches, **retention):
    """An online model that observed ``L`` in the given row batches."""
    online = OnlineLabelModel(
        OnlineLabelModelConfig(base=config, steps_per_batch=2, **retention)
    )
    for rows in batches:
        online.observe(L[rows])
    return online


def assert_fit_is_order_and_split_free(config, L, rng):
    """fit(L) == fit(L[perm]) == cumulative refit == window refit."""
    offline = SamplingFreeLabelModel(config).fit(L)
    perm = rng.permutation(len(L))
    assert_bitwise(offline, SamplingFreeLabelModel(config).fit(L[perm]), L)

    batches = random_split(rng, len(L))
    assert_bitwise(offline, streamed(config, L, batches).refit(), L)

    window = int(rng.integers(1, len(batches) + 1))
    tail = L[np.concatenate(batches[-window:])]
    windowed = streamed(config, L, batches, window_batches=window).refit()
    assert_bitwise(SamplingFreeLabelModel(config).fit(tail), windowed, L)


def reference_full_batch_fit(config, L):
    """Per-row full-batch steps: the reference the weighted fit matches."""
    model, rows = SamplingFreeLabelModel(config), L.astype(np.float64)
    model._init_fit(rows.shape[1], np.abs(rows).sum(axis=0), float(len(rows)))
    optimizer = model._optimizer_state()
    for _ in range(config.n_steps):
        model._step_update(model._gradients(rows), optimizer)
    return model


# ----------------------------------------------------------------------
# binary model
# ----------------------------------------------------------------------
class TestBinaryEquivalence:
    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"n{s[0]}m{s[1]}")
    @pytest.mark.parametrize("seed", [0, 7])
    def test_minibatch_fit_is_bitwise(self, family, shape, seed):
        """batch_size < n: row order and stream split never move a bit."""
        n, m = shape
        rng = np.random.default_rng(seed)
        L = family(rng, n, m)
        config = LabelModelConfig(
            n_steps=250, batch_size=64, seed=seed, optimizer="sgd"
        )
        assert_fit_is_order_and_split_free(config, L, rng)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 300),
        m=st.integers(1, 8),
        family=st.sampled_from(FAMILIES),
        batch_size=st.sampled_from([1, 16, 64, 1_000]),
        seed=st.integers(0, 2**16),
    )
    def test_fit_ignores_row_order_and_stream_split(
        self, n, m, family, batch_size, seed
    ):
        """Any matrix, permutation and split, minibatch or full-batch."""
        rng = np.random.default_rng(seed)
        L = family(rng, n, m)
        config = LabelModelConfig(n_steps=40, batch_size=batch_size, seed=seed)
        assert_fit_is_order_and_split_free(config, L, rng)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("seed", [0, 7])
    def test_full_batch_fit_within_1e9(self, family, seed):
        """batch_size >= n: weighted gradients vs per-row steps, <= 1e-9."""
        L = family(np.random.default_rng(seed), 500, 8)
        config = LabelModelConfig(
            n_steps=250,
            batch_size=10_000,
            seed=seed,
            optimizer="sgd",
            learning_rate=0.0005,
        )
        fitted = SamplingFreeLabelModel(config).fit(L)
        reference = reference_full_batch_fit(config, L)
        gap = np.max(
            np.abs(fitted.predict_proba(L) - reference.predict_proba(L))
        )
        assert gap <= 1e-9, gap
        assert np.max(np.abs(fitted.alpha - reference.alpha)) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 200),
        m=st.integers(1, 10),
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**16),
    )
    def test_weighted_gradients_match_expanded_rows(self, n, m, family, seed):
        rng = np.random.default_rng(seed)
        L = family(rng, n, m)
        model = SamplingFreeLabelModel(LabelModelConfig())
        model.alpha = rng.normal(0.5, 0.5, m)
        model.beta = rng.normal(0.0, 0.5, m)
        model.prior_logit = float(rng.normal())
        votes = compress_votes(L)
        weighted = model._gradients_weighted(
            votes.patterns.astype(np.float64), votes.weights
        )
        expanded = model._gradients(L.astype(np.float64))
        for got, want in zip(weighted, expanded):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_adam_prior_and_l2_stay_bitwise_in_minibatch(self):
        """The optimizer/prior/l2 machinery is shared, not duplicated."""
        rng = np.random.default_rng(3)
        L = duplicate_heavy(rng, 1_000, 10)
        config = LabelModelConfig(
            n_steps=250,
            batch_size=64,
            seed=3,
            optimizer="adam",
            learn_class_prior=True,
            l2=1e-4,
        )
        assert_fit_is_order_and_split_free(config, L, rng)

    def test_all_abstain_matrix(self):
        """The fully degenerate stream: one all-zero pattern."""
        L = np.zeros((200, 6), dtype=np.int8)
        config = LabelModelConfig(n_steps=60, batch_size=64, seed=0)
        assert_fit_is_order_and_split_free(config, L, np.random.default_rng(0))
        model = SamplingFreeLabelModel(config).fit(L)
        assert np.all(model.predict_proba(L) == model.class_prior())

    def test_aggregated_weights_match_pattern_order_expansion(self):
        """A weighted pattern log with repeated rows (the online model's
        shape, split across batches) compresses to the same canonical
        form as its row expansion, so both fit to the same bits."""
        rng = np.random.default_rng(5)
        L = duplicate_heavy(rng, 900, 9)
        exact = compress_votes(L)
        halves = np.floor(exact.weights / 2)
        log = np.vstack([exact.patterns, exact.patterns])
        counts = np.concatenate([halves, exact.weights - halves])
        keep = counts > 0
        aggregated = compress_votes(log[keep], counts[keep])
        assert np.array_equal(aggregated.patterns, exact.patterns)
        assert np.array_equal(aggregated.weights, exact.weights)

        config = LabelModelConfig(n_steps=250, batch_size=64, seed=5)
        expansion = np.repeat(
            exact.patterns, exact.weights.astype(np.int64), axis=0
        )
        full = SamplingFreeLabelModel(config).fit(expansion)
        compressed = SamplingFreeLabelModel(config)
        compressed.fit_compressed(aggregated)
        assert_bitwise(full, compressed, L)

    def test_real_valued_weights_fit_converges(self):
        """Decay-weighted compressions (no expanded matrix exists):
        inverse-CDF sampling must produce a finite, sane fit whose
        accuracies track the integer-weighted fit's."""
        L = duplicate_heavy(np.random.default_rng(9), 1_200, 8)
        exact = compress_votes(L)
        rng = np.random.default_rng(1)
        weights = exact.weights * rng.uniform(0.5, 1.0, exact.n_patterns)
        weighted = CompressedVotes(patterns=exact.patterns, weights=weights)
        config = LabelModelConfig(n_steps=400, batch_size=64, seed=2)
        reference = SamplingFreeLabelModel(config).fit(L)
        model = SamplingFreeLabelModel(config)
        model.fit_compressed(weighted)
        assert np.all(np.isfinite(model.alpha))
        assert np.all(np.isfinite(model.beta))
        assert np.max(np.abs(model.accuracies() - reference.accuracies())) < 0.2


# ----------------------------------------------------------------------
# multiclass model
# ----------------------------------------------------------------------
def multiclass_votes(rng, n, m, k, abstain=0.5):
    probs = [abstain] + [(1 - abstain) / k] * k
    return rng.choice(np.arange(k + 1), size=(n, m), p=probs)


def assert_multiclass_order_free(k, config, L, rng):
    fitted = MulticlassLabelModel(k, config).fit(L)
    permuted = MulticlassLabelModel(k, config).fit(L[rng.permutation(len(L))])
    assert np.array_equal(fitted.alpha, permuted.alpha)
    assert np.array_equal(fitted.beta, permuted.beta)
    assert np.array_equal(fitted.predict_proba(L), permuted.predict_proba(L))
    return fitted


class TestMulticlassEquivalence:
    @pytest.mark.parametrize("k", [3, 5])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_minibatch_fit_is_bitwise(self, k, seed):
        rng = np.random.default_rng(seed)
        L = multiclass_votes(rng, 1_100, 9, k)
        config = MulticlassConfig(n_steps=250, batch_size=64, seed=seed)
        assert_multiclass_order_free(k, config, L, rng)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_full_batch_fit_within_1e9(self, seed):
        """Weighted full-batch fit vs per-row Adam steps, <= 1e-9."""
        rng = np.random.default_rng(seed)
        L = multiclass_votes(rng, 400, 7, 4, abstain=0.7)
        config = MulticlassConfig(n_steps=200, batch_size=10_000, seed=seed)
        fitted = MulticlassLabelModel(4, config).fit(L)

        reference = MulticlassLabelModel(4, config)
        reference._init_fit(L.shape[1], (L != 0).sum(axis=0), float(len(L)))
        adam = AdamState.like(reference.alpha), AdamState.like(reference.beta)
        for _ in range(config.n_steps):
            reference._apply_step(*reference._gradients(L), *adam)
        gap = np.max(
            np.abs(fitted.predict_proba(L) - reference.predict_proba(L))
        )
        assert gap <= 1e-9, gap

    def test_duplicate_heavy_multiclass_compresses_hard(self):
        """A 6-pattern multiclass stream: k patterns ≪ n rows, bitwise."""
        rng = np.random.default_rng(2)
        pool = multiclass_votes(rng, 6, 8, 3)
        L = pool[rng.integers(0, len(pool), size=2_000)]
        assert compress_votes(L).n_patterns <= 6
        config = MulticlassConfig(n_steps=250, batch_size=64, seed=2)
        assert_multiclass_order_free(3, config, L, rng)


# ----------------------------------------------------------------------
# the canonical form itself
# ----------------------------------------------------------------------
class TestCompressVotes:
    def test_round_trip_reconstructs_bit_for_bit(self):
        """Expanding the canonical form gives L's rows in sorted order."""
        L = duplicate_heavy(np.random.default_rng(4), 700, 6)
        votes = compress_votes(L)
        expansion = np.repeat(
            votes.patterns, votes.weights.astype(np.int64), axis=0
        )
        assert np.array_equal(expansion, L[np.lexsort(L.T[::-1])])
        assert votes.patterns.dtype == np.int8
        assert votes.n_rows == len(L)
        assert votes.n_patterns == len(np.unique(L, axis=0))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 300),
        m=st.integers(1, 8),
        family=st.sampled_from(FAMILIES),
        seed=st.integers(0, 2**16),
    )
    def test_canonical_form_ignores_order_and_dtype(self, n, m, family, seed):
        rng = np.random.default_rng(seed)
        L = family(rng, n, m)
        votes = compress_votes(L)
        unique, counts = np.unique(L, axis=0, return_counts=True)
        assert np.array_equal(votes.patterns, unique)
        assert np.array_equal(votes.weights, counts.astype(np.float64))
        for other in (L[rng.permutation(n)], L.astype(np.float64)):
            again = compress_votes(other)
            assert again.patterns.tobytes() == votes.patterns.tobytes()
            assert again.weights.tobytes() == votes.weights.tobytes()

    def test_zero_row_matrix(self):
        votes = compress_votes(np.zeros((0, 5), dtype=np.int8))
        assert votes.n_patterns == 0
        assert votes.n_rows == 0.0
        assert votes.patterns.shape == (0, 5)

    def test_validation(self):
        with pytest.raises(ValueError, match="2-D"):
            compress_votes(np.zeros(4))
        with pytest.raises(ValueError, match="int8"):
            compress_votes(np.array([[0.5, 1.0]]))
        with pytest.raises(ValueError, match="int8"):
            compress_votes(np.array([[300, 1]]))
        with pytest.raises(ValueError, match="weights shape"):
            compress_votes(np.zeros((2, 3)), np.ones(3))
        with pytest.raises(ValueError, match="weights shape"):
            CompressedVotes(patterns=np.zeros((2, 3)), weights=np.ones(3))
        with pytest.raises(ValueError, match="strictly positive"):
            CompressedVotes(
                patterns=np.zeros((2, 3)), weights=np.array([1.0, 0.0])
            )


# ----------------------------------------------------------------------
# online refits
# ----------------------------------------------------------------------
class TestCompressedRefitKnob:
    """Online refits always train on the compressed pattern log."""

    def _observed(self, **kwargs):
        model = OnlineLabelModel(
            OnlineLabelModelConfig(
                base=LabelModelConfig(n_steps=100, seed=0),
                steps_per_batch=0,
                **kwargs,
            )
        )
        for chunk in np.array_split(
            duplicate_heavy(np.random.default_rng(0), 300, 5), 4
        ):
            model.observe(chunk)
        return model

    def test_refit_matches_either_way(self):
        """Either retention mode that keeps whole batches refits to the
        bits of the offline fit of its rows: cumulative (all four
        batches) and window (the last two)."""
        L = duplicate_heavy(np.random.default_rng(0), 300, 5)
        config = LabelModelConfig(n_steps=100, seed=0)
        for retained, kwargs in ((L, {}), (L[150:], {"window_batches": 2})):
            refit = self._observed(**kwargs).refit()
            offline = SamplingFreeLabelModel(config).fit(retained)
            assert np.array_equal(refit.alpha, offline.alpha)
            assert np.array_equal(
                refit.predict_proba(L), offline.predict_proba(L)
            )

    def test_compressed_votes_matches_reconstruction(self):
        model = self._observed()
        votes = model.compressed_votes()
        L = duplicate_heavy(np.random.default_rng(0), 300, 5)
        full = compress_votes(L)
        assert np.array_equal(votes.patterns, full.patterns)
        assert np.array_equal(votes.weights, full.weights)
        assert votes.n_rows == model.n_observed
