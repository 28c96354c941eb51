"""Held-out scoring of recorded states in batches.

``cavi_fit`` hands every recorded state to the model's held-out scorer.
LDA's scorer keeps only the held-out terms' topic columns of each state and
folds the held-out documents in once per batch of states, a copy per state;
these tests hold its values to the per-state fold-in of
``_oracles.lda_heldout_per_state`` exactly, pin the E-step work of a small
fit, and check what is refused before the first sweep.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import meanfield.lda as lda_module
from meanfield.engine import FitConfig, _split_heldout, cavi_fit
from meanfield.errors import DomainError
from meanfield.expfam import _dirichlet_expected_log_rows
from meanfield.gmm import UniGmmConfig, UnitVarianceGmm, simulate
from meanfield.lda import (
    INNER_MAX_ITERS,
    Lda,
    LdaConfig,
    _HeldoutFoldIn,
    simulate_corpus,
)

from _oracles import corpus_of, lda_heldout_per_state
from test_estep_blocks import skewed_corpus, skewed_start
from test_lda import e_step_calls  # noqa: F401


def score_in_batches(config, lams, heldout, max_entries):
    scorer = _HeldoutFoldIn(heldout, config, max_entries)
    for t, lam in enumerate(lams, start=1):
        scorer.add(t, lda_module.LdaState(lam, np.ones((0, config.k))))
    return scorer.trace()


def skewed_topics(lam, count, seed):
    rng = np.random.default_rng(seed)
    return [lam] + [lam * rng.uniform(0.5, 2.0, size=lam.shape) for _ in range(count - 1)]


@pytest.mark.parametrize("per_batch", [1, 3, 7])
def test_skewed_corpus_equals_per_state_fold_ins(per_batch):
    # empty documents at both ends and lengths from 1 to 200 distinct terms
    heldout = skewed_corpus()
    config, lam, _ = skewed_start(heldout)
    lams = skewed_topics(lam, 7, seed=per_batch)
    points = score_in_batches(config, lams, heldout, per_batch * heldout.ids.size)
    assert [p.iteration for p in points] == list(range(1, 8))
    assert [p.log_predictive for p in points] == lda_heldout_per_state(config, lams, heldout)


def mixed_corpus(seed, vocab=300):
    """Thirty documents whose lengths repeat, from 0 to 250 distinct terms."""
    rng = np.random.default_rng(seed)
    docs = []
    for length in rng.choice([0, 1, 2, 3, 5, 17, 40, 80, 150, 250], size=30):
        terms = np.sort(rng.choice(vocab, size=length, replace=False))
        docs.append((terms, rng.integers(1, 6, size=length).astype(float)))
    return corpus_of(docs, vocab)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_e_step_equals_one_call_per_matrix(seed):
    # A held-out value sums hundreds of token terms, which absorbs a last-bit
    # change in one document's gamma; the E-step's own outputs show it.
    corpus = mixed_corpus(seed)
    rng = np.random.default_rng(seed)
    k, copies = 13, 5
    config = LdaConfig(k=k)
    elog_beta = np.stack([
        _dirichlet_expected_log_rows(0.1 + rng.gamma(0.3, 5.0, size=(k, corpus.v)))
        for _ in range(copies)
    ])
    start = lda_module._fresh_gamma(corpus, config)
    stacked = lda_module.e_step(corpus, elog_beta, np.tile(start, (copies, 1)), config.alpha)
    docs = len(corpus)
    for s, matrix in enumerate(elog_beta):
        rows = slice(s * docs, (s + 1) * docs)
        gamma, log_theta, iterations = lda_module.e_step(corpus, matrix, start, config.alpha)
        assert_array_equal(stacked[0][rows], gamma)
        assert_array_equal(stacked[1][rows], log_theta)
        assert_array_equal(stacked[2][rows], iterations)


def test_log_space_fallback_inside_a_batch(monkeypatch):
    # A huge alpha_0 keeps every document's theta_1 below 1e-100, while term
    # 1 favours topic 1 by ~1000 nats: that entry's exp-space normalizer
    # underflows from the cold start, so the fold-in forms its phi in log space.
    heldout = skewed_corpus()
    _, lam, _ = skewed_start(heldout)
    config = LdaConfig(k=2, eta=1e-3, alpha=[1e105, 1e-3])
    lams = skewed_topics(lam, 4, seed=8)
    calls = []
    rows = lda_module.categorical_rows

    def counting(logits):
        calls.append(len(logits))
        return rows(logits)

    monkeypatch.setattr(lda_module, "categorical_rows", counting)
    points = score_in_batches(config, lams, heldout, 4 * heldout.ids.size)
    assert calls and sum(calls) >= len(lams)  # at least one row per copy
    monkeypatch.setattr(lda_module, "categorical_rows", rows)
    want = lda_heldout_per_state(config, lams, heldout)
    assert [p.log_predictive for p in points] == want
    assert np.all(np.isfinite(want))


def test_fit_trace_equals_per_state_fold_ins(monkeypatch):
    corpus, _ = simulate_corpus(3, 48, 40, 25, seed=21)
    config = LdaConfig(k=3)
    fit_config = FitConfig(max_iters=11, tol=1e-15, seed=2, heldout_fraction=0.25)
    recorded, batches = [], []
    add = _HeldoutFoldIn.add

    def recording(self, t, state):
        recorded.append(np.array(state.lam))
        batches.append(self.batch)
        return add(self, t, state)

    monkeypatch.setattr(_HeldoutFoldIn, "add", recording)
    report = Lda(config).fit(corpus, fit_config)
    _, heldout = _split_heldout(Lda(config), corpus, fit_config)
    assert len(recorded) == 11 > batches[0] > 1  # several batches, the last short
    assert [p.iteration for p in report.heldout_trace] == list(range(1, 12))
    values = [p.log_predictive for p in report.heldout_trace]
    assert values == lda_heldout_per_state(config, recorded, heldout)


def test_e_step_work_of_a_small_fit_is_pinned(e_step_calls):  # noqa: F811
    corpus, _ = simulate_corpus(4, 60, 50, 30, seed=5, alpha=0.3)
    fit_config = FitConfig(max_iters=10, tol=1e-15, seed=3, heldout_fraction=0.2)
    report = Lda(LdaConfig(k=4, alpha=0.05)).fit(corpus, fit_config)
    train_entries = e_step_calls[0][0].ids.size  # the first sweep's corpus
    iterations = [call[4][2] for call in e_step_calls]
    counts = (
        len(e_step_calls),
        sum(int(i.max(initial=0)) for i in iterations),  # passes
        sum(int(i.sum()) for i in iterations),  # document updates
        sum(int(np.count_nonzero(i >= INNER_MAX_ITERS)) for i in iterations),
    )
    assert counts == PINNED_COUNTS
    fold_ins = [call for call in e_step_calls if call[1].ndim == 3]
    assert [call[1].shape[0] for call in fold_ins] == [4, 4, 2]
    for corpus_, elog_beta, *_ in fold_ins:
        assert elog_beta.shape[0] * corpus_.ids.size <= train_entries


# e_step calls, inner passes, document updates and cap hits of the fit above:
# ten sweeps, then its ten recorded states folded in four, four and two at a
# time (one cold fold-in per state made 20 calls).
PINNED_COUNTS = (13, 864, 8762, 14)


class TestRefusedBeforeTheFirstSweep:
    def test_heldout_without_tokens(self, monkeypatch):
        swept = []
        sweep = Lda.sweep

        def counting(self, state, data):
            swept.append(1)
            return sweep(self, state, data)

        monkeypatch.setattr(Lda, "sweep", counting)
        empty = (np.array([], dtype=int), np.array([]))
        corpus = corpus_of([empty] * 6, 3)
        with pytest.raises(DomainError, match="no tokens"):
            Lda(LdaConfig(k=2)).fit(corpus, FitConfig(max_iters=3, seed=0,
                                                     heldout_fraction=0.5))
        assert swept == []

    def test_empty_heldout_set(self):
        corpus, _ = simulate_corpus(2, 6, 8, 10, seed=1)
        with pytest.raises(DomainError, match="empty"):
            Lda(LdaConfig(k=2))._heldout_scorer(corpus_of((), 8), corpus)


def test_elapsed_ms_leaves_out_heldout_scoring():
    class SlowHeldout(UnitVarianceGmm):
        def heldout_log_predictive(self, state, heldout):
            time.sleep(0.2)
            return super().heldout_log_predictive(state, heldout)

    data, _, _ = simulate(k=2, n=40, seed=0, dim=1)
    report = cavi_fit(SlowHeldout(UniGmmConfig(k=2)), data,
                      FitConfig(max_iters=3, tol=1e-15, seed=0, heldout_fraction=0.25))
    assert len(report.heldout_trace) == 3
    assert report.elbo_trace[-1].elapsed_ms < 200.0
