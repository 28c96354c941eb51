"""Tests for the topic model.

Update-level examples are checked against hand-derived values (the
log-odds of the two-topic single-word case reduce to psi(2) - psi(1) = 1,
so phi is the logistic of 1).  Fit-level behavior is pinned by exact
degenerate cases (K = 1), additivity under corpus duplication, parameter
sum identities, monotone ELBO traces, and recovery of constructed
disjoint-vocabulary topics.
"""

import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import meanfield.lda as lda_module
from meanfield.engine import FitConfig
from meanfield.errors import ConfigError, DataFormatError, DomainError
from meanfield.condconj import StepSchedule
from meanfield.expfam import _dirichlet_expected_log_rows
from meanfield.lda import (
    INNER_MAX_ITERS,
    INNER_TOL,
    Corpus,
    Lda,
    LdaConfig,
    LdaState,
    lda_elbo,
    lda_svi_fit,
    read_uci,
    simulate_corpus,
    write_uci,
)

from _oracles import (
    LdaFactors,
    corpus_of,
    doc_phi,
    lda_local_steps,
    lda_pass_phi,
    lda_update_gamma,
    lda_update_lambda,
    lda_update_phi,
    uci_csr,
)

SIGMOID_1 = 0.7310585786300049  # 1 / (1 + exp(-1))


def tiny_corpus():
    docs = (
        (np.array([0, 2]), np.array([2.0, 1.0])),
        (np.array([1]), np.array([3.0])),
        (np.array([0, 1, 3]), np.array([1.0, 1.0, 1.0])),
    )
    return corpus_of(docs, 4)


def doc_rows(corpus, d):
    """The CSR entries of document ``d``, as a slice."""
    return slice(corpus.indptr[d], corpus.indptr[d + 1])


def fit_state(corpus, config, seed=0, max_iters=200, tol=1e-12):
    report = Lda(config).fit(corpus, FitConfig(max_iters=max_iters, tol=tol, seed=seed))
    return report.model_state, report


class TestCorpus:
    def test_basic_properties(self):
        c = tiny_corpus()
        assert len(c) == 3
        assert_array_equal(c.indptr, [0, 2, 3, 6])
        assert c.v == 4
        assert c.total_tokens == 9.0
        assert_allclose(c.doc_lengths(), [3.0, 3.0, 3.0])

    def test_subset_picks_documents(self):
        c = tiny_corpus()
        s = c.subset([2, 0])
        assert len(s) == 2
        assert_array_equal(s.indptr, [0, 3, 5])
        assert_array_equal(s.ids, [0, 1, 3, 0, 2])
        assert_array_equal(s.cts, [1.0, 1.0, 1.0, 2.0, 1.0])
        assert s.v == 4

    def test_rejects_out_of_range_terms(self):
        with pytest.raises(DomainError):
            corpus_of(((np.array([4]), np.array([1.0])),), 4)
        with pytest.raises(DomainError):
            corpus_of(((np.array([-1]), np.array([1.0])),), 4)

    def test_rejects_duplicate_terms(self):
        with pytest.raises(DomainError):
            corpus_of(((np.array([1, 1]), np.array([1.0, 1.0])),), 4)

    def test_rejects_small_counts(self):
        with pytest.raises(DomainError):
            corpus_of(((np.array([1]), np.array([0.5])),), 4)

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(DomainError):
            corpus_of(((np.array([1, 2]), np.array([1.0])),), 4)

    @pytest.mark.parametrize(
        "indptr",
        [[], [1, 2], [0, 1], [0, 3], [0, 2, 1, 2], [[0, 2]]],
        ids=["empty", "from-1", "short", "long", "decreasing", "matrix"],
    )
    def test_rejects_bad_indptr(self, indptr):
        with pytest.raises(DomainError):
            Corpus(indptr, [0, 1], [1.0, 1.0], 4)

    def test_allows_empty_documents(self):
        c = corpus_of(((np.array([], dtype=int), np.array([])),), 3)
        assert c.total_tokens == 0.0
        assert_array_equal(c.doc_lengths(), [0.0])


class TestUciFormat:
    def write(self, tmp_path, text):
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        return path

    def test_reads_simple_file(self, tmp_path):
        path = self.write(tmp_path, "2\n3\n3\n1 1 2\n1 3 1\n2 2 5\n")
        c = read_uci(path)
        assert len(c) == 2 and c.v == 3
        assert_array_equal(c.indptr, [0, 2, 3])
        assert_array_equal(c.ids, [0, 2, 1])
        assert_array_equal(c.cts, [2.0, 1.0, 5.0])

    def test_roundtrip(self, tmp_path):
        c = tiny_corpus()
        path = tmp_path / "out.txt"
        write_uci(c, path)
        back = read_uci(path)
        assert back.v == c.v and len(back) == len(c)
        assert_array_equal(back.indptr, c.indptr)
        assert_array_equal(back.ids, c.ids)
        assert_array_equal(back.cts, c.cts)

    def test_duplicate_pairs_are_summed(self, tmp_path):
        path = self.write(tmp_path, "1\n2\n2\n1 1 2\n1 1 3\n")
        c = read_uci(path)
        assert_array_equal(c.cts, [5.0])

    def test_skips_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "1\n2\n\n1\n1 2 4\n\n")
        c = read_uci(path)
        assert_array_equal(c.ids, [1])

    @pytest.mark.parametrize(
        "text, line",
        [
            ("x\n3\n0\n", 1),  # non-integer document count
            ("1\nx\n0\n", 2),  # non-integer vocabulary size
            ("1\n3\nx\n", 3),  # non-integer triple count
            ("1\n0\n0\n", 2),  # empty vocabulary
            ("1\n3\n1\n1 1\n", 4),  # wrong arity
            ("1\n3\n1\n2 1 1\n", 4),  # document id out of range
            ("1\n3\n1\n1 4 1\n", 4),  # term id out of range
            ("1\n3\n1\n1 1 0\n", 4),  # zero count
            ("1\n3\n2\n1 1 1\n", 5),  # truncated triples
            ("1\n3\n1\n1 1 1\n1 2 1\n", 5),  # extra triples
        ],
    )
    def test_malformed_files_carry_line_numbers(self, tmp_path, text, line):
        path = self.write(tmp_path, text)
        with pytest.raises(DataFormatError) as err:
            read_uci(path)
        assert err.value.line == line

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(DataFormatError):
            read_uci(path)

    @pytest.mark.parametrize(
        "triples, line, message",
        [
            # an overflow on line 5, then a malformed line 6
            ((f"1 1 {2**53}", "1 1 1", "1 x 1"), 5, "count exceeds"),
            # a malformed line 5, then an overflow on line 6
            ((f"1 1 {2**53}", "1 x 1", "1 1 1"), 5, "expected integer term id"),
        ],
        ids=["overflow-then-malformed", "malformed-then-overflow"],
    )
    def test_first_bad_line_is_reported(self, tmp_path, triples, line, message):
        path = self.write(tmp_path, "1\n3\n3\n" + "\n".join(triples) + "\n")
        with pytest.raises(DataFormatError, match=message) as err:
            read_uci(path)
        assert err.value.line == line

    @settings(
        max_examples=150,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_matches_per_document_assembly(self, tmp_path, data):
        # random triples in any order, with duplicates, empty and trailing
        # empty documents, and blank lines anywhere after the header
        num_docs = data.draw(st.integers(0, 6))
        vocab = data.draw(st.integers(1, 5))
        triples = data.draw(
            st.lists(
                st.tuples(
                    st.integers(1, max(num_docs, 1)),
                    st.integers(1, vocab),
                    st.integers(1, 9),
                ),
                max_size=12 if num_docs else 0,
            )
        )
        lines = [f"{d} {t} {c}" for d, t, c in triples]
        for _ in range(data.draw(st.integers(0, 3))):
            lines.insert(data.draw(st.integers(0, len(lines))), "")
        text = f"{num_docs}\n{vocab}\n{len(triples)}\n" + "\n".join(lines) + "\n"
        corpus = read_uci(self.write(tmp_path, text))
        indptr, ids, cts = uci_csr(num_docs, triples)
        assert len(corpus) == num_docs and corpus.v == vocab
        assert_array_equal(corpus.indptr, indptr)
        assert_array_equal(corpus.ids, ids)
        assert_array_equal(corpus.cts, cts)

    def test_write_rejects_fractional_counts(self, tmp_path):
        c = corpus_of(((np.array([0]), np.array([1.5])),), 2)
        with pytest.raises(DomainError):
            write_uci(c, tmp_path / "bad.txt")


class TestSimulateCorpus:
    def test_deterministic_per_seed(self):
        a, truth_a = simulate_corpus(2, 10, 12, 20, seed=5)
        b, truth_b = simulate_corpus(2, 10, 12, 20, seed=5)
        assert_array_equal(a.indptr, b.indptr)
        assert_array_equal(a.ids, b.ids)
        assert_array_equal(a.cts, b.cts)
        assert_allclose(truth_a["topics"], truth_b["topics"])

    def test_shapes_and_lengths(self):
        corpus, truth = simulate_corpus(3, 8, 15, 25, seed=1)
        assert len(corpus) == 8 and corpus.v == 15
        assert_allclose(corpus.doc_lengths(), np.full(8, 25.0))
        assert truth["topics"].shape == (3, 15)
        assert truth["doc_topic"].shape == (8, 3)
        assert_allclose(truth["doc_topic"].sum(axis=1), np.ones(8), atol=1e-12)

    def test_disjoint_topics_partition_vocabulary(self):
        _, truth = simulate_corpus(2, 5, 10, 30, seed=2, disjoint=True)
        topics = truth["topics"]
        assert_allclose(topics[0, :5], np.full(5, 0.2))
        assert_allclose(topics[0, 5:], np.zeros(5))
        assert_allclose(topics[1, 5:], np.full(5, 0.2))
        assert np.all((topics > 0).sum(axis=0) == 1)

    def test_rejects_bad_sizes(self):
        with pytest.raises(DomainError):
            simulate_corpus(3, 5, 2, 10, seed=0)
        with pytest.raises(DomainError):
            simulate_corpus(0, 5, 10, 10, seed=0)


class TestLdaConfig:
    def test_scalar_alpha_broadcasts(self):
        c = LdaConfig(k=3, alpha=0.2)
        assert_allclose(c.alpha, [0.2, 0.2, 0.2])

    def test_vector_alpha_kept(self):
        c = LdaConfig(k=2, alpha=[0.1, 0.4])
        assert_allclose(c.alpha, [0.1, 0.4])

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"k": 0}, "k"),
            ({"k": 2.5}, "k"),
            ({"k": 2, "eta": 0.0}, "eta"),
            ({"k": 2, "eta": math.nan}, "eta"),
            ({"k": 2, "alpha": [0.1, 0.2, 0.3]}, "alpha"),
            ({"k": 2, "alpha": [0.1, -0.2]}, "alpha"),
        ],
    )
    def test_validation(self, kwargs, field):
        with pytest.raises(ConfigError) as err:
            LdaConfig(**kwargs)
        assert err.value.field == field


def uniform_state(corpus, config, lam=None, gamma=None):
    k = config.k
    if lam is None:
        lam = np.full((k, corpus.v), 1.0)
    if gamma is None:
        gamma = np.full((len(corpus), k), 1.0)
    phi = np.full((corpus.ids.size, k), 1.0 / k)
    return LdaFactors(lam, gamma, phi)


class TestUpdatePhi:
    def test_single_topic_gives_ones(self):
        corpus = tiny_corpus()
        config = LdaConfig(k=1)
        state = uniform_state(corpus, config)
        phi = lda_update_phi(state, 0, corpus)
        assert_allclose(phi, np.ones((2, 1)), rtol=0, atol=0)

    def test_symmetric_parameters_give_uniform_rows(self):
        corpus = tiny_corpus()
        config = LdaConfig(k=3)
        state = uniform_state(corpus, config, lam=np.full((3, 4), 2.0))
        phi = lda_update_phi(state, 2, corpus)
        assert_allclose(phi, np.full((3, 3), 1.0 / 3.0), atol=1e-15)

    def test_two_topic_single_word_logistic_value(self):
        corpus = corpus_of(((np.array([0]), np.array([1.0])),), 2)
        state = LdaFactors(
            np.array([[2.0, 1.0], [1.0, 2.0]]),
            np.array([[1.0, 1.0]]),
            np.full((1, 2), 0.5),
        )
        phi = lda_update_phi(state, 0, corpus)
        assert phi[0, 0] == pytest.approx(SIGMOID_1, abs=1e-12)
        assert phi[0, 1] == pytest.approx(1.0 - SIGMOID_1, abs=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        corpus = tiny_corpus()
        config = LdaConfig(k=4)
        state = uniform_state(
            corpus,
            config,
            lam=rng.uniform(0.5, 3.0, size=(4, 4)),
            gamma=rng.uniform(0.5, 3.0, size=(3, 4)),
        )
        for d in range(len(corpus)):
            phi = lda_update_phi(state, d, corpus)
            assert_allclose(phi.sum(axis=1), np.ones(phi.shape[0]), atol=1e-12)

    def test_empty_document(self):
        corpus = corpus_of(((np.array([], dtype=int), np.array([])),), 3)
        config = LdaConfig(k=2)
        state = uniform_state(corpus, config)
        assert lda_update_phi(state, 0, corpus).shape == (0, 2)


class TestUpdateGamma:
    def test_empty_document_returns_prior(self):
        corpus = corpus_of(((np.array([], dtype=int), np.array([])),), 3)
        config = LdaConfig(k=2, alpha=[0.3, 0.7])
        state = uniform_state(corpus, config)
        assert_allclose(lda_update_gamma(state, 0, corpus, config), [0.3, 0.7])

    def test_uniform_phi_four_tokens(self):
        corpus = corpus_of(((np.array([0, 1]), np.array([1.0, 3.0])),), 2)
        config = LdaConfig(k=2, alpha=0.5)
        state = uniform_state(corpus, config)
        assert_allclose(lda_update_gamma(state, 0, corpus, config), [2.5, 2.5])

    def test_component_sum_identity(self):
        rng = np.random.default_rng(8)
        corpus = tiny_corpus()
        config = LdaConfig(k=3, alpha=[0.2, 0.5, 0.9])
        raw = rng.uniform(size=(corpus.ids.size, 3))
        phi = raw / raw.sum(axis=1, keepdims=True)
        state = LdaFactors(np.ones((3, 4)), np.ones((3, 3)), phi)
        for d in range(len(corpus)):
            gamma = lda_update_gamma(state, d, corpus, config)
            n_d = corpus.cts[doc_rows(corpus, d)].sum()
            assert gamma.sum() == pytest.approx(config.alpha.sum() + n_d, abs=1e-10)


class TestUpdateLambda:
    def test_unassigned_topic_row_is_prior(self):
        corpus = corpus_of(((np.array([1]), np.array([4.0])),), 3)
        config = LdaConfig(k=2, eta=0.25)
        state = LdaFactors(
            np.ones((2, 3)),
            np.ones((1, 2)),
            np.array([[1.0, 0.0]]),
        )
        lam = lda_update_lambda(state, corpus, config)
        assert_allclose(lam[1], np.full(3, 0.25), rtol=0, atol=0)
        assert_allclose(lam[0], [0.25, 4.25, 0.25])

    def test_single_occurrence_increments_one_cell(self):
        corpus = corpus_of(((np.array([2]), np.array([1.0])),), 4)
        config = LdaConfig(k=2, eta=0.5)
        state = LdaFactors(np.ones((2, 4)), np.ones((1, 2)), np.array([[0.0, 1.0]]))
        lam = lda_update_lambda(state, corpus, config)
        expected = np.full((2, 4), 0.5)
        expected[1, 2] = 1.5
        assert_allclose(lam, expected, rtol=0, atol=0)

    def test_row_sum_exchanges_sums(self):
        rng = np.random.default_rng(4)
        corpus = tiny_corpus()
        config = LdaConfig(k=2, eta=0.1)
        raw = rng.uniform(size=(corpus.ids.size, 2))
        phi = raw / raw.sum(axis=1, keepdims=True)
        state = LdaFactors(np.ones((2, 4)), np.ones((3, 2)), phi)
        lam = lda_update_lambda(state, corpus, config)
        for k in range(2):
            expected = 4 * 0.1 + sum(
                float(corpus.cts[doc_rows(corpus, d)] @ phi[doc_rows(corpus, d), k])
                for d in range(len(corpus))
            )
            assert lam[k].sum() == pytest.approx(expected, rel=1e-12)

    def test_total_sum_identity(self):
        corpus = tiny_corpus()
        config = LdaConfig(k=3, eta=0.2)
        state = uniform_state(corpus, config)
        lam = lda_update_lambda(state, corpus, config)
        expected = 3 * 4 * 0.2 + corpus.total_tokens
        assert lam.sum() == pytest.approx(expected, abs=1e-9)


class TestSweepIdentities:
    def test_gamma_and_lambda_sums_after_sweeps(self):
        corpus, _ = simulate_corpus(3, 20, 15, 30, seed=6)
        config = LdaConfig(k=3, eta=0.3, alpha=0.4)
        model = Lda(config)
        state = model.init_state(corpus, np.random.default_rng(0))
        for _ in range(5):
            state = model.sweep(state, corpus)
            for d in range(len(corpus)):
                n_d = corpus.cts[doc_rows(corpus, d)].sum()
                assert state.gamma[d].sum() == pytest.approx(
                    config.alpha.sum() + n_d, abs=1e-9
                )
            assert state.lam.sum() == pytest.approx(
                3 * 15 * 0.3 + corpus.total_tokens, abs=1e-9
            )

    def test_empty_document_gets_prior_gamma(self):
        docs = (
            (np.array([0, 1]), np.array([2.0, 2.0])),
            (np.array([], dtype=int), np.array([])),
        )
        corpus = corpus_of(docs, 3)
        config = LdaConfig(k=2, alpha=[0.3, 0.8])
        model = Lda(config)
        state = model.sweep(
            model.init_state(corpus, np.random.default_rng(1)), corpus
        )
        assert_allclose(state.gamma[1], [0.3, 0.8], rtol=0, atol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_elbo_nondecreasing(self, seed):
        corpus, _ = simulate_corpus(3, 25, 20, 25, seed=seed)
        config = LdaConfig(k=3)
        model = Lda(config)
        state = model.init_state(corpus, np.random.default_rng(seed))
        state = model.sweep(state, corpus)  # no ELBO before the first sweep
        prev = model.elbo(state, corpus)
        for _ in range(25):
            state = model.sweep(state, corpus)
            cur = model.elbo(state, corpus)
            assert cur >= prev - 1e-8 * (1.0 + abs(cur))
            prev = cur


class TestCaviFit:
    def test_single_topic_degenerate(self):
        corpus = tiny_corpus()
        config = LdaConfig(k=1, eta=0.5, alpha=0.7)
        report = Lda(config).fit(corpus, FitConfig(max_iters=10, tol=1e-12, seed=0))
        state = report.model_state
        token_counts = np.zeros(4)
        np.add.at(token_counts, corpus.ids, corpus.cts)
        assert_allclose(state.lam[0], 0.5 + token_counts, rtol=0, atol=0)
        for d in range(len(corpus)):
            assert state.gamma[d, 0] == 0.7 + corpus.cts[doc_rows(corpus, d)].sum()
        assert report.converged
        assert report.iterations_run == 2  # constant ELBO from the first sweep on

    def test_duplicated_corpus_additivity(self):
        corpus, _ = simulate_corpus(2, 8, 10, 15, seed=3)
        config = LdaConfig(k=2)
        model = Lda(config)
        state, _ = fit_state(corpus, config, seed=1, max_iters=100)

        doubled = corpus.subset(np.tile(np.arange(len(corpus)), 2))
        stacked = LdaState(state.lam, np.vstack([state.gamma, state.gamma]))
        one = model.sweep(state, corpus)
        two = model.sweep(stacked, doubled)
        d = len(corpus)
        assert_allclose(two.gamma[:d], one.gamma, rtol=0, atol=0)
        assert_allclose(two.gamma[d:], one.gamma, rtol=0, atol=0)
        assert_allclose(
            two.lam - config.eta, 2.0 * (one.lam - config.eta), rtol=1e-12
        )

    # Coordinate ascent only finds a local optimum; some inits settle into
    # partially mixed topics with a visibly lower ELBO.  These seeds land
    # in the separating basin.
    @pytest.mark.parametrize("seed", [1, 2, 4])
    def test_disjoint_topic_recovery(self, seed):
        corpus, _ = simulate_corpus(
            2, 100, 20, 50, seed=seed, disjoint=True, alpha=0.3
        )
        config = LdaConfig(k=2, eta=0.1, alpha=0.5)
        state, report = fit_state(corpus, config, seed=seed, max_iters=400, tol=1e-10)
        beta = state.lam / state.lam.sum(axis=1, keepdims=True)
        halves = [np.arange(10), np.arange(10, 20)]
        best = max(
            np.mean([beta[row, halves[half]].sum() for row, half in enumerate(perm)])
            for perm in itertools.permutations(range(2))
        )
        assert best >= 0.95

    def test_empty_corpus_rejected(self):
        with pytest.raises(DomainError):
            Lda(LdaConfig(k=2)).fit(
                corpus_of((), 5),
                FitConfig(max_iters=5, tol=1e-8, seed=0),
            )

    def test_heldout_monitoring_per_word(self):
        corpus, _ = simulate_corpus(2, 40, 12, 20, seed=9)
        config = LdaConfig(k=2)
        report = Lda(config).fit(
            corpus,
            FitConfig(max_iters=30, tol=1e-10, seed=4, heldout_fraction=0.25),
        )
        assert report.metadata["n_heldout"] == 10
        assert report.heldout_trace
        for point in report.heldout_trace:
            assert -10.0 < point.log_predictive < 0.0

    def test_fit_is_deterministic(self):
        corpus, _ = simulate_corpus(2, 15, 10, 12, seed=11)
        config = LdaConfig(k=2)
        cfg = FitConfig(max_iters=40, tol=1e-11, seed=7)
        r1 = Lda(config).fit(corpus, cfg)
        r2 = Lda(config).fit(corpus, cfg)
        assert r1.final_elbo == r2.final_elbo
        assert_allclose(r1.model_state.lam, r2.model_state.lam, rtol=0, atol=0)


class TestPredictive:
    def test_per_word_average_is_token_weighted(self):
        corpus, _ = simulate_corpus(2, 30, 10, 15, seed=12)
        config = LdaConfig(k=2)
        model = Lda(config)
        state, _ = fit_state(corpus, config, seed=0, max_iters=60)
        held = corpus.subset([0, 1, 2])
        totals = [model.log_predictive(state, held.subset([d]))[0] for d in range(3)]
        expected = sum(totals) / held.total_tokens
        assert model.heldout_log_predictive(state, held) == pytest.approx(expected)
        assert expected < 0.0

    def test_log_predictive_gives_one_total_per_document(self):
        corpus, _ = simulate_corpus(2, 30, 10, 15, seed=12)
        config = LdaConfig(k=2)
        model = Lda(config)
        state, _ = fit_state(corpus, config, seed=0, max_iters=60)
        docs = [
            (corpus.ids[doc_rows(corpus, d)], corpus.cts[doc_rows(corpus, d)])
            for d in (4, 0)
        ]
        empty = (np.array([], dtype=int), np.array([]))
        held = corpus_of([docs[0], empty, docs[1]], corpus.v)
        totals = model.log_predictive(state, held)
        assert totals.shape == (3,)
        assert totals[1] == 0.0  # the empty document
        for d in range(3):
            one = model.log_predictive(state, held.subset([d]))
            assert one.shape == (1,)
            assert totals[d] == pytest.approx(one[0], rel=1e-12, abs=0.0)
        assert totals.sum() == pytest.approx(
            model.heldout_log_predictive(state, held) * held.total_tokens, rel=1e-12
        )

    def test_empty_heldout_rejected(self):
        config = LdaConfig(k=2)
        model = Lda(config)
        corpus, _ = simulate_corpus(2, 5, 8, 10, seed=13)
        state, _ = fit_state(corpus, config, seed=0, max_iters=30)
        with pytest.raises(DomainError):
            model.heldout_log_predictive(state, corpus_of((), 8))
        empty_doc = corpus_of(((np.array([], dtype=int), np.array([])),), 8)
        with pytest.raises(DomainError):
            model.heldout_log_predictive(state, empty_doc)

    def test_better_fit_scores_in_vocabulary_words_higher(self):
        # A fitted model should beat uniform topics on in-distribution docs.
        corpus, _ = simulate_corpus(2, 60, 16, 30, seed=14, disjoint=True)
        config = LdaConfig(k=2)
        model = Lda(config)
        train = corpus.subset(range(50))
        held = corpus.subset(range(50, 60))
        fitted, _ = fit_state(train, config, seed=0, max_iters=80)
        flat = LdaState(np.ones_like(fitted.lam), fitted.gamma)
        assert model.heldout_log_predictive(
            fitted, held
        ) > model.heldout_log_predictive(flat, held)


class TestExportState:
    def test_summary_dict_top_terms(self):
        corpus, _ = simulate_corpus(2, 30, 12, 20, seed=15, disjoint=True)
        config = LdaConfig(k=2)
        model = Lda(config)
        state, _ = fit_state(corpus, config, seed=1, max_iters=60)
        summary = model.export_state(state)
        assert len(summary["top_terms"]) == 2
        assert sorted(summary["top_terms"][0]) == list(range(12))  # 20 > V terms
        probs = summary["top_term_probs"][0]
        assert probs == sorted(probs, reverse=True)


class TestSviFit:
    def schedule(self):
        return StepSchedule(kappa=0.7, delay=0.0)

    def test_single_doc_first_step_matches_cavi_sweep(self):
        corpus = corpus_of(((np.array([0, 2, 3]), np.array([2.0, 1.0, 4.0])),), 5)
        config = LdaConfig(k=2)
        fit_cfg = FitConfig(max_iters=1, tol=1e-12, seed=3)
        svi = lda_svi_fit(corpus, config, self.schedule(), fit_cfg, batch_size=1)
        cavi = Lda(config).fit(corpus, fit_cfg)
        assert_allclose(svi.model_state.lam, cavi.model_state.lam, rtol=0, atol=0)

    def test_average_noisy_target_equals_full_update(self):
        corpus, _ = simulate_corpus(2, 6, 8, 12, seed=16)
        config = LdaConfig(k=2, eta=0.2)
        model = Lda(config)
        rng = np.random.default_rng(5)
        lam = config.eta + rng.uniform(size=(2, 8))
        n = len(corpus)

        # per-document local factors at fixed topics, fresh gamma start
        phis = []
        gammas = np.empty((n, 2))
        for d in range(n):
            rows = doc_rows(corpus, d)
            gamma = config.alpha + corpus.cts[rows].sum() / config.k
            state = LdaFactors(
                lam, np.tile(gamma, (n, 1)), np.full((corpus.ids.size, 2), 0.5)
            )
            for _ in range(300):
                phi = state.phi.copy()
                phi[rows] = lda_update_phi(state, d, corpus)
                state = LdaFactors(lam, state.gamma, phi)
                g = state.gamma.copy()
                g[d] = lda_update_gamma(state, d, corpus, config)
                state = LdaFactors(lam, g, state.phi)
            phis.append(state.phi[rows])
            gammas[d] = state.gamma[d]

        full_state = LdaFactors(lam, gammas, np.concatenate(phis))
        lam_full = lda_update_lambda(full_state, corpus, config)

        targets = []
        for d in range(n):
            rows = doc_rows(corpus, d)
            terms, counts = corpus.ids[rows], corpus.cts[rows]
            stats = np.zeros_like(lam)
            stats[:, terms] += (phis[d] * counts[:, None]).T
            targets.append(config.eta + n * stats)
        avg_gradient = np.mean([t - lam for t in targets], axis=0)
        assert_allclose(avg_gradient, lam_full - lam, rtol=1e-12, atol=1e-12)

    def test_cavi_fixed_point_has_zero_gradient(self):
        corpus = corpus_of(((np.array([0, 1, 3]), np.array([3.0, 2.0, 5.0])),), 4)
        config = LdaConfig(k=2)
        model = Lda(config)
        state, report = fit_state(corpus, config, seed=2, max_iters=500, tol=1e-13)
        assert report.converged
        again = model.sweep(state, corpus)
        assert_allclose(again.lam, state.lam, rtol=1e-8, atol=1e-8)
        phi = lda_update_phi(state, 0, corpus)
        target = np.full_like(state.lam, config.eta)
        terms, counts = corpus.ids, corpus.cts
        target[:, terms] += (phi * counts[:, None]).T
        assert_allclose(target, state.lam, rtol=1e-6, atol=1e-6)

    def test_deterministic_per_seed(self):
        corpus, _ = simulate_corpus(2, 20, 10, 15, seed=17)
        config = LdaConfig(k=2)
        cfg = FitConfig(max_iters=50, tol=1e-12, seed=9, elbo_every=10)
        r1 = lda_svi_fit(corpus, config, self.schedule(), cfg, batch_size=4)
        r2 = lda_svi_fit(corpus, config, self.schedule(), cfg, batch_size=4)
        assert_allclose(r1.model_state.lam, r2.model_state.lam, rtol=0, atol=0)
        assert [p.elbo for p in r1.elbo_trace] == [p.elbo for p in r2.elbo_trace]

    def test_heldout_close_to_cavi_on_synthetic_corpus(self):
        corpus, _ = simulate_corpus(2, 250, 25, 40, seed=18, disjoint=True, alpha=0.4)
        train = corpus.subset(range(200))
        held = corpus.subset(range(200, 250))
        config = LdaConfig(k=2, eta=0.1, alpha=0.5)
        model = Lda(config)

        cavi = Lda(config).fit(train, FitConfig(max_iters=100, tol=1e-10, seed=0))
        svi = lda_svi_fit(
            train,
            config,
            StepSchedule(kappa=0.7, delay=1.0),
            FitConfig(max_iters=1500, tol=1e-12, seed=0, elbo_every=500),
            batch_size=10,
        )
        a = model.heldout_log_predictive(cavi.model_state, held)
        b = model.heldout_log_predictive(svi.model_state, held)
        assert abs(a - b) <= 0.05

    def test_metadata_and_validation(self):
        corpus, _ = simulate_corpus(2, 5, 8, 10, seed=19)
        config = LdaConfig(k=2)
        cfg = FitConfig(max_iters=5, tol=1e-12, seed=1)
        report = lda_svi_fit(corpus, config, self.schedule(), cfg, batch_size=2)
        assert report.metadata["algorithm"] == "svi"
        assert report.metadata["batch_size"] == 2
        assert report.metadata["kappa"] == 0.7
        with pytest.raises(ConfigError):
            lda_svi_fit(corpus, config, self.schedule(), cfg, batch_size=6)
        with pytest.raises(DomainError):
            lda_svi_fit(corpus_of((), 8), config, self.schedule(), cfg)

    def test_heldout_fraction_rejected(self):
        corpus, _ = simulate_corpus(2, 5, 8, 10, seed=19)
        cfg = FitConfig(max_iters=5, seed=1, heldout_fraction=0.2)
        with pytest.raises(ConfigError) as err:
            lda_svi_fit(corpus, LdaConfig(k=2), self.schedule(), cfg, batch_size=2)
        assert err.value.field == "heldout_fraction"


class TestStateValidation:
    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(DomainError):
            LdaState(np.zeros((1, 2)), np.ones((0, 1)))
        with pytest.raises(DomainError):
            LdaState(np.ones((2, 3)), np.array([[1.0, -1.0]]))

    def test_rejects_rows_with_the_wrong_topic_count(self):
        with pytest.raises(DomainError):
            LdaState(np.ones((2, 3)), np.ones((1, 3)))

    def test_state_must_match_the_corpus(self):
        # two documents of 2 and 1 terms, swept; then scored on three
        docs = (
            (np.array([0, 2]), np.array([1.0, 2.0])),
            (np.array([1]), np.array([3.0])),
        )
        corpus = corpus_of(docs, 3)
        config = LdaConfig(k=2)
        model = Lda(config)
        state = model.sweep(LdaState(np.ones((2, 3)), np.ones((2, 2))), corpus)
        assert np.isfinite(lda_elbo(state, corpus, config))
        with pytest.raises(DomainError, match="does not match"):
            lda_elbo(state, corpus.subset([0, 1, 1]), config)

    @pytest.mark.parametrize("built_by", ["init_state", "load_state", "replace"])
    def test_elbo_refuses_a_state_no_sweep_or_snapshot_built(self, tmp_path, built_by):
        corpus = tiny_corpus()
        config = LdaConfig(k=2)
        model = Lda(config)
        state = model.init_state(corpus, np.random.default_rng(0))
        if built_by == "load_state":
            path = tmp_path / "lambda.csv"
            np.savetxt(path, model.sweep(state, corpus).lam, delimiter=",")
            _, state = Lda.load_state({"lambda_csv": path.name}, tmp_path)
        elif built_by == "replace":
            swept = model.sweep(state, corpus)
            assert np.isfinite(lda_elbo(swept, corpus, config))
            state = dataclasses.replace(swept, lam=swept.lam * 2.0)
        with pytest.raises(DomainError, match="sweep or snapshot"):
            lda_elbo(state, corpus, config)

    def test_arrays_read_only(self):
        state = LdaState(np.ones((2, 3)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            state.lam[0, 0] = 2.0
        with pytest.raises(ValueError):
            state.gamma[0, 0] = 1.0


def random_corpus(seed, num_docs=12, vocab=30):
    """Documents of 1-12 distinct terms with counts 1-6, plus one empty
    document in the middle."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(num_docs):
        terms = np.sort(rng.choice(vocab, size=rng.integers(1, 13), replace=False))
        docs.append((terms, rng.integers(1, 7, size=terms.size).astype(float)))
    docs.insert(num_docs // 2, (np.array([], dtype=int), np.array([])))
    return corpus_of(docs, vocab)


@pytest.fixture
def e_step_calls(monkeypatch):
    """Every call of the batched E-step made through the module, with its
    inputs and outputs."""
    calls = []
    batched = lda_module.e_step

    def recording(corpus, elog_beta, gamma, alpha):
        out = batched(corpus, elog_beta, gamma, alpha)
        calls.append((corpus, elog_beta, np.array(gamma), alpha, out))
        return out

    monkeypatch.setattr(lda_module, "e_step", recording)
    return calls


def assert_matches_per_document_loop(call, rtol=1e-10):
    """Check a recorded ``e_step`` call against the per-document loop, each
    copy of a call on stacked (S, K, V) topic matrices against its own."""
    corpus, elog_beta, gamma_start, alpha, (gamma, log_theta, iterations) = call
    stacked = elog_beta if elog_beta.ndim == 3 else elog_beta[None]
    docs = len(corpus)
    for s, matrix in enumerate(stacked):
        rows = slice(s * docs, (s + 1) * docs)
        want_gamma, want_phi, want_iterations = lda_local_steps(
            corpus, matrix, gamma_start[rows], alpha, INNER_TOL, INNER_MAX_ITERS
        )
        assert_array_equal(iterations[rows], want_iterations)
        assert np.all(np.isfinite(gamma[rows]))
        assert_allclose(gamma[rows], want_gamma, rtol=rtol, atol=0)
        # the rows of the last pass, rebuilt from its E[log theta]
        assert np.all(np.isfinite(log_theta[rows]))
        phi = lda_pass_phi(corpus, log_theta[rows], matrix)
        assert_allclose(phi, np.concatenate(want_phi), rtol=rtol, atol=0)
    return iterations


class TestNoArrayPerEntry:
    """A state is O(DK + KV): no ``LdaState`` array, and no array ``e_step``
    returns, has a row per CSR entry."""

    def test_fits_and_fold_in(self, monkeypatch, e_step_calls):
        corpus, _ = simulate_corpus(3, 20, 30, 25, seed=4)
        train, held = corpus.subset(range(15)), corpus.subset(range(15, 20))
        config = LdaConfig(k=3)
        sizes = {train.ids.size, held.ids.size}
        assert not sizes & {len(train), len(held), config.k, corpus.v}
        states = []
        post_init = LdaState.__post_init__

        def recording(self, kept, terms):
            post_init(self, kept, terms)
            states.append(self)

        monkeypatch.setattr(LdaState, "__post_init__", recording)
        cavi = Lda(config).fit(train, FitConfig(max_iters=3, seed=0))
        lda_svi_fit(train, config, StepSchedule(kappa=0.7),
                    FitConfig(max_iters=4, seed=0, elbo_every=2), batch_size=5)
        Lda(config).heldout_log_predictive(cavi.model_state, held)

        assert len(states) == 1 + 3 + 1 + 2  # init, sweeps, init, snapshots
        for state in states:
            arrays = [a for a in vars(state).values() if isinstance(a, np.ndarray)]
            assert len(arrays) >= 2
            assert all(a.shape[0] != train.ids.size for a in arrays)
        assert len(e_step_calls) == 3 + 4 + 2 + 1
        for batch, elog_beta, _, _, out in e_step_calls:
            copies = elog_beta.shape[0] if elog_beta.ndim == 3 else 1
            entries = copies * batch.ids.size
            assert entries != copies * len(batch)
            assert all(a.shape[0] != entries for a in out)


class TestBatchedEStep:
    """The batched E-step against the per-document log-space loop it
    replaced, at each of its four call sites."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_cavi_sweep(self, k, e_step_calls):
        corpus = random_corpus(20 + k)
        config = LdaConfig(k=k, eta=0.3, alpha=0.2)
        model = Lda(config)
        state = model.init_state(corpus, np.random.default_rng(k))
        for _ in range(4):
            state = model.sweep(state, corpus)
        assert len(e_step_calls) == 4
        for call in e_step_calls:
            iterations = assert_matches_per_document_loop(call)
            assert iterations[len(corpus) // 2] == 0  # the empty document
            if k > 1:
                # documents leave the active set at different iterations
                assert len(set(iterations.tolist())) > 2
        assert_allclose(state.gamma[len(corpus) // 2], config.alpha, rtol=0, atol=0)
        _, elog_beta, _, _, (_, log_theta, _) = e_step_calls[-1]
        phi = lda_pass_phi(corpus, log_theta, elog_beta)
        assert_allclose(
            state.lam,
            lda_update_lambda(LdaFactors(state.lam, state.gamma, phi), corpus, config),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("k", [1, 3])
    def test_fold_in_for_log_predictive(self, k, e_step_calls):
        corpus = random_corpus(30 + k)
        config = LdaConfig(k=k, eta=0.3, alpha=0.2)
        model = Lda(config)
        rng = np.random.default_rng(k)
        state = LdaState(
            config.eta + rng.uniform(0.0, 5.0, size=(k, corpus.v)), np.ones((0, k))
        )
        per_word = model.heldout_log_predictive(state, corpus)
        single = model.log_predictive(state, corpus.subset([0]))[0]
        assert len(e_step_calls) == 2
        for call in e_step_calls:
            assert_matches_per_document_loop(call)

        elog_beta = _dirichlet_expected_log_rows(state.lam)
        gamma, _, _ = lda_local_steps(
            corpus,
            elog_beta,
            config.alpha + corpus.doc_lengths()[:, None] / k,
            config.alpha,
            INNER_TOL,
            INNER_MAX_ITERS,
        )
        beta_mean = state.lam / state.lam.sum(axis=1, keepdims=True)
        rows = [doc_rows(corpus, d) for d in range(len(corpus))]
        totals = [
            float(corpus.cts[r] @ np.log(g / g.sum() @ beta_mean[:, corpus.ids[r]]))
            for g, r in zip(gamma, rows)
        ]
        assert per_word == pytest.approx(sum(totals) / corpus.total_tokens, rel=1e-12)
        assert single == pytest.approx(totals[0], rel=1e-12)

    @pytest.mark.parametrize("k", [1, 3])
    def test_svi_minibatch_and_local_pass(self, k, e_step_calls):
        corpus = random_corpus(40 + k)
        config = LdaConfig(k=k, eta=0.3, alpha=0.2)
        report = lda_svi_fit(
            corpus,
            config,
            StepSchedule(kappa=0.7, delay=1.0),
            FitConfig(max_iters=4, tol=1e-12, seed=k, elbo_every=2),
            batch_size=4,
        )
        sizes = [len(call[0]) for call in e_step_calls]
        # four minibatch steps; local passes after steps 2 and 4, the last
        # of which is the final state
        assert sizes == [4, 4, len(corpus), 4, 4, len(corpus)]
        for call in e_step_calls:
            assert_matches_per_document_loop(call)
        final = e_step_calls[-1][4]
        assert_allclose(report.model_state.gamma, final[0], rtol=0, atol=0)
        assert lda_elbo(report.model_state, corpus, config) == report.final_elbo


class TestExpSpaceUnderflow:
    """Tiny priors and long documents, where an unshifted exp-space
    E-step underflows."""

    # |E[log beta]| reaches ~1e6 at eta = 1e-6, where one ulp is 1.2e-10;
    # gamma and phi inherit a few ulp of relative error from the logits
    # whichever route forms them.
    RTOL = 1e-9

    def test_unseen_term_in_long_heldout_document(self, e_step_calls):
        train, _ = simulate_corpus(3, 30, 40, 40, seed=21)
        unseen = train.v  # a term id no training document uses
        train = Corpus(train.indptr, train.ids, train.cts, train.v + 1)
        config = LdaConfig(k=3, eta=1e-6, alpha=0.1)
        state, _ = fit_state(train, config, seed=0, max_iters=5)
        elog_beta = _dirichlet_expected_log_rows(state.lam)
        # without the per-term shift every factor of the unseen term is 0
        assert np.all(np.exp(elog_beta[:, unseen]) == 0.0)

        rng = np.random.default_rng(3)
        counts = 1.0 + rng.multinomial(10_000 - 8, np.full(8, 1.0 / 8))
        terms = np.array([0, 5, 11, 17, 23, 30, 36, unseen])
        held = corpus_of(((terms, counts),), train.v)
        assert held.total_tokens == 10_000
        e_step_calls.clear()
        value = Lda(config).heldout_log_predictive(state, held)
        assert np.isfinite(value)
        (call,) = e_step_calls
        assert_matches_per_document_loop(call, rtol=self.RTOL)

        # the same document through a sweep, its topic statistics included
        stacked = LdaState(state.lam, call[4][0])
        e_step_calls.clear()
        swept = Lda(config).sweep(stacked, held)
        assert np.all(np.isfinite(swept.lam))
        (call,) = e_step_calls
        assert_matches_per_document_loop(call, rtol=self.RTOL)

    def test_document_and_term_favouring_different_topics(self, e_step_calls):
        # gamma puts ~1e6 nats between the topics one way and lam the other
        # way at term 0, so even the shifted exp-space normalizer of that
        # entry underflows and it is formed in log space.
        corpus = corpus_of(((np.array([0, 1]), np.array([1.0, 1000.0])),), 2)
        config = LdaConfig(k=2, eta=1e-6, alpha=1e-6)
        lam = np.array([[1e3, 1e-6], [1e-6, 1e3]])
        elog_beta = _dirichlet_expected_log_rows(lam)
        gamma = np.array([[1e-6, 1001.0]])
        log_theta = lda_module.digamma(gamma[0]) - lda_module.digamma(gamma[0]).max()
        shifted_beta = elog_beta[:, 0] - elog_beta[:, 0].max()
        assert np.exp(log_theta) @ np.exp(shifted_beta) == 0.0

        state = LdaState(lam, gamma)
        swept = Lda(config).sweep(state, corpus)
        (call,) = e_step_calls
        assert_matches_per_document_loop(call, rtol=self.RTOL)
        assert swept.gamma.sum() == pytest.approx(config.alpha.sum() + 1001.0, abs=1e-9)
        phi = lda_update_phi(state, 0, corpus)
        assert_allclose(phi, doc_phi(gamma[0], elog_beta), rtol=self.RTOL, atol=0)
        assert_allclose(phi.sum(axis=1), 1.0, atol=1e-12)


class TestEStepCapReport:
    """Fit metadata reports how many documents the final E-step stopped at
    the update cap, counted from the E-step's own per-document counts."""

    def corpus(self):
        # long documents over five topics: several need more than the cap
        corpus, _ = simulate_corpus(
            k=5, num_docs=10, vocab_size=50, doc_length=1000, seed=0
        )
        return corpus

    def check(self, report, call):
        iterations = assert_matches_per_document_loop(call)
        hits = int(np.count_nonzero(iterations == INNER_MAX_ITERS))
        assert hits > 0
        assert report.metadata["estep_cap_hits"] == hits
        assert report.metadata["estep_max_updates"] == INNER_MAX_ITERS
        assert_array_equal(report.model_state.estep_updates, iterations)

    def test_cavi_reports_final_sweep(self, e_step_calls):
        report = Lda(LdaConfig(k=5)).fit(self.corpus(), FitConfig(max_iters=2, seed=0))
        assert len(e_step_calls) == 2
        self.check(report, e_step_calls[-1])

    def test_svi_reports_final_local_pass(self, e_step_calls):
        report = lda_svi_fit(
            self.corpus(), LdaConfig(k=5), StepSchedule(kappa=0.7),
            FitConfig(max_iters=2, seed=0), batch_size=2,
        )
        # two minibatches and an ELBO pass after each; the last is final
        assert len(e_step_calls) == 4
        self.check(report, e_step_calls[-1])

    def test_no_cap_hits_on_short_documents(self):
        report = Lda(LdaConfig(k=2)).fit(tiny_corpus(), FitConfig(max_iters=3, seed=0))
        assert report.metadata["estep_cap_hits"] == 0
        assert 1 <= report.metadata["estep_max_updates"] < INNER_MAX_ITERS


class TestUciLimits:
    def write(self, tmp_path, text):
        path = tmp_path / "corpus.txt"
        path.write_text(text)
        return path

    @pytest.mark.parametrize(
        "text, line",
        [
            ("1\n3\n2\n1 1 1\n\n\n", 7),  # trailing blank lines still count
            ("1\n3\n2\n1 1 1", 5),  # no final newline
            ("1\n3\n3\n\n", 5),  # no triples at all
        ],
    )
    def test_missing_triples_reported_after_last_line(self, tmp_path, text, line):
        with pytest.raises(DataFormatError) as err:
            read_uci(self.write(tmp_path, text))
        assert err.value.line == line
        assert "triples, found" in str(err.value)

    def test_count_above_two_to_the_53_rejected(self, tmp_path):
        path = self.write(tmp_path, f"1\n3\n2\n1 2 1\n1 1 {2**53 + 1}\n")
        with pytest.raises(DataFormatError) as err:
            read_uci(path)
        assert err.value.line == 5

    def test_summed_count_above_two_to_the_53_rejected(self, tmp_path):
        path = self.write(tmp_path, f"1\n3\n2\n1 1 {2**53}\n\n1 1 1\n")
        with pytest.raises(DataFormatError) as err:
            read_uci(path)
        assert err.value.line == 6

    def test_declared_documents_cost_no_memory_each(self, tmp_path):
        # a three-line file declaring a million empty documents; read in a
        # fresh interpreter so that the peak RSS belongs to this read alone
        path = self.write(tmp_path, "1000000\n5\n0\n")
        script = (
            "import json, resource, sys\n"
            "from meanfield.lda import read_uci\n"
            "unit = 1 if sys.platform == 'darwin' else 1024\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "corpus = read_uci(sys.argv[1])\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "grown = (after - before) * unit / 2**20\n"
            "print(json.dumps([len(corpus), corpus.total_tokens, grown]))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        path_entries = [str(src), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
        res = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert res.returncode == 0, res.stderr
        docs, tokens, grown_mb = json.loads(res.stdout)
        assert docs == 10**6
        assert tokens == 0.0
        assert grown_mb < 100.0

    def test_count_of_two_to_the_53_is_exact(self, tmp_path):
        c = read_uci(self.write(tmp_path, f"1\n3\n1\n1 3 {2**53}\n"))
        assert c.cts[0] == 2.0**53
