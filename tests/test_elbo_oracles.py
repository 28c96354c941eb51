"""Every model ELBO against its form with the prior, KL and entropy terms
written out by hand (``tests/_oracles.py``), on random valid states; LDA's
on the states its sweeps and snapshots build, whose assignment rows the
oracle rebuilds from the last local pass."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

import _oracles
import meanfield.lda as lda_module
from meanfield.blr_ard import BlrArdConfig, BlrArdState, blr_elbo
from meanfield.condconj import GlobalParam, GlobalLocalState, StepSchedule, cond_conj_elbo
from meanfield.engine import FitConfig
from meanfield.expfam import _dirichlet_expected_log_rows
from meanfield.gmm import (
    DiagGmmConfig,
    DiagGmmState,
    UniGmmState,
    conjugate_spec,
    diag_gmm_elbo,
    gmm_elbo,
)
from meanfield.lda import Lda, LdaConfig, LdaState, lda_elbo, lda_svi_fit

from test_estep_blocks import skewed_corpus, skewed_start
from test_lda import random_corpus

RTOL = 1e-12


def _rows(rng, n, k, zero_col=None):
    """(n, k) probability rows with some entries exactly 0."""
    r = rng.dirichlet(np.ones(k), size=n)
    if k > 1:
        r[rng.random((n, k)) < 0.2] = 0.0
        r[:, 0] += r.sum(axis=1) == 0.0
    if zero_col is not None:
        r[:, zero_col] = 0.0
        r[:, (zero_col + 1) % k] += r.sum(axis=1) == 0.0
    return r / r.sum(axis=1, keepdims=True)


def _close(got, want):
    assert np.isfinite(want)
    assert got == pytest.approx(want, rel=RTOL, abs=0.0)


@pytest.mark.parametrize("n,k,d", [(0, 3, 2), (40, 1, 2), (40, 3, 1), (40, 4, 3)])
def test_gmm_elbo_matches_oracle(n, k, d):
    rng = np.random.default_rng(n + 10 * k + d)
    state = UniGmmState(
        rng.normal(size=(k, d)), rng.uniform(0.1, 2.0, size=(k, d)), _rows(rng, n, k)
    )
    data = rng.normal(scale=3.0, size=(n, d))
    _close(gmm_elbo(state, data, 2.5), _oracles.gmm_elbo(state, data, 2.5))


@pytest.mark.parametrize("k,zero_col", [(1, None), (3, None), (3, 1)])
def test_diag_gmm_elbo_matches_oracle(k, zero_col):
    rng = np.random.default_rng(k + 7 * (zero_col or 0))
    n, d = 50, 2
    shape = (k, d)
    state = DiagGmmState(
        conc=rng.uniform(0.2, 20.0, size=k),
        m=rng.normal(size=shape),
        b=rng.uniform(0.5, 30.0, size=shape),
        alpha=rng.uniform(0.5, 30.0, size=shape),
        beta=rng.uniform(0.5, 30.0, size=shape),
        r=_rows(rng, n, k, zero_col),
    )
    config = DiagGmmConfig(k, m0=0.3, b0=0.7, alpha0=1.5, beta0=2.0)
    data = rng.normal(scale=2.0, size=(n, d))
    _close(diag_gmm_elbo(state, data, config),
           _oracles.diag_gmm_elbo(state, data, config))


@pytest.mark.parametrize("fix_relevance", [False, True])
def test_blr_elbo_matches_oracle(fix_relevance):
    rng = np.random.default_rng(3)
    n, dim = 60, 4
    a = rng.normal(size=(dim, dim))
    state = BlrArdState(
        beta=rng.normal(size=dim),
        v_inv=a @ a.T + dim * np.eye(dim),
        a=7.5,
        b=3.2,
        c=1.7,
        d=rng.uniform(0.3, 4.0, size=dim),
    )
    config = BlrArdConfig(a0=1.3, b0=0.8, c0=1.2, d0=0.6, fix_relevance=fix_relevance)
    data = rng.normal(size=(n, dim + 1))
    _close(blr_elbo(state, data, config), _oracles.blr_elbo(state, data, config))


def _lda_sweep(model, state, corpus):
    """The state one sweep from ``state`` builds, and its factors with the
    assignment rows of the sweep's last pass rebuilt in log space."""
    elog_beta = _dirichlet_expected_log_rows(state.lam)
    _, log_theta, _ = lda_module.e_step(corpus, elog_beta, state.gamma, model.config.alpha)
    swept = model.sweep(state, corpus)
    phi = _oracles.lda_pass_phi(corpus, log_theta, elog_beta)
    return swept, _oracles.LdaFactors(swept.lam, swept.gamma, phi)


def _lda_corpus(rng, v):
    docs = []
    for length in (5, 0, 8, 3):  # the second document is empty
        terms = np.sort(rng.choice(v, size=length, replace=False))
        docs.append((terms, rng.integers(1, 6, size=length).astype(float)))
    return _oracles.corpus_of(docs, v)


@pytest.mark.parametrize("k", [1, 3])
def test_lda_elbo_matches_oracle(k):
    # CAVI sweep states, from a random start, on a small corpus and on one
    # of test_lda's
    rng = np.random.default_rng(k)
    for corpus in (_lda_corpus(rng, 12), random_corpus(20 + k)):
        config = LdaConfig(k, eta=0.3, alpha=rng.uniform(0.1, 1.0, size=k))
        model = Lda(config)
        state = LdaState(
            lam=rng.uniform(0.2, 5.0, size=(k, corpus.v)),
            gamma=rng.uniform(0.2, 5.0, size=(len(corpus), k)),
        )
        for _ in range(4):
            state, factors = _lda_sweep(model, state, corpus)
            _close(lda_elbo(state, corpus, config), _oracles.lda_elbo(factors, corpus, config))


@pytest.mark.parametrize("k", [1, 3])
def test_lda_snapshot_elbo_matches_oracle(k, monkeypatch):
    # every ELBO snapshot of an SVI fit on one of test_lda's corpora
    corpus = random_corpus(40 + k)
    config = LdaConfig(k=k, eta=0.3, alpha=0.2)
    scored = []
    elbo = lda_module.lda_elbo

    def recording(state, corpus, config):
        scored.append((state, elbo(state, corpus, config)))
        return scored[-1][1]

    monkeypatch.setattr(lda_module, "lda_elbo", recording)
    lda_svi_fit(corpus, config, StepSchedule(kappa=0.7, delay=1.0),
                FitConfig(max_iters=6, tol=1e-12, seed=k, elbo_every=2), batch_size=4)
    assert len(scored) == 3
    for snapshot, value in scored:
        elog_beta = _dirichlet_expected_log_rows(snapshot.lam)
        start = config.alpha + corpus.doc_lengths()[:, None] / k
        gamma, log_theta, _ = lda_module.e_step(corpus, elog_beta, start, config.alpha)
        assert_array_equal(gamma, snapshot.gamma)
        phi = _oracles.lda_pass_phi(corpus, log_theta, elog_beta)
        factors = _oracles.LdaFactors(snapshot.lam, snapshot.gamma, phi)
        _close(value, _oracles.lda_elbo(factors, corpus, config))


def test_lda_elbo_matches_oracle_with_log_space_rows(monkeypatch):
    # A huge alpha_0 keeps theta_1 below 1e-100 while term 1 favours topic 1,
    # so the sweeps' last passes form that entry's row in log space.
    corpus = skewed_corpus()
    _, lam, gamma = skewed_start(corpus)
    config = LdaConfig(k=2, eta=1e-3, alpha=[1e105, 1e-3])
    model = Lda(config)
    calls = []
    rows = lda_module.categorical_rows

    def counting(logits):
        calls.append(len(logits))
        return rows(logits)

    state = LdaState(lam, gamma)
    for _ in range(3):
        elog_beta = _dirichlet_expected_log_rows(state.lam)
        monkeypatch.setattr(lda_module, "categorical_rows", counting)
        lda_module.e_step(corpus, elog_beta, state.gamma, config.alpha)
        in_e_step = len(calls)
        state, factors = _lda_sweep(model, state, corpus)
        monkeypatch.setattr(lda_module, "categorical_rows", rows)
        assert len(calls) > 2 * in_e_step  # the last pass's rows too
        calls.clear()
        _close(lda_elbo(state, corpus, config), _oracles.lda_elbo(factors, corpus, config))


@pytest.mark.parametrize("n,k,d", [(0, 3, 1), (30, 1, 2), (30, 4, 1), (30, 3, 3)])
def test_cond_conj_elbo_matches_oracle(n, k, d):
    rng = np.random.default_rng(n + k + d)
    spec = conjugate_spec(k=k, sigma2=1.5, dim=d)
    stat = np.concatenate([rng.normal(size=k * d), rng.uniform(0.5, 3.0, size=k)])
    lam = GlobalParam(stat, 0.0)
    probs = _rows(rng, n, k)
    data = rng.normal(size=(n, d))
    _close(cond_conj_elbo(spec, GlobalLocalState(lam, probs), data),
           _oracles.condconj_elbo_loop(spec, lam, probs, data, k, d))

