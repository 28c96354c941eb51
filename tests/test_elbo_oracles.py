"""Every model ELBO against its form with the prior, KL and entropy terms
written out by hand (``tests/_oracles.py``), on random valid states."""

import numpy as np
import pytest

import _oracles
from meanfield.blr_ard import BlrArdConfig, BlrArdState, blr_elbo
from meanfield.condconj import GlobalParam, GlobalLocalState, cond_conj_elbo
from meanfield.gmm import (
    DiagGmmConfig,
    DiagGmmState,
    UniGmmState,
    conjugate_spec,
    diag_gmm_elbo,
    gmm_elbo,
)
from meanfield.lda import LdaConfig, LdaState, lda_elbo

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


@pytest.mark.parametrize("k", [1, 3])
def test_lda_elbo_matches_oracle(k):
    rng = np.random.default_rng(k)
    v = 12
    docs = []
    for length in (5, 0, 8, 3):  # the second document is empty
        terms = np.sort(rng.choice(v, size=length, replace=False))
        docs.append((terms, rng.integers(1, 6, size=length).astype(float)))
    corpus = _oracles.corpus_of(docs, v)
    phi = _rows(rng, corpus.ids.size, k)
    if k > 1:
        assert np.any(phi == 0.0)
    state = LdaState(
        lam=rng.uniform(0.2, 5.0, size=(k, v)),
        gamma=rng.uniform(0.2, 5.0, size=(len(docs), k)),
        phi=phi,
    )
    config = LdaConfig(k, eta=0.3, alpha=rng.uniform(0.1, 1.0, size=k))
    _close(lda_elbo(state, corpus, config), _oracles.lda_elbo(state, corpus, config))


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

