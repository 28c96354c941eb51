"""Independent reference computations for the test suite.

Everything here is deliberately implemented by routes the package itself
never takes -- exhaustive enumeration over assignment configurations,
direct covariance-matrix marginal likelihoods through scipy, textbook
conjugate posterior formulas, the digamma asymptotic series, scipy's
triangular and Cholesky solves for the regression model, its exact noise
rate by long-double elimination, the one-document-at-a-time log-space LDA
local step, the assignment rows of an LDA E-step's last pass rebuilt in
log space, the LDA topic update one CSR entry at a time, a bag-of-words
file's CSR arrays assembled through one dict per document, the
one-observation-at-a-time global-local (conditionally conjugate) mixture
steps, the mixture's dedicated component update and per-coordinate
responsibilities, the diagonal mixture's Normal-Gamma posterior in long
double from a two-pass scatter, model ELBOs with their prior, KL and
entropy terms written out by hand, and model ELBOs summed point by point
in long double -- so agreement with the package is evidence of correctness
rather than of shared code.  The exceptions are ``corpus_of``, a
constructor, the LDA single-document updates, which the tests compose by
hand on ``LdaFactors``, the LDA factors with the per-entry ``phi`` rows
the package no longer keeps, ``lda_heldout_per_state``, the package's own
LDA held-out scoring as it was before it scored recorded states in
batches, one ``e_step`` per state, ``coordinate_optimality_gap``, a
fixed-point check that scores single-factor perturbations of a fitted
state with the model's own ELBO, ``diag_gmm_sweep``, the diagonal
mixture's sweep in the form the package used before its single
Normal-Gamma refresh, and the ``*_elbo_rows`` forms: the package's own
ELBOs as they were before they read a sweep's sufficient statistics,
through an ``(n, k)`` expected log likelihood or a per-row trace term,
with its KL and entropy helpers.
"""

import dataclasses
import itertools
import math

import numpy as np
import scipy.linalg
import scipy.stats
from scipy.special import digamma, gammaln, logsumexp

from meanfield.blr_ard import BlrArdState, blr_expectations
from meanfield.expfam import (
    _dirichlet_expected_log_rows,
    categorical_entropy,
    categorical_rows,
    dirichlet_kl,
    gamma_kl,
    gamma_moments,
    gaussian_kl,
    normal_gamma_kl,
)
from meanfield.expfam import digamma as np_digamma
from meanfield.gmm import (
    DiagGmmState,
    MixtureData,
    UniGmmState,
    _diag_weights,
    _local_stats,
)
from meanfield.lda import Corpus, _phi_rows, e_step


def k1_gaussian_posterior(data, sigma2):
    """Exact posterior of a unit-variance Gaussian mean with prior N(0, sigma2).

    Returns (mean (d,), var scalar) for data of shape (n, d) or (n,).
    """
    x = np.atleast_2d(np.asarray(data, dtype=float).reshape(len(data), -1))
    n = x.shape[0]
    precision = 1.0 / sigma2 + n
    return x.sum(axis=0) / precision, 1.0 / precision


def _component_log_marginal(xs, sigma2):
    """log integral of prod_i N(x_i; mu, 1) against N(mu; 0, sigma2) dmu.

    Computed as a single multivariate normal density with covariance
    I + sigma2 * ones, one dimension per assigned point.
    """
    xs = np.asarray(xs, dtype=float)
    m = len(xs)
    if m == 0:
        return 0.0
    cov = np.eye(m) + sigma2 * np.ones((m, m))
    return float(
        scipy.stats.multivariate_normal(mean=np.zeros(m), cov=cov).logpdf(xs)
    )


def gmm_log_evidence(data, k, sigma2):
    """log p(x) of the univariate unit-variance mixture by enumeration.

    Sums over all k**n assignment configurations; each configuration's
    likelihood factorizes over components into closed-form Gaussian
    integrals.
    """
    x = np.asarray(data, dtype=float).reshape(-1)
    n = len(x)
    terms = []
    for config in itertools.product(range(k), repeat=n):
        config = np.array(config)
        log_term = -n * math.log(k)
        for j in range(k):
            log_term += _component_log_marginal(x[config == j], sigma2)
        terms.append(log_term)
    terms = np.array(terms)
    m = terms.max()
    return float(m + np.log(np.exp(terms - m).sum()))


def gmm_kl_to_posterior(m, s2, phi, data, sigma2):
    """KL(q || p(. | x)) for the univariate mixture, by enumeration.

    For each assignment configuration c the conditional posterior over the
    means is a product of Gaussians, so the KL reduces to the assignment
    KL plus configuration-averaged Gaussian KLs.
    """
    x = np.asarray(data, dtype=float).reshape(-1)
    m = np.asarray(m, dtype=float).reshape(-1)
    s2 = np.asarray(s2, dtype=float).reshape(-1)
    phi = np.asarray(phi, dtype=float)
    n, k = phi.shape
    log_evidence = gmm_log_evidence(x, k, sigma2)

    total = 0.0
    for config in itertools.product(range(k), repeat=n):
        config = np.array(config)
        q_c = float(np.prod(phi[np.arange(n), config]))
        if q_c == 0.0:
            continue
        # exact posterior p(c | x) for this configuration
        log_joint = -n * math.log(k)
        kl_means = 0.0
        for j in range(k):
            xs = x[config == j]
            log_joint += _component_log_marginal(xs, sigma2)
            post_prec = 1.0 / sigma2 + len(xs)
            post_m = xs.sum() / post_prec
            post_v = 1.0 / post_prec
            # KL(N(m_j, s2_j) || N(post_m, post_v))
            kl_means += 0.5 * (
                s2[j] / post_v
                + (post_m - m[j]) ** 2 / post_v
                - 1.0
                - math.log(s2[j] / post_v)
            )
        log_p_c = log_joint - log_evidence
        total += q_c * (math.log(q_c) - log_p_c + kl_means)
    return total


def normal_gamma_posterior(xs, m0, b0, alpha0, beta0):
    """Exact Normal-Gamma posterior for i.i.d. Gaussian data (one column)."""
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    xbar = xs.mean() if n else m0
    ssq = ((xs - xbar) ** 2).sum() if n else 0.0
    b = b0 + n
    m = (b0 * m0 + n * xbar) / b
    alpha = alpha0 + 0.5 * n
    beta = beta0 + 0.5 * ssq + 0.5 * b0 * n * (xbar - m0) ** 2 / b
    return m, b, alpha, beta


def normal_gamma_log_marginal(xs, m0, b0, alpha0, beta0):
    """log p(x) under the Normal-Gamma conjugate model (one column)."""
    xs = np.asarray(xs, dtype=float)
    n = len(xs)
    _, b, alpha, beta = normal_gamma_posterior(xs, m0, b0, alpha0, beta0)
    return float(
        -0.5 * n * math.log(2.0 * math.pi)
        + 0.5 * (math.log(b0) - math.log(b))
        + gammaln(alpha)
        - gammaln(alpha0)
        + alpha0 * math.log(beta0)
        - alpha * math.log(beta)
    )


def bayes_linreg_posterior(x, y, a0, b0):
    """Exact Normal-Gamma posterior for linear regression with prior
    precision tau * I on the coefficients.

    Returns (coef_mean, coef_cov_scale, shape, rate) where the coefficient
    conditional is Normal(coef_mean, coef_cov_scale / tau).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = x.shape
    v_inv = np.eye(d) + x.T @ x
    v = np.linalg.inv(v_inv)
    mean = v @ (x.T @ y)
    shape = a0 + 0.5 * n
    rate = b0 + 0.5 * (y @ y - mean @ v_inv @ mean)
    return mean, v, shape, rate


def ridge_noise_rate_longdouble(x, y, b0):
    """The noise rate ``b0 + (|y - X beta|^2 + |beta|^2) / 2`` of regression
    with prior precision ``tau * I`` on the coefficients, in long double:
    ``beta`` solves ``(I + X^T X) beta = X^T y`` by Gaussian elimination.
    :func:`bayes_linreg_posterior` forms the same rate as ``y . y`` less a
    number near it, which cancels when ``y`` is nearly linear in ``x``."""
    x = np.asarray(x, dtype=np.longdouble)
    y = np.asarray(y, dtype=np.longdouble)
    d = x.shape[1]
    a = np.hstack([np.eye(d, dtype=np.longdouble) + x.T @ x, (x.T @ y)[:, None]])
    for i in range(d):  # symmetric positive definite: no pivoting needed
        a[i] /= a[i, i]
        for j in range(d):
            if j != i:
                a[j] -= a[j, i] * a[i]
    beta = a[:, d]
    resid = y - x @ beta
    return b0 + (resid @ resid + beta @ beta) / 2


def bayes_linreg_log_marginal(x, y, a0, b0):
    """log p(y | X) for linear regression with Normal-Gamma prior
    (coef precision tau * I, tau ~ Gamma(a0, b0))."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n, d = x.shape
    _, v, shape, rate = bayes_linreg_posterior(x, y, a0, b0)
    sign, logdet_v = np.linalg.slogdet(v)
    assert sign > 0
    return float(
        -0.5 * n * math.log(2.0 * math.pi)
        + 0.5 * logdet_v
        + gammaln(shape)
        - gammaln(a0)
        + a0 * math.log(b0)
        - shape * math.log(rate)
    )


def align_accuracy(true_labels, phi):
    """Best assignment accuracy over all label permutations (Hungarian)."""
    from scipy.optimize import linear_sum_assignment

    pred = np.asarray(phi).argmax(axis=1)
    k = phi.shape[1]
    confusion = np.zeros((k, k))
    for t, p in zip(true_labels, pred):
        confusion[t, p] += 1
    rows, cols = linear_sum_assignment(-confusion)
    return confusion[rows, cols].sum() / len(true_labels)


# Asymptotic expansion psi(x) ~ log x - 1/(2x) - sum_j B_2j / (2j x^2j),
# coefficients of x^{-2j} for j = 1..6.
_PSI_ASYMPTOTIC = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)

_PSI_SHIFT = 6.0


def digamma_series(x):
    """Digamma psi(x) for x > 0 by recurrence and asymptotic series.

    Uses ``psi(x) = psi(x + 1) - 1/x`` to shift the argument up to at
    least 6, then evaluates the asymptotic series in ``1/x**2`` through
    the ``x**-12`` term.  Absolute error is below 1e-10 across [1e-6, 1e6].
    """
    y = np.array(x, dtype=float, copy=True)
    acc = np.zeros_like(y)
    comp = np.zeros_like(y)  # Kahan compensation: x near 0 accumulates ~1/x
    mask = y < _PSI_SHIFT
    while mask.any():
        term = -1.0 / y[mask] - comp[mask]
        total = acc[mask] + term
        comp[mask] = (total - acc[mask]) - term
        acc[mask] = total
        y[mask] += 1.0
        mask = y < _PSI_SHIFT
    w = 1.0 / (y * y)
    series = np.zeros_like(y)
    for c in reversed(_PSI_ASYMPTOTIC):
        series = (series + c) * w
    return acc + (np.log(y) - 0.5 / y - series - comp)


def doc_phi(gamma_d, elog_beta_doc):
    """LDA assignment rows for one document, (T, K), in log space.

    ``elog_beta_doc`` is the (K, T) slice of E[log beta] at the document's
    terms.  The normalizer over topics also absorbs the psi(sum gamma)
    term, so it is left out of the logits.
    """
    logits = digamma_series(gamma_d)[:, None] + elog_beta_doc
    if logits.shape[1] == 0:
        return np.zeros((0, gamma_d.shape[0]))
    log_norm = logsumexp(logits, axis=0)
    return np.exp(logits - log_norm[None, :]).T


def doc_inner(gamma_d, elog_beta_doc, counts, alpha, tol, max_iters):
    """Alternate phi and gamma for one document until gamma settles.

    Returns ``(gamma_d, phi, iterations)`` with ``gamma_d = alpha + phi^T
    counts``; ``iterations`` counts the gamma updates (0 for an empty
    document).
    """
    if counts.size == 0:
        return alpha.copy(), np.zeros((0, alpha.shape[0])), 0
    phi = doc_phi(gamma_d, elog_beta_doc)
    gamma_d = alpha + phi.T @ counts
    iterations = 1
    for _ in range(max_iters - 1):
        phi = doc_phi(gamma_d, elog_beta_doc)
        new_gamma = alpha + phi.T @ counts
        iterations += 1
        delta = float(np.abs(new_gamma - gamma_d).mean())
        gamma_d = new_gamma
        if delta < tol:
            break
    return gamma_d, phi, iterations


def lda_local_steps(corpus, elog_beta, gamma, alpha, tol, max_iters):
    """The per-document loop over a whole corpus, walking its ``indptr``.

    Returns ``(gamma (D, K), phi tuple, iterations (D,))``.
    """
    bounds = zip(corpus.indptr[:-1], corpus.indptr[1:])
    out = [
        doc_inner(np.asarray(gamma[d], dtype=float), elog_beta[:, corpus.ids[a:b]],
                  corpus.cts[a:b], alpha, tol, max_iters)
        for d, (a, b) in enumerate(bounds)
    ]
    return (
        np.array([g for g, _, _ in out]).reshape(len(out), -1),
        tuple(p for _, p, _ in out),
        np.array([i for _, _, i in out]),
    )


def lda_pass_phi(corpus, log_theta, elog_beta):
    """The (entries, K) assignment rows of an E-step's last pass, in log
    space, from each document's ``E[log theta]`` row of that pass (under
    any per-document shift) and the ``E[log beta]`` it ran at."""
    logits = (
        np.repeat(log_theta, np.diff(corpus.indptr), axis=0) + elog_beta[:, corpus.ids].T
    )
    return np.exp(logits - logsumexp(logits, axis=1, keepdims=True))


def lda_heldout_per_state(config, lams, heldout):
    """Per-word held-out log predictive at each topic matrix of ``lams``, one
    cold fold-in of ``heldout`` per matrix: how an LDA fit scored every
    recorded state before it scored them in batches."""
    values = []
    for lam in lams:
        elog_beta = _dirichlet_expected_log_rows(lam)
        start = config.alpha[None, :] + (heldout.doc_lengths() / config.k)[:, None]
        gamma, _, _ = e_step(heldout, elog_beta, start, config.alpha)
        theta = gamma / gamma.sum(axis=1, keepdims=True)
        beta_mean = lam / lam.sum(axis=1, keepdims=True)
        token_probs = np.einsum(
            "tk->t",
            np.repeat(theta, np.diff(heldout.indptr), axis=0) * beta_mean[:, heldout.ids].T,
        )
        values.append(float(heldout.cts @ np.log(token_probs)) / heldout.total_tokens)
    return values


# ---------------------------------------------------------------------------
# LDA corpora and single-document steps, one document at a time
# ---------------------------------------------------------------------------


def corpus_of(docs, v):
    """A :class:`Corpus` from one ``(terms, counts)`` pair per document,
    laid end to end; the corpus checks the arrays."""
    lens = [np.size(terms) for terms, _ in docs]
    ids = np.concatenate([[], *(terms for terms, _ in docs)])
    cts = np.concatenate([[], *(counts for _, counts in docs)])
    return Corpus(np.cumsum([0, *lens]), ids, cts, v)


def uci_csr(num_docs, triples):
    """CSR arrays ``(indptr, ids, cts)`` of 1-based ``(doc, term, count)``
    triples, assembled as the first file reader did: one dict per declared
    document, duplicates summed, each document's terms sorted."""
    cells = [dict() for _ in range(num_docs)]
    for doc, term, count in triples:
        cell = cells[doc - 1]
        cell[term - 1] = cell.get(term - 1, 0) + count
    terms = [sorted(cell) for cell in cells]
    counts = [cell[t] for cell, ts in zip(cells, terms) for t in ts]
    return (
        np.cumsum([0, *map(len, terms)]),
        np.array([t for ts in terms for t in ts], dtype=int),
        np.array(counts, dtype=float),
    )


def _shifted(logits):
    """Logits shifted so that every row peaks at 0."""
    return logits - logits.max(axis=1, keepdims=True)


@dataclasses.dataclass(frozen=True)
class LdaFactors:
    """Topics ``lam`` (K, V), proportions ``gamma`` (D, K) and one
    assignment row ``phi`` (entries, K) per CSR entry, in corpus order:
    every LDA factor, for the references below."""

    lam: np.ndarray
    gamma: np.ndarray
    phi: np.ndarray


# The two single-document updates below are the package's own, kept for
# tests that compose them by hand: ``lda_update_phi`` forms its rows with
# the package's exp-space kernel and its log-space fallback, at the ``lam``
# and ``gamma`` of an ``LdaFactors`` or a package state.


def lda_update_phi(state, d, corpus):
    """Assignment rows for document ``d`` at the current gamma and lam.

    Row ``t`` for term ``w`` is proportional to
    ``exp(psi(gamma_dk) + psi(lam_kw) - psi(sum_v lam_kv))`` over topics.
    """
    terms = corpus.ids[corpus.indptr[d] : corpus.indptr[d + 1]]
    elog_beta = _dirichlet_expected_log_rows(state.lam)
    log_theta = _shifted(np_digamma(state.gamma[d : d + 1]))
    beta = np.exp(_shifted(elog_beta[:, terms].T))
    return _phi_rows(np.repeat(log_theta, terms.size, axis=0), beta, elog_beta, terms)[0]


def lda_update_gamma(state, d, corpus, config):
    """Proportion parameters for document ``d`` from its current phi:
    ``gamma_d = alpha + sum over distinct terms of count * phi row``."""
    a, b = corpus.indptr[d], corpus.indptr[d + 1]
    return config.alpha + state.phi[a:b].T @ corpus.cts[a:b]


def lda_update_lambda(state, corpus, config):
    """Topic parameters from all assignment rows of an ``LdaFactors``, one
    CSR entry at a time: ``lam_kv = eta + sum_d count_dv phi_dv^k``."""
    assert state.phi.shape[0] == corpus.ids.size
    lam = np.full(state.lam.shape, float(config.eta))
    for term, count, row in zip(corpus.ids, corpus.cts, state.phi):
        lam[:, term] += count * row
    return lam


# ---------------------------------------------------------------------------
# global-local mixture, one observation at a time
# ---------------------------------------------------------------------------


def _obs_rows(data):
    x = np.asarray(data, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def gmm_suff_stat(j, x, k, dim):
    """``t(z = j, x)`` of the unit-variance mixture's conjugate form: ``x``
    in mean block ``j``, 1 in quadratic coordinate ``j``."""
    out = np.zeros(k * dim + k)
    out[j * dim : (j + 1) * dim] = np.atleast_1d(x)
    out[k * dim + j] = 1.0
    return out


def gmm_expected_stat(probs, x, k, dim):
    """``E_probs[t(z, x)]`` by enumeration over the ``k`` local values."""
    total = np.zeros(k * dim + k)
    for j in range(k):
        total += probs[j] * gmm_suff_stat(j, x, k, dim)
    return total


def gmm_local_factor(stats, x, k, dim):
    """One observation's categorical factor: per-value logits
    ``E[mu_j] . x - E[|mu_j|^2] / 2``, normalized with scipy's logsumexp."""
    m = stats.stats[: k * dim].reshape(k, dim)
    logw = np.array(
        [np.dot(m[j], np.atleast_1d(x)) + stats.stats[k * dim + j] for j in range(k)]
    )
    probs = np.exp(logw - logsumexp(logw))
    return probs / probs.sum()


def gmm_update_components(state, data, sigma2):
    """Optimal mean factors given responsibilities, the dedicated CAVI update
    the conjugate spec's global step replaced.

    Each component sees a responsibility-weighted pseudo-sample:
    ``m_k = sum_i phi_ik x_i / (1/sigma2 + sum_i phi_ik)`` with variance
    ``1 / (1/sigma2 + sum_i phi_ik)``, shared across coordinates.
    """
    x = _obs_rows(data)
    precision = 1.0 / sigma2 + state.phi.sum(axis=0)
    m = (state.phi.T @ x) / precision[:, None]
    s2 = np.broadcast_to((1.0 / precision)[:, None], m.shape).copy()
    return m, s2


def gmm_conjugate_elbo_offset(data, k):
    """Constant separating the two ELBO conventions on the same state.

    ``gmm_elbo == cond_conj_elbo + gmm_conjugate_elbo_offset(data, k)``: the
    global-local ELBO omits the per-observation base measure
    ``-|x_i|^2/2 - (d/2) log 2 pi - log K``, which depends on neither set
    of variational parameters.
    """
    x = _obs_rows(data)
    n, d = x.shape
    return float(
        -0.5 * (x**2).sum() - 0.5 * n * d * math.log(2.0 * math.pi) - n * math.log(k)
    )


def gmm_state_from_param(lam, phi):
    """Unit-variance mixture ``(m, s2)`` of a natural global parameter:
    the mean block divided by the precisions, and their inverses."""
    k = phi.shape[1]
    b = np.asarray(lam.stat[-k:])
    m = np.asarray(lam.stat[:-k]).reshape(k, -1) / b[:, None]
    return m, np.broadcast_to((1.0 / b)[:, None], m.shape).copy()


def gmm_responsibilities(m, s2, data):
    """Responsibilities as a softmax (scipy's logsumexp) of the
    per-coordinate logits ``-(sum_c (x_c - m_kc)^2 + sum_c s2_kc) / 2``."""
    x = _obs_rows(data)
    logits = -0.5 * (
        ((x[:, None, :] - m[None, :, :]) ** 2).sum(axis=2) + s2.sum(axis=1)[None, :]
    )
    return np.exp(logits - logsumexp(logits, axis=1, keepdims=True))


def diag_gmm_sweep(state, data, config):
    """One sweep of the diagonal mixture in the form the package used before
    it wrote every component's Normal-Gamma refresh as one expression: the
    sample mean guarded against a zero count, an explicit prior fallback for
    an empty component, and the scatter about the sample mean plus the
    shrinkage term ``b0 n (xbar - m0)^2 / b``."""
    data = MixtureData.of(data, per_coordinate=True)
    r, log_r = categorical_rows(data.aug @ _diag_weights(state, data.centre).T)
    stats = _local_stats(r, data, log_r)

    d = data.shape[1]
    nk = stats.sums[:, d]
    conc = config.a0 + nk

    tiny = np.finfo(float).tiny
    mean = stats.sums[:, :d] / np.maximum(nk, tiny)[:, None]  # centred
    xbar = np.where(nk[:, None] > tiny, mean + data.centre, config.m0)
    scatter = np.maximum(stats.sums[:, d + 1 :] - nk[:, None] * mean**2, 0.0)

    b = config.b0 + nk[:, None]
    m = (config.b0 * config.m0 + nk[:, None] * xbar) / b
    alpha = config.alpha0 + 0.5 * nk[:, None]
    beta = (
        config.beta0
        + 0.5 * scatter
        + 0.5 * config.b0 * nk[:, None] * (xbar - config.m0) ** 2 / b
    )
    b = np.broadcast_to(b, m.shape).copy()
    alpha = np.broadcast_to(alpha, m.shape).copy()
    return DiagGmmState(conc, m, b, alpha, beta, r, stats)


def normal_gamma_longdouble(r, data, config):
    """``(m, b, alpha, beta)`` of every diagonal-mixture component given
    responsibilities ``r``, in long double from the raw rows: a two-pass
    scatter about each component's weighted mean, plus the shrinkage term
    ``b0 n (xbar - m0)^2 / b``.  An empty component gets the prior."""
    x = np.asarray(data, dtype=np.longdouble)
    r = np.asarray(r, dtype=np.longdouble)
    m0, b0 = np.longdouble(config.m0), np.longdouble(config.b0)
    nk = r.sum(axis=0)[:, None]
    b = b0 + nk
    safe = np.where(nk > 0, nk, 1)
    xbar = np.where(nk > 0, (r.T @ x) / safe, m0)
    scatter = np.stack([(r[:, j, None] * (x - xbar[j]) ** 2).sum(axis=0)
                        for j in range(r.shape[1])])
    beta = config.beta0 + scatter / 2 + b0 * nk * (xbar - m0) ** 2 / (2 * b)
    shape = xbar.shape
    return ((b0 * m0 + nk * xbar) / b, np.broadcast_to(b, shape),
            np.broadcast_to(config.alpha0 + nk / 2, shape), beta)


def condconj_local_loop(spec, lam, data, k, dim):
    """(n, k) local factors of the mixture spec, observation by observation."""
    stats = spec.expected_global_stats(lam)
    rows = [gmm_local_factor(stats, x, k, dim) for x in _obs_rows(data)]
    return np.array(rows).reshape(len(rows), k)


def condconj_global_loop(spec, probs, data, k, dim):
    """Global coordinate update ``(stat, count)``, accumulated row by row."""
    x = _obs_rows(data)
    total = np.zeros(k * dim + k)
    for p, row in zip(probs, x):
        total += gmm_expected_stat(p, row, k, dim)
    return spec.prior_stat + total, spec.prior_count + x.shape[0]


def condconj_elbo_loop(spec, lam, probs, data, k, dim):
    """Global-local ELBO with the local sums taken one observation at a time."""
    x = _obs_rows(data)
    stats = spec.expected_global_stats(lam)
    total = np.array(spec.prior_stat, dtype=float)
    local_entropy = 0.0
    for p, row in zip(probs, x):
        total += gmm_expected_stat(p, row, k, dim)
        local_entropy += nz_entropy(p)
    return (
        float(np.dot(total, stats.stats))
        - (spec.prior_count + x.shape[0]) * stats.log_norm
        - spec.prior_log_norm
        + stats.entropy
        + local_entropy
    )


def condconj_svi_loop(spec, data, schedule, seed, max_iters, batch_size, init, k, dim):
    """Replay of the stochastic fit with one local step per minibatch member.

    Draws minibatches from the same stream (``choice`` without
    replacement, then sorted) and records the ELBO after every step.
    Returns ``(elbos, stat, count)`` with the final global parameter.
    """
    x = _obs_rows(data)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    lam = init
    elbos = []
    for t in range(1, max_iters + 1):
        batch = np.sort(rng.choice(n, size=batch_size, replace=False))
        stats = spec.expected_global_stats(lam)
        total = np.zeros(k * dim + k)
        for i in batch:
            p = gmm_local_factor(stats, x[i], k, dim)
            total += gmm_expected_stat(p, x[i], k, dim)
        target = np.append(
            spec.prior_stat + (n / batch_size) * total, spec.prior_count + n
        )
        eps = (t + schedule.delay) ** (-schedule.kappa)
        mixed = (1.0 - eps) * lam.natural() + eps * target
        lam = type(lam)(mixed[:-1], mixed[-1])
        probs = condconj_local_loop(spec, lam, x, k, dim)
        elbos.append(condconj_elbo_loop(spec, lam, probs, x, k, dim))
    return elbos, np.array(lam.stat), lam.count


# ---------------------------------------------------------------------------
# model ELBOs with every prior, KL and entropy term written out by hand
# ---------------------------------------------------------------------------

_LOG_2PI = math.log(2.0 * math.pi)


def nz_entropy(probs):
    """Total entropy of categorical rows, summed over the nonzero entries."""
    nz = probs[probs > 0.0]
    return -float(np.dot(nz, np.log(nz)))


def gmm_elbo(state, data, sigma2):
    """Unit-variance mixture ELBO with the Gaussian prior and the mean
    factors' entropy as separate terms."""
    x = _obs_rows(data)
    k, d = state.m.shape
    n = x.shape[0]
    sq = (state.m**2 + state.s2).sum(axis=1)
    prior = -0.5 * k * d * math.log(2.0 * math.pi * sigma2) - sq.sum() / (2.0 * sigma2)
    lik_ik = (
        x @ state.m.T
        - 0.5 * sq[None, :]
        - 0.5 * (x**2).sum(axis=1)[:, None]
        - 0.5 * d * _LOG_2PI
    )
    mean_entropy = 0.5 * float(np.log(2.0 * math.pi * math.e * state.s2).sum())
    return (
        prior
        - n * math.log(k)
        + float((state.phi * lik_ik).sum())
        + nz_entropy(state.phi)
        + mean_entropy
    )


def gmm_elbo_direct(state, data, sigma2):
    """``gmm_elbo`` with the expected log likelihood summed coordinate by
    coordinate, ``-((x_id - m_kd)^2 + s2_kd) / 2``: no large terms cancel
    when the data sit far from the origin."""
    x = _obs_rows(data)
    k, d = state.m.shape
    sq_dev = ((x[:, None, :] - state.m[None, :, :]) ** 2 + state.s2[None, :, :]).sum(axis=2)
    lik_ik = -0.5 * sq_dev - 0.5 * d * _LOG_2PI
    sq = (state.m**2 + state.s2).sum()
    prior = -0.5 * k * d * math.log(2.0 * math.pi * sigma2) - sq / (2.0 * sigma2)
    mean_entropy = 0.5 * float(np.log(2.0 * math.pi * math.e * state.s2).sum())
    return (
        prior
        - x.shape[0] * math.log(k)
        + float((state.phi * lik_ik).sum())
        + nz_entropy(state.phi)
        + mean_entropy
    )


def diag_normal_gamma_kl(state, config):
    """Per-(k, d) KL of the Normal-Gamma factors to the shared prior."""
    e_tau = state.alpha / state.beta
    normal_part = 0.5 * (
        np.log(state.b / config.b0)
        - 1.0
        + config.b0 * (e_tau * (state.m - config.m0) ** 2 + 1.0 / state.b)
    )
    gamma_part = (
        (state.alpha - config.alpha0) * digamma(state.alpha)
        - gammaln(state.alpha)
        + gammaln(config.alpha0)
        + config.alpha0 * (np.log(state.beta) - math.log(config.beta0))
        + state.alpha * (config.beta0 - state.beta) / state.beta
    )
    return normal_part + gamma_part


def dirichlet_kl_rows(conc, elog, prior):
    """KL(Dir(conc_i) || Dir(prior)) per row; ``elog`` is E[log pi] under q."""
    return (
        gammaln(conc.sum(axis=1))
        - gammaln(conc).sum(axis=1)
        - gammaln(prior.sum())
        + gammaln(prior).sum()
        + ((conc - prior) * elog).sum(axis=1)
    )


def diag_gmm_elbo(state, data, config):
    """Dirichlet / Normal-Gamma mixture ELBO with the KL terms inline."""
    x = _obs_rows(data)
    k, d = state.m.shape
    e_log_pi = digamma(state.conc) - digamma(state.conc.sum())
    e_tau = state.alpha / state.beta
    e_log_tau = digamma(state.alpha) - np.log(state.beta)
    quad = (
        (x**2) @ e_tau.T
        - 2.0 * x @ (e_tau * state.m).T
        + (e_tau * state.m**2 + 1.0 / state.b).sum(axis=1)[None, :]
    )
    lik = 0.5 * (e_log_tau.sum(axis=1)[None, :] - d * _LOG_2PI - quad)
    weight_kl = dirichlet_kl_rows(
        state.conc[None, :], e_log_pi[None, :], np.full(k, config.a0)
    )[0]
    return (
        float((state.r * lik).sum())
        + float(state.r.sum(axis=0) @ e_log_pi)
        + nz_entropy(state.r)
        - weight_kl
        - float(diag_normal_gamma_kl(state, config).sum())
    )


def blr_gamma_terms(shape, rate, shape0, rate0):
    """``E_q[log p] - E_q[log q]`` of Gamma(shape, rate) factors against a
    Gamma(shape0, rate0) prior, each log density written out."""
    e_x = shape / rate
    e_log_x = digamma(shape) - np.log(rate)
    e_logp = (
        shape0 * math.log(rate0)
        - gammaln(shape0)
        + (shape0 - 1.0) * e_log_x
        - rate0 * e_x
    )
    e_logq = shape * np.log(rate) - gammaln(shape) + (shape - 1.0) * e_log_x - rate * e_x
    return e_logp - e_logq


def blr_elbo(state, data, config):
    """ARD regression ELBO through a dense ``V*``, with the noise and
    relevance Gamma terms written out."""
    xy = np.asarray(data, dtype=float)
    x, y = xy[:, :-1], xy[:, -1]
    n, dim = x.shape
    v = np.linalg.inv(state.v_inv)
    _, log_det_v_inv = np.linalg.slogdet(state.v_inv)
    e_tau = state.a / state.b
    e_log_tau = digamma(state.a) - math.log(state.b)
    if config.fix_relevance:
        e_alpha, e_log_alpha = np.ones(dim), np.zeros(dim)
    else:
        e_alpha = state.c / state.d
        e_log_alpha = digamma(state.c) - np.log(state.d)
    e_tau_beta_sq = state.beta**2 * e_tau + np.diag(v)
    resid = y - x @ state.beta
    e_loglik = (
        -0.5 * n * _LOG_2PI
        + 0.5 * n * e_log_tau
        - 0.5 * (e_tau * float(resid @ resid) + float(np.einsum("ij,jk,ik->", x, v, x)))
    )
    e_logp_coeff = (
        0.5 * float(e_log_alpha.sum())
        + 0.5 * dim * e_log_tau
        - 0.5 * dim * _LOG_2PI
        - 0.5 * float(e_alpha @ e_tau_beta_sq)
    )
    e_logq_coeff = (
        0.5 * log_det_v_inv + 0.5 * dim * e_log_tau - 0.5 * dim * _LOG_2PI - 0.5 * dim
    )
    value = (
        e_loglik
        + e_logp_coeff
        - e_logq_coeff
        + blr_gamma_terms(state.a, state.b, config.a0, config.b0)
    )
    if not config.fix_relevance:
        value += float(blr_gamma_terms(state.c, state.d, config.c0, config.d0).sum())
    return float(value)


def blr_cholesky_solves(v_inv, xty, x):
    """The regression model's four solves through scipy, from the lower
    Cholesky factor ``L`` of ``V*^-1``: ``diag(V*)`` by triangular solve
    against the identity, ``V* X^T y`` by ``cho_solve``, and the per-row
    ``x_i^T V* x_i`` (the ELBO's trace term and the predictive variance)
    as ``|L^-1 x_i|^2`` by triangular solve."""
    lower = np.linalg.cholesky(v_inv)
    w = scipy.linalg.solve_triangular(lower, np.eye(lower.shape[0]), lower=True)
    beta = scipy.linalg.cho_solve((lower, True), xty)
    u = scipy.linalg.solve_triangular(lower, x.T, lower=True)
    return (w * w).sum(axis=0), beta, (u * u).sum(axis=0)


def lda_elbo(state, corpus, config):
    """LDA ELBO of an ``LdaFactors`` over the CSR entries with row-wise
    Dirichlet KLs inline."""
    elog_beta = digamma(state.lam) - digamma(state.lam.sum(axis=1))[:, None]
    elog_theta = digamma(state.gamma) - digamma(state.gamma.sum(axis=1))[:, None]
    phi = state.phi
    scores = (
        np.repeat(elog_theta, np.diff(corpus.indptr), axis=0)
        + elog_beta[:, corpus.ids].T
    )
    safe = np.where(phi > 0.0, phi, 1.0)
    total = float((corpus.cts[:, None] * phi * (scores - np.log(safe))).sum())
    total -= float(dirichlet_kl_rows(state.gamma, elog_theta, config.alpha).sum())
    eta_row = np.full(corpus.v, config.eta)
    total -= float(dirichlet_kl_rows(state.lam, elog_beta, eta_row).sum())
    return total


# ---------------------------------------------------------------------------
# predictive densities, one held-out point at a time
# ---------------------------------------------------------------------------


def gmm_predictive_point(state, x_new):
    """``log (1/K) sum_k Normal(x; m_k, I)`` at one point, each component
    density summed coordinate by coordinate."""
    x = np.atleast_1d(np.asarray(x_new, dtype=float))
    comp = (-0.5 * (_LOG_2PI + (x[None, :] - state.m) ** 2)).sum(axis=1)
    return float(logsumexp(comp) - math.log(state.m.shape[0]))


def diag_gmm_predictive_point(state, x_new):
    """Mixture of per-coordinate Student-t's at one point."""
    x = np.atleast_1d(np.asarray(x_new, dtype=float))
    nu = 2.0 * state.alpha
    lam = state.alpha * state.b / (state.beta * (1.0 + state.b))
    z = lam * (x[None, :] - state.m) ** 2 / nu
    log_t = (
        gammaln(0.5 * (nu + 1.0))
        - gammaln(0.5 * nu)
        + 0.5 * (np.log(lam) - np.log(math.pi * nu))
        - 0.5 * (nu + 1.0) * np.log1p(z)
    )
    logw = np.log(state.conc / state.conc.sum())
    return float(logsumexp(logw + log_t.sum(axis=1)))


def blr_predictive_point(state, row):
    """Moment-matched Gaussian predictive of one (x, y) row, through a
    dense ``V*``."""
    row = np.asarray(row, dtype=float)
    x, y = row[:-1], row[-1]
    var = (state.b / state.a) * (1.0 + x @ np.linalg.solve(state.v_inv, x))
    return float(-0.5 * (_LOG_2PI + math.log(var) + (y - x @ state.beta) ** 2 / var))


def heldout_mean_loop(point_fn, state, heldout):
    """Mean of ``point_fn(state, row)`` over the rows of ``heldout``, one
    call per row, summed left to right."""
    rows = np.asarray(heldout, dtype=float)
    total = 0.0
    for row in rows:
        total += point_fn(state, row)
    return total / rows.shape[0]


# ---------------------------------------------------------------------------
# model ELBOs through the (n, k) expected log likelihood, and in long double
# ---------------------------------------------------------------------------


def gmm_elbo_rows(state, data, sigma2):
    """Unit-variance mixture ELBO through the ``(n, k)`` expected log
    likelihood, formed on data and means centred on the mean location."""
    x = _obs_rows(data)
    k, d = state.m.shape
    c = state.m.mean(axis=0)
    xc, mc = x - c, state.m - c
    lik = (
        xc @ mc.T
        - 0.5 * ((mc**2).sum(axis=1) + state.s2.sum(axis=1))[None, :]
        - 0.5 * (xc**2).sum(axis=1)[:, None]
        - 0.5 * d * _LOG_2PI
    )
    return (
        -x.shape[0] * math.log(k)
        + float((state.phi * lik).sum())
        + float(categorical_entropy(state.phi).sum())
        - float(gaussian_kl(state.m, state.s2, 0.0, sigma2).sum())
    )


def _diag_kl(state, config):
    """Weight and component KL terms of the diagonal mixture, from the
    package's helpers."""
    k = state.m.shape[0]
    component = normal_gamma_kl(
        (state.m, state.b, state.alpha, state.beta),
        (config.m0, config.b0, config.alpha0, config.beta0),
    )
    return dirichlet_kl(state.conc, np.full(k, config.a0)) + float(component.sum())


def diag_gmm_elbo_rows(state, data, config):
    """Diagonal mixture ELBO through the ``(n, k)`` expected log likelihood
    of the uncentred data."""
    x = _obs_rows(data)
    d = state.m.shape[1]
    e_log_pi = np_digamma(state.conc) - np_digamma(state.conc.sum())
    e_tau, e_log_tau = gamma_moments(state.alpha, state.beta)
    quad = (
        (x**2) @ e_tau.T
        - 2.0 * x @ (e_tau * state.m).T
        + (e_tau * state.m**2 + 1.0 / state.b).sum(axis=1)[None, :]
    )
    lik = 0.5 * (e_log_tau.sum(axis=1)[None, :] - d * _LOG_2PI - quad)
    return (
        float((state.r * lik).sum())
        + float(state.r.sum(axis=0) @ e_log_pi)
        + float(categorical_entropy(state.r).sum())
        - _diag_kl(state, config)
    )


def _blr_terms(state, config):
    """The regression ELBO's terms that do not read the data, and the
    moments the data terms need."""
    exp = blr_expectations(state, config)
    dim = state.beta.shape[0]
    coeff = 0.5 * (
        float(exp["e_log_alpha"].sum())
        - float(exp["e_alpha"] @ exp["e_tau_beta_sq"])
        + exp["log_det_v"]
        + dim
    )
    value = coeff - gamma_kl(state.a, state.b, config.a0, config.b0)
    if not config.fix_relevance:
        value -= float(gamma_kl(state.c, state.d, config.c0, config.d0).sum())
    return value, exp


def blr_elbo_rows(state, data, config):
    """Regression ELBO with ``sum_i x_i^T V* x_i`` taken row by row, as
    ``|L^-1 x_i|^2``."""
    xy = np.asarray(data, dtype=float)
    x, y = xy[:, :-1], xy[:, -1]
    n = x.shape[0]
    value, exp = _blr_terms(state, config)
    resid = y - x @ state.beta
    half = exp["chol_inv"] @ x.T
    return value + (
        -0.5 * n * _LOG_2PI
        + 0.5 * n * exp["e_log_tau"]
        - 0.5 * (exp["e_tau"] * float(resid @ resid) + float((half * half).sum()))
    )


_LD = np.longdouble
_LD_LOG_2PI = np.log(2 * np.arccos(_LD(-1)))


def gmm_elbo_longdouble(state, data, sigma2):
    """Unit-variance mixture ELBO in long double, point by point and
    coordinate by coordinate."""
    x, m, s2, phi = (np.asarray(a, dtype=_LD) for a in (_obs_rows(data), state.m, state.s2, state.phi))
    k, d = m.shape
    sq = ((x[:, None, :] - m[None, :, :]) ** 2 + s2[None, :, :]).sum(axis=2)
    nz = phi[phi > 0]
    kl = 0.5 * (s2 / sigma2 + m * m / sigma2 - 1 - np.log(s2 / _LD(sigma2)))
    return (
        -x.shape[0] * np.log(_LD(k))
        + (phi * (-0.5 * sq - 0.5 * d * _LD_LOG_2PI)).sum()
        - (nz * np.log(nz)).sum()
        - kl.sum()
    )


def diag_gmm_elbo_longdouble(state, data, config):
    """Diagonal mixture ELBO with its data terms in long double, point by
    point; the digamma values and KL terms come from the package in double."""
    x, m, b, r = (np.asarray(a, dtype=_LD) for a in (_obs_rows(data), state.m, state.b, state.r))
    d = m.shape[1]
    e_log_pi = np.asarray(np_digamma(state.conc) - np_digamma(state.conc.sum()), dtype=_LD)
    e_tau, e_log_tau = (np.asarray(a, dtype=_LD) for a in gamma_moments(state.alpha, state.beta))
    quad = (e_tau[None] * (x[:, None, :] - m[None]) ** 2 + 1 / b[None]).sum(axis=2)
    lik = 0.5 * (e_log_tau.sum(axis=1)[None, :] - d * _LD_LOG_2PI - quad) + e_log_pi[None, :]
    nz = r[r > 0]
    return (r * lik).sum() - (nz * np.log(nz)).sum() - _LD(_diag_kl(state, config))


def blr_elbo_longdouble(state, data, config):
    """Regression ELBO with its data terms in long double, row by row: the
    residuals, and ``x_i^T V* x_i`` as ``|L^-1 x_i|^2`` with the package's
    ``L^-1`` (the reference ``V*``)."""
    value, exp = _blr_terms(state, config)
    xy = np.asarray(data, dtype=_LD)
    x, y = xy[:, :-1], xy[:, -1]
    n = x.shape[0]
    resid = y - (x * np.asarray(state.beta, dtype=_LD)).sum(axis=1)
    inv = np.asarray(exp["chol_inv"], dtype=_LD)
    half = (inv[None, :, :] * x[:, None, :]).sum(axis=2)
    return _LD(value) + (
        -0.5 * n * _LD_LOG_2PI
        + 0.5 * n * _LD(exp["e_log_tau"])
        - 0.5 * (_LD(exp["e_tau"]) * (resid * resid).sum() + (half * half).sum())
    )


# ---------------------------------------------------------------------------
# coordinate optimality: single-factor perturbations of a fitted state
# ---------------------------------------------------------------------------


def _copy_with(state, name, index, value):
    """``state`` with entry ``index`` of its array ``name`` set to ``value``;
    the state class validates the result."""
    a = np.array(getattr(state, name))
    a[index] = value
    return dataclasses.replace(state, **{name: a})


def _shifts(state, name, eps):
    """Each entry of ``name`` moved by +-eps (a location parameter)."""
    a = np.asarray(getattr(state, name))
    for index in np.ndindex(a.shape):
        for step in (eps, -eps):
            yield _copy_with(state, name, index, a[index] + step)


def _scalings(state, name, eps):
    """Each entry of ``name`` scaled by 1 +- eps (a positive parameter)."""
    a = np.asarray(getattr(state, name))
    for index in np.ndindex(a.shape):
        for factor in (1.0 + eps, 1.0 - eps):
            yield _copy_with(state, name, index, a[index] * factor)


def _row_nudges(state, name, eps):
    """Each categorical row of ``name`` with one logit moved by +-eps."""
    rows = getattr(state, name)
    for i, j in np.ndindex(rows.shape):
        for step in (eps, -eps):
            logits = np.log(np.maximum(rows[i], 1e-300))
            logits[j] += step
            p = np.exp(logits - logsumexp(logits))
            yield _copy_with(state, name, i, p / p.sum())


def _uni_gmm_perturbations(model, state, eps):
    yield from _shifts(state, "m", eps)
    yield from _scalings(state, "s2", eps)
    yield from _row_nudges(state, "phi", eps)


def _diag_gmm_perturbations(model, state, eps):
    for j, c in enumerate(state.conc):
        for step in (eps, -eps):
            yield _copy_with(state, "conc", j, max(c + step, 0.5 * c))
    yield from _shifts(state, "m", eps)
    for name in ("b", "alpha", "beta"):
        yield from _scalings(state, name, eps)
    yield from _row_nudges(state, "r", eps)


def _blr_perturbations(model, state, eps):
    yield from _shifts(state, "beta", eps)
    dim = state.beta.shape[0]
    for i in range(dim):
        for j in range(i, dim):
            for step in (eps, -eps):
                v_inv = np.array(state.v_inv)
                if i == j:
                    v_inv[i, i] *= 1.0 + step
                else:
                    v_inv[i, j] += step
                    v_inv[j, i] += step
                try:
                    np.linalg.cholesky(v_inv)
                except np.linalg.LinAlgError:
                    continue  # left the feasible cone; not a valid factor
                yield dataclasses.replace(state, v_inv=v_inv)
    for name in ("a", "b") if model.config.fix_relevance else ("a", "b", "c", "d"):
        yield from _scalings(state, name, eps)


def coordinate_optimality_gap(model, state, data, eps=1e-3):
    """Largest ELBO increase over single-factor perturbations of a mixture
    or regression ``state``.

    Location parameters move additively, positive ones multiplicatively, and
    each categorical row by one logit, so every perturbed state is feasible.
    At a coordinate-ascent fixed point no such perturbation can increase
    the ELBO, so the gap is <= 0 up to rounding.
    """
    perturbations = {
        UniGmmState: _uni_gmm_perturbations,
        DiagGmmState: _diag_gmm_perturbations,
        BlrArdState: _blr_perturbations,
    }[type(state)]
    base = model.elbo(state, data)
    gap = -np.inf
    for perturbed in perturbations(model, state, eps):
        gap = max(gap, model.elbo(perturbed, data) - base)
    return float(gap)
