"""Independent reference computations for the test suite.

Everything here is deliberately implemented by routes the package itself
never takes -- exhaustive enumeration over assignment configurations,
direct covariance-matrix marginal likelihoods through scipy, textbook
conjugate posterior formulas, the digamma asymptotic series, the
one-document-at-a-time log-space LDA local step, and the
one-observation-at-a-time global-local (conditionally conjugate) mixture
steps, and model ELBOs with their prior, KL and entropy terms written out
by hand -- so agreement with the package is evidence of correctness rather
than of shared code.
"""

import itertools
import math

import numpy as np
import scipy.stats
from scipy.special import digamma, gammaln, logsumexp


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
    """The per-document loop over a whole corpus.

    Returns ``(gamma (D, K), phi tuple, iterations (D,))``.
    """
    out = [
        doc_inner(np.asarray(gamma[d], dtype=float), elog_beta[:, terms],
                  counts, alpha, tol, max_iters)
        for d, (terms, counts) in enumerate(corpus.docs)
    ]
    return (
        np.array([g for g, _, _ in out]).reshape(len(out), -1),
        tuple(p for _, p, _ in out),
        np.array([i for _, _, i in out]),
    )


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
        eps = schedule.scale * (t + schedule.delay) ** (-schedule.kappa)
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


def lda_elbo(state, corpus, config):
    """LDA ELBO over the CSR entries with row-wise Dirichlet KLs inline."""
    k = state.lam.shape[0]
    elog_beta = digamma(state.lam) - digamma(state.lam.sum(axis=1))[:, None]
    elog_theta = digamma(state.gamma) - digamma(state.gamma.sum(axis=1))[:, None]
    phi = np.concatenate(state.phi) if state.phi else np.zeros((0, k))
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
