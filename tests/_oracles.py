"""Independent reference computations for the test suite.

Everything here is deliberately implemented by routes the package itself
never takes -- exhaustive enumeration over assignment configurations,
direct covariance-matrix marginal likelihoods through scipy, textbook
conjugate posterior formulas, the digamma asymptotic series, and the
one-document-at-a-time log-space LDA local step -- so agreement with the
package is evidence of correctness rather than of shared code.
"""

import itertools
import math

import numpy as np
import scipy.stats
from scipy.special import gammaln, logsumexp


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
