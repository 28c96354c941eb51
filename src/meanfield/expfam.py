"""Exponential-family primitives used by every model in the package.

This module collects the small set of special functions, moment identities,
and KL divergences that coordinate ascent updates are written in terms of:

* numerically safe ``log_sum_exp`` for normalizing log-weights, and
  ``categorical_rows`` for turning a batch of logits into probabilities,
* ``digamma`` (and ``log_gamma``) for Dirichlet and Gamma expectations,
  imported from ``scipy.special`` on first call (``gmm`` never loads scipy),
* expected sufficient statistics of the Gaussian, Gamma, and Dirichlet
  families,
* closed-form KL divergences between members of the same family.

The moment, KL and entropy helpers broadcast over arrays and return floats
for scalar input; every model ELBO takes its KL and entropy terms from them.

``ExpFamParam`` is the common currency for variational factors: a frozen
value holding one density's canonical parameters together with accessors for
its natural parameters, mean, and entropy.  Natural parameters are computed
on demand; canonical parameters are the stored representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError

__all__ = [
    "Family",
    "ExpFamParam",
    "log_sum_exp",
    "categorical_rows",
    "digamma",
    "log_gamma",
    "gaussian_moments",
    "gamma_moments",
    "dirichlet_expected_log",
    "gaussian_kl",
    "gamma_kl",
    "dirichlet_kl",
    "normal_gamma_kl",
    "categorical_entropy",
    "gaussian_log_pdf",
]

LOG_2PI = math.log(2.0 * math.pi)


def log_gamma(x):
    """``scipy.special.gammaln``, imported on first call.  Unvalidated: it
    only appears in normalizers, with no structural role in the updates."""
    from scipy.special import gammaln
    return gammaln(x)


def _scalar(value):
    """A 0-d result as a Python float; arrays pass through."""
    return float(value) if np.ndim(value) == 0 else value


def log_sum_exp(values, axis=None):
    """Compute ``log(sum(exp(values)))`` without overflow.

    The maximum is subtracted before exponentiation, so the largest
    exponentiated term is exactly 1 and the result never overflows for
    finite inputs.

    Parameters
    ----------
    values : array_like
        Nonempty array of log-weights.  NaN entries are rejected.
    axis : int, optional
        Axis along which to reduce.  ``None`` reduces over all entries and
        returns a float.

    Returns
    -------
    float or ndarray
        ``log(sum(exp(values)))`` reduced over `axis`.
    """
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        raise DomainError("log_sum_exp of an empty array")
    if np.isnan(a).any():
        raise DomainError("log_sum_exp received NaN")
    m = np.max(a, axis=axis, keepdims=True)
    # A slice of all -inf has m = -inf; shift by 0 there so exp(-inf - 0)
    # stays defined and the result is -inf rather than NaN.
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def categorical_rows(logits):
    """Normalize each row of an ``(n, k)`` logit array into probabilities.

    Rows are normalized in log space, ``exp(l - log_sum_exp(l))``, then
    divided by their sum so they add to 1 to rounding.  An empty batch
    returns an empty ``(0, k)`` array.
    """
    a = np.asarray(logits, dtype=float)
    if a.shape[0] == 0:
        return np.zeros(a.shape)
    probs = np.exp(a - log_sum_exp(a, axis=1)[:, None])
    return probs / probs.sum(axis=1, keepdims=True)


def digamma(x):
    """Digamma function psi(x) = d/dx log Gamma(x) for x > 0.

    A validated wrapper over ``scipy.special.digamma``.  Accepts scalars or
    arrays; nonpositive or non-finite input raises :class:`DomainError`.
    """
    a = np.asarray(x, dtype=float)
    if not np.all((a > 0.0) & (a < np.inf)):
        raise DomainError("digamma requires finite x > 0")
    from scipy.special import digamma as psi
    out = psi(a)
    return float(out) if a.ndim == 0 else out


def gaussian_moments(mean, var):
    """Return (E[x], E[x**2]) for x ~ Normal(mean, var)."""
    if not (var > 0.0) or not np.isfinite(var) or not np.isfinite(mean):
        raise DomainError("gaussian_moments requires finite mean and var > 0")
    return float(mean), float(mean * mean + var)


def gamma_moments(shape, rate):
    """Return (E[x], E[log x]) for x ~ Gamma(shape, rate), elementwise.

    E[x] = shape / rate and E[log x] = psi(shape) - log(rate).
    """
    a, r = map(np.asarray, (shape, rate))
    if not (np.all(a > 0.0) and np.all(r > 0.0)):
        raise DomainError("gamma_moments requires shape > 0 and rate > 0")
    return _scalar(a / r), _scalar(digamma(a) - np.log(r))


def dirichlet_expected_log(concentration):
    """E[log pi_k] under Dirichlet(concentration).

    Equals ``psi(c_k) - psi(sum(c))`` componentwise.  Every entry is
    strictly negative because each pi_k < 1 almost surely.
    """
    c = np.asarray(concentration, dtype=float)
    if c.ndim != 1 or c.size < 2:
        raise DomainError("dirichlet_expected_log requires a vector of length >= 2")
    if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
        raise DomainError("dirichlet concentrations must be finite and > 0")
    return digamma(c) - digamma(c.sum())


def _dirichlet_expected_log_rows(c):
    """Row-wise E[log pi] for a matrix of Dirichlet concentrations.

    Internal helper: no length-2 floor, so degenerate one-column rows (a
    single-topic model) give the correct value 0.
    """
    c = np.asarray(c, dtype=float)
    return digamma(c) - digamma(c.sum(axis=1))[:, None]


def gaussian_kl(q_mean, q_var, p_mean, p_var):
    """KL(q || p) between univariate Gaussians, elementwise.

    Equals ``0.5 * (q_var/p_var + (p_mean - q_mean)^2/p_var - 1
    + log(p_var/q_var))``; nonnegative, zero iff the parameters match.
    """
    qv, pv = map(np.asarray, (q_var, p_var))
    if not (np.all(qv > 0.0) and np.all(pv > 0.0)):
        raise DomainError("gaussian_kl requires positive variances")
    ratio = qv / pv
    diff = np.subtract(p_mean, q_mean)
    return _scalar(0.5 * (ratio + diff**2 / pv - 1.0 - np.log(ratio)))


def gamma_kl(q_shape, q_rate, p_shape, p_rate):
    """KL(q || p) between Gamma(shape, rate) densities, elementwise."""
    qa, qr, pa, pr = map(np.asarray, (q_shape, q_rate, p_shape, p_rate))
    if not all(np.all(v > 0.0) for v in (qa, qr, pa, pr)):
        raise DomainError("gamma_kl requires positive shapes and rates")
    return _scalar(
        (qa - pa) * digamma(qa)
        - log_gamma(qa)
        + log_gamma(pa)
        + pa * (np.log(qr) - np.log(pr))
        + qa * (pr - qr) / qr
    )


def dirichlet_kl(q_conc, p_conc):
    """KL(q || p) between Dirichlet densities, one per row of ``q_conc``
    (a float for a single vector); ``p_conc`` broadcasts against the rows."""
    q = np.asarray(q_conc, dtype=float)
    p = np.asarray(p_conc, dtype=float)
    if not 1 <= p.ndim <= q.ndim or p.shape != q.shape[q.ndim - p.ndim :]:
        raise DomainError("dirichlet_kl requires matching concentration vectors")
    if not (np.all(q > 0.0) and np.all(p > 0.0)):
        raise DomainError("dirichlet concentrations must be > 0")
    q0 = q.sum(axis=-1)
    elog = digamma(q) - digamma(q0[..., None])
    return _scalar(
        log_gamma(q0)
        - log_gamma(q).sum(axis=-1)
        - log_gamma(p.sum(axis=-1))
        + log_gamma(p).sum(axis=-1)
        + ((q - p) * elog).sum(axis=-1)
    )


def normal_gamma_kl(q_params, p_params):
    """KL(q || p) between Normal-Gamma densities, elementwise.

    Each parameter tuple is ``(m, b, shape, rate)`` describing
    ``Normal(mu | m, 1/(b*tau)) * Gamma(tau | shape, rate)``.
    """
    qm, qb, qa, qr = map(np.asarray, q_params)
    pm, pb, pa, pr = map(np.asarray, p_params)
    if not all(np.all(v > 0.0) for v in (qb, qa, qr, pb, pa, pr)):
        raise DomainError("normal_gamma_kl requires positive b, shape, rate")
    # Conditional Gaussian part: E_q[log N_q - log N_p] with tau integrated
    # against Gamma(qa, qr); E_q[tau * (mu - pm)^2] = (qa/qr)(qm - pm)^2 + 1/qb.
    normal_part = 0.5 * (
        np.log(qb / pb) - 1.0 + pb * ((qa / qr) * (qm - pm) ** 2 + 1.0 / qb)
    )
    return _scalar(normal_part + gamma_kl(qa, qr, pa, pr))


def categorical_entropy(probs):
    """Entropy of a categorical distribution, with 0 * log 0 = 0; one per
    row of an ``(n, k)`` array, whose rows must each sum to 1 within 1e-9."""
    p = np.atleast_1d(np.asarray(probs, dtype=float))
    if np.any(p < 0.0) or not np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-9):
        raise DomainError("categorical_entropy requires a probability vector")
    logs = np.log(p, out=np.zeros_like(p), where=p > 0.0)
    return _scalar(-np.einsum("...k,...k->...", p, logs))


def gaussian_log_pdf(x, mean, var):
    """Log density of Normal(mean, var) at x; broadcasts elementwise."""
    v = np.asarray(var, dtype=float)
    if np.any(v <= 0.0):
        raise DomainError("gaussian_log_pdf requires var > 0")
    d = np.asarray(x, dtype=float) - np.asarray(mean, dtype=float)
    return -0.5 * (LOG_2PI + np.log(v) + d * d / v)


class Family(Enum):
    """Exponential families with built-in support."""

    GAUSSIAN = "gaussian"
    GAMMA = "gamma"
    DIRICHLET = "dirichlet"
    CATEGORICAL = "categorical"
    NORMAL_GAMMA = "normal_gamma"


# Sum of a categorical factor's probabilities may drift from 1 by at most
# this much before the factor is rejected.
_SIMPLEX_TOL = 1e-12


@dataclass(frozen=True)
class ExpFamParam:
    """Canonical parameters of one exponential-family density.

    Parameters are validated at construction, so any held instance
    satisfies its family's constraints.  Canonical layouts:

    * ``GAUSSIAN``: (mean, var), var > 0
    * ``GAMMA``: (shape, rate), both > 0
    * ``DIRICHLET``: concentrations, all > 0
    * ``CATEGORICAL``: probabilities, nonnegative, summing to 1 within 1e-12
    * ``NORMAL_GAMMA``: (m, b, shape, rate) for
      ``Normal(mu | m, 1/(b tau)) Gamma(tau | shape, rate)``, b/shape/rate > 0
    """

    family: Family
    params: tuple

    def __post_init__(self):
        p = tuple(float(v) for v in self.params)
        object.__setattr__(self, "params", p)
        if not all(math.isfinite(v) for v in p):
            raise DomainError(f"{self.family.value} parameters must be finite")
        if self.family is Family.GAUSSIAN:
            if len(p) != 2 or p[1] <= 0.0:
                raise DomainError("gaussian requires (mean, var) with var > 0")
        elif self.family is Family.GAMMA:
            if len(p) != 2 or p[0] <= 0.0 or p[1] <= 0.0:
                raise DomainError("gamma requires (shape, rate), both > 0")
        elif self.family is Family.DIRICHLET:
            if len(p) < 1 or any(v <= 0.0 for v in p):
                raise DomainError("dirichlet requires concentrations > 0")
        elif self.family is Family.CATEGORICAL:
            if len(p) < 1 or any(v < 0.0 for v in p):
                raise DomainError("categorical requires nonnegative probabilities")
            if abs(sum(p) - 1.0) > _SIMPLEX_TOL:
                raise DomainError("categorical probabilities must sum to 1")
        elif self.family is Family.NORMAL_GAMMA:
            if len(p) != 4 or p[1] <= 0.0 or p[2] <= 0.0 or p[3] <= 0.0:
                raise DomainError(
                    "normal_gamma requires (m, b, shape, rate) with b, shape, rate > 0"
                )
        else:  # pragma: no cover - enum is closed
            raise DomainError(f"unknown family {self.family!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def gaussian(cls, mean, var):
        return cls(Family.GAUSSIAN, (mean, var))

    @classmethod
    def gamma(cls, shape, rate):
        return cls(Family.GAMMA, (shape, rate))

    @classmethod
    def dirichlet(cls, concentration):
        return cls(Family.DIRICHLET, tuple(np.asarray(concentration, dtype=float)))

    @classmethod
    def categorical(cls, probs):
        return cls(Family.CATEGORICAL, tuple(np.asarray(probs, dtype=float)))

    @classmethod
    def normal_gamma(cls, m, b, shape, rate):
        return cls(Family.NORMAL_GAMMA, (m, b, shape, rate))

    # -- accessors ---------------------------------------------------------

    def natural(self):
        """Natural parameters as an ndarray (computed on demand).

        Sufficient statistics per family: Gaussian (x, x^2); Gamma
        (log x, x); Dirichlet (log pi_k); Categorical (indicator of each
        category, natural parameters log p_k); Normal-Gamma
        (tau mu, tau mu^2, log tau, tau).
        """
        p = np.array(self.params)
        if self.family is Family.GAUSSIAN:
            m, v = p
            return np.array([m / v, -0.5 / v])
        if self.family is Family.GAMMA:
            a, b = p
            return np.array([a - 1.0, -b])
        if self.family is Family.DIRICHLET:
            return p - 1.0
        if self.family is Family.CATEGORICAL:
            with np.errstate(divide="ignore"):
                return np.log(p)
        m, b, a, r = p
        return np.array([b * m, -0.5 * b, a - 0.5, -(r + 0.5 * b * m * m)])

    def mean(self):
        """Mean of the density (for NORMAL_GAMMA, the pair (E[mu], E[tau]))."""
        p = np.array(self.params)
        if self.family is Family.GAUSSIAN:
            return float(p[0])
        if self.family is Family.GAMMA:
            return float(p[0] / p[1])
        if self.family is Family.DIRICHLET:
            return p / p.sum()
        if self.family is Family.CATEGORICAL:
            return p
        return float(p[0]), float(p[2] / p[3])

    def entropy(self):
        """Differential (or discrete) entropy of the density."""
        p = self.params
        if self.family is Family.GAUSSIAN:
            return 0.5 * (LOG_2PI + 1.0 + math.log(p[1]))
        if self.family is Family.GAMMA:
            a, b = p
            return float(a - math.log(b) + log_gamma(a) + (1.0 - a) * digamma(a))
        if self.family is Family.DIRICHLET:
            c = np.array(p)
            c0 = c.sum()
            log_b = log_gamma(c).sum() - log_gamma(c0)
            return float(
                log_b + (c0 - c.size) * digamma(c0) - np.dot(c - 1.0, digamma(c))
            )
        if self.family is Family.CATEGORICAL:
            return categorical_entropy(p)
        m, b, a, r = p
        # H[mu, tau] = H[tau] + E_tau H[mu | tau]
        gamma_h = a - math.log(r) + log_gamma(a) + (1.0 - a) * digamma(a)
        cond_gauss_h = 0.5 * (LOG_2PI + 1.0 - math.log(b)) - 0.5 * (
            digamma(a) - math.log(r)
        )
        return float(gamma_h + cond_gauss_h)
