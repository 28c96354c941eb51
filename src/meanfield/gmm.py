"""Bayesian Gaussian mixtures under mean-field coordinate ascent.

Two variants live here:

* :class:`UnitVarianceGmm` -- K components with identity observation
  covariance, uniform mixing weights, and independent ``Normal(0, sigma2)``
  priors on each mean coordinate.  Its two coordinate updates (assignment
  responsibilities, then component mean factors) are available both as
  plain functions and packaged as a :class:`VariationalModel`.
  ``conjugate_spec`` exposes the same model through the generic
  global-local machinery, which is how it gains a stochastic fit.

* :class:`DiagGmm` -- Dirichlet-weighted mixture with per-coordinate
  Normal-Gamma factors on (mean, precision), i.e. diagonal covariances
  learned from data.

States hold plain arrays and are treated as immutable: every update
returns fresh arrays, so a recorded state is never changed by later sweeps.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .condconj import CondConjSpec, GlobalParam, GlobalStats
from .engine import InitStrategy, MeanFieldState, VariationalModel, predictive_rows
from .errors import ConfigError, DataFormatError, DomainError, numbered_lines
from .expfam import (
    LOG_2PI,
    ExpFamParam,
    categorical_entropy,
    categorical_rows,
    digamma,
    dirichlet_kl,
    gamma_moments,
    gaussian_kl,
    log_gamma,
    log_sum_exp,
    normal_gamma_kl,
)

__all__ = [
    "UniGmmConfig",
    "UniGmmState",
    "UnitVarianceGmm",
    "update_assignments",
    "update_components",
    "gmm_elbo",
    "predictive_log_density",
    "simulate",
    "conjugate_spec",
    "conjugate_elbo_offset",
    "global_param_from_state",
    "state_from_global",
    "DiagGmmConfig",
    "DiagGmmState",
    "DiagGmm",
    "diag_gmm_sweep",
    "diag_gmm_elbo",
    "diag_predictive_log_density",
    "read_data_csv",
]


def _frozen(a):
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


def _as_matrix(data):
    """Data as an (n, d) float matrix; 1-D input is a single column."""
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DomainError("data must be a vector or a 2-D array")
    if x.size and not np.all(np.isfinite(x)):
        raise DomainError("data must be finite")
    return x


def _check_rows(r, name):
    """Reject responsibilities with a negative entry or a row whose sum is
    off 1 by more than 1e-9; an empty ``(0, k)`` array passes."""
    if np.any(r < 0.0) or not np.all(np.abs(r.sum(axis=1) - 1.0) <= 1e-9):
        raise DomainError(f"{name} rows must be probability vectors")


# ---------------------------------------------------------------------------
# unit-variance mixture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniGmmConfig:
    """Component count and prior variance of the mean coordinates."""

    k: int
    sigma2: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k", "must be >= 1")
        if not (self.sigma2 > 0.0) or not math.isfinite(self.sigma2):
            raise ConfigError("sigma2", "must be finite and > 0")


@dataclass(frozen=True)
class UniGmmState:
    """Gaussian mean factors (m, s2), each (k, d), and responsibilities (n, k)."""

    m: np.ndarray
    s2: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "m", _frozen(self.m))
        object.__setattr__(self, "s2", _frozen(self.s2))
        object.__setattr__(self, "phi", _frozen(self.phi))
        if self.m.shape != self.s2.shape or self.m.ndim != 2:
            raise DomainError("m and s2 must both be (k, d)")
        if np.any(self.s2 <= 0.0):
            raise DomainError("mean-factor variances must be > 0")
        if self.phi.ndim != 2 or self.phi.shape[1] != self.m.shape[0]:
            raise DomainError("phi must be (n, k)")
        _check_rows(self.phi, "phi")


def update_assignments(state, data):
    """Optimal responsibilities given the current mean factors.

    Row ``i`` is proportional to ``exp(E[mu_k] . x_i - E[|mu_k|^2] / 2)``,
    normalized in log space.  Depends only on the mean factors, not on the
    previous responsibilities.
    """
    x = _as_matrix(data)
    second = 0.5 * (state.m**2 + state.s2).sum(axis=1)
    return categorical_rows(x @ state.m.T - second[None, :])


def update_components(state, data, sigma2):
    """Optimal mean factors given responsibilities.

    Each component sees a responsibility-weighted pseudo-sample:
    ``m_k = sum_i phi_ik x_i / (1/sigma2 + sum_i phi_ik)`` with variance
    ``1 / (1/sigma2 + sum_i phi_ik)``, shared across coordinates.
    """
    x = _as_matrix(data)
    precision = 1.0 / sigma2 + state.phi.sum(axis=0)
    m = (state.phi.T @ x) / precision[:, None]
    s2 = np.broadcast_to((1.0 / precision)[:, None], m.shape).copy()
    return m, s2


def _unit_loglik(x, m, var=0.0):
    """(n, k) ``-(|x_i - m_k|^2 + var_k + d log(2 pi)) / 2`` in matmul form, on
    ``x`` and ``m`` shifted by the mean ``m`` row: no cancellation far from 0."""
    c = m.mean(axis=0)
    x, m = x - c, m - c
    sq = (m**2).sum(axis=1) + var
    xx = 0.5 * (x**2).sum(axis=1)[:, None]
    return x @ m.T - 0.5 * sq[None, :] - xx - 0.5 * m.shape[1] * LOG_2PI


def gmm_elbo(state, data, sigma2):
    """Evidence lower bound with every constant kept.

    The mean factors enter through their KL divergence to the
    ``Normal(0, sigma2)`` prior and the responsibilities through their
    entropy.  Keeping all constants makes the bound directly comparable to
    the log evidence: with one component the converged value equals
    log p(x) exactly, and with no data the value is 0 at the prior.
    """
    x = _as_matrix(data)
    k = state.m.shape[0]
    n = x.shape[0]

    assign_prior = -n * math.log(k)
    lik = float((state.phi * _unit_loglik(x, state.m, state.s2.sum(axis=1))).sum())
    assign_entropy = float(categorical_entropy(state.phi).sum())
    mean_kl = float(gaussian_kl(state.m, state.s2, 0.0, sigma2).sum())
    return assign_prior + lik + assign_entropy - mean_kl


def predictive_log_density(state, x_new):
    """Log of the approximate predictive mixture density.

    Plugs the posterior-mean locations into equal-weight unit-variance
    components: ``log (1/K) sum_k Normal(x; m_k, I)``.  One point (a scalar
    or ``(d,)`` row) gives a float, an ``(n, d)`` batch an ``(n,)`` array.
    """
    x, point = predictive_rows(x_new, state.m.shape[1])
    comp = _unit_loglik(x, state.m)
    out = log_sum_exp(comp, axis=1) - math.log(state.m.shape[0])
    return float(out[0]) if point else out


def simulate(k, n, seed, dim=1, mean_scale=5.0, min_separation=0.0):
    """Draw a mixture dataset with known ground truth.

    Component means are sampled from ``Normal(0, mean_scale^2 I)``
    (redrawn, deterministically per seed, until all pairwise distances
    reach ``min_separation``), labels uniformly, observations from unit
    covariance around the labelled mean.

    Returns ``(data (n, dim), means (k, dim), labels (n,))``.
    """
    if k < 1:
        raise ConfigError("k", "must be >= 1")
    if n < 0:
        raise ConfigError("n", "must be >= 0")
    if dim < 1:
        raise ConfigError("dim", "must be >= 1")
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        means = mean_scale * rng.standard_normal((k, dim))
        if k == 1 or min_separation <= 0.0:
            break
        diffs = means[:, None, :] - means[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        if dist[np.triu_indices(k, 1)].min() >= min_separation:
            break
    else:
        raise DomainError("could not satisfy min_separation in 1000 draws")
    labels = rng.integers(0, k, size=n)
    data = means[labels] + rng.standard_normal((n, dim))
    return data, means, labels


class UnitVarianceGmm(VariationalModel):
    """Engine adapter for the unit-variance mixture."""

    name = "gmm"

    def __init__(self, config):
        self.config = config

    def init_state(self, data, strategy, rng):
        """Prior strategy starts every factor at the prior (responsibilities
        uniform); the calibrated strategy draws component means from a
        Gaussian matched to each data coordinate's empirical mean and
        variance, which breaks the symmetric fixed point."""
        x = _as_matrix(data)
        k = self.config.k
        d = x.shape[1] if x.size else max(x.shape[1], 1)
        if strategy is InitStrategy.PRIOR or x.shape[0] == 0:
            m = np.zeros((k, d))
        elif strategy is InitStrategy.DATA_CALIBRATED:
            center = x.mean(axis=0)
            spread = x.std(axis=0)
            m = center[None, :] + spread[None, :] * rng.standard_normal((k, d))
        else:
            raise ConfigError("strategy", f"unknown init strategy {strategy!r}")
        s2 = np.full((k, d), self.config.sigma2)
        phi = np.full((x.shape[0], k), 1.0 / k)
        return UniGmmState(m, s2, phi)

    def sweep(self, state, data):
        phi = update_assignments(state, data)
        mid = UniGmmState(state.m, state.s2, phi)
        m, s2 = update_components(mid, data, self.config.sigma2)
        return UniGmmState(m, s2, phi)

    def elbo(self, state, data):
        return gmm_elbo(state, data, self.config.sigma2)

    def log_predictive(self, state, data):
        return predictive_log_density(state, _as_matrix(data))

    def export_state(self, state):
        k, d = state.m.shape
        factors = []
        labels = []
        for j in range(k):
            for c in range(d):
                factors.append(ExpFamParam.gaussian(state.m[j, c], state.s2[j, c]))
                labels.append(f"mu[{j}]" if d == 1 else f"mu[{j},{c}]")
        for i in range(state.phi.shape[0]):
            factors.append(ExpFamParam.categorical(state.phi[i]))
            labels.append(f"c[{i}]")
        return MeanFieldState(tuple(factors), tuple(labels))

    def metadata(self):
        return {"k": self.config.k, "sigma2": self.config.sigma2}

    def summary_dict(self, state):
        return {
            "means": state.m.tolist(),
            "variances": state.s2.tolist(),
        }

    def perturbed_states(self, state, eps):
        k, d = state.m.shape
        for j in range(k):
            for c in range(d):
                for sign in (eps, -eps):
                    m = state.m.copy()
                    m[j, c] += sign
                    yield UniGmmState(m, state.s2, state.phi)
                for factor in (1.0 + eps, 1.0 - eps):
                    s2 = state.s2.copy()
                    s2[j, c] *= factor
                    yield UniGmmState(state.m, s2, state.phi)
        for i in range(state.phi.shape[0]):
            for j in range(k):
                for sign in (eps, -eps):
                    logits = np.log(np.maximum(state.phi[i : i + 1], 1e-300))
                    logits[0, j] += sign
                    phi = state.phi.copy()
                    phi[i] = categorical_rows(logits)[0]
                    yield UniGmmState(state.m, state.s2, phi)


# ---------------------------------------------------------------------------
# global-local (conjugate) form of the unit-variance mixture
# ---------------------------------------------------------------------------


def conjugate_spec(k, sigma2, dim=1):
    """The unit-variance mixture as a :class:`CondConjSpec`.

    Global sufficient statistics are the flattened mean coordinates
    followed by one per-component quadratic block, so the prior natural
    parameter is zeros for the mean block, ``1/sigma2`` for each quadratic
    coordinate, and a count of 0.  Alternating ``local_probs`` /
    ``global_step`` under this spec reproduces ``update_assignments`` /
    ``update_components`` iterates exactly.

    The local callables take a batch ``X`` of shape ``(n, dim)``:
    ``local_natural_param`` returns the ``(n, k)`` logits
    ``X E[mu]^T - E[|mu_k|^2] / 2`` as one matrix product, and
    ``expected_suff_stat(probs, X)`` the statistics summed over rows,
    ``[vec(probs^T X), probs.sum(axis=0)]``.
    """
    UniGmmConfig(k, sigma2)  # validates
    if dim < 1:
        raise ConfigError("dim", "must be >= 1")
    kd = k * dim

    def expected_global_stats(lam):
        b = np.asarray(lam.stat[kd:], dtype=float)
        if np.any(b <= 0.0):
            raise DomainError("quadratic coordinates must stay > 0")
        m = np.asarray(lam.stat[:kd], dtype=float).reshape(k, dim) / b[:, None]
        s2 = 1.0 / b
        second = -0.5 * ((m**2).sum(axis=1) + dim * s2)
        entropy = 0.5 * dim * float(np.log(2.0 * math.pi * math.e * s2).sum())
        return GlobalStats(
            stats=np.concatenate([m.ravel(), second]),
            log_norm=0.0,
            entropy=entropy,
        )

    def expected_suff_stat(probs, X):
        return np.concatenate([(probs.T @ X).ravel(), probs.sum(axis=0)])

    def local_natural_param(stats, X):
        m = stats.stats[:kd].reshape(k, dim)
        return X @ m.T + stats.stats[kd:]

    prior_stat = np.concatenate([np.zeros(kd), np.full(k, 1.0 / sigma2)])
    return CondConjSpec(
        prior_stat=prior_stat,
        prior_count=0.0,
        prior_log_norm=0.5 * kd * math.log(2.0 * math.pi * sigma2),
        num_local_values=k,
        local_natural_param=local_natural_param,
        expected_global_stats=expected_global_stats,
        expected_suff_stat=expected_suff_stat,
    )


def conjugate_elbo_offset(data, k):
    """Constant separating the two ELBO conventions on the same state.

    ``gmm_elbo == cond_conj_elbo + conjugate_elbo_offset(data, k)``: the
    global-local ELBO omits the per-observation base measure
    ``-|x_i|^2/2 - (d/2) log 2 pi - log K``, which depends on neither set
    of variational parameters.
    """
    x = _as_matrix(data)
    n, d = x.shape
    return float(
        -0.5 * (x**2).sum() - 0.5 * n * d * LOG_2PI - n * math.log(k)
    )


def global_param_from_state(state):
    """Natural global parameter matching a unit-variance mixture state.

    The count coordinate is set to the number of responsibility rows, which
    is its value at any coordinate-ascent fixed point.
    """
    b = 1.0 / state.s2[:, 0]
    return GlobalParam(
        np.concatenate([(state.m * b[:, None]).ravel(), b]),
        float(state.phi.shape[0]),
    )


def state_from_global(state, k, dim=1):
    """Inverse of :func:`global_param_from_state` for a full fit state.

    Unpacks the natural global parameter of a conditionally conjugate fit
    (mean block scaled by precisions, then the precision block) and the
    ``(n, k)`` local factor array back into a :class:`UniGmmState`.
    """
    kd = k * dim
    stat = np.asarray(state.lam.stat, dtype=float)
    if stat.shape != (kd + k,):
        raise DomainError("global parameter does not match k and dim")
    b = stat[kd:]
    if np.any(b <= 0.0):
        raise DomainError("quadratic coordinates must stay > 0")
    m = stat[:kd].reshape(k, dim) / b[:, None]
    s2 = np.broadcast_to((1.0 / b)[:, None], (k, dim)).copy()
    return UniGmmState(m, s2, state.phis.reshape(-1, k))


# ---------------------------------------------------------------------------
# diagonal-covariance mixture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagGmmConfig:
    """Hyperparameters of the Dirichlet / Normal-Gamma mixture.

    ``a0`` defaults to ``1/k``, which biases unused components toward
    extinction; the Normal-Gamma prior is standard-diffuse: location 0,
    scale 1, shape 1, rate 1.
    """

    k: int
    a0: float = None
    m0: float = 0.0
    b0: float = 1.0
    alpha0: float = 1.0
    beta0: float = 1.0

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError("k", "must be >= 1")
        if self.a0 is None:
            object.__setattr__(self, "a0", 1.0 / self.k)
        for name in ("a0", "b0", "alpha0", "beta0"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ConfigError(name, "must be finite and > 0")
        if not math.isfinite(self.m0):
            raise ConfigError("m0", "must be finite")


@dataclass(frozen=True)
class DiagGmmState:
    """Dirichlet weights factor, per-(k, d) Normal-Gamma factors, and
    responsibilities."""

    conc: np.ndarray  # (k,) Dirichlet concentrations
    m: np.ndarray  # (k, d) Normal-Gamma locations
    b: np.ndarray  # (k, d) Normal-Gamma scales
    alpha: np.ndarray  # (k, d) Gamma shapes
    beta: np.ndarray  # (k, d) Gamma rates
    r: np.ndarray  # (n, k) responsibilities

    def __post_init__(self):
        for name in ("conc", "m", "b", "alpha", "beta", "r"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        k = self.m.shape[:1]
        shapes = {getattr(self, n).shape for n in ("m", "b", "alpha", "beta")}
        if self.m.ndim != 2 or len(shapes) != 1 or self.conc.shape != k:
            raise DomainError("state arrays have inconsistent dimensions")
        if self.r.shape[1:] != k:
            raise DomainError("responsibilities must be (n, k)")
        _check_rows(self.r, "responsibility")
        if np.any(self.conc <= 0.0):
            raise DomainError("Dirichlet concentrations must be > 0")
        for name in ("b", "alpha", "beta"):
            if np.any(getattr(self, name) <= 0.0):
                raise DomainError(f"Normal-Gamma {name} must be > 0")


def _diag_expected_stats(state):
    e_log_pi = digamma(state.conc) - digamma(state.conc.sum())
    e_tau, e_log_tau = gamma_moments(state.alpha, state.beta)
    return e_log_pi, e_log_tau, e_tau


def _diag_loglik_matrix(state, x):
    """(n, k) expected log density of each point under each component."""
    _, e_log_tau, e_tau = _diag_expected_stats(state)
    d = x.shape[1]
    quad = (
        (x**2) @ e_tau.T
        - 2.0 * x @ (e_tau * state.m).T
        + (e_tau * state.m**2 + 1.0 / state.b).sum(axis=1)[None, :]
    )
    return 0.5 * (e_log_tau.sum(axis=1)[None, :] - d * LOG_2PI - quad)


def diag_gmm_sweep(state, data, config):
    """One full coordinate sweep: responsibilities, then weight and
    component factors.

    The Normal-Gamma updates are the conjugate posterior formulas with
    responsibility-weighted counts; a component with no effective weight
    falls back to its prior.
    """
    x = _as_matrix(data)

    log_rho = _diag_loglik_matrix(state, x) + (
        digamma(state.conc) - digamma(state.conc.sum())
    )[None, :]
    r = categorical_rows(log_rho)

    nk = r.sum(axis=0)
    conc = config.a0 + nk

    tiny = np.finfo(float).tiny
    denom = np.maximum(nk, tiny)[:, None]
    xbar = np.where(nk[:, None] > tiny, (r.T @ x) / denom, config.m0)
    scatter = np.maximum(r.T @ (x**2) - nk[:, None] * xbar**2, 0.0)

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
    return DiagGmmState(conc, m, b, alpha, beta, r)


def diag_gmm_elbo(state, data, config):
    """Evidence lower bound; equals 0 on an empty dataset at the prior.

    The weights factor and each (k, d) Normal-Gamma factor enter through
    their KL divergences to the prior, the responsibilities through their
    entropy.
    """
    x = _as_matrix(data)
    k = state.m.shape[0]
    e_log_pi, _, _ = _diag_expected_stats(state)

    lik = float((state.r * _diag_loglik_matrix(state, x)).sum())
    assign = float(state.r.sum(axis=0) @ e_log_pi)
    assign_entropy = float(categorical_entropy(state.r).sum())

    weight_kl = dirichlet_kl(state.conc, np.full(k, config.a0))
    component_kl = float(
        normal_gamma_kl(
            (state.m, state.b, state.alpha, state.beta),
            (config.m0, config.b0, config.alpha0, config.beta0),
        ).sum()
    )
    return lik + assign + assign_entropy - weight_kl - component_kl


def diag_predictive_log_density(state, x_new):
    """Log predictive density: mixture of per-coordinate Student-t's.

    Component weights are posterior-mean mixture weights; integrating each
    Normal-Gamma factor against the Gaussian likelihood gives a Student-t
    with ``2 alpha`` degrees of freedom, location ``m``, and precision
    ``alpha b / (beta (1 + b))``.  One point (a scalar or ``(d,)`` row)
    gives a float, an ``(n, d)`` batch an ``(n,)`` array.
    """
    x, point = predictive_rows(x_new, state.m.shape[1])
    nu = 2.0 * state.alpha
    lam = state.alpha * state.b / (state.beta * (1.0 + state.b))
    z = lam * (x[:, None, :] - state.m) ** 2 / nu
    log_t = (
        log_gamma(0.5 * (nu + 1.0))
        - log_gamma(0.5 * nu)
        + 0.5 * (np.log(lam) - np.log(math.pi * nu))
    ) - 0.5 * (nu + 1.0) * np.log1p(z)
    logw = np.log(state.conc / state.conc.sum())
    out = log_sum_exp(logw + log_t.sum(axis=2), axis=1)
    return float(out[0]) if point else out


class DiagGmm(VariationalModel):
    """Engine adapter for the diagonal-covariance mixture."""

    name = "gmm-diag"

    def __init__(self, config):
        self.config = config

    def init_state(self, data, strategy, rng):
        x = _as_matrix(data)
        k = self.config.k
        d = x.shape[1] if x.size else max(x.shape[1], 1)
        c = self.config
        if strategy is InitStrategy.PRIOR or x.shape[0] == 0:
            m = np.full((k, d), c.m0)
        elif strategy is InitStrategy.DATA_CALIBRATED:
            center = x.mean(axis=0)
            spread = x.std(axis=0)
            m = center[None, :] + spread[None, :] * rng.standard_normal((k, d))
        else:
            raise ConfigError("strategy", f"unknown init strategy {strategy!r}")
        return DiagGmmState(
            conc=np.full(k, c.a0),
            m=m,
            b=np.full((k, d), c.b0),
            alpha=np.full((k, d), c.alpha0),
            beta=np.full((k, d), c.beta0),
            r=np.full((x.shape[0], k), 1.0 / k),
        )

    def sweep(self, state, data):
        return diag_gmm_sweep(state, data, self.config)

    def elbo(self, state, data):
        return diag_gmm_elbo(state, data, self.config)

    def log_predictive(self, state, data):
        return diag_predictive_log_density(state, _as_matrix(data))

    def export_state(self, state):
        k, d = state.m.shape
        factors = [ExpFamParam.dirichlet(state.conc)]
        labels = ["pi"]
        for j in range(k):
            for c in range(d):
                factors.append(
                    ExpFamParam.normal_gamma(
                        state.m[j, c], state.b[j, c], state.alpha[j, c], state.beta[j, c]
                    )
                )
                labels.append(f"mu_tau[{j},{c}]")
        for i in range(state.r.shape[0]):
            factors.append(ExpFamParam.categorical(state.r[i]))
            labels.append(f"c[{i}]")
        return MeanFieldState(tuple(factors), tuple(labels))

    def metadata(self):
        return asdict(self.config)

    def summary_dict(self, state):
        return {
            "weight_concentration": state.conc.tolist(),
            "locations": state.m.tolist(),
            "scales": state.b.tolist(),
            "shapes": state.alpha.tolist(),
            "rates": state.beta.tolist(),
        }

    def perturbed_states(self, state, eps):
        k, d = state.m.shape
        for j in range(k):
            for sign in (eps, -eps):
                conc = state.conc.copy()
                conc[j] = max(conc[j] + sign, conc[j] * 0.5)
                yield DiagGmmState(conc, state.m, state.b, state.alpha, state.beta, state.r)
        for j in range(k):
            for c in range(d):
                m = state.m.copy()
                m[j, c] += eps
                yield DiagGmmState(state.conc, m, state.b, state.alpha, state.beta, state.r)
                m = state.m.copy()
                m[j, c] -= eps
                yield DiagGmmState(state.conc, m, state.b, state.alpha, state.beta, state.r)
                for name in ("b", "alpha", "beta"):
                    for factor in (1.0 + eps, 1.0 - eps):
                        arrays = {
                            "b": state.b.copy(),
                            "alpha": state.alpha.copy(),
                            "beta": state.beta.copy(),
                        }
                        arrays[name][j, c] *= factor
                        yield DiagGmmState(
                            state.conc, state.m, arrays["b"], arrays["alpha"], arrays["beta"], state.r
                        )
        for i in range(state.r.shape[0]):
            for j in range(k):
                for sign in (eps, -eps):
                    logits = np.log(np.maximum(state.r[i : i + 1], 1e-300))
                    logits[0, j] += sign
                    r = state.r.copy()
                    r[i] = categorical_rows(logits)[0]
                    yield DiagGmmState(state.conc, state.m, state.b, state.alpha, state.beta, r)


# ---------------------------------------------------------------------------
# data files
# ---------------------------------------------------------------------------


def read_data_csv(path):
    """Read a headerless numeric CSV into an (n, d) array.

    Every row must have the same number of comma-separated finite numeric
    fields, in UTF-8 text; violations raise :class:`DataFormatError`
    carrying the 1-based line number.

    Parsed by numpy's C reader (``np.loadtxt``); a file it rejects or finds
    empty or non-finite is reread line by line, whose result or error stands.
    """
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: reread below
            data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        if data.size and np.isfinite(data).all():
            return data
    except ValueError:
        pass
    return _read_data_csv_lines(path)


def _read_data_csv_lines(path):
    rows = []
    linenos = []
    width = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in numbered_lines(fh):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise DataFormatError(
                    f"expected {width} columns, found {len(fields)}", line=lineno
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError:
                raise DataFormatError("non-numeric field", line=lineno)
            linenos.append(lineno)
    if not rows:
        raise DataFormatError("empty data file", line=1)
    data = np.array(rows)
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        raise DataFormatError("non-finite field", line=linenos[np.argmin(finite)])
    return data
