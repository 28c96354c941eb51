"""Bayesian Gaussian mixtures under mean-field coordinate ascent.

Two variants live here:

* :class:`UnitVarianceGmm` -- K components with identity observation
  covariance, uniform mixing weights, and independent ``Normal(0, sigma2)``
  priors on each mean coordinate.  It is conditionally conjugate, and
  ``conjugate_spec`` holds its one set of steps: the assignment
  responsibilities are the spec's local step and the component mean
  factors its global step (:func:`condconj.global_step`).  The CAVI sweep
  and the stochastic fit :func:`gmm_svi_fit` both run on them and both
  report :func:`gmm_elbo`.

* :class:`DiagGmm` -- Dirichlet-weighted mixture with per-coordinate
  Normal-Gamma factors on (mean, precision), i.e. diagonal covariances
  learned from data.

A fit prepares its rows once (:class:`MixtureData`): centred on their mean
and augmented, so one product with a ``(k, .)`` weight matrix gives every
point's expected log density under every component, and one product
``phi^T aug`` the responsibilities' sufficient statistics.  A sweep keeps
those statistics and the responsibilities' entropy in the state it builds
(:class:`SweepStats`), so the ELBO is an ``O(k d)`` sum of statistics
against weights; a state without them, or scored on any but the prepared
rows object they came from, has them computed from ``phi`` by that code.

States hold plain arrays and are treated as immutable: every update
returns fresh arrays, so a recorded state is never changed by later sweeps.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .condconj import (
    CondConjSpec,
    GlobalParam,
    GlobalStats,
    _local_rows,
    _spec_stochastic_fit,
    local_probs,
)
# read_data_csv is the engine's reader, importable from here too.
from .engine import (
    VariationalModel,
    _frozen,
    doc_array,
    init_state,
    predictive_rows,
    read_data_csv,
)
from .errors import ConfigError, DomainError
from .expfam import (
    LOG_2PI,
    _check_prob_rows,
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
    "gmm_elbo",
    "gmm_svi_fit",
    "predictive_log_density",
    "simulate",
    "conjugate_spec",
    "global_param_from_state",
    "DiagGmmConfig",
    "DiagGmmState",
    "DiagGmm",
    "diag_gmm_elbo",
    "diag_predictive_log_density",
    "read_data_csv",
]


def _as_matrix(data):
    """Data as an (n, d) float matrix; 1-D input is a single column."""
    if isinstance(data, MixtureData):
        return data.x
    x = np.asarray(data, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DomainError("data must be a vector or a 2-D array")
    if x.size and not np.all(np.isfinite(x)):
        raise DomainError("data must be finite")
    return x


class MixtureData:
    """Finite ``(n, d)`` rows ``x``, their column means ``centre`` and
    ``aug``, the rows ``[x~, 1, x~^2]`` (``per_coordinate``) or ``[x~, 1,
    |x~|^2]`` of ``x~ = x - centre``.  Indexing takes rows and keeps the
    centre, as a minibatch does."""

    def __init__(self, x, per_coordinate, centre=None, aug=None):
        if centre is None:
            centre = x.mean(axis=0) if len(x) else np.zeros(x.shape[1])
        if aug is None:
            xc = x - centre
            sq = xc * xc if per_coordinate else np.einsum("nd,nd->n", xc, xc)[:, None]
            aug = np.hstack([xc, np.ones((len(x), 1)), sq])
        self.x, self.shape, self.centre, self.aug = x, x.shape, centre, aug
        self.per_coordinate = per_coordinate

    @classmethod
    def of(cls, data, per_coordinate):
        """``data`` in this layout: itself when it already is, else prepared."""
        if isinstance(data, cls) and data.per_coordinate == per_coordinate:
            return data
        return cls(_as_matrix(data), per_coordinate)

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, rows):
        return MixtureData(self.x[rows], self.per_coordinate, self.centre, self.aug[rows])


class SweepStats(NamedTuple):
    """Statistics ``phi^T data.aug`` of responsibilities ``phi`` on the
    prepared rows ``data``, and their total entropy."""

    data: MixtureData
    sums: np.ndarray
    entropy: float


def _local_stats(phi, data, log_phi=None):
    """The :class:`SweepStats` of ``phi`` on ``data``, the entropy from the
    local step's ``log_phi`` when given."""
    if phi.shape[0] != len(data):
        raise DomainError("need one responsibility row per observation")
    if log_phi is None:
        entropy = float(categorical_entropy(phi).sum())
    else:
        entropy = -float(np.einsum("nk,nk->", phi, log_phi))
    return SweepStats(data, phi.T @ data.aug, entropy)


def _lik_and_entropy(phi, kept, data, w):
    """``<sums, w>``, the expected log likelihood at weights ``w``, plus the
    entropy of ``phi``, from the :class:`SweepStats` a sweep ``kept`` if it
    took them on this prepared ``data`` object, else from ones computed here."""
    if kept is None or kept.data is not data:
        kept = _local_stats(phi, data)
    return float(np.einsum("kj,kj->", kept.sums, w)) + kept.entropy


def _initial_means(x, k, rng, prior_mean):
    """``(k, d)`` starting component locations, drawn from a Gaussian matched
    to each data coordinate's empirical mean and variance, which breaks the
    symmetric fixed point; with no data they all sit at ``prior_mean``."""
    d = x.shape[1] if x.size else max(x.shape[1], 1)
    if x.shape[0] == 0:
        return np.full((k, d), prior_mean)
    return x.mean(axis=0) + x.std(axis=0) * rng.standard_normal((k, d))


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
    """Gaussian mean factors (m, s2), each (k, d), and responsibilities (n, k).

    A sweep passes ``kept = (lam, stats)``: the natural parameter ``(m, s2)``
    came from, for the next local step, and the :class:`SweepStats`; it
    checked ``phi`` where it made it.  Other states have ``lam`` and
    ``stats`` None; ``dataclasses.replace`` reads the unset ``kept``, so a
    copy has them None too.
    """

    m: np.ndarray
    s2: np.ndarray
    phi: np.ndarray
    kept: InitVar[tuple] = None

    def __post_init__(self, kept):
        object.__setattr__(self, "m", _frozen(self.m))
        object.__setattr__(self, "s2", _frozen(self.s2))
        object.__setattr__(self, "phi", _frozen(self.phi))
        lam, stats = kept or (None, None)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "stats", stats)
        if self.m.shape != self.s2.shape or self.m.ndim != 2:
            raise DomainError("m and s2 must both be (k, d)")
        if np.any(self.s2 <= 0.0):
            raise DomainError("mean-factor variances must be > 0")
        if self.phi.ndim != 2 or self.phi.shape[1] != self.m.shape[0]:
            raise DomainError("phi must be (n, k)")
        if stats is None:
            _check_prob_rows(self.phi, 1e-9, "phi rows must be probability vectors")


def update_assignments(state, data):
    """Optimal responsibilities given the current mean factors.

    Row ``i`` is proportional to ``exp(E[mu_k] . x_i - E[|mu_k|^2] / 2)``,
    normalized in log space.  Depends only on the mean factors, not on the
    previous responsibilities.  This is the local step of
    :func:`conjugate_spec` at :func:`global_param_from_state` (the prior
    variance does not enter it).
    """
    x = MixtureData.of(data, per_coordinate=False)
    spec = conjugate_spec(state.m.shape[0], 1.0, x.shape[1])
    return local_probs(spec, global_param_from_state(state), x)


def _unit_weights(m, var, centre):
    """``(k, d + 2)`` weights of the ``[x~, 1, |x~|^2]`` rows giving the
    expected log density ``-(|x - m_k|^2 + var_k + d log(2 pi)) / 2``,
    formed on the centred ``m_k - centre``."""
    mc = m - centre
    const = -0.5 * (np.einsum("kd,kd->k", mc, mc) + var + m.shape[1] * LOG_2PI)
    return np.column_stack([mc, const, np.full(m.shape[0], -0.5)])


def gmm_elbo(state, data, sigma2):
    """Evidence lower bound with every constant kept.

    The mean factors enter through their KL divergence to the
    ``Normal(0, sigma2)`` prior and the responsibilities through their
    entropy.  Keeping all constants makes the bound directly comparable to
    the log evidence: with one component the converged value equals
    log p(x) exactly, and with no data the value is 0 at the prior.
    """
    data = MixtureData.of(data, per_coordinate=False)
    w = _unit_weights(state.m, state.s2.sum(axis=1), data.centre)
    assign_prior = -len(data) * math.log(state.m.shape[0])
    mean_kl = float(gaussian_kl(state.m, state.s2, 0.0, sigma2).sum())
    return assign_prior + _lik_and_entropy(state.phi, state.stats, data, w) - mean_kl


def predictive_log_density(state, x_new):
    """Log of the approximate predictive mixture density.

    Plugs the posterior-mean locations into equal-weight unit-variance
    components: ``log (1/K) sum_k Normal(x; m_k, I)``.  One point (a scalar
    or ``(d,)`` row) gives a float, an ``(n, d)`` batch an ``(n,)`` array.
    The rows are centred on the mean location, so a point near a component
    keeps its digits.
    """
    x, point = predictive_rows(x_new, state.m.shape[1])
    centre = state.m.mean(axis=0)
    comp = MixtureData(x, False, centre).aug @ _unit_weights(state.m, 0.0, centre).T
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
    if n < 1:
        raise ConfigError("n", "must be >= 1")
    if dim < 1:
        raise ConfigError("dim", "must be >= 1")
    if not math.isfinite(mean_scale):
        raise ConfigError("mean_scale", "must be finite")
    if not 0.0 <= min_separation < math.inf:
        raise ConfigError("min_separation", "must be finite and >= 0")
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
    """Engine adapter for the unit-variance mixture.

    A sweep is the local and the global step of :func:`conjugate_spec`,
    the same steps :func:`gmm_svi_fit` takes on minibatches.
    """

    name = "gmm"
    config_type = UniGmmConfig

    def svi_fit(self, data, schedule, fit_config, batch_size):
        return gmm_svi_fit(data, self.config, schedule, fit_config, batch_size)

    def prepare(self, data):
        return MixtureData.of(data, per_coordinate=False)

    def init_state(self, data, rng):
        x = _as_matrix(data)
        k = self.config.k
        m = _initial_means(x, k, rng, 0.0)
        s2 = np.full(m.shape, self.config.sigma2)
        phi = np.full((x.shape[0], k), 1.0 / k)
        return UniGmmState(m, s2, phi)

    def sweep(self, state, data):
        data = self.prepare(data)
        spec = conjugate_spec(self.config.k, self.config.sigma2, data.shape[1])
        phi, stats = _local_pass(spec, global_param_from_state(state), data)
        stat = spec.prior_stat + _unit_suff_stat(stats.sums, data.centre)
        return _state_from_param(GlobalParam(stat, spec.prior_count + len(data)), phi, stats)

    def elbo(self, state, data):
        return gmm_elbo(state, data, self.config.sigma2)

    def log_predictive(self, state, data):
        return predictive_log_density(state, _as_matrix(data))

    def export_state(self, state):
        return {
            "means": state.m.tolist(),
            "variances": state.s2.tolist(),
        }

    @classmethod
    def load_state(cls, doc, fit_dir):
        m = doc_array(doc, "means", 2)
        state = UniGmmState(m, doc_array(doc, "variances", 2), np.zeros((0, m.shape[0])))
        return cls.from_document(doc, k=m.shape[0]), state

    def data_width(self, state):
        return state.m.shape[1]


# ---------------------------------------------------------------------------
# global-local (conjugate) form of the unit-variance mixture
# ---------------------------------------------------------------------------


def conjugate_spec(k, sigma2, dim=1):
    """The unit-variance mixture as a :class:`CondConjSpec`.

    Global sufficient statistics are the flattened mean coordinates
    followed by one per-component quadratic block, so the prior natural
    parameter is zeros for the mean block, ``1/sigma2`` for each quadratic
    coordinate, and a count of 0.  The global step gives the mean factors
    ``m_k = sum_i phi_ik x_i / (1/sigma2 + sum_i phi_ik)`` with variance
    ``1 / (1/sigma2 + sum_i phi_ik)``, shared across coordinates.

    The local callables take a batch ``X`` of shape ``(n, dim)`` or its
    :class:`MixtureData`: ``local_natural_param`` returns the ``(n, k)``
    expected log densities, up to a per-row constant ``X E[mu]^T -
    E[|mu_k|^2] / 2``, and ``expected_suff_stat(probs, X)`` the statistics
    summed over rows, ``[vec(probs^T X), probs.sum(axis=0)]``.
    """
    UniGmmConfig(k, sigma2)  # validates
    if dim < 1:
        raise ConfigError("dim", "must be >= 1")
    kd = k * dim

    def expected_global_stats(lam):
        m, s2 = _moments(lam, k, dim)
        second = -0.5 * ((m**2).sum(axis=1) + dim * s2)
        entropy = 0.5 * dim * float(np.log(2.0 * math.pi * math.e * s2).sum())
        return GlobalStats(
            stats=np.concatenate([m.ravel(), second]),
            log_norm=0.0,
            entropy=entropy,
        )

    def expected_suff_stat(probs, X):
        rows = MixtureData.of(X, per_coordinate=False)
        return _unit_suff_stat(probs.T @ rows.aug, rows.centre)

    def local_natural_param(lam, X):
        rows = MixtureData.of(X, per_coordinate=False)
        m, s2 = _moments(lam, k, dim)
        return rows.aug @ _unit_weights(m, dim * s2, rows.centre).T

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


def _unit_suff_stat(sums, centre):
    """The spec's statistics ``[vec(sum_i phi_i x_i^T), sum_i phi_i]`` from
    the centred sums ``phi^T [x~, 1, |x~|^2]``."""
    d = centre.shape[0]
    nk = sums[:, d]
    return np.concatenate([(sums[:, :d] + nk[:, None] * centre).ravel(), nk])


def _local_pass(spec, lam, data):
    """The spec's local step at ``lam`` on prepared rows: responsibilities
    and their :class:`SweepStats`."""
    phi, log_phi = _local_rows(spec, lam, data)
    return phi, _local_stats(phi, data, log_phi)


def _moments(lam, k, dim):
    """Means ``(k, dim)`` and shared variances ``(k,)`` of the mean factors
    at the natural global parameter ``lam``."""
    b = lam.stat[k * dim :]
    if np.any(b <= 0.0):
        raise DomainError("quadratic coordinates must stay > 0")
    return lam.stat[: k * dim].reshape(k, dim) / b[:, None], 1.0 / b


def global_param_from_state(state):
    """Natural global parameter matching a unit-variance mixture state.

    A state a sweep built returns the parameter it was read from.  For any
    other, the count coordinate is set to the number of responsibility
    rows, which is its value at any coordinate-ascent fixed point.  A
    component's variance is shared by its coordinates, so each row of
    ``s2`` must be constant.
    """
    if state.lam is not None:
        return state.lam
    if np.any(state.s2 != state.s2[:, :1]):
        raise DomainError("mean-factor variances must be equal across coordinates")
    b = 1.0 / state.s2[:, 0]
    return GlobalParam(
        np.concatenate([(state.m * b[:, None]).ravel(), b]),
        float(state.phi.shape[0]),
    )


def _state_from_param(lam, phi, stats):
    """The :class:`UniGmmState` of natural global parameter ``lam`` and
    ``(n, k)`` responsibilities ``phi`` with their :class:`SweepStats`."""
    k = phi.shape[1]
    m, s2 = _moments(lam, k, lam.stat.size // k - 1)
    return UniGmmState(m, np.broadcast_to(s2[:, None], m.shape), phi, (lam, stats))


def gmm_svi_fit(data, config, schedule, fit_config, batch_size=1):
    """Stochastic fit of the unit-variance mixture; returns a :class:`FitReport`.

    Starts from the data-calibrated state seeded by ``fit_config.seed`` and
    runs the stochastic ascent of :func:`condconj.svi_fit` on
    :func:`conjugate_spec`, so the minibatches for a seed are the same.
    Each ELBO pass takes the local step on all of ``data`` and scores the
    resulting :class:`UniGmmState` with :func:`gmm_elbo`, which keeps every
    constant; that state is the report's ``model_state``.
    """
    model = UnitVarianceGmm(config)
    x = model.prepare(data)
    spec = conjugate_spec(config.k, config.sigma2, x.shape[1])
    start = init_state(model, x, fit_config.seed)

    def score(lam):
        state = _state_from_param(lam, *_local_pass(spec, lam, x))
        return model.elbo(state, x), state

    report = _spec_stochastic_fit(
        spec, x, schedule, fit_config, global_param_from_state(start),
        batch_size, score,
    )
    report.metadata.update(model.metadata())
    return report


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
    responsibilities; a sweep passes ``kept``, its :class:`SweepStats`, which
    becomes ``stats`` (None on other states and copies), as on
    :class:`UniGmmState`."""

    conc: np.ndarray  # (k,) Dirichlet concentrations
    m: np.ndarray  # (k, d) Normal-Gamma locations
    b: np.ndarray  # (k, d) Normal-Gamma scales
    alpha: np.ndarray  # (k, d) Gamma shapes
    beta: np.ndarray  # (k, d) Gamma rates
    r: np.ndarray  # (n, k) responsibilities
    kept: InitVar[SweepStats] = None

    def __post_init__(self, kept):
        for name in ("conc", "m", "b", "alpha", "beta", "r"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "stats", kept)
        k = self.m.shape[:1]
        shapes = {getattr(self, n).shape for n in ("m", "b", "alpha", "beta")}
        if self.m.ndim != 2 or len(shapes) != 1 or self.conc.shape != k:
            raise DomainError("state arrays have inconsistent dimensions")
        if self.r.shape[1:] != k:
            raise DomainError("responsibilities must be (n, k)")
        if kept is None:
            _check_prob_rows(self.r, 1e-9, "responsibility rows must be probability vectors")
        if np.any(self.conc <= 0.0):
            raise DomainError("Dirichlet concentrations must be > 0")
        for name in ("b", "alpha", "beta"):
            if np.any(getattr(self, name) <= 0.0):
                raise DomainError(f"Normal-Gamma {name} must be > 0")


def _diag_weights(state, centre):
    """``(k, 2d + 1)`` weights of the ``[x~, 1, x~^2]`` rows giving each
    point's expected log joint with each component, ``E[log pi_k] +
    E[log Normal(x; mu_k, 1/tau_k)]``, formed on the centred ``m_k -
    centre``."""
    e_log_pi = digamma(state.conc) - digamma(state.conc.sum())
    e_tau, e_log_tau = gamma_moments(state.alpha, state.beta)
    mc = state.m - centre
    per_coord = e_log_tau - e_tau * mc**2 - 1.0 / state.b
    const = e_log_pi + 0.5 * (per_coord.sum(axis=1) - state.m.shape[1] * LOG_2PI)
    return np.column_stack([e_tau * mc, const, -0.5 * e_tau])


def diag_gmm_elbo(state, data, config):
    """Evidence lower bound; equals 0 on an empty dataset at the prior.

    The weights factor and each (k, d) Normal-Gamma factor enter through
    their KL divergences to the prior, the responsibilities through their
    entropy.
    """
    data = MixtureData.of(data, per_coordinate=True)
    k = state.m.shape[0]
    lik = _lik_and_entropy(state.r, state.stats, data, _diag_weights(state, data.centre))
    weight_kl = dirichlet_kl(state.conc, np.full(k, config.a0))
    component_kl = float(
        normal_gamma_kl(
            (state.m, state.b, state.alpha, state.beta),
            (config.m0, config.b0, config.alpha0, config.beta0),
        ).sum()
    )
    return lik - weight_kl - component_kl


def diag_predictive_log_density(state, x_new):
    """Log predictive density: mixture of per-coordinate Student-t's.

    Component weights are posterior-mean mixture weights; integrating each
    Normal-Gamma factor against the Gaussian likelihood gives a Student-t
    with ``2 alpha`` degrees of freedom, location ``m``, and precision
    ``alpha b / (beta (1 + b))``.  One point (a scalar or ``(d,)`` row)
    gives a float, an ``(n, d)`` batch an ``(n,)`` array.  Every step is
    taken in log space, so a document whose precision or distances overflow
    a double still scores when its density does not.
    """
    x, point = predictive_rows(x_new, state.m.shape[1])
    nu = 2.0 * state.alpha
    log_lam = np.log(state.alpha) + np.log(state.b) - np.log(state.beta) - np.log1p(state.b)
    # log1p(r^2) for the scaled distance r = sqrt(lam / nu) |x - m|, from
    # 2 log r (-inf where x == m): max(2 log r, 0) + log1p(exp(-|2 log r|))
    dist = np.abs(x[:, None, :] - state.m)
    log_dist = np.log(dist, out=np.full(dist.shape, -np.inf), where=dist > 0.0)
    two_log_r = log_lam - np.log(nu) + 2.0 * log_dist
    log1p_r2 = np.maximum(two_log_r, 0.0) + np.log1p(np.exp(-np.abs(two_log_r)))
    log_t = (
        log_gamma(0.5 * (nu + 1.0))
        - log_gamma(0.5 * nu)
        + 0.5 * (log_lam - np.log(math.pi * nu))
    ) - 0.5 * (nu + 1.0) * log1p_r2
    log_conc = np.log(state.conc)
    out = log_sum_exp(log_conc - log_sum_exp(log_conc) + log_t.sum(axis=2), axis=1)
    return float(out[0]) if point else out


class DiagGmm(VariationalModel):
    """Engine adapter for the diagonal-covariance mixture."""

    name = "gmm-diag"
    config_type = DiagGmmConfig

    def prepare(self, data):
        return MixtureData.of(data, per_coordinate=True)

    def init_state(self, data, rng):
        x = _as_matrix(data)
        c = self.config
        m = _initial_means(x, c.k, rng, c.m0)
        return DiagGmmState(
            conc=np.full(c.k, c.a0),
            m=m,
            b=np.full(m.shape, c.b0),
            alpha=np.full(m.shape, c.alpha0),
            beta=np.full(m.shape, c.beta0),
            r=np.full((x.shape[0], c.k), 1.0 / c.k),
        )

    def sweep(self, state, data):
        """Responsibilities, then every factor set to its complete
        conditional from the :class:`SweepStats` sums, in the centred frame.

        With ``n_k`` a component's count, its Normal-Gamma factors get ``b =
        b0 + n_k``, ``m = (b0 m0 + sum r x) / b``, ``alpha = alpha0 + n_k /
        2`` and ``beta = beta0 + (sum r (x - m)^2 + b0 (m - m0)^2) / 2``, a
        sum of nonnegative terms (Chan, Golub & LeVeque 1983).  ``m - m0`` is
        formed as ``(sum r x - n_k m0) / b``, so an empty component gets its
        prior exactly, with no branch.
        """
        c, data = self.config, self.prepare(data)
        r, log_r = categorical_rows(data.aug @ _diag_weights(state, data.centre).T)
        _check_prob_rows(r, 1e-9, "responsibility rows must be probability vectors")
        r.setflags(write=False)
        stats = _local_stats(r, data, log_r)

        d = data.shape[1]
        nk, s1, s2 = stats.sums[:, d : d + 1], stats.sums[:, :d], stats.sums[:, d + 1 :]
        m0 = c.m0 - data.centre  # m0, m and the sums are centred
        b = c.b0 + nk
        shift = (s1 - nk * m0) / b  # m - m0
        m = m0 + shift
        scatter = np.maximum(s2 - 2.0 * m * s1 + nk * m * m, 0.0)  # sum r (x - m)^2
        beta = c.beta0 + 0.5 * (scatter + c.b0 * shift * shift)
        alpha = np.broadcast_to(c.alpha0 + 0.5 * nk, m.shape)
        return DiagGmmState(c.a0 + nk[:, 0], m + data.centre, np.broadcast_to(b, m.shape),
                            alpha, beta, r, stats)

    def elbo(self, state, data):
        return diag_gmm_elbo(state, data, self.config)

    def log_predictive(self, state, data):
        return diag_predictive_log_density(state, _as_matrix(data))

    def export_state(self, state):
        return {
            "weight_concentration": state.conc.tolist(),
            "locations": state.m.tolist(),
            "scales": state.b.tolist(),
            "shapes": state.alpha.tolist(),
            "rates": state.beta.tolist(),
        }

    @classmethod
    def load_state(cls, doc, fit_dir):
        m = doc_array(doc, "locations", 2)
        conc = doc_array(doc, "weight_concentration", 1)
        b, alpha, beta = (doc_array(doc, key, 2) for key in ("scales", "shapes", "rates"))
        state = DiagGmmState(conc, m, b, alpha, beta, np.zeros((0, m.shape[0])))
        return cls.from_document(doc, k=m.shape[0]), state

    def data_width(self, state):
        return state.m.shape[1]
