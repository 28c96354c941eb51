"""Coordinate ascent and stochastic ascent for conditionally conjugate models.

A conditionally conjugate model has one global parameter block with a
conjugate prior and one local latent variable per observation.  Writing the
prior's natural parameter as ``(alpha1, alpha2)``, where ``alpha1`` pairs
with the global sufficient statistics ``s(beta)`` and the scalar ``alpha2``
counts observations, the complete conditional of the global block after
seeing all the data has natural parameter

    (alpha1 + sum_i E[t(z_i, x_i)],  alpha2 + n).

Coordinate ascent alternates exact local updates with that global update.
Stochastic ascent replaces the sum with ``n`` times a uniformly sampled
term, which makes

    alpha + n * [E[t(z_t, x_t)], 1] - lambda

an unbiased estimate of the natural gradient of the ELBO at ``lambda``; no
Fisher matrix is ever formed because the natural gradient in this family is
exactly "conditional update minus current value".  Updates blend in natural
coordinates with a Robbins-Monro step size.

The local family here is categorical (mixture assignments); models with
richer local structure supply their own local step to the same stochastic
ascent (see the topic model module).  That ascent is written once, next to
:func:`step_size`: minibatch sampling, the natural-coordinate blend and its
checks, and the fit metadata; iteration, the ELBO trace and the stopping
rule are the engine's one fit loop, shared with coordinate ascent.

Everything runs on batches.  Observations are the rows of an ``(n, d)``
array (a 1-D array is one column), and the ``n`` local factors are one
``(n, k)`` array of probabilities, each row a categorical distribution over
the ``k`` local values.  :func:`local_probs` is the one local step: a model
maps the batch to ``(n, k)`` logits, and each row is normalized in log
space.  The global step, the ELBO, coordinate ascent and every minibatch of
the stochastic fit go through it.  :func:`local_step` and
:func:`noisy_natural_gradient` are its one-row forms, kept for callers that
reason about a single observation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .engine import _fit_loop
from .errors import ConfigError, DomainError, NumericError
from .expfam import _SIMPLEX_TOL, ExpFamParam, categorical_entropy, categorical_rows

__all__ = [
    "GlobalParam",
    "GlobalStats",
    "CondConjSpec",
    "GlobalLocalState",
    "StepSchedule",
    "prior_param",
    "local_probs",
    "local_step",
    "global_step",
    "natural_gradient",
    "noisy_natural_gradient",
    "step_size",
    "cond_conj_elbo",
    "coordinate_ascent",
    "svi_fit",
]


@dataclass(frozen=True)
class GlobalParam:
    """Natural parameter of the global factor: ``stat`` plus a count.

    ``stat`` pairs coordinatewise with the global sufficient statistics and
    ``count`` with the per-observation log normalizer.  Stored in natural
    coordinates because both the gradient identity and the stochastic
    update blend live there.
    """

    stat: np.ndarray
    count: float

    def __post_init__(self):
        s = np.array(self.stat, dtype=float)
        s.setflags(write=False)
        object.__setattr__(self, "stat", s)
        object.__setattr__(self, "count", float(self.count))

    def natural(self):
        return np.append(self.stat, self.count)


@dataclass(frozen=True)
class GlobalStats:
    """Expectations of the global factor needed by local steps and the ELBO.

    ``stats`` is ``E[s(beta)]``, ``log_norm`` is ``E[a(beta)]`` for the
    per-observation log normalizer ``a``, and ``entropy`` is ``H[q(beta)]``.
    """

    stats: np.ndarray
    log_norm: float
    entropy: float


@dataclass(frozen=True)
class CondConjSpec:
    """One conditionally conjugate model, as the generic machinery sees it.

    Both local callables work on a batch: ``X`` is an ``(n, d)`` array of
    observations and ``probs`` an ``(n, k)`` array of local factors.

    Fields
    ------
    prior_stat, prior_count
        Natural parameter ``(alpha1, alpha2)`` of the conjugate prior.
    prior_log_norm
        Log normalizer of the prior density; including it makes the ELBO
        equal ``-KL(q(beta) || prior)`` exactly when there is no data.
    num_local_values
        Support size ``k`` of the categorical local latent.
    local_natural_param(stats, X)
        ``(n, k)`` expected log complete-conditional weights of the local
        latents (unnormalized logits), given :class:`GlobalStats`.
    expected_global_stats(lam)
        Moments of the global factor at natural parameter ``lam``.
    expected_suff_stat(probs, X)
        ``sum_i E_{probs_i}[t(z_i, x_i)]``: the expected statistics summed
        over the rows, as a vector matching ``prior_stat``.
    """

    prior_stat: np.ndarray
    prior_count: float
    prior_log_norm: float
    num_local_values: int
    local_natural_param: Callable
    expected_global_stats: Callable
    expected_suff_stat: Callable

    def expected_stat(self, probs, x):
        """``E_probs[t(z, x)]`` for one observation ``x``."""
        return self.expected_suff_stat(np.reshape(probs, (1, -1)), _rows([x]))


def _rows(data):
    """Observations as an ``(n, d)`` float array; 1-D input is one column."""
    x = np.asarray(data, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def _check_probs(probs):
    """Reject an ``(n, k)`` array unless every row is a categorical
    distribution: finite, nonnegative, summing to 1 within 1e-12 (the
    checks :meth:`ExpFamParam.categorical` applies to one row)."""
    if not np.all(np.isfinite(probs)):
        raise DomainError("categorical parameters must be finite")
    if np.any(probs < 0.0):
        raise DomainError("categorical requires nonnegative probabilities")
    if probs.size and np.max(np.abs(probs.sum(axis=1) - 1.0)) > _SIMPLEX_TOL:
        raise DomainError("categorical probabilities must sum to 1")
    return probs


def _as_probs(phis):
    """Local factors as a read-only ``(n, k)`` array.

    Accepts the array itself or a sequence of categorical
    :class:`ExpFamParam` (one per observation), converted once.
    """
    if not isinstance(phis, np.ndarray):
        rows = [p.params for p in phis]
        phis = np.reshape(rows, (len(rows), -1 if rows else 0))
    if phis.ndim != 2:
        raise DomainError("local factors must be an (n, k) array")
    probs = _check_probs(np.array(phis, dtype=float))
    probs.setflags(write=False)
    return probs


@dataclass(frozen=True)
class GlobalLocalState:
    """Global natural parameter plus the ``(n, k)`` local factor array.

    ``phis`` may be given as that array or as a sequence of categorical
    :class:`ExpFamParam`; either way it is stored as a read-only array.
    """

    lam: GlobalParam
    phis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phis", _as_probs(self.phis))


@dataclass(frozen=True)
class StepSchedule:
    """Robbins-Monro step sizes ``scale * (t + delay) ** -kappa``.

    ``kappa`` must lie in (0.5, 1] so the steps are square-summable but not
    summable; ``delay >= 0`` down-weights early iterations.
    """

    kappa: float
    delay: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if not (0.5 < self.kappa <= 1.0):
            raise ConfigError("kappa", "must lie in (0.5, 1]")
        if self.delay < 0.0:
            raise ConfigError("delay", "must be >= 0")
        if not (self.scale > 0.0):
            raise ConfigError("scale", "must be > 0")


def step_size(schedule, t):
    """Step size at iteration ``t`` (1-based)."""
    if t < 1:
        raise DomainError("iteration index must be >= 1")
    return schedule.scale * (t + schedule.delay) ** (-schedule.kappa)


def _stochastic_fit(n, batch_size, schedule, config, start, target, score):
    """Stochastic natural-gradient ascent, shared by both stochastic fits.

    ``start(rng)`` gives the starting global parameter as an array in
    natural coordinates (or an affine shift of them), drawing any random
    initialization before the first minibatch.  Iteration ``t`` draws
    ``batch_size`` of the ``n`` indices uniformly without replacement and
    blends in the rescaled update ``lambda_hat = target(lam, indices)``:

        lambda_t = (1 - eps_t) * lambda_{t-1} + eps_t * lambda_hat_t.

    ``score(lam)`` returns ``(elbo, snapshot)`` for the engine's loop; the
    trace is noisy rather than monotone.  Held-out monitoring is rejected.
    """
    if n == 0:
        raise DomainError("stochastic fit requires at least one observation")
    if not (1 <= batch_size <= n):
        raise ConfigError("batch_size", f"must lie in [1, {n}]")
    if config.heldout_fraction > 0.0:
        raise ConfigError(
            "heldout_fraction", "held-out monitoring requires algorithm cavi"
        )
    rng = np.random.default_rng(config.seed)
    lam = start(rng)

    def step(lam, t):
        # sorted for a fixed reduction order; sampling stays uniform
        batch = np.sort(rng.choice(n, size=batch_size, replace=False))
        eps = step_size(schedule, t)
        mixed = (1.0 - eps) * lam + eps * target(lam, batch)
        if not np.all(np.isfinite(mixed)):
            raise NumericError("global parameter is not finite")
        return mixed

    metadata = {
        "algorithm": "svi",
        "seed": config.seed,
        "batch_size": batch_size,
        "kappa": schedule.kappa,
        "delay": schedule.delay,
        "scale": schedule.scale,
        "n_train": n,
    }
    return _fit_loop(config, lam, step, score, metadata)


def prior_param(spec):
    """The prior as a :class:`GlobalParam` (the fit's natural starting point)."""
    return GlobalParam(spec.prior_stat, spec.prior_count)


def local_probs(spec, lam, X):
    """Optimal categorical local factors for the rows of ``X``, as ``(n, k)``.

    Each row is proportional to the exponentiated expected log
    complete-conditional at the current global factor; rows are normalized
    in log space and then checked as categorical distributions.
    """
    stats = spec.expected_global_stats(lam)
    logw = np.asarray(spec.local_natural_param(stats, X), dtype=float)
    if logw.shape != (X.shape[0], spec.num_local_values):
        raise DomainError("local_natural_param must return (n, k) logits")
    return _check_probs(categorical_rows(logw))


def local_step(spec, lam, x):
    """Optimal categorical local factor of one observation ``x``."""
    return ExpFamParam.categorical(local_probs(spec, lam, _rows([x]))[0])


def _local_stat(spec, probs, X):
    """Expected statistics of the local factors, summed over observations."""
    if probs.shape[0] != X.shape[0]:
        raise DomainError("need one local factor per observation")
    k = spec.num_local_values
    return spec.expected_suff_stat(probs.reshape(X.shape[0], k), X)


def global_step(spec, phis, data):
    """Exact coordinate update of the global factor given all local factors."""
    X = _rows(data)
    total = _local_stat(spec, _as_probs(phis), X)
    return GlobalParam(spec.prior_stat + total, spec.prior_count + X.shape[0])


def natural_gradient(lam, coordinate_update):
    """Natural gradient of the ELBO at ``lam``: update minus current value."""
    a = lam.natural()
    b = coordinate_update.natural()
    if a.shape != b.shape:
        raise DomainError("natural parameters have mismatched dimension")
    return b - a


def noisy_natural_gradient(spec, lam, data, index):
    """Unbiased one-sample estimate of the natural gradient at ``lam``.

    Uses observation ``data[index]`` scaled up by ``n``; averaging over all
    indices reproduces :func:`natural_gradient` of the full coordinate
    update exactly.
    """
    X = _rows(data)
    n = X.shape[0]
    if not (0 <= index < n):
        raise DomainError(f"index {index} outside [0, {n})")
    row = X[index : index + 1]
    stat = spec.expected_suff_stat(local_probs(spec, lam, row), row)
    target = GlobalParam(spec.prior_stat + n * stat, spec.prior_count + n)
    return natural_gradient(lam, target)


def cond_conj_elbo(spec, state, data):
    """ELBO of a global-local state, up to a fixed data constant.

    Includes every term that depends on the variational parameters plus the
    prior's log normalizer; the only omission is the per-observation base
    measure ``log h(z_i, x_i)``, which is constant in both the variational
    parameters and the model parameters.  With no data the value is exactly
    ``-KL(q(beta) || prior)``.
    """
    X = _rows(data)
    n = X.shape[0]
    probs = state.phis
    total = spec.prior_stat + _local_stat(spec, probs, X)
    stats = spec.expected_global_stats(state.lam)
    return (
        float(np.dot(total, stats.stats))
        - (spec.prior_count + n) * stats.log_norm
        - spec.prior_log_norm
        + stats.entropy
        + float(categorical_entropy(probs).sum())
    )


def coordinate_ascent(spec, data, lam, max_sweeps=200, tol=1e-10):
    """Full-batch coordinate ascent; returns the state and its ELBO path."""
    X = _rows(data)
    elbos = []
    state = None
    for _ in range(max_sweeps):
        probs = local_probs(spec, lam, X)
        lam = global_step(spec, probs, X)
        state = GlobalLocalState(lam, probs)
        elbos.append(cond_conj_elbo(spec, state, X))
        if len(elbos) > 1:
            if abs(elbos[-1] - elbos[-2]) / (1.0 + abs(elbos[-1])) < tol:
                break
    return state, elbos


def svi_fit(spec, data, schedule, config, init=None, batch_size=1):
    """Stochastic natural-gradient ascent on the global factor.

    Each iteration computes optimal local factors for a minibatch (one
    :func:`local_probs` call), rescales their expected statistics by
    ``n / batch_size``, and blends the resulting global update into the
    current one (see :func:`_stochastic_fit`).  Every ``config.elbo_every``
    iterations a full local pass scores the current global factor; the
    last such pass is the report's state.  Deterministic per seed.
    """
    X = _rows(data)
    n = X.shape[0]

    def start(rng):
        return (init if init is not None else prior_param(spec)).natural()

    def target(lam, batch):
        xb = X[batch]
        probs = local_probs(spec, GlobalParam(lam[:-1], lam[-1]), xb)
        total = spec.expected_suff_stat(probs, xb)
        return np.append(
            spec.prior_stat + (n / batch_size) * total, spec.prior_count + n
        )

    def score(lam):
        lam = GlobalParam(lam[:-1], lam[-1])
        snapshot = GlobalLocalState(lam, local_probs(spec, lam, X))
        return cond_conj_elbo(spec, snapshot, X), snapshot

    return _stochastic_fit(n, batch_size, schedule, config, start, target, score)
