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

The local family here is categorical (mixture assignments; the mixture's
own fit scores with its own ELBO); models with richer local structure
supply their own local step to the same stochastic ascent (see the topic
model module).  That ascent is written once, in the engine next to
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

# The stochastic ascent and its step sizes are the engine's; they are
# importable from here too.
from .engine import StepSchedule, _fit_loop, _frozen, _stochastic_fit, step_size
from .errors import ConfigError, DomainError
from .expfam import (
    _SIMPLEX_TOL,
    ExpFamParam,
    _check_prob_rows,
    categorical_entropy,
    categorical_rows,
)

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
        object.__setattr__(self, "stat", _frozen(self.stat))
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
    local_natural_param(lam, X)
        ``(n, k)`` expected log complete-conditional weights of the local
        latents (unnormalized logits, up to a per-row constant) at the
        global natural parameter ``lam``, from which the model forms them
        in whatever numerically stable way suits it.
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


def _as_probs(phis):
    """Local factors as a read-only, checked ``(n, k)`` array.

    Accepts the array itself or a sequence of rows, one per observation,
    each a categorical :class:`ExpFamParam` or a sequence of probabilities,
    converted once; rows of different lengths are a :class:`DomainError`.
    """
    if not isinstance(phis, np.ndarray):
        rows = [p.params if isinstance(p, ExpFamParam) else p for p in phis]
        try:
            phis = np.array(rows, dtype=float) if rows else np.zeros((0, 0))
        except ValueError:
            raise DomainError("local factors must be numeric rows of equal length")
    if phis.ndim != 2:
        raise DomainError("local factors must be an (n, k) array")
    return _check_prob_rows(_frozen(phis), _SIMPLEX_TOL)


@dataclass(frozen=True)
class GlobalLocalState:
    """Global natural parameter plus the ``(n, k)`` local factor array.

    ``phis`` may be given as that array or as a sequence of rows (each a
    categorical :class:`ExpFamParam` or a sequence of probabilities); either
    way it is stored as a read-only array.
    """

    lam: GlobalParam
    phis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "phis", _as_probs(self.phis))


def prior_param(spec):
    """The prior as a :class:`GlobalParam` (the fit's natural starting point)."""
    return GlobalParam(spec.prior_stat, spec.prior_count)


def local_probs(spec, lam, X):
    """Optimal categorical local factors for the rows of ``X``, as ``(n, k)``.

    Each row is proportional to the exponentiated expected log
    complete-conditional at the current global factor; rows are normalized
    in log space and then checked as categorical distributions.  The array
    is read-only, so the global step and the states built from it keep it
    without a copy.
    """
    return _local_rows(spec, lam, X)[0]


def _local_rows(spec, lam, X):
    """:func:`local_probs` and the log of each probability, which the
    normalization gives for one ``log`` per row."""
    logw = np.asarray(spec.local_natural_param(lam, X), dtype=float)
    if logw.shape != (X.shape[0], spec.num_local_values):
        raise DomainError("local_natural_param must return (n, k) logits")
    probs, log_probs = categorical_rows(logw)
    _check_prob_rows(probs, _SIMPLEX_TOL)
    probs.setflags(write=False)
    return probs, log_probs


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
    """Full-batch coordinate ascent on the engine's one fit loop, which checks
    the ELBO finite and nondecreasing; returns the state and its ELBO path."""
    if max_sweeps < 1:
        raise ConfigError("max_sweeps", "must be >= 1")
    X = _rows(data)

    def sweep(s, t):  # the first sweep starts from the bare ``lam``
        probs = local_probs(spec, s if t == 1 else s.lam, X)
        return GlobalLocalState(global_step(spec, probs, X), probs)

    def score(s):
        return cond_conj_elbo(spec, s, X), s

    report = _fit_loop(max_sweeps, tol, 1, lam, sweep, score, {}, monotone=True)
    return report.model_state, [p.elbo for p in report.elbo_trace]


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

    def score(lam):
        snapshot = GlobalLocalState(lam, local_probs(spec, lam, X))
        return cond_conj_elbo(spec, snapshot, X), snapshot

    init = prior_param(spec) if init is None else init
    return _spec_stochastic_fit(spec, X, schedule, config, init, batch_size, score)


def _spec_stochastic_fit(spec, X, schedule, config, init, batch_size, score):
    """:func:`_stochastic_fit` on a spec from the global parameter ``init``,
    blending in ``prior + (n / batch_size) * minibatch statistics``.
    ``score(lam)`` gets a :class:`GlobalParam` and returns ``(elbo,
    snapshot)``, so a model can report its own ELBO and state."""
    n = X.shape[0]

    def target(lam, batch):
        xb = X[batch]
        probs = local_probs(spec, GlobalParam(lam[:-1], lam[-1]), xb)
        total = spec.expected_suff_stat(probs, xb)
        return np.append(
            spec.prior_stat + (n / batch_size) * total, spec.prior_count + n
        )

    return _stochastic_fit(
        n, batch_size, schedule, config, lambda rng: init.natural(), target,
        lambda lam: score(GlobalParam(lam[:-1], lam[-1])),
    )
