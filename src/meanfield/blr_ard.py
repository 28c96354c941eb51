"""Bayesian linear regression with per-coefficient relevance priors.

The model, in precision parameterization:

    y_i | beta, tau   ~ Normal(x_i . beta, 1/tau)
    beta | tau, alpha ~ Normal(0, (tau diag(alpha))^-1)
    tau               ~ Gamma(a0, b0)
    alpha_d           ~ Gamma(c0, d0)     independently per coefficient

The variational family keeps (beta, tau) together as one Normal-Gamma
block, ``q(beta, tau) = Normal(beta; beta*, V*/tau) Gamma(tau; a*, b*)``,
and factorizes the relevances, ``q(alpha_d) = Gamma(c*, d*_d)``.  Both
coordinate updates are exact conjugate refreshes, so the fit is a plain
two-block coordinate ascent and the ELBO is monotone.

A large fitted ``E[alpha_d]`` marks coefficient ``d`` as irrelevant: its
prior precision grows and the posterior mean is shrunk toward zero.

All linear algebra goes through a Cholesky factor ``L`` of the coefficient
precision ``V*^-1`` and its inverse, so that ``V* = L^-T L^-1``; the
refresh that builds a state keeps the pair in it.  The data enter through
:class:`RegressionData`, whose ``X^T X`` is formed once per fit.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .engine import VariationalModel, _frozen, cavi_fit, predictive_rows
from .errors import ConfigError, DomainError, NumericError
from .expfam import LOG_2PI, gamma_kl, gamma_moments, gaussian_log_pdf

__all__ = [
    "BlrArdConfig",
    "BlrArdState",
    "BlrArd",
    "update_coeff_precision",
    "update_relevance",
    "blr_expectations",
    "blr_elbo",
    "blr_log_predictive",
    "blr_ard_fit",
    "simulate",
]


@dataclass(frozen=True)
class BlrArdConfig:
    """Gamma hyperparameters for the noise and relevance precisions.

    ``fix_relevance`` freezes ``E[alpha] = 1`` and skips the relevance
    update, reducing the model to conjugate ridge regression whose exact
    posterior lives inside the variational family.
    """

    a0: float = 1.0
    b0: float = 1.0
    c0: float = 1.0
    d0: float = 1.0
    fix_relevance: bool = False

    def __post_init__(self):
        for name in ("a0", "b0", "c0", "d0"):
            v = getattr(self, name)
            if not (v > 0.0) or not math.isfinite(v):
                raise ConfigError(name, "must be finite and > 0")


@dataclass(frozen=True)
class BlrArdState:
    """Normal-Gamma coefficient/noise block plus relevance Gamma factors;
    ``factor`` is ``(L, L^-1)`` for the Cholesky factor ``L`` of ``v_inv``
    if the refresh that built the state passed it as ``kept``, else None
    (also on a ``dataclasses.replace`` copy)."""

    beta: np.ndarray  # (D,) coefficient location beta*
    v_inv: np.ndarray  # (D, D) coefficient precision scale, SPD
    a: float  # noise Gamma shape a*
    b: float  # noise Gamma rate b*
    c: float  # shared relevance Gamma shape c*
    d: np.ndarray  # (D,) relevance Gamma rates d*
    kept: InitVar[tuple] = None

    def __post_init__(self, factor):
        object.__setattr__(self, "beta", _frozen(self.beta))
        object.__setattr__(self, "v_inv", _frozen(self.v_inv))
        object.__setattr__(self, "d", _frozen(self.d))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "b", float(self.b))
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "factor", factor)
        dd = self.beta.shape[0]
        if self.v_inv.shape != (dd, dd) or self.d.shape != (dd,):
            raise DomainError("state arrays have inconsistent dimensions")
        if self.a <= 0.0 or self.b <= 0.0 or self.c <= 0.0 or np.any(self.d <= 0.0):
            raise DomainError("Gamma parameters must be > 0")


def _split(data):
    xy = np.asarray(data, dtype=float)
    if xy.ndim != 2 or xy.shape[1] < 2:
        raise DomainError("expected a design matrix with a response column")
    return xy[:, :-1], xy[:, -1]


class RegressionData:
    """Rows ``(x_1 .. x_D, y)`` split once, with the data constants the
    updates and the ELBO read: ``xtx = X^T X``, ``xty = X^T y`` and
    ``yty = y . y``; ``np.asarray`` gives the rows."""

    def __init__(self, data):
        self.rows = np.asarray(data, dtype=float)
        x, y = self.x, self.y = _split(self.rows)
        self.xtx, self.xty, self.yty = x.T @ x, x.T @ y, float(y @ y)

    @classmethod
    def of(cls, data):
        return data if isinstance(data, cls) else cls(data)

    def __len__(self):
        return self.rows.shape[0]

    def __array__(self, dtype=None, copy=None):
        return self.rows


def _chol(v_inv):
    if not np.all(np.isfinite(v_inv)):
        raise NumericError("coefficient precision overflowed")
    try:
        lower = np.linalg.cholesky(v_inv)
    except np.linalg.LinAlgError:
        raise NumericError("coefficient precision is not positive definite")
    return lower


def _factor(state):
    """``(L, L^-1)`` of ``state.v_inv``: kept by the state, else computed."""
    if state.factor is None:
        lower = _chol(state.v_inv)
        return lower, np.linalg.inv(lower)
    return state.factor


def blr_expectations(state, config):
    """Moments the updates and ELBO consume.

    Returns a dict with ``e_tau``, ``e_log_tau``, ``e_alpha``,
    ``e_log_alpha``, ``v_diag``, ``log_det_v``, ``e_tau_beta_sq`` where
    ``e_tau_beta_sq[d] = E[tau beta_d^2] = beta*_d^2 a*/b* + V*_dd``, and
    ``chol_inv``, the inverse ``L^-1`` of the Cholesky factor of ``V*^-1``.
    """
    lower, inv = _factor(state)
    v_diag = (inv * inv).sum(axis=0)
    log_det_v = -2.0 * float(np.log(np.diag(lower)).sum())
    e_tau, e_log_tau = gamma_moments(state.a, state.b)
    if config.fix_relevance:
        e_alpha = np.ones_like(state.d)
        e_log_alpha = np.zeros_like(state.d)
    else:
        e_alpha, e_log_alpha = gamma_moments(state.c, state.d)
    return {
        "e_tau": e_tau,
        "e_log_tau": e_log_tau,
        "e_alpha": e_alpha,
        "e_log_alpha": e_log_alpha,
        "v_diag": v_diag,
        "log_det_v": log_det_v,
        "e_tau_beta_sq": state.beta**2 * e_tau + v_diag,
        "chol_inv": inv,
    }


def update_coeff_precision(state, data, config):
    """Exact refresh of the joint coefficient/noise factor.

    ``V*^-1 = E[diag alpha] + sum_i x_i x_i^T``, ``beta* = V* X^T y``,
    ``a* = a0 + n/2``, ``b* = b0 + (y.y - beta*.V*^-1.beta*)/2``.  The
    quadratic form reuses ``V*^-1 beta* = X^T y``, so ``b*`` needs only a
    dot product and stays positive by construction.
    """
    data = RegressionData.of(data)
    if config.fix_relevance:
        e_alpha = np.ones_like(state.d)
    else:
        e_alpha = state.c / state.d
    v_inv = np.diag(e_alpha) + data.xtx
    lower = _chol(v_inv)
    inv = np.linalg.inv(lower)
    beta = inv.T @ (inv @ data.xty)
    a = config.a0 + 0.5 * len(data)
    b = config.b0 + 0.5 * (data.yty - beta @ data.xty)
    return BlrArdState(beta, v_inv, a, b, state.c, state.d, (lower, inv))


def update_relevance(state, config):
    """Exact refresh of each relevance factor.

    ``c* = c0 + 1/2`` and ``d*_d = d0 + E[tau beta_d^2] / 2``; a no-op when
    relevances are fixed.
    """
    if config.fix_relevance:
        return state
    exp = blr_expectations(state, config)
    c = config.c0 + 0.5
    d = config.d0 + 0.5 * exp["e_tau_beta_sq"]
    return BlrArdState(state.beta, state.v_inv, state.a, state.b, c, d, state.factor)


def blr_elbo(state, data, config):
    """Evidence lower bound with all constants kept.

    The noise factor, and unless ``fix_relevance`` each relevance factor,
    enter through their Gamma KL divergences to the prior.  With
    ``fix_relevance`` the bound is tight at the exact conjugate posterior.
    """
    data = RegressionData.of(data)
    n, dim = data.x.shape
    exp = blr_expectations(state, config)
    e_tau, e_log_tau = exp["e_tau"], exp["e_log_tau"]

    # The residual is formed directly, so a noiseless y cannot cancel to a
    # negative sum of squares; sum_i x_i^T V* x_i is <V*, X^T X>.
    resid = data.y - data.x @ state.beta
    inv = exp["chol_inv"]
    trace_term = float(np.einsum("ij,ij->", inv.T @ inv, data.xtx))
    e_loglik = (
        -0.5 * n * LOG_2PI
        + 0.5 * n * e_log_tau
        - 0.5 * (e_tau * float(resid @ resid) + trace_term)
    )

    # E[log p(beta | tau, alpha)] - E[log q(beta | tau)]; the tau and
    # 2 pi terms of the two Gaussians cancel.
    coeff = 0.5 * (
        float(exp["e_log_alpha"].sum())
        - float(exp["e_alpha"] @ exp["e_tau_beta_sq"])
        + exp["log_det_v"]
        + dim
    )
    value = e_loglik + coeff - gamma_kl(state.a, state.b, config.a0, config.b0)
    if not config.fix_relevance:
        value -= float(gamma_kl(state.c, state.d, config.c0, config.d0).sum())
    return value


def blr_log_predictive(state, point):
    """Log predictive density of (x, y) rows.

    Scores ``y`` under ``Normal(x . beta*, (b*/a*) (1 + x^T V* x))``, the
    moment-matched Gaussian approximation to the predictive.  One
    ``(D + 1,)`` row gives a float, an ``(n, D + 1)`` batch an ``(n,)`` array.
    """
    rows, one = predictive_rows(point, state.beta.shape[0] + 1)
    x, y = rows[:, :-1], rows[:, -1]
    u = _factor(state)[1] @ x.T
    var = (state.b / state.a) * (1.0 + (u * u).sum(axis=0))
    out = gaussian_log_pdf(y, x @ state.beta, var)
    return float(out[0]) if one else out


class BlrArd(VariationalModel):
    """Engine adapter.  Data rows are ``(x_1 .. x_D, y)``."""

    name = "blr-ard"

    def init_state(self, data, strategy, rng):
        """Both strategies start at the prior: the first coefficient
        refresh is exact given the relevance factors, so random inits add
        nothing here (the objective has no assignment symmetry to break)."""
        del strategy, rng
        dim = _split(data)[0].shape[1]
        c = self.config
        return BlrArdState(
            beta=np.zeros(dim),
            v_inv=np.diag(np.full(dim, c.c0 / c.d0 if not c.fix_relevance else 1.0)),
            a=c.a0,
            b=c.b0,
            c=c.c0,
            d=np.full(dim, c.d0),
        )

    def prepare(self, data):
        return RegressionData.of(data)

    def sweep(self, state, data):
        state = update_coeff_precision(state, data, self.config)
        return update_relevance(state, self.config)

    def elbo(self, state, data):
        return blr_elbo(state, data, self.config)

    def log_predictive(self, state, data):
        return blr_log_predictive(state, data)

    def export_state(self, state):
        exp = blr_expectations(state, self.config)
        return {
            "coefficients": state.beta.tolist(),
            "coefficient_precision": state.v_inv.tolist(),
            "coefficient_variance_scale_diag": exp["v_diag"].tolist(),
            "noise_shape": state.a,
            "noise_rate": state.b,
            "relevance_shape": state.c,
            "relevance_rates": state.d.tolist(),
            "expected_relevance": exp["e_alpha"].tolist(),
        }

def blr_ard_fit(x, y, config, fit_config):
    """Fit the model with coordinate ascent from the prior state; returns a
    :class:`FitReport`.

    ``x`` is the ``(n, D)`` design matrix, ``y`` the ``n`` responses,
    ``config`` a :class:`BlrArdConfig` and ``fit_config`` a
    :class:`FitConfig`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise DomainError("x must be (n, D) with one response per row")
    return cavi_fit(BlrArd(config), np.column_stack([x, y]), fit_config)


def simulate(n, seed, dim=1, noise=0.3):
    """Draw a regression dataset with known coefficients.

    Rows of ``x`` and the coefficients are standard normal draws, and ``y =
    x @ coefficients + noise * standard normal``.  Returns ``(data (n, dim +
    1), truth)``: ``data`` holds ``x`` with ``y`` as its last column, and
    ``truth`` the coefficients and the noise standard deviation.
    """
    if n < 0:
        raise ConfigError("n", "must be >= 0")
    if dim < 1:
        raise ConfigError("dim", "must be >= 1")
    if not (0.0 <= noise < np.inf):
        raise ConfigError("noise", "must be finite and >= 0")
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    coef = rng.normal(size=dim)
    y = x @ coef + noise * rng.normal(size=n)
    return np.column_stack([x, y]), {"coefficients": coef, "noise_sd": noise}
