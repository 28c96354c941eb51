"""Model-agnostic coordinate ascent driver and fit reporting.

A model plugs into the engine by subclassing :class:`VariationalModel`,
which keeps the model's config and records its fields as fit metadata, and
supplying five things: a deterministic seeded initializer, one full
coordinate sweep (local factors before global factors), the evidence lower
bound, a log predictive density scoring a whole batch of observations in one
call, and the export of a state as the JSON-ready dict a fit document holds;
``prepare`` may compute once, on the training data, the constants those
read.  :func:`cavi_fit` then owns iteration, convergence, timing, held-out
evaluation, and the monotonicity check, through the package's one iteration
loop, which the stochastic fits and ``condconj.coordinate_ascent`` share.
The one stochastic ascent (:func:`_stochastic_fit`, with its Robbins-Monro
:class:`StepSchedule`) and the CSV reader every model command uses live
here too, so that a command loads only the model module it runs.

The ELBO is a true lower bound on the log evidence, and every coordinate
sweep can only increase it.  A recorded decrease beyond floating-point slack
(``1e-8 * (1 + |elbo|)``) therefore raises :class:`MonotonicityError`: it
means an update or the objective itself is wrong, and no useful fit can come
out of that state.
"""

from __future__ import annotations

import abc
import csv
import time
import warnings
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    DataFormatError,
    DomainError,
    MonotonicityError,
    NumericError,
    numbered_lines,
)

__all__ = [
    "InitStrategy",
    "FitConfig",
    "TracePoint",
    "HeldoutPoint",
    "FitReport",
    "VariationalModel",
    "init_state",
    "cavi_fit",
    "StepSchedule",
    "step_size",
    "meanfield_gaussian_fixed_point",
    "read_data_csv",
    "write_trace_csv",
]

# Slack allowed for a recorded ELBO decrease before it is treated as an
# internal error rather than rounding noise.
MONOTONE_SLACK = 1e-8


def _frozen(a, dtype=float):
    """``a`` as a read-only array of ``dtype``, copied unless it already is
    a read-only array of that dtype that owns its data (such as the rows
    ``condconj.local_probs`` returns), which no view can change.  Every state
    class of the package stores its arrays through this."""
    owned = isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.owndata
    if not owned or a.flags.writeable:
        a = np.array(a, dtype=dtype)
        a.setflags(write=False)
    return a


class InitStrategy(Enum):
    PRIOR = "prior"
    DATA_CALIBRATED = "data_calibrated"


@dataclass(frozen=True)
class FitConfig:
    """Iteration budget, convergence tolerance, and evaluation cadence.

    ``tol`` is compared against the relative ELBO change
    ``|elbo_t - elbo_prev| / (1 + |elbo_t|)`` between consecutive recorded
    values.  ``heldout_fraction`` of the data (rounded down, seeded split)
    is withheld from fitting and scored at every recorded iteration.
    """

    max_iters: int = 200
    tol: float = 1e-8
    seed: int = 0
    heldout_fraction: float = 0.0
    elbo_every: int = 1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ConfigError("max_iters", "must be >= 1")
        if not (self.tol > 0.0):
            raise ConfigError("tol", "must be > 0")
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed", "must be an unsigned 64-bit integer")
        if not (0.0 <= self.heldout_fraction <= 0.5):
            raise ConfigError("heldout_fraction", "must lie in [0, 0.5]")
        if self.elbo_every < 1:
            raise ConfigError("elbo_every", "must be >= 1")


class TracePoint(NamedTuple):
    iteration: int
    elbo: float
    elapsed_ms: float


class HeldoutPoint(NamedTuple):
    iteration: int
    log_predictive: float


@dataclass
class FitReport:
    """Everything a fit produced, sufficient to reproduce and inspect it.

    ``model_state`` is the state at the last recorded iteration.
    """

    model_state: object
    elbo_trace: list
    heldout_trace: list
    converged: bool
    iterations_run: int
    metadata: dict = field(default_factory=dict)

    @property
    def final_elbo(self):
        return self.elbo_trace[-1].elbo if self.elbo_trace else None


class VariationalModel(abc.ABC):
    """Contract a model implements to be driven by :func:`cavi_fit`.

    Implementations must be functional: ``sweep`` returns a fresh state and
    never mutates its argument, so states can be shared across threads and
    recorded mid-fit.  All reductions use a fixed summation order, making
    results bit-reproducible for a given (seed, strategy, data).
    """

    name = "model"

    def __init__(self, config=None):
        self.config = config

    @abc.abstractmethod
    def init_state(self, data, strategy, rng):
        """Build a starting state; must be deterministic given ``rng``."""

    @abc.abstractmethod
    def sweep(self, state, data):
        """One full coordinate sweep: local factors, then global factors."""

    @abc.abstractmethod
    def elbo(self, state, data):
        """Evidence lower bound of ``state`` on ``data`` (all terms kept)."""

    @abc.abstractmethod
    def log_predictive(self, state, data):
        """Log predictive density of each observation in ``data``, as an
        ``(n,)`` array; an observation is a row, or a document of a corpus."""

    @abc.abstractmethod
    def export_state(self, state):
        """The JSON-ready dict of ``state`` that the fit document holds."""

    def metadata(self):
        """Hyperparameters to record in the fit report: the config's fields,
        in order, an array as a list, or none for a model built without a
        config."""
        values = {} if self.config is None else asdict(self.config)
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in values.items()}

    def prepare(self, data):
        """``data`` with the constants a fit reads of it computed once;
        :func:`cavi_fit` calls it once, on the training data, and passes
        the result on.  Every method also takes unprepared data."""
        return data

    # Data containers are indexable arrays by default; models with richer
    # containers (a corpus of documents, say) override this.
    def take(self, data, indices):
        return np.asarray(data)[np.asarray(indices, dtype=int)]

    def heldout_log_predictive(self, state, heldout):
        n = len(heldout)
        if n == 0:
            raise DomainError("held-out set is empty")
        values = np.asarray(self.log_predictive(state, heldout), dtype=float)
        if values.shape != (n,):
            raise DomainError(f"log_predictive gave shape {values.shape}, not ({n},)")
        total = 0.0  # summed left to right, not in numpy's pairwise order
        for value in values.tolist():
            total += value
        return total / n


def predictive_rows(x, width):
    """``x`` as ``(n, width)`` rows, and whether it was one point (a scalar
    or ``(width,)`` row); a bad width or a non-finite entry is a DomainError."""
    x = np.asarray(x, dtype=float)
    rows = x.reshape(1, -1) if x.ndim < 2 else x
    if rows.ndim != 2 or rows.shape[1] != width or not np.all(np.isfinite(rows)):
        raise DomainError(f"held-out rows must each hold {width} finite entries")
    return rows, x.ndim < 2


def init_state(model, data, strategy, seed):
    """Seeded, bit-reproducible initial state for ``model`` on ``data``."""
    if isinstance(strategy, str):
        try:
            strategy = InitStrategy(strategy)
        except ValueError:
            raise ConfigError("strategy", f"unknown init strategy {strategy!r}")
    rng = np.random.default_rng(seed)
    return model.init_state(data, strategy, rng)


def _split_heldout(model, data, config):
    n = len(data)
    n_held = int(config.heldout_fraction * n)
    if n_held == 0:
        return data, None
    rng = np.random.default_rng([config.seed, 1])
    perm = rng.permutation(n)
    held_idx = np.sort(perm[:n_held])
    train_idx = np.sort(perm[n_held:])
    return model.take(data, train_idx), model.take(data, held_idx)


def _fit_loop(max_iters, tol, every, state, step, score, metadata, heldout=None,
              monotone=False):
    """The one iteration loop behind every fit.

    ``step(state, t)`` returns the state after iteration ``t``; a
    :class:`NumericError` it raises is tagged with ``t``.  Every ``every``
    iterations, and at ``max_iters``, ``score(state)`` returns ``(elbo,
    snapshot)``: the ELBO is checked finite and traced, ``heldout(snapshot)``
    (when given) is traced, and the fit stops once the relative change
    between consecutive recorded ELBOs falls below ``tol``.  ``monotone``
    is for coordinate sweeps, whose recorded ELBO can never decrease.  The
    fit always ends on a recorded iteration, so the last snapshot is the
    final state.
    """
    elbo_trace = []
    heldout_trace = []
    prev = None
    converged = False
    start = time.perf_counter()

    for t in range(1, max_iters + 1):
        try:
            state = step(state, t)
        except NumericError as err:
            if err.iteration is None:
                raise NumericError(str(err), iteration=t) from err
            raise
        if t % every != 0 and t != max_iters:
            continue
        elbo, snapshot = score(state)
        if not np.isfinite(elbo):
            raise NumericError("ELBO is not finite", iteration=t)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        elbo_trace.append(TracePoint(t, float(elbo), elapsed_ms))
        if heldout is not None:
            heldout_trace.append(HeldoutPoint(t, heldout(snapshot)))
        if prev is not None:
            if monotone and elbo < prev - MONOTONE_SLACK * (1.0 + abs(elbo)):
                raise MonotonicityError(
                    f"ELBO decreased from {prev!r} to {elbo!r}", iteration=t
                )
            if abs(elbo - prev) / (1.0 + abs(elbo)) < tol:
                converged = True
                break
        prev = elbo

    return FitReport(
        model_state=snapshot,
        elbo_trace=elbo_trace,
        heldout_trace=heldout_trace,
        converged=converged,
        iterations_run=t,
        metadata=metadata,
    )


@dataclass(frozen=True)
class StepSchedule:
    """Robbins-Monro step sizes ``(t + delay) ** -kappa``, each in (0, 1].

    ``kappa`` must lie in (0.5, 1] so the steps are square-summable but not
    summable; a finite ``delay >= 0`` down-weights early iterations.
    """

    kappa: float
    delay: float = 0.0

    def __post_init__(self):
        if not (0.5 < self.kappa <= 1.0):
            raise ConfigError("kappa", "must lie in (0.5, 1]")
        if not (0.0 <= self.delay < np.inf):
            raise ConfigError("delay", "must be finite and >= 0")


def step_size(schedule, t):
    """Step size at iteration ``t`` (1-based)."""
    if t < 1:
        raise DomainError("iteration index must be >= 1")
    return (t + schedule.delay) ** (-schedule.kappa)


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
        "n_train": n,
    }
    return _fit_loop(
        config.max_iters, config.tol, config.elbo_every, lam, step, score, metadata
    )


def cavi_fit(model, data, config):
    """Run coordinate ascent to convergence and report the trajectory.

    It starts from the data-calibrated state seeded by ``config.seed``;
    every sweep and ELBO reads the one prepared training object.

    Parameters
    ----------
    model : VariationalModel
    data : model-specific container
    config : FitConfig

    Returns
    -------
    FitReport
        ELBO trace (nondecreasing), held-out trace when configured,
        convergence flag, and the final model state.

    Raises
    ------
    NumericError
        If a recorded ELBO is non-finite (carries the iteration index).
    MonotonicityError
        If a recorded ELBO decreases beyond ``1e-8 * (1 + |elbo|)``.
    """
    train, heldout = _split_heldout(model, data, config)
    meta = {
        "model": model.name,
        "seed": config.seed,
        "n_train": len(train),
        "n_heldout": 0 if heldout is None else len(heldout),
    }
    meta.update(model.metadata())
    train = model.prepare(train)
    state = init_state(model, train, InitStrategy.DATA_CALIBRATED, config.seed)

    def sweep(s, t):
        return model.sweep(s, train)

    def score(s):
        return model.elbo(s, train), s

    def held(s):
        return model.heldout_log_predictive(s, heldout)

    return _fit_loop(
        config.max_iters, config.tol, config.elbo_every, state, sweep, score,
        meta, heldout=None if heldout is None else held, monotone=True,
    )


def meanfield_gaussian_fixed_point(mean, cov):
    """Closed-form mean-field fit to a bivariate Gaussian target.

    For a Gaussian target with precision matrix ``Lambda = inv(cov)``, the
    factorized fixed point has the exact target means and factor variances
    ``1 / Lambda[j, j]``.  The factor variances never exceed the target's
    marginal variances: mean-field underdisperses.

    Parameters
    ----------
    mean : array_like, shape (2,)
        Finite target mean.
    cov : array_like, shape (2, 2)
        Finite, symmetric positive definite covariance.

    Returns
    -------
    (means, variances) : pair of ndarrays, shape (2,)
    """
    mu = np.asarray(mean, dtype=float)
    c = np.asarray(cov, dtype=float)
    if mu.shape != (2,) or c.shape != (2, 2):
        raise DomainError("expected a 2-vector mean and 2x2 covariance")
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(c))):
        raise DomainError("mean and covariance must be finite")
    if abs(c[0, 1] - c[1, 0]) > 1e-12 * max(np.abs(c).max(), 1.0):
        raise DomainError("covariance must be symmetric")
    det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
    if c[0, 0] <= 0.0 or det <= 0.0:
        raise DomainError("covariance must be positive definite")
    # diag(inv(cov)) for the 2x2 case, without forming the inverse
    prec_diag = np.array([c[1, 1] / det, c[0, 0] / det])
    return mu.copy(), 1.0 / prec_diag


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


def write_trace_csv(report, path):
    """Write the ELBO / held-out trace as ``iter,elbo,elapsed_ms,heldout_logpred``."""
    held = {p.iteration: p.log_predictive for p in report.heldout_trace}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "elbo", "elapsed_ms", "heldout_logpred"])
        for point in report.elbo_trace:
            h = held.get(point.iteration)
            writer.writerow(
                [
                    point.iteration,
                    format(point.elbo, ".17g"),
                    format(point.elapsed_ms, ".17g"),
                    "" if h is None else format(h, ".17g"),
                ]
            )
