"""Mean-field variational inference toolkit.

Coordinate ascent (CAVI) and stochastic (SVI) fits over an
exponential-family core, with built-in Bayesian Gaussian mixtures, linear
regression with per-coefficient relevance priors, and a topic model.
"""

import os

# OpenBLAS reads its thread count when numpy loads it. A second thread burns CPU
# at these matrix sizes without saving wall time; a count the caller set wins.
if not any(name in os.environ for name in
           ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .engine import (
    FitConfig,
    FitReport,
    StepSchedule,
    VariationalModel,
    cavi_fit,
    init_state,
    meanfield_gaussian_fixed_point,
)
from .errors import (
    ConfigError,
    DataFormatError,
    DomainError,
    MonotonicityError,
    NumericError,
)
from .expfam import ExpFamParam

__version__ = "0.1.0"

__all__ = [
    "FitConfig",
    "FitReport",
    "VariationalModel",
    "cavi_fit",
    "init_state",
    "meanfield_gaussian_fixed_point",
    "ConfigError",
    "DataFormatError",
    "DomainError",
    "MonotonicityError",
    "NumericError",
    "ExpFamParam",
    "CondConjSpec",
    "StepSchedule",
    "svi_fit",
    "__version__",
]


def __getattr__(name):
    # The conditionally conjugate machinery loads on first use, so a command
    # that runs LDA or regression never executes it.
    if name in ("CondConjSpec", "svi_fit"):
        from . import condconj

        return getattr(condconj, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
