"""Command-line interface: fit, simulate, eval, diagnose-meanfield.

Every command writes deterministic artifacts: numbers are serialized with
17 significant digits, so rerunning with the same configuration and seeds
reproduces byte-identical files (iteration timings in trace CSVs are the
only wall-clock-dependent fields).

Exit codes: 0 success, 2 configuration or domain error, 3 data format
error (message carries the offending line when known), 4 numeric failure
(message carries the iteration).  ``VI_LOG=debug|info|quiet`` controls
logging verbosity on stderr.
"""

import argparse
import importlib.util
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .engine import (
    FitConfig,
    StepSchedule,
    cavi_fit,
    meanfield_gaussian_fixed_point,
    read_data_csv,
    write_trace_csv,
)
from .errors import ConfigError, DataFormatError, DomainError, NumericError, read_text

__all__ = ["main", "run", "RunConfig"]

log = logging.getLogger("meanfield.cli")


def _lazy(name):
    """The package's module ``name``, executed on its first attribute access.

    The handle is registered in ``sys.modules`` and on the package, as an
    import would register it, so a command loads only the model it runs
    while every module stays reachable by name.  The CLI reaches model code
    through these handles when a command runs.
    """
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


blr_ard, condconj, gmm, lda = map(_lazy, ("blr_ard", "condconj", "gmm", "lda"))

# Module, model class and config class by model name.  A run sets each
# config field that is also a RunConfig field.
MODEL_TYPES = {
    "gmm": (gmm, "UnitVarianceGmm", "UniGmmConfig"),
    "gmm-diag": (gmm, "DiagGmm", "DiagGmmConfig"),
    "blr-ard": (blr_ard, "BlrArd", "BlrArdConfig"),
    "lda": (lda, "Lda", "LdaConfig"),
}
MODELS = tuple(MODEL_TYPES)
ALGORITHMS = ("cavi", "svi")


def _model_types(name):
    """Model class and config class of model ``name``."""
    module, model_type, config_type = MODEL_TYPES[name]
    return getattr(module, model_type), getattr(module, config_type)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _fmt(value):
    return format(float(value), ".17g")


def _json_text(value, indent=0):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(key))}: {_json_text(v, indent + 1)}"
            for key, v in value.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if len(value) == 0:
            return "[]"
        if all(type(v) is float for v in value):
            floats = (",\n" + inner).join(["%.17g"] * len(value)) % tuple(value)
            return "[\n" + inner + floats + "\n" + pad + "]"
        items = [f"{inner}{_json_text(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, np.ndarray):
        return _json_text(value.tolist(), indent)
    if value is None:
        return "null"
    return json.dumps(str(value))


def _out_dir(path):
    """The output directory ``path``, created with its parents if absent."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError("out", f"cannot create directory {path}: {err.strerror}")
    return out


@contextmanager
def _writing(path):
    """Yield ``path``; an OSError raised while writing it is a ConfigError."""
    try:
        yield path
    except OSError as err:
        raise ConfigError("out", f"cannot write {path}: {err.strerror}") from None


def _write_json(path, value):
    with _writing(path):
        Path(path).write_text(_json_text(value) + "\n", encoding="utf-8")


def _write_matrix_csv(path, matrix):
    rows = np.atleast_2d(np.asarray(matrix, dtype=float))
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with _writing(path), open(path, "w", encoding="utf-8") as handle:
        handle.writelines(line % tuple(row.tolist()) for row in rows)


def _read(reader, path):
    """``reader(path)``; an OSError raised while reading is a DataFormatError."""
    try:
        return reader(path)
    except OSError as err:
        raise DataFormatError(f"cannot read {path}: {err.strerror}")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _check_seed(value):
    seed = int(value)
    if not (0 <= seed < 2**64):
        raise ConfigError("seed", "must be an unsigned 64-bit integer")
    return seed


def _parse_seeds(text):
    try:
        parts = [int(p) for p in str(text).split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigError("seeds", f"expected comma-separated integers, got {text!r}")
    if len(set(parts)) != len(parts):
        raise ConfigError("seeds", f"duplicate seed in {text!r}")
    return [_check_seed(p) for p in parts]


def _read_config_file(path):
    try:
        text = read_text(path)
    except OSError as err:
        raise ConfigError("config", f"cannot read {path}: {err.strerror}")
    except DataFormatError as err:
        raise ConfigError("config", str(err))
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config", f"line {lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _FIT_FILE_FIELDS:
            raise ConfigError(key, "unknown configuration key")
        try:
            values[key] = _FIT_FILE_FIELDS[key](value.strip())
        except ValueError:
            raise ConfigError(key, f"cannot parse {value.strip()!r}")
    return values


@dataclass(frozen=True)
class RunConfig:
    """Everything a fit run needs, after merging flags and config file.

    Each field's annotation converts its config-file value; ``seeds`` is
    parsed from text.  A setting left None is unset: the default of the
    config class that reads it applies.
    """

    model: str
    data: str
    seeds: tuple
    algorithm: str = "cavi"
    out: str = "."
    max_iters: int = None
    tol: float = None
    elbo_every: int = None
    heldout_fraction: float = None
    k: int = None
    sigma2: float = None
    a0: float = None
    m0: float = None
    b0: float = None
    alpha0: float = None
    beta0: float = None
    c0: float = None
    d0: float = None
    eta: float = None
    alpha: float = None
    kappa: float = None
    delay: float = None
    batch: int = 1

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigError("model", f"must be one of {', '.join(MODELS)}")
        if self.algorithm not in ALGORITHMS:
            raise ConfigError("algorithm", "must be cavi or svi")
        if not self.seeds:
            raise ConfigError("seeds", "at least one seed is required")


# Keys a fit config file may set, with their converters: the RunConfig
# fields, seeds as text, and seed.  Each key that is not text is also a flag
# (``max_iters`` as ``--max-iters``).
_FIT_FILE_FIELDS = {"seed": int, **{f.name: f.type for f in fields(RunConfig)}}
_FIT_FILE_FIELDS["seeds"] = str


def _build_run_config(args):
    """Merge flags, config file and defaults: a flag wins over the file, and
    the file wins over the default.  Seeds come from the first of ``--seeds``,
    ``--seed``, file ``seeds`` and file ``seed`` that is given, else 0."""
    flags = vars(args)
    file_cfg = _read_config_file(args.config) if args.config else {}
    if args.seed is not None and args.seeds is not None:
        raise ConfigError("seeds", "give either --seed or --seeds, not both")
    given = (flags["seeds"], flags["seed"], file_cfg.get("seeds"), file_cfg.get("seed"))
    seeds = _parse_seeds(next((s for s in given if s is not None), 0))
    merged = {}
    for f in fields(RunConfig):
        value = flags.get(f.name)
        merged[f.name] = value if value is not None else file_cfg.get(f.name, f.default)
    merged["seeds"] = tuple(seeds)
    if merged["data"] is MISSING:
        raise ConfigError("data", "an input data path is required")
    if merged["model"] is MISSING:
        raise ConfigError("model", "a model name is required")
    cfg = RunConfig(**merged)
    # A setting given must be read: by the run, FitConfig or the model's config
    # class, or under svi (which holds no data out) by StepSchedule or as batch.
    read = {"model", "data", "seeds", "algorithm", "out"}
    read |= {f.name for f in fields(FitConfig) + fields(_model_types(cfg.model)[1])}
    if cfg.algorithm == "svi":
        read |= {f.name for f in fields(StepSchedule)} | {"batch"}
        read.remove("heldout_fraction")
    unread = [f.name for f in fields(RunConfig) if f.name not in read
              and (flags.get(f.name) is not None or f.name in file_cfg)]
    if unread:
        raise ConfigError(", ".join(unread), f"not read by model {cfg.model} "
                          f"with algorithm {cfg.algorithm}")
    return cfg


def _settings(config_type, cfg, needed_by="", **fixed):
    """``config_type`` with each field it declares taken from ``fixed``, else
    from the run when set, else the class default; an unset field with no
    default is required ``needed_by``."""
    kwargs = {}
    for f in fields(config_type):
        value = fixed.get(f.name, getattr(cfg, f.name, None))
        if value is not None:
            kwargs[f.name] = value
        elif f.default is MISSING:
            raise ConfigError(f.name, f"required {needed_by}")
    return config_type(**kwargs)


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def cmd_fit(cfg):
    # Models with a stochastic fit: gmm.gmm_svi_fit and lda.lda_svi_fit each
    # take (data, config, schedule, fit_config, batch_size) and report the
    # model's own ELBO and state.
    svi_models = ("gmm", "lda")
    if cfg.algorithm == "svi":
        if cfg.model not in svi_models:
            raise ConfigError(
                "algorithm",
                f"svi is implemented for {' and '.join(svi_models)}, "
                f"not {cfg.model}; use cavi",
            )
        schedule = _settings(StepSchedule, cfg, "when algorithm is svi")
    model_type, config_type = _model_types(cfg.model)
    config = _settings(config_type, cfg, f"for model {cfg.model}")
    fit_configs = [_settings(FitConfig, cfg, seed=seed) for seed in cfg.seeds]

    data = _read(lda.read_uci if cfg.model == "lda" else read_data_csv, cfg.data)
    if cfg.algorithm == "svi" and len(data) and not 1 <= cfg.batch <= len(data):
        raise ConfigError("batch", f"must lie in [1, {len(data)}]")
    model = model_type(config)
    out = _out_dir(cfg.out)

    reports = []
    for fit_config in fit_configs:
        # Every fit is looked up in its module per call, so a function rebound
        # there (as profilers do) is seen.
        if cfg.algorithm == "svi":
            svi_fit = gmm.gmm_svi_fit if cfg.model == "gmm" else lda.lda_svi_fit
            fit = svi_fit(data, config, schedule, fit_config, cfg.batch)
        elif cfg.model == "lda":
            fit = lda.lda_cavi_fit(data, config, fit_config)
        else:
            fit = cavi_fit(model, data, fit_config)
        reports.append(fit)

    final_elbos = []
    for seed, report in zip(cfg.seeds, reports):
        with _writing(out / f"trace_{seed}.csv") as path:
            write_trace_csv(report, path)
        doc = {
            "model": cfg.model,
            "algorithm": cfg.algorithm,
            "seed": seed,
            "converged": report.converged,
            "iterations_run": report.iterations_run,
            "final_elbo": report.final_elbo,
            "metadata": report.metadata,
        }
        state = report.model_state
        doc.update(model.export_state(state))
        if cfg.model == "lda":
            doc["lambda_csv"] = f"lambda_{seed}.csv"
            doc["gamma_csv"] = f"gamma_{seed}.csv"
            _write_matrix_csv(out / doc["lambda_csv"], state.lam)
            _write_matrix_csv(out / doc["gamma_csv"], state.gamma)
        _write_json(out / f"fit_{seed}.json", doc)
        final_elbos.append(report.final_elbo)
        log.info(
            "fit model=%s seed=%d converged=%s iterations=%d elbo=%s",
            cfg.model,
            seed,
            report.converged,
            report.iterations_run,
            _fmt(report.final_elbo),
        )

    _write_json(
        out / "summary.json",
        {
            "model": cfg.model,
            "algorithm": cfg.algorithm,
            "data": cfg.data,
            "seeds": list(cfg.seeds),
            "final_elbos": final_elbos,
            "converged": [r.converged for r in reports],
            "iterations_run": [r.iterations_run for r in reports],
        },
    )
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


# The flags each model's simulator reads, besides --model, --out and --seed,
# each with the simulator parameter it sets; the simulator holds the defaults.
_SIMULATE_FLAGS = {
    "gmm": {"k": "k", "n": "n", "dim": "dim", "mean_scale": "mean_scale",
            "separation": "min_separation"},
    "blr-ard": {"n": "n", "dim": "dim", "noise": "noise"},
    "lda": {"k": "k", "docs": "num_docs", "vocab": "vocab_size",
            "doc_length": "doc_length", "disjoint": "disjoint", "alpha": "alpha",
            "eta": "eta"},
}
_SIMULATE_FLAGS["gmm-diag"] = _SIMULATE_FLAGS["gmm"]


def cmd_simulate(args):
    """Draw a dataset and write it with ``truth.json``; every argument is
    checked before ``--out`` is created, and a flag the model's simulator
    does not read is refused."""
    seed = _check_seed(args.seed if args.seed is not None else 0)
    reads = _SIMULATE_FLAGS[args.model]
    given = {name: value for name, value in vars(args).items() if value is not None
             and name not in ("command", "model", "out", "seed")}
    unread = [name for name in given if name not in reads]
    if unread:
        raise ConfigError(", ".join(unread), f"not read by simulate for model {args.model}")
    kwargs = {reads[name]: value for name, value in given.items()}
    if args.model in ("gmm", "gmm-diag"):
        if args.k is None or args.n is None:
            raise ConfigError("k", "simulate for mixtures needs --k and --n")
        data, means, labels = gmm.simulate(seed=seed, **kwargs)
        truth = {"means": means.tolist(), "labels": labels.tolist()}
    elif args.model == "blr-ard":
        if args.n is None:
            raise ConfigError("n", "simulate for regression needs --n")
        data, truth = blr_ard.simulate(seed=seed, **kwargs)
    else:  # lda
        if args.k is None:
            raise ConfigError("k", "simulate for lda needs --k")
        corpus, truth = lda.simulate_corpus(seed=seed, **kwargs)

    out = _out_dir(args.out)
    if args.model == "lda":
        path = out / "corpus.txt"
        with _writing(path):
            lda.write_uci(corpus, path)
    else:
        path = out / "data.csv"
        _write_matrix_csv(path, data)
    _write_json(out / "truth.json", truth)
    log.info("wrote %s and %s", path, out / "truth.json")
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _load_fit_document(path):
    try:
        text = read_text(path)
    except OSError as err:
        raise DataFormatError(f"cannot read {path}: {err.strerror}")
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise DataFormatError(f"{path} is not valid JSON: {err}")
    if not isinstance(doc, dict) or not isinstance(doc.get("metadata", {}), dict):
        raise DataFormatError(f"{path} is not a fit document (a JSON object)")
    return doc


def _numeric(doc, name, ndim=None):
    """Required field ``name`` of a fit document as a float array (of
    ``ndim`` axes, when given)."""
    if name not in doc:
        raise DataFormatError(f"fit document lacks field {name!r}")
    try:
        value = np.asarray(doc[name], dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DataFormatError(f"fit document field {name!r} is not numeric")
    if ndim is not None and value.ndim != ndim:
        raise DataFormatError(f"fit document field {name!r} must have {ndim} axes")
    return value


def _rebuild(doc, fit_dir):
    """Model handle and state from a fit document.

    The config takes each field of the model's config class that the
    document's ``metadata`` records; an absent or ``null`` one takes the
    config default, and ``k`` comes from the state's arrays.
    """
    meta = doc.get("metadata", {})
    model_name = doc.get("model")
    if model_name == "gmm":
        m = _numeric(doc, "means", 2)
        kwargs = {"k": m.shape[0]}
        state = gmm.UniGmmState(m, _numeric(doc, "variances", 2), np.zeros((0, m.shape[0])))
    elif model_name == "gmm-diag":
        m = _numeric(doc, "locations", 2)
        kwargs = {"k": m.shape[0]}
        state = gmm.DiagGmmState(
            _numeric(doc, "weight_concentration", 1),
            m,
            _numeric(doc, "scales", 2),
            _numeric(doc, "shapes", 2),
            _numeric(doc, "rates", 2),
            np.zeros((0, m.shape[0])),
        )
    elif model_name == "blr-ard":
        kwargs = {}
        state = blr_ard.BlrArdState(
            _numeric(doc, "coefficients", 1),
            _numeric(doc, "coefficient_precision", 2),
            float(_numeric(doc, "noise_shape", 0)),
            float(_numeric(doc, "noise_rate", 0)),
            float(_numeric(doc, "relevance_shape", 0)),
            _numeric(doc, "relevance_rates", 1),
        )
    elif model_name == "lda":
        name = doc.get("lambda_csv")
        if not isinstance(name, str) or "\x00" in name:
            raise DataFormatError("fit document field 'lambda_csv' must name a file")
        lam = _read(read_data_csv, Path(fit_dir) / name)
        kwargs = {"k": lam.shape[0]}
        state = lda.LdaState(lam, np.zeros((0, lam.shape[0])), np.zeros((0, lam.shape[0])))
    else:
        raise DataFormatError(f"fit document has unknown model {model_name!r}")
    model_type, config_type = _model_types(model_name)
    for f in fields(config_type):
        if f.name != "k" and meta.get(f.name) is not None:
            # lda's alpha may be a length-k vector; every other field is a scalar
            value = _numeric(meta, f.name, None if f.name == "alpha" else 0)
            kwargs[f.name] = value if value.ndim else float(value)
    return model_type(config_type(**kwargs)), state


def cmd_eval(args):
    fit_path = Path(args.fit)
    doc = _load_fit_document(fit_path)
    model, state = _rebuild(doc, fit_path.parent)

    if doc["model"] == "lda":
        heldout = _read(lda.read_uci, args.data)
        if heldout.v != state.lam.shape[1]:
            raise DataFormatError(
                f"held-out vocabulary size {heldout.v} does not match "
                f"fitted vocabulary {state.lam.shape[1]}"
            )
        if len(heldout) == 0 or heldout.total_tokens == 0.0:
            raise DataFormatError("held-out corpus has no tokens")
        count = heldout.total_tokens
        unit = "word"
    else:
        heldout = _read(read_data_csv, args.data)
        if doc["model"] == "blr-ard":
            expected = state.beta.shape[0] + 1
        else:
            expected = state.m.shape[1]
        if heldout.shape[1] != expected:
            raise DataFormatError(
                f"held-out data has {heldout.shape[1]} columns, fit expects {expected}"
            )
        count = heldout.shape[0]
        unit = "point"

    value = model.heldout_log_predictive(state, heldout)
    out = _out_dir(args.out)
    print(_fmt(value))
    _write_json(
        out / "eval.json",
        {
            "fit": str(args.fit),
            "data": str(args.data),
            "heldout_log_predictive": float(value),
            "per": unit,
            "count": count,
        },
    )
    return 0


# ---------------------------------------------------------------------------
# diagnose-meanfield
# ---------------------------------------------------------------------------


def cmd_diagnose_meanfield(args):
    if args.points < 2:
        raise ConfigError("points", "must be >= 2")
    cov = np.array(args.cov, dtype=float).reshape(2, 2)
    mean = np.array(args.mean, dtype=float)
    means, variances = meanfield_gaussian_fixed_point(mean, cov)

    theta = np.linspace(0.0, 2.0 * np.pi, int(args.points))
    circle = np.stack([np.cos(theta), np.sin(theta)])
    target = means[:, None] + 2.0 * (np.linalg.cholesky(cov) @ circle)
    approx = means[:, None] + 2.0 * (np.sqrt(variances)[:, None] * circle)

    out = _out_dir(args.out)
    path = out / "diagnose.csv"
    with _writing(path), open(path, "w", encoding="utf-8") as handle:
        handle.write("curve,x,y\n")
        for name, pts in (("target", target), ("meanfield", approx)):
            for x, y in pts.T:
                handle.write(f"{name},{_fmt(x)},{_fmt(y)}\n")
    _write_json(
        out / "diagnose.json",
        {
            "mean": mean.tolist(),
            "covariance": cov.tolist(),
            "meanfield_means": means.tolist(),
            "meanfield_variances": variances.tolist(),
        },
    )
    print(_fmt(variances[0]), _fmt(variances[1]))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="meanfield",
        description="Mean-field variational inference: fits, simulation, diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a model and write trace/fit/summary files")
    fit.add_argument("--model", choices=MODELS)
    fit.add_argument("--algorithm", choices=ALGORITHMS)
    fit.add_argument("--data", help="CSV rows (gmm/gmm-diag), CSV rows with a "
                     "trailing response column (blr-ard), or a bag-of-words "
                     "file (lda)")
    fit.add_argument("--out")
    fit.add_argument("--config", help="key = value file; flags override it")
    fit.add_argument("--seeds", help="comma-separated list")
    for name, convert in _FIT_FILE_FIELDS.items():
        if convert is not str:  # --seed, --max-iters, --k, ...
            fit.add_argument("--" + name.replace("_", "-"), type=convert)

    sim = sub.add_parser("simulate", help="write a synthetic dataset plus truth.json")
    sim.add_argument("--model", choices=MODELS, required=True)
    sim.add_argument("--out", default=".")
    sim.add_argument("--seed", type=int)
    sim.add_argument("--k", type=int)
    sim.add_argument("--n", type=int)
    # No defaults: the simulator that reads a flag holds its default, and an
    # unset flag stays None, so a given flag that no simulator reads shows.
    sim.add_argument("--dim", type=int)
    sim.add_argument("--separation", type=float)
    sim.add_argument("--mean-scale", dest="mean_scale", type=float)
    sim.add_argument("--noise", type=float)
    sim.add_argument("--docs", type=int)
    sim.add_argument("--vocab", type=int)
    sim.add_argument("--doc-length", dest="doc_length", type=int)
    sim.add_argument("--disjoint", action="store_true", default=None)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--eta", type=float)

    ev = sub.add_parser("eval", help="average held-out log predictive of a fit")
    ev.add_argument("--fit", required=True, help="path to a fit_<seed>.json")
    ev.add_argument("--data", required=True, help="held-out data file")
    ev.add_argument("--out", default=".")

    diag = sub.add_parser(
        "diagnose-meanfield",
        help="mean-field approximation of a 2-d Gaussian: contours and variances",
    )
    diag.add_argument(
        "--cov", type=float, nargs=4, required=True, metavar=("C00", "C01", "C10", "C11")
    )
    diag.add_argument("--mean", type=float, nargs=2, default=[0.0, 0.0])
    diag.add_argument("--points", type=int, default=128)
    diag.add_argument("--out", default=".")

    return parser


def _configure_logging():
    level_name = os.environ.get("VI_LOG", "info").lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO, "quiet": logging.ERROR}
    if level_name not in levels:
        raise ConfigError("VI_LOG", "must be debug, info, or quiet")
    logging.basicConfig(
        level=levels[level_name], stream=sys.stderr, format="%(message)s"
    )


# The exit code of each error the package raises; see the module docstring.
_EXIT_CODES = {ConfigError: 2, DataFormatError: 3, DomainError: 2, NumericError: 4}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _configure_logging()
        if args.command == "fit":
            return cmd_fit(_build_run_config(args))
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "eval":
            return cmd_eval(args)
        return cmd_diagnose_meanfield(args)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(err, kind))


def run():
    """The ``meanfield`` command: :func:`main` on the process's arguments,
    then an exit that skips the interpreter's teardown, which frees every
    object and takes longer than some commands.  Logging and the standard
    streams are flushed first.  This relies on every file a command writes
    being closed before ``main`` returns."""
    code = main()
    logging.shutdown()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
