"""The fit settings table and the config classes that read it.

``RunConfig`` is the one list of fit settings: the config-file keys, their
converters and the fit flags derive from it.  Each setting is a field of a
config class (``FitConfig``, ``StepSchedule`` or a model's config class),
which states its default and whether it is required; ``fit`` builds each
class from the run's settings and ``eval`` a model's config class from the
fit document's metadata.
"""

import json
from dataclasses import fields

import numpy as np
import pytest

from meanfield.cli import (
    _FIT_FILE_FIELDS,
    MODELS,
    RunConfig,
    _build_parser,
    _build_run_config,
    _model_types,
    main,
)
from meanfield.condconj import StepSchedule
from meanfield.engine import FitConfig

# The config-file keys and converters, written out so that a change to the
# table is a visible change here.
FILE_KEYS = {
    "model": str, "algorithm": str, "data": str, "out": str, "seed": int,
    "seeds": str, "max_iters": int, "tol": float, "elbo_every": int,
    "heldout_fraction": float, "k": int, "sigma2": float, "a0": float,
    "m0": float, "b0": float, "alpha0": float, "beta0": float, "c0": float,
    "d0": float, "eta": float, "alpha": float, "kappa": float, "delay": float,
    "batch": int,
}


class TestTables:
    def test_file_keys_are_fixed(self):
        assert len(FILE_KEYS) == 24
        assert _FIT_FILE_FIELDS == FILE_KEYS

    def test_config_fields_are_run_config_fields(self):
        run_fields = {f.name for f in fields(RunConfig)}
        for config_type in [StepSchedule, *(_model_types(m)[1] for m in MODELS)]:
            names = {f.name for f in fields(config_type)} - {"fix_relevance"}
            assert names <= run_fields, config_type

    def test_engine_settings_are_run_config_fields(self):
        names = {f.name for f in fields(FitConfig)} - {"seed"}
        assert names <= {f.name for f in fields(RunConfig)}

    def test_run_config_fields_and_seed_are_file_keys(self):
        names = {f.name for f in fields(RunConfig)} - {"seeds"} | {"seed"}
        assert names <= set(_FIT_FILE_FIELDS)

    @pytest.mark.parametrize(
        "key", [k for k, convert in FILE_KEYS.items() if convert is not str]
    )
    def test_every_non_text_key_is_a_fit_flag(self, key):
        flag = "--" + key.replace("_", "-")
        args = _build_parser().parse_args(["fit", flag, "3"])
        value = getattr(args, key)
        assert type(value) is FILE_KEYS[key] and value == 3


def run_config(tmp_path, file_text, *flags):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = gmm\ndata = x.csv\n{file_text}")
    return _build_run_config(
        _build_parser().parse_args(["fit", "--config", str(cfg), *flags])
    )


class TestSeedPrecedence:
    @pytest.mark.parametrize(
        "file_text, flags, seeds",
        [
            ("seed = 5\nseeds = 1,2\n", [], (1, 2)),
            ("seeds = 1,2\nseed = 5\n", [], (1, 2)),
            ("seed = 5\n", ["--seeds", "3,4"], (3, 4)),
            ("seed = 5\n", [], (5,)),
            ("", [], (0,)),
        ],
        ids=["file-seeds-over-file-seed", "order-in-file-ignored",
             "flag-seeds-over-file-seed", "file-seed-alone", "default"],
    )
    def test_seed_sources(self, tmp_path, file_text, flags, seeds):
        assert run_config(tmp_path, file_text, *flags).seeds == seeds

    def test_flag_wins_over_file_and_file_over_default(self, tmp_path):
        cfg = run_config(tmp_path, "k = 2\ntol = 1e-3\n", "--k", "4")
        assert (cfg.k, cfg.tol, cfg.max_iters) == (4, 1e-3, None)


class TestEvalNullHyperparameter:
    """A ``null`` the metadata records takes the config default."""

    def _eval(self, tmp_path, capsys, doc, data_name, data_text, name):
        fit = tmp_path / f"{name}.json"
        fit.write_text(json.dumps(doc))
        data = tmp_path / data_name
        data.write_text(data_text)
        code = main(["eval", "--fit", str(fit), "--data", str(data),
                     "--out", str(tmp_path / name)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        return float(captured.out)

    def test_gmm_sigma2(self, tmp_path, capsys):
        doc = {"model": "gmm", "means": [[0.0], [2.0]], "variances": [[0.5], [0.5]]}
        values = [
            self._eval(tmp_path, capsys, dict(doc, metadata=meta), "h.csv",
                       "0.3\n1.9\n", name)
            for name, meta in (("null", {"k": 2, "sigma2": None}),
                               ("default", {"k": 2, "sigma2": 1.0}))
        ]
        assert values[0] == values[1]

    def test_lda_alpha_and_eta(self, tmp_path, capsys):
        np.savetxt(tmp_path / "lambda.csv", [[1.0, 2.0, 3.0], [3.0, 1.0, 0.5]],
                   delimiter=",")
        doc = {"model": "lda", "lambda_csv": "lambda.csv"}
        corpus = "2\n3\n3\n1 1 2\n1 3 1\n2 2 1\n"
        values = [
            self._eval(tmp_path, capsys, dict(doc, metadata=meta), "h.txt",
                       corpus, name)
            for name, meta in (
                ("null", {"k": 2, "eta": None, "alpha": None}),
                ("default", {"k": 2, "eta": 0.1, "alpha": [0.1, 0.1]}),
            )
        ]
        assert values[0] == values[1]
