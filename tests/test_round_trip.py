"""A fit document holds the fitted state exactly: ``eval`` on it reproduces
the values the fit itself computed, bit for bit.

For every model with a coordinate-ascent fit, ``fit --heldout-fraction 0.1
--seed 3`` scores the rows (or documents) that ``engine._split_heldout``
withholds at every recorded iteration; ``eval`` on that split, written to a
file, must give the trace's last ``heldout_logpred``, and an LDA fit refuses
a corpus over another vocabulary.  For the two stochastic fits, ``eval`` on
the training file must give the model's ``heldout_log_predictive`` of the
state the same fit reports in process.  Every command runs in process
through ``main``.
"""

import json

import numpy as np
import pytest

from meanfield import blr_ard, gmm, lda
from meanfield.cli import main
from meanfield.engine import FitConfig, StepSchedule, _split_heldout, read_data_csv

SIMULATE = {
    "gmm": ["--k", "3", "--n", "60", "--dim", "2"],
    "gmm-diag": ["--k", "3", "--n", "60", "--dim", "2"],
    "blr-ard": ["--n", "50", "--dim", "3"],
    "lda": ["--k", "2", "--docs", "30", "--vocab", "12", "--doc-length", "20"],
}
MODEL_CLASSES = {"gmm": gmm.UnitVarianceGmm, "gmm-diag": gmm.DiagGmm,
                 "blr-ard": blr_ard.BlrArd, "lda": lda.Lda}


def run(capsys, *argv, code=0):
    """``main`` on ``argv``, which must exit with ``code``; returns stderr."""
    got = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert got == code, err
    return err


def simulated(tmp_path, capsys, model):
    """The path and contents of a small simulated dataset for ``model``."""
    out = tmp_path / "sim"
    run(capsys, "simulate", "--model", model, *SIMULATE[model], "--seed", "1",
        "--out", out)
    if model == "lda":
        return out / "corpus.txt", lda.read_uci(out / "corpus.txt")
    return out / "data.csv", read_data_csv(out / "data.csv")


def evaluate(tmp_path, capsys, fit_dir, seed, data):
    run(capsys, "eval", "--fit", fit_dir / f"fit_{seed}.json", "--data", data,
        "--out", tmp_path / "eval")
    return json.loads((tmp_path / "eval" / "eval.json").read_text())


@pytest.mark.parametrize("model", ["gmm", "gmm-diag", "blr-ard", "lda"])
def test_eval_on_the_withheld_split_gives_the_trace_value(tmp_path, capsys, monkeypatch,
                                                          model):
    monkeypatch.setenv("VI_LOG", "quiet")
    path, data = simulated(tmp_path, capsys, model)
    k = [] if model == "blr-ard" else ["--k", SIMULATE[model][1]]
    run(capsys, "fit", "--model", model, *k, "--heldout-fraction", "0.1", "--seed", "3",
        "--data", path, "--out", tmp_path / "fit")
    rows = (tmp_path / "fit" / "trace_3.csv").read_text().splitlines()
    traced = float(rows[-1].split(",")[3])

    config = FitConfig(seed=3, heldout_fraction=0.1)
    _, heldout = _split_heldout(MODEL_CLASSES[model](), data, config)
    split = tmp_path / "heldout"
    if model == "lda":
        lda.write_uci(heldout, split)
    else:
        np.savetxt(split, heldout, fmt="%.17g", delimiter=",")
    doc = evaluate(tmp_path, capsys, tmp_path / "fit", 3, split)
    assert doc["heldout_log_predictive"] == traced
    if model == "lda":
        assert doc["per"] == "word"
        assert doc["count"] == heldout.total_tokens
        run(capsys, "simulate", "--model", "lda", "--k", "2", "--docs", "5", "--vocab", "6",
            "--out", tmp_path / "other")
        err = run(capsys, "eval", "--fit", tmp_path / "fit" / "fit_3.json",
                  "--data", tmp_path / "other" / "corpus.txt", "--out", tmp_path / "e2", code=3)
        assert "vocabulary" in err
    else:
        assert doc["per"] == "point"
        assert doc["count"] == len(heldout) == int(0.1 * len(data))


@pytest.mark.parametrize("model", ["gmm", "lda"])
def test_eval_on_the_training_file_gives_the_svi_state_value(tmp_path, capsys,
                                                             monkeypatch, model):
    monkeypatch.setenv("VI_LOG", "quiet")
    path, data = simulated(tmp_path, capsys, model)
    batch, iters = (10, 40) if model == "gmm" else (5, 30)
    run(capsys, "fit", "--model", model, "--k", SIMULATE[model][1], "--algorithm", "svi",
        "--kappa", "0.7", "--batch", batch, "--max-iters", iters, "--seed", "3",
        "--data", path, "--out", tmp_path / "fit")
    doc = evaluate(tmp_path, capsys, tmp_path / "fit", 3, path)

    schedule, fit_config = StepSchedule(0.7), FitConfig(seed=3, max_iters=iters)
    if model == "gmm":
        config = gmm.UniGmmConfig(k=3)
        report = gmm.gmm_svi_fit(data, config, schedule, fit_config, batch)
        expected = gmm.UnitVarianceGmm(config).heldout_log_predictive(
            report.model_state, data)
    else:
        config = lda.LdaConfig(k=2)
        report = lda.lda_svi_fit(data, config, schedule, fit_config, batch)
        expected = lda.Lda(config).heldout_log_predictive(report.model_state, data)
    assert doc["heldout_log_predictive"] == expected
