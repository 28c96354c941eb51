"""Documented error exits of the command line, run in process through
``main``: each bad argument set exits with its code and a message naming
the setting, and the command creates no ``--out``.

``fit`` refuses a setting that no class of the run reads and checks every
config class it builds before it reads the data, and an SVI batch larger
than the data once it has read them; ``simulate`` refuses a flag that its
model's simulator does not read; ``diagnose-meanfield`` checks its inputs
before it computes anything.
"""

import json

import pytest

from meanfield.cli import main


@pytest.fixture
def files(tmp_path):
    (tmp_path / "mix.csv").write_text("-1\n-1.5\n1\n1.5\n")
    (tmp_path / "reg.csv").write_text("1,2\n2,3.5\n3,6\n4,8.5\n")
    (tmp_path / "corpus.txt").write_text("2\n3\n3\n1 1 2\n1 3 1\n2 2 1\n")
    return tmp_path


def run(files, capsys, argv, config=None):
    """``main`` on ``argv`` with the fixture's files, an optional config
    file and a fresh ``--out``; returns the exit code, stderr and whether
    ``--out`` exists."""
    argv = [a.replace("{dir}", str(files)) for a in argv]
    if config is not None:
        (files / "run.cfg").write_text(config.replace("{dir}", str(files)))
        argv += ["--config", str(files / "run.cfg")]
    out = files / "out"
    code = main([*argv, "--out", str(out)])
    return code, capsys.readouterr().err, out.exists()


GMM = ["fit", "--model", "gmm", "--data", "{dir}/mix.csv"]


@pytest.mark.parametrize("argv, config, names", [
    ([*GMM, "--k", "2", "--kappa", "0.7", "--batch", "2", "--delay", "3"], None,
     ["kappa", "delay", "batch"]),
    ([*GMM, "--k", "2", "--eta", "3", "--alpha", "2", "--a0", "5"], None,
     ["a0", "eta", "alpha"]),
    (["fit", "--model", "blr-ard", "--data", "{dir}/reg.csv", "--k", "7"], None, ["k"]),
    (["fit", "--model", "gmm-diag", "--data", "{dir}/mix.csv", "--k", "2",
      "--sigma2", "9"], None, ["sigma2"]),
    (["fit"], "model = gmm\nk = 2\ndata = {dir}/mix.csv\nkappa = 0.9\neta = 4\n",
     ["kappa", "eta"]),
], ids=["svi-settings-on-cavi", "lda-and-diag-priors-on-gmm", "k-on-blr-ard",
        "sigma2-on-gmm-diag", "config-file"])
def test_unread_setting_exits_2_before_writing(files, capsys, argv, config, names):
    code, err, wrote = run(files, capsys, argv, config)
    assert code == 2, err
    assert all(name in err for name in names), err
    assert not wrote


@pytest.mark.parametrize("argv, name", [
    (["--max-iters", "0"], "max_iters"),
    (["--tol", "0"], "tol"),
    (["--elbo-every", "0"], "elbo_every"),
    (["--heldout-fraction", "0.9"], "heldout_fraction"),
    (["--algorithm", "svi", "--kappa", "0.7", "--heldout-fraction", "0.1"],
     "heldout_fraction"),
], ids=["max-iters", "tol", "elbo-every", "heldout-fraction", "svi-heldout"])
def test_bad_engine_setting_exits_2_before_writing(files, capsys, argv, name):
    code, err, wrote = run(files, capsys, [*GMM, "--k", "1", *argv])
    assert code == 2, err
    assert f"'{name}'" in err
    assert not wrote


@pytest.mark.parametrize("argv, batch, n", [
    (GMM, "0", 4),
    (GMM, "5", 4),
    (["fit", "--model", "lda", "--data", "{dir}/corpus.txt"], "3", 2),
], ids=["gmm-zero", "gmm-above-rows", "lda-above-documents"])
def test_svi_batch_outside_the_data_exits_2_before_writing(files, capsys, argv, batch, n):
    svi = ["--k", "1", "--algorithm", "svi", "--kappa", "0.7", "--batch", batch]
    code, err, wrote = run(files, capsys, [*argv, *svi])
    assert code == 2, err
    assert f"'batch': must lie in [1, {n}]" in err
    assert not wrote


@pytest.mark.parametrize("argv, names", [
    (["--model", "gmm", "--k", "2", "--n", "5", "--noise", "9", "--docs", "3"],
     "noise, docs"),
    (["--model", "gmm-diag", "--k", "2", "--n", "5", "--disjoint"], "disjoint"),
    (["--model", "blr-ard", "--n", "5", "--k", "3", "--alpha", "9"], "k, alpha"),
    (["--model", "lda", "--k", "2", "--n", "5", "--dim", "4", "--separation", "3"],
     "n, dim, separation"),
], ids=["gmm", "gmm-diag", "blr-ard", "lda"])
def test_simulate_refuses_flags_its_model_does_not_read(files, capsys, argv, names):
    code, err, wrote = run(files, capsys, ["simulate", *argv])
    assert code == 2, err
    assert f"'{names}': not read by simulate" in err
    assert not wrote


@pytest.mark.parametrize("argv, config, code, fragment", [
    ([*GMM, "--k", "1", "--seeds", "1,x"], None, 2, "comma-separated integers"),
    (["fit"], "# a fit\n\nmodel = gmm  # unit variance\nk = 1\ndata = {dir}/mix.csv\n",
     0, ""),
    (["fit"], "model = gmm\nk\n", 2, "line 2: expected `key = value`"),
    (["fit"], "model = foo\ndata = {dir}/mix.csv\n", 2, "must be one of"),
    (["fit"], "algorithm = bar\nmodel = gmm\ndata = {dir}/mix.csv\n", 2,
     "must be cavi or svi"),
    (["fit"], "seeds = ,\nmodel = gmm\ndata = {dir}/mix.csv\n", 2,
     "at least one seed is required"),
    (["fit"], "k = 1\ndata = {dir}/mix.csv\n", 2, "a model name is required"),
    (GMM, None, 2, "'k': required for model gmm"),
    (["fit", "--model", "lda", "--data", "{dir}/corpus.txt"], None, 2,
     "'k': required for model lda"),
    (["simulate", "--model", "blr-ard"], None, 2, "needs --n"),
    (["simulate", "--model", "lda"], None, 2, "needs --k"),
    (["eval", "--fit", "{dir}", "--data", "{dir}/mix.csv"], None, 3, "cannot read"),
    (["eval", "--fit", "{dir}/fit.json", "--data", "{dir}/corpus.txt"],
     {"model": "lda", "lambda_csv": 3}, 3, "'lambda_csv' must name a file"),
    (["eval", "--fit", "{dir}/fit.json", "--data", "{dir}/empty.txt"],
     {"model": "lda", "lambda_csv": "lambda.csv"}, 3, "held-out corpus has no tokens"),
], ids=["seeds-not-integers", "config-comments-and-blank-lines", "config-line-without-equals",
        "config-unknown-model", "config-unknown-algorithm", "config-no-seeds",
        "config-no-model", "gmm-without-k", "lda-without-k", "simulate-blr-ard-without-n",
        "simulate-lda-without-k", "eval-fit-is-a-directory", "eval-lambda-csv-not-a-name",
        "eval-heldout-without-triples"])
def test_documented_error_exits(files, capsys, argv, config, code, fragment):
    if isinstance(config, dict):  # a fit document, not a config file
        (files / "fit.json").write_text(json.dumps(config))
        (files / "lambda.csv").write_text("1,2,3\n3,1,0.5\n")
        (files / "empty.txt").write_text("2\n3\n0\n")
        config = None
    got, err, wrote = run(files, capsys, argv, config)
    assert got == code, err
    assert fragment in err
    assert wrote == (code == 0)


@pytest.mark.parametrize("argv, name, fragment", [
    (["--points", "-1"], "points", "must be >= 2"),
    (["--points", "0"], "points", "must be >= 2"),
    (["--points", "1"], "points", "must be >= 2"),
    (["--mean", "nan", "0"], None, "mean and covariance must be finite"),
    (["--cov", "1", "nan", "nan", "1"], None, "mean and covariance must be finite"),
], ids=["points-negative", "points-zero", "points-one", "mean-nan", "cov-nan"])
def test_bad_diagnose_input_exits_2_before_writing(files, capsys, argv, name, fragment):
    cov = [] if "--cov" in argv else ["--cov", "1", "0.5", "0.5", "1"]
    code, err, wrote = run(files, capsys, ["diagnose-meanfield", *cov, *argv])
    assert code == 2, err
    assert fragment in err
    assert name is None or f"'{name}'" in err
    assert not wrote
