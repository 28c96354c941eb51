"""End-to-end tests of the command line: exit codes, artifacts, determinism.

Every test but the last runs the package's module from ``src`` in a
subprocess, so these cover argument parsing, error-to-exit-code mapping,
and file layout exactly as a user sees them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

STANDARD_NORMAL_AT_ZERO = -0.91893853320467267
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.setdefault("VI_LOG", "quiet")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "meanfield.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
    )


def read_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture
def two_ones(tmp_path):
    path = tmp_path / "two_ones.csv"
    path.write_text("1\n1\n")
    return path


@pytest.fixture
def mixture_csv(tmp_path):
    rng = np.random.default_rng(0)
    data = np.concatenate([rng.normal(-3, 1, 30), rng.normal(3, 1, 30)])
    path = tmp_path / "mix.csv"
    path.write_text("".join(f"{float(v)!r}\n" for v in data))
    return path


@pytest.fixture
def corpus_txt(tmp_path):
    out = tmp_path / "sim"
    res = run_cli(
        "simulate", "--model", "lda", "--k", "2", "--docs", "20",
        "--vocab", "10", "--doc-length", "15", "--disjoint",
        "--seed", "5", "--out", out,
    )
    assert res.returncode == 0, res.stderr
    return out / "corpus.txt"


class TestExitCodes:
    def test_svi_without_kappa(self, corpus_txt, tmp_path):
        res = run_cli(
            "fit", "--model", "lda", "--algorithm", "svi", "--k", "2",
            "--data", corpus_txt, "--out", tmp_path / "o",
        )
        assert res.returncode == 2
        assert "kappa" in res.stderr

    @pytest.mark.parametrize("model", ["gmm-diag", "blr-ard"])
    def test_svi_unsupported_model(self, model, two_ones, tmp_path):
        k = ["--k", "2"] if model == "gmm-diag" else []
        res = run_cli(
            "fit", "--model", model, "--algorithm", "svi", "--kappa", "0.7",
            *k, "--data", two_ones, "--out", tmp_path / "o",
        )
        assert res.returncode == 2
        assert "svi is implemented for gmm and lda" in res.stderr

    def test_svi_rejects_heldout_monitoring(self, mixture_csv, tmp_path):
        res = run_cli(
            "fit", "--model", "gmm", "--algorithm", "svi", "--kappa", "0.7",
            "--k", "2", "--heldout-fraction", "0.2",
            "--data", mixture_csv, "--out", tmp_path / "o",
        )
        assert res.returncode == 2
        assert "heldout_fraction" in res.stderr

    def test_csv_that_is_not_utf8_reports_line(self, tmp_path):
        # the bad byte lies past the first read buffer of the text decoder
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"1.0\r\n" * 3000 + b"2.0\n\xff3.0\n4.0\n")
        res = run_cli(
            "fit", "--model", "gmm", "--k", "1", "--data", bad,
            "--out", tmp_path / "o",
        )
        assert res.returncode == 3, res.stderr
        assert "line 3002" in res.stderr
        assert "UTF-8" in res.stderr

    def test_corpus_that_is_not_utf8_reports_line(self, tmp_path):
        bad = tmp_path / "corpus.txt"
        bad.write_bytes(b"1\n3\n2\n1 1 1\n1 2 \xe9\n")
        res = run_cli(
            "fit", "--model", "lda", "--k", "1", "--data", bad,
            "--out", tmp_path / "o",
        )
        assert res.returncode == 3, res.stderr
        assert "line 5" in res.stderr

    def test_config_file_that_is_not_utf8_reports_line(self, mixture_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"model = gmm\nk = \xff2\n")
        res = run_cli("fit", "--config", cfg, "--data", mixture_csv,
                      "--out", tmp_path / "o")
        assert res.returncode == 2, res.stderr
        assert "line 2" in res.stderr

    def test_malformed_csv_reports_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nnot-a-number\n")
        res = run_cli(
            "fit", "--model", "gmm", "--k", "1", "--data", bad,
            "--out", tmp_path / "o",
        )
        assert res.returncode == 3
        assert "line 2" in res.stderr

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    def test_non_finite_csv_field_reports_line(self, tmp_path, field):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"1,2\n3,{field}\n4,5\n")
        res = run_cli(
            "fit", "--model", "gmm", "--k", "1", "--data", bad,
            "--out", tmp_path / "o",
        )
        assert res.returncode == 3
        assert "line 2" in res.stderr

    def test_malformed_corpus_reports_line(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n4\n2\n1 1 2\n1 2\n")
        res = run_cli(
            "fit", "--model", "lda", "--k", "2", "--data", bad,
            "--out", tmp_path / "o",
        )
        assert res.returncode == 3
        assert "line 5" in res.stderr

    def test_missing_data_file(self, tmp_path):
        res = run_cli(
            "fit", "--model", "gmm", "--k", "1",
            "--data", tmp_path / "nope.csv", "--out", tmp_path / "o",
        )
        assert res.returncode == 3

    def test_missing_config_file(self, tmp_path):
        res = run_cli("fit", "--config", tmp_path / "nope.cfg")
        assert res.returncode == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("modle = gmm\n")
        res = run_cli("fit", "--config", cfg)
        assert res.returncode == 2
        assert "modle" in res.stderr

    def test_unparseable_config_value(self, tmp_path, two_ones):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = gmm\nk = two\ndata = {two_ones}\n")
        res = run_cli("fit", "--config", cfg)
        assert res.returncode == 2
        assert "k" in res.stderr

    def test_seed_and_seeds_conflict(self, two_ones, tmp_path):
        res = run_cli(
            "fit", "--model", "gmm", "--k", "1", "--data", two_ones,
            "--seed", "1", "--seeds", "1,2", "--out", tmp_path / "o",
        )
        assert res.returncode == 2
        assert "seeds" in res.stderr

    def test_duplicate_seeds(self, two_ones, tmp_path):
        res = run_cli(
            "fit", "--model", "gmm", "--k", "1", "--data", two_ones,
            "--seeds", "0,1,0", "--out", tmp_path / "o",
        )
        assert res.returncode == 2
        assert "seeds" in res.stderr
        assert not (tmp_path / "o" / "fit_0.json").exists()

    def test_invalid_log_level(self, two_ones, tmp_path):
        res = run_cli(
            "fit", "--model", "gmm", "--k", "1", "--data", two_ones,
            "--out", tmp_path / "o", env_extra={"VI_LOG": "loud"},
        )
        assert res.returncode == 2
        assert "VI_LOG" in res.stderr

    def test_numeric_overflow_exits_4_with_iteration(self, tmp_path):
        huge = tmp_path / "huge.csv"
        huge.write_text("1e200,1\n-1e200,2\n")
        res = run_cli(
            "fit", "--model", "blr-ard", "--data", huge,
            "--out", tmp_path / "o",
        )
        assert res.returncode == 4
        assert "iteration" in res.stderr

    def test_unknown_flag_exits_2(self, two_ones, tmp_path):
        res = run_cli(
            "fit", "--model", "gmm", "--k", "1", "--data", two_ones,
            "--frobnicate", "--out", tmp_path / "o",
        )
        assert res.returncode == 2

    def test_missing_model_and_data(self, tmp_path):
        assert run_cli("fit", "--out", tmp_path / "o").returncode == 2

    def test_negative_seed(self, two_ones, tmp_path):
        res = run_cli(
            "fit", "--model", "gmm", "--k", "1", "--data", two_ones,
            "--seed", "-1", "--out", tmp_path / "o",
        )
        assert res.returncode == 2
        assert "seed" in res.stderr

    @pytest.mark.parametrize("flag", ["--parallel", "--scale"])
    def test_removed_flag(self, two_ones, tmp_path, flag):
        res = run_cli(
            "fit", "--model", "gmm", "--k", "1", "--data", two_ones,
            flag, "2", "--out", tmp_path / "o",
        )
        assert res.returncode == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["parallel = 2", "scale = 0.5"])
    def test_removed_config_key(self, two_ones, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = gmm\nk = 1\ndata = {two_ones}\n{line}\n")
        res = run_cli("fit", "--config", cfg, "--out", tmp_path / "o")
        assert res.returncode == 2
        assert "unknown configuration key" in res.stderr
        assert line.split()[0] in res.stderr

    @pytest.mark.parametrize("delay", ["nan", "inf"])
    def test_non_finite_delay(self, mixture_csv, tmp_path, delay):
        res = run_cli(
            "fit", "--model", "gmm", "--algorithm", "svi", "--kappa", "0.7",
            "--delay", delay, "--k", "2", "--data", mixture_csv,
            "--out", tmp_path / "o",
        )
        assert res.returncode == 2
        assert "'delay'" in res.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "command, below",
        [("fit", ""), ("simulate", ""), ("eval", ""), ("diagnose", ""), ("fit", "o")],
        ids=["fit", "simulate", "eval", "diagnose", "fit-below-a-file"],
    )
    def test_out_that_cannot_be_a_directory(self, two_ones, tmp_path, command, below):
        fit = tmp_path / "fit_0.json"
        fit.write_text(json.dumps({
            "model": "gmm", "metadata": {"k": 1}, "means": [[0.0]],
            "variances": [[0.5]],
        }))
        argv = {
            "fit": ["fit", "--model", "gmm", "--k", "1", "--data", two_ones],
            "simulate": ["simulate", "--model", "gmm", "--k", "1", "--n", "5"],
            "eval": ["eval", "--fit", fit, "--data", two_ones],
            "diagnose": ["diagnose-meanfield", "--cov", "1", "0", "0", "1"],
        }[command]
        res = run_cli(*argv, "--out", two_ones / below)
        assert res.returncode == 2
        assert "'out'" in res.stderr
        assert "Traceback" not in res.stderr
        assert res.stdout == ""

    @pytest.mark.parametrize(
        "command, name",
        [
            ("fit", "fit_0.json"), ("fit", "trace_0.csv"),
            ("simulate", "data.csv"), ("simulate-lda", "corpus.txt"),
            ("eval", "eval.json"), ("diagnose", "diagnose.csv"),
        ],
    )
    def test_output_file_that_is_a_directory(self, two_ones, tmp_path, command, name):
        fit = tmp_path / "fit_0.json"
        fit.write_text(json.dumps({
            "model": "gmm", "metadata": {"k": 1}, "means": [[0.0]],
            "variances": [[0.5]],
        }))
        argv = {
            "fit": ["fit", "--model", "gmm", "--k", "1", "--data", two_ones],
            "simulate": ["simulate", "--model", "gmm", "--k", "1", "--n", "5"],
            "simulate-lda": ["simulate", "--model", "lda", "--k", "2", "--docs", "3"],
            "eval": ["eval", "--fit", fit, "--data", two_ones],
            "diagnose": ["diagnose-meanfield", "--cov", "1", "0", "0", "1"],
        }[command]
        out = tmp_path / "od"
        (out / name).mkdir(parents=True)
        res = run_cli(*argv, "--out", out)
        assert res.returncode == 2
        assert "'out'" in res.stderr
        assert f"cannot write {out / name}" in res.stderr
        assert "Traceback" not in res.stderr

    def test_non_spd_diagnose_covariance(self, tmp_path):
        res = run_cli(
            "diagnose-meanfield", "--cov", "1", "2", "2", "1",
            "--out", tmp_path / "o",
        )
        assert res.returncode == 2


class TestFit:
    def test_conjugate_example(self, two_ones, tmp_path):
        out = tmp_path / "fit"
        res = run_cli(
            "fit", "--model", "gmm", "--k", "1", "--sigma2", "1",
            "--data", two_ones, "--tol", "1e-10", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        doc = read_json(out / "fit_0.json")
        assert doc["model"] == "gmm"
        assert doc["converged"] is True
        assert doc["means"][0][0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert doc["variances"][0][0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        trace = (out / "trace_0.csv").read_text().splitlines()
        assert trace[0] == "iter,elbo,elapsed_ms,heldout_logpred"
        summary = read_json(out / "summary.json")
        assert summary["seeds"] == [0]
        assert len(summary["final_elbos"]) == 1

    def test_ten_seed_study(self, mixture_csv, tmp_path):
        out = tmp_path / "multi"
        res = run_cli(
            "fit", "--model", "gmm", "--k", "2", "--data", mixture_csv,
            "--seeds", ",".join(str(s) for s in range(10)),
            "--max-iters", "60", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        summary = read_json(out / "summary.json")
        assert summary["seeds"] == list(range(10))
        assert len(summary["final_elbos"]) == 10
        for seed in range(10):
            assert (out / f"fit_{seed}.json").exists()
            assert (out / f"trace_{seed}.csv").exists()

    def test_byte_identical_reruns(self, mixture_csv, tmp_path):
        base = ["fit", "--model", "gmm", "--k", "2", "--data", mixture_csv,
                "--seeds", "0,1", "--max-iters", "50"]
        assert run_cli(*base, "--out", tmp_path / "a").returncode == 0
        assert run_cli(*base, "--out", tmp_path / "b").returncode == 0
        for name in ("fit_0.json", "fit_1.json", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        for seed in (0, 1):
            rows_a = [l.split(",") for l in
                      (tmp_path / "a" / f"trace_{seed}.csv").read_text().splitlines()]
            rows_b = [l.split(",") for l in
                      (tmp_path / "b" / f"trace_{seed}.csv").read_text().splitlines()]
            assert len(rows_a) == len(rows_b)
            for ra, rb in zip(rows_a, rows_b):
                # elapsed_ms is wall clock; everything else must match
                assert (ra[0], ra[1], ra[3]) == (rb[0], rb[1], rb[3])

    def test_config_file_equals_flags(self, mixture_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"model = gmm\nk = 2\ndata = {mixture_csv}\n"
            "seeds = 0,1\nmax-iters = 40\ntol = 1e-9\n"
        )
        assert run_cli("fit", "--config", cfg, "--out", tmp_path / "f").returncode == 0
        assert run_cli(
            "fit", "--model", "gmm", "--k", "2", "--data", mixture_csv,
            "--seeds", "0,1", "--max-iters", "40", "--tol", "1e-9",
            "--out", tmp_path / "g",
        ).returncode == 0
        for name in ("fit_0.json", "fit_1.json", "summary.json"):
            assert (tmp_path / "f" / name).read_bytes() == (
                tmp_path / "g" / name
            ).read_bytes()

    def test_flag_overrides_config_file(self, mixture_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = gmm\nk = 2\ndata = {mixture_csv}\nseeds = 0,1,2\n")
        out = tmp_path / "o"
        res = run_cli("fit", "--config", cfg, "--seed", "9", "--out", out)
        assert res.returncode == 0, res.stderr
        assert (out / "fit_9.json").exists()
        assert not (out / "fit_0.json").exists()
        assert read_json(out / "summary.json")["seeds"] == [9]

    def test_heldout_monitoring_recorded(self, mixture_csv, tmp_path):
        out = tmp_path / "h"
        res = run_cli(
            "fit", "--model", "gmm", "--k", "2", "--data", mixture_csv,
            "--heldout-fraction", "0.2", "--max-iters", "30", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        rows = (out / "trace_0.csv").read_text().splitlines()[1:]
        heldout = [row.split(",")[3] for row in rows]
        assert all(h != "" for h in heldout)
        assert float(heldout[-1]) < 0.0

    def test_gmm_svi_fit_document(self, mixture_csv, tmp_path):
        out = tmp_path / "svi"
        res = run_cli(
            "fit", "--model", "gmm", "--algorithm", "svi", "--k", "2",
            "--kappa", "0.7", "--delay", "1", "--batch", "10",
            "--max-iters", "200", "--elbo-every", "50",
            "--data", mixture_csv, "--out", out,
        )
        assert res.returncode == 0, res.stderr
        doc = read_json(out / "fit_0.json")
        assert doc["algorithm"] == "svi"
        assert doc["metadata"]["kappa"] == 0.7
        assert "scale" not in doc["metadata"]
        assert np.asarray(doc["means"]).shape == (2, 1)
        assert np.all(np.asarray(doc["variances"]) > 0.0)

    def test_gmm_svi_fit_document_describes_itself(self, mixture_csv, tmp_path):
        out = tmp_path / "svi"
        res = run_cli(
            "fit", "--model", "gmm", "--algorithm", "svi", "--k", "2",
            "--sigma2", "2", "--kappa", "0.7", "--batch", "10",
            "--max-iters", "20", "--data", mixture_csv, "--out", out,
        )
        assert res.returncode == 0, res.stderr
        meta = read_json(out / "fit_0.json")["metadata"]
        assert meta["k"] == 2
        assert meta["sigma2"] == 2.0
        assert meta["n_train"] == 60
        res = run_cli("eval", "--fit", out / "fit_0.json", "--data", mixture_csv,
                      "--out", tmp_path / "e")
        assert res.returncode == 0, res.stderr

    def test_gmm_svi_elbo_comparable_to_cavi(self, mixture_csv, tmp_path):
        res = run_cli(
            "fit", "--model", "gmm", "--k", "2", "--data", mixture_csv,
            "--out", tmp_path / "cavi",
        )
        assert res.returncode == 0
        res = run_cli(
            "fit", "--model", "gmm", "--algorithm", "svi", "--k", "2",
            "--kappa", "0.7", "--delay", "1", "--batch", "10",
            "--max-iters", "600", "--elbo-every", "100",
            "--data", mixture_csv, "--out", tmp_path / "svi",
        )
        assert res.returncode == 0
        cavi = read_json(tmp_path / "cavi" / "fit_0.json")["final_elbo"]
        svi = read_json(tmp_path / "svi" / "fit_0.json")["final_elbo"]
        assert svi == pytest.approx(cavi, abs=1e-2 * abs(cavi))

    def test_lda_fit_writes_topic_files(self, corpus_txt, tmp_path):
        out = tmp_path / "lda"
        res = run_cli(
            "fit", "--model", "lda", "--k", "2", "--data", corpus_txt,
            "--max-iters", "40", "--seed", "1", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        doc = read_json(out / "fit_1.json")
        assert doc["lambda_csv"] == "lambda_1.csv"
        assert doc["gamma_csv"] == "gamma_1.csv"
        lam = np.loadtxt(out / "lambda_1.csv", delimiter=",")
        gam = np.loadtxt(out / "gamma_1.csv", delimiter=",")
        assert lam.shape == (2, 10)
        assert gam.shape == (20, 2)
        assert len(doc["top_terms"]) == 2

    def test_lda_svi_runs(self, corpus_txt, tmp_path):
        out = tmp_path / "ldasvi"
        res = run_cli(
            "fit", "--model", "lda", "--algorithm", "svi", "--k", "2",
            "--kappa", "0.7", "--delay", "1", "--batch", "5",
            "--max-iters", "100", "--elbo-every", "50",
            "--data", corpus_txt, "--seed", "3", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        doc = read_json(out / "fit_3.json")
        assert doc["algorithm"] == "svi"
        assert doc["metadata"]["batch_size"] == 5
        assert doc["metadata"]["n_train"] == 20
        assert "scale" not in doc["metadata"]

    @pytest.mark.parametrize("algorithm", ["cavi", "svi"])
    def test_lda_fit_reports_estep_cap_hits(self, corpus_txt, tmp_path, algorithm):
        out = tmp_path / algorithm
        svi = ["--kappa", "0.7", "--batch", "5"] if algorithm == "svi" else []
        res = run_cli(
            "fit", "--model", "lda", "--algorithm", algorithm, "--k", "2", *svi,
            "--max-iters", "4", "--data", corpus_txt, "--seed", "0", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        meta = read_json(out / "fit_0.json")["metadata"]
        assert 0 <= meta["estep_cap_hits"] <= 20
        assert 1 <= meta["estep_max_updates"] <= 100


class TestSimulate:
    def test_gmm_shapes(self, tmp_path):
        out = tmp_path / "sim"
        res = run_cli(
            "simulate", "--model", "gmm", "--k", "5", "--n", "1000",
            "--dim", "2", "--separation", "4", "--seed", "0", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        data = np.loadtxt(out / "data.csv", delimiter=",")
        assert data.shape == (1000, 2)
        truth = read_json(out / "truth.json")
        assert np.asarray(truth["means"]).shape == (5, 2)
        assert len(truth["labels"]) == 1000

    def test_same_seed_byte_identical(self, tmp_path):
        args = ["simulate", "--model", "gmm", "--k", "3", "--n", "100",
                "--seed", "11"]
        assert run_cli(*args, "--out", tmp_path / "a").returncode == 0
        assert run_cli(*args, "--out", tmp_path / "b").returncode == 0
        for name in ("data.csv", "truth.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_lda_disjoint_topics_partition_vocab(self, tmp_path):
        out = tmp_path / "lda"
        res = run_cli(
            "simulate", "--model", "lda", "--k", "2", "--docs", "10",
            "--vocab", "8", "--disjoint", "--seed", "0", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        topics = np.asarray(read_json(out / "truth.json")["topics"])
        support = topics > 0.0
        assert not np.any(support[0] & support[1])
        assert np.all(support[0] | support[1])

    def test_blr_shapes(self, tmp_path):
        out = tmp_path / "reg"
        res = run_cli(
            "simulate", "--model", "blr-ard", "--n", "50", "--dim", "3",
            "--noise", "0.5", "--seed", "2", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        data = np.loadtxt(out / "data.csv", delimiter=",")
        assert data.shape == (50, 4)
        truth = read_json(out / "truth.json")
        assert len(truth["coefficients"]) == 3
        assert truth["noise_sd"] == 0.5

    @pytest.mark.parametrize(
        "args, name",
        [
            (["--model", "gmm", "--n", "10"], "k"),
            (["--model", "gmm", "--k", "2", "--n", "10", "--mean-scale", "nan"],
             "mean_scale"),
            (["--model", "blr-ard", "--n", "-1"], "n"),
            (["--model", "blr-ard", "--n", "10", "--dim", "-2"], "dim"),
            (["--model", "blr-ard", "--n", "10", "--dim", "0"], "dim"),
            (["--model", "blr-ard", "--n", "10", "--noise", "nan"], "noise"),
            (["--model", "lda", "--k", "2", "--alpha", "-1"], "alpha"),
            (["--model", "lda", "--k", "2", "--eta", "0"], "eta"),
            *[(["--model", "gmm", "--k", "2", "--n", "10", "--separation", value],
               "min_separation") for value in ("nan", "inf", "-1")],
        ],
        ids=["no-k", "mean-scale-nan", "n-negative", "dim-negative", "dim-zero",
             "noise-nan", "alpha-negative", "eta-zero", "separation-nan",
             "separation-inf", "separation-negative"],
    )
    def test_bad_argument_exits_2_before_writing(self, tmp_path, args, name):
        out = tmp_path / "new"
        res = run_cli("simulate", *args, "--out", out)
        assert res.returncode == 2, res.stderr
        assert f"'{name}'" in res.stderr
        assert not out.exists()


class TestDiagnose:
    def test_correlated_gaussian_variances(self, tmp_path):
        out = tmp_path / "d"
        res = run_cli(
            "diagnose-meanfield", "--cov", "1", "0.9", "0.9", "1", "--out", out
        )
        assert res.returncode == 0, res.stderr
        doc = read_json(out / "diagnose.json")
        assert doc["meanfield_variances"][0] == pytest.approx(0.19, rel=1e-12)
        assert doc["meanfield_variances"][1] == pytest.approx(0.19, rel=1e-12)
        printed = [float(v) for v in res.stdout.split()]
        assert printed == pytest.approx([0.19, 0.19], rel=1e-12)

    def test_contour_csv_layout(self, tmp_path):
        out = tmp_path / "d"
        res = run_cli(
            "diagnose-meanfield", "--cov", "1", "0.5", "0.5", "1",
            "--points", "64", "--out", out,
        )
        assert res.returncode == 0
        lines = (out / "diagnose.csv").read_text().splitlines()
        assert lines[0] == "curve,x,y"
        curves = {line.split(",")[0] for line in lines[1:]}
        assert curves == {"target", "meanfield"}
        assert len(lines) == 1 + 2 * 64

    def test_identity_covariance_contours_coincide(self, tmp_path):
        out = tmp_path / "d"
        res = run_cli(
            "diagnose-meanfield", "--cov", "1", "0", "0", "1", "--out", out
        )
        assert res.returncode == 0
        rows = [line.split(",") for line in
                (out / "diagnose.csv").read_text().splitlines()[1:]]
        target = np.array([[float(r[1]), float(r[2])] for r in rows
                           if r[0] == "target"])
        approx = np.array([[float(r[1]), float(r[2])] for r in rows
                           if r[0] == "meanfield"])
        assert np.max(np.abs(target - approx)) < 1e-12


class TestEval:
    def _standard_normal_fit(self, tmp_path):
        fit = tmp_path / "fit_0.json"
        fit.write_text(json.dumps({
            "model": "gmm",
            "metadata": {"k": 1, "sigma2": 0.5},
            "means": [[0.0]],
            "variances": [[0.5]],
        }))
        return fit

    def test_standard_normal_point(self, tmp_path):
        fit = self._standard_normal_fit(tmp_path)
        heldout = tmp_path / "h.csv"
        heldout.write_text("0\n")
        res = run_cli("eval", "--fit", fit, "--data", heldout,
                      "--out", tmp_path / "e")
        assert res.returncode == 0, res.stderr
        assert float(res.stdout.strip()) == pytest.approx(
            STANDARD_NORMAL_AT_ZERO, abs=1e-12
        )
        doc = read_json(tmp_path / "e" / "eval.json")
        assert doc["heldout_log_predictive"] == pytest.approx(
            STANDARD_NORMAL_AT_ZERO, abs=1e-12
        )
        assert doc["per"] == "point"
        assert doc["count"] == 1

    def test_row_order_invariant(self, tmp_path):
        fit = self._standard_normal_fit(tmp_path)
        fwd, rev = tmp_path / "f.csv", tmp_path / "r.csv"
        rows = ["0.3", "-1.2", "2.5", "0.0", "-0.7"]
        fwd.write_text("\n".join(rows) + "\n")
        rev.write_text("\n".join(reversed(rows)) + "\n")
        a = run_cli("eval", "--fit", fit, "--data", fwd, "--out", tmp_path / "ea")
        b = run_cli("eval", "--fit", fit, "--data", rev, "--out", tmp_path / "eb")
        assert a.returncode == 0 and b.returncode == 0
        assert float(a.stdout) == pytest.approx(float(b.stdout), abs=1e-12)

    def test_empty_heldout_file(self, tmp_path):
        fit = self._standard_normal_fit(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        res = run_cli("eval", "--fit", fit, "--data", empty,
                      "--out", tmp_path / "e")
        assert res.returncode == 3

    @pytest.mark.parametrize(
        "text, needle",
        [
            (json.dumps({"model": "gmm", "variances": [[0.5]]}), "'means'"),
            (json.dumps([{"model": "gmm"}]), "JSON object"),
            (
                json.dumps({"model": "gmm", "means": [["0"], ["zero"]],
                            "variances": [[0.5], [0.5]]}),
                "'means'",
            ),
            ("[" * 100_000, "not valid JSON"),
            (
                json.dumps({"model": "blr-ard", "coefficients": 1.0}),
                "'coefficients' must have 1 axes",
            ),
        ],
        ids=["missing-field", "list", "non-numeric", "nested-too-deep", "scalar"],
    )
    def test_malformed_fit_document(self, tmp_path, text, needle):
        fit = tmp_path / "fit_0.json"
        fit.write_text(text)
        heldout = tmp_path / "h.csv"
        heldout.write_text("0\n")
        res = run_cli("eval", "--fit", fit, "--data", heldout,
                      "--out", tmp_path / "e")
        assert res.returncode == 3, res.stderr
        assert needle in res.stderr
        assert "Traceback" not in res.stderr

    def test_inconsistent_fit_document_arrays(self, tmp_path):
        fit = tmp_path / "fit_0.json"
        fit.write_text(json.dumps({
            "model": "gmm-diag", "weight_concentration": [1.0, 1.0],
            "locations": [[0.0], [1.0]], "scales": [[1.0], [1.0]],
            "shapes": [[1.0, 1.0], [1.0, 1.0]], "rates": [[1.0], [1.0]],
        }))
        heldout = tmp_path / "h.csv"
        heldout.write_text("0\n")
        res = run_cli("eval", "--fit", fit, "--data", heldout,
                      "--out", tmp_path / "e")
        assert res.returncode == 2, res.stderr
        assert "inconsistent dimensions" in res.stderr

    def test_dimension_mismatch(self, tmp_path):
        fit = self._standard_normal_fit(tmp_path)
        wide = tmp_path / "wide.csv"
        wide.write_text("0,0\n")
        res = run_cli("eval", "--fit", fit, "--data", wide,
                      "--out", tmp_path / "e")
        assert res.returncode == 3
        assert "column" in res.stderr

    def test_lda_round_trip_and_vocab_mismatch(self, corpus_txt, tmp_path):
        out = tmp_path / "lda"
        res = run_cli(
            "fit", "--model", "lda", "--k", "2", "--data", corpus_txt,
            "--max-iters", "40", "--out", out,
        )
        assert res.returncode == 0, res.stderr
        res = run_cli("eval", "--fit", out / "fit_0.json",
                      "--data", corpus_txt, "--out", tmp_path / "e")
        assert res.returncode == 0, res.stderr
        value = float(res.stdout)
        assert -10.0 < value < 0.0
        doc = read_json(tmp_path / "e" / "eval.json")
        assert doc["per"] == "word"

        other = tmp_path / "other"
        assert run_cli(
            "simulate", "--model", "lda", "--k", "2", "--docs", "5",
            "--vocab", "6", "--seed", "1", "--out", other,
        ).returncode == 0
        res = run_cli("eval", "--fit", out / "fit_0.json",
                      "--data", other / "corpus.txt", "--out", tmp_path / "e2")
        assert res.returncode == 3
        assert "vocabulary" in res.stderr

    def test_blr_fit_eval_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(40, 3))
        y = x @ np.array([1.5, 0.0, -0.5]) + 0.3 * rng.normal(size=40)
        train = tmp_path / "train.csv"
        np.savetxt(train, np.column_stack([x, y]), delimiter=",")
        out = tmp_path / "blr"
        res = run_cli("fit", "--model", "blr-ard", "--data", train,
                      "--out", out)
        assert res.returncode == 0, res.stderr
        heldout = tmp_path / "h.csv"
        heldout.write_text("0.1,0.2,0.3,0.15\n0.0,0.0,0.0,0.0\n")
        res = run_cli("eval", "--fit", out / "fit_0.json",
                      "--data", heldout, "--out", tmp_path / "e")
        assert res.returncode == 0, res.stderr
        assert np.isfinite(float(res.stdout))
        doc = read_json(tmp_path / "e" / "eval.json")
        assert doc["count"] == 2


@pytest.mark.parametrize("model", ["gmm", "lda"])
def test_svi_fit_is_called_through_its_module_name(model, request, tmp_path, monkeypatch):
    """The benchmark's spans (``perfbench/spans.py``) time a function by
    rebinding its name in every ``meanfield`` module, so the CLI must reach
    each SVI fit through its model module's name at run time, not a
    reference it kept."""
    import importlib

    from meanfield import cli

    module = importlib.import_module(f"meanfield.{model}")
    name = f"{model}_svi_fit"
    real = getattr(module, name)
    calls = []
    monkeypatch.setattr(module, name, lambda *args: calls.append(name) or real(*args))
    data = request.getfixturevalue("mixture_csv" if model == "gmm" else "corpus_txt")
    monkeypatch.setenv("VI_LOG", "quiet")
    code = cli.main([
        "fit", "--model", model, "--algorithm", "svi", "--kappa", "0.7",
        "--k", "2", "--max-iters", "5", "--data", str(data), "--out", str(tmp_path / "o"),
    ])
    assert code == 0
    assert calls == [name]
