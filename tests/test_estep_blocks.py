"""The E-step on padded length buckets.

``lda.e_step`` sorts documents by length into padded blocks and runs one
``digamma`` call per pass over the active documents.  These tests drive it
with lengths from 1 to 200 distinct terms (several buckets), empty
documents at both ends and an entry whose exp-space normalizer underflows,
and check that a fit's outputs do not depend on the BLAS thread count.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import meanfield.lda as lda_module
from meanfield.expfam import _dirichlet_expected_log_rows
from meanfield.lda import Lda, LdaConfig, LdaState, simulate_corpus

from _oracles import corpus_of
from test_lda import assert_matches_per_document_loop, e_step_calls  # noqa: F401

LENGTHS = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200, 7, 150, 1)


def skewed_corpus():
    """Empty documents first and last; between them documents of LENGTHS
    distinct terms from ids 2 and up, then one document of terms 0 and 1."""
    rng = np.random.default_rng(11)
    vocab = 400
    empty = (np.array([], dtype=int), np.array([]))
    docs = [empty]
    for length in LENGTHS:
        terms = np.sort(rng.choice(np.arange(2, vocab), size=length, replace=False))
        docs.append((terms, rng.integers(1, 5, size=length).astype(float)))
    docs.append((np.array([0, 1]), np.array([1.0, 1000.0])))
    docs.append(empty)
    return corpus_of(docs, vocab)


def skewed_start(corpus):
    """Topics and a start ``gamma`` under which the document of terms 0 and
    1 (second to last) favours topic 1 by ~1000 nats while term 0 favours
    topic 0 by as much, so that entry's normalizer underflows."""
    config = LdaConfig(k=2, eta=1e-3, alpha=1e-3)
    lam = np.random.default_rng(5).uniform(0.5, 5.0, size=(2, corpus.v))
    lam[:, 0] = [100.0, 1e-3]
    lam[:, 1] = [1e-3, 100.0]
    gamma = config.alpha + corpus.doc_lengths()[:, None] / 2
    gamma[-2] = [1e-3, 1001.0]
    return config, lam, gamma


def test_skewed_corpus_needs_several_buckets():
    # one block padded to the longest document would be under half full
    lens = np.diff(skewed_corpus().indptr)
    lens = lens[lens > 0]
    assert lens.max() == 200 and lens.min() == 1
    assert 2 * lens.sum() < lens.size * lens.max()


def test_skewed_corpus_matches_per_document_loop(e_step_calls):  # noqa: F811
    corpus = skewed_corpus()
    config, lam, gamma = skewed_start(corpus)
    elog_beta = _dirichlet_expected_log_rows(lam)
    log_theta = lda_module.digamma(gamma[-2])
    theta = np.exp(log_theta - log_theta.max())
    beta = np.exp(elog_beta[:, 0] - elog_beta[:, 0].max())
    assert theta @ beta < lda_module._NORM_FLOOR  # the underflowing entry

    state = LdaState(lam, gamma)
    model = Lda(config)
    swept = model.sweep(state, corpus)
    model.heldout_log_predictive(swept, corpus)
    assert len(e_step_calls) == 2
    for call in e_step_calls:
        iterations = assert_matches_per_document_loop(call, rtol=1e-10)
        assert iterations[0] == iterations[-1] == 0  # the empty documents
        assert np.all(iterations[1:-1] >= 1)
    assert len(set(e_step_calls[0][4][2].tolist())) > 2


@pytest.mark.parametrize("case", ["skewed", "simulated", "one document"])
def test_one_digamma_call_per_pass(monkeypatch, case):
    calls = []
    digamma = lda_module.digamma

    def counting(x):
        calls.append(np.shape(x))
        return digamma(x)

    monkeypatch.setattr(lda_module, "digamma", counting)
    if case == "skewed":
        corpus = skewed_corpus()
        config, lam, gamma = skewed_start(corpus)
    else:
        corpus, _ = simulate_corpus(3, 30, 60, 40, seed=4)
        if case == "one document":
            corpus = corpus.subset([7])
        config = LdaConfig(k=3)
        lam = np.random.default_rng(2).uniform(0.5, 3.0, size=(3, corpus.v))
        gamma = lda_module._fresh_gamma(corpus, config)
    elog_beta = _dirichlet_expected_log_rows(lam)
    _, _, iterations = lda_module.e_step(corpus, elog_beta, gamma, config.alpha)
    assert iterations.max() >= 2
    assert len(calls) == iterations.max()
    # each pass runs digamma on the documents still active, no others
    active = [np.count_nonzero(iterations >= it) for it in range(1, len(calls) + 1)]
    assert [shape[0] for shape in calls] == active


def run_fit(tmp_path, corpus_path, name, argv, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    out = tmp_path / name
    res = subprocess.run(
        [sys.executable, "-m", "meanfield.cli", "fit", "--model", "lda",
         "--data", str(corpus_path), "--out", str(out), "--k", "4", *argv],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    files = {}
    for path in sorted(out.iterdir()):
        lines = path.read_text(encoding="utf-8").splitlines()
        if path.name.startswith("trace_"):
            # drop the wall-clock column
            lines = [",".join(line.split(",")[:2] + line.split(",")[3:]) for line in lines]
        files[path.name] = lines
    return files


@pytest.mark.parametrize("argv", [
    ["--seed", "0", "--max-iters", "4", "--heldout-fraction", "0.1"],
    ["--algorithm", "svi", "--kappa", "0.7", "--seed", "0", "--batch", "8",
     "--max-iters", "10", "--elbo-every", "5"],
], ids=["cavi", "svi"])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, argv):
    if (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS caps its threads at the core count")
    corpus, _ = simulate_corpus(4, 60, 300, 80, seed=3)
    corpus_path = tmp_path / "corpus.txt"
    lda_module.write_uci(corpus, corpus_path)
    one = run_fit(tmp_path, corpus_path, "one", argv, "1")
    two = run_fit(tmp_path, corpus_path, "two", argv, "2")
    assert sorted(one) == ["fit_0.json", "gamma_0.csv", "lambda_0.csv",
                           "summary.json", "trace_0.csv"]
    for name in one:
        assert one[name] == two[name], name
