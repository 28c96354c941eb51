"""The benchmark's workloads: fixed sequences of ``meanfield`` CLI commands.

Every path is relative to the run's work directory, which holds the
generated inputs under ``in/`` and the command outputs under ``out/``, so a
repeat of a workload writes byte-identical files (``eval.json`` records the
paths it was given).  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

from typing import NamedTuple

from inputs import SIZES

HELDOUT_FRACTION = 0.1
# CAVI fits run a fixed iteration budget: a tolerance this small does not
# stop them early, so the work per fit does not depend on the seed.
TIGHT_TOL = "1e-12"


class Command(NamedTuple):
    label: str
    kind: str  # "fit" or "eval"
    argv: tuple
    out: str
    obs: float = 0.0  # training observations per fit (tokens for lda)
    monotone: bool = False  # CAVI: the ELBO trace must not decrease


def _train(n):
    return n - int(HELDOUT_FRACTION * n)


def _fit(label, model, data, obs, *extra, monotone=True):
    out = f"out/{label}"
    argv = ("fit", "--model", model, "--data", data, "--out", out, *extra)
    return Command(label, "fit", argv, out, obs, monotone)


def _eval(label, fit_label, data):
    out = f"out/{label}"
    argv = ("eval", "--fit", f"out/{fit_label}/fit_0.json", "--data", data,
            "--out", out)
    return Command(label, "eval", argv, out)


def commands(workload, size_name="full"):
    size = SIZES[size_name]
    mix_n, docs, doc_len = size["mix_n"], size["lda_docs"], size["lda_doc_len"]
    k_mix, k_lda = str(size["mix_k"]), str(size["lda_k"])
    held = ("--heldout-fraction", str(HELDOUT_FRACTION))
    if workload == "mixture-cavi":
        return [
            _fit("gmm", "gmm", "in/mix.csv", _train(mix_n), "--k", k_mix,
                 "--seeds", "0,1", *held, "--max-iters", "15", "--tol", TIGHT_TOL),
            _fit("gmm-diag", "gmm-diag", "in/mix.csv", mix_n, "--k", k_mix,
                 "--seeds", "0,1", "--max-iters", "15", "--tol", TIGHT_TOL),
            _fit("blr-ard", "blr-ard", "in/reg.csv", _train(size["reg_n"]),
                 "--seed", "0", *held),
            _eval("eval-gmm", "gmm", "in/mix_eval.csv"),
            _eval("eval-blr-ard", "blr-ard", "in/reg_eval.csv"),
        ]
    if workload == "lda-cavi":
        return [
            _fit("lda", "lda", "in/corpus.txt", _train(docs) * doc_len,
                 "--k", k_lda, "--seed", "0", *held, "--max-iters", "16",
                 "--tol", TIGHT_TOL),
            _eval("eval-lda", "lda", "in/corpus_eval.txt"),
        ]
    if workload == "svi":
        svi = ("--algorithm", "svi", "--kappa", "0.7", "--delay", "1", "--seed", "0")
        return [
            _fit("gmm-svi", "gmm", "in/mix.csv", mix_n, "--k", k_mix, *svi,
                 "--batch", str(size["gmm_svi_batch"]), "--max-iters", "300",
                 "--elbo-every", "100", monotone=False),
            _eval("eval-gmm-svi", "gmm-svi", "in/mix_eval.csv"),
            _fit("lda-svi", "lda", "in/corpus.txt", docs * doc_len, "--k", k_lda,
                 *svi, "--batch", str(size["lda_svi_batch"]), "--max-iters", "60",
                 "--elbo-every", "20", monotone=False),
            _eval("eval-lda-svi", "lda-svi", "in/corpus_eval.txt"),
        ]
    raise KeyError(workload)


WORKLOADS = ("mixture-cavi", "lda-cavi", "svi")

INPUTS = {
    "mixture-cavi": ("mix.csv", "mix_eval.csv", "reg.csv", "reg_eval.csv"),
    "lda-cavi": ("corpus.txt", "corpus_eval.txt"),
    "svi": ("mix.csv", "mix_eval.csv", "corpus.txt", "corpus_eval.txt"),
}
