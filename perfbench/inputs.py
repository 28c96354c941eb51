"""Seeded input files for the benchmark workloads.

The inputs are drawn here with numpy, never through ``meanfield simulate``,
so a change to the program's simulators cannot change what the benchmark
feeds it.  The parameters behind the data (mixture means, regression
coefficients, topics) come from a fixed world seed; the benchmark's
``--seed`` draws the observations.  Every seed is thus a fresh sample of one
population, and the work a fit does varies little from seed to seed.  Every
generator returns the file's bytes; the caller writes them and records their
SHA-256 digests.
"""

from __future__ import annotations

import hashlib
import io

import numpy as np

WORLD_SEED = 160100670


# Input sizes, and the SVI batch sizes that go with them.  ``full`` is what
# the timed workloads use; ``smoke`` is a tiny variant for the benchmark's
# own tests.
SIZES = {
    "full": {
        "mix_n": 10000,
        "mix_eval_n": 1000,
        "mix_dim": 8,
        "mix_k": 10,
        "mix_scale": 2.0,
        "reg_n": 5000,
        "reg_eval_n": 500,
        "reg_dim": 200,
        "reg_active": 20,
        "reg_noise": 1.0,
        "lda_docs": 100,
        "lda_eval_docs": 40,
        "lda_vocab": 1000,
        "lda_k": 10,
        "lda_doc_len": 50,
        "gmm_svi_batch": 100,
        "lda_svi_batch": 16,
    },
    "smoke": {
        "mix_n": 300,
        "mix_eval_n": 60,
        "mix_dim": 2,
        "mix_k": 3,
        "mix_scale": 2.0,
        "reg_n": 120,
        "reg_eval_n": 40,
        "reg_dim": 5,
        "reg_active": 2,
        "reg_noise": 1.0,
        "lda_docs": 20,
        "lda_eval_docs": 6,
        "lda_vocab": 40,
        "lda_k": 3,
        "lda_doc_len": 30,
        "gmm_svi_batch": 10,
        "lda_svi_batch": 4,
    },
}


def _csv_bytes(matrix):
    buf = io.StringIO()
    np.savetxt(buf, matrix, fmt="%.17g", delimiter=",")
    return buf.getvalue().encode("ascii")


def _uci_bytes(counts):
    """UCI bag-of-words text for a (docs, vocab) integer count matrix."""
    docs, terms = np.nonzero(counts)
    lines = [f"{counts.shape[0]}\n{counts.shape[1]}\n{docs.size}\n"]
    lines.extend(
        f"{d + 1} {t + 1} {c}\n" for d, t, c in zip(docs, terms, counts[docs, terms])
    )
    return "".join(lines).encode("ascii")


def mixture(world, rng, size):
    """Overlapping spherical mixture: means ~ N(0, scale^2 I), unit noise."""
    k, dim = size["mix_k"], size["mix_dim"]
    means = size["mix_scale"] * world.standard_normal((k, dim))

    def draw(n):
        labels = rng.integers(k, size=n)
        return means[labels] + rng.standard_normal((n, dim))

    return _csv_bytes(draw(size["mix_n"])), _csv_bytes(draw(size["mix_eval_n"]))


def regression(world, rng, size):
    """Sparse linear model: ``reg_active`` nonzero coefficients, the rest 0."""
    dim = size["reg_dim"]
    coef = np.zeros(dim)
    coef[: size["reg_active"]] = world.standard_normal(size["reg_active"])
    world.shuffle(coef)

    def draw(n):
        x = rng.standard_normal((n, dim))
        y = x @ coef + size["reg_noise"] * rng.standard_normal(n)
        return np.column_stack([x, y])

    return _csv_bytes(draw(size["reg_n"])), _csv_bytes(draw(size["reg_eval_n"]))


def corpus(world, rng, size):
    """LDA corpus; every document has exactly ``lda_doc_len`` tokens."""
    k, vocab, length = size["lda_k"], size["lda_vocab"], size["lda_doc_len"]
    topics = world.dirichlet(np.full(vocab, 0.05), size=k)

    def draw(docs):
        counts = np.zeros((docs, vocab), dtype=np.int64)
        theta = rng.dirichlet(np.full(k, 0.5), size=docs)
        for d in range(docs):
            word_probs = theta[d] @ topics
            counts[d] = rng.multinomial(length, word_probs / word_probs.sum())
        return counts

    return _uci_bytes(draw(size["lda_docs"])), _uci_bytes(draw(size["lda_eval_docs"]))


# file name -> (generator, index of the file in the generator's output)
_FILES = {
    "mix.csv": (mixture, 0),
    "mix_eval.csv": (mixture, 1),
    "reg.csv": (regression, 0),
    "reg_eval.csv": (regression, 1),
    "corpus.txt": (corpus, 0),
    "corpus_eval.txt": (corpus, 1),
}


def generate(names, seed, size_name="full"):
    """Bytes of each named input file for ``seed``.

    Each generator draws from its own streams, ``default_rng([WORLD_SEED,
    i])`` and ``default_rng([seed, i])``, so a workload that needs only some
    of the files gets the same bytes for them as a workload that needs all
    of them.
    """
    size = SIZES[size_name]
    out = {}
    for index, gen in enumerate((mixture, regression, corpus)):
        wanted = [n for n in names if _FILES[n][0] is gen]
        if wanted:
            files = gen(np.random.default_rng([WORLD_SEED, index]),
                        np.random.default_rng([seed, index]), size)
            for name in wanted:
                out[name] = files[_FILES[name][1]]
    return out


def digest(data):
    return hashlib.sha256(data).hexdigest()
