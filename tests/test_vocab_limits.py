"""Vocabulary sizes near and past the int64 range, and past the host's memory.

A corpus checks that term ids are distinct within each document by
comparing (document, id) pairs, with no product that could wrap; a topic
matrix numpy cannot hold, or larger than physical memory, is refused before
it is allocated, and one whose allocation fails is refused too.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meanfield
from meanfield.cli import main
from meanfield.errors import DomainError
from meanfield import lda
from meanfield.lda import Corpus, Lda, LdaConfig

HUGE = [2**63 - 1, 2**64]


@pytest.mark.parametrize("v", HUGE)
def test_distinct_ids_accepted_at_any_vocabulary_size(v):
    corpus = Corpus([0, 1, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0], v)
    assert corpus.v == v
    # the same id in two documents is fine; twice in one document is not
    Corpus([0, 1, 2], [5, 5], [1.0, 1.0], v)
    with pytest.raises(DomainError, match="distinct"):
        Corpus([0, 2], [5, 5], [1.0, 1.0], v)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), max_size=5), max_size=6))
def test_distinct_check_matches_per_document_sets(docs):
    indptr = np.cumsum([0] + [len(d) for d in docs])
    ids = [i for d in docs for i in d]
    distinct = all(len(set(d)) == len(d) for d in docs)
    if distinct:
        Corpus(indptr, ids, np.ones(len(ids)), 7)
    else:
        with pytest.raises(DomainError, match="distinct"):
            Corpus(indptr, ids, np.ones(len(ids)), 7)


@pytest.mark.parametrize("v", HUGE)
def test_topic_matrix_numpy_cannot_hold_is_refused(v):
    corpus = Corpus([0, 1, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0], v)
    with pytest.raises(DomainError, match=str(v)):
        Lda(LdaConfig(k=2)).init_state(corpus, np.random.default_rng(0))


def test_topic_matrix_beyond_physical_memory_is_refused(monkeypatch):
    # room for a (2, 999) float array and no more
    monkeypatch.setattr(lda, "_physical_memory", lambda: 8 * 2 * 999)
    model = Lda(LdaConfig(k=2))
    fits = Corpus([0, 1, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0], 999)
    state = model.init_state(fits, np.random.default_rng(0))
    assert state.lam.shape == (2, 999)
    too_big = Corpus([0, 1, 2, 3], [0, 1, 2], [1.0, 1.0, 1.0], 1000)
    with pytest.raises(DomainError, match="1000"):
        model.init_state(too_big, np.random.default_rng(0))


@pytest.mark.parametrize("v", HUGE)
@pytest.mark.parametrize("algorithm", [[], ["--algorithm", "svi", "--kappa", "0.7"]])
def test_huge_vocabulary_header_exits_2(tmp_path, capsys, v, algorithm):
    path = tmp_path / "corpus.txt"
    path.write_text(f"3\n{v}\n3\n1 1 1\n2 2 1\n3 3 1\n")
    code = main(["fit", "--model", "lda", "--data", str(path), "--out",
                 str(tmp_path / "out"), "--k", "2", "--seed", "0",
                 "--max-iters", "2", *algorithm])
    err = capsys.readouterr().err
    assert code == 2
    assert str(v) in err
    assert "Traceback" not in err


# Runs ``meanfield`` with its address space capped at 2 GiB.
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 * 1024**3, 2 * 1024**3))
from meanfield.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize(
    "v",
    [10**12, 2 * 10**8],
    ids=["beyond-physical-memory", "beyond-address-space-cap"],
)
def test_vocabulary_the_host_cannot_hold_exits_2(tmp_path, v):
    pytest.importorskip("resource")
    path = tmp_path / "corpus.txt"
    path.write_text(f"3\n{v}\n3\n1 1 1\n2 2 1\n3 3 1\n")
    src = str(Path(meanfield.__file__).parents[1])
    env = dict(os.environ, VI_LOG="quiet", OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    res = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "fit", "--model", "lda", "--data",
         str(path), "--out", str(tmp_path / "out"), "--k", "2", "--seed", "0",
         "--max-iters", "2"],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 2, res.stderr
    assert str(v) in res.stderr
    assert "Traceback" not in res.stderr
