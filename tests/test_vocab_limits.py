"""Vocabulary sizes near and past the int64 range.

A corpus checks that term ids are distinct within each document by
comparing (document, id) pairs, with no product that could wrap; a topic
matrix numpy cannot hold is refused before it is allocated.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanfield.cli import main
from meanfield.errors import DomainError
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
        Lda(LdaConfig(k=2)).init_state(corpus, "prior", np.random.default_rng(0))


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
