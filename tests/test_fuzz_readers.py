"""Fuzzing of the data readers through the command line, in process.

Arbitrary bytes as a mixture CSV, a bag-of-words corpus, a held-out file or
a fit document must end in one of the documented exit codes (0 success,
2 configuration or domain error, 3 data format error, 4 numeric failure);
no exception may escape ``meanfield.cli.main``, and an ``eval`` that exits 0
writes JSON holding a finite value.  Examples are derandomized, so every run
tries the same 200 inputs; so are the 200 valid fit documents whose numbers
are scaled by powers of ten.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from meanfield.cli import main

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}


def fuzz(examples):
    return settings(
        max_examples=examples,
        derandomize=True,
        database=None,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )


def noisy(text):
    """Text encoded as bytes, sometimes with raw bytes spliced in."""
    return st.one_of(
        text.map(str.encode),
        st.tuples(text, st.binary(max_size=4), text).map(
            lambda t: t[0].encode() + t[1] + t[2].encode()
        ),
        st.binary(max_size=64),
    )


FIELD = st.one_of(
    st.integers(-5, 5).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "-", "1e999", "nan", "0x1", "1,", "é", "\t2"]),
)
CSV = noisy(
    st.lists(st.lists(FIELD, min_size=1, max_size=3).map(",".join), max_size=6).map(
        "\n".join
    )
)
SMALL_INT = st.one_of(st.integers(-2, 6), st.sampled_from([2**53, 2**53 + 1]))
UCI = noisy(
    st.tuples(
        st.lists(SMALL_INT.map(str), max_size=4),
        st.lists(
            st.lists(SMALL_INT.map(str), min_size=2, max_size=4).map(" ".join),
            max_size=6,
        ),
    ).map(lambda t: "\n".join(t[0] + t[1]))
)
# numeric arrays of random shape, which pass a numeric check but not
# necessarily a shape check
ARRAY = st.recursive(
    st.floats(-3, 3), lambda inner: st.lists(inner, min_size=1, max_size=3), max_leaves=6
)
JSON_VALUE = ARRAY | st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(max_size=4),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=6,
)


def strict_json(text):
    """``text`` parsed as JSON, which has no NaN or infinities."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def run(monkeypatch, capsys, *argv):
    monkeypatch.setenv("VI_LOG", "quiet")
    code = main([str(a) for a in argv])
    capsys.readouterr()
    assert code in DOCUMENTED_EXIT_CODES
    return code


@pytest.fixture
def fit_dir(tmp_path):
    """A gmm and an lda fit document, with the lda topics file."""
    (tmp_path / "gmm.json").write_text(json.dumps({
        "model": "gmm",
        "metadata": {"k": 2, "sigma2": 1.0},
        "means": [[-1.0], [1.0]],
        "variances": [[0.1], [0.1]],
    }))
    (tmp_path / "lambda_0.csv").write_text("1.5,0.5,0.2\n0.1,2.0,0.7\n")
    (tmp_path / "lda.json").write_text(json.dumps({
        "model": "lda",
        "metadata": {"k": 2, "eta": 0.1, "alpha": [0.1, 0.1]},
        "lambda_csv": "lambda_0.csv",
    }))
    return tmp_path


@fuzz(60)
@given(data=CSV)
def test_fit_gmm_on_arbitrary_bytes(monkeypatch, capsys, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        run(monkeypatch, capsys, "fit", "--model", "gmm", "--k", "2",
            "--max-iters", "2", "--data", path, "--out", Path(tmp) / "out")


@fuzz(60)
@given(data=UCI)
def test_fit_lda_on_arbitrary_bytes(monkeypatch, capsys, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.txt"
        path.write_bytes(data)
        run(monkeypatch, capsys, "fit", "--model", "lda", "--k", "2",
            "--max-iters", "2", "--data", path, "--out", Path(tmp) / "out")


@fuzz(40)
@given(model=st.sampled_from(["gmm", "lda"]), csv=CSV, uci=UCI)
def test_eval_on_arbitrary_heldout_bytes(monkeypatch, capsys, fit_dir, model, csv, uci):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "heldout"
        path.write_bytes(csv if model == "gmm" else uci)
        run(monkeypatch, capsys, "eval", "--fit", fit_dir / f"{model}.json",
            "--data", path, "--out", Path(tmp) / "out")


FIT_FIELDS = (
    "model", "metadata", "means", "variances", "locations", "scales",
    "shapes", "rates", "weight_concentration", "coefficients",
    "coefficient_precision", "noise_shape", "noise_rate", "relevance_shape",
    "relevance_rates", "lambda_csv",
)


@fuzz(40)
@given(
    base=st.sampled_from(["gmm", "lda"]),
    model=st.sampled_from(["gmm", "gmm-diag", "blr-ard", "lda", "other"]),
    fields=st.dictionaries(st.sampled_from(FIT_FIELDS), JSON_VALUE, max_size=4),
    raw=st.binary(max_size=32),
)
def test_eval_on_arbitrary_fit_documents(
    monkeypatch, capsys, fit_dir, base, model, fields, raw
):
    doc = json.loads((fit_dir / f"{base}.json").read_text())
    doc["model"] = model
    doc.update(fields)
    with tempfile.TemporaryDirectory() as tmp:
        heldout = Path(tmp) / "heldout"
        heldout.write_text("0.5\n" if model != "lda" else "1\n3\n1\n1 2 3\n")
        for text in (json.dumps(doc).encode(), raw):
            fit = fit_dir / "fuzzed.json"
            fit.write_bytes(text)
            code = run(monkeypatch, capsys, "eval", "--fit", fit, "--data", heldout,
                       "--out", Path(tmp) / "out")
            if code == 0:
                written = strict_json((Path(tmp) / "out" / "eval.json").read_text())
                assert math.isfinite(written["heldout_log_predictive"])


# A valid fit document of each model, with held-out data of its shape; an
# lda document's numbers are the values of its topics file.
VALID_DOCS = {
    "gmm": ({"model": "gmm", "metadata": {"k": 2, "sigma2": 1.0},
             "means": [[-1.0], [1.0]], "variances": [[0.1], [0.1]]}, "0.5\n"),
    "gmm-diag": ({"model": "gmm-diag", "metadata": {"k": 2},
                  "locations": [[-1.0], [1.0]], "weight_concentration": [2.0, 3.0],
                  "scales": [[4.0], [5.0]], "shapes": [[3.0], [2.5]],
                  "rates": [[1.5], [0.5]]}, "0.5\n"),
    "blr-ard": ({"model": "blr-ard", "coefficients": [2.0],
                 "coefficient_precision": [[30.0]], "noise_shape": 3.0,
                 "noise_rate": 0.5, "relevance_shape": 1.5, "relevance_rates": [3.0]},
                "1,2\n2,3.5\n"),
    "lda": ({"model": "lda", "metadata": {"k": 2, "eta": 0.1, "alpha": [0.1, 0.1]},
             "lambda_csv": "lambda_0.csv"}, "1\n3\n1\n1 2 3\n"),
}
LDA_TOPICS = [[1.5, 0.5, 0.2], [0.1, 2.0, 0.7]]


def scaled(value, rng):
    """``value`` with each number multiplied by its own ``10**u``, ``u``
    uniform on [-300, 300], so that every product stays a finite double."""
    if isinstance(value, list):
        return [scaled(v, rng) for v in value]
    return value * 10.0 ** rng.uniform(-300.0, 300.0)


def test_eval_on_valid_fit_documents_with_scaled_numbers(monkeypatch, capsys, tmp_path):
    """Every number of a valid fit document scaled by 10**u: ``eval`` scores
    it (exit 0, writing strict JSON holding a finite value), refuses a
    number (3), or reports a numeric failure (4).  The draws are seeded."""
    rng = np.random.default_rng(20)
    codes = []
    for model, (doc, heldout) in VALID_DOCS.items():
        (tmp_path / "heldout").write_text(heldout)
        for _ in range(50):
            fitted = {key: value if key in ("model", "metadata", "lambda_csv")
                      else scaled(value, rng) for key, value in doc.items()}
            topics = scaled(LDA_TOPICS, rng)
            (tmp_path / "lambda_0.csv").write_text(
                "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in topics))
            (tmp_path / "fit.json").write_text(json.dumps(fitted))
            out = tmp_path / f"out{len(codes)}"
            code = run(monkeypatch, capsys, "eval", "--fit", tmp_path / "fit.json",
                       "--data", tmp_path / "heldout", "--out", out)
            assert code in (0, 3, 4), (model, fitted, topics)
            assert out.exists() == (code == 0)
            if code == 0:
                written = strict_json((out / "eval.json").read_text())
                assert math.isfinite(written["heldout_log_predictive"])
            codes.append(code)
    assert 2 * codes.count(0) >= len(codes), codes


def test_eval_scores_far_locations(monkeypatch, capsys, tmp_path):
    """A gmm-diag document whose locations sit 1e200 from the held-out row:
    ``(x - m)^2`` overflows, but the Student-t log density, built here from
    ``log|x - m|`` in plain floats, is finite and ``eval`` reports it."""
    doc = dict(VALID_DOCS["gmm-diag"][0], locations=[[1e200], [-1e200]])
    (tmp_path / "fit.json").write_text(json.dumps(doc))
    (tmp_path / "heldout").write_text("0.5\n")
    code = run(monkeypatch, capsys, "eval", "--fit", tmp_path / "fit.json",
               "--data", tmp_path / "heldout", "--out", tmp_path / "out")
    assert code == 0
    got = strict_json((tmp_path / "out" / "eval.json").read_text())
    log_t = []
    for m, b, alpha, beta, conc in zip((1e200, -1e200), (4.0, 5.0), (3.0, 2.5),
                                       (1.5, 0.5), (2.0, 3.0)):
        nu, lam = 2.0 * alpha, alpha * b / (beta * (1.0 + b))
        # log1p(lam d^2 / nu) = log(lam / nu) + 2 log|d|, to far below 1e-300
        log1p_z = math.log(lam / nu) + 2.0 * math.log(abs(0.5 - m))
        log_t.append(math.log(conc / 5.0) + math.lgamma(0.5 * (nu + 1.0))
                     - math.lgamma(0.5 * nu) + 0.5 * math.log(lam / (math.pi * nu))
                     - 0.5 * (nu + 1.0) * log1p_z)
    top = max(log_t)
    want = top + math.log(sum(math.exp(v - top) for v in log_t))
    assert got["heldout_log_predictive"] == pytest.approx(want, rel=1e-12, abs=0)


def test_the_fuzzed_commands_succeed_on_good_input(monkeypatch, capsys, fit_dir):
    """The command lines above are valid: on well-formed files they fit and
    score, so the fuzz runs reach the readers and the models."""
    data = fit_dir / "data.csv"
    data.write_bytes(b"1.0\n-3\n0.5\n")
    corpus = fit_dir / "corpus.txt"
    corpus.write_bytes(b"2\n3\n2\n1 1 2\n2 3 1\n")
    out = fit_dir / "out"
    for model, path in (("gmm", data), ("lda", corpus)):
        assert run(monkeypatch, capsys, "fit", "--model", model, "--k", "2",
                   "--max-iters", "2", "--data", path, "--out", out) == 0
        assert run(monkeypatch, capsys, "eval", "--fit", fit_dir / f"{model}.json",
                   "--data", path, "--out", out) == 0
