"""ELBOs from a sweep's sufficient statistics, data prepared once per fit,
and the row kernels under them.

The mixtures' ELBOs read ``phi^T aug`` and the entropy a sweep leaves in
its state, and the regression ELBO reads ``X^T X``; each is checked against
the ``(n, k)`` or per-row form it replaced (``tests/_oracles.py``) and a
long-double sum point by point, on fitted states and degenerate data
(random states without statistics are ``test_elbo_oracles.py``'s).
"""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import logsumexp, softmax

import _oracles
import meanfield.condconj as condconj
import meanfield.expfam as expfam
import meanfield.gmm as gmm
from meanfield.blr_ard import (
    BlrArd,
    BlrArdConfig,
    RegressionData,
    blr_elbo,
    update_coeff_precision,
)
from meanfield.condconj import global_step
from meanfield.engine import FitConfig, VariationalModel, cavi_fit
from meanfield.errors import DomainError
from meanfield.expfam import categorical_rows, log_sum_exp
from meanfield.gmm import (
    DiagGmm,
    DiagGmmConfig,
    MixtureData,
    UniGmmConfig,
    UnitVarianceGmm,
    conjugate_spec,
    diag_gmm_elbo,
    gmm_elbo,
    simulate,
)

RTOL = 1e-10


def _rel(got, want):
    return abs(float(got) - float(want)) / abs(float(want))


def _mixture(seed=0, n=60):
    return simulate(k=3, n=n, seed=seed, dim=2)[0]


def _two_clusters(seed=0):
    rng = np.random.default_rng(seed)
    return np.concatenate([-1e6 + rng.normal(size=(30, 2)), 1e6 + rng.normal(size=(30, 2))])


MIXTURE_PROBES = {
    "plain": (lambda: _mixture(), 3),
    "1e6 from the origin": (lambda: _mixture() + 1e6, 3),
    "scale 1e-8": (lambda: _mixture() * 1e-8, 3),
    "scale 1e6": (lambda: _mixture() * 1e6, 3),
    "two clusters at +-1e6": (_two_clusters, 2),
    "identical points": (lambda: np.full((20, 2), 3.7), 3),
    "single point": (lambda: np.array([[1.5, -2.0]]), 2),
    "k > n": (lambda: _mixture(n=3), 5),
}

MIXTURES = {
    "gmm": (
        lambda k: UnitVarianceGmm(UniGmmConfig(k)),
        lambda k: 1.0,
        _oracles.gmm_elbo_rows,
        _oracles.gmm_elbo_longdouble,
    ),
    "gmm-diag": (
        lambda k: DiagGmm(DiagGmmConfig(k)),
        DiagGmmConfig,
        _oracles.diag_gmm_elbo_rows,
        _oracles.diag_gmm_elbo_longdouble,
    ),
}


def _mixture_fit(kind, probe, seed=1):
    make, conf, rows, longdouble = MIXTURES[kind]
    data, k = MIXTURE_PROBES[probe]
    x = data()
    report = cavi_fit(make(k), x, FitConfig(max_iters=6, tol=1e-300, seed=seed))
    return x, conf(k), report, rows, longdouble


@pytest.mark.parametrize("probe", MIXTURE_PROBES)
@pytest.mark.parametrize("kind", MIXTURES)
def test_mixture_elbo_matches_the_rows_form(kind, probe):
    """The fit's recorded ELBOs come from the sweep's statistics; each state
    scored again without them (a ``dataclasses.replace`` copy) and the
    ``(n, k)`` form agree with the trace."""
    x, conf, report, rows, _ = _mixture_fit(kind, probe)
    state = report.model_state
    assert state.stats is not None
    want = rows(state, x, conf)
    assert _rel(report.final_elbo, want) <= RTOL
    elbo = gmm_elbo if kind == "gmm" else diag_gmm_elbo
    copy = dataclasses.replace(state)
    assert copy.stats is None
    assert _rel(elbo(copy, x, conf), want) <= RTOL


@pytest.mark.parametrize("probe", MIXTURE_PROBES)
@pytest.mark.parametrize("kind", MIXTURES)
def test_mixture_elbo_against_a_long_double_sum(kind, probe):
    """Against the ELBO summed point by point in long double, the statistics
    form stays within 1e-13 relative on every probe.  Its rounding is that
    of ``phi^T aug`` summed over the rows, so it is not always below the
    ``(n, k)`` form's; on data 1e6 from the origin, where the data's own
    centre keeps the digits, it is."""
    x, conf, report, rows, longdouble = _mixture_fit(kind, probe)
    truth = longdouble(report.model_state, x, conf)
    assert _rel(report.final_elbo, truth) <= 1e-13
    if kind == "gmm" and probe == "1e6 from the origin":
        assert abs(report.final_elbo - truth) < abs(rows(report.model_state, x, conf) - truth)


@pytest.mark.parametrize("kind", MIXTURES)
def test_statistics_scored_on_other_rows_give_that_datas_value(kind):
    """A state that carries a sweep's statistics, scored on other data of
    the same size, gets the value for that data, not for its own."""
    x, conf, report, rows, _ = _mixture_fit(kind, "plain")
    other = x[::-1] + 0.5
    elbo = gmm_elbo if kind == "gmm" else diag_gmm_elbo
    state = report.model_state
    got = elbo(state, other, conf)
    assert _rel(got, rows(state, other, conf)) <= RTOL
    assert abs(got - report.final_elbo) > 1.0
    # the same values in a fresh array are other rows: the statistics are
    # computed again, and agree with the sweep's to rounding
    again = elbo(state, np.array(x), conf)
    assert again == elbo(dataclasses.replace(state), x, conf)
    assert _rel(again, report.final_elbo) <= 1e-13


@pytest.mark.parametrize("kind", MIXTURES)
def test_statistics_of_a_row_subset_are_not_read_for_a_copy_of_those_rows(kind):
    """A sweep on a slice of prepared rows keeps its parent's centre; a copy
    of the same rows, prepared afresh, is centred on its own mean, so the
    kept statistics do not fit its weights.  Its ELBO is the one computed
    from ``phi``, bit for bit."""
    make, conf, _, _ = MIXTURES[kind]
    model = make(3)
    x = simulate(k=3, n=400, seed=1, dim=2)[0]
    rows = np.arange(0, 400, 2)
    start = model.init_state(x[rows], np.random.default_rng(0))
    state = model.sweep(start, model.prepare(x)[rows])
    assert state.stats is not None
    assert model.elbo(state, x[rows].copy()) == model.elbo(dataclasses.replace(state), x[rows])


def test_unit_local_step_reads_the_parameter_the_global_step_produced(monkeypatch):
    """The parameter the spec's local step receives in sweep ``t + 1`` is the
    one sweep ``t``'s global step produced, bit for bit: the means are
    never rebuilt through ``m / s2 * s2``."""
    x = _mixture(seed=3, n=200) + 1e5
    spec = conjugate_spec(3, 1.0, 2)
    received = []

    def counted(lam, X):
        received.append(lam)
        return spec.local_natural_param(lam, X)

    monkeypatch.setattr(
        gmm, "conjugate_spec",
        lambda *args: dataclasses.replace(spec, local_natural_param=counted),
    )
    model = UnitVarianceGmm(UniGmmConfig(3))
    data = model.prepare(x)
    state = model.init_state(data, np.random.default_rng(0))
    states = []
    for _ in range(5):
        state = model.sweep(state, data)
        states.append(state)
    assert len(received) == 5
    for t in range(4):
        produced = global_step(spec, states[t].phi, x)
        assert_array_equal(received[t + 1].stat, produced.stat)
        assert received[t + 1].count == produced.count
        assert received[t + 1] is states[t].lam


def _count_checks(monkeypatch):
    calls = []
    original = expfam._check_prob_rows

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    for module in (expfam, condconj, gmm):
        monkeypatch.setattr(module, "_check_prob_rows", counted)
    return calls


@pytest.mark.parametrize("kind", MIXTURES)
def test_a_sweep_checks_its_responsibilities_once(kind, monkeypatch):
    """One probability-row check per sweep and its ELBO, where the sweep
    makes the rows; a state built from outside is checked as before."""
    make, conf, _, _ = MIXTURES[kind]
    model = make(3)
    data = model.prepare(_mixture())
    state = model.init_state(data, np.random.default_rng(0))
    calls = _count_checks(monkeypatch)
    state = model.sweep(state, data)
    model.elbo(state, data)
    assert calls == [(60, 3)]
    with pytest.raises(DomainError):
        dataclasses.replace(state, **{"phi" if kind == "gmm" else "r": np.full((60, 3), 0.5)})


def test_mixture_rows_index_as_a_minibatch():
    x = _mixture()
    data = MixtureData(x, per_coordinate=False)
    batch = data[np.array([3, 7, 11])]
    assert_array_equal(batch.centre, data.centre)
    assert_array_equal(batch.aug, data.aug[[3, 7, 11]])
    assert len(batch) == 3 and batch.shape == (3, 2)
    assert_array_equal(batch.x, x[[3, 7, 11]])
    assert MixtureData.of(data, per_coordinate=False) is data
    assert MixtureData.of(data, per_coordinate=True).aug.shape == (60, 5)


# ---------------------------------------------------------------------------
# regression: X^T X once per fit
# ---------------------------------------------------------------------------


def _regression(n, d, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    beta = rng.normal(size=d)
    return x, x @ beta + 0.3 * rng.normal(size=n), beta


def _regression_probe(name):
    if name == "n < d":
        x, y, _ = _regression(10, 30)
    elif name == "duplicated column":
        x, y, _ = _regression(60, 6)
        x[:, 1] = x[:, 0]
    elif name == "all-zero column":
        x, y, _ = _regression(60, 6)
        x[:, 2] = 0.0
    elif name == "x and y at 1e8":
        x, y, _ = _regression(60, 6)
        x, y = 1e8 * x, 1e8 * y
    elif name == "noiseless y":
        x, _, beta = _regression(60, 6)
        y = x @ beta
    else:
        x, y, _ = _regression(200, 20)
    return np.column_stack([x, y])


REGRESSION_PROBES = [
    "plain", "n < d", "duplicated column", "all-zero column", "x and y at 1e8",
    "noiseless y",
]


@pytest.mark.parametrize("fix_relevance", [False, True])
@pytest.mark.parametrize("probe", REGRESSION_PROBES)
def test_regression_elbo_matches_the_per_row_form(probe, fix_relevance):
    """``<V*, X^T X>`` against ``sum_i |L^-1 x_i|^2``, and both against a
    long-double sum row by row; the residual stays a direct product, so a
    noiseless y cannot cancel below zero."""
    data = _regression_probe(probe)
    config = BlrArdConfig(fix_relevance=fix_relevance)
    report = cavi_fit(BlrArd(config), data, FitConfig(max_iters=5, tol=1e-300))
    state = report.model_state
    want = _oracles.blr_elbo_rows(state, data, config)
    assert _rel(report.final_elbo, want) <= RTOL
    assert _rel(blr_elbo(dataclasses.replace(state), data, config), want) <= RTOL
    truth = _oracles.blr_elbo_longdouble(state, data, config)
    assert _rel(report.final_elbo, truth) <= 1e-13


def test_regression_data_and_kept_factor_change_no_bits():
    data = _regression_probe("plain")
    config = BlrArdConfig()
    model = BlrArd(config)
    start = model.init_state(data, None)
    prepared = RegressionData(data)
    raw = update_coeff_precision(start, data, config)
    kept = update_coeff_precision(start, prepared, config)
    for name in ("beta", "v_inv", "a", "b"):
        assert_array_equal(getattr(raw, name), getattr(kept, name))
    lower, inv = kept.factor
    assert_array_equal(lower, np.linalg.cholesky(kept.v_inv))
    assert_array_equal(inv, np.linalg.inv(lower))
    assert dataclasses.replace(kept).factor is None
    assert blr_elbo(kept, prepared, config) == blr_elbo(dataclasses.replace(kept), data, config)


def test_engine_prepares_the_training_data_once():
    prepared = []

    class Counting(BlrArd):
        def prepare(self, data):
            prepared.append(len(data))
            return super().prepare(data)

    data = _regression_probe("plain")
    report = cavi_fit(
        Counting(BlrArdConfig()), data, FitConfig(max_iters=4, tol=1e-300, heldout_fraction=0.1)
    )
    assert prepared == [180]
    assert len(report.heldout_trace) == 4
    assert VariationalModel.prepare(None, data) is data


# ---------------------------------------------------------------------------
# row kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 3, 16, 17, 100])
def test_row_kernels_match_scipy(k):
    rng = np.random.default_rng(k)
    a = rng.normal(scale=30.0, size=(40, k))
    a[5] = -np.inf
    a[6, 0] = -np.inf if k > 1 else 0.0
    got = log_sum_exp(a, axis=1)
    assert got[5] == -np.inf
    finite = np.arange(40) != 5
    assert_allclose(got[finite], logsumexp(a[finite], axis=1), rtol=1e-14, atol=1e-13)
    b = a[finite]
    probs, logs = categorical_rows(b)
    assert_allclose(probs, softmax(b, axis=1), rtol=1e-13, atol=1e-300)
    assert_allclose(np.exp(logs), probs, rtol=1e-13, atol=1e-300)
    assert_allclose(probs.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)


def test_log_sum_exp_other_axes_and_nan_rows():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4, 5))
    for axis in (None, 0, 1, 2, -1):
        assert_allclose(log_sum_exp(a, axis=axis), logsumexp(a, axis=axis), rtol=1e-14)
    assert isinstance(log_sum_exp(a), float)
    bad = np.zeros((4, 20))
    bad[2, 17] = np.nan
    with pytest.raises(DomainError):
        log_sum_exp(bad, axis=1)
    with pytest.raises(DomainError):
        categorical_rows(bad[:, :3] + np.array([[0.0], [0.0], [np.nan], [0.0]]))


def test_categorical_rows_of_no_logits_names_itself():
    with pytest.raises(DomainError, match="^categorical_rows needs at least one logit"):
        categorical_rows(np.zeros((3, 0)))
