"""Batched predictive densities against their one-point-at-a-time forms
(``tests/_oracles.py``), and the point-or-batch input rule they share."""

import numpy as np
import pytest

import _oracles
from meanfield.blr_ard import BlrArd, BlrArdConfig, blr_log_predictive
from meanfield.errors import DomainError
from meanfield.gmm import (
    DiagGmm,
    DiagGmmConfig,
    DiagGmmState,
    UniGmmConfig,
    UniGmmState,
    UnitVarianceGmm,
    diag_predictive_log_density,
    predictive_log_density,
)

RTOL = 1e-12


def _gmm_state(rng, k, d):
    m = 5.0 * rng.standard_normal((k, d))
    return UniGmmState(m, rng.uniform(0.1, 2.0, (k, d)), np.zeros((0, k)))


def _diag_state(rng, k, d):
    return DiagGmmState(
        conc=rng.uniform(0.5, 20.0, k),
        m=5.0 * rng.standard_normal((k, d)),
        b=rng.uniform(0.5, 50.0, (k, d)),
        alpha=rng.uniform(0.6, 30.0, (k, d)),
        beta=rng.uniform(0.2, 10.0, (k, d)),
        r=np.zeros((0, k)),
    )


def _near_and_far(rng, m, n=12):
    """Rows within 0.01 of a component location and rows 1e3 away."""
    d = m.shape[1]
    centers = m[rng.integers(m.shape[0], size=n)]
    near = centers + 0.01 * rng.standard_normal((n, d))
    far = centers + 1e3 * rng.choice([-1.0, 1.0], (n, d))
    rows = np.concatenate([near, far])
    return rows[rng.permutation(2 * n)]


def _blr_state(rng, dim, fix_relevance, n=40):
    x = rng.standard_normal((n, dim))
    y = x[:, : min(dim, 3)].sum(axis=1) + 0.3 * rng.standard_normal(n)
    data = np.column_stack([x, y])
    model = BlrArd(BlrArdConfig(fix_relevance=fix_relevance))
    state = model.init_state(data, None)
    for _ in range(3):
        state = model.sweep(state, data)
    return model, state


def _blr_rows(rng, state, n=12):
    dim = state.beta.shape[0]
    near = rng.standard_normal((n, dim))
    near_y = near @ state.beta + 0.01 * rng.standard_normal(n)
    far = 1e3 * rng.standard_normal((n, dim))
    far_y = far @ state.beta + 1e3 * rng.standard_normal(n)
    rows = np.concatenate([np.column_stack([near, near_y]), np.column_stack([far, far_y])])
    return rows[rng.permutation(2 * n)]


def _close(got, want):
    want = np.asarray(want)
    assert np.all(np.isfinite(want))
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


SHAPES = [(1, 1), (3, 1), (1, 4), (4, 3), (3, 576)]


@pytest.mark.parametrize("k,d", SHAPES)
def test_gmm_batch_matches_point_oracle(k, d):
    rng = np.random.default_rng(10 * k + d)
    state = _gmm_state(rng, k, d)
    rows = _near_and_far(rng, state.m)
    got = predictive_log_density(state, rows)
    assert got.shape == (rows.shape[0],)
    _close(got, [_oracles.gmm_predictive_point(state, row) for row in rows])


@pytest.mark.parametrize("k,d", SHAPES)
def test_diag_batch_matches_point_oracle(k, d):
    rng = np.random.default_rng(20 * k + d)
    state = _diag_state(rng, k, d)
    rows = _near_and_far(rng, state.m)
    got = diag_predictive_log_density(state, rows)
    assert got.shape == (rows.shape[0],)
    _close(got, [_oracles.diag_gmm_predictive_point(state, row) for row in rows])


@pytest.mark.parametrize("fix_relevance", [True, False])
@pytest.mark.parametrize("dim", [1, 4, 575])
def test_blr_batch_matches_point_oracle(dim, fix_relevance):
    rng = np.random.default_rng(dim + fix_relevance)
    _, state = _blr_state(rng, dim, fix_relevance)
    rows = _blr_rows(rng, state)
    got = blr_log_predictive(state, rows)
    assert got.shape == (rows.shape[0],)
    _close(got, [_oracles.blr_predictive_point(state, row) for row in rows])


@pytest.mark.parametrize("k,d", [(1, 1), (3, 1), (2, 576)])
def test_single_point_gives_a_float(k, d):
    rng = np.random.default_rng(3)
    gmm, diag = _gmm_state(rng, k, d), _diag_state(rng, k, d)
    point = gmm.m[0] + 0.5
    points = [point, point[0]] if d == 1 else [point]
    for p in points:
        got = predictive_log_density(gmm, p)
        assert isinstance(got, float)
        _close(got, _oracles.gmm_predictive_point(gmm, p))
        got = diag_predictive_log_density(diag, p)
        assert isinstance(got, float)
        _close(got, _oracles.diag_gmm_predictive_point(diag, p))


@pytest.mark.parametrize("fix_relevance", [True, False])
def test_blr_single_row_gives_a_float(fix_relevance):
    rng = np.random.default_rng(4)
    _, state = _blr_state(rng, 575, fix_relevance)
    row = _blr_rows(rng, state)[0]
    got = blr_log_predictive(state, row)
    assert isinstance(got, float)
    _close(got, _oracles.blr_predictive_point(state, row))


@pytest.mark.parametrize("k", [1, 3])
def test_gmm_heldout_mean_of_one_dimensional_data(k):
    rng = np.random.default_rng(5 + k)
    state = _gmm_state(rng, k, 1)
    data = _near_and_far(rng, state.m)[:, 0]
    model = UnitVarianceGmm(UniGmmConfig(k=k))
    assert model.log_predictive(state, data).shape == data.shape
    _close(
        model.heldout_log_predictive(state, data),
        _oracles.heldout_mean_loop(_oracles.gmm_predictive_point, state, data),
    )
    diag_state = _diag_state(rng, k, 1)
    _close(
        DiagGmm(DiagGmmConfig(k=k)).heldout_log_predictive(diag_state, data),
        _oracles.heldout_mean_loop(_oracles.diag_gmm_predictive_point, diag_state, data),
    )


@pytest.mark.parametrize("fix_relevance", [True, False])
def test_blr_heldout_mean_matches_loop(fix_relevance):
    rng = np.random.default_rng(6)
    model, state = _blr_state(rng, 6, fix_relevance)
    rows = _blr_rows(rng, state)
    _close(
        model.heldout_log_predictive(state, rows),
        _oracles.heldout_mean_loop(_oracles.blr_predictive_point, state, rows),
    )


# ---------------------------------------------------------------------------
# bad held-out rows
# ---------------------------------------------------------------------------


def _scorers():
    rng = np.random.default_rng(8)
    _, blr = _blr_state(rng, 2, False)
    return [
        (predictive_log_density, _gmm_state(rng, 2, 3), 3),
        (diag_predictive_log_density, _diag_state(rng, 2, 3), 3),
        (blr_log_predictive, blr, 3),
    ]


@pytest.mark.parametrize("which", range(3))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_is_domain_error(which, bad):
    fn, state, width = _scorers()[which]
    row = np.zeros(width)
    row[1] = bad
    batch = np.zeros((4, width))
    batch[2, 0] = bad
    for x in (row, batch):
        with pytest.raises(DomainError, match="finite"):
            fn(state, x)


@pytest.mark.parametrize("which", range(3))
@pytest.mark.parametrize("shape", [(2,), (4,), (5, 2), (5, 4), (2, 2, 3), ()])
def test_width_mismatch_is_domain_error(which, shape):
    fn, state, width = _scorers()[which]
    with pytest.raises(DomainError, match="3 finite entries"):
        fn(state, np.zeros(shape))


def test_scalar_infinity_is_domain_error():
    state = UniGmmState(np.zeros((1, 1)), np.ones((1, 1)), np.zeros((0, 1)))
    with pytest.raises(DomainError):
        predictive_log_density(state, np.inf)
