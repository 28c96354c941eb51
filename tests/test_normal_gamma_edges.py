"""Normal-Gamma refreshes at the edges of their domain.

The diagonal mixture's sweep sets every component's Normal-Gamma factors
from its statistics with one formula; ``_oracles.diag_gmm_sweep`` is the
guarded form it replaced, with a prior fallback for an empty component.
Both are held to a long-double posterior from the same responsibilities
on data far from the origin, at extreme scales, with identical points, one
point and more components than points.  The regression's noise rate is
held to a long-double reference on noiseless data, where ``y . y`` less a
number near it would cancel.  Every fit here runs the engine's
monotonicity check and gives the same bits twice.
"""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from _oracles import diag_gmm_sweep, normal_gamma_longdouble, ridge_noise_rate_longdouble
from meanfield.blr_ard import BlrArd, BlrArdConfig
from meanfield.engine import FitConfig, cavi_fit, init_state
from meanfield.gmm import DiagGmm, DiagGmmConfig

NG_FIELDS = ("m", "b", "alpha", "beta")


def _assert_close(got, want, scale):
    """Within 1e-12 of the larger of each value's magnitude and ``scale``,
    the data's largest column standard deviation."""
    got, want = np.asarray(got, dtype=np.longdouble), np.asarray(want, dtype=np.longdouble)
    bound = 1e-12 * np.maximum(np.abs(want), scale)
    assert np.all(np.abs(got - want) <= bound), float(np.max(np.abs(got - want) / bound))


@pytest.mark.parametrize("d", [1, 8, 576])
def test_sweep_matches_the_guarded_form(d):
    """One sweep from the same state through ``DiagGmm.sweep`` and the
    guarded form, with one component placed where no point reaches it."""
    rng = np.random.default_rng(d)
    x = 2.0 + rng.normal(size=(60, d)) * rng.uniform(0.5, 3.0, size=d)
    config = DiagGmmConfig(k=4, m0=0.5, b0=0.7, alpha0=1.3, beta0=0.9)
    model = DiagGmm(config)
    data = model.prepare(x)
    state = init_state(model, data, seed=0)
    state = dataclasses.replace(state, m=np.vstack([state.m[:-1], np.full((1, d), 1e6)]))
    got, want = model.sweep(state, data), diag_gmm_sweep(state, data, config)
    assert want.r[:, -1].sum() == 0.0  # the empty component
    assert_array_equal(got.r, want.r)
    scale = x.std(axis=0).max()
    for name in ("conc", *NG_FIELDS):
        _assert_close(getattr(got, name), getattr(want, name), scale)


def _far(offset, n, seed=0):
    return offset + np.random.default_rng(seed).normal(size=(n, 2))


def _scaled(scale):
    return scale * np.random.default_rng(1).normal(size=(80, 2))


# name: (data, k, config fields besides k)
GMM_PROBES = {
    "identical points": (lambda: np.full((20, 2), [0.1, -2.3]), 3, {}),
    "one point": (lambda: np.array([[0.7, -2.0]]), 3, {}),
    "k > n": (lambda: _scaled(1.0)[:4], 10, {}),
    **{f"1e6 from the origin, beta0 1e-8, seed {seed}":
       (lambda seed=seed: _far(1e6, 50, seed), 5, {"beta0": 1e-8}) for seed in range(10)},
    "1e8 from the origin": (lambda: _far(1e8, 200), 3, {}),
    "scale 1e-8": (lambda: _scaled(1e-8), 3, {}),
    "scale 1e6": (lambda: _scaled(1e6), 3, {}),
    "scale 1e6, m0 5e6": (lambda: _scaled(1e6), 3, {"m0": 5e6}),
}


@pytest.mark.parametrize("probe", GMM_PROBES)
def test_gmm_diag_fits_at_the_edges(probe):
    """Fifty sweeps pass the monotonicity check with a finite trace and the
    same bits twice; one more sweep from the fit's state, in both forms,
    stays within the bound of the long-double posterior from its
    responsibilities."""
    make, k, fields = GMM_PROBES[probe]
    x = make()
    config = DiagGmmConfig(k=k, **fields)
    model = DiagGmm(config)
    fit = FitConfig(max_iters=50, tol=1e-300, seed=3)
    first, second = cavi_fit(model, x, fit), cavi_fit(model, x, fit)
    elbos = [p.elbo for p in first.elbo_trace]
    assert np.all(np.isfinite(elbos))
    assert elbos == [p.elbo for p in second.elbo_trace]
    for name in ("conc", *NG_FIELDS, "r"):
        assert_array_equal(getattr(first.model_state, name), getattr(second.model_state, name))

    data = model.prepare(x)
    scale = x.std(axis=0).max()
    for state in (model.sweep(first.model_state, data),
                  diag_gmm_sweep(first.model_state, data, config)):
        for name, want in zip(NG_FIELDS, normal_gamma_longdouble(state.r, x, config)):
            _assert_close(getattr(state, name), want, scale)


def _noiseless(scale, n):
    x = np.random.default_rng(0).normal(size=(n, 3)) * scale
    return np.column_stack([x, x @ np.array([1.0, -2.0, 0.5])])


BLR_PROBES = [(1e4, 20_000), (1e6, 1_000), (1e6, 50), (1e8, 50), (1e8, 1_000)]


@pytest.mark.parametrize("scale, n", BLR_PROBES)
def test_regression_noise_rate_on_noiseless_data(scale, n):
    """With fixed relevances one sweep gives the exact posterior; its noise
    rate matches the long-double reference."""
    rows = _noiseless(scale, n)
    config = BlrArdConfig(fix_relevance=True)
    model = BlrArd(config)
    state = model.sweep(init_state(model, rows, seed=0), model.prepare(rows))
    want = ridge_noise_rate_longdouble(rows[:, :-1], rows[:, -1], config.b0)
    assert abs(state.b - want) <= 1e-9 * want


@pytest.mark.parametrize("scale, n", BLR_PROBES)
def test_regression_fits_noiseless_data(scale, n):
    rows = _noiseless(scale, n)
    model = BlrArd(BlrArdConfig())
    first, second = cavi_fit(model, rows, FitConfig()), cavi_fit(model, rows, FitConfig())
    elbos = [p.elbo for p in first.elbo_trace]
    assert np.all(np.isfinite(elbos))
    assert elbos == [p.elbo for p in second.elbo_trace]
    assert first.model_state.b == second.model_state.b
