"""Tests for Bayesian linear regression with relevance priors.

The fixed-relevance mode is conjugate, so the exact posterior and the
exact log marginal likelihood (computed by an independent textbook route
in _oracles) pin down the updates and the ELBO to tight tolerances.  The
full model is checked structurally: monotone ELBO, coordinate optimality
at the fixed point, shrinkage of irrelevant coefficients, and permutation
equivariance in the features.
"""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from meanfield.blr_ard import (
    BlrArd,
    BlrArdConfig,
    BlrArdState,
    blr_elbo,
    blr_expectations,
    blr_log_predictive,
    simulate,
    update_coeff_precision,
    update_relevance,
)
from meanfield.engine import FitConfig, cavi_fit, init_state
from meanfield.errors import ConfigError, DomainError

from _oracles import (
    bayes_linreg_log_marginal,
    bayes_linreg_posterior,
    blr_cholesky_solves,
    coordinate_optimality_gap,
)


def make_regression(n, d, seed, relevant=None, noise=0.3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    coef = rng.normal(size=d)
    if relevant is not None:
        mask = np.zeros(d)
        mask[list(relevant)] = 1.0
        coef = coef * mask
    y = x @ coef + noise * rng.normal(size=n)
    return x, y, coef


def stack(x, y):
    return np.column_stack([x, y])


class TestSimulate:
    def test_rows_and_truth(self):
        data, truth = simulate(n=7, seed=2, dim=3, noise=0.5)
        assert data.shape == (7, 4)
        assert truth["coefficients"].shape == (3,) and truth["noise_sd"] == 0.5

    @pytest.mark.parametrize("kwargs, name", [
        ({"n": 0}, "n"), ({"n": -1}, "n"), ({"n": 5, "dim": 0}, "dim"),
        ({"n": 5, "noise": math.nan}, "noise"),
    ], ids=["no-rows", "negative-rows", "no-columns", "noise-nan"])
    def test_bad_args_rejected(self, kwargs, name):
        with pytest.raises(ConfigError, match=f"'{name}'"):
            simulate(seed=0, **kwargs)


class TestConfig:
    @pytest.mark.parametrize("field", ["a0", "b0", "c0", "d0"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_hyperparameters(self, field, bad):
        with pytest.raises(ConfigError) as err:
            BlrArdConfig(**{field: bad})
        assert err.value.field == field

    def test_defaults(self):
        c = BlrArdConfig()
        assert (c.a0, c.b0, c.c0, c.d0) == (1.0, 1.0, 1.0, 1.0)
        assert not c.fix_relevance


class TestState:
    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(DomainError):
            BlrArdState(np.zeros(2), np.eye(3), 1.0, 1.0, 1.0, np.ones(2))

    def test_rejects_nonpositive_gamma_params(self):
        with pytest.raises(DomainError):
            BlrArdState(np.zeros(2), np.eye(2), 0.0, 1.0, 1.0, np.ones(2))
        with pytest.raises(DomainError):
            BlrArdState(np.zeros(2), np.eye(2), 1.0, 1.0, 1.0, np.array([1.0, 0.0]))

    def test_arrays_read_only(self):
        s = BlrArdState(np.zeros(2), np.eye(2), 1.0, 1.0, 1.0, np.ones(2))
        with pytest.raises(ValueError):
            s.beta[0] = 1.0


class TestFixedRelevanceExactness:
    """With relevances frozen at 1 the model is conjugate: one coefficient
    refresh lands on the exact posterior and the ELBO equals the exact log
    marginal likelihood."""

    def test_tiny_example_by_hand(self):
        data = stack(np.array([[1.0], [2.0]]), np.array([1.0, 2.0]))
        config = BlrArdConfig(fix_relevance=True)
        model = BlrArd(config)
        state = model.init_state(data, np.random.default_rng(0))
        state = update_coeff_precision(state, data, config)
        assert_allclose(state.v_inv, [[6.0]], rtol=0, atol=0)
        assert_allclose(state.beta, [5.0 / 6.0], rtol=1e-15)
        assert state.a == 2.0
        assert_allclose(state.b, 17.0 / 12.0, rtol=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_one_sweep_matches_exact_posterior(self, seed):
        x, y, _ = make_regression(n=40, d=3, seed=seed)
        config = BlrArdConfig(a0=1.5, b0=0.7, fix_relevance=True)
        data = stack(x, y)
        model = BlrArd(config)
        state = model.sweep(model.init_state(data, None), data)

        mean, v, shape, rate = bayes_linreg_posterior(x, y, config.a0, config.b0)
        assert_allclose(state.beta, mean, rtol=1e-12)
        assert_allclose(state.v_inv, np.linalg.inv(v), rtol=1e-10)
        assert state.a == shape
        assert_allclose(state.b, rate, rtol=1e-12)
        exp = blr_expectations(state, config)
        assert_allclose(exp["v_diag"], np.diag(v), rtol=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_elbo_equals_log_marginal(self, seed):
        x, y, _ = make_regression(n=25, d=4, seed=seed)
        config = BlrArdConfig(a0=2.0, b0=1.3, fix_relevance=True)
        data = stack(x, y)
        model = BlrArd(config)
        state = model.sweep(model.init_state(data, None), data)
        evidence = bayes_linreg_log_marginal(x, y, config.a0, config.b0)
        assert blr_elbo(state, data, config) == pytest.approx(evidence, abs=1e-9)

    def test_elbo_before_convergence_stays_below_evidence(self):
        x, y, _ = make_regression(n=30, d=3, seed=9)
        config = BlrArdConfig(fix_relevance=True)
        data = stack(x, y)
        model = BlrArd(config)
        state = model.init_state(data, None)
        evidence = bayes_linreg_log_marginal(x, y, 1.0, 1.0)
        assert blr_elbo(state, data, config) <= evidence + 1e-9

    def test_empty_data_elbo_is_zero(self):
        config = BlrArdConfig(fix_relevance=True)
        data = np.empty((0, 4))
        model = BlrArd(config)
        state = model.init_state(data, None)
        assert blr_elbo(state, data, config) == pytest.approx(0.0, abs=1e-12)
        state = model.sweep(state, data)
        assert blr_elbo(state, data, config) == pytest.approx(0.0, abs=1e-12)


class TestCholeskySolves:
    """The numpy solves on ``L^-1`` against scipy's triangular and
    Cholesky solves, at states whose relevances span up to ten decades."""

    @pytest.mark.parametrize("seed,spread", [(0, 0.0), (1, 4.0), (2, 10.0)])
    def test_match_scipy_oracle(self, seed, spread):
        rng = np.random.default_rng(seed)
        dim = 6
        x, y, _ = make_regression(n=40, d=dim, seed=seed)
        config = BlrArdConfig()
        d = 10.0 ** rng.uniform(-spread / 2, spread / 2, dim)
        state = BlrArdState(np.zeros(dim), np.eye(dim), 2.0, 3.0, 1.5, d)
        state = update_coeff_precision(state, stack(x, y), config)
        v_diag, beta, quad = blr_cholesky_solves(state.v_inv, x.T @ y, x)

        exp = blr_expectations(state, config)
        assert_allclose(exp["v_diag"], v_diag, rtol=1e-10)
        assert_allclose(state.beta, beta, rtol=1e-10)
        half = exp["chol_inv"] @ x.T
        assert_allclose((half * half).sum(axis=0), quad, rtol=1e-10)
        var = (state.b / state.a) * (1.0 + quad)
        want = -0.5 * (math.log(2.0 * math.pi) + np.log(var)
                       + (y - x @ state.beta) ** 2 / var)
        assert_allclose(blr_log_predictive(state, stack(x, y)), want, rtol=1e-10)


class TestRelevanceUpdates:
    def test_shape_is_prior_plus_half(self):
        x, y, _ = make_regression(n=20, d=3, seed=0)
        config = BlrArdConfig(c0=2.0, d0=3.0)
        data = stack(x, y)
        model = BlrArd(config)
        state = model.sweep(model.init_state(data, None), data)
        assert state.c == 2.5

    def test_rate_uses_expected_scaled_square(self):
        x, y, _ = make_regression(n=20, d=3, seed=1)
        config = BlrArdConfig()
        data = stack(x, y)
        model = BlrArd(config)
        state = update_coeff_precision(
            model.init_state(data, None), data, config
        )
        exp = blr_expectations(state, config)
        updated = update_relevance(state, config)
        assert_allclose(
            updated.d,
            config.d0 + 0.5 * (state.beta**2 * state.a / state.b + exp["v_diag"]),
            rtol=1e-12,
        )

    def test_fixed_relevance_is_a_no_op(self):
        config = BlrArdConfig(fix_relevance=True)
        s = BlrArdState(np.ones(2), 2.0 * np.eye(2), 3.0, 4.0, 1.0, np.ones(2))
        assert update_relevance(s, config) is s

    def test_noise_shape_excludes_coefficient_dimension(self):
        # a* grows only with the number of observations, not with D; the
        # coefficient block's tau-dependence cancels between p and q.
        x, y, _ = make_regression(n=14, d=6, seed=2)
        config = BlrArdConfig(a0=1.0, b0=1.0)
        data = stack(x, y)
        model = BlrArd(config)
        state = model.sweep(model.init_state(data, None), data)
        assert state.a == 1.0 + 7.0


class TestElboStructure:
    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_over_sweeps(self, seed):
        x, y, _ = make_regression(n=35, d=4, seed=seed, relevant=(0, 1))
        config = BlrArdConfig()
        data = stack(x, y)
        model = BlrArd(config)
        state = model.init_state(data, None)
        prev = blr_elbo(state, data, config)
        for _ in range(40):
            state = model.sweep(state, data)
            cur = blr_elbo(state, data, config)
            assert cur >= prev - 1e-8 * (1.0 + abs(cur))
            prev = cur

    def test_empty_data_with_relevance_learning_is_negative(self):
        # The hierarchical prior p(beta, tau | alpha) p(alpha) is not a
        # member of the factorized family, so even with no data the bound
        # cannot reach log p(empty) = 0.
        config = BlrArdConfig()
        data = np.empty((0, 3))
        model = BlrArd(config)
        state = model.init_state(data, None)
        for _ in range(50):
            state = model.sweep(state, data)
        assert blr_elbo(state, data, config) < -1e-3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converged_fit_is_coordinate_optimal(self, seed):
        x, y, _ = make_regression(n=30, d=3, seed=seed)
        config = BlrArdConfig()
        data = stack(x, y)
        model = BlrArd(config)
        report = cavi_fit(model, data, FitConfig(max_iters=500, tol=1e-13, seed=seed))
        assert report.converged
        gap = coordinate_optimality_gap(model, report.model_state, data, eps=1e-4)
        assert gap <= 1e-8


class TestShrinkage:
    def test_irrelevant_features_get_large_relevance_precision(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(200, 6))
        coef = np.array([3.0, -2.0, 0.0, 0.0, 0.0, 0.0])
        y = x @ coef + 0.1 * rng.normal(size=200)
        config = BlrArdConfig()
        data = stack(x, y)
        model = BlrArd(config)
        report = cavi_fit(model, data, FitConfig(max_iters=300, tol=1e-12, seed=0))
        state = report.model_state
        exp = blr_expectations(state, config)
        e_alpha = exp["e_alpha"]
        assert e_alpha[2:].min() > 10.0 * e_alpha[:2].max()
        assert np.abs(state.beta[2:]).max() < 0.1 * np.abs(state.beta[:2]).min()

    def test_feature_permutation_equivariance(self):
        x, y, _ = make_regression(n=50, d=4, seed=3, relevant=(0, 2))
        perm = np.array([2, 0, 3, 1])
        config = BlrArdConfig()
        fit = FitConfig(max_iters=200, tol=1e-12, seed=0)
        state = cavi_fit(BlrArd(config), stack(x, y), fit).model_state
        state_p = cavi_fit(BlrArd(config), stack(x[:, perm], y), fit).model_state
        assert_allclose(state_p.beta, state.beta[perm], rtol=1e-9, atol=1e-12)
        assert_allclose(state_p.d, state.d[perm], rtol=1e-9)
        assert_allclose(
            state_p.v_inv, state.v_inv[np.ix_(perm, perm)], rtol=1e-9, atol=1e-12
        )


class TestPredictive:
    def test_matches_direct_gaussian_formula(self):
        x, y, _ = make_regression(n=30, d=2, seed=4)
        config = BlrArdConfig(fix_relevance=True)
        data = stack(x, y)
        model = BlrArd(config)
        state = model.sweep(model.init_state(data, None), data)
        _, v, shape, rate = bayes_linreg_posterior(x, y, 1.0, 1.0)
        x_new = np.array([0.4, -1.2])
        y_new = 0.3
        var = (rate / shape) * (1.0 + x_new @ v @ x_new)
        mean = x_new @ state.beta
        expected = -0.5 * (
            math.log(2.0 * math.pi) + math.log(var) + (y_new - mean) ** 2 / var
        )
        got = blr_log_predictive(state, np.append(x_new, y_new))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_density_integrates_to_one(self):
        x, y, _ = make_regression(n=25, d=2, seed=5)
        config = BlrArdConfig()
        data = stack(x, y)
        model = BlrArd(config)
        report = cavi_fit(model, data, FitConfig(max_iters=100, tol=1e-10, seed=0))
        x_new = np.array([0.7, 0.1])
        grid = np.linspace(-30.0, 30.0, 20001)
        dens = np.exp(
            [
                blr_log_predictive(report.model_state, np.append(x_new, g))
                for g in grid
            ]
        )
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_heldout_average_is_mean_of_rows(self):
        x, y, _ = make_regression(n=12, d=2, seed=6)
        config = BlrArdConfig()
        data = stack(x, y)
        model = BlrArd(config)
        state = model.sweep(model.init_state(data, None), data)
        per_row = [blr_log_predictive(state, row) for row in data[:4]]
        assert model.heldout_log_predictive(state, data[:4]) == pytest.approx(
            np.mean(per_row)
        )


class TestEngineIntegration:
    def test_fit_wrapper_and_report(self):
        x, y, _ = make_regression(n=60, d=3, seed=8, relevant=(0,))
        report = BlrArd(BlrArdConfig()).fit(
            stack(x, y), FitConfig(max_iters=200, tol=1e-11, seed=1)
        )
        assert report.converged
        assert report.metadata["model"] == "blr-ard"
        assert not report.metadata["fix_relevance"]
        elbos = [p.elbo for p in report.elbo_trace]
        assert all(b >= a - 1e-8 * (1 + abs(b)) for a, b in zip(elbos, elbos[1:]))

    def test_fit_is_deterministic(self):
        x, y, _ = make_regression(n=40, d=3, seed=9)
        cfg = FitConfig(max_iters=50, tol=1e-12, seed=5)
        r1 = BlrArd(BlrArdConfig()).fit(stack(x, y), cfg)
        r2 = BlrArd(BlrArdConfig()).fit(stack(x, y), cfg)
        assert r1.final_elbo == r2.final_elbo
        assert_allclose(r1.model_state.beta, r2.model_state.beta, rtol=0, atol=0)

    def test_heldout_trace_improves_fit_quality_signal(self):
        x, y, _ = make_regression(n=120, d=3, seed=10, relevant=(0, 1))
        report = BlrArd(BlrArdConfig()).fit(
            stack(x, y),
            FitConfig(max_iters=100, tol=1e-12, seed=2, heldout_fraction=0.25),
        )
        assert report.heldout_trace
        assert all(np.isfinite(p.log_predictive) for p in report.heldout_trace)
        assert report.metadata["n_heldout"] == 30

    def test_init_state_via_engine_helper(self):
        x, y, _ = make_regression(n=10, d=3, seed=12)
        model = BlrArd(BlrArdConfig(c0=2.0, d0=4.0))
        state = init_state(model, stack(x, y), seed=0)
        assert_allclose(state.beta, np.zeros(3))
        assert_allclose(np.diag(state.v_inv), np.full(3, 0.5))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(DomainError, match="response column"):
            BlrArd(BlrArdConfig()).fit(
                np.zeros((5, 1)), FitConfig(max_iters=5, tol=1e-8, seed=0)
            )
        with pytest.raises(DomainError):
            blr_elbo(
                BlrArdState(np.zeros(1), np.eye(1), 1.0, 1.0, 1.0, np.ones(1)),
                np.zeros((3,)),
                BlrArdConfig(),
            )
