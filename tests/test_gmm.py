"""Gaussian mixture updates against enumeration and conjugate oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import (
    align_accuracy,
    coordinate_optimality_gap,
    gmm_elbo_direct,
    gmm_predictive_point,
    gmm_kl_to_posterior,
    gmm_log_evidence,
    gmm_responsibilities,
    gmm_state_from_param,
    gmm_update_components,
    k1_gaussian_posterior,
    normal_gamma_log_marginal,
    normal_gamma_posterior,
)
from meanfield.condconj import GlobalParam, local_probs
from meanfield.engine import FitConfig, cavi_fit, init_state
from meanfield.errors import ConfigError, DataFormatError, DomainError
from meanfield.gmm import (
    DiagGmm,
    DiagGmmConfig,
    DiagGmmState,
    UniGmmConfig,
    UniGmmState,
    UnitVarianceGmm,
    conjugate_spec,
    diag_gmm_elbo,
    diag_predictive_log_density,
    gmm_elbo,
    predictive_log_density,
    read_data_csv,
    simulate,
    update_assignments,
)


def _state(m, s2, phi):
    m = np.atleast_2d(np.asarray(m, dtype=float).reshape(len(m), -1))
    s2 = np.atleast_2d(np.asarray(s2, dtype=float).reshape(len(s2), -1))
    return UniGmmState(m, s2, np.asarray(phi, dtype=float))


class TestAssignments:
    def test_two_component_log_odds(self):
        # log-odds between the components at x = 1 is exactly 0.5
        state = _state([0.0, 1.0], [1.0, 1.0], [[0.5, 0.5]])
        phi = update_assignments(state, [1.0])
        want = 1.0 / (1.0 + math.exp(-0.5))
        assert phi[0, 1] == pytest.approx(want, abs=1e-12)
        assert phi[0, 0] == pytest.approx(1.0 - want, abs=1e-12)

    def test_rows_normalized(self):
        rng = np.random.default_rng(0)
        state = _state(rng.normal(size=3), np.ones(3), np.full((5, 3), 1 / 3))
        phi = update_assignments(state, rng.normal(size=5) * 30.0)
        assert np.allclose(phi.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(phi >= 0.0)

    def test_extreme_data_stays_finite(self):
        state = _state([-500.0, 500.0], [1.0, 1.0], [[0.5, 0.5]])
        phi = update_assignments(state, [700.0])
        assert np.all(np.isfinite(phi))
        assert phi[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_independent_of_previous_responsibilities(self):
        a = _state([0.0, 1.0], [1.0, 1.0], [[0.9, 0.1]])
        b = _state([0.0, 1.0], [1.0, 1.0], [[0.2, 0.8]])
        x = [0.3]
        assert np.array_equal(update_assignments(a, x), update_assignments(b, x))

    def test_single_component_is_degenerate(self):
        state = _state([2.0], [0.5], [[1.0]])
        phi = update_assignments(state, [0.0, 1.0, 2.0])
        assert np.array_equal(phi, np.ones((3, 1)))

    def test_per_coordinate_variances_are_refused(self):
        # a component's variance is shared by its coordinates; a state whose
        # s2 row varies would be scored on one coordinate's variance alone
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 3))
        state = UniGmmState(
            rng.normal(size=(2, 3)),
            np.array([[1.0, 5.0, 9.0], [1.0, 1.0, 1.0]]),
            np.full((6, 2), 0.5),
        )
        model = UnitVarianceGmm(UniGmmConfig(k=2))
        with pytest.raises(DomainError, match="equal across coordinates"):
            update_assignments(state, x)
        with pytest.raises(DomainError, match="equal across coordinates"):
            model.sweep(state, x)


def update_components(state, data, sigma2):
    """The mean factors of one sweep, which are the spec's global step,
    held to the dedicated component update at rtol 1e-15.  Every state
    below is at its local optimum, so the sweep keeps its
    responsibilities."""
    new = UnitVarianceGmm(UniGmmConfig(state.m.shape[0], sigma2)).sweep(state, data)
    assert np.array_equal(new.phi, state.phi)
    m, s2 = gmm_update_components(state, data, sigma2)
    assert_allclose(new.m, m, rtol=1e-15, atol=0.0)
    assert_allclose(new.s2, s2, rtol=1e-15, atol=0.0)
    return new.m, new.s2


class TestComponents:
    def test_fully_assigned_two_points(self):
        state = _state([0.0], [1.0], [[1.0], [1.0]])
        m, s2 = update_components(state, [1.0, 1.0], sigma2=1.0)
        assert m[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert s2[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_half_responsibility_single_point(self):
        state = _state([0.0, 0.0], [1.0, 1.0], [[0.5, 0.5]])
        m, s2 = update_components(state, [2.0], sigma2=1.0)
        assert m[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert s2[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_no_data_returns_prior(self):
        state = _state([3.0], [0.2], np.ones((0, 1)))
        m, s2 = update_components(state, np.zeros((0, 1)), sigma2=4.0)
        assert m[0, 0] == 0.0
        assert s2[0, 0] == 4.0

    def test_variance_shrinks_with_responsibility_mass(self):
        state = _state([0.0], [1.0], np.ones((10, 1)))
        _, s2 = update_components(state, np.ones(10), sigma2=1.0)
        assert s2[0, 0] == pytest.approx(1.0 / 11.0, abs=1e-15)


class TestElbo:
    def test_never_exceeds_log_evidence_along_fit(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, 4))
            data = rng.normal(0.0, 2.0, size=n)
            evidence = gmm_log_evidence(data, k, 1.0)
            model = UnitVarianceGmm(UniGmmConfig(k=k))
            state = init_state(model, data, seed=trial)
            for _ in range(30):
                state = model.sweep(state, data)
                assert gmm_elbo(state, data, 1.0) <= evidence + 1e-9

    def test_identity_elbo_plus_kl_is_log_evidence(self):
        rng = np.random.default_rng(7)
        data = rng.normal(0.0, 1.5, size=3)
        model = UnitVarianceGmm(UniGmmConfig(k=2))
        state = init_state(model, data, seed=1)
        for _ in range(4):
            state = model.sweep(state, data)
            lhs = gmm_log_evidence(data, 2, 1.0)
            rhs = gmm_elbo(state, data, 1.0) + gmm_kl_to_posterior(
                state.m, state.s2, state.phi, data, 1.0
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_exact_for_single_component(self):
        data = np.array([-0.4, 0.9, 2.2, 1.1])
        mean, var = k1_gaussian_posterior(data, 3.0)
        state = _state(mean, [var], np.ones((4, 1)))
        assert gmm_elbo(state, data, 3.0) == pytest.approx(
            gmm_log_evidence(data, 1, 3.0), abs=1e-9
        )

    def test_zero_at_prior_with_no_data(self):
        state = _state([0.0, 0.0], [2.5, 2.5], np.ones((0, 2)))
        assert gmm_elbo(state, np.zeros((0, 1)), 2.5) == pytest.approx(0.0, abs=1e-12)


class TestPredictive:
    def test_symmetric_two_component(self):
        state = _state([-1.0, 1.0], [1.0, 1.0], [[0.5, 0.5]])
        got = predictive_log_density(state, 0.0)
        assert got == pytest.approx(-1.4189385332046727, abs=1e-12)

    def test_matches_direct_mixture_density(self):
        state = _state([0.0, 3.0], [0.5, 0.25], [[0.5, 0.5]])
        x = 1.7
        direct = math.log(
            0.5
            * (
                math.exp(-0.5 * (x - 0.0) ** 2) / math.sqrt(2 * math.pi)
                + math.exp(-0.5 * (x - 3.0) ** 2) / math.sqrt(2 * math.pi)
            )
        )
        assert predictive_log_density(state, x) == pytest.approx(direct, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        state = _state([0.0], [1.0], [[1.0]])
        with pytest.raises(DomainError):
            predictive_log_density(state, [0.0, 1.0])


class TestSimulate:
    def test_deterministic_per_seed(self):
        a = simulate(k=3, n=50, seed=9, dim=2)
        b = simulate(k=3, n=50, seed=9, dim=2)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_shapes_and_label_range(self):
        data, means, labels = simulate(k=4, n=30, seed=0, dim=3)
        assert data.shape == (30, 3)
        assert means.shape == (4, 3)
        assert labels.shape == (30,)
        assert set(np.unique(labels)) <= set(range(4))

    def test_min_separation_enforced(self):
        _, means, _ = simulate(k=5, n=10, seed=4, dim=2, min_separation=4.0)
        diffs = means[:, None, :] - means[None, :, :]
        dist = np.sqrt((diffs**2).sum(axis=2))
        assert dist[np.triu_indices(5, 1)].min() >= 4.0

    def test_bad_args_rejected(self):
        with pytest.raises(ConfigError):
            simulate(k=0, n=5, seed=0)
        with pytest.raises(ConfigError):
            simulate(k=2, n=-1, seed=0)
        with pytest.raises(ConfigError):
            simulate(k=2, n=0, seed=0)  # no rows: a data file that fit refuses


class TestUnitVarianceModel:
    def test_monotone_to_convergence_many_seeds(self):
        for seed in range(6):
            data, _, _ = simulate(k=3, n=60, seed=seed, dim=1)
            model = UnitVarianceGmm(UniGmmConfig(k=3))
            report = cavi_fit(model, data, FitConfig(seed=seed, max_iters=200))
            elbos = [p.elbo for p in report.elbo_trace]
            assert all(
                b >= a - 1e-8 * (1.0 + abs(b)) for a, b in zip(elbos, elbos[1:])
            )

    def test_separated_components_recovered_in_2d(self):
        data, means, labels = simulate(
            k=3, n=300, seed=11, dim=2, min_separation=5.0
        )
        model = UnitVarianceGmm(UniGmmConfig(k=3))
        best = 0.0
        for seed in range(5):
            report = cavi_fit(model, data, FitConfig(seed=seed, max_iters=300))
            best = max(best, align_accuracy(labels, report.model_state.phi))
        assert best >= 0.95

    def test_fixed_point_is_coordinate_optimal(self):
        data, _, _ = simulate(k=2, n=25, seed=3, dim=1)
        model = UnitVarianceGmm(UniGmmConfig(k=2))
        report = cavi_fit(model, data, FitConfig(seed=1, max_iters=800, tol=1e-14))
        gap = coordinate_optimality_gap(model, report.model_state, data)
        assert gap <= 1e-10

    def test_states_are_immutable(self):
        state = _state([0.0], [1.0], [[1.0]])
        with pytest.raises(ValueError):
            state.m[0, 0] = 5.0


class TestDiagConfig:
    def test_weight_prior_defaults_to_one_over_k(self):
        assert DiagGmmConfig(k=4).a0 == pytest.approx(0.25)

    def test_explicit_a0_kept(self):
        assert DiagGmmConfig(k=4, a0=2.0).a0 == 2.0

    @pytest.mark.parametrize(
        "kwargs", [{"k": 0}, {"k": 2, "b0": 0.0}, {"k": 2, "beta0": -1.0}]
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            DiagGmmConfig(**kwargs)


class TestDiagGmm:
    def test_single_component_matches_conjugate_posterior(self):
        rng = np.random.default_rng(5)
        data = rng.normal(1.5, 2.0, size=(40, 3))
        config = DiagGmmConfig(k=1, a0=1.0)
        model = DiagGmm(config)
        state = init_state(model, data, seed=0)
        state = model.sweep(state, data)
        for d in range(3):
            m, b, alpha, beta = normal_gamma_posterior(
                data[:, d], config.m0, config.b0, config.alpha0, config.beta0
            )
            assert state.m[0, d] == pytest.approx(m, abs=1e-10)
            assert state.b[0, d] == pytest.approx(b, abs=1e-10)
            assert state.alpha[0, d] == pytest.approx(alpha, abs=1e-10)
            assert state.beta[0, d] == pytest.approx(beta, abs=1e-9)

    def test_single_component_elbo_equals_log_evidence(self):
        rng = np.random.default_rng(8)
        data = rng.normal(-0.5, 1.3, size=(25, 2))
        config = DiagGmmConfig(k=1, a0=1.0)
        model = DiagGmm(config)
        state = init_state(model, data, seed=0)
        state = model.sweep(state, data)
        state = model.sweep(state, data)
        evidence = sum(
            normal_gamma_log_marginal(
                data[:, d], config.m0, config.b0, config.alpha0, config.beta0
            )
            for d in range(2)
        )
        assert diag_gmm_elbo(state, data, config) == pytest.approx(
            evidence, abs=1e-9
        )

    def test_zero_at_prior_with_no_data(self):
        config = DiagGmmConfig(k=3)
        model = DiagGmm(config)
        state = init_state(model, np.zeros((0, 2)), seed=0)
        assert diag_gmm_elbo(state, np.zeros((0, 2)), config) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_monotone_elbo(self):
        for seed in range(4):
            data, _, _ = simulate(k=3, n=80, seed=seed, dim=2)
            config = DiagGmmConfig(k=3)
            model = DiagGmm(config)
            report = cavi_fit(model, data, FitConfig(seed=seed, max_iters=150))
            elbos = [p.elbo for p in report.elbo_trace]
            assert all(
                b >= a - 1e-8 * (1.0 + abs(b)) for a, b in zip(elbos, elbos[1:])
            )

    def test_empty_component_falls_back_to_prior(self):
        # two far clusters, three components: at least one ends up empty
        data = np.concatenate(
            [np.full((20, 1), -10.0), np.full((20, 1), 10.0)]
        ) + 0.1 * np.random.default_rng(0).standard_normal((40, 1))
        config = DiagGmmConfig(k=3)
        model = DiagGmm(config)
        report = cavi_fit(model, data, FitConfig(seed=2, max_iters=200))
        state = report.model_state
        nk = state.r.sum(axis=0)
        empty = nk < 1e-6
        if empty.any():
            j = int(np.argmin(nk))
            assert state.b[j, 0] == pytest.approx(config.b0, abs=1e-6)
            assert state.alpha[j, 0] == pytest.approx(config.alpha0, abs=1e-6)

    def test_fixed_point_is_coordinate_optimal(self):
        data, _, _ = simulate(k=2, n=30, seed=6, dim=1)
        config = DiagGmmConfig(k=2)
        model = DiagGmm(config)
        report = cavi_fit(model, data, FitConfig(seed=3, max_iters=2000, tol=1e-14))
        gap = coordinate_optimality_gap(model, report.model_state, data)
        assert gap <= 1e-10

    def test_predictive_integrates_to_one(self):
        # numeric integration over a fine 1-D grid
        data, _, _ = simulate(k=2, n=50, seed=1, dim=1)
        config = DiagGmmConfig(k=2)
        model = DiagGmm(config)
        report = cavi_fit(model, data, FitConfig(seed=1, max_iters=100))
        xs = np.linspace(-30.0, 30.0, 4001)
        dens = np.exp(
            [diag_predictive_log_density(report.model_state, x) for x in xs]
        )
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-3)

    def test_high_dimensional_smoke(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((100, 64))
        config = DiagGmmConfig(k=5)
        model = DiagGmm(config)
        report = cavi_fit(model, data, FitConfig(seed=0, max_iters=10))
        assert report.model_state.m.shape == (5, 64)
        assert np.isfinite(report.final_elbo)

    @pytest.mark.parametrize(
        "r",
        [
            [[0.9, 0.9], [-0.5, 1.5]],
            [[0.5, 0.5], [-1e-3, 1.0 + 1e-3]],
            [[0.5, 0.5], [0.3, 0.7 + 2e-9]],
            [[0.5, 0.5], [np.nan, 0.5]],
        ],
    )
    def test_state_rejects_invalid_responsibilities(self, r):
        config = DiagGmmConfig(k=2)
        state = init_state(DiagGmm(config), np.zeros((0, 1)), seed=0)
        # the (0, k) array of a state rebuilt without data is valid
        assert state.r.shape == (0, 2)
        fields = {f: getattr(state, f) for f in ("conc", "m", "b", "alpha", "beta")}
        DiagGmmState(**fields, r=[[0.5, 0.5], [0.3, 0.7 + 5e-10]])
        with pytest.raises(DomainError):
            DiagGmmState(**fields, r=r)


class TestReadDataCsv:
    def test_reads_matrix(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n3.0,4.0\n")
        out = read_data_csv(p)
        assert np.array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_rows_report_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(DataFormatError) as err:
            read_data_csv(p)
        assert err.value.line == 2

    def test_non_numeric_reports_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("1.0,2.0\n3.0,x\n")
        with pytest.raises(DataFormatError) as err:
            read_data_csv(p)
        assert err.value.line == 2

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("")
        with pytest.raises(DataFormatError):
            read_data_csv(p)


class TestFarFromOrigin:
    """Means and data 1e3 and 1e5 from the origin: the matmul form of the
    expected log likelihood must not cancel away the digits of |x - m|^2."""

    @pytest.mark.parametrize("offset", [1e3, 1e5])
    def test_predictive_and_elbo_match_per_coordinate_oracles(self, offset):
        rng = np.random.default_rng(7)
        k, d, n = 3, 8, 12
        m = offset + 5.0 * rng.standard_normal((k, d))
        x = m[rng.integers(k, size=n)] + 0.01 * rng.standard_normal((n, d))
        state = UniGmmState(m, rng.uniform(0.1, 1.0, (k, d)), rng.dirichlet(np.ones(k), n))
        want = [gmm_predictive_point(state, row) for row in x]
        np.testing.assert_allclose(predictive_log_density(state, x), want, rtol=1e-12, atol=0.0)
        # A wide prior keeps the prior term from swamping the likelihood.
        sigma2 = 1e12
        assert gmm_elbo(state, x, sigma2) == pytest.approx(
            gmm_elbo_direct(state, x, sigma2), rel=1e-12, abs=0.0
        )


class TestCentredLocalStep:
    """The one local step forms its logits on data and means centred on the
    mean component location, so responsibilities keep their digits when
    the means sit 1e3 or 1e5 from the origin (k=4, d=8, spread 0.5)."""

    K, D, N = 4, 8, 40

    def problem(self, offset, seed):
        rng = np.random.default_rng(seed)
        m = offset + 0.5 * rng.standard_normal((self.K, self.D))
        x = m[rng.integers(self.K, size=self.N)]
        x = x + 0.5 * rng.standard_normal((self.N, self.D)) / math.sqrt(self.D)
        return rng, m, x

    @pytest.mark.parametrize("offset", [5.0, 1e3, 1e5])
    def test_update_assignments_matches_per_coordinate_softmax(self, offset):
        rng, m, x = self.problem(offset, 3)
        # Variances that are powers of two make m -> m / s2 -> m exact in the
        # natural-parameter form the local step reads; one ulp of m at 1e5
        # (1.5e-11) would by itself move responsibilities by about 1e-11.
        s2 = np.repeat(2.0 ** -rng.integers(0, 6, size=(self.K, 1)), self.D, axis=1)
        state = UniGmmState(m, s2, np.full((self.N, self.K), 1.0 / self.K))
        assert_allclose(
            update_assignments(state, x), gmm_responsibilities(m, s2, x),
            rtol=0.0, atol=1e-12,
        )

    @pytest.mark.parametrize("offset", [5.0, 1e3, 1e5])
    def test_local_probs_matches_per_coordinate_softmax(self, offset):
        rng, m, x = self.problem(offset, 4)
        b = rng.uniform(1.0, 100.0, size=self.K)
        lam = GlobalParam(np.concatenate([(m * b[:, None]).ravel(), b]), self.N)
        spec = conjugate_spec(self.K, 1.0, self.D)
        got = local_probs(spec, lam, x)
        # the oracle reads the moments that lam carries
        want = gmm_responsibilities(*gmm_state_from_param(lam, got), x)
        assert_allclose(got, want, rtol=0.0, atol=1e-12)
