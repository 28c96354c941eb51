"""Engine behavior: fitting loop, reporting, and the factorization diagnostic."""

import csv
import sys
from dataclasses import MISSING, fields

import numpy as np
import pytest

from _oracles import (
    coordinate_optimality_gap,
    gmm_log_evidence,
    k1_gaussian_posterior,
)
from meanfield import cli, engine
from meanfield.blr_ard import BlrArd, BlrArdConfig
from meanfield.condconj import StepSchedule, coordinate_ascent, prior_param, svi_fit
from meanfield.engine import (
    FitConfig,
    VariationalModel,
    cavi_fit,
    init_state,
    meanfield_gaussian_fixed_point,
    write_trace_csv,
)
from meanfield.errors import (
    ConfigError,
    DataFormatError,
    DomainError,
    MonotonicityError,
    NumericError,
)
from meanfield.gmm import (
    DiagGmm,
    DiagGmmConfig,
    UniGmmConfig,
    UniGmmState,
    UnitVarianceGmm,
    conjugate_spec,
    gmm_svi_fit,
    simulate,
)
from meanfield.lda import (
    INNER_MAX_ITERS,
    Lda,
    LdaConfig,
    lda_svi_fit,
    simulate_corpus,
    write_uci,
)


class TestFitConfig:
    def test_defaults_valid(self):
        FitConfig()

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"max_iters": 0}, "max_iters"),
            ({"tol": 0.0}, "tol"),
            ({"tol": -1.0}, "tol"),
            ({"heldout_fraction": -0.1}, "heldout_fraction"),
            ({"heldout_fraction": 0.6}, "heldout_fraction"),
            ({"elbo_every": 0}, "elbo_every"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, field):
        with pytest.raises(ConfigError) as err:
            FitConfig(**kwargs)
        assert err.value.field == field


class TestInitState:
    def test_same_seed_bit_identical(self):
        model = UnitVarianceGmm(UniGmmConfig(k=3))
        data = np.linspace(-2.0, 2.0, 30)
        a = init_state(model, data, seed=11)
        b = model.init_state(data, np.random.default_rng(11))
        assert np.array_equal(a.m, b.m)
        assert np.array_equal(a.s2, b.s2)
        assert np.array_equal(a.phi, b.phi)

    def test_different_seeds_differ(self):
        model = UnitVarianceGmm(UniGmmConfig(k=3))
        data = np.linspace(-2.0, 2.0, 30)
        a = init_state(model, data, seed=1)
        b = init_state(model, data, seed=2)
        assert not np.array_equal(a.m, b.m)

    def test_calibrated_means_track_data_moments(self):
        # across many seeds the drawn means are distributed around the
        # empirical mean with the empirical spread
        rng = np.random.default_rng(0)
        data = rng.normal(3.0, 2.0, size=400)
        model = UnitVarianceGmm(UniGmmConfig(k=1))
        draws = np.array(
            [
                init_state(model, data, seed=s).m[0, 0]
                for s in range(300)
            ]
        )
        assert abs(draws.mean() - data.mean()) < 0.4
        assert abs(draws.std() - data.std()) < 0.4


class TestCaviFit:
    def test_single_component_recovers_exact_posterior(self):
        data = np.array([1.0, 1.0])
        model = UnitVarianceGmm(UniGmmConfig(k=1, sigma2=1.0))
        report = cavi_fit(model, data, FitConfig(tol=1e-12))
        state = report.model_state
        assert state.m[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert state.s2[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert report.converged
        # exact family: the bound is tight at the optimum
        assert report.final_elbo == pytest.approx(
            gmm_log_evidence(data, 1, 1.0), abs=1e-9
        )

    def test_empty_data_returns_prior_with_zero_elbo(self):
        model = UnitVarianceGmm(UniGmmConfig(k=2, sigma2=1.0))
        data = np.zeros((0, 1))
        report = cavi_fit(model, data, FitConfig())
        state = report.model_state
        assert np.array_equal(state.m, np.zeros((2, 1)))
        assert np.array_equal(state.s2, np.ones((2, 1)))
        assert report.final_elbo == pytest.approx(0.0, abs=1e-12)

    def test_trace_is_nondecreasing_and_timed(self):
        data, _, _ = _dataset(seed=5)
        model = UnitVarianceGmm(UniGmmConfig(k=3))
        report = cavi_fit(model, data, FitConfig(seed=5, max_iters=100))
        elbos = [p.elbo for p in report.elbo_trace]
        for a, b in zip(elbos, elbos[1:]):
            assert b >= a - 1e-8 * (1.0 + abs(b))
        times = [p.elapsed_ms for p in report.elbo_trace]
        assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))
        assert all(p.iteration >= 1 for p in report.elbo_trace)

    def test_elbo_every_thins_trace(self):
        # stub ELBO strictly increases, so the fit never converges and the
        # final iteration is recorded even off-cadence
        report = cavi_fit(
            _StubModel(), [0.0], FitConfig(max_iters=10, elbo_every=4, tol=1e-300)
        )
        assert [p.iteration for p in report.elbo_trace] == [4, 8, 10]
        assert not report.converged

    def test_heldout_trace_recorded(self):
        data, _, _ = _dataset(seed=9, n=100)
        model = UnitVarianceGmm(UniGmmConfig(k=3))
        report = cavi_fit(
            model, data, FitConfig(seed=9, heldout_fraction=0.2, max_iters=40)
        )
        assert report.metadata["n_heldout"] == 20
        assert report.metadata["n_train"] == 80
        assert len(report.heldout_trace) == len(report.elbo_trace)
        assert all(np.isfinite(p.log_predictive) for p in report.heldout_trace)

    def test_monotonicity_violation_is_hard_error(self):
        class Broken(_StubModel):
            def elbo(self, state, data):
                return -float(state)  # decreases every sweep

        with pytest.raises(MonotonicityError) as err:
            cavi_fit(Broken(), [0.0], FitConfig(max_iters=5))
        assert err.value.iteration is not None

    def test_nonfinite_elbo_is_numeric_error(self):
        class Nan(_StubModel):
            def elbo(self, state, data):
                return float("nan")

        with pytest.raises(NumericError) as err:
            cavi_fit(Nan(), [0.0], FitConfig(max_iters=5))
        assert err.value.iteration == 1

    def test_identical_config_identical_result(self):
        data, _, _ = _dataset(seed=21)
        model = UnitVarianceGmm(UniGmmConfig(k=3))
        cfg = FitConfig(seed=4, max_iters=60, heldout_fraction=0.1)
        r1 = cavi_fit(model, data, cfg)
        r2 = cavi_fit(model, data, cfg)
        assert np.array_equal(r1.model_state.m, r2.model_state.m)
        assert [p.elbo for p in r1.elbo_trace] == [p.elbo for p in r2.elbo_trace]


class TestComputeElboAndHeldout:
    def test_exact_posterior_elbo_equals_log_evidence(self):
        data = np.array([0.3, -1.2, 0.7])
        mean, var = k1_gaussian_posterior(data, 2.0)
        state = UniGmmState(
            m=mean[None, :], s2=np.array([[var]]), phi=np.ones((3, 1))
        )
        model = UnitVarianceGmm(UniGmmConfig(k=1, sigma2=2.0))
        assert model.elbo(state, data) == pytest.approx(
            gmm_log_evidence(data, 1, 2.0), abs=1e-9
        )

    def test_heldout_standard_normal_point(self):
        state = UniGmmState(
            m=np.zeros((1, 1)), s2=np.full((1, 1), 0.5), phi=np.ones((0, 1))
        )
        model = UnitVarianceGmm(UniGmmConfig(k=1))
        value = model.heldout_log_predictive(state, np.array([0.0]))
        assert value == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_empty_heldout_rejected(self):
        model = UnitVarianceGmm(UniGmmConfig(k=1))
        state = UniGmmState(np.zeros((1, 1)), np.ones((1, 1)), np.ones((0, 1)))
        with pytest.raises(DomainError):
            model.heldout_log_predictive(state, np.zeros((0, 1)))


class TestGaussianFixedPoint:
    @pytest.mark.parametrize("rho", [-0.9, -0.6, -0.3, 0.3, 0.6, 0.9])
    def test_correlation_family_variances(self, rho):
        means, variances = meanfield_gaussian_fixed_point(
            [0.0, 0.0], [[1.0, rho], [rho, 1.0]]
        )
        assert variances[0] == pytest.approx(1.0 - rho * rho, abs=1e-12)
        assert variances[1] == pytest.approx(1.0 - rho * rho, abs=1e-12)
        assert np.array_equal(means, [0.0, 0.0])

    def test_means_preserved(self):
        means, _ = meanfield_gaussian_fixed_point(
            [2.0, -3.0], [[2.0, 0.5], [0.5, 1.0]]
        )
        assert np.array_equal(means, [2.0, -3.0])

    def test_matches_diagonal_of_inverse_precision(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a = rng.normal(size=(2, 2))
            cov = a @ a.T + 0.1 * np.eye(2)
            _, variances = meanfield_gaussian_fixed_point([0.0, 0.0], cov)
            lam = np.linalg.inv(cov)
            assert np.allclose(variances, 1.0 / np.diag(lam), atol=1e-12)
            # never wider than the true marginals
            assert np.all(variances <= np.diag(cov) + 1e-12)

    def test_iterative_coordinate_updates_converge_to_closed_form(self):
        # independent oracle: run the two-block Gaussian coordinate update
        # m_j <- mu_j - Lam_jj^-1 Lam_j,-j (m_-j - mu_-j) from a cold start
        mu = np.array([1.0, -2.0])
        cov = np.array([[1.0, 0.8], [0.8, 2.0]])
        lam = np.linalg.inv(cov)
        m = np.array([10.0, 10.0])
        for _ in range(200):
            m[0] = mu[0] - lam[0, 1] / lam[0, 0] * (m[1] - mu[1])
            m[1] = mu[1] - lam[1, 0] / lam[1, 1] * (m[0] - mu[0])
        means, variances = meanfield_gaussian_fixed_point(mu, cov)
        assert np.allclose(m, means, atol=1e-12)
        assert np.allclose(variances, [1.0 / lam[0, 0], 1.0 / lam[1, 1]])

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            meanfield_gaussian_fixed_point([0.0, 0.0], [[1.0, 0.2], [0.3, 1.0]])

    def test_not_positive_definite_rejected(self):
        with pytest.raises(DomainError):
            meanfield_gaussian_fixed_point([0.0, 0.0], [[1.0, 1.5], [1.5, 1.0]])
        with pytest.raises(DomainError):
            meanfield_gaussian_fixed_point([0.0, 0.0], [[-1.0, 0.0], [0.0, 1.0]])


class TestCoordinateOptimality:
    def test_converged_fit_is_a_fixed_point(self):
        data, _, _ = _dataset(seed=13, n=40, k=2)
        model = UnitVarianceGmm(UniGmmConfig(k=2))
        report = cavi_fit(
            model, data, FitConfig(seed=13, max_iters=500, tol=1e-13)
        )
        gap = coordinate_optimality_gap(model, report.model_state, data, eps=1e-3)
        assert gap <= 1e-10


class TestTraceCsv:
    def test_format_and_roundtrip(self, tmp_path):
        data, _, _ = _dataset(seed=2, n=60)
        model = UnitVarianceGmm(UniGmmConfig(k=2))
        report = cavi_fit(
            model, data, FitConfig(seed=2, max_iters=20, heldout_fraction=0.1)
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "elbo", "elapsed_ms", "heldout_logpred"]
        assert len(rows) == 1 + len(report.elbo_trace)
        for row, point in zip(rows[1:], report.elbo_trace):
            assert int(row[0]) == point.iteration
            assert float(row[1]) == point.elbo  # 17 significant digits

    def test_heldout_column_empty_when_disabled(self, tmp_path):
        data, _, _ = _dataset(seed=2, n=30)
        model = UnitVarianceGmm(UniGmmConfig(k=2))
        report = cavi_fit(model, data, FitConfig(seed=2, max_iters=5, tol=1e-300))
        path = tmp_path / "trace.csv"
        write_trace_csv(report, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert all(row[3] == "" for row in rows[1:])


class _StubModel(VariationalModel):
    """Minimal model whose state is a sweep counter."""

    name = "stub"

    def init_state(self, data, rng):
        return 0

    def sweep(self, state, data):
        return state + 1

    def elbo(self, state, data):
        return float(state)

    def log_predictive(self, state, point):
        return 0.0

    def export_state(self, state):
        return {}


def _dataset(seed, n=80, k=3):
    from meanfield.gmm import simulate

    return simulate(k=k, n=n, seed=seed, dim=1)


class TestBatchedHeldout:
    def test_one_log_predictive_call_per_heldout_evaluation(self):
        class Counting(UnitVarianceGmm):
            calls = 0

            def log_predictive(self, state, data):
                self.calls += 1
                return super().log_predictive(state, data)

        data, _, _ = _dataset(seed=9, n=100)
        model = Counting(UniGmmConfig(k=3))
        report = cavi_fit(
            model, data, FitConfig(seed=9, heldout_fraction=0.1, max_iters=40)
        )
        assert len(report.heldout_trace) > 1
        assert model.calls == len(report.heldout_trace)

    @pytest.mark.parametrize(
        "reshape", [lambda v: float(v.mean()), lambda v: v[:, None], lambda v: v[:-1]]
    )
    def test_one_value_per_observation_is_enforced(self, reshape):
        class Misshapen(UnitVarianceGmm):
            def log_predictive(self, state, data):
                return reshape(super().log_predictive(state, data))

        state = UniGmmState(np.zeros((2, 1)), np.ones((2, 1)), np.ones((0, 2)) / 2)
        with pytest.raises(DomainError, match="shape"):
            Misshapen(UniGmmConfig(k=2)).heldout_log_predictive(
                state, np.array([0.0, 1.0, 2.0])
            )

    def test_mean_is_the_left_to_right_sum(self):
        model = UnitVarianceGmm(UniGmmConfig(k=2))
        state = UniGmmState(
            np.array([[-1.0], [2.0]]), np.ones((2, 1)), np.ones((0, 2)) / 2
        )
        data = np.linspace(-3.0, 4.0, 101)
        total = 0.0
        for value in model.log_predictive(state, data):
            total += float(value)
        assert model.heldout_log_predictive(state, data) == total / data.size


def _one_loop_cases():
    """``(model name, algorithm)`` of every fit the package runs: each
    registered model's CAVI fit and its SVI fit where it has one, and the
    two conditionally conjugate fits (model None)."""
    cases = [(None, "cavi"), (None, "svi")]
    for name in cli.MODELS:
        has_svi = cli._model_types(name)[0].svi_fit is not None
        cases += [(name, "cavi")] + [(name, "svi")] * has_svi
    return cases


def _one_loop_id(case):
    name, algorithm = case
    if name is None:
        return {"cavi": "coordinate_ascent", "svi": "svi_fit"}[algorithm]
    return f"{name.replace('-', '_')}_{algorithm}_fit"


def _one_loop_fit(name, algorithm, tmp_path):
    """A thunk running fit ``(name, algorithm)`` of :func:`_one_loop_cases`;
    a model reads the first sample file its reader accepts, rows or a
    corpus, and its config's required fields are 2."""
    data, _, _ = simulate(k=2, n=40, seed=0, dim=2)
    fit = FitConfig(max_iters=3, seed=1)
    sched = StepSchedule(kappa=0.7)
    if name is None:
        spec = conjugate_spec(k=2, sigma2=1.0, dim=2)
        if algorithm == "cavi":
            return lambda: coordinate_ascent(spec, data, prior_param(spec))
        return lambda: svi_fit(spec, data, sched, fit)
    corpus, _ = simulate_corpus(k=2, num_docs=6, vocab_size=8, doc_length=10, seed=0)
    np.savetxt(tmp_path / "data.csv", data, delimiter=",")
    write_uci(corpus, tmp_path / "corpus.txt")
    model_type, config_type = cli._model_types(name)
    model = model_type(config_type(**{f.name: 2 for f in fields(config_type)
                                       if f.default is MISSING}))
    for path in ("data.csv", "corpus.txt"):
        try:
            sample = model.read(tmp_path / path)
            break
        except DataFormatError:
            continue
    else:
        pytest.fail(f"model {name} reads neither sample file")
    if algorithm == "cavi":
        return lambda: model.fit(sample, fit)
    return lambda: model.svi_fit(sample, sched, fit, 2)


@pytest.mark.parametrize("case", _one_loop_cases(), ids=_one_loop_id)
def test_every_fit_runs_the_one_loop_once(case, monkeypatch, tmp_path):
    run_fit = _one_loop_fit(*case, tmp_path)
    calls = []
    original = engine._fit_loop

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    bound = []
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] != "meanfield":
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                bound.append(module_name)
                monkeypatch.setattr(module, attr, counted)
    assert {"meanfield.engine", "meanfield.condconj"} <= set(bound)
    run_fit()
    assert len(calls) == 1


def _config_fields(config):
    return {f.name: getattr(config, f.name) for f in fields(config)}


def _estep_fields(report):
    updates = report.model_state.estep_updates
    return {
        "estep_cap_hits": np.count_nonzero(updates >= INNER_MAX_ITERS),
        "estep_max_updates": updates.max(),
    }


def test_fit_metadata_key_order_and_values():
    """Every fit records its run, then its model's config fields in order;
    LDA fits add how their last E-step ended."""
    data, _, _ = simulate(k=2, n=40, seed=0, dim=2)
    corpus, _ = simulate_corpus(k=2, num_docs=8, vocab_size=8, doc_length=10, seed=0)
    held = FitConfig(max_iters=3, seed=1, heldout_fraction=0.25)
    fit = FitConfig(max_iters=3, seed=1)
    sched = StepSchedule(kappa=0.7, delay=2.0)
    gmm = UniGmmConfig(k=2, sigma2=2.5)
    diag = DiagGmmConfig(k=2, m0=0.5)
    blr = BlrArdConfig(a0=2.0, fix_relevance=True)
    lda = LdaConfig(k=2, eta=0.2, alpha=[0.3, 0.4])
    lda_fields = {"k": 2, "eta": 0.2, "alpha": [0.3, 0.4]}
    cavi = {"seed": 1, "n_train": 30, "n_heldout": 10}
    svi = {"algorithm": "svi", "seed": 1, "batch_size": 4, "kappa": 0.7, "delay": 2.0}
    lda_cavi = Lda(lda).fit(corpus, held)
    lda_svi = lda_svi_fit(corpus, lda, sched, fit, batch_size=4)
    cases = [
        (cavi_fit(UnitVarianceGmm(gmm), data, held),
         {"model": "gmm", **cavi, **_config_fields(gmm)}),
        (cavi_fit(DiagGmm(diag), data, held),
         {"model": "gmm-diag", **cavi, **_config_fields(diag)}),
        (cavi_fit(BlrArd(blr), data, held),
         {"model": "blr-ard", **cavi, **_config_fields(blr)}),
        (lda_cavi, {"model": "lda", "seed": 1, "n_train": 6, "n_heldout": 2,
                    **lda_fields, **_estep_fields(lda_cavi)}),
        (gmm_svi_fit(data, gmm, sched, fit, batch_size=4),
         {**svi, "n_train": 40, **_config_fields(gmm)}),
        (lda_svi, {**svi, "n_train": 8, **lda_fields, **_estep_fields(lda_svi)}),
    ]
    for report, want in cases:
        assert list(report.metadata.items()) == list(want.items())
