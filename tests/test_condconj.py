"""Global-local machinery: gradient identities, schedules, stochastic fits."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from _oracles import (
    condconj_elbo_loop,
    condconj_global_loop,
    condconj_local_loop,
    condconj_svi_loop,
)
from meanfield.condconj import (
    GlobalLocalState,
    GlobalParam,
    StepSchedule,
    cond_conj_elbo,
    coordinate_ascent,
    global_step,
    local_probs,
    local_step,
    natural_gradient,
    noisy_natural_gradient,
    prior_param,
    step_size,
    svi_fit,
)
from meanfield.engine import FitConfig, init_state
from meanfield.errors import ConfigError, DomainError
from meanfield.gmm import (
    UniGmmConfig,
    UnitVarianceGmm,
    conjugate_elbo_offset,
    conjugate_spec,
    global_param_from_state,
    gmm_elbo,
    simulate,
    update_assignments,
    update_components,
)


def _random_lambda(spec, rng, k):
    """A valid random global parameter for the mixture spec."""
    kd = spec.prior_stat.size - k
    stat = np.concatenate(
        [rng.normal(size=kd), rng.uniform(0.5, 3.0, size=k)]
    )
    return GlobalParam(stat, float(rng.integers(0, 10)))


class TestStepSchedule:
    def test_first_step_is_one_without_delay(self):
        sched = StepSchedule(kappa=1.0)
        assert step_size(sched, 1) == 1.0

    def test_delay_shrinks_early_steps(self):
        a = StepSchedule(kappa=0.7)
        b = StepSchedule(kappa=0.7, delay=10.0)
        assert step_size(b, 1) < step_size(a, 1)

    def test_decreasing_in_t(self):
        sched = StepSchedule(kappa=0.6, delay=1.0, scale=0.5)
        sizes = [step_size(sched, t) for t in range(1, 50)]
        assert all(b < a for a, b in zip(sizes, sizes[1:]))

    def test_frozen_value(self):
        sched = StepSchedule(kappa=0.7, delay=1.0)
        assert step_size(sched, 3) == pytest.approx(4.0**-0.7, abs=1e-15)

    @pytest.mark.parametrize("kappa", [0.5, 0.49, 1.01, 0.0])
    def test_kappa_bounds(self, kappa):
        with pytest.raises(ConfigError):
            StepSchedule(kappa=kappa)

    def test_other_bounds(self):
        with pytest.raises(ConfigError):
            StepSchedule(kappa=0.7, delay=-1.0)
        with pytest.raises(ConfigError):
            StepSchedule(kappa=0.7, scale=0.0)

    def test_iteration_index_positive(self):
        with pytest.raises(DomainError):
            step_size(StepSchedule(kappa=0.7), 0)


class TestLocalGlobalSteps:
    def test_local_step_matches_assignment_update(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        lam = GlobalParam(np.array([0.0, 1.0, 1.0, 1.0]), 0.0)  # m=(0,1), s2=1
        phi = local_step(spec, lam, 1.0)
        want = 1.0 / (1.0 + math.exp(-0.5))
        assert phi.params[1] == pytest.approx(want, abs=1e-12)

    def test_global_step_counts_observations(self):
        spec = conjugate_spec(k=1, sigma2=1.0)
        phis = tuple(
            local_step(spec, prior_param(spec), x) for x in [0.0]
        )
        lam = global_step(spec, phis, [0.0])
        assert lam.count == spec.prior_count + 1
        # x = 0 adds nothing to the mean block, one unit to the quadratic
        assert np.allclose(lam.stat, [0.0, 2.0])

    def test_global_step_requires_matching_lengths(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        with pytest.raises(DomainError):
            global_step(spec, (), [1.0])

    def test_equivalence_with_dedicated_updates(self):
        # alternating local/global steps reproduces the dedicated
        # assignment/component iterates exactly
        data, _, _ = simulate(k=3, n=40, seed=2, dim=1)
        data = data[:, 0]
        model = UnitVarianceGmm(UniGmmConfig(k=3, sigma2=2.0))
        state = init_state(model, data, "data_calibrated", seed=0)
        spec = conjugate_spec(k=3, sigma2=2.0)
        lam = global_param_from_state(state)

        for _ in range(5):
            phi = update_assignments(state, data)
            phis = tuple(local_step(spec, lam, x) for x in data)
            for i in range(len(data)):
                assert np.allclose(phis[i].params, phi[i], atol=1e-12)
            mid = type(state)(state.m, state.s2, phi)
            m, s2 = update_components(mid, data, 2.0)
            lam = global_step(spec, phis, data)
            b = lam.stat[3:]
            assert np.allclose(lam.stat[:3] / b, m[:, 0], atol=1e-12)
            assert np.allclose(1.0 / b, s2[:, 0], atol=1e-12)
            state = type(state)(m, s2, phi)


class TestNaturalGradient:
    def test_zero_at_coordinate_update(self):
        lam = GlobalParam(np.array([1.0, 2.0]), 3.0)
        assert np.array_equal(natural_gradient(lam, lam), np.zeros(3))

    def test_difference_form(self):
        lam = GlobalParam(np.array([0.0, 1.0]), 2.0)
        upd = GlobalParam(np.array([1.0, -1.0]), 5.0)
        assert np.array_equal(natural_gradient(lam, upd), [1.0, -2.0, 3.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DomainError):
            natural_gradient(
                GlobalParam(np.array([1.0]), 0.0),
                GlobalParam(np.array([1.0, 2.0]), 0.0),
            )

    def test_single_observation_noisy_equals_full(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        rng = np.random.default_rng(0)
        lam = _random_lambda(spec, rng, 2)
        data = np.array([0.7])
        noisy = noisy_natural_gradient(spec, lam, data, 0)
        phis = tuple(local_step(spec, lam, x) for x in data)
        full = natural_gradient(lam, global_step(spec, phis, data))
        assert np.allclose(noisy, full, atol=1e-14)

    def test_unbiased_over_uniform_index(self):
        spec = conjugate_spec(k=3, sigma2=1.5)
        rng = np.random.default_rng(1)
        for _ in range(5):
            data = rng.normal(0.0, 2.0, size=int(rng.integers(2, 30)))
            lam = _random_lambda(spec, rng, 3)
            grads = np.array(
                [noisy_natural_gradient(spec, lam, data, i) for i in range(len(data))]
            )
            avg = grads.mean(axis=0)
            phis = tuple(local_step(spec, lam, x) for x in data)
            full = natural_gradient(lam, global_step(spec, phis, data))
            assert np.all(np.abs(avg - full) <= 1e-12 * (1.0 + np.abs(full)))

    def test_index_out_of_range(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        with pytest.raises(DomainError):
            noisy_natural_gradient(spec, prior_param(spec), [1.0], 1)


class TestElbo:
    def test_zero_at_prior_with_no_data(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        state = GlobalLocalState(prior_param(spec), ())
        assert cond_conj_elbo(spec, state, []) == pytest.approx(0.0, abs=1e-12)

    def test_negative_kl_away_from_prior_with_no_data(self):
        spec = conjugate_spec(k=1, sigma2=1.0)
        lam = GlobalParam(np.array([1.0, 2.0]), 0.0)  # m=0.5, s2=0.5
        state = GlobalLocalState(lam, ())
        from meanfield.expfam import gaussian_kl

        want = -gaussian_kl(0.5, 0.5, 0.0, 1.0)
        assert cond_conj_elbo(spec, state, []) == pytest.approx(want, abs=1e-12)

    def test_matches_dedicated_elbo_up_to_documented_constant(self):
        data, _, _ = simulate(k=2, n=25, seed=8, dim=1)
        data = data[:, 0]
        spec = conjugate_spec(k=2, sigma2=1.0)
        lam = prior_param(spec)
        for _ in range(4):
            phis = tuple(local_step(spec, lam, x) for x in data)
            lam = global_step(spec, phis, data)
            state = GlobalLocalState(lam, phis)
            phi = np.array([p.params for p in phis])
            b = lam.stat[2:]
            gstate = type(
                init_state(UnitVarianceGmm(UniGmmConfig(k=2)), data, "prior", 0)
            )((lam.stat[:2] / b)[:, None], (1.0 / b)[:, None], phi)
            offset = conjugate_elbo_offset(data, 2)
            assert gmm_elbo(gstate, data, 1.0) == pytest.approx(
                cond_conj_elbo(spec, state, data) + offset, abs=1e-9
            )


class TestCoordinateAscent:
    def test_monotone_and_converges(self):
        data, _, _ = simulate(k=2, n=50, seed=3, dim=1)
        spec = conjugate_spec(k=2, sigma2=1.0)
        state, elbos = coordinate_ascent(spec, data[:, 0], prior_param(spec))
        assert all(b >= a - 1e-8 * (1 + abs(b)) for a, b in zip(elbos, elbos[1:]))


class TestSviFit:
    def test_full_batch_unit_step_equals_global_step(self):
        data, _, _ = simulate(k=2, n=12, seed=5, dim=1)
        data = data[:, 0]
        spec = conjugate_spec(k=2, sigma2=1.0)
        lam0 = prior_param(spec)
        report = svi_fit(
            spec,
            data,
            StepSchedule(kappa=1.0),  # step size 1 at t = 1
            FitConfig(max_iters=1, seed=0),
            init=lam0,
            batch_size=len(data),
        )
        phis = tuple(local_step(spec, lam0, x) for x in data)
        want = global_step(spec, phis, data)
        got = report.model_state.lam
        assert np.array_equal(got.stat, want.stat)
        assert got.count == want.count

    def test_blend_matches_manual_trajectory(self):
        data, _, _ = simulate(k=2, n=10, seed=6, dim=1)
        data = data[:, 0]
        spec = conjugate_spec(k=2, sigma2=1.0)
        sched = StepSchedule(kappa=0.8, delay=1.0)
        report = svi_fit(
            spec,
            data,
            sched,
            FitConfig(max_iters=3, seed=42, elbo_every=10),
            batch_size=1,
        )
        # replay with the same stream
        rng = np.random.default_rng(42)
        lam = prior_param(spec)
        n = len(data)
        for t in range(1, 4):
            i = int(np.sort(rng.choice(n, size=1, replace=False))[0])
            phi = local_step(spec, lam, data[i])
            stat = spec.expected_stat(np.array(phi.params), data[i])
            target = GlobalParam(
                spec.prior_stat + n * stat, spec.prior_count + n
            )
            eps = step_size(sched, t)
            nat = (1.0 - eps) * lam.natural() + eps * target.natural()
            lam = GlobalParam(nat[:-1], nat[-1])
        assert np.array_equal(report.model_state.lam.stat, lam.stat)
        assert report.model_state.lam.count == lam.count

    def test_deterministic_per_seed(self):
        data, _, _ = simulate(k=2, n=30, seed=0, dim=1)
        data = data[:, 0]
        spec = conjugate_spec(k=2, sigma2=1.0)
        sched = StepSchedule(kappa=0.7, delay=1.0)
        cfg = FitConfig(max_iters=50, seed=7, elbo_every=10)
        r1 = svi_fit(spec, data, sched, cfg)
        r2 = svi_fit(spec, data, sched, cfg)
        assert np.array_equal(r1.model_state.lam.stat, r2.model_state.lam.stat)
        assert [p.elbo for p in r1.elbo_trace] == [p.elbo for p in r2.elbo_trace]

    def test_reaches_coordinate_ascent_optimum(self):
        data, _, _ = simulate(k=2, n=100, seed=1, dim=1, min_separation=3.0)
        data = data[:, 0]
        spec = conjugate_spec(k=2, sigma2=1.0)
        _, elbos = coordinate_ascent(spec, data, prior_param(spec))
        best = elbos[-1]
        report = svi_fit(
            spec,
            data,
            StepSchedule(kappa=0.7, delay=1.0),
            FitConfig(max_iters=3000, seed=0, elbo_every=100, tol=1e-9),
        )
        final = report.elbo_trace[-1].elbo
        assert final >= best - 1e-2 * abs(best)

    def test_batch_size_validated(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        with pytest.raises(ConfigError):
            svi_fit(
                spec,
                [1.0],
                StepSchedule(kappa=0.7),
                FitConfig(max_iters=1),
                batch_size=2,
            )

    def test_empty_data_rejected(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        with pytest.raises(DomainError):
            svi_fit(spec, [], StepSchedule(kappa=0.7), FitConfig(max_iters=1))


class TestGlobalParam:
    def test_natural_concatenates_count(self):
        lam = GlobalParam(np.array([1.0, 2.0]), 3.0)
        assert np.array_equal(lam.natural(), [1.0, 2.0, 3.0])

    def test_stat_is_read_only(self):
        lam = GlobalParam(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            lam.stat[0] = 2.0


class TestBatchedAgainstOracle:
    """The batched local step, global step, ELBO, coordinate ascent and
    stochastic fit against the one-observation-at-a-time references."""

    N = 23
    RTOL = 1e-12

    def problem(self, k, d):
        data, _, _ = simulate(k=max(k, 2), n=self.N, seed=10 * k + d, dim=d)
        data = data[:, 0] if d == 1 else data
        spec = conjugate_spec(k=k, sigma2=1.5, dim=d)
        lam = _random_lambda(spec, np.random.default_rng(k + d), k)
        return spec, data, lam

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("d", [1, 3])
    def test_steps_and_elbo(self, k, d):
        spec, data, lam = self.problem(k, d)
        want = condconj_local_loop(spec, lam, data, k, d)
        probs = local_probs(spec, lam, data.reshape(self.N, d))
        assert_allclose(probs, want, rtol=self.RTOL)
        for i in (0, self.N - 1):
            assert_allclose(local_step(spec, lam, data[i]).params, want[i],
                            rtol=self.RTOL)

        stat, count = condconj_global_loop(spec, want, data, k, d)
        got = global_step(spec, probs, data)
        assert_allclose(got.stat, stat, rtol=self.RTOL)
        assert got.count == count
        # a sequence of categorical factors is the same local state
        phis = tuple(local_step(spec, lam, x) for x in data)
        assert_allclose(global_step(spec, phis, data).stat, stat, rtol=self.RTOL)

        assert cond_conj_elbo(spec, GlobalLocalState(lam, probs), data) == (
            pytest.approx(condconj_elbo_loop(spec, lam, want, data, k, d),
                          rel=self.RTOL)
        )

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("d", [1, 3])
    def test_coordinate_ascent_elbo_path(self, k, d):
        spec, data, lam0 = self.problem(k, d)
        state, elbos = coordinate_ascent(spec, data, lam0, max_sweeps=6, tol=0.0)
        lam = lam0
        want = []
        for _ in range(6):
            probs = condconj_local_loop(spec, lam, data, k, d)
            lam = GlobalParam(*condconj_global_loop(spec, probs, data, k, d))
            want.append(condconj_elbo_loop(spec, lam, probs, data, k, d))
        assert_allclose(elbos, want, rtol=self.RTOL)
        assert_allclose(state.lam.stat, lam.stat, rtol=self.RTOL)
        assert_allclose(state.phis, probs, rtol=self.RTOL)

    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("batch", [1, 7, N])
    def test_svi_trajectory(self, k, d, batch):
        spec, data, lam0 = self.problem(k, d)
        sched = StepSchedule(kappa=0.7, delay=1.0)
        report = svi_fit(
            spec, data, sched,
            FitConfig(max_iters=12, seed=5, elbo_every=1, tol=1e-300),
            init=lam0, batch_size=batch,
        )
        elbos, stat, count = condconj_svi_loop(
            spec, data, sched, 5, 12, batch, lam0, k, d
        )
        assert_allclose([p.elbo for p in report.elbo_trace], elbos, rtol=self.RTOL)
        assert_allclose(report.model_state.lam.stat, stat, rtol=self.RTOL)
        assert report.model_state.lam.count == count


def test_svi_calls_local_natural_param_once_per_pass():
    """One batched local step per minibatch, per ELBO pass and for the final
    pass: a per-observation loop would call the model n times per pass."""
    data, _, _ = simulate(k=3, n=2000, seed=0, dim=2)
    spec = conjugate_spec(k=3, sigma2=1.0, dim=2)
    calls = []

    def counted(stats, X):
        calls.append(X.shape[0])
        return spec.local_natural_param(stats, X)

    steps, every = 40, 10
    svi_fit(
        dataclasses.replace(spec, local_natural_param=counted),
        data,
        StepSchedule(kappa=0.7, delay=1.0),
        FitConfig(max_iters=steps, seed=0, elbo_every=every, tol=1e-300),
        batch_size=50,
    )
    elbo_passes = steps // every
    assert len(calls) == steps + elbo_passes + 1
    assert calls.count(50) == steps
    assert calls.count(2000) == elbo_passes + 1


class TestLocalProbsChecks:
    def test_rejects_logits_of_the_wrong_shape(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        bad = dataclasses.replace(
            spec, local_natural_param=lambda stats, X: np.zeros((X.shape[0], 3))
        )
        with pytest.raises(DomainError):
            local_probs(bad, prior_param(spec), np.zeros((4, 1)))

    def test_rejects_rows_that_are_not_distributions(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        bad = dataclasses.replace(
            spec,
            local_natural_param=lambda stats, X: np.where(X > 0, np.nan, 0.0)
            * np.ones((1, 2)),
        )
        with pytest.raises(DomainError):
            local_probs(bad, prior_param(spec), np.array([[-1.0], [1.0]]))

    def test_state_checks_an_array_of_local_factors(self):
        lam = GlobalParam(np.array([0.0, 1.0]), 0.0)
        state = GlobalLocalState(lam, np.array([[1.0], [1.0]]))
        assert state.phis.shape == (2, 1) and not state.phis.flags.writeable
        with pytest.raises(DomainError):
            GlobalLocalState(lam, np.array([[0.7], [1.0]]))
        with pytest.raises(DomainError):
            GlobalLocalState(lam, np.array([1.0, 1.0]))
