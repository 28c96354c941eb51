"""Global-local machinery: gradient identities, schedules, stochastic fits."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from _oracles import (
    condconj_elbo_loop,
    condconj_global_loop,
    condconj_local_loop,
    condconj_svi_loop,
    gmm_conjugate_elbo_offset,
    gmm_state_from_param,
    gmm_update_components,
)
from meanfield import gmm
from meanfield.condconj import (
    GlobalLocalState,
    GlobalParam,
    StepSchedule,
    _frozen,
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
from meanfield.engine import FitConfig, cavi_fit, init_state
from meanfield.errors import ConfigError, DomainError, MonotonicityError
from meanfield.expfam import ExpFamParam
from meanfield.gmm import (
    UniGmmConfig,
    UniGmmState,
    UnitVarianceGmm,
    conjugate_spec,
    global_param_from_state,
    gmm_elbo,
    gmm_svi_fit,
    simulate,
    update_assignments,
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
        sched = StepSchedule(kappa=0.6, delay=1.0)
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

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_delay_must_be_finite(self, delay):
        with pytest.raises(ConfigError) as err:
            StepSchedule(kappa=0.7, delay=delay)
        assert err.value.field == "delay"

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

    def test_global_step_accepts_rows_of_any_kind(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        rows = np.array([[0.25, 0.75], [0.5, 0.5]])
        want = global_step(spec, rows, [0.0, 1.0]).stat
        plain = global_step(spec, [[0.25, 0.75], (0.5, 0.5)], [0.0, 1.0]).stat
        mixed = [ExpFamParam.categorical([0.25, 0.75]), [0.5, 0.5]]
        assert_array_equal(plain, want)
        assert_array_equal(global_step(spec, mixed, [0.0, 1.0]).stat, want)
        assert_array_equal(
            global_step(spec, [[0.5, 0.5]], [0.0]).stat,
            global_step(spec, rows[1:], [0.0]).stat,
        )

    @pytest.mark.parametrize("phis", [
        [ExpFamParam.categorical([1.0]), ExpFamParam.categorical([0.5, 0.5])],
        [[1.0], [0.5, 0.5]],
        [[0.5, 0.5], ["a", "b"]],
    ])
    def test_ragged_or_non_numeric_rows_are_a_domain_error(self, phis):
        spec = conjugate_spec(k=2, sigma2=1.0)
        with pytest.raises(DomainError, match="numeric rows of equal length"):
            global_step(spec, phis, [0.0, 1.0])

    def test_a_flat_list_is_not_rows(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        with pytest.raises(DomainError, match=r"\(n, k\) array"):
            global_step(spec, [0.5, 0.5], [0.0, 1.0])

    def test_equivalence_with_dedicated_updates(self):
        # alternating local/global steps reproduces the dedicated
        # assignment/component iterates exactly
        data, _, _ = simulate(k=3, n=40, seed=2, dim=1)
        data = data[:, 0]
        model = UnitVarianceGmm(UniGmmConfig(k=3, sigma2=2.0))
        state = init_state(model, data, seed=0)
        spec = conjugate_spec(k=3, sigma2=2.0)
        lam = global_param_from_state(state)

        for _ in range(5):
            phi = update_assignments(state, data)
            phis = tuple(local_step(spec, lam, x) for x in data)
            for i in range(len(data)):
                assert np.allclose(phis[i].params, phi[i], atol=1e-12)
            mid = type(state)(state.m, state.s2, phi)
            m, s2 = gmm_update_components(mid, data, 2.0)
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
                init_state(UnitVarianceGmm(UniGmmConfig(k=2)), data, 0)
            )((lam.stat[:2] / b)[:, None], (1.0 / b)[:, None], phi)
            offset = gmm_conjugate_elbo_offset(data, 2)
            assert gmm_elbo(gstate, data, 1.0) == pytest.approx(
                cond_conj_elbo(spec, state, data) + offset, abs=1e-9
            )


class TestCoordinateAscent:
    def test_monotone_and_converges(self):
        data, _, _ = simulate(k=2, n=50, seed=3, dim=1)
        spec = conjugate_spec(k=2, sigma2=1.0)
        state, elbos = coordinate_ascent(spec, data[:, 0], prior_param(spec))
        assert all(b >= a - 1e-8 * (1 + abs(b)) for a, b in zip(elbos, elbos[1:]))

    def test_a_wrong_local_step_is_a_monotonicity_error(self):
        # negated logits put each row's mass on its least likely components
        data, _, _ = simulate(k=3, n=30, seed=0, dim=1)
        spec = conjugate_spec(k=3, sigma2=1.0)
        wrong = dataclasses.replace(
            spec, local_natural_param=lambda lam, X: -spec.local_natural_param(lam, X)
        )
        lam0 = GlobalParam([-3.0, 0.0, 3.0, 1.0, 1.0, 1.0], 0.0)
        with pytest.raises(MonotonicityError) as info:
            coordinate_ascent(wrong, data[:, 0], lam0)
        assert info.value.iteration == 3

    def test_needs_a_sweep(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        with pytest.raises(ConfigError, match="max_sweeps"):
            coordinate_ascent(spec, np.zeros(4), prior_param(spec), max_sweeps=0)


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

    def test_heldout_fraction_rejected(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        cfg = FitConfig(max_iters=1, heldout_fraction=0.2)
        with pytest.raises(ConfigError) as err:
            svi_fit(spec, np.arange(10.0), StepSchedule(kappa=0.7), cfg)
        assert err.value.field == "heldout_fraction"

    # the fit stops at max_iters, on or off the ELBO cadence, or on tol
    @pytest.mark.parametrize("max_iters, tol", [(7, 1e-300), (6, 1e-300), (300, 1e-4)])
    def test_state_is_the_last_scored_pass(self, max_iters, tol):
        data, _, _ = simulate(k=2, n=40, seed=8, dim=2)
        spec = conjugate_spec(k=2, sigma2=1.0, dim=2)
        report = svi_fit(
            spec,
            data,
            StepSchedule(kappa=0.7, delay=1.0),
            FitConfig(max_iters=max_iters, seed=3, elbo_every=3, tol=tol),
            batch_size=5,
        )
        assert report.converged == (report.iterations_run < max_iters)
        assert report.iterations_run == report.elbo_trace[-1].iteration
        assert cond_conj_elbo(spec, report.model_state, data) == report.final_elbo


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


class TestGmmSviFit:
    """The mixture's own stochastic fit explains itself: its trace is
    ``gmm_elbo`` of the states it scored, and it runs the minibatch stream
    that ``svi_fit`` runs on the spec from the same start."""

    SIGMA2, SEED, BATCH = 2.0, 5, 20

    @pytest.fixture
    def run(self, monkeypatch):
        data, _, _ = simulate(k=3, n=200, seed=4, dim=2)
        config = UniGmmConfig(k=3, sigma2=self.SIGMA2)
        sched = StepSchedule(kappa=0.7, delay=1.0)
        fit_cfg = FitConfig(max_iters=30, seed=self.SEED, elbo_every=10, tol=1e-300)
        scored = []

        def recording(state, x, sigma2):
            scored.append(state)
            return gmm_elbo(state, x, sigma2)

        monkeypatch.setattr(gmm, "gmm_elbo", recording)
        report = gmm_svi_fit(data, config, sched, fit_cfg, batch_size=self.BATCH)
        monkeypatch.undo()
        return data, config, sched, fit_cfg, report, scored

    def test_trace_is_gmm_elbo_of_each_scored_state(self, run):
        data, _, _, _, report, scored = run
        assert [p.iteration for p in report.elbo_trace] == [10, 20, 30]
        assert [p.elbo for p in report.elbo_trace] == [
            gmm_elbo(state, data, self.SIGMA2) for state in scored
        ]
        assert isinstance(report.model_state, UniGmmState)
        assert report.model_state is scored[-1]
        assert report.final_elbo == gmm_elbo(report.model_state, data, self.SIGMA2)

    def test_trace_is_the_global_local_elbo_plus_the_base_measure(self, run):
        data, _, _, _, report, scored = run
        spec = conjugate_spec(3, self.SIGMA2, dim=2)
        offset = gmm_conjugate_elbo_offset(data, 3)
        want = [
            cond_conj_elbo(
                spec, GlobalLocalState(global_param_from_state(s), s.phi), data
            ) + offset
            for s in scored
        ]
        assert_allclose([p.elbo for p in report.elbo_trace], want, rtol=1e-12)

    def test_state_matches_svi_fit_on_the_spec_from_the_same_start(self, run):
        data, config, sched, fit_cfg, report, _ = run
        spec = conjugate_spec(3, self.SIGMA2, dim=2)
        start = init_state(UnitVarianceGmm(config), data, self.SEED)
        ref = svi_fit(
            spec, data, sched, fit_cfg,
            init=global_param_from_state(start), batch_size=self.BATCH,
        )
        m, s2 = gmm_state_from_param(ref.model_state.lam, ref.model_state.phis)
        assert_allclose(report.model_state.m, m, rtol=1e-12)
        assert_allclose(report.model_state.s2, s2, rtol=1e-12)
        assert_allclose(report.model_state.phi, ref.model_state.phis, rtol=1e-12)
        offset = gmm_conjugate_elbo_offset(data, 3)
        assert_allclose(
            [p.elbo for p in report.elbo_trace],
            [p.elbo + offset for p in ref.elbo_trace],
            rtol=1e-12,
        )


@pytest.mark.parametrize("fit", ["svi_fit", "gmm_svi_fit", "cavi_fit"])
def test_local_natural_param_runs_once_per_pass(fit, monkeypatch):
    """One batched local step per minibatch and per ELBO pass of either
    stochastic fit, and one per coordinate sweep: a per-observation loop
    would call the model n times per pass.  A stochastic fit ends on an
    ELBO pass, so no final pass repeats it; the mixture's CAVI ELBO reads
    the sweep's responsibilities and takes no local step of its own."""
    data, _, _ = simulate(k=3, n=2000, seed=0, dim=2)
    spec = conjugate_spec(k=3, sigma2=1.0, dim=2)
    calls = []

    def counted(lam, X):
        calls.append((lam, X.shape[0]))
        return spec.local_natural_param(lam, X)

    counted_spec = dataclasses.replace(spec, local_natural_param=counted)
    steps, every = 40, 10
    schedule = StepSchedule(kappa=0.7, delay=1.0)
    config = FitConfig(max_iters=steps, seed=0, elbo_every=every, tol=1e-300)
    if fit == "svi_fit":
        report = svi_fit(counted_spec, data, schedule, config, batch_size=50)
        phis = report.model_state.phis
    else:
        monkeypatch.setattr(gmm, "conjugate_spec", lambda *args: counted_spec)
        model = UnitVarianceGmm(UniGmmConfig(k=3))
        if fit == "gmm_svi_fit":
            report = gmm_svi_fit(data, model.config, schedule, config, batch_size=50)
        else:
            report = cavi_fit(model, data, config)
        phis = report.model_state.phi
    if fit == "cavi_fit":
        assert [size for _, size in calls] == [2000] * steps
    else:
        assert [size for _, size in calls] == ([50] * every + [2000]) * (steps // every)
    assert_array_equal(phis, local_probs(spec, calls[-1][0], data))


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

    def test_read_only_rows_are_kept_and_writeable_ones_copied(self):
        spec = conjugate_spec(k=2, sigma2=1.0)
        x = np.array([[-1.0], [0.5], [2.0]])
        probs = local_probs(spec, prior_param(spec), x)
        assert not probs.flags.writeable
        m, s2 = np.zeros((2, 1)), np.ones((2, 1))
        assert UniGmmState(m, s2, probs).phi is probs
        assert GlobalLocalState(prior_param(spec), probs).phis is probs
        assert_array_equal(global_step(spec, probs, x).stat,
                           global_step(spec, probs.copy(), x).stat)
        rows = probs.copy()
        state = UniGmmState(m, s2, rows)
        rows[:] = [1.0, 0.0]
        assert_array_equal(state.phi, probs)
        # a read-only view of writeable memory is copied too
        view = np.array(probs)[:]
        view.setflags(write=False)
        assert UniGmmState(m, s2, view).phi is not view
        with pytest.raises(DomainError):
            UniGmmState(m, s2, np.full((3, 2), 0.7))

    def test_each_call_site_keeps_its_tolerance(self):
        # 5e-10 off: inside the mixture states' 1e-9, outside the 1e-12
        # of the conditionally conjugate local factors
        rows = np.array([[0.5, 0.5 + 5e-10]])
        UniGmmState(np.zeros((2, 1)), np.ones((2, 1)), rows)
        with pytest.raises(DomainError, match="sum to 1"):
            GlobalLocalState(GlobalParam(np.zeros(3), 0.0), rows)
        with pytest.raises(DomainError, match="phi rows must be probability vectors"):
            UniGmmState(np.zeros((2, 1)), np.ones((2, 1)), rows + 1e-9)


class TestFrozen:
    def test_keeps_its_dtype_and_an_owned_read_only_array(self):
        ids = np.array([3, 1])
        frozen = _frozen(ids, int)
        assert frozen.dtype == np.int64 and not frozen.flags.writeable
        assert frozen is not ids and _frozen(frozen, int) is frozen
        converted = _frozen(frozen)
        assert converted.dtype == np.float64 and not converted.flags.writeable

    def test_every_state_module_uses_the_one_copy(self):
        from meanfield import blr_ard, condconj, lda

        assert blr_ard._frozen is condconj._frozen
        assert gmm._frozen is condconj._frozen
        assert lda._frozen is condconj._frozen
