"""Exponential-family primitives: frozen oracles and invariants."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from meanfield.errors import DomainError
from meanfield.expfam import (
    ExpFamParam,
    categorical_entropy,
    digamma,
    dirichlet_expected_log,
    dirichlet_kl,
    gamma_kl,
    gamma_moments,
    gaussian_kl,
    gaussian_log_pdf,
    gaussian_moments,
    log_sum_exp,
    normal_gamma_kl,
)

from _oracles import digamma_series

# Reference values computed with 40-digit arithmetic.
DIGAMMA_TABLE = [
    (1e-06, -1000000.5772140201),
    (0.0001, -10000.577051183514),
    (0.01, -100.56088545786868),
    (0.1, -10.423754940411076),
    (0.5, -1.9635100260214235),
    (1.0, -0.5772156649015329),
    (1.5, 0.03648997397857652),
    (2.0, 0.42278433509846713),
    (3.0, 0.9227843350984671),
    (5.99, 1.704302797413849),
    (6.0, 1.7061176684318005),
    (7.5, 1.9467574842460869),
    (10.0, 2.251752589066721),
    (25.0, 3.198742512851974),
    (100.0, 4.600161852738087),
    (1234.5, 7.118016231827998),
    (100000.0, 11.512920464961896),
    (1000000.0, 13.815510057964191),
]


class TestLogSumExp:
    def test_two_values(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_large_magnitudes_do_not_overflow(self):
        val = log_sum_exp([1000.0, 1000.0])
        assert val == pytest.approx(1000.0 + math.log(2.0), abs=1e-12)
        assert np.isfinite(log_sum_exp([-1e308, -1e308]))

    def test_single_value_is_identity(self):
        assert log_sum_exp([-3.25]) == pytest.approx(-3.25, abs=0.0)

    def test_axis_reduction(self):
        a = np.array([[0.0, 0.0], [1.0, 1.0]])
        out = log_sum_exp(a, axis=1)
        assert np.allclose(out, [math.log(2.0), 1.0 + math.log(2.0)])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            log_sum_exp([])

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            log_sum_exp([0.0, float("nan")])

    @given(
        st.lists(st.floats(-500.0, 500.0), min_size=1, max_size=20),
        st.floats(-200.0, 200.0),
    )
    def test_shift_invariance(self, values, c):
        # log-sum-exp(v + c) = log-sum-exp(v) + c, exactly the property the
        # max-subtraction trick relies on
        base = log_sum_exp(values)
        shifted = log_sum_exp([v + c for v in values])
        assert shifted == pytest.approx(base + c, abs=1e-9)

    @given(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=20))
    def test_upper_bounds_max(self, values):
        assert log_sum_exp(values) >= max(values) - 1e-12


class TestDigamma:
    def test_reference_table(self):
        for x, want in DIGAMMA_TABLE:
            got = digamma(x)
            # At |psi| ~ 1e6 the 1e-10 target is below one ulp of the value
            # itself; allow whichever is larger.
            tol = max(1e-10, 2.0 * np.spacing(abs(want)))
            assert abs(got - want) <= tol, (x, got, want)

    def test_agrees_with_scipy_on_grid(self):
        xs = np.geomspace(1e-6, 1e6, 5001)
        ours = digamma(xs)
        ref = scipy.special.digamma(xs)
        tol = np.maximum(1e-10, 4.0 * np.spacing(np.abs(ref)))
        assert np.all(np.abs(ours - ref) <= tol)

    @given(st.floats(1e-5, 1e4))
    def test_recurrence(self, x):
        # psi(x + 1) = psi(x) + 1/x
        lhs = digamma(x + 1.0)
        rhs = digamma(x) + 1.0 / x
        assert lhs == pytest.approx(rhs, abs=max(1e-10, 1e-12 * abs(rhs)))

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.25, 1.0, 3.5, 80.0])
        out = digamma(xs)
        assert out.shape == xs.shape
        for i, x in enumerate(xs):
            assert out[i] == digamma(float(x))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            digamma(bad)

    def test_agrees_with_series_oracle(self):
        # an independent route: recurrence plus asymptotic series
        xs = np.geomspace(1e-6, 1e6, 5001)
        ref = digamma_series(xs)
        tol = np.maximum(1e-10, 4.0 * np.spacing(np.abs(ref)))
        assert np.all(np.abs(digamma(xs) - ref) <= tol)


class TestMoments:
    def test_gaussian_moments(self):
        assert gaussian_moments(2.0, 3.0) == (2.0, 7.0)
        with pytest.raises(DomainError):
            gaussian_moments(0.0, 0.0)

    def test_gamma_moments(self):
        mean, elog = gamma_moments(2.0, 2.0)
        assert mean == pytest.approx(1.0, abs=0.0)
        # E[log x] = psi(2) - log 2
        assert elog == pytest.approx(0.4227843350984671 - math.log(2.0), abs=1e-10)

    @given(st.floats(0.05, 50.0), st.floats(0.05, 50.0))
    def test_gamma_elog_below_log_mean(self, shape, rate):
        # Jensen: E[log x] < log E[x] for any nondegenerate Gamma
        mean, elog = gamma_moments(shape, rate)
        assert elog < math.log(mean)

    def test_dirichlet_expected_log_uniform(self):
        out = dirichlet_expected_log([1.0, 1.0])
        assert np.allclose(out, [-1.0, -1.0], atol=1e-10)

    def test_dirichlet_expected_log_symmetric_two(self):
        # psi(2) - psi(4) = -(1/2 + 1/3)
        out = dirichlet_expected_log([2.0, 2.0])
        assert np.allclose(out, -5.0 / 6.0, atol=1e-10)

    @given(
        st.lists(st.floats(0.05, 30.0), min_size=2, max_size=6),
    )
    def test_dirichlet_expected_log_negative(self, conc):
        out = dirichlet_expected_log(conc)
        assert np.all(out < 0.0)

    def test_dirichlet_expected_log_needs_vector(self):
        with pytest.raises(DomainError):
            dirichlet_expected_log([1.0])
        with pytest.raises(DomainError):
            dirichlet_expected_log([1.0, 0.0])


class TestKl:
    def test_gaussian_kl_frozen(self):
        want = 0.5 * (0.5 - 1.0 + math.log(2.0))
        assert gaussian_kl(0.0, 0.5, 0.0, 1.0) == pytest.approx(want, abs=1e-15)

    def test_gaussian_kl_zero_iff_equal(self):
        assert gaussian_kl(1.3, 0.7, 1.3, 0.7) == 0.0

    @given(
        st.floats(-5.0, 5.0),
        st.floats(0.05, 10.0),
        st.floats(-5.0, 5.0),
        st.floats(0.05, 10.0),
    )
    def test_gaussian_kl_nonnegative(self, qm, qv, pm, pv):
        assert gaussian_kl(qm, qv, pm, pv) >= 0.0

    def _mc_kl(self, q_sampler, q_logpdf, p_logpdf, n=200_000, seed=0):
        rng = np.random.default_rng(seed)
        x = q_sampler(rng, n)
        return float(np.mean(q_logpdf(x) - p_logpdf(x)))

    def test_gamma_kl_against_monte_carlo(self):
        qa, qb, pa, pb = 3.0, 2.0, 1.5, 0.5
        got = gamma_kl(qa, qb, pa, pb)
        mc = self._mc_kl(
            lambda rng, n: rng.gamma(qa, 1.0 / qb, size=n),
            scipy.stats.gamma(qa, scale=1.0 / qb).logpdf,
            scipy.stats.gamma(pa, scale=1.0 / pb).logpdf,
        )
        assert got == pytest.approx(mc, abs=0.02)

    @given(
        st.floats(0.2, 20.0),
        st.floats(0.2, 20.0),
        st.floats(0.2, 20.0),
        st.floats(0.2, 20.0),
    )
    def test_gamma_kl_nonnegative(self, qa, qb, pa, pb):
        assert gamma_kl(qa, qb, pa, pb) >= -1e-12

    def test_gamma_kl_zero_iff_equal(self):
        assert gamma_kl(2.5, 1.5, 2.5, 1.5) == pytest.approx(0.0, abs=1e-14)

    def test_dirichlet_kl_against_monte_carlo(self):
        q = np.array([2.0, 3.0, 1.5])
        p = np.array([1.0, 1.0, 1.0])
        got = dirichlet_kl(q, p)
        mc = self._mc_kl(
            lambda rng, n: rng.dirichlet(q, size=n),
            lambda x: scipy.stats.dirichlet(q).logpdf(x.T),
            lambda x: scipy.stats.dirichlet(p).logpdf(x.T),
        )
        assert got == pytest.approx(mc, abs=0.02)

    def test_dirichlet_kl_zero_iff_equal(self):
        c = np.array([0.5, 2.0, 7.0])
        assert dirichlet_kl(c, c) == pytest.approx(0.0, abs=1e-13)
        assert dirichlet_kl(c + 0.5, c) > 0.0

    def test_normal_gamma_kl_against_monte_carlo(self):
        q = (0.5, 2.0, 3.0, 1.5)
        p = (0.0, 1.0, 1.0, 1.0)

        def ng_logpdf(params):
            m, b, a, r = params

            def f(mu_tau):
                mu, tau = mu_tau
                return scipy.stats.norm(m, np.sqrt(1.0 / (b * tau))).logpdf(
                    mu
                ) + scipy.stats.gamma(a, scale=1.0 / r).logpdf(tau)

            return f

        def sampler(rng, n):
            tau = rng.gamma(q[2], 1.0 / q[3], size=n)
            mu = rng.normal(q[0], np.sqrt(1.0 / (q[1] * tau)))
            return mu, tau

        got = normal_gamma_kl(q, p)
        mc = self._mc_kl(sampler, ng_logpdf(q), ng_logpdf(p))
        assert got == pytest.approx(mc, abs=0.05)

    def test_normal_gamma_kl_zero_iff_equal(self):
        q = (1.0, 2.0, 3.0, 4.0)
        assert normal_gamma_kl(q, q) == pytest.approx(0.0, abs=1e-14)
        assert normal_gamma_kl(q, (0.9, 2.0, 3.0, 4.0)) > 0.0


class TestSmallHelpers:
    def test_categorical_entropy_handles_zero(self):
        assert categorical_entropy([1.0, 0.0]) == 0.0
        assert categorical_entropy([0.5, 0.5]) == pytest.approx(
            math.log(2.0), abs=1e-14
        )

    def test_gaussian_log_pdf_matches_scipy(self):
        xs = np.linspace(-3.0, 3.0, 7)
        ours = gaussian_log_pdf(xs, 0.5, 2.0)
        ref = scipy.stats.norm(0.5, math.sqrt(2.0)).logpdf(xs)
        assert np.allclose(ours, ref, atol=1e-12)


class TestExpFamParam:
    def test_gaussian_validation(self):
        ExpFamParam.gaussian(0.0, 1.0)
        with pytest.raises(DomainError):
            ExpFamParam.gaussian(0.0, 0.0)
        with pytest.raises(DomainError):
            ExpFamParam.gaussian(float("inf"), 1.0)

    def test_categorical_validation(self):
        ExpFamParam.categorical([0.5, 0.5])
        with pytest.raises(DomainError):
            ExpFamParam.categorical([0.6, 0.5])
        with pytest.raises(DomainError):
            ExpFamParam.categorical([-0.1, 1.1])

    def test_gamma_validation(self):
        with pytest.raises(DomainError):
            ExpFamParam.gamma(1.0, -1.0)

    def test_normal_gamma_validation(self):
        with pytest.raises(DomainError):
            ExpFamParam.normal_gamma(0.0, 0.0, 1.0, 1.0)

    def test_gaussian_natural_roundtrip(self):
        f = ExpFamParam.gaussian(2.0, 4.0)
        eta = f.natural()
        # eta = (m/v, -1/(2v))
        assert np.allclose(eta, [0.5, -0.125])
        v = -0.5 / eta[1]
        m = eta[0] * v
        assert (m, v) == (2.0, 4.0)

    def test_dirichlet_natural(self):
        f = ExpFamParam.dirichlet([1.0, 2.0, 3.0])
        assert np.allclose(f.natural(), [0.0, 1.0, 2.0])

    def test_entropy_matches_scipy(self):
        assert ExpFamParam.gaussian(0.0, 2.0).entropy() == pytest.approx(
            scipy.stats.norm(0.0, math.sqrt(2.0)).entropy(), abs=1e-12
        )
        assert ExpFamParam.gamma(3.0, 2.0).entropy() == pytest.approx(
            scipy.stats.gamma(3.0, scale=0.5).entropy(), abs=1e-10
        )
        assert ExpFamParam.dirichlet([2.0, 3.0, 4.0]).entropy() == pytest.approx(
            scipy.stats.dirichlet([2.0, 3.0, 4.0]).entropy(), abs=1e-10
        )

    def test_normal_gamma_entropy_monte_carlo(self):
        f = ExpFamParam.normal_gamma(0.5, 2.0, 3.0, 1.5)
        rng = np.random.default_rng(7)
        tau = rng.gamma(3.0, 1.0 / 1.5, size=200_000)
        mu = rng.normal(0.5, np.sqrt(1.0 / (2.0 * tau)))
        logq = scipy.stats.norm(0.5, np.sqrt(1.0 / (2.0 * tau))).logpdf(
            mu
        ) + scipy.stats.gamma(3.0, scale=1.0 / 1.5).logpdf(tau)
        assert f.entropy() == pytest.approx(-logq.mean(), abs=0.02)

    def test_means(self):
        assert ExpFamParam.gamma(3.0, 2.0).mean() == 1.5
        assert np.allclose(ExpFamParam.dirichlet([1.0, 3.0]).mean(), [0.25, 0.75])
        emu, etau = ExpFamParam.normal_gamma(1.0, 1.0, 4.0, 2.0).mean()
        assert (emu, etau) == (1.0, 2.0)

    def test_immutability(self):
        f = ExpFamParam.gaussian(0.0, 1.0)
        with pytest.raises(AttributeError):
            f.params = (1.0, 1.0)


class TestBroadcast:
    """The KL, entropy and moment helpers over arrays, as the ELBOs use them."""

    RNG = np.random.default_rng(11)
    Q = RNG.uniform(0.2, 5.0, size=(4, 3))
    P = RNG.uniform(0.2, 5.0, size=(4, 3))
    M = RNG.normal(size=(4, 3))

    def _elementwise(self, f, *arrays):
        b = np.broadcast_arrays(*arrays)
        return np.array([f(*(float(a[i]) for a in b)) for i in np.ndindex(b[0].shape)])

    @pytest.mark.parametrize(
        "f,args",
        [
            (gaussian_kl, (M, Q, 0.5, P)),
            (gamma_kl, (Q, P, 1.5, 2.0)),
            (lambda *a: normal_gamma_kl(a[:4], a[4:]), (M, Q, P, Q + P, 0.0, 2.0, P, 1.0)),
            (lambda a, r: gamma_moments(a, r)[0], (Q, P)),
            (lambda a, r: gamma_moments(a, r)[1], (Q, P)),
        ],
    )
    def test_array_matches_scalar_calls(self, f, args):
        got = f(*args)
        assert got.shape == (4, 3)
        want = self._elementwise(f, *args).reshape(4, 3)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        assert type(f(*(float(np.ravel(a)[0]) for a in args))) is float

    def test_scalar_input_returns_float(self):
        assert type(gaussian_kl(0.0, 1.0, 0.5, 2.0)) is float
        assert type(gamma_kl(2.0, 1.0, 1.0, 1.0)) is float
        assert type(normal_gamma_kl((0.0, 1.0, 2.0, 1.0), (0.0, 1.0, 1.0, 1.0))) is float
        assert all(type(v) is float for v in gamma_moments(2.0, 3.0))
        assert type(dirichlet_kl([1.0, 2.0], [1.0, 1.0])) is float
        assert type(categorical_entropy([0.25, 0.75])) is float

    def test_dirichlet_kl_rows_with_broadcast_prior(self):
        prior = np.array([0.5, 1.0, 2.0])
        got = dirichlet_kl(self.Q, prior)
        assert got.shape == (4,)
        want = [dirichlet_kl(q, prior) for q in self.Q]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
        rowwise = dirichlet_kl(self.Q, self.P)
        want = [dirichlet_kl(q, p) for q, p in zip(self.Q, self.P)]
        assert np.allclose(rowwise, want, rtol=1e-14, atol=0.0)
        # single-column rows are point masses: no divergence at all
        assert np.all(dirichlet_kl(self.Q[:, :1], [0.3]) == 0.0)
        with pytest.raises(DomainError):
            dirichlet_kl(self.Q, prior[:2])
        with pytest.raises(DomainError):
            dirichlet_kl(prior, self.Q)

    def test_categorical_entropy_rows(self):
        probs = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
        got = categorical_entropy(probs)
        assert got.shape == (3,)
        assert np.allclose(got, [categorical_entropy(p) for p in probs], rtol=1e-15)
        empty = categorical_entropy(np.zeros((0, 3)))
        assert empty.shape == (0,)

    @pytest.mark.parametrize(
        "call",
        [
            lambda q: gaussian_kl(0.0, q, 0.0, 1.0),
            lambda q: gaussian_kl(0.0, 1.0, 0.0, q),
            lambda q: gamma_kl(q, 1.0, 1.0, 1.0),
            lambda q: gamma_kl(1.0, q, 1.0, 1.0),
            lambda q: gamma_kl(1.0, 1.0, 1.0, q),
            lambda q: normal_gamma_kl((0.0, q, 1.0, 1.0), (0.0, 1.0, 1.0, 1.0)),
            lambda q: normal_gamma_kl((0.0, 1.0, q, 1.0), (0.0, 1.0, 1.0, 1.0)),
            lambda q: normal_gamma_kl((0.0, 1.0, 1.0, 1.0), (0.0, 1.0, 1.0, q)),
            lambda q: gamma_moments(q, 1.0),
            lambda q: gamma_moments(1.0, q),
            lambda q: dirichlet_kl(np.stack([q, q]), [1.0] * 6),
        ],
    )
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_one_bad_entry_raises(self, call, bad):
        q = np.ones(6)
        call(q)
        q[4] = bad
        # the helper's own check, not digamma's further down
        with pytest.raises(DomainError, match="^(?!digamma)"):
            call(q)

    def test_categorical_entropy_rejects_one_bad_row(self):
        probs = np.full((5, 2), 0.5)
        categorical_entropy(probs)
        for bad in ([-0.1, 1.1], [0.5, 0.500004], [0.5, 0.5 + 2e-9], [0.5, np.nan]):
            rows = probs.copy()
            rows[3] = bad
            with pytest.raises(DomainError):
                categorical_entropy(rows)
            with pytest.raises(DomainError):
                categorical_entropy(bad)
        assert categorical_entropy([0.5, 0.5 + 5e-10]) == pytest.approx(math.log(2.0))
