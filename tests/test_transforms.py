import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablesim as ss
from stablesim.transforms import (
    PathFunction,
    from_ensemble,
    increment_process,
    lamperti_from_stationary,
    lamperti_to_stationary,
    masani_forward,
    masani_inverse,
)

L = 20.0


def dense_grid(lo, hi, dt):
    return np.arange(lo, hi + 1e-12, dt)


class TestMasaniForward:
    def test_ramp_becomes_constant(self):
        # X_t = t: window integral is t - 1 + (L+1) e^{-(L+t)}
        t = dense_grid(-L, 2.0, 1.0 / 128)
        y, bound = masani_forward(PathFunction(t, t.copy()), history=L)
        oracle = 1.0 - (L + 1.0) * np.exp(-(L + y.times))
        assert np.max(np.abs(y.values - oracle)) < 5e-5
        assert bound == pytest.approx(math.exp(-L) * L, rel=1e-12)

    def test_zero_path(self):
        t = dense_grid(-L, 1.0, 1.0 / 64)
        y, _ = masani_forward(PathFunction(t, np.zeros_like(t)), history=L)
        assert np.all(y.values == 0.0)

    def test_insufficient_history_refused(self):
        t = dense_grid(-5.0, 1.0, 1.0 / 64)
        with pytest.raises(ValueError, match="history"):
            masani_forward(PathFunction(t, t.copy()), history=L)

    @pytest.mark.parametrize("history", [-5.0, math.nan, math.inf])
    def test_history_must_be_finite_and_nonnegative(self, history):
        # a negative or NaN history would pass the sample check and report a
        # meaningless truncation bound (exp(5) * max|X|, or nan)
        t = dense_grid(-L, 1.0, 1.0 / 64)
        with pytest.raises(ValueError, match="history must be a finite number"):
            masani_forward(PathFunction(t, t.copy()), history=history)

    def test_stationarity_of_transformed_ensemble(self):
        # Brownian-type input: joint CF of (Y_t, Y_{t+h}) should not depend on t
        k = ss.LinearMotion(2.0)
        times = dense_grid(-L, 3.0, 1.0 / 16)
        ens = ss.simulate(k, times, 1500, seed=21, level=1)
        y, _ = masani_forward(from_ensemble(ens), history=L)
        yens = ss.PathEnsemble(y.times, y.values, ens.seed, ens.spec_digest)
        h = 0.5

        def joint(t0):
            return ss.empirical_cf(yens, ss.combo((0.7, t0), (0.5, t0 + h)))
        tol = 3.0 / math.sqrt(1500) + 0.02
        ref = joint(0.0)
        for t0 in (0.5, 1.0, 2.0):
            assert abs(joint(t0) - ref) < 2 * tol


class TestMasaniInverse:
    def test_constant_gives_ramp(self):
        t = dense_grid(0.0, 3.0, 1.0 / 64)
        x = masani_inverse(PathFunction(t, np.ones_like(t)))
        assert np.max(np.abs(x.values - t)) < 1e-12

    def test_cosine_oracle(self):
        # Y = cos t -> X = cos t - 1 + sin t; left-tag Riemann error is O(dt)
        t = dense_grid(0.0, 3.0, 1.0 / 512)
        x = masani_inverse(PathFunction(t, np.cos(t)))
        oracle = np.cos(t) - 1.0 + np.sin(t)
        assert np.max(np.abs(x.values - oracle)) < 3e-3
        t2 = t[::2]
        x2 = masani_inverse(PathFunction(t2, np.cos(t2)))
        err2 = np.max(np.abs(x2.values - (np.cos(t2) - 1.0 + np.sin(t2))))
        err1 = np.max(np.abs(x.values - oracle))
        assert err2 / err1 == pytest.approx(2.0, abs=0.2)

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            masani_inverse(PathFunction(np.array([1.0, 2.0]), np.array([0.0, 1.0])))


class TestMasaniRoundTrip:
    def test_first_order_decay(self):
        k = ss.build(ss.LinearMotion(1.5))
        errs = []
        for kexp in (6, 7, 8):
            dt = 2.0 ** -kexp
            times = dense_grid(-L, 2.0, dt)
            ens = ss.simulate(k, times, 10, seed=5, level=1)
            y, _ = masani_forward(from_ensemble(ens), history=L)
            x2 = masani_inverse(y)
            keep = ens.times >= -1e-12
            errs.append(np.max(np.abs(x2.values - ens.values[:, keep])))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in ratios:
            assert 1.7 <= r <= 2.3

    def test_truncation_error_decays_exponentially_in_history(self):
        # ramp oracle isolates the history truncation: Y - 1 = -(L+1) e^{-(L+t)}
        for hist in (8.0, 11.0, 14.0):
            t = dense_grid(-hist, 1.0, 1.0 / 1024)
            y, _ = masani_forward(PathFunction(t, t.copy()), history=hist)
            err = np.max(np.abs(y.values - 1.0))
            assert err == pytest.approx((hist + 1.0) * math.exp(-hist), rel=0.02)


class TestLamperti:
    def test_power_path_becomes_constant(self):
        t = 0.5 * 2.0 ** (0.25 * np.arange(17))
        y = lamperti_to_stationary(PathFunction(t, t**0.7), 0.7)
        assert np.max(np.abs(y.values - 1.0)) < 1e-12

    def test_constant_becomes_power(self):
        u = np.linspace(-1.0, 1.0, 21)
        x = lamperti_from_stationary(PathFunction(u, np.ones_like(u)), 0.7)
        assert np.max(np.abs(x.values - x.times**0.7)) < 1e-12

    def test_round_trip_exact_on_geometric_grid(self):
        t = 0.25 * (2.0 ** 0.25) ** np.arange(17)
        vals = np.vstack([np.sin(t), np.cos(2 * t)])
        back = lamperti_from_stationary(lamperti_to_stationary(PathFunction(t, vals), 0.7), 0.7)
        assert np.max(np.abs(back.values - vals)) < 1e-12
        assert np.max(np.abs(back.times - t)) < 1e-12

    def test_non_geometric_grid_refused(self):
        t = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="geometric"):
            lamperti_to_stationary(PathFunction(t, t), 0.7)

    @pytest.mark.parametrize("hurst", [math.nan, math.inf, -math.inf])
    def test_non_finite_hurst_refused(self, hurst):
        t = 0.5 * 2.0 ** (0.25 * np.arange(5))
        with pytest.raises(ValueError, match="hurst"):
            lamperti_to_stationary(PathFunction(t, t), hurst)
        with pytest.raises(ValueError, match="hurst"):
            lamperti_from_stationary(PathFunction(np.log(t), t), hurst)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 0.9), st.floats(1.05, 1.5), st.integers(5, 30))
    def test_round_trip_property(self, hurst, ratio, n):
        t = 0.3 * ratio ** np.arange(n)
        vals = np.sin(np.arange(n, dtype=float))
        back = lamperti_from_stationary(
            lamperti_to_stationary(PathFunction(t, vals), hurst), hurst)
        assert np.max(np.abs(back.values - vals)) <= 1e-12 * max(1.0, np.max(np.abs(vals)))

    def test_ou_lamperti_image_is_self_similar(self):
        # exact stationary Gaussian AR(1) on the log grid; its Lamperti image
        # must scale with the chosen Hurst exponent (Monte Carlo slope oracle)
        hurst, theta = 0.6, 1.0
        du = math.log(2.0) / 4.0
        u = np.arange(-8, 9) * du
        rng = np.random.Generator(np.random.Philox(key=np.uint64(77)))
        n_paths = 60000
        rho = math.exp(-theta * du)
        y = np.empty((n_paths, u.size))
        y[:, 0] = rng.standard_normal(n_paths)
        for j in range(1, u.size):
            y[:, j] = rho * y[:, j - 1] + math.sqrt(1 - rho * rho) * rng.standard_normal(n_paths)
        x = lamperti_from_stationary(PathFunction(u, y), hurst)
        ens = ss.PathEnsemble(x.times, x.values, 77, "ou-lamperti")
        # slope of log(-log |empirical CF|) against log c estimates alpha * H
        scales = (0.5, 1.0, 2.0, 4.0)
        logs = []
        for c in scales:
            mag = min(max(abs(ss.empirical_cf(ens, ss.combo((0.8, c)))), 1e-12), 1.0 - 1e-12)
            logs.append(math.log(-math.log(mag)))
        fitted = float(np.polyfit(np.log(np.asarray(scales)), np.asarray(logs), 1)[0])
        assert fitted / 2.0 == pytest.approx(hurst, abs=0.05)


class TestMasaniInverseStationarity:
    def test_inverse_of_stationary_ensemble_has_stationary_increments(self):
        # exact stationary Gaussian AR(1) input; the inverse transform output
        # must pass the Monte Carlo stationary-increment check: the empirical
        # CF of each shifted increment probe within twice the CLT scale of
        # the unshifted one
        dt = 1.0 / 16
        t = np.arange(0.0, 4.0 + 1e-12, dt)
        rho = math.exp(-dt)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(31)))
        n_paths = 20000
        y = np.empty((n_paths, t.size))
        y[:, 0] = rng.standard_normal(n_paths)
        for j in range(1, t.size):
            y[:, j] = rho * y[:, j - 1] + math.sqrt(1 - rho * rho) * rng.standard_normal(n_paths)
        x = masani_inverse(PathFunction(t, y))
        ens = ss.PathEnsemble(x.times, x.values, 31, "masani-inverse-ou")
        residuals = []
        for c in (ss.combo((1.0, 1.0)), ss.combo((0.7, 0.5), (-0.7, 1.5))):
            base = ss.empirical_cf(ens, c.shifted_increments(0.0))
            residuals.append(max(abs(ss.empirical_cf(ens, c.shifted_increments(h)) - base)
                                 for h in (0.5, 1.0, 2.0)))
        assert max(residuals) < 6.0 / math.sqrt(n_paths) + 0.02, residuals


class TestIncrementProcess:
    def test_lag_kernel_pointwise(self):
        # lagged LFSM kernel: (t+1)_+^g - t_+^g at probe time 0
        spec = ss.Lfsm(1.5, 0.7, 1.0, 0.0)
        src = ss.build(spec)
        inc = increment_process(src, 1.0)
        g = 0.7 - 1.0 / 1.5
        s = np.array([-0.3, -1.7, 0.4])
        vals = inc.eval(0.0, s)
        f = lambda u: np.where(u > 0, np.abs(u) ** g, 0.0)
        expected = (f(1.0 - s) - f(-s))
        assert np.allclose(vals, expected, rtol=1e-12)

    def test_zero_lag_is_zero_kernel(self):
        src = ss.build(ss.Lfsm(1.5, 0.7))
        inc = increment_process(src, 0.0)
        assert np.all(inc.eval(1.3, np.linspace(-3, 3, 11)) == 0.0)

    def test_cf_identity_with_source(self):
        src = ss.build(ss.Lfsm(1.5, 0.7))
        inc = increment_process(src, 1.0)
        lhs = ss.cf_exponent(inc, ss.combo((1.0, 0.0)), level=2).expect()
        rhs = ss.cf_exponent(src, ss.combo((1.0, 1.0)), level=2).expect()
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_increment_kernel_is_stationary(self):
        src = ss.build(ss.Chentsov(1.25, 0.5))
        inc = increment_process(src, 1.0)
        vals = [ss.cf_exponent(inc, ss.combo((1.0, t), (-0.5, t + 1.0)), level=1).expect()
                for t in (0.0, 2.0, 5.0)]
        assert max(vals) - min(vals) < 1e-3 * vals[0]


class TestNamedErrors:
    def test_forward_grid_must_reach_zero(self):
        t = dense_grid(-L, -1.0, 1.0 / 16)
        with pytest.raises(ValueError, match="grid must reach t = 0"):
            masani_forward(PathFunction(t, np.zeros_like(t)), history=L)

    def test_lamperti_to_needs_positive_grid(self):
        t = np.array([-1.0, 1.0, 3.0])
        with pytest.raises(ValueError, match="strictly positive"):
            lamperti_to_stationary(PathFunction(t, np.zeros(3)), 0.7)

    def test_lamperti_from_needs_uniform_grid(self):
        u = np.array([0.0, 1.0, 3.0])
        with pytest.raises(ValueError, match="uniform grid"):
            lamperti_from_stationary(PathFunction(u, np.zeros(3)), 0.7)

    def test_negative_lag(self):
        with pytest.raises(ValueError, match="lag must be nonnegative"):
            increment_process(ss.build(ss.Lfsm(1.5, 0.7)), -1.0)

    @pytest.mark.parametrize("lag", [math.nan, math.inf, -math.inf, -1.0])
    def test_lag_must_be_finite_and_nonnegative(self, lag):
        # a nan lag passed lag < 0 and failed deep in the grid builders
        with pytest.raises(ValueError, match=r"lag must be nonnegative and finite, got "):
            increment_process(ss.build(ss.Lfsm(1.5, 0.7)), lag)

    def test_path_function_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 finite points"):
            PathFunction(np.array([1.0]), np.zeros(1))

    def test_path_function_values_last_axis(self):
        with pytest.raises(ValueError, match="values last axis must match times"):
            PathFunction(np.array([0.0, 1.0]), np.zeros((2, 3)))
