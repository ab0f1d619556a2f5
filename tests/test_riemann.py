import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablesim as ss
from stablesim.riemann import (
    Curve,
    NotConvergedError,
    StepMultiplier,
    check_fubini,
    constant_multiplier,
    ensemble_space,
    integrate,
    scalar_curve,
    semivariation,
)


class TestIntegrate:
    def test_linear_curve(self):
        v, cert = integrate(scalar_curve(lambda t: t), constant_multiplier(1.0, 0, 1),
                            (0, 1), tol=1e-9)
        assert float(v) == pytest.approx(0.5, abs=1e-9)
        assert cert.converged

    def test_exponential_with_step_multiplier(self):
        # phi = 1_((1/2, 1]], left-continuous; symbolic oracle e - sqrt(e)
        step = StepMultiplier((0.0, 0.5, 1.0), (0.0, 1.0))
        v, cert = integrate(scalar_curve(np.exp), step, (0, 1), tol=1e-9)
        assert float(v) == pytest.approx(math.e - math.exp(0.5), abs=1e-8)
        assert cert.converged

    def test_certificate_on_failure(self):
        # highly oscillatory curve cannot reach an absurd tolerance in depth 18
        wild = scalar_curve(lambda t: np.sin(1000.0 * t))
        with pytest.raises(NotConvergedError) as err:
            integrate(wild, constant_multiplier(1.0, 0, 1), (0, 1), tol=1e-14)
        assert not err.value.certificate.converged

    @settings(max_examples=15, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    def test_linearity_in_curve(self, a, b):
        f = scalar_curve(lambda t: np.sin(t))
        g = scalar_curve(lambda t: t**2)
        comb = scalar_curve(lambda t: a * np.sin(t) + b * t**2)
        mult = constant_multiplier(1.0, 0, 1)
        vf, _ = integrate(f, mult, (0, 1), tol=1e-10)
        vg, _ = integrate(g, mult, (0, 1), tol=1e-10)
        vc, _ = integrate(comb, mult, (0, 1), tol=1e-10)
        assert float(vc) == pytest.approx(a * float(vf) + b * float(vg), abs=1e-8)

    def test_linearity_in_multiplier(self):
        f = scalar_curve(np.exp)
        m1 = StepMultiplier((0.0, 0.5, 1.0), (1.0, 0.0))
        m2 = StepMultiplier((0.0, 0.5, 1.0), (0.0, 1.0))
        v1, _ = integrate(f, m1, (0, 1), tol=1e-10)
        v2, _ = integrate(f, m2, (0, 1), tol=1e-10)
        vall, _ = integrate(f, constant_multiplier(1.0, 0, 1), (0, 1), tol=1e-10)
        assert float(v1) + float(v2) == pytest.approx(float(vall), abs=1e-8)

    def test_ensemble_curve_against_per_path_quadrature(self):
        # curve through a simulated ensemble with linear interpolation between
        # grid times; oracle is the per-path trapezoid rule, exact for
        # piecewise-linear paths on an aligned grid
        k = ss.build(ss.Lfsm(1.5, 0.7))
        times = np.linspace(0.0, 1.0, 257)
        ens = ss.simulate(k, times, 40, seed=13)

        def eval_paths(ts):
            ts = np.atleast_1d(ts)
            idx = np.clip(np.searchsorted(times, ts, side="right") - 1, 0, times.size - 2)
            frac = (ts - times[idx]) / (times[idx + 1] - times[idx])
            return (1.0 - frac)[:, None] * ens.values[:, idx].T + frac[:, None] * ens.values[:, idx + 1].T

        curve = Curve(eval_paths, ensemble_space())
        oracle = np.array([np.trapezoid(ens.values[i], times) for i in range(40)])
        v, cert = integrate(curve, constant_multiplier(1.0, 0, 1), (0, 1), tol=0.02)
        assert cert.converged
        assert curve.space.norm(v - oracle) < 0.02
        # at depth 8 the dyadic cells align with the path grid, where the
        # midpoint sum is exact for piecewise-linear paths
        from stablesim.riemann import _riemann_sum
        s8 = _riemann_sum(curve, constant_multiplier(1.0, 0, 1), 0.0, 1.0, 256)
        assert curve.space.norm(s8 - oracle) < 1e-10


class TestFubini:
    def test_exponential_pair(self):
        # both sides equal e - 2
        res = check_fubini(scalar_curve(np.exp), constant_multiplier(1.0, 0, 1),
                           (0, 1), tol=1e-7)
        assert res < 1e-6

    def test_zero_curve(self):
        res = check_fubini(scalar_curve(lambda t: 0.0 * t), constant_multiplier(1.0, 0, 1),
                           (0, 1), tol=1e-7)
        assert res == 0.0

    def test_linear_with_full_step(self):
        # f(t) = t, phi = 1_((0,1]]: both sides are 1/6
        res = check_fubini(scalar_curve(lambda t: t), StepMultiplier((0.0, 1.0), (1.0,)),
                           (0, 1), tol=1e-7)
        assert res < 1e-6

    def test_sides_match_symbolic_values(self):
        # LHS of the swap identity for f = exp, phi = 1: integral of F = e - 2
        f = scalar_curve(np.exp)
        F = lambda ts: np.exp(np.atleast_1d(ts)) - 1.0
        lhs, _ = integrate(scalar_curve(lambda t: np.exp(t) - 1.0),
                           constant_multiplier(1.0, 0, 1), (0, 1), tol=1e-9)
        assert float(lhs) == pytest.approx(math.e - 2.0, abs=1e-8)


class TestSemivariation:
    def test_linear_curve_equals_delta(self):
        est = semivariation(scalar_curve(lambda t: t), 0.1)
        assert est.value == pytest.approx(0.1, abs=1e-12)

    def test_constant_curve_zero(self):
        est = semivariation(scalar_curve(lambda t: np.ones_like(t)), 0.5)
        assert est.value == 0.0

    def test_total_variation_three(self):
        tri = scalar_curve(lambda t: 1.5 * (1.0 - np.abs(2.0 * t - 1.0)))
        est = semivariation(tri, 0.1)
        assert est.value == pytest.approx(0.3, rel=1e-9)

    def test_homogeneity_exact(self):
        tri = scalar_curve(lambda t: 1.5 * (1.0 - np.abs(2.0 * t - 1.0)))
        for lam in (2.0, 4.0, 0.5):
            assert semivariation(tri, lam * 0.1).value == lam * semivariation(tri, 0.1).value

    def test_monotone_in_delta(self):
        tri = scalar_curve(lambda t: np.sin(3.0 * t))
        vals = [semivariation(tri, d).value for d in (0.1, 0.2, 0.4)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_vanishing_delta_certifies_integrability(self):
        tri = scalar_curve(lambda t: 1.5 * (1.0 - np.abs(2.0 * t - 1.0)))
        vals = [semivariation(tri, d).value for d in (0.1, 0.01, 0.001)]
        assert vals[2] < vals[1] < vals[0]
        assert vals[2] < 1e-2

    def test_vector_curve_lower_bound(self):
        # coordinates move independently; the bound must reach each coordinate's TV
        def fn(ts):
            ts = np.atleast_1d(ts)
            return np.column_stack([ts, 1.0 - ts])

        curve = Curve(fn, ensemble_space())
        est = semivariation(curve, 0.5)
        assert est.value >= 0.25 - 1e-12  # F-norm of 0.5 * unit increment sum


class TestNamedErrors:
    def test_step_multiplier_length_mismatch(self):
        with pytest.raises(ValueError, match=r"len\(edges\) == len\(values\) \+ 1"):
            StepMultiplier((0.0, 1.0), (1.0, 2.0))

    @pytest.mark.parametrize("edges", [(0.0, 0.0), (1.0, 0.5), (0.0, 0.5, 0.5)])
    def test_step_multiplier_bad_edges(self, edges):
        with pytest.raises(ValueError, match="edges must be a strictly increasing"):
            StepMultiplier(edges, (1.0,) * (len(edges) - 1))

    @pytest.mark.parametrize("interval", [(1.0, 1.0), (1.0, 0.0)])
    def test_integrate_empty_interval(self, interval):
        with pytest.raises(ValueError, match="interval must be a strictly increasing"):
            integrate(scalar_curve(lambda t: t), constant_multiplier(1.0, 0.0, 1.0), interval)

    @pytest.mark.parametrize("delta", [0.0, -1.0])
    def test_semivariation_needs_positive_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be positive"):
            semivariation(scalar_curve(lambda t: t), delta)
