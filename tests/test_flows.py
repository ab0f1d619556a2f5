import dataclasses
import math
import warnings

import numpy as np
import pytest

from stablesim import LinearMotion, Lfsm, LogFractional
from stablesim.core import philox
from stablesim.flows import (
    _HOPF_WINDOWS,
    CocycleSpec,
    catalog_flows,
    check_cocycle,
    check_flow_laws,
    circle_scaling_flow,
    coboundary_cocycle,
    dilation_flow,
    hopf_classify,
    rotation_flow,
    translation_flow,
)
from stablesim.quadrature import shell_tail

T_PAIRS = [(0.5, 1.5), (2.0, -1.0), (-0.7, 0.3), (3.0, 2.0), (-2.5, -1.5)]


def rng():
    return np.random.Generator(np.random.Philox(key=np.uint64(123)))


class TestFlowLaws:
    @pytest.mark.parametrize("flow", catalog_flows(), ids=lambda f: f.tag)
    def test_group_law_and_chain_rule(self, flow):
        pts = flow.sample_points(rng(), 1000)
        rep = check_flow_laws(flow, T_PAIRS, pts, tol=1e-10)
        assert rep.passed, (rep.max_group_residual, rep.max_chain_residual)

    def test_translation_preserves_measure(self):
        flow = translation_flow()
        pts = flow.sample_points(rng(), 100)
        assert np.all(flow.rn_derivative(2.5, pts) == 1.0)

    def test_rotation_preserves_measure(self):
        flow = rotation_flow()
        pts = flow.sample_points(rng(), 100)
        assert np.all(flow.rn_derivative(1.7, pts) == 1.0)

    def test_scaling_derivative_closed_form(self):
        # pushforward of x^(-1-beta) dx under x -> e^t x scales by e^(-beta t)
        beta = 0.8
        flow = circle_scaling_flow(beta)
        pts = flow.sample_points(rng(), 50)
        for t in (-1.0, 0.5, 2.0):
            rho = flow.rn_derivative(t, pts)
            assert np.allclose(rho, math.exp(-beta * t), rtol=1e-13)
            # independent oracle: mass ratio of transported cells
            x0, x1 = 1.3, 2.6
            c = -beta  # density exponent + 1
            mass = (x1**c - x0**c) / c
            moved = ((math.exp(t) * x1) ** c - (math.exp(t) * x0) ** c) / c
            assert moved / mass == pytest.approx(math.exp(-beta * t), rel=1e-12)

    def test_dilation_derivative(self):
        flow = dilation_flow()
        pts = flow.sample_points(rng(), 50)
        assert np.allclose(flow.rn_derivative(0.7, pts), math.exp(-0.7), rtol=1e-13)


class TestCocycles:
    def test_coboundary_holds_exactly(self):
        flow = translation_flow()
        b = lambda s: np.where(np.sin(np.asarray(s)) >= 0.0, 1.0, -1.0)
        rep = check_cocycle(coboundary_cocycle(b, flow), flow, T_PAIRS,
                            flow.sample_points(rng(), 500))
        assert rep.passed and rep.max_residual == 0.0

    def test_coboundary_on_rotation(self):
        flow = rotation_flow()
        b = lambda pts: np.where(np.atleast_2d(pts)[:, 0] < math.pi, 1.0, -1.0)
        rep = check_cocycle(coboundary_cocycle(b, flow), flow, T_PAIRS,
                            flow.sample_points(rng(), 300))
        assert rep.passed

    def test_broken_cocycle_reported(self):
        # sign(sin(s + t)) under translation violates the cocycle identity
        def apply(t, pts):
            v = np.sign(np.sin(np.asarray(pts) + t))
            return np.where(v == 0.0, 1.0, v)

        flow = translation_flow()
        rep = check_cocycle(CocycleSpec("broken", apply), flow, T_PAIRS,
                            flow.sample_points(rng(), 500))
        assert not rep.passed
        assert rep.failures > 0


# an orbit integrand for each catalog flow, by tag
HOPF_G0 = {
    "translation": lambda s: ((np.asarray(s) >= 0.0) & (np.asarray(s) <= 1.0)).astype(float),
    "rotation": lambda pts: np.cos(np.atleast_2d(pts)[:, 0]),
    "scaling": lambda pts: np.cos(np.atleast_2d(pts)[:, 0]) * np.exp(-np.atleast_2d(pts)[:, 1]),
    "log_translation": lambda s: np.exp(-np.asarray(s) ** 2),
}


def step_loop_traces(flow, g0, alpha, points, schedule):
    """hopf_classify's truncated orbit integrals with one flow call per time
    step.  At a point of finite period P, a window piece holding q >= 1
    whole periods is q times the sum over [0, P] plus the sum over the rest."""
    traces = []
    for point in points:
        pts = np.atleast_2d(point) if flow.dim > 1 else np.atleast_1d(point)
        period = math.inf if flow.period is None else float(flow.period(pts)[0])
        step = 0.05 * min(1.0, period / (2.0 * math.pi))

        def increment(lo, hi):
            n = max(8, int(math.ceil((hi - lo) / step)))
            ts = lo + (np.arange(n) + 0.5) * (hi - lo) / n
            total = 0.0
            for chunk in np.array_split(ts, max(1, n // 4096)):
                vals = np.empty(chunk.size)
                with np.errstate(over="ignore"):
                    for i, t in enumerate(chunk):
                        g = (np.abs(g0(flow.apply(float(t), pts))) ** alpha)[0]
                        rho = flow.rn_derivative(float(t), pts)[0]
                        vals[i] = g * rho if g != 0.0 else 0.0  # 0 * inf = 0
                    total += float(np.sum(vals)) * (hi - lo) / n
            return total

        def piece(lo, hi):
            q = math.floor((hi - lo) / period) if math.isfinite(period) else 0
            if q == 0:
                return increment(lo, hi)
            return q * increment(0.0, period) + increment(lo + q * period, hi)

        total, prev, trace = 0.0, 0.0, []
        for L in schedule:
            total += piece(prev, L)
            total += piece(-L, -prev)
            prev = L
            trace.append((L, total))
        traces.append(tuple(trace))
    return tuple(traces)


class TestHopf:
    @pytest.mark.parametrize("flow", catalog_flows(), ids=lambda f: f.tag)
    def test_traces_equal_step_loop(self, flow):
        # the orbit integral evaluates every time step in one call; its sums
        # must match the per-step loop to the last bit
        g0 = HOPF_G0[flow.tag]
        pts = flow.sample_points(rng(), 2)
        verdict = hopf_classify(flow, g0, 1.5, pts)
        assert verdict.traces == step_loop_traces(flow, g0, 1.5, pts, _HOPF_WINDOWS)

    @pytest.mark.parametrize("flow", catalog_flows(), ids=lambda f: f.tag)
    def test_flow_broadcasts_over_times(self, flow):
        point = flow.sample_points(rng(), 1)
        ts = np.linspace(-2.0, 2.0, 9)
        moved = flow.apply(ts, point)
        rho = flow.rn_derivative(ts, point)
        assert len(moved) == len(rho) == ts.size
        for i, t in enumerate(ts):
            assert np.array_equal(moved[i], flow.apply(float(t), point)[0])
            assert rho[i] == flow.rn_derivative(float(t), point)[0]

    def test_translation_indicator_dissipative(self):
        # orbit integral of an indicator window is its length, for every point
        flow = translation_flow()
        g0 = lambda s: ((np.asarray(s) >= 0.0) & (np.asarray(s) <= 1.0)).astype(float)
        verdict = hopf_classify(flow, g0, 1.5, flow.sample_points(rng(), 25))
        assert set(verdict.verdicts) == {"dissipative"}
        # truncated orbit integral equals the window length once covered
        for trace in verdict.traces:
            assert trace[-1][1] == pytest.approx(1.0, rel=1e-6)

    def test_rotation_cos_conservative(self):
        flow = rotation_flow()
        g0 = lambda pts: np.cos(np.atleast_2d(pts)[:, 0])
        verdict = hopf_classify(flow, g0, 1.5, flow.sample_points(rng(), 25))
        assert set(verdict.verdicts) == {"conservative"}

    @pytest.mark.parametrize("seed", [5, 9])
    @pytest.mark.parametrize("spec", [Lfsm(1.5, 0.7), Lfsm(1.5, 0.3), Lfsm(1.2, 0.9),
                                      LinearMotion(1.5), LogFractional(1.5)], ids=repr)
    def test_moving_average_increment_kernel_dissipative(self, spec, seed):
        # g0 = K(1, .) of a moving average: every point is dissipative, and the
        # doubling-shell ratio of its orbit integral tends to 2^(-alpha (1 - H))
        flow = translation_flow()
        pts = flow.sample_points(np.random.Generator(philox(seed)), 8)
        verdict = hopf_classify(flow, lambda s: spec.eval(1.0, np.asarray(s, dtype=float)),
                                spec.alpha, pts)
        assert set(verdict.verdicts) == {"dissipative"}
        want = 2.0 ** (-spec.alpha * (1.0 - spec.hurst_exponent()))
        errs = []
        for trace in verdict.traces:
            vals = np.array([v for _, v in trace])
            shells = np.diff(vals, prepend=0.0)
            if shells[-1] > 1e-9 * vals[-1]:
                errs.append(abs(shell_tail(shells, 2.0, 0.0)[0] / want - 1.0))
        # only the indicator kernel of linear_motion leaves its outer shells empty
        assert len(errs) == (0 if isinstance(spec, LinearMotion) else 8)
        if errs:
            assert max(errs) < 0.02 and np.median(errs) < 0.01

    @pytest.mark.parametrize("seed", [5, 31])
    def test_rotation_cos_conservative_acceptance_draws(self, seed):
        # acceptance test_06's draws (40 translation points, then 40 rotation
        # points) at other seeds
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        translation_flow().sample_points(rng, 40)
        flow = rotation_flow()
        g0 = lambda pts: np.cos(np.atleast_2d(pts)[:, 0])
        verdict = hopf_classify(flow, g0, 1.5, flow.sample_points(rng, 40))
        assert set(verdict.verdicts) == {"conservative"}

    def test_nan_g0_never_conservative(self):
        # g0 unknown (nan) far out: the outer shells are nan, which is no
        # evidence of divergence
        flow = translation_flow()

        def g0(s):
            s = np.asarray(s)
            return np.where(np.abs(s) > 1000.0, np.nan, ((s >= 0.0) & (s <= 1.0)).astype(float))

        verdict = hopf_classify(flow, g0, 1.5, np.array([0.5, -0.7]))
        assert verdict.verdicts == ("undecided", "undecided")

    def test_lamperti_lfsm_never_conservative(self):
        # g0 = K(1, .) of lfsm(1.5, 0.7) on the dilation flow: the orbit of
        # s < 0 reaches K(1, -inf) = inf - inf = nan, which must not read as
        # a divergent orbit integral
        spec = Lfsm(1.5, 0.7)
        verdict = hopf_classify(dilation_flow(), lambda s: spec.eval(1.0, np.asarray(s, dtype=float)),
                                spec.alpha, np.array([0.5, -0.7, 2.0]))
        assert "conservative" not in verdict.verdicts
        assert verdict.verdicts[0] == verdict.verdicts[2] == "dissipative"

    def test_zero_g0_degenerate(self):
        flow = translation_flow()
        g0 = lambda s: np.zeros(len(np.atleast_1d(s)))
        verdict = hopf_classify(flow, g0, 1.5, flow.sample_points(rng(), 5))
        assert set(verdict.verdicts) == {"degenerate"}

    def test_traces_monotone_in_window(self):
        flow = rotation_flow()
        g0 = lambda pts: np.cos(np.atleast_2d(pts)[:, 0])
        verdict = hopf_classify(flow, g0, 1.5, flow.sample_points(rng(), 4))
        for trace in verdict.traces:
            vals = [v for _, v in trace]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 2.5, math.nan, math.inf])
    def test_alpha_outside_open_0_2_rejected(self, alpha):
        # at -1 and 0 this dissipative flow would read conservative, at nan
        # every value would be nan
        with pytest.raises(ValueError, match="alpha"):
            hopf_classify(translation_flow(), HOPF_G0["translation"], alpha, np.array([0.5, -0.7]))

    @pytest.mark.parametrize("flow, points", [
        # three numbers are no rotation point: once read as (0.1, 0.2), 0.3 dropped
        (rotation_flow(), np.array([0.1, 0.2, 0.3])),
        (rotation_flow(), np.array([0.1, 0.2])),
        (rotation_flow(), np.zeros((2, 3))),
        (rotation_flow(), np.zeros((1, 1, 2))),
        (translation_flow(), np.array([[0.1, 0.2]])),
        (translation_flow(), np.array(0.5)),
    ], ids=["rotation-1d-3", "rotation-1d-2", "rotation-n-3", "rotation-3d",
            "translation-2d", "translation-0d"])
    def test_points_of_the_wrong_shape_rejected(self, flow, points):
        with pytest.raises(ValueError, match="points"):
            hopf_classify(flow, HOPF_G0[flow.tag], 1.5, points)


def closed_form_cos_window(s, x, L, alpha):
    """Integral of |cos(s + t x)|^alpha over -L <= t <= L, from
    F(u) = int_0^u |cos v|^alpha dv: each whole half period pi carries
    sqrt(pi) Gamma((alpha + 1) / 2) / Gamma(alpha / 2 + 1), the rest a
    64-node Gauss-Legendre rule on each side of the zero of cos at pi/2."""
    per_pi = math.sqrt(math.pi) * math.gamma((alpha + 1) / 2) / math.gamma(alpha / 2 + 1)
    nodes, weights = np.polynomial.legendre.leggauss(64)

    def F(u):
        k = math.floor(u / math.pi)
        r, out = u - k * math.pi, k * per_pi
        for lo, hi in ((0.0, min(r, math.pi / 2)), (math.pi / 2, max(r, math.pi / 2))):
            v = 0.5 * (hi - lo) * nodes + 0.5 * (lo + hi)
            out += 0.5 * (hi - lo) * float(np.sum(weights * np.abs(np.cos(v)) ** alpha))
        return out

    return (F(s + L * x) - F(s - L * x)) / x


class TestPeriodicOrbits:
    def test_rotation_period_returns_each_point(self):
        flow = rotation_flow()
        # sampled points and the fixed point x = 0
        pts = np.vstack([flow.sample_points(rng(), 50), [[1.0, 0.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            period = flow.period(pts)
        assert np.all(np.isfinite(period[:-1])) and period[-1] == math.inf
        moving = pts[:-1]
        assert flow.distance(flow.apply(period[:-1], moving), moving).max() < 1e-12
        assert np.all(flow.rn_derivative(period[:-1], moving) == 1.0)
        # the fixed point stays put at every time
        ts = np.array([-7.0, 1.0, 1e3, 1e6])
        assert flow.distance(flow.apply(ts, pts[-1:]), pts[-1:]).max() == 0.0
        assert np.all(flow.rn_derivative(ts, pts[-1:]) == 1.0)

    def test_fixed_point_integrated_without_period(self):
        # x = 0 has period inf: the point takes the path of a flow without
        # a period, bit for bit, and no division by zero
        flow = rotation_flow()
        fixed = np.array([[1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = hopf_classify(flow, HOPF_G0["rotation"], 1.5, fixed)
        plain = hopf_classify(dataclasses.replace(flow, period=None), HOPF_G0["rotation"], 1.5, fixed)
        assert verdict.verdicts == plain.verdicts == ("conservative",)
        assert verdict.traces == plain.traces

    def test_zero_g0_degenerate(self):
        # periodic points and the fixed point x = 0
        flow = rotation_flow()
        pts = np.vstack([flow.sample_points(rng(), 5), [[1.0, 0.0]]])
        verdict = hopf_classify(flow, lambda p: np.zeros(len(p)), 1.5, pts)
        assert set(verdict.verdicts) == {"degenerate"}

    @pytest.mark.parametrize("x", [0.005, 0.5, 2.0])
    def test_nan_on_part_of_each_period_undecided(self, x):
        # g0 is nan for s > 6.  At x = 0.005 the period 1257 exceeds every
        # window piece (q = 0 throughout); at x = 0.5 (period 12.6) the
        # pieces up to |t| = 16 hold no whole period and those beyond do; at
        # x = 2 every piece holds one
        def g0(pts):
            s = np.atleast_2d(pts)[:, 0]
            return np.where(s > 6.0, np.nan, np.cos(s))

        verdict = hopf_classify(rotation_flow(), g0, 1.5, np.array([[3.0, x]]))
        assert verdict.verdicts == ("undecided",)
        values = [v for _, v in verdict.traces[0]]
        assert math.isnan(values[-1])
        # the orbit meets no nan for |t| <= 4 at x <= 0.5, and a piece with
        # no whole period takes no part of the one-period integral
        assert math.isfinite(values[0]) == (x <= 0.5)

    def test_rotation_traces_match_closed_form(self):
        # the one-period midpoint sum carries the step's error into every
        # later window: measured at most 5.42e-5 (|t| <= 4, no whole period)
        # and 1.68e-5 from L = 16 on, over 800 points of 20 seeds
        flow = rotation_flow()
        pts = flow.sample_points(rng(), 40)
        verdict = hopf_classify(flow, HOPF_G0["rotation"], 1.5, pts)
        for (s, x), trace in zip(pts, verdict.traces):
            for L, value in trace:
                want = closed_form_cos_window(s, x, L, 1.5)
                assert abs(value / want - 1.0) < (1e-4 if L < 16 else 3e-5)
