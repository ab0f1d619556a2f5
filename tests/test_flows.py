import math

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
    """hopf_classify's truncated orbit integrals with one flow call per time step."""
    traces = []
    for point in points:
        pts = np.atleast_2d(point) if flow.dim > 1 else np.atleast_1d(point)
        step = 0.05
        if flow.orbit_speed is not None:
            step = min(0.05, 0.05 / max(float(flow.orbit_speed(np.atleast_2d(point))[0]), 1e-9))

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

        total, prev, trace = 0.0, 0.0, []
        for L in schedule:
            total += increment(prev, L)
            total += increment(-L, -prev)
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
