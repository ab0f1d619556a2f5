import dataclasses
import json
import math

import numpy as np
import pytest

import stablesim as ss
from stablesim import verify as verify_module
from stablesim.flows import circle_scaling_flow, dilation_flow
from stablesim.transforms import increment_process
from stablesim.verify import (
    VerificationReport,
    check_kernel_identity,
    check_scaling_maps,
    check_self_similar,
    check_stationary_increments,
    default_probes,
    flow_identity_fixture,
    lamperti_identity_fixture,
    mc_distribution_check,
    rotating_identity_fixture,
    run_suite,
    UnsupportedFamilyError,
)


class TestStationaryIncrements:
    def test_linear_motion_exact(self):
        k = ss.build(ss.LinearMotion(1.5))
        rep = check_stationary_increments(k, combos=[ss.combo((1.0, 1.0))])
        assert rep.passed
        assert rep.max_residual < 1e-12

    def test_lfsm_within_tolerance_and_decreasing(self):
        k = ss.build(ss.Lfsm(1.5, 0.7))
        rep = check_stationary_increments(k)
        assert rep.passed
        assert rep.details["fine_max"] <= max(rep.details["coarse_max"], 1e-12)

    def test_chentsov(self):
        k = ss.build(ss.Chentsov(1.25, 0.5))
        rep = check_stationary_increments(k)
        assert rep.passed

    def test_rotating_builds_one_grid_per_level(self):
        # 8 probes x 5 shifts carry 110 nonzero-theta terms, each evaluated
        # once per level
        rep = check_stationary_increments(ss.catalog_specs()[-1])
        assert rep.details["grids"] == 2
        assert rep.details["kernel_evals"] == 2 * 110

    def test_work_counts_reported(self):
        k = ss.build(ss.Lfsm(1.5, 0.7))
        si = check_stationary_increments(k, combos=[ss.combo((1.0, 1.0))])
        # per level, the shifts h = 0, 0.5, 1, 2, 5 give five time sets {1 + h, h},
        # each on its own grid with two kernel evaluations
        assert (si.details["grids"], si.details["kernel_evals"]) == (10, 20)
        ss_rep = check_self_similar(k, combos=[ss.combo((1.0, 1.0))])
        assert (ss_rep.details["grids"], ss_rep.details["kernel_evals"]) == (5, 5)

    def test_report_serializes(self):
        k = ss.build(ss.LinearMotion(1.5))
        rep = check_stationary_increments(k, combos=[ss.combo((1.0, 1.0))])
        json.dumps(rep.to_dict())

    def test_numpy_details_serialize(self):
        # a caller's report may hold numpy scalars and arrays, nested too
        rep = VerificationReport("numpy", True, 0.1, (0.0,), {
            "x": np.float64(0.25), "n": np.int64(7), "grid": np.array([[1.0, 2.5]]),
            "nested": {"counts": [np.int64(1), (np.float64(-0.5), "a")]}})
        doc = json.loads(json.dumps(rep.to_dict()))["details"]
        assert doc == {"x": 0.25, "n": 7, "grid": [[1.0, 2.5]],
                       "nested": {"counts": [1, [-0.5, "a"]]}}
        assert type(rep.to_dict()["details"]["n"]) is int

    def test_oracle_wall_seconds_reported(self):
        k = ss.build(ss.LinearMotion(1.5))
        probe = [ss.combo((1.0, 1.0))]
        times = sorted({t for c in default_probes() for t in c.times})
        reports = (check_stationary_increments(k, combos=probe),
                   check_self_similar(k, combos=probe),
                   mc_distribution_check(ss.simulate(k, times, 10, seed=1), k, combos=probe))
        for rep in reports:
            wall = rep.details["wall_s"]
            assert isinstance(wall, float) and math.isfinite(wall) and wall >= 0.0
            assert json.loads(json.dumps(rep.to_dict()))["details"]["wall_s"] == wall


class TestSelfSimilar:
    def test_linear_motion_exact_doubling(self):
        # alpha H = 1: doubling the scale doubles sigma^alpha exactly
        k = ss.build(ss.LinearMotion(1.5))
        c = ss.combo((1.0, 1.0))
        v1 = ss.cf_exponent(k, c.scaled_times(1.0), level=1).expect()
        v2 = ss.cf_exponent(k, c.scaled_times(2.0), level=1).expect()
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_fitted_exponents(self):
        for spec, hurst in [(ss.Lfsm(1.5, 0.7), 0.7),
                            (ss.TruncatedFractional(1.5, 0.5, 0.5), 5.0 / 6.0),
                            (ss.Chentsov(1.25, 0.5), 0.4)]:
            rep = check_self_similar(ss.build(spec))
            assert rep.passed, (spec, rep.residuals)
            assert rep.details["target_hurst"] == pytest.approx(hurst)

    def test_chentsov_hurst_above_one(self):
        rep = check_self_similar(ss.build(ss.Chentsov(0.5, 0.6)))
        assert rep.passed
        assert np.mean(rep.details["fitted_hurst"]) == pytest.approx(1.2, rel=0.01)

    def test_kernel_without_hurst_exponent(self):
        k = increment_process(ss.build(ss.Lfsm(1.5, 0.7)), 1.0)
        with pytest.raises(ValueError, match="kernel has no Hurst exponent; pass target_hurst"):
            check_self_similar(k)

    def test_negative_control_perturbed_b(self):
        # kernel from b=0.6 has H = 23/30, not 5/6; the slope check against
        # the unperturbed target must fail
        k = ss.build(ss.TruncatedFractional(1.5, 0.5, 0.6))
        rep = check_self_similar(k, combos=default_probes()[:3], target_hurst=5.0 / 6.0)
        assert not rep.passed


_EXTRA_MAP_SPECS = (
    ss.Lfsm(1.5, 0.3),
    ss.Lfsm(1.2, 0.9),
    ss.LogFractional(1.8, scale=-2.0),
    ss.TruncatedFractional(1.5, -0.5, -0.2),
    ss.TruncatedFractional(1.5, 0.5, 0.6),
    ss.RotatingAverage(1.5, 0.8, ss.FourierSeries(((1, 1.0, 0.5), (2, -0.3, 0.0), (5, 0.0, 0.7)),
                                                  0.4)),
)


class _OffHurstLfsm(ss.Lfsm):
    def hurst_exponent(self):
        return self.hurst + 0.01


class _ZeroLfsm(ss.Lfsm):
    def field(self, t, s):
        return np.zeros(np.shape(s))


class TestScalingMaps:
    @pytest.mark.parametrize("spec", ss.catalog_specs() + _EXTRA_MAP_SPECS, ids=repr)
    def test_every_family_passes(self, spec):
        rep = check_scaling_maps(spec)
        assert rep.passed and rep.name == "scaling_maps"
        assert rep.details["times"] == list(verify_module._LAMPERTI_TIMES)
        assert len(rep.residuals) == len(verify_module._LAMPERTI_TIMES)
        assert rep.max_residual < 1e-12

    def test_mixed_lfsm_exponents(self):
        rep = check_scaling_maps(ss.MixedLfsm(1.5, 0.7, (((1.0, 0.0), 1.0), ((0.0, 1.0), 0.5))))
        assert rep.passed
        assert rep.details["beta1"] == pytest.approx(0.7 - 1.0 / 1.5)
        assert rep.details["beta2"] == 0.0

    def test_truncated_exponents(self):
        rep = check_scaling_maps(ss.TruncatedFractional(1.5, 0.5, 0.5))
        assert rep.passed
        assert rep.details["beta1"] == pytest.approx(0.5, abs=1e-12)
        assert rep.details["beta2"] == -0.5

    def test_chentsov_exponents(self):
        rep = check_scaling_maps(ss.Chentsov(1.25, 0.5))
        assert rep.passed
        assert rep.details["beta1"] == pytest.approx(0.0, abs=1e-12)
        assert rep.details["beta2"] == -0.5

    def test_exponents_reported(self):
        for spec in (ss.MixedLfsm(1.5, 0.7, (((1.0, 0.0), 1.0),)),
                     ss.TruncatedFractional(1.5, 0.5, 0.5), ss.Chentsov(1.25, 0.5)):
            d = check_scaling_maps(spec).details
            assert d["hurst"] == spec.hurst_exponent()
            assert (d["g"], d["h"]) == spec.scaling_maps()[2:]

    def test_log_fractional_needs_the_shifted_grid(self):
        # f(cu) = log c + f(u) fails only at u = 0, where the profile is
        # assigned 0; the fixture's shifts never put t - s or -s there, and
        # the unshifted grid, which holds s = 0 and s = t, breaks the identity
        fix = lamperti_identity_fixture(ss.LogFractional(1.5))
        assert check_kernel_identity(fix).max_residual < 1e-15
        on_kink = check_kernel_identity(dataclasses.replace(fix, points=fix.points - 0.125))
        assert on_kink.max_residual == pytest.approx(math.log(4.0))

    def test_wrong_flow_fails(self):
        class Misdeclared(ss.TruncatedFractional):
            def scaling_maps(self):
                xs, exponent, g, h = super().scaling_maps()
                return xs, exponent, 0.5 * g, h

        rep = check_scaling_maps(Misdeclared(1.5, 0.5, 0.5))
        assert not rep.passed
        # psi_1 is the identity, so only t = 1 agrees
        assert rep.residuals[2] == 0.0 and min(rep.residuals[:2] + rep.residuals[3:]) > 0.1

    def test_wrong_hurst_fails(self):
        rep = check_scaling_maps(_OffHurstLfsm(1.5, 0.7))
        assert not rep.passed
        assert rep.residuals[2] == 0.0 and rep.max_residual > 1e-2

    def test_zero_kernel_fails(self):
        rep = check_scaling_maps(_ZeroLfsm(1.5, 0.7))
        assert not rep.passed and rep.max_residual == 0.0

    def test_unsupported_family(self):
        spec = increment_process(ss.Lfsm(1.5, 0.7), 1.0)
        with pytest.raises(UnsupportedFamilyError):
            check_scaling_maps(spec)
        with pytest.raises(UnsupportedFamilyError):
            lamperti_identity_fixture(spec)


class TestScalingFlowsAreLampertiFlows:
    """Each declared scaling flow, in the Lamperti form of
    ``lamperti_identity_fixture``, is one of ``flows``' Lamperti-side flows
    at u = log t: phi_{log t} = psi_{1/t} with derivative rho_{log t}."""

    @pytest.mark.parametrize("spec", [s for s in ss.catalog_specs()
                                      if not isinstance(s, ss.RotatingAverage)], ids=repr)
    def test_shifts_dilate(self, spec):
        flow = dilation_flow()
        xs, phi, rho, exponents = verify_module._lamperti_flow(spec)
        s = np.linspace(-4.0, 4.0, 17) + 0.125
        for t in verify_module._LAMPERTI_TIMES:
            moved = phi(t, s if xs is None else (np.asarray(xs, dtype=float)[:, None], s))
            np.testing.assert_allclose(flow.apply(math.log(t), s),
                                       moved if xs is None else moved[1], rtol=1e-15)
            if xs is not None:  # the radial coordinate dilates at rate g
                np.testing.assert_allclose(moved[0][:, 0], flow.apply(exponents["g"] * math.log(t), xs),
                                           rtol=1e-15)
            # the radial density x^e contributes t^-beta2 to the derivative
            np.testing.assert_allclose(flow.rn_derivative(math.log(t), s) * t ** -exponents["beta2"],
                                       rho(t), rtol=1e-15)

    def test_rotating_scales_its_radius(self):
        spec = ss.catalog_specs()[-1]
        xs, phi, rho, _ = verify_module._lamperti_flow(spec)
        flow = circle_scaling_flow(spec.beta)
        angles = np.linspace(0.0, 6.0, len(xs))
        for t in verify_module._LAMPERTI_TIMES:
            x, s = phi(t, (np.asarray(xs), angles))
            moved = flow.apply(math.log(t), np.column_stack([angles, xs]))
            np.testing.assert_array_equal(moved[:, 0], s)
            np.testing.assert_allclose(moved[:, 1], x, rtol=1e-15)
            np.testing.assert_allclose(flow.rn_derivative(math.log(t), moved), rho(t), rtol=1e-15)


FLOW_SPECS = (*ss.catalog_specs(), increment_process(ss.Lfsm(1.5, 0.7), 1.0),
              increment_process(ss.catalog_specs()[-1], 1.0),
              increment_process(ss.Chentsov(1.25, 0.5), 1.0))


class _ForwardShiftLfsm(ss.Lfsm):
    def flow(self, t, points):
        return points + t


class _ForwardShiftChentsov(ss.Chentsov):
    def flow(self, t, points):
        x, s = points
        return x, s + t


class _BackwardRotating(ss.RotatingAverage):
    def flow(self, t, points):
        x, s = points
        return x, s - t * x


class TestKernelIdentity:
    def test_rotating_form_residual_zero(self):
        g = ss.FourierSeries(((1, 1.0, 0.0), (3, 0.4, -0.2)))
        rep = check_kernel_identity(rotating_identity_fixture(g))
        assert rep.passed
        assert rep.max_residual < 1e-10

    def test_rotating_at_t_zero_both_sides_vanish(self):
        g = ss.FourierSeries(((1, 1.0, 0.0),))
        fix = rotating_identity_fixture(g)
        assert np.max(np.abs(fix.lhs(0.0, fix.points))) == 0.0
        assert np.max(np.abs(fix.rhs(0.0, fix.points))) == 0.0

    @pytest.mark.parametrize("spec", FLOW_SPECS, ids=repr)
    def test_flow_form_of_every_spec(self, spec):
        # the shift-coordinate flows move t into the field's own t - s
        # exactly; the rotation goes through the field's angle addition.  The
        # form holds on the fixture's factored sim_cells points and on the
        # flat sim_grid points of the same cells alike
        fix = flow_identity_fixture(spec)
        flat = dataclasses.replace(fix, points=spec.sim_grid(0.0, max(fix.times), 1)[0])
        rotating = isinstance(getattr(spec, "source", spec), ss.RotatingAverage)
        for fixture in (fix, flat):
            rep = check_kernel_identity(fixture)
            assert rep.passed and rep.name == f"kernel_identity[{spec.label}_flow_form]"
            assert rep.max_residual < 1e-10 if rotating else rep.max_residual == 0.0

    @pytest.mark.parametrize("spec", [_ForwardShiftLfsm(1.5, 0.7),
                                      _ForwardShiftChentsov(1.25, 0.5),
                                      _BackwardRotating(1.5, 0.8, ss.FourierSeries(((1, 1.0, 0.0),)))],
                             ids=["lfsm", "chentsov", "rotating"])
    def test_wrongly_declared_flow_fails(self, spec):
        rep = check_kernel_identity(flow_identity_fixture(spec))
        assert not rep.passed and rep.residuals[0] == 0.0 and rep.max_residual > 0.1

    def test_lamperti_form_residual(self):
        rep = check_kernel_identity(lamperti_identity_fixture(ss.Lfsm(1.5, 0.7, 1.0, 0.5)))
        assert rep.passed and rep.name == "kernel_identity[lfsm_lamperti_form]"
        assert rep.max_residual < 1e-12


class TestMcCheck:
    def test_linear_motion_agrees(self):
        k = ss.build(ss.LinearMotion(1.5))
        times = sorted({t for c in default_probes() for t in c.times})
        ens = ss.simulate(k, times, 4000, seed=3)
        rep = mc_distribution_check(ens, k)
        assert rep.passed

    def test_zero_theta_probe_residual_zero(self):
        k = ss.build(ss.LinearMotion(1.5))
        ens = ss.simulate(k, [1.0], 100, seed=1)
        rep = mc_distribution_check(ens, k, combos=[ss.combo((0.0, 1.0))])
        assert rep.residuals[0] == 0.0

    def test_mismatched_kernel_fails(self):
        k = ss.build(ss.LinearMotion(1.5))
        wrong = ss.build(ss.Lfsm(1.5, 0.3))
        times = sorted({t for c in default_probes() for t in c.times})
        ens = ss.simulate(k, times, 4000, seed=3)
        rep = mc_distribution_check(ens, wrong)
        assert not rep.passed


class TestRunSuite:
    def test_si_ss_suite(self):
        reports = run_suite(ss.Lfsm(1.5, 0.7), ("si", "ss"))
        assert [r.name for r in reports] == ["stationary_increments", "self_similarity"]
        assert all(r.passed for r in reports)

    def test_scaling_skipped_for_undeclared_family(self):
        reports = run_suite(increment_process(ss.Lfsm(1.5, 0.7), 1.0), ("scaling",))
        assert reports[0].passed and "skipped" in reports[0].details

    @pytest.mark.parametrize("spec", ss.catalog_specs(), ids=repr)
    def test_kernel_identity_on_every_catalog_spec(self, spec):
        (rep,) = run_suite(spec, ("kernel-identity",))
        assert rep.passed and rep.name == f"kernel_identity[{spec.label}_flow_form]"
        assert len(rep.residuals) == 4 and "skipped" not in rep.details

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            run_suite(ss.Lfsm(1.5, 0.7), ("nope",))

    def test_every_name_checked_before_any_suite_runs(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("the SI check ran before the names were checked")

        monkeypatch.setattr(verify_module, "check_stationary_increments", fail)
        with pytest.raises(ValueError, match="unknown check 'nope'"):
            run_suite(ss.TruncatedFractional(1.5, 0.5, 0.5), ("si", "nope"))
