import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablesim as ss
from stablesim import io as sio
from stablesim.kernels import (
    _circle_moment,
    _power_plus,
    _trunc_f,
    _truncated_bounds,
    integral_I,
    truncated_region,
)
from stablesim.quadrature import cells_from_edges, shell_tail, shift_partition
from stablesim.transforms import IncrementProcess, increment_process
from stablesim.verify import check_self_similar, check_stationary_increments, default_probes

# Per catalog spec: the digest of its JSON document, which ensemble sidecars
# carry, and the level-1 sigma^alpha of X_1, which fixes its kernel and grid.
CATALOG_PINS = (
    ("2f45226a4d7470b2", 0.9741295742899339),
    ("18fb62a37272635a", 1.0),
    ("4185d25f1e50be31", 8.882696916960274),
    ("9c7f542b712e909a", 1.4611943614349001),
    ("4358501a1db644a3", 8.300882504374272),
    ("bf2cf9886fd89d83", 11.310571137710408),
    ("c0460bd3d8de38b1", 10.987826671305495),
    ("d7395aa1883b7d9d", 12.515319894365344),
)
CATALOG = list(zip(ss.catalog_specs(), CATALOG_PINS))
CATALOG_IDS = [f"{i}-{type(s).__name__}" for i, s in enumerate(ss.catalog_specs())]


class TestValidate:
    def test_truncated_outside_region(self):
        rep = ss.validate(ss.TruncatedFractional(1.5, 0.5, 0.9))
        assert not rep.ok
        assert "b < alpha*a" in rep.violations[0]

    def test_truncated_alpha_at_most_one_with_positive_a(self):
        rep = ss.validate(ss.TruncatedFractional(1.0, 0.5, 0.2))
        assert not rep.ok

    def test_mixed_lfsm_admissible(self):
        rep = ss.validate(ss.MixedLfsm(1.5, 0.5, (((1.0, 1.0), 1.0),)))
        assert rep.ok and rep.hurst == 0.5

    def test_mixed_lfsm_without_atoms_named(self):
        rep = ss.validate(ss.MixedLfsm(1.5, 0.5, ()))
        assert rep.violations == ("requires at least one mixing atom",)

    def test_lfsm_hurst_range(self):
        assert not ss.validate(ss.Lfsm(1.5, 1.2)).ok
        assert not ss.validate(ss.Lfsm(1.5, 0.0)).ok

    def test_lfsm_hurst_equal_inverse_alpha_redirects(self):
        rep = ss.validate(ss.Lfsm(1.5, 1.0 / 1.5))
        assert not rep.ok
        assert "LinearMotion" in rep.violations[0]

    def test_log_fractional_needs_alpha_above_one(self):
        assert not ss.validate(ss.LogFractional(0.9)).ok
        assert ss.validate(ss.LogFractional(1.5)).ok

    def test_chentsov_beta_range(self):
        assert ss.validate(ss.Chentsov(1.25, 0.5)).ok
        assert not ss.validate(ss.Chentsov(1.25, 1.0)).ok
        assert not ss.validate(ss.Chentsov(1.25, 0.0)).ok

    def test_rotating_beta_below_alpha(self):
        g = ss.FourierSeries(((1, 1.0, 0.0),))
        assert ss.validate(ss.RotatingAverage(1.5, 0.8, g)).ok
        assert not ss.validate(ss.RotatingAverage(1.5, 1.6, g)).ok

    def test_alpha_domain_open_at_two(self):
        assert not ss.validate(ss.Lfsm(2.0, 0.7)).ok
        assert not ss.validate(ss.Chentsov(2.5, 0.5)).ok

    def test_alpha_zero_is_a_violation_not_an_error(self):
        for spec in (ss.Lfsm(0.0, 0.7), ss.MixedLfsm(0, 0.7, (((1.0, 0.0), 1.0),))):
            rep = ss.validate(spec)
            assert not rep.ok and "0 < alpha < 2" in rep.violations[0]

    def test_build_refuses_invalid(self):
        with pytest.raises(ss.InvalidSpecError):
            ss.build(ss.TruncatedFractional(1.5, 0.5, 0.9))

    @pytest.mark.parametrize("args, message", [
        ((1.5, 0.5, 0.9), "requires max(0, alpha*a-alpha+1) < b < alpha*a, i.e. 0.25 < b < 0.75; "
                          "got b=0.9"),
        ((1.5, -0.5, -0.8), "requires max(alpha*a, alpha*a-alpha+1) < b < min(0, alpha*a+1), "
                            "i.e. -0.75 < b < 0; got b=-0.8"),
        ((0.5, -0.5, -0.2), "requires max(alpha*a, alpha*a-alpha+1) < b < min(0, alpha*a+1), "
                            "i.e. 0.25 < b < 0; got b=-0.2"),
    ], ids=["a>0", "a<0", "a<0-alpha<1"])
    def test_truncated_region_violation_text(self, args, message):
        assert ss.validate(ss.TruncatedFractional(*args)).violations == (message,)

    @pytest.mark.parametrize("atoms, message", [
        ((((0.0, 0.0), 1.0), ((0.0, 0.0), 2.0)), "requires at least one atom with b != 0"),
        ((((1.0, 0.0), 1.0), ((0.0, 1.0), 0.0)), "requires all atom weights > 0"),
        ((((1.0, 0.0), -1.0),), "requires all atom weights > 0"),
    ], ids=["zero-b", "zero-weight", "negative-weight"])
    def test_mixed_lfsm_atoms(self, atoms, message):
        assert ss.validate(ss.MixedLfsm(1.5, 0.7, atoms)).violations == (message,)

    def test_rotating_needs_nonzero_profile(self):
        rep = ss.validate(ss.RotatingAverage(1.5, 0.8, ss.FourierSeries(((1, 0.0, 0.0),), 1.0)))
        assert rep.violations == ("requires a nonzero Fourier profile",)


class TestSameLaw:
    def test_mixed_lfsm_unequal_alpha(self):
        atoms = (((1.0, 0.0), 1.0),)
        doc = ss.MixedLfsm(1.5, 0.7, atoms).same_law(ss.MixedLfsm(1.2, 0.7, atoms))
        assert doc["kind"] == "mixed_lfsm" and doc["equal_in_law"] is False

    def test_rotating_unequal_alpha(self):
        g = ss.FourierSeries(((1, 1.0, 0.0),))
        doc = ss.RotatingAverage(1.5, 0.8, g).same_law(ss.RotatingAverage(1.2, 0.8, g))
        assert doc == {"kind": "rotating_average", "equal_in_law": False}


class TestTwoSidedProfile:
    U = np.array([-np.inf, -2.0, -1e-300, -0.0, 0.0, 1e-300, 3.0, np.inf, np.nan])

    @pytest.mark.parametrize("c_plus, c_minus", [(1.0, 0.0), (0.0, 1.0), (2.0, -0.5), (-1.0, 0.0)])
    def test_linear_motion_is_the_indicator(self, c_plus, c_minus):
        # lfsm's profile at H = 1/alpha, bit for bit the indicator form
        want = np.zeros_like(self.U)
        if c_plus != 0.0:
            want += c_plus * (self.U > 0.0)
        if c_minus != 0.0:
            want += c_minus * (self.U < 0.0)
        got = ss.LinearMotion(1.5, c_plus, c_minus).profile(self.U)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("c_plus, c_minus", [(1.0, 0.0), (0.0, 1.0)])
    def test_lfsm_zero_coefficient_skipped(self, c_plus, c_minus):
        # with g > 0, 0 * inf^g would be nan at u = -inf or +inf
        f = ss.Lfsm(1.5, 0.9, c_plus, c_minus).profile(np.array([-np.inf, np.inf]))
        assert sorted(f.tolist()) == [0.0, np.inf]


class TestHurst:
    def test_truncated_formula(self):
        assert ss.TruncatedFractional(1.5, 0.5, 0.5).hurst_exponent() == pytest.approx(5.0 / 6.0)

    def test_chentsov_values(self):
        assert ss.Chentsov(1.25, 0.5).hurst_exponent() == pytest.approx(0.4)
        # H above one is reachable when alpha < 1
        assert ss.Chentsov(0.5, 0.6).hurst_exponent() == pytest.approx(1.2)

    def test_h_equals_inverse_alpha_families(self):
        assert ss.LinearMotion(1.5).hurst_exponent() == pytest.approx(2.0 / 3.0)
        assert ss.LogFractional(1.5).hurst_exponent() == pytest.approx(2.0 / 3.0)

    def test_mixed_weight_rescaling_invariance(self):
        atoms1 = (((1.0, 0.0), 1.0), ((0.0, 1.0), 0.5))
        atoms2 = tuple((b, 7.0 * w) for b, w in atoms1)
        assert ss.MixedLfsm(1.5, 0.7, atoms1).hurst_exponent() == ss.MixedLfsm(1.5, 0.7, atoms2).hurst_exponent()


class TestBuild:
    def test_lfsm_positive_part_only(self):
        k = ss.build(ss.Lfsm(1.5, 0.7, 1.0, 0.0))
        # f(t) = t_+^(H - 1/alpha): zero at negative argument
        pts = np.array([-1.0])
        # increment at t=-1, s=0... kernel increment at s slightly left of -1
        val = k.eval(-1.0, np.array([-2.0]))
        g = 0.7 - 1.0 / 1.5
        expected = 1.0**g - 2.0**g
        assert val[0] == pytest.approx(expected, rel=1e-12)
        assert k.eval(-1.0, np.array([0.5]))[0] == 0.0

    def test_chentsov_increment_cancels(self):
        k = ss.build(ss.Chentsov(1.25, 0.5))
        pts = (np.array([2.0]), np.array([0.5]))  # (x, s)
        assert k.eval(1.0, pts)[0] == 0.0

    def test_truncated_hand_value(self):
        k = ss.build(ss.TruncatedFractional(1.5, 0.5, 0.5))
        pts = (np.array([10.0]), np.array([-1.0]))  # (p, s)
        assert k.eval(1.0, pts)[0] == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-12)

    def test_truncated_negative_a_convention(self):
        # for a < 0 the truncation caps the blowup at u = 0: max(u, p)^a
        k = ss.build(ss.TruncatedFractional(1.5, -0.5, -0.2))
        pts = (np.array([0.5]), np.array([-1.0]))  # (p, s)
        expected = max(2.0, 0.5) ** -0.5 - max(1.0, 0.5) ** -0.5
        assert k.eval(1.0, pts)[0] == pytest.approx(expected, rel=1e-12)

    def test_stochastic_continuity(self):
        for spec in (ss.Lfsm(1.5, 0.7), ss.Chentsov(1.25, 0.5),
                     ss.TruncatedFractional(1.5, 0.5, 0.5)):
            k = ss.build(spec)
            vals = [ss.cf_exponent(k, ss.combo((1.0, t)), level=1).expect()
                    for t in (1.0, 0.1, 0.01)]
            assert vals[0] > vals[1] > vals[2]
            assert vals[2] < 0.12 * vals[0]

    def test_mixture_degenerates_to_pure_lfsm(self):
        pure = ss.build(ss.Lfsm(1.5, 0.7, 1.0, 0.0))
        mixed = ss.build(ss.MixedLfsm(1.5, 0.7, (((1.0, 0.0), 1.0),)))
        for c in (ss.combo((1.0, 1.0)), ss.combo((1.0, 0.5), (-0.5, 2.0))):
            a = ss.cf_exponent(pure, c, level=2).expect()
            b = ss.cf_exponent(mixed, c, level=2).expect()
            assert b == pytest.approx(a, rel=1e-9)


class TestCatalog:
    @pytest.mark.parametrize("spec, pin", CATALOG, ids=CATALOG_IDS)
    def test_spec_digest_pinned(self, spec, pin):
        assert sio.spec_digest(sio.spec_to_dict(spec)) == pin[0]

    @pytest.mark.parametrize("spec, pin", CATALOG, ids=CATALOG_IDS)
    def test_level1_cf_exponent_pinned(self, spec, pin):
        value = ss.cf_exponent(ss.build(spec), default_probes()[0], level=1).value
        assert value == pytest.approx(pin[1], rel=1e-12)

    def test_every_family_has_a_catalog_spec_and_round_trips(self):
        specs = {type(s): s for s in ss.catalog_specs()}
        for name, family in ss.FAMILIES.items():
            spec = specs[family]
            assert spec.label == name
            assert family.from_doc(spec.to_doc()) == spec


def chentsov_sigma_exact(alpha, beta, terms):
    """Independent oracle: the shift-measure of the indicator combination is
    piecewise linear in the radius, so the radial integral has a closed form."""
    taus = sorted({t for _, t in terms} | {0.0})
    thetas = {t: 0.0 for t in taus}
    for th, t in terms:
        thetas[t] += th
    thetas[0.0] -= sum(th for th, _ in terms)

    def m(x):
        pts = sorted({t - x for t in taus} | {t + x for t in taus})
        total = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            mid = 0.5 * (lo + hi)
            v = sum(th * (abs(mid - t) < x) for t, th in thetas.items())
            total += abs(v) ** alpha * (hi - lo)
        return total

    breaks = sorted({abs(ti - tj) / 2.0 for ti in taus for tj in taus if ti != tj} | {1e-9})
    total = 0.0
    # piece below the first break: m is linear through the origin
    x1 = breaks[0]
    total += m(x1) / x1 * x1 ** beta / beta
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        mlo, mhi = m(lo), m(hi)
        slope = (mhi - mlo) / (hi - lo)
        const = mlo - slope * lo
        # integral of (const + slope x) x^(beta-2)
        total += const * (hi ** (beta - 1.0) - lo ** (beta - 1.0)) / (beta - 1.0)
        total += slope * (hi**beta - lo**beta) / beta
    # constant tail piece
    mlast = m(breaks[-1])
    total += mlast * breaks[-1] ** (beta - 1.0) / (1.0 - beta)
    return total


MASANI_SPECS = (*ss.catalog_specs(), increment_process(ss.Lfsm(1.5, 0.7), 1.0))
MASANI_IDS = [f"{i}-{type(s).__name__}" for i, s in enumerate(MASANI_SPECS)]
MASANI_TIMES = (1.0, 0.0, 2.5, 0.5)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def _masani_layouts(k):
    """Factored cf_cells points, flat cf_grid points and flat sim_grid points."""
    return (k.cf_cells(MASANI_TIMES, 1)[0], k.cf_grid(MASANI_TIMES, 1)[0],
            k.sim_grid(min(MASANI_TIMES), max(MASANI_TIMES), 1)[0])


def _pre_field_eval(k, t, pts):
    """K(t, .) written out as each family computed it before families
    supplied their field F(t, .): F(t, .) and F(0, .) evaluated separately,
    F(0, .) at the negated shift."""
    if isinstance(k, IncrementProcess):
        return _pre_field_eval(k.source, t + k.lag, pts) - _pre_field_eval(k.source, t, pts)
    if isinstance(k, (ss.Lfsm, ss.LinearMotion, ss.LogFractional)):
        return k.profile(t - pts) - k.profile(-pts)
    r, s = pts
    if isinstance(k, ss.MixedLfsm):
        g = k.hurst - 1.0 / k.alpha
        b1 = np.array([b[0] for b, _ in k.atoms])[r.astype(int)]
        b2 = np.array([b[1] for b, _ in k.atoms])[r.astype(int)]
        u1, u0 = t - s, -s
        return ((b1 * _power_plus(u1, g) + b2 * _power_plus(-u1, g))
                - (b1 * _power_plus(u0, g) + b2 * _power_plus(-u0, g)))
    if isinstance(k, ss.TruncatedFractional):
        return _trunc_f(t - s, r, k.a) - _trunc_f(-s, r, k.a)
    assert isinstance(k, ss.Chentsov)
    return (np.abs(t - s) < r).astype(float) - (np.abs(s) < r).astype(float)


class TestMasaniForm:
    @pytest.mark.parametrize("spec", MASANI_SPECS, ids=MASANI_IDS)
    def test_evals_match_eval_bit_for_bit(self, spec):
        k = ss.build(spec)
        for pts in _masani_layouts(k):
            got = list(k.evals(MASANI_TIMES, pts))
            assert len(got) == len(MASANI_TIMES)
            for t, v in zip(MASANI_TIMES, got):
                assert np.array_equal(_bits(v), _bits(k.eval(t, pts))), t

    @pytest.mark.parametrize("spec", [pytest.param(s, id=i) for s, i in zip(MASANI_SPECS, MASANI_IDS)
                                      if not isinstance(s, ss.RotatingAverage)])
    def test_eval_matches_pre_field_formula(self, spec):
        k = ss.build(spec)
        for pts in _masani_layouts(k):
            for t in MASANI_TIMES:
                assert np.array_equal(_bits(k.eval(t, pts)), _bits(_pre_field_eval(k, t, pts))), t

    def test_evals_of_no_times_is_empty(self):
        assert list(ss.Lfsm(1.5, 0.7).evals([], np.array([0.5]))) == []

    def test_rotating_angle_addition_accuracy(self):
        # The field sums harmonics a cos(k(s + tx)) + b sin(k(s + tx)) by angle
        # addition, the direct series evaluates trig at fl(k fl(s + fl(tx))).
        # With u = fl(tx) shared and eps = 2**-53: the direct argument is off
        # by <= 2.01 eps k |s + u|; the angle form's arguments fl(k u) and
        # fl(k s) by <= eps k |u| and eps k |s|, and each of its factors
        # (a c + b d), cos(ks) has <= 3 roundings besides libm's <= 1 ulp, so a
        # harmonic of weight w = |a| + |b| differs by <= w (4.1 eps k (|u| + |s|)
        # + 13 eps) between the two forms, at t and again at t = 0.  Summing
        # the H harmonics and the constant adds <= (H + 1) eps W per form and
        # the final subtraction 2 eps W, W = |constant| + sum of w.  Hence
        # |eval - direct| <= eps (sum_k w_k (4.1 k (|u| + 4 pi) + 26) + (2H + 6) W),
        # with |s| < 2 pi; at |tx| = 1e6 and k = 5 that is about 2e-9.
        series = ss.FourierSeries(((1, 0.7, -0.4), (2, 0.0, 1.3), (5, -0.25, 0.6)), 0.9)
        k = ss.RotatingAverage(1.5, 0.8, series)
        x = np.geomspace(1e-4, 1e4, 41)[:, None]
        s = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)[None, :]
        eps = 2.0 ** -53
        w = [(kk, abs(a) + abs(b)) for kk, a, b in series.terms]
        W = abs(series.constant) + sum(wk for _, wk in w)
        for t in (-100.0, -3.7, 0.0, 0.3, 1.0, 25.0, 100.0):
            u = np.abs(t * x)
            bound = eps * (sum(wk * (4.1 * kk * (u + 4.0 * np.pi) + 26.0) for kk, wk in w)
                           + (2 * len(w) + 6) * W)
            err = np.abs(k.eval(t, (x, s)) - (series(s + t * x) - series(s)))
            assert np.all(err <= bound), (t, float(np.max(err / bound)))
        assert np.max(np.abs(100.0 * x)) == pytest.approx(1e6)

    @pytest.mark.parametrize("series", (
        ss.FourierSeries(((1, 1.0, 0.0), (2, 0.3, 0.1))),
        ss.FourierSeries(((1, 0.7, -0.4), (2, 0.0, 1.3), (5, -0.25, 0.6)), 0.9)),
        ids=("two-harmonics", "three-harmonics"))
    def test_rotating_combination_accuracy(self, series):
        # ``combination`` sums radial coefficients (a c + b d) - a, (b c - a d) - b
        # over the terms and takes one product with cos(ks), sin(ks); the term
        # loop sums fields F(t) - F(0).  Both use the same c, d = cos, sin(fl(k
        # fl(t x))) and cos, sin(fl(k s)) (numpy's trig gives one value per
        # argument in any layout), so only the roundings differ.  To first order
        # in eps = 2**-53, with w = |a| + |b| per harmonic, W their sum, H the
        # harmonics, J the terms, Theta = sum_j |theta_j| and c0 the constant:
        # - loop: a c + b d is off by <= 2 eps w, its product with cos(ks) by
        #   3 eps w (likewise with sin(ks)), so F(t) is off by <= 6 eps W plus
        #   2H eps (|c0| + 2W) from its 2H additions, and F(0) (c = 1, d = 0)
        #   by <= eps W + 2H eps (|c0| + 2W); the difference, of size <= 3W,
        #   adds 3 eps W; scaling by theta and J - 1 additions add 3 eps Theta W
        #   each.  In all eps Theta ((3J + 10 + 8H) W + 4H |c0|).
        # - combination: a term (a c + b d) - a is off by <= 4 eps w before and
        #   6 eps |theta| w after scaling, so with J - 1 additions each C_k, S_k
        #   is off by <= 2 eps Theta w (J + 2), and |C_k|, |S_k| <= 2 Theta w.
        #   The 2H coefficients carry 4 eps Theta W (J + 2) into the product,
        #   whose 2H roundings add 4 eps Theta W and 2H - 1 additions
        #   (2H - 1) 4 eps Theta W.  In all eps Theta W (4J + 8H + 8).
        # Hence |combination - sum_j theta_j eval(t_j)| <=
        # eps Theta ((7J + 16H + 18) W + 4H |c0|) per cell.  Checked on every
        # eighth radial row of the level-1 and level-2 grids.  (A one-harmonic
        # profile has no shift grid: TestRotatingClosedForm.)
        k = ss.RotatingAverage(1.5, 0.8, series)
        eps = 2.0 ** -53
        H = len(series.terms)
        W = sum(abs(a) + abs(b) for _, a, b in series.terms)
        si = [c.shifted_increments(h) for c in default_probes() for h in (0.0, 0.5, 1.0, 2.0, 5.0)]
        ss_probes = [c.scaled_times(sc) for c in default_probes() for sc in (0.25, 0.5, 1.0, 2.0, 4.0)]
        for level in (1, 2):
            (x, s), masses = k.cf_cells((1.0,), level)
            pts = (x[::8], s)
            for c in si + ss_probes:
                terms = [(theta, t) for theta, t in c.terms if theta != 0.0]
                got = np.empty((pts[0].shape[0], s.shape[1]))
                k.combination(terms, pts, got)
                loop = sum(theta * k.eval(t, pts) for theta, t in terms)
                J, theta_sum = len(terms), sum(abs(theta) for theta, _ in terms)
                bound = eps * theta_sum * ((7 * J + 16 * H + 18) * W + 4 * H * abs(series.constant))
                err = np.max(np.abs(got - loop))
                assert err <= bound, (level, c, err / bound)

    def test_rotating_checks_keep_their_residuals(self):
        # the catalog rotating spec has one harmonic, so its shift integral is
        # closed form and absorbs the rotation by h x of a shifted probe: its
        # stationary-increment residuals are rounding, and its self-similarity
        # residuals are pinned
        ss_ = (0.0001265067282933685, 0.0002541044507188561, 9.901621535857164e-05,
               0.0003338044048160904, 0.0005192504802527254, 0.0005088980091080136,
               0.0001802300411696267, 0.000151878617806675)
        k = ss.build(ss.catalog_specs()[-1])
        si, report = check_stationary_increments(k), check_self_similar(k)
        assert si.passed and si.max_residual < 1e-15
        assert report.passed
        assert np.max(np.abs(np.array(report.residuals) - ss_)) <= 1e-12


def _rotating_full_grid(kernel, combo, level, refine=1):
    """sigma^alpha of a probe of a one-harmonic rotating kernel (or of an
    increment process of one) on the full (radial, shift) product: the
    radial cells of its closed-form ``cf_cells``, masses divided by c_alpha,
    times 128 * 2^level * refine midpoint cells of [0, 2 pi), with
    |sum_j theta_j eval(t_j)|^alpha summed 64 radial rows at a time."""
    (x, _), masses = kernel.cf_cells(combo.times, level)
    radial = masses[:, 0] / _circle_moment(kernel.alpha)
    s, w = cells_from_edges(np.linspace(0.0, 2.0 * np.pi, 128 * 2 ** level * refine + 1))
    total = 0.0
    for r0 in range(0, x.shape[0], 64):
        rows = slice(r0, r0 + 64)
        acc = sum(theta * kernel.eval(t, (x[rows], s[None, :])) for theta, t in combo.terms)
        total += float(np.sum(np.abs(acc) ** kernel.alpha * np.multiply.outer(radial[rows], w)))
    return total


_CLOSED_FORM_PROBES = (default_probes()[0], default_probes()[3].shifted_increments(2.0),
                       default_probes()[5], default_probes()[6].scaled_times(4.0))


class TestRotatingClosedForm:
    """With one active harmonic k the probe is R(x) cos(k s - phi(x)), whose
    |.|^alpha integrates over [0, 2 pi) to R(x)^alpha c_alpha: ``cf_cells``
    keeps the radial cells only, and ``combination`` writes R(x)."""

    # (k, alpha, beta, (cos, sin), refine): the midpoint rule errs by
    # O(h^(1 + alpha)) at the kinks of |cos|^alpha, which on the
    # 128 * 2^level shift cells alone is up to 2.2e-5 at alpha 0.5 and 3.2e-6
    # at alpha 1, so there the reference refines the shift cells 16x and 4x
    # (measured: then below 2.5e-7 and 1e-7)
    CASES = ((1, 0.5, 0.3, (1.0, 0.0), 16), (3, 0.5, 0.2, (0.6, -0.8), 16),
             (1, 1.0, 0.5, (0.0, 1.0), 4), (3, 1.0, 0.8, (1.0, 0.0), 4),
             (1, 1.5, 0.8, (0.7, 0.4), 1), (3, 1.5, 1.2, (0.0, -1.0), 1),
             (1, 1.9, 1.7, (0.0, 1.0), 1), (3, 1.9, 0.4, (-0.5, 0.9), 1))

    @pytest.mark.parametrize("k, alpha, beta, coef, refine", CASES,
                             ids=[f"k{c[0]}-alpha{c[1]}-beta{c[2]}" for c in CASES])
    def test_matches_full_grid(self, k, alpha, beta, coef, refine):
        spec = ss.RotatingAverage(alpha, beta, ss.FourierSeries(((k, *coef),), 0.4))
        for level in (1, 2):
            masses = spec.cf_cells((1.0,), level)[1]
            assert masses.shape == (880 if level == 1 else 1392, 1)
            batch = ss.cf_exponents(spec, _CLOSED_FORM_PROBES, level)
            assert batch.grids == 1
            for value, c in zip(batch.values, _CLOSED_FORM_PROBES):
                assert value == pytest.approx(_rotating_full_grid(spec, c, level, refine), rel=1e-6)

    def test_more_harmonics_keep_the_shift_grid(self):
        for terms in (((1, 1.0, 0.0), (2, 0.3, 0.1)), ((2, 1.0, 0.0), (2, 0.0, 0.5))):
            spec = ss.RotatingAverage(1.5, 0.8, ss.FourierSeries(terms))
            for level in (1, 2):
                assert spec.cf_cells((1.0,), level)[1].shape == (
                    880 if level == 1 else 1392, 128 * 2 ** level)

    def test_circle_moment(self):
        assert _circle_moment(1.0) == pytest.approx(4.0, rel=1e-15)
        assert _circle_moment(2.0) == pytest.approx(math.pi, rel=1e-15)
        # c_alpha = 4 int_0^{pi/2} sin^alpha v dv, and v = (pi / 2) w^2 takes
        # the kink of |cos|^alpha out of the integrand, so a 2M-node midpoint
        # sum errs by O(h^2) only
        n = 2_000_000
        w = (np.arange(n) + 0.5) / n
        for alpha in (0.5, 1.5):
            midpoint = 4.0 * np.pi * float(np.sum(np.sin(0.5 * np.pi * w * w) ** alpha * w)) / n
            assert _circle_moment(alpha) == pytest.approx(midpoint, rel=1e-12)

    @pytest.mark.parametrize("series", (ss.FourierSeries(((1, 1.0, 0.0),)),
                                        ss.FourierSeries(((3, -0.6, 0.8),), 0.9)),
                             ids=("cos", "k3-mixed"))
    def test_amplitude_accuracy(self, series):
        # C(x) and S(x) are the probe at s = 0 and s = pi / (2k), where
        # cos(ks) is 0 to 6.2e-17 and sin(ks) 1.  Each differs from the
        # combination's coefficient by the per-cell bound B of
        # test_rotating_combination_accuracy (H = 1), S by 2 eps Theta W more,
        # and hypot moves by at most sqrt(2) times that plus an ulp of
        # R <= 2 sqrt(2) Theta W on each side: within 2B
        k = ss.RotatingAverage(1.5, 0.8, series)
        (h, a, b), = series.terms
        eps, W = 2.0 ** -53, abs(a) + abs(b)
        for level in (1, 2):
            pts, _ = k.cf_cells((1.0,), level)
            x, s = pts[0], np.array([[0.0, 0.5 * np.pi / h]])
            for c in _CLOSED_FORM_PROBES:
                terms = [(theta, t) for theta, t in c.terms if theta != 0.0]
                got = np.empty((x.shape[0], 1))
                k.combination(terms, pts, got)
                loop = sum(theta * k.eval(t, (x, s)) for theta, t in terms)
                J, theta_sum = len(terms), sum(abs(theta) for theta, _ in terms)
                bound = 2.0 * eps * theta_sum * ((7 * J + 34) * W + 4 * abs(series.constant))
                err = np.max(np.abs(got[:, 0] - np.hypot(loop[:, 0], loop[:, 1])))
                assert err <= bound, (level, c, err / bound)

    def test_increment_process_is_its_source_on_expanded_probes(self):
        rot = ss.catalog_specs()[-1]
        inc = increment_process(rot, 0.7)
        for level in (1, 2):
            got = ss.cf_exponents(inc, _CLOSED_FORM_PROBES, level).values
            expanded = [ss.LinearCombo(tuple(u for theta, t in c.terms
                                             for u in ((theta, t + 0.7), (-theta, t))))
                        for c in _CLOSED_FORM_PROBES]
            assert got == ss.cf_exponents(rot, expanded, level).values
            for value, c in zip(got, _CLOSED_FORM_PROBES):
                assert value == pytest.approx(_rotating_full_grid(inc, c, level), rel=1e-6)


class TestChentsovOracle:
    def test_quadrature_matches_closed_form(self):
        alpha, beta = 1.25, 0.5
        k = ss.build(ss.Chentsov(alpha, beta))
        for terms in [((1.0, 1.0),), ((1.0, 0.5), (-0.5, 2.0)), ((0.7, 1.0), (0.3, 3.0))]:
            exact = chentsov_sigma_exact(alpha, beta, terms)
            mine = ss.cf_exponent(k, ss.LinearCombo(terms), level=2).expect()
            assert mine == pytest.approx(exact, rel=2e-3)


class TestTruncatedCfCells:
    # probe time sets with negative times, and one left of 0 entirely
    TIMES = ((1.0,), (0.5, 2.0), (-1.0, 0.5), (-3.0, -1.0))
    SPECS = (ss.TruncatedFractional(1.5, 0.5, 0.5), ss.TruncatedFractional(1.5, -0.5, -0.2))

    @pytest.mark.parametrize("level", (1, 2))
    def test_no_shift_node_beyond_last_breakpoint(self, level):
        for times in self.TIMES:
            (_, s), _ = self.SPECS[0].cf_cells(times, level)
            assert s.max() < max(*times, 0.0)

    @pytest.mark.parametrize("spec", SPECS, ids=("a>0", "a<0"))
    def test_dropped_cells_are_exact_zeros(self, spec):
        # the grid is the full partition cut at max(times, 0); on every cell
        # right of the cut, K(t, .) is exactly 0 for every probe time
        for level in (1, 2):
            for times in self.TIMES:
                (r, s), _ = spec.cf_cells(times, level)
                full = shift_partition(sorted(set(times) | {0.0}), level,
                                       4.0 * 1e6 * 1e3 ** level, nodes_per_decade=10)
                kept = s.shape[1]
                assert np.array_equal(cells_from_edges(full[:kept + 1])[0], s[0])
                dropped = cells_from_edges(full[kept:])[0]
                assert dropped.size > 0 and dropped.min() >= max(*times, 0.0)
                for t in times:
                    # every radial node of the grid against every dropped shift
                    assert not spec.eval(t, (r.reshape(-1, 1), dropped[None, :])).any()

    @staticmethod
    def _value(spec, terms, points, masses):
        out = np.empty(masses.shape)
        spec.combination(terms, points, out)
        return float(np.sum(np.abs(out) ** spec.alpha * masses))

    @staticmethod
    def _fine_radial(spec, terms, s):
        """int_0^inf |sum_j theta_j K(t_j, (p, s))|^alpha p^(-1-b) dp from
        ``eval``, by 40-node Gauss-Legendre panels in log p at most two
        e-folds wide, split at the positive kinks and reaching 120 decades
        below the first and 60 above the last."""
        x, g = np.polynomial.legendre.leggauss(40)
        kinks = np.log([t - s for t in sorted({t for _, t in terms} | {0.0}) if t > s])
        lo, hi = kinks[0] - 120 * np.log(10.0), kinks[-1] + 60 * np.log(10.0)
        edges = np.unique(np.concatenate([kinks, np.arange(lo, kinks[0], 2.0),
                                          np.arange(kinks[-1], hi, 2.0), [hi]]))
        total = 0.0
        for y0, y1 in zip(edges[:-1], edges[1:]):
            p = np.exp(0.5 * (y0 + y1) + 0.5 * (y1 - y0) * x)
            v = sum(theta * spec.eval(t, (p, np.full_like(p, s))) for theta, t in terms)
            total += 0.5 * (y1 - y0) * np.sum(g * np.abs(v) ** spec.alpha * p ** -spec.b)
        return total

    @pytest.mark.parametrize("spec", SPECS, ids=("a>0", "a<0"))
    def test_columns_match_a_fine_radial_quadrature(self, spec):
        # columns whose radial integral is all closed form (one positive
        # kink), or nearly (the far tail, whose one Gauss panel spans
        # log(1 + t / |s|)): the cells' sum is the shift width times the
        # radial integral
        probes = {(1.0,): ((1.0, 1.0),), (0.5, 2.0): ((0.7, 0.5), (-0.3, 2.0)),
                  (-1.0, 0.5): ((1.0, -1.0), (0.5, 0.5))}
        for level in (1, 2):
            for times, terms in probes.items():
                (p, s), masses = spec.cf_cells(times, level)
                edges = shift_partition([*times, 0.0], level, 4e6 * 1e3 ** level,
                                        nodes_per_decade=10)
                widths = cells_from_edges(edges[:s.shape[1] + 1])[1]
                top = sorted({*times, 0.0})[-2:]
                between = int(np.argmin(np.abs(s[0] - 0.5 * (top[0] + top[1]))))
                # the far tail, just left of the last time, between the last two
                for j in (0, s.shape[1] - 1, between):
                    col = slice(j, j + 1)
                    mine = self._value(spec, terms, (p[:, col], s[:, col]), masses[:, col])
                    ref = widths[j] * self._fine_radial(spec, terms, s[0, j])
                    assert mine == pytest.approx(ref, rel=1e-10), (level, times, j)

    @pytest.mark.parametrize("spec", SPECS, ids=("a>0", "a<0"))
    def test_end_cells_are_exact_anywhere_inside(self, spec):
        # below the first positive kink q and above the last kink u_max,
        # |sum theta K|^alpha is |C|^alpha p^(alpha e): moving a cell's point
        # p to p' inside its end interval, with its mass times
        # (p / p')^(alpha e), changes no value
        rng = np.random.default_rng(3)
        e_lo, e_hi = (spec.a, 0.0) if spec.a > 0.0 else (0.0, spec.a)
        for level in (1, 2):
            for times in self.TIMES:
                (p, s), masses = spec.cf_cells(times, level)
                kinks = np.array(sorted({*times, 0.0}))[:, None] - s
                q = np.where(kinks > 0.0, kinks, np.inf).min(axis=0)
                low, high = p < q, p > kinks[-1]
                assert low[0].all() and high[-1].all()
                v = rng.uniform(0.01, 0.99, p.shape)
                moved = np.where(low, q * v, np.where(high, kinks[-1] / v, p))
                e = np.where(low, e_lo, e_hi)
                rescaled = np.where(low | high, masses * (p / moved) ** (spec.alpha * e), masses)
                for _ in range(3):
                    terms = [(theta, t) for theta, t in zip(rng.normal(size=len(times)), times)]
                    assert (self._value(spec, terms, (moved, s), rescaled)
                            == pytest.approx(self._value(spec, terms, (p, s), masses), rel=1e-13))

    @pytest.mark.parametrize("spec", SPECS, ids=("a>0", "a<0"))
    def test_no_empty_panel_where_kinks_meet(self, spec):
        # kinks equal in floating point, far out in the shift tail at levels
        # 3 to 5 or from times 1e-15 apart, leave no cell of zero mass
        probe = default_probes()[5].times
        for level in (3, 4, 5):
            for scale in (0.25, 1.0, 4.0):
                masses = spec.cf_cells([scale * t for t in probe], level)[1]
                assert np.isfinite(masses).all() and masses.min() > 0.0, (level, scale)
        t2 = 1.0 + 1e-15
        for level in (0, 1, 2):
            (_, s), masses = spec.cf_cells((1.0, t2), level)
            assert s.max() < t2 and masses.min() > 0.0
        # X_1 + X_{1 + 1e-15} is 2 X_1; its grid adds a cell 1e-15 wide at
        # the kink, whose midpoint share reads 2.7e-8 of the value for a < 0
        one = ss.cf_exponent(spec, ss.combo((1.0, 1.0)), level=1).value
        two = ss.cf_exponent(spec, ss.combo((1.0, 1.0), (1.0, t2)), level=1).value
        assert two == pytest.approx(2.0 ** spec.alpha * one, rel=1e-6)

    def test_masses_finite_and_positive_up_to_the_region_edges(self):
        for alpha in (0.5, 1.2, 1.5, 1.9):
            for a in (-0.9, -0.5, -0.1, 0.1, 0.5, 0.9):
                if a > 0.0 and alpha <= 1.0:
                    continue
                lo, hi, _ = _truncated_bounds(alpha, a)
                for frac in (1e-9, 0.5, 1.0 - 1e-9):
                    b = lo + frac * (hi - lo)
                    if not truncated_region(alpha, a, b):
                        continue
                    spec = ss.TruncatedFractional(alpha, a, b)
                    for level in (0, 1, 2):
                        for times in self.TIMES:
                            masses = spec.cf_cells(times, level)[1]
                            assert np.isfinite(masses).all() and masses.min() > 0.0, (
                                alpha, a, b, level, times)


class TestTruncatedSimCells:
    # windows (t_lo, t_hi): right of 0, across it, left of it
    WINDOWS = ((0.05, 3.0), (0.5, 2.0), (-1.0, 0.5), (-3.0, -1.0))
    SPECS = TestTruncatedCfCells.SPECS

    @pytest.mark.parametrize("spec", SPECS, ids=("a>0", "a<0"))
    def test_dropped_cells_are_exact_zeros(self, spec):
        # the grid is the full partition cut at max(t_hi, 0); on every cell
        # right of the cut, K(t, .) is exactly 0 for every time of the window
        for level in (0, 1, 2):
            for t_lo, t_hi in self.WINDOWS:
                (r, s), _ = spec.sim_cells(t_lo, t_hi, level)
                full = shift_partition([min(t_lo, 0.0), max(t_hi, 0.0)], level,
                                       4.0 * 1e4 * 10.0 ** level, base_nodes=64,
                                       nodes_per_decade=6)
                kept = s.shape[1]
                assert full[kept] == max(t_hi, 0.0)
                assert np.array_equal(cells_from_edges(full[:kept + 1])[0], s[0])
                dropped = cells_from_edges(full[kept:])[0]
                assert dropped.size > 0 and dropped.min() >= max(t_hi, 0.0)
                for t in np.linspace(t_lo, t_hi, 7):
                    assert not spec.eval(t, (r, dropped[None, :])).any()


def _probe_time_sets():
    """The default probes' time sets: as they are, shifted by 5, and negated."""
    sets = [tuple(c.times) for c in default_probes()]
    return [tuple(sign * t + shift for t in ts)
            for sign, shift in ((1.0, 0.0), (1.0, 5.0), (-1.0, 0.0)) for ts in sets]


class TestCellMasses:
    # every cell carries mass: a zero-mass cell adds nothing to an integral
    # or a path, yet costs its kernel evaluations
    SPECS = (*ss.catalog_specs(), increment_process(ss.Lfsm(1.5, 0.7), 1.0))
    IDS = (*CATALOG_IDS, "increment-Lfsm")

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_cf_cells_have_positive_masses(self, spec):
        k = ss.build(spec)
        for level in (0, 1, 2):
            for times in _probe_time_sets():
                _, masses = k.cf_cells(times, level)
                assert masses.min() > 0.0, (level, times)

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_sim_cells_have_positive_masses(self, spec):
        k = ss.build(spec)
        windows = {(min(ts), max(ts)) for ts in _probe_time_sets()} | {(-1.0, 0.5), (-3.0, 2.0)}
        for level in (0, 1, 2):
            for window in sorted(windows):
                _, masses = k.sim_cells(*window, level)
                assert masses.min() > 0.0, (level, window)


class TestShiftSimCells:
    # the geometric tails of the shift families' simulation edges end exactly
    # at the uniform core's ends: an edge that missed one by an ulp left a
    # cell about 4e-16 wide, whose nonzero mass made it live
    SPECS = (*ss.catalog_specs()[:4], increment_process(ss.Lfsm(1.5, 0.7), 1.0))
    IDS = (*CATALOG_IDS[:4], "increment-Lfsm")

    @pytest.mark.parametrize("spec", SPECS, ids=IDS)
    def test_no_sliver_cells(self, spec):
        lag = getattr(spec, "lag", 0.0)
        windows = np.sort(np.random.default_rng(7).uniform(-5.0, 5.0, (300, 2)), axis=1)
        for level in (0, 1, 2):
            for t_lo, t_hi in windows:
                _, masses = spec.sim_cells(t_lo, t_hi, level)
                # the catalog mixed_lfsm's first atom weighs 1: its row is the widths
                widths = masses.reshape(-1, masses.shape[-1])[0]
                span = max(max(t_hi + lag, 0.0) - min(t_lo, 0.0), 1.0)
                assert widths.min() >= 1e-12 * span, (level, t_lo, t_hi)


class TestIntegralI:
    @pytest.mark.parametrize("args, message", [
        ((1.5, math.nan, 0.5), "a must be a finite number"),
        ((1.5, 0.5, -math.inf), "b must be a finite number"),
        ((1.5, 0.5, 0.5, math.nan), "t must be a finite number"),
        ((1.5, 0.5, 0.5, math.inf), "t must be a finite number"),
        ((math.nan, 0.5, 0.5), "alpha must be a finite number"),
        ((2.0, 0.5, 0.5), r"alpha must lie in \(0, 2\)"),
        ((0.0, 0.5, 0.5), r"alpha must lie in \(0, 2\)"),
        ((1.5, 0.5, 0.5, 0.0), "t must be positive"),
    ])
    def test_bad_arguments_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            integral_I(*args)

    def test_frontier_without_mass(self):
        # at a = 1 the far shift tail carries no mass at any level: the
        # frontier reads 0 and finite, and the radial low end diverges, as
        # the closed form says
        r = integral_I(1.5, 1.0, 5.0)
        assert r.verdict == "divergent" and not truncated_region(1.5, 1.0, 5.0)
        assert r.frontiers["shift_far"] == 0.0

    def test_a_zero_always_divergent(self):
        for b in (-0.5, 0.0, 0.5):
            assert integral_I(1.5, 0.0, b).verdict == "divergent"

    def test_interior_point_finite_and_stable(self):
        r = integral_I(1.5, 0.5, 0.5)
        assert r.verdict == "finite"
        # value stabilized under the schedule (tail-extrapolated estimates)
        assert len(r.trace) >= 2
        assert abs(r.trace[-1] - r.trace[-2]) < 2e-3 * r.trace[-1]
        # cross-check against a direct wide-domain brute-force quadrature
        assert r.value == pytest.approx(8.322, rel=0.02)

    def test_negative_a_region(self):
        assert integral_I(1.5, -0.5, -0.2).verdict == "finite"
        assert integral_I(1.5, -0.5, -0.8).verdict == "divergent"

    def test_alpha_below_one_corrected_region(self):
        # inside the region as printed in the source material, but the far
        # shift tail diverges when alpha < 1 and b <= alpha*a - alpha + 1
        assert not truncated_region(0.5, -0.5, -0.2)
        assert integral_I(0.5, -0.5, -0.2).verdict == "divergent"
        # a properly admissible point for alpha < 1
        assert truncated_region(0.5, -2.0, -0.3)
        assert integral_I(0.5, -2.0, -0.3).verdict == "finite"

    @pytest.mark.parametrize("a, b", [(0.5, 0.5), (-0.5, -0.2), (0.9, 0.5)])
    def test_scales_as_t_to_alpha_H(self, a, b):
        # I(t) = t^(alpha H) I(1) with alpha H = alpha a - b + 1, so every t
        # has the t = 1 verdict; (0.9, 0.5) lies outside the region
        at_one = integral_I(1.5, a, b)
        assert at_one.verdict == ("finite" if truncated_region(1.5, a, b) else "divergent")
        for t in (1e-12, 1e-8, 4.5e-8, 1e-3, 0.5, 3.0, 1e4):
            r = integral_I(1.5, a, b, t)
            scale = t ** (1.5 * a - b + 1.0)
            assert r.verdict == at_one.verdict
            assert r.value == pytest.approx(scale * at_one.value, rel=1e-12)
            assert r.trace == pytest.approx([scale * v for v in at_one.trace], rel=1e-12)

    @pytest.mark.parametrize("t, trace", [
        (0.5, (3.4930907880365245, 3.4917630786589555)),
        (3.0, (32.801895174912076, 32.78942731007017)),
    ])
    def test_values_pinned(self, t, trace):
        # verdict, value and trace bit for bit: t^(alpha H) times the t = 1
        # solution, which the kernel evaluation and the corner shells must
        # not move
        r = integral_I(1.5, 0.5, 0.5, t)
        assert (r.verdict, r.value, r.trace) == ("finite", trace[-1], trace)


class TestShellTail:
    def test_decaying_decades_finite_with_exact_remainder(self):
        masses = 0.5 ** np.arange(8)
        r, verdict, remainder = shell_tail(masses, 10.0, 0.0)
        assert r == pytest.approx(0.5, rel=1e-12)
        assert verdict == "finite"
        # sum over k >= 8 of 0.5^k
        assert remainder == pytest.approx(0.5 ** 7, rel=1e-12)

    def test_growing_doublings_divergent(self):
        r, verdict, remainder = shell_tail(2.0 ** np.arange(8), 2.0, 0.0)
        assert r == pytest.approx(2.0, rel=1e-12)
        assert (verdict, remainder) == ("divergent", math.inf)

    def test_flat_shells_divergent(self):
        # a constant mass per decade is a logarithmic divergence
        assert shell_tail(np.ones(6), 10.0, 0.0)[1] == "divergent"

    def test_slow_decay_undecided(self):
        assert shell_tail(0.97 ** np.arange(8), 10.0, 0.0)[1] == "undecided"

    def test_growth_read_per_decade(self):
        # 0.97 per doubling is 0.97^(1/log10 2) = 0.904 per decade
        assert shell_tail(0.97 ** np.arange(8), 2.0, 0.0)[1] == "finite"

    def test_zero_outer_shell_finite(self):
        _, verdict, remainder = shell_tail(np.array([1.0, 0.5, 0.2, 0.0]), 2.0, 0.0)
        assert (verdict, remainder) == ("finite", 0.0)

    def test_infinite_outer_shell_divergent(self):
        _, verdict, _ = shell_tail(np.array([1.0, 2.0, math.inf, math.inf]), 2.0, 1e-9 * math.inf)
        assert verdict == "divergent"

    @pytest.mark.parametrize("masses", [[1.0, 0.5, 0.25, math.nan], [math.nan, 1.0, 0.5, 0.25],
                                        [1.0, math.inf, math.nan, 2.0]])
    def test_nan_shell_undecided(self, masses):
        r, verdict, remainder = shell_tail(np.array(masses), 2.0, 1e-9)
        assert verdict == "undecided" and math.isnan(r) and math.isnan(remainder)


class TestRegionMap:
    def test_small_grid_interior_and_exterior(self):
        rm = ss.region_map(1.5, np.linspace(0.3, 0.7, 3), np.linspace(0.2, 0.9, 3),
                           margin=0.05)
        for i in range(3):
            for j in range(3):
                if rm.scored[i, j]:
                    want = "finite" if rm.expected[i, j] else "divergent"
                    assert rm.verdicts[i, j] == want

    def test_values_and_verdicts_pinned(self):
        rm = ss.region_map(1.5, np.linspace(-1.0, 1.0, 5), np.linspace(-1.0, 1.0, 5))
        blob = (",".join(repr(float(v)) for v in rm.values.ravel()) + "|"
                + ",".join(rm.verdicts.ravel()))
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "07af357ed192facf18e19fa541e076346e57329229a56adb9df03646bce32d6b")

    def test_matches_separate_integral_I_calls(self):
        # the per-a field shared across the b sweep changes no value or verdict
        a_grid, b_grid = (-1.0, -0.5, 0.0, 0.5), (-0.6, -0.2, 0.5)
        rm = ss.region_map(1.5, a_grid, b_grid)
        for i, a in enumerate(a_grid):
            for j, b in enumerate(b_grid):
                r = integral_I(1.5, a, b)
                assert ((rm.verdicts[i, j], repr(float(rm.values[i, j])))
                        == (r.verdict, repr(float(r.value))))

    @pytest.mark.parametrize("alpha, a_values, b_values, message", [
        (1.5, [0.5, math.nan], [0.5], r"a_values\[1\] must be a finite number"),
        (1.5, [0.5], [math.inf], r"b_values\[0\] must be a finite number"),
        (2.5, [0.5], [0.5], r"alpha must lie in \(0, 2\)"),
    ])
    def test_bad_arguments_rejected(self, alpha, a_values, b_values, message):
        with pytest.raises(ValueError, match=message):
            ss.region_map(alpha, a_values, b_values)

    def test_boundary_points_excluded_from_scoring(self):
        # (0.5, 0.75) lies exactly on b = alpha a
        rm = ss.region_map(1.5, [0.5], [0.75], margin=0.05)
        assert not rm.scored[0, 0]

    def test_outside_both_regions_divergent(self):
        rm = ss.region_map(1.5, [0.4], [0.9], margin=0.05)
        assert rm.verdicts[0, 0] == "divergent"
        assert rm.scored[0, 0]


@settings(max_examples=15, deadline=None)
@given(st.floats(0.3, 1.9), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_region_closed_form_matches_validate(alpha, a, b):
    spec = ss.TruncatedFractional(alpha, a, b)
    assert ss.validate(spec).ok == truncated_region(alpha, a, b)
