import hashlib
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablesim as ss
from stablesim import core
from stablesim.core import _cms, _kanter, _sas_pairs
from stablesim.kernels import _circle_moment, _circle_sim_edges, _product_cells
from stablesim.quadrature import (
    RTOL,
    Certificate,
    cells_from_edges,
    pairwise_sum,
    run_levels,
    shift_partition,
)
from stablesim.riemann import StepMultiplier, constant_multiplier, integrate, scalar_curve
from stablesim.transforms import PathFunction, increment_process
from stablesim.verify import check_stationary_increments, default_probes


_LONG_DOUBLE = np.finfo(np.longdouble).nmant > np.finfo(float).nmant
_LD_PI = np.arccos(np.longdouble(-1.0))
needs_long_double = pytest.mark.skipif(not _LONG_DOUBLE, reason="long double is float64")


def _cms_reference(u, w, alpha):
    """The Chambers-Mallows-Stuck formula in long double, with ``_cms``'s
    clamps (w >= 1e-300, m = min(u, 1 - u) >= 2^-54).  V and cos V = sin(pi m)
    are taken from m, since cos((u - 1/2) pi) evaluated directly loses about
    1e-19 / cos V near the ends even in long double; for numpy's uniforms
    V is still exactly (u - 1/2) pi."""
    ld = np.longdouble
    u = np.asarray(u, dtype=ld)
    m = np.maximum(np.minimum(u, 1 - u), ld(2.0 ** -54))
    v = np.sign(u - ld(0.5)) * (ld(0.5) - m) * _LD_PI
    a = ld(alpha)
    w = np.maximum(np.asarray(w, dtype=ld), ld(1e-300))
    return (np.sin(a * v) / np.sin(_LD_PI * m) ** (1 / a)
            * (np.cos((1 - a) * v) / w) ** ((1 - a) / a))


def _kanter_reference(u, w, rho):
    """Kanter's formula in long double, with ``_kanter``'s clamps
    (u >= 2^-54, w >= 1e-300) and its two powers kept apart; sin U is taken
    as sin(pi m), m = min(u, 1 - u), as in ``_cms_reference``."""
    ld = np.longdouble
    u = np.maximum(np.asarray(u, dtype=ld), ld(2.0 ** -54))
    r = ld(rho)
    w = np.maximum(np.asarray(w, dtype=ld), ld(1e-300))
    return (np.sin(r * _LD_PI * u) / np.sin(_LD_PI * np.minimum(u, 1 - u)) ** (1 / r)
            * (np.sin((1 - r) * _LD_PI * u) / w) ** ((1 - r) / r))


def ecf(samples, theta):
    return np.mean(np.exp(1j * theta * samples))


class TestSampler:
    def test_gaussian_case_variance_and_kurtosis(self):
        # alpha=2 has CF exp(-theta^2), i.e. centered Gaussian with variance 2
        x = ss.sample_standard_sas(2.0, 100000, seed=1)
        assert abs(x.var() - 2.0) < 0.05
        z = x / math.sqrt(2.0)
        kurt = np.mean(z**4) / np.mean(z**2) ** 2
        assert abs(kurt - 3.0) < 0.1

    def test_cauchy_case(self):
        x = ss.sample_standard_sas(1.0, 100000, seed=2)
        assert abs(ecf(x, 1.0) - math.exp(-1.0)) < 0.02

    def test_cf_alpha_15(self):
        x = ss.sample_standard_sas(1.5, 100000, seed=3)
        for theta in (0.5, 1.0, 2.0):
            assert abs(ecf(x, theta) - math.exp(-abs(theta) ** 1.5)) < 0.02

    def test_deterministic_in_seed(self):
        a = ss.sample_standard_sas(1.3, 1000, seed=9)
        b = ss.sample_standard_sas(1.3, 1000, seed=9)
        c = ss.sample_standard_sas(1.3, 1000, seed=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            ss.sample_standard_sas(2.5, 10, seed=0)
        with pytest.raises(ValueError):
            ss.sample_standard_sas(0.0, 10, seed=0)
        with pytest.raises(ValueError):
            ss.sample_standard_sas(1.5, 0, seed=0)

    @needs_long_double
    @pytest.mark.parametrize("alpha, bound", [(0.5, 4e-15), (1.0, 4e-15), (1.25, 4e-15),
                                              (1.5, 4e-15), (1.9, 4e-15), (2.0, 3e-10)])
    def test_cms_matches_long_double_reference(self, alpha, bound):
        # measured on these 2^20 draws: at most 3.0e-15 below alpha 2 and
        # 2.1e-10 at alpha 2, where sin(2V) and cos(-V) keep V's rounding.
        # The sin/cos form this transform replaced read up to 3.2e-10 here
        # (alpha 0.5), but 2.2e-14 at alpha 2, where its roundings cancelled
        gen = np.random.Generator(core.philox(28))
        n = 1 << 20
        u, w = gen.random(n), gen.standard_exponential(n)
        got = _cms(u.copy(), w.copy(), alpha, np.empty(n), np.empty(n))
        ref = _cms_reference(u, w, alpha)
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= bound

    @needs_long_double
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.25, 1.5, 1.9, 2.0])
    def test_cms_edges_keep_the_reference_sign(self, alpha):
        # u at and next to the ends, w at 0, subnormal and huge: every draw
        # is nonzero with the reference's sign (a form that folds cos V into
        # w underflows to -0.0 at w = 0), and finite wherever the reference
        # is inside the float range (at alpha 0.5 it is beyond 4e330 in size
        # at u = 0 or 2^-53 from an end with w <= 1e-300)
        u = np.repeat([0.0, 2.0 ** -53, 1.0 - 2.0 ** -53], 3)
        w = np.tile([0.0, 5e-324, 1e300], 3)
        with np.errstate(over="ignore"):
            got = _cms(u.copy(), w.copy(), alpha, np.empty(9), np.empty(9))
            ref = _cms_reference(u, w, alpha)
            inside = np.isfinite(ref.astype(float))
        assert np.all(ref != 0.0)
        assert np.array_equal(np.sign(got), np.sign(ref))
        assert np.all(np.isfinite(got[inside]))
        assert inside.sum() == (9 if alpha > 0.5 else 3)

    def test_cms_cauchy_is_tan(self):
        # at alpha 1 the draw is tan(V); np.tan of the rounded V is itself
        # off by up to 2e5 ulps near u = 2^-20, so compare with it only
        # where that rounding does not dominate, and with the exact tan in
        # long double on all of [2^-20, 1 - 2^-20] (measured 6 and 4.5 ulps)
        gen = np.random.Generator(core.philox(29))
        u = gen.random(1 << 20)
        u = u[(u >= 2.0 ** -20) & (u <= 1.0 - 2.0 ** -20)]
        got = _cms(u.copy(), gen.standard_exponential(u.size), 1.0,
                   np.empty(u.size), np.empty(u.size))
        mid = (u >= 0.125) & (u <= 0.875)
        tan = np.tan((u[mid] - 0.5) * np.pi)
        assert np.max(np.abs(got[mid] - tan) / np.spacing(np.abs(tan))) <= 8
        if _LONG_DOUBLE:
            ul = u.astype(np.longdouble)
            exact = (np.sin((ul - 0.5) * _LD_PI) / np.sin(_LD_PI * np.minimum(ul, 1 - ul)))
            ulps = np.abs(got - exact) / np.spacing(np.abs(exact.astype(float)))
            assert np.max(ulps) <= 6

    @needs_long_double
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 1.25, 1.5, 1.9])
    def test_kanter_matches_long_double_reference(self, alpha):
        # measured on these 2^20 draws: at most 2.7e-15
        gen = np.random.Generator(core.philox(30))
        n = 1 << 20
        u, w = gen.random(n), gen.standard_exponential(n)
        got = _kanter(u.copy(), w.copy(), alpha / 2, np.empty(n))
        ref = _kanter_reference(u, w, alpha / 2)
        assert np.max(np.abs(got - ref) / ref) <= 4e-15

    @needs_long_double
    @pytest.mark.parametrize("alpha, n_inside", [(0.5, 0), (1.0, 7), (1.25, 9), (1.5, 9),
                                                 (1.9, 9)])
    def test_kanter_edges_follow_the_reference(self, alpha, n_inside):
        # u at and next to the ends, w at 0, subnormal and huge.  Where the
        # clamped formula is inside the normal float range, A is finite and
        # positive (no factor under- or overflows on the way: measured
        # 2.6e-14 relative at most); outside it, A is infinite or below the
        # normal range as the formula is.  At alpha 0.5 every one of these
        # is outside: A is about 1e+900 at w <= 1e-300 and 1e-900 at w = 1e300
        u = np.repeat([0.0, 2.0 ** -53, 1.0 - 2.0 ** -53], 3)
        w = np.tile([0.0, 5e-324, 1e300], 3)
        with np.errstate(over="ignore", under="ignore"):
            got = _kanter(u.copy(), w.copy(), alpha / 2, np.empty(9))
            ref = _kanter_reference(u, w, alpha / 2)
        tiny, huge = np.finfo(float).tiny, np.finfo(float).max
        inside = (ref >= tiny) & (ref <= huge)
        assert inside.sum() == n_inside
        assert np.all(np.abs(got[inside] - ref[inside]) <= 1e-13 * ref[inside])
        assert np.all(np.isposinf(got[ref > huge])) and np.all(got[ref < tiny] < tiny)

    @pytest.mark.parametrize("alpha", [0.5, 1.25, 1.5, 1.9])
    def test_kanter_laplace_transform(self, alpha):
        # E exp(-sA) = exp(-s^rho), rho = alpha / 2, within 4 standard errors
        gen = np.random.Generator(core.philox(31))
        n = 1 << 18
        a = _kanter(gen.random(n), gen.standard_exponential(n), alpha / 2, np.empty(n))
        for s in (0.3, 1.0, 3.0):
            e = np.exp(-s * a)
            assert abs(e.mean() - math.exp(-s ** (alpha / 2))) <= 4.0 * e.std() / math.sqrt(n)

    @pytest.mark.parametrize("alpha", [0.5, 1.25, 1.5, 1.9])
    def test_sas_pair_cf_is_isotropic(self, alpha):
        # E exp(i theta . X) = exp(-|theta|^alpha) in three directions, within
        # 4 standard errors (at most about 0.008); two independent coordinates
        # would give exp(-|theta_1|^alpha - |theta_2|^alpha), 0.011 (alpha
        # 1.9) to 0.175 (alpha 0.5) away in the third direction
        gen = np.random.Generator(core.philox(32))
        n = 1 << 17
        out = np.empty(2 * n)
        _sas_pairs(gen, alpha, out, np.empty(n), np.empty(n), np.empty(n))
        x = out.reshape(-1, 2)
        for theta in ((1.0, 0.0), (0.0, 0.7), (0.6, -0.9)):
            c = np.cos(x @ np.array(theta))
            want = math.exp(-math.hypot(*theta) ** alpha)
            assert abs(c.mean() - want) <= 4.0 * c.std() / math.sqrt(n)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_uint64_rejected(self, seed):
        k = ss.build(ss.LinearMotion(1.5))
        with pytest.raises(ValueError, match="seed"):
            ss.simulate(k, [1.0], 5, seed=seed)
        with pytest.raises(ValueError, match="seed"):
            ss.sample_standard_sas(1.5, 5, seed=seed)


class TestCfExponent:
    def test_zero_combo(self):
        k = ss.build(ss.LinearMotion(1.5))
        r = ss.cf_exponent(k, ss.combo((0.0, 1.0), (0.0, 2.0)))
        assert r.value == 0.0

    def test_indicator_interval_length(self):
        # increment kernel of linear motion is the indicator of (0, t]
        k = ss.build(ss.LinearMotion(1.5))
        assert ss.cf_exponent(k, ss.combo((1.0, 2.0))).expect() == pytest.approx(2.0, abs=1e-12)

    def test_disjoint_support_additivity(self):
        k = ss.build(ss.LinearMotion(1.5))
        whole = ss.cf_exponent(k, ss.combo((1.0, 3.0))).expect()
        first = ss.cf_exponent(k, ss.combo((1.0, 1.0))).expect()
        second = ss.cf_exponent(k, ss.combo((1.0, 3.0), (-1.0, 1.0))).expect()
        assert whole == pytest.approx(first + second, rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.1, 4.0))
    def test_alpha_homogeneity_in_theta(self, c):
        k = ss.build(ss.Lfsm(1.5, 0.7))
        base = ss.cf_exponent(k, ss.combo((1.0, 1.0), (-0.5, 2.0)), level=1).expect()
        scaled = ss.cf_exponent(k, ss.combo((c, 1.0), (-0.5 * c, 2.0)), level=1).expect()
        assert scaled == pytest.approx(c**1.5 * base, rel=1e-9)

    def test_lfsm_against_adaptive_quadrature_oracle(self):
        # frozen from scipy.integrate.quad on |(1-s)_+^g - (-s)_+^g|^alpha
        k = ss.build(ss.Lfsm(1.5, 0.7))
        mine = ss.cf_exponent(k, ss.combo((1.0, 1.0))).expect()
        assert mine == pytest.approx(0.9743778361922334, rel=2e-3)

    def test_single_level_is_not_certified(self):
        k = ss.build(ss.Lfsm(1.5, 0.7))
        r = ss.cf_exponent(k, ss.combo((1.0, 1.0)), level=1)
        assert r.status == "single_level"
        assert not r.certificate.converged and r.certificate.levels == (1,)

    def test_divergent_kernel_reports_divergence(self):
        # H=1/alpha pure power kernel is not alpha-integrable; increments blow
        # up under domain enlargement
        bad = ss.Lfsm(1.5, 0.9999999, 1.0, 0.0)
        r = ss.cf_exponent(bad, ss.combo((1.0, 1.0)))
        assert r.status in ("diverged", "exhausted")

    def test_bad_probe_input_rejected(self):
        for terms in (((1.0, math.nan),), ((math.inf, 1.0),), ((1.0, 1.0), (0.5, -math.inf))):
            with pytest.raises(ValueError, match="finite theta and t"):
                ss.combo(*terms)
        k = ss.build(ss.Lfsm(1.5, 0.7))
        with pytest.raises(ValueError, match="level must be nonnegative, got -1"):
            ss.cf_exponent(k, ss.combo((1.0, 1.0)), level=-1)
        with pytest.raises(ValueError, match="level must be nonnegative"):
            ss.cf_exponents(k, [ss.combo((1.0, 1.0))], -2)

    def test_certificates_pinned(self):
        # the refinement schedule (levels 1-5, rtol 1e-3, divergence after 3
        # growing enlargements of more than 1.5x overall), bit for bit
        r = ss.cf_exponent(ss.build(ss.Lfsm(1.5, 0.7)), ss.combo((1.0, 1.0)))
        assert r.value == 0.9742602868474426
        assert r.certificate == Certificate(
            (1, 2), (0.9741295742899339, 0.9742602868474426), "converged", 0.001)
        bad = ss.Lfsm(1.5, 0.9999999, 1.0, 0.0)
        r = ss.cf_exponent(bad, ss.combo((1.0, 1.0)))
        assert r.value is None
        assert r.certificate == Certificate(
            (1, 2, 3, 4),
            (2.6089494129224104, 3.0530620751517197, 3.496895787961725, 3.9405794141019204),
            "diverged", 0.001)


BATCH_SPECS = (*ss.catalog_specs(), increment_process(ss.Lfsm(1.5, 0.7), 1.0))


class TestCfExponents:
    @pytest.mark.parametrize("spec", BATCH_SPECS,
                             ids=lambda s: f"{s.label}-{s.alpha}")
    def test_batch_equals_per_combo_values(self, spec):
        # one shared grid, cached and freed fields and the sweep order must
        # not change any value
        probes = [c.shifted_increments(h) for c in default_probes()
                  for h in (0.0, 0.5, 1.0, 2.0, 5.0)]
        for level, combos in ((1, probes), (2, default_probes())):
            batch = ss.cf_exponents(spec, combos, level)
            assert batch.values == tuple(ss.cf_exponent(spec, c, level=level).value
                                         for c in combos)

    @pytest.mark.parametrize("spec", (*BATCH_SPECS, ss.Chentsov(1.0, 0.5)),
                             ids=lambda s: f"{s.label}-{s.alpha}")
    def test_matches_full_array_reference(self, spec, monkeypatch):
        # the row-blocked integrand with its power on nonzero cells only must
        # give exactly the values of whole fields, accumulated term by term,
        # then abs, ** alpha and * masses over the full array.  The rotating
        # family sums its terms as radial coefficients (its ``combination``),
        # so its reference is that sum over the whole, unblocked grid.  An
        # increment process is its source's combination of each term's
        # (theta, t + lag) and (-theta, t), so its reference takes the
        # source's fields of those, in that order.  The
        # truncated level-1 grid of the first probe (6 rows) fits one block
        # of _BLOCK_CELLS, so blocks of 4 of its rows are patched in: it
        # ends in a partial block, asserted below, and the other truncated
        # grids are cut into blocks too; Chentsov(1.0, 0.5) covers
        # alpha = 1, Chentsov(0.5, 0.6) alpha = 0.5
        def reference(kernel, combos, level):
            key, values = object(), []
            for c in combos:
                if kernel.cf_grid_key(c.times) != key:
                    key = kernel.cf_grid_key(c.times)
                    (pts, masses), fields = kernel.cf_cells(c.times, level), {}
                acc, source = None, getattr(kernel, "source", kernel)
                terms = [(theta, t) for theta, t in c.terms if theta != 0.0]
                if source is not kernel:
                    terms = [u for theta, t in terms
                             for u in ((theta, t + kernel.lag), (-theta, t))]
                if isinstance(source, ss.RotatingAverage):
                    acc = np.empty(masses.shape)
                    source.combination(terms, pts, acc)
                    terms = []
                for theta, t in terms:
                    if t not in fields:
                        fields[t] = source.eval(t, pts)
                    v = fields[t]
                    if acc is None:
                        acc = theta * v
                    else:
                        acc += theta * v
                if acc is None:
                    acc = np.zeros(masses.shape)
                acc = np.abs(acc)
                acc **= kernel.alpha
                acc *= masses
                values.append(pairwise_sum(acc.ravel()))
            return tuple(values)

        extra = [ss.combo((1.0, 1.0), (-0.5, 2.0), (0.5, 1.0)),   # a repeated time
                 ss.combo((0.0, 1.0), (0.0, 2.0))]                 # all thetas zero
        si = [c.shifted_increments(h) for c in default_probes()
              for h in (0.0, 0.5, 1.0, 2.0, 5.0)]
        ss_probes = [c.scaled_times(sc) for c in default_probes()
                     for sc in (0.25, 0.5, 1.0, 2.0, 4.0)]
        if isinstance(spec, ss.TruncatedFractional):
            rows, cols = spec.cf_cells(si[0].times, 1)[1].shape
            monkeypatch.setattr(core, "_BLOCK_CELLS", 4 * cols)
            assert rows % (core._BLOCK_CELLS // cols) != 0
        for level in (1, 2):
            for combos in (si + extra, ss_probes + extra):
                assert (ss.cf_exponents(spec, combos, level).values
                        == reference(spec, combos, level))

    def test_work_counts(self):
        rot = ss.catalog_specs()[-1]
        combos = [ss.combo((1.0, 1.0)), ss.combo((1.0, 2.0), (-1.0, 1.0)),
                  ss.combo((0.0, 3.0))]
        # the rotating grid ignores the probe times: one grid; every
        # nonzero-theta term of every combo is evaluated
        batch = ss.cf_exponents(rot, combos, 1)
        assert (batch.grids, batch.kernel_evals) == (1, 3)
        # moving-average grids are graded at the probe times: one per time set
        batch = ss.cf_exponents(ss.Lfsm(1.5, 0.7), combos, 1)
        assert (batch.grids, batch.kernel_evals) == (3, 3)

    def test_zero_combo_is_zero(self):
        batch = ss.cf_exponents(ss.catalog_specs()[4], [ss.combo((0.0, 1.0))], 1)
        assert batch.values == (0.0,) and batch.kernel_evals == 0

    def test_rotating_values_do_not_depend_on_blas_threads(self):
        # the rotating combination is a matrix product; OpenBLAS must give the
        # same oracle values with one thread and with two, for the catalog
        # series and for a three-harmonic one (six inner terms per product)
        script = ("import stablesim as ss\n"
                  "from stablesim.verify import default_probes\n"
                  "probes = [c.shifted_increments(h) for c in default_probes()\n"
                  "          for h in (0.0, 0.5, 1.0, 2.0, 5.0)]\n"
                  "series = ss.FourierSeries(((1, 0.7, -0.4), (2, 0.0, 1.3), (5, -0.25, 0.6)), 0.9)\n"
                  "for k in (ss.catalog_specs()[-1], ss.RotatingAverage(1.5, 0.8, series)):\n"
                  "    print(repr(ss.cf_exponents(k, probes, 1).values))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(ss.__file__)))
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, check=True)
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1] and outputs[0].count(",") == 2 * 39


_SI_SHIFTS = (0.0, 0.5, 1.0, 2.0, 5.0)
_SS_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0)


def _check_batches():
    """(level, probes) of the default stationary-increment check at levels
    1 and 2 and of the default self-similarity check (level 2)."""
    si = [c.shifted_increments(h) for c in default_probes() for h in _SI_SHIFTS]
    return ((1, si), (2, si), (2, [c.scaled_times(sc) for c in default_probes()
                                   for sc in _SS_SCALES]))


def _heavy(kernel, level, combos) -> bool:
    first = kernel.cf_cells(combos[0].times, level)[1].size
    terms = sum(theta != 0.0 for c in combos for theta, _ in c.terms)
    return first * terms >= core._ORACLE_POOL_MIN_WORK


# two harmonics: no closed-form shift integral, so the grid of each default
# check batch is heavy, and one for every probe
TWO_HARMONICS = ss.RotatingAverage(1.5, 0.8, ss.FourierSeries(((1, 1.0, 0.0), (2, 0.3, 0.1))))


class _FailingRotating(ss.RotatingAverage):
    """The two-harmonic rotating spec, whose combination fails on a probe at t = 5."""

    def combination(self, terms, points, out):
        if any(t == 5.0 for _, t in terms):
            raise ArithmeticError("no field at t = 5")
        super().combination(terms, points, out)


def _in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
class TestPooledOracle:
    """Heavy batches run on the forked workers of ``io._span_results``; the
    values must be the in-process values, and no worker may outlive a batch."""

    @pytest.mark.parametrize("spec", (*ss.catalog_specs(),
                                      pytest.param(TWO_HARMONICS, id="rotating_average-two-harmonics")),
                             ids=lambda s: f"{s.label}-{s.alpha}")
    def test_pooled_values_are_in_process_values(self, spec, pools, monkeypatch):
        pooled = [ss.cf_exponents(spec, combos, level) for level, combos in _check_batches()]
        heavy = [_heavy(spec, level, combos) for level, combos in _check_batches()]
        assert len(pools) == sum(heavy)
        # a worker that starts late may take no span of a short batch
        assert all(b.workers in ((1, 2) if h else (1,)) for b, h in zip(pooled, heavy))
        assert multiprocessing.active_children() == []
        _in_process(monkeypatch)
        for b, (level, combos) in zip(pooled, _check_batches()):
            alone = ss.cf_exponents(spec, combos, level)
            assert np.array(b.values).tobytes() == np.array(alone.values).tobytes()
            assert (b.grids, b.kernel_evals) == (alone.grids, alone.kernel_evals)
            assert alone.workers == 1
        assert len(pools) == sum(heavy)

    def test_heavy_batch_makes_one_pool(self, pools):
        # the rotating grid is one for every probe: cut by probes, held by the workers
        rot = TWO_HARMONICS
        level, combos = _check_batches()[1]
        assert _heavy(rot, level, combos)
        batch = ss.cf_exponents(rot, combos, level)
        assert (len(pools), batch.grids) == (1, 1) and batch.workers in (1, 2)
        assert multiprocessing.active_children() == []
        report = check_stationary_increments(rot)
        assert len(pools) == 3 and report.details["workers"] in (1, 2)

    def test_workers_build_every_grid_but_the_first(self, pools, monkeypatch):
        # one grid per probe: the calling process holds one grid, whatever
        # the CPU count, and both workers take some of the 40 spans.  The
        # truncated batches are light, so the gate is set to 0
        monkeypatch.setattr(core, "_ORACLE_POOL_MIN_WORK", 0)
        trunc = next(s for s in ss.catalog_specs() if isinstance(s, ss.TruncatedFractional))
        level, combos = _check_batches()[1]
        built = []
        real_cells = ss.TruncatedFractional.cf_cells

        def cf_cells(kernel, times, lvl):
            built.append(os.getpid())
            return real_cells(kernel, times, lvl)

        monkeypatch.setattr(ss.TruncatedFractional, "cf_cells", cf_cells)
        batch = ss.cf_exponents(trunc, combos, level)
        assert (len(pools), batch.grids, batch.workers) == (1, len(combos), 2)
        assert built == [os.getpid()]
        # also with fewer grids than CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        batch = ss.cf_exponents(trunc, combos[:3], level)
        assert (len(pools), batch.grids) == (2, 3)
        assert built == [os.getpid()] * 2
        assert multiprocessing.active_children() == []

    def test_light_and_empty_batches_make_no_pool(self, pools, monkeypatch):
        lfsm = ss.catalog_specs()[0]
        level, combos = _check_batches()[1]
        assert not _heavy(lfsm, level, combos)
        assert ss.cf_exponents(lfsm, combos, level).workers == 1
        assert check_stationary_increments(lfsm).details["workers"] == 1
        # with no gate, one probe is still one span, and the empty batch builds no grid
        monkeypatch.setattr(core, "_ORACLE_POOL_MIN_WORK", 0)
        rot = ss.catalog_specs()[-1]
        assert ss.cf_exponent(rot, ss.combo((1.0, 1.0), (-0.5, 2.0))).status == "converged"
        monkeypatch.setattr(ss.RotatingAverage, "cf_cells", None)
        assert ss.cf_exponents(rot, [], 2) == ss.CfBatch((), 0, 0, 1)
        assert pools == []

    def test_light_batch_imports_no_multiprocessing(self):
        code = ("import sys, stablesim as ss\n"
                "from stablesim.verify import check_stationary_increments\n"
                "check_stationary_increments(ss.catalog_specs()[0])\n"
                "ss.cf_exponent(ss.catalog_specs()[-1], ss.combo((1.0, 1.0)), level=1)\n"
                "print('multiprocessing' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(ss.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stdout.strip() == "False"

    def test_worker_error_propagates(self, pools, monkeypatch):
        failing = _FailingRotating(**vars(TWO_HARMONICS))
        level, combos = _check_batches()[1]
        with pytest.raises(ArithmeticError, match="^no field at t = 5$"):
            ss.cf_exponents(failing, combos, level)
        assert len(pools) == 1
        assert multiprocessing.active_children() == []
        _in_process(monkeypatch)
        with pytest.raises(ArithmeticError, match="^no field at t = 5$"):
            ss.cf_exponents(failing, combos, level)
        assert len(pools) == 1

    def test_caller_with_another_thread_computes_in_process(self, pools):
        # fork is unsafe while another thread runs
        rot = TWO_HARMONICS
        level, combos = _check_batches()[1]
        batches = []
        thread = threading.Thread(target=lambda: batches.append(ss.cf_exponents(rot, combos, level)))
        thread.start()
        thread.join(timeout=120)
        assert not thread.is_alive()
        assert pools == [] and batches[0].workers == 1
        assert batches[0].values == ss.cf_exponents(rot, combos, level).values
        assert len(pools) == 1


class TestMeasureGrid:
    def test_kernel_grids_are_valid_measures(self):
        for k in BATCH_SPECS:
            pts, masses = k.sim_grid(0.0, 2.0, 1)
            # one shift, or one entry of each coordinate row, per mass
            assert masses.ndim == 1 and np.shape(pts)[-1] == masses.size
            assert np.all(np.isfinite(masses)) and np.all(masses >= 0.0)


class TestSimulate:
    def test_gaussian_variance_matches_time(self):
        k = ss.LinearMotion(2.0)
        ens = ss.simulate(k, [0.5, 1.0, 2.0], 20000, seed=7)
        for j, t in enumerate(ens.times):
            assert ens.values[:, j].var() / 2.0 == pytest.approx(t, rel=0.08)

    def test_zero_harmonic_changes_no_bit(self):
        # the field skips a harmonic whose coefficients are both 0, and the
        # pair rule counts active harmonics, not terms
        rot = ss.catalog_specs()[-1]
        padded = ss.RotatingAverage(rot.alpha, rot.beta,
                                    ss.FourierSeries((*rot.series.terms, (2, 0.0, 0.0))))
        assert padded._sim_pairs() and padded.sim_cells((0.05, 3.0), 1)[1].shape == (160, 2)
        times = np.linspace(0.05, 3.0, 8)
        want = ss.simulate(rot, times, 50, seed=4).values
        assert ss.simulate(padded, times, 50, seed=4).values.tobytes() == want.tobytes()

    def test_two_harmonics_keep_the_product_grid(self):
        # no closed-form shift integral: one independent cell per radial node
        # and shift cell of the circle, drawn as before pairs were (the digest
        # was taken before them, with one BLAS thread and with two)
        (x, s), masses = TWO_HARMONICS.sim_cells((0.05, 3.0), 1)
        assert not TWO_HARMONICS._sim_pairs() and masses.shape == (160, 128)
        assert np.array_equal(s[0], cells_from_edges(_circle_sim_edges(1))[0])
        values = ss.simulate(TWO_HARMONICS, np.linspace(0.05, 3.0, 8), 50, seed=4).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "3ebe8d6920bcffe603320f0712600fc746206bfba97ae58d3fecf726cb3a9eef")

    @pytest.mark.parametrize("seed", [0, 17, 2 ** 64 - 1])
    def test_path_stream_is_the_jumped_stream(self, seed):
        # simulate builds path i's generator from the counter (0, 0, i, 0)
        # instead of jumping philox(seed) i times: one state, one stream
        def state(bit_gen):
            st = bit_gen.state
            return (st["state"]["counter"].tolist(), st["state"]["key"].tolist(),
                    st["buffer"].tolist(), st["buffer_pos"], st["has_uint32"], st["uinteger"])

        for i in (0, 1, 5, 255, 256, 1999, 2 ** 40 + 3):
            jumped = core.philox(seed).jumped(i)
            direct = np.random.Philox(key=np.uint64(seed), counter=[0, 0, i, 0])
            assert state(direct) == state(jumped)
            assert np.array_equal(np.random.Generator(direct).random(9),
                                  np.random.Generator(jumped).random(9))

    def test_thread_count_does_not_change_bytes(self):
        k = ss.build(ss.Lfsm(1.5, 0.7))
        e1 = ss.simulate(k, [0.5, 1.0, 2.0], 600, seed=3, threads=1)
        e4 = ss.simulate(k, [0.5, 1.0, 2.0], 600, seed=3, threads=4)
        assert np.array_equal(e1.values, e4.values)

    def test_one_thread_runs_inline(self, monkeypatch):
        k = ss.build(ss.Lfsm(1.5, 0.7))
        pooled = ss.simulate(k, [0.5, 1.0, 2.0], 600, seed=3, threads=2)

        def start(thread):
            raise AssertionError("threads=1 started a worker thread")

        monkeypatch.setattr(threading.Thread, "start", start)
        inline = ss.simulate(k, [0.5, 1.0, 2.0], 600, seed=3, threads=1)
        assert inline.values.tobytes() == pooled.values.tobytes()

    def test_pool_threads_allocate_no_buffers(self, monkeypatch):
        # a buffer made in a pool thread stays resident in that thread's
        # malloc arena, and peak RSS then depends on thread timing
        k = ss.build(ss.TruncatedFractional(1.5, 0.5, 0.5))
        callers = []
        for name in ("zeros", "empty"):
            def record(shape, *args, _make=getattr(np, name), **kwargs):
                if np.prod(shape) >= 1024:  # not the few words a Philox state takes
                    callers.append(threading.current_thread() is threading.main_thread())
                return _make(shape, *args, **kwargs)
            monkeypatch.setattr(np, name, record)
        pooled = ss.simulate(k, [0.5, 1.0, 2.0], 600, seed=3, threads=2)
        monkeypatch.undo()
        assert callers and all(callers)
        inline = ss.simulate(k, [0.5, 1.0, 2.0], 600, seed=3, threads=1)
        assert inline.values.tobytes() == pooled.values.tobytes()

    def test_import_loads_no_thread_pool(self):
        # concurrent.futures loads logging: about 11 ms that only threads > 1 pays
        script = ("import sys, stablesim\n"
                  "print('concurrent.futures' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(ss.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert run.stdout.strip() == "False"

    def test_rows_depend_only_on_seed_and_index(self):
        k = ss.build(ss.LinearMotion(1.5))
        small = ss.simulate(k, [1.0, 2.0], 10, seed=5)
        large = ss.simulate(k, [1.0, 2.0], 50, seed=5)
        assert np.array_equal(small.values, large.values[:10])

    def test_lfsm_cf_agreement(self):
        spec = ss.Lfsm(1.5, 0.7)
        k = ss.build(spec)
        times = [0.5, 1.0, 2.0, 3.0]
        ens = ss.simulate(k, times, 10000, seed=11, level=1)
        probes = [ss.combo((1.0, 1.0)), ss.combo((0.5, 2.0)),
                  ss.combo((1.0, 0.5), (-1.0, 2.0)), ss.combo((0.5, 1.0), (0.5, 3.0)),
                  ss.combo((-1.0, 1.0), (0.5, 3.0))]
        tol = 3.0 / math.sqrt(10000) + 0.02
        for c in probes:
            target = math.exp(-ss.cf_exponent(k, c, level=2).expect())
            assert abs(ss.empirical_cf(ens, c) - target) < tol

    def test_bad_grid_rejected(self):
        k = ss.build(ss.LinearMotion(1.5))
        with pytest.raises(ValueError):
            ss.simulate(k, [1.0, 1.0], 5, seed=0)


PRUNED_SPECS = (ss.Chentsov(1.25, 0.5), ss.TruncatedFractional(1.5, 0.5, 0.5),
                ss.Lfsm(1.5, 0.7), ss.catalog_specs()[-1])
PRUNED_TIMES = [0.5, 1.0, 2.0]
PROBE_TIMES = sorted({t for c in default_probes() for t in c.times})


class TestPrunedSimulation:
    """Dead cells (kernel 0 at every grid time) take no draws; each path chunk
    is reduced by one fixed-shape matrix product."""

    @pytest.mark.parametrize("spec", PRUNED_SPECS, ids=lambda s: s.label)
    def test_row_independent_of_n_paths(self, spec):
        # 1 row is the gemv shape; 255/256/257 straddle the chunk edge
        k = ss.build(spec)
        full = ss.simulate(k, PRUNED_TIMES, 300, seed=13).values
        for n in (1, 255, 256, 257):
            assert np.array_equal(ss.simulate(k, PRUNED_TIMES, n, seed=13).values, full[:n])

    @pytest.mark.parametrize("spec", PRUNED_SPECS, ids=lambda s: s.label)
    def test_thread_count_does_not_change_bytes(self, spec):
        k = ss.build(spec)
        e1 = ss.simulate(k, PRUNED_TIMES, 300, seed=3, threads=1)
        e2 = ss.simulate(k, PRUNED_TIMES, 300, seed=3, threads=2)
        assert e1.values.tobytes() == e2.values.tobytes()

    @pytest.mark.parametrize("spec", BATCH_SPECS,
                             ids=lambda s: f"{s.label}-{s.alpha}")
    def test_matches_unpruned_reference(self, spec):
        # reference: the live cells found from sim_grid and eval, their
        # byte-equal columns grouped by np.unique into one column of the
        # group's first cell, weighted by the summed mass to the 1/alpha;
        # per path n_columns uniforms then n_columns exponentials, reduced
        # with einsum.  The two differ by reduction rounding alone.  A kernel
        # that draws pairs (the one-harmonic rotating average) groups nothing
        # and takes per live pair one uniform, then one exponential, then two
        # standard normals, and draws the pair as sqrt(2A) (Z_1, Z_2), A from
        # Kanter's formula in long double
        times = PROBE_TIMES
        seed, n_paths = 17, 7
        k = ss.build(spec)
        pts, masses = k.sim_grid(times[0], times[-1], 1)
        fields = np.array([k.eval(t, pts) for t in times])
        weights = masses ** (1.0 / k.alpha)
        live = np.any(fields * weights != 0.0, axis=0)
        pairs = k._sim_pairs()
        if pairs:
            live = np.repeat(live.reshape(-1, 2).any(axis=1), 2)
            columns = fields[:, live] * weights[live]
        else:
            block = np.ascontiguousarray(fields[:, live].T)
            rows = block.view(np.dtype((np.void, block.shape[1] * 8))).ravel()
            _, first, group = np.unique(rows, return_index=True, return_inverse=True)
            order = np.argsort(first)  # the groups in the order of their first cells
            mass = np.bincount(group, weights=masses[live])[order]
            columns = block[first[order]].T * mass ** (1.0 / k.alpha)
        n_columns = columns.shape[1]
        base = np.random.Philox(key=np.uint64(seed))
        draws = []
        for i in range(n_paths):
            gen = np.random.Generator(base.jumped(i))
            if pairs:
                n_pairs = n_columns // 2
                a = _kanter_reference(gen.random(n_pairs), gen.standard_exponential(n_pairs),
                                      k.alpha / 2).astype(float)
                z = gen.standard_normal((n_pairs, 2))
                draws.append((np.sqrt(2.0 * a)[:, None] * z).ravel())
                continue
            u = gen.random(n_columns)
            draws.append(_cms(u, gen.standard_exponential(n_columns), k.alpha,
                              np.empty(n_columns), np.empty(n_columns)))
        ref = np.einsum("pc,tc->pt", np.array(draws), columns, optimize=False)
        got = ss.simulate(k, times, n_paths, seed=seed).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @staticmethod
    def _padded_lfsm_bytes(monkeypatch, cells, mass):
        """simulate's bytes on PRUNED_TIMES before and after 12 lfsm cells of
        ``mass`` at the shifts ``cells`` are put at the front, in the middle
        and at the back of its sim_cells."""
        k = ss.build(ss.Lfsm(1.5, 0.7))
        want = ss.simulate(k, PRUNED_TIMES, 300, seed=5).values
        n_cells = k.sim_grid(PRUNED_TIMES[0], PRUNED_TIMES[-1], 1)[1].size
        sim_cells = ss.Lfsm.sim_cells

        def padded(self, times, level):
            s, m = sim_cells(self, times, level)
            at = np.repeat([0, s.size // 2, s.size], 4)
            return np.insert(s, at, cells(s)), np.insert(m, at, mass)

        monkeypatch.setattr(ss.Lfsm, "sim_cells", padded)
        assert k.sim_grid(PRUNED_TIMES[0], PRUNED_TIMES[-1], 1)[1].size == n_cells + 12
        return ss.simulate(k, PRUNED_TIMES, 300, seed=5).values.tobytes(), want.tobytes()

    def test_dead_cells_take_no_draws(self, monkeypatch):
        # lfsm's K(t, s) is 0 for s past every grid time; cells put there are
        # dead, their zero columns equal, and they must leave every row bit
        # for bit as it was
        far = PRUNED_TIMES[-1] + np.arange(1.0, 13.0)
        assert not any(np.any(ss.Lfsm(1.5, 0.7).eval(t, far)) for t in PRUNED_TIMES)
        got, want = self._padded_lfsm_bytes(monkeypatch, lambda s: far, 0.5)
        assert got == want

    def test_massless_cells_take_no_draws(self, monkeypatch):
        # cells of mass 0 have a weighted kernel of 0 everywhere: they are
        # dead, whether their unweighted column equals a live cell's (at a
        # shift of sim_cells) or is new (between them), and join no column
        new = np.linspace(0.1, 1.9, 6)
        got, want = self._padded_lfsm_bytes(
            monkeypatch, lambda s: np.concatenate([s[[0, 0, 0, 0, s.size // 2, -1]], new]), 0.0)
        assert got == want


ROTATING = ss.catalog_specs()[-1]
LAW_TIMES = np.linspace(0.05, 3.0, 60)


def _ungrouped_columns(k, times):
    """The weighted kernel column of every live cell of ``k.sim_grid`` on
    ``times``, one row per cell, built from ``eval`` and the masses without
    ``core``; every cell of a live pair is kept."""
    pts, masses = k.sim_grid(times[0], times[-1], 1)
    kmat = np.array([k.eval(t, pts) for t in times]) * masses ** (1.0 / k.alpha)
    live = np.any(kmat != 0.0, axis=0)
    if k._sim_pairs():
        live = np.repeat(live.reshape(-1, 2).any(axis=1), 2)
    return kmat[:, live].T


def _implied(columns, theta, alpha, pairs):
    """The exact sigma^alpha of theta . X for every row of ``theta`` when X is
    the sum over ``columns`` (one row per cell) of independent SaS weights:
    sum |theta . column|^alpha, with a pair's two columns taken as the hypot
    of their two values."""
    o = theta @ columns.T
    if pairs:
        o = np.hypot(o[:, 0::2], o[:, 1::2])
    return np.sum(np.abs(o) ** alpha, axis=1)


def _implied_lag1(k, times, pairs):
    """``_implied`` for every lag-1 increment X_{t_j} - X_{t_{j-1}} of a
    simulation on ``k.sim_grid``'s cells, with ``pairs`` chosen apart from
    whether ``k`` draws pairs."""
    return _implied(_ungrouped_columns(k, times), np.diff(np.eye(len(times)), axis=0),
                    k.alpha, pairs)


def _closed_form_lag1(spec, times, lag=0.0):
    """The same from ``RotatingAverage.combination``'s one-harmonic form,
    sum_x x_mass c_alpha R(x)^alpha, on the radial nodes of ``spec.sim_cells``,
    for the lag-``lag`` increment process (lag 0: the process itself)."""
    (x, _), masses = spec.sim_cells((times[0], times[-1] + lag), 1)
    out = np.empty((x.shape[0], 1))
    values = []
    for lo, hi in zip(times[:-1], times[1:]):
        terms = [(1.0, hi + lag), (-1.0, lo + lag)]
        if lag:
            terms += [(-1.0, hi), (1.0, lo)]
        spec.combination(terms, (x, np.zeros((1, 1))), out)
        values.append(np.sum(masses[:, 0] * out[:, 0] ** spec.alpha))
    return np.array(values)


class TestPairLaw:
    """A one-harmonic rotating average draws one isotropic SaS pair per
    radial cell, whose law is the closed-form shift integral of the oracle."""

    def test_implied_lag1_is_the_closed_form(self):
        # at every position: the pair layout gives combination's form to
        # 1e-12 (measured 6.7e-16), and the 128-cell circle grid it replaced
        # agrees to 1e-4 (measured 3.7e-6: that grid's shift quadrature error)
        got = _implied_lag1(ROTATING, LAW_TIMES, pairs=ROTATING._sim_pairs())
        want = _closed_form_lag1(ROTATING, LAW_TIMES)
        assert got.size == 59 and np.max(np.abs(got / want - 1.0)) <= 1e-12
        (x, _), masses = ROTATING.sim_cells(LAW_TIMES, 1)
        pts, grid = _product_cells((x[:, 0], masses[:, 0] / _circle_moment(ROTATING.alpha)),
                                   _circle_sim_edges(1))
        product = np.array([np.sum(np.abs(ROTATING.eval(hi, pts) - ROTATING.eval(lo, pts))
                                   ** ROTATING.alpha * grid)
                            for lo, hi in zip(LAW_TIMES[:-1], LAW_TIMES[1:])])
        assert np.max(np.abs(got / product - 1.0)) <= 1e-4

    def test_increment_process_draws_the_source_pairs(self):
        # an increment process of a one-harmonic rotating average draws the
        # source's pairs: its law is the source's hypot form.  Drawn as
        # independent cells it would be sum m c_alpha (|C|^alpha + |S|^alpha),
        # 8.7-13.8 % too large here
        inc = increment_process(ROTATING, 0.7)
        assert inc._sim_pairs()
        want = _closed_form_lag1(ROTATING, LAW_TIMES, lag=0.7)
        got = _implied_lag1(inc, LAW_TIMES, pairs=inc._sim_pairs())
        assert np.max(np.abs(got / want - 1.0)) <= 1e-12
        iid = _implied_lag1(inc, LAW_TIMES, pairs=False)
        assert np.min(np.abs(iid / want - 1.0)) > 0.05
        # and its paths are the source's increments, draw for draw
        times, n = LAW_TIMES[:8], 40
        got = ss.simulate(inc, times, n, seed=6).values
        src = ss.simulate(ROTATING, np.union1d(times, times + 0.7), n, seed=6)
        want = (src.values[:, [src.time_index(t + 0.7) for t in times]]
                - src.values[:, [src.time_index(t) for t in times]])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


# (cells, live cells, distinct live columns) of each family's layout at
# level 1, on linspace(0.05, 3, 60) and on the default probe times
LAYOUT_COUNTS = {
    "lfsm": ((572, 457, 457), (572, 457, 457)),
    "linear_motion": ((572, 342, 60), (572, 342, 6)),
    "log_fractional": ((572, 572, 572), (572, 572, 572)),
    "mixed_lfsm": ((1144, 914, 914), (1144, 914, 914)),
    "truncated_fractional": ((42500, 33851, 8138), (42500, 33851, 4007)),
    "chentsov": ((99456, 12356, 1109), (99456, 10106, 27)),
    "rotating_average": ((320, 320, 320), (320, 320, 320)),
}
LAYOUT_GRIDS = {"linspace60": LAW_TIMES, "probes": PROBE_TIMES}


class TestColumnGroups:
    """Live cells with byte-equal kernel columns are drawn as one cell of
    their summed mass, which leaves every finite-dimensional law unchanged."""

    @pytest.mark.parametrize("grid", LAYOUT_GRIDS)
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: f"{s.label}-{s.alpha}")
    def test_law_is_the_ungrouped_law(self, spec, grid):
        # every lag-1 increment, every X_{t_j} and 5 seeded combinations:
        # the grouped layout's sigma^alpha against the ungrouped sum over cells
        # (measured within 1.2e-15)
        times = LAYOUT_GRIDS[grid]
        n = len(times)
        theta = np.vstack([np.diff(np.eye(n), axis=0), np.eye(n),
                           np.random.default_rng(7).standard_normal((5, n))])
        pairs = spec._sim_pairs()
        got = _implied(core._sim_layout(spec, np.asarray(times), 1).kT, theta, spec.alpha, pairs)
        want = _implied(_ungrouped_columns(spec, times), theta, spec.alpha, pairs)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    @pytest.mark.parametrize("grid", LAYOUT_GRIDS)
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: f"{s.label}-{s.alpha}")
    def test_layout_counts(self, spec, grid):
        times = np.asarray(LAYOUT_GRIDS[grid])
        layout = core._sim_layout(spec, times, 1)
        label = getattr(spec, "source", spec).label
        want = LAYOUT_COUNTS[label][list(LAYOUT_GRIDS).index(grid)]
        if label == "lfsm" and spec.label != "lfsm":  # its increment process: one cell fewer
            want = (570, 456, 456)
        assert (layout.n_cells, layout.n_live, layout.n_columns) == want
        assert layout.kT.shape == (layout.n_columns, times.size)

    @pytest.mark.parametrize("times", [np.linspace(0.05, 3.0, 8), PROBE_TIMES],
                             ids=["linspace8", "probes"])
    def test_lfsm_bytes_did_not_move(self, times):
        # nothing merges, so the ensemble is the one drawn before grouping;
        # the digests were taken then, with one BLAS thread and with two
        values = ss.simulate(ss.Lfsm(1.5, 0.7), times, 50, seed=4).values
        assert hashlib.sha256(values.tobytes()).hexdigest() == {
            8: "41a3bb071722dd93e3c370302366a12a68b5b30cfde94edba747db7c6e520efd",
            6: "63489083e2db9d4327cde08ad80703cf4d3a18417767be68be02e972ecdcb310",
        }[len(times)]

    def test_first_equal_is_by_bytes(self):
        # 0.0 and -0.0 compare equal but differ in their bytes, and so do
        # two nans of different payloads; equal bytes group at the first row
        nan2 = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
        cols = np.array([[1.0, 0.0], [1.0, -0.0], [1.0, 0.0], [np.nan, 2.0],
                         [nan2, 2.0], [np.nan, 2.0], [1.0, -0.0]])
        head = core._first_equal(cols.view(np.uint64))
        assert head.tolist() == [0, 1, 0, 3, 4, 3, 1]

    @pytest.mark.parametrize("spec", PRUNED_SPECS, ids=lambda s: s.label)
    def test_hash_collisions_change_nothing(self, spec, monkeypatch):
        # a hash that sends every column to one value: every match is refuted
        # by the bytes and regrouped by a sort, to the same groups and bytes
        times = np.asarray(PROBE_TIMES)
        layout = core._sim_layout(spec, times, 1)
        want = ss.simulate(spec, times, 40, seed=2).values
        monkeypatch.setattr(core, "_column_hash", lambda c: np.zeros(c.shape[0], np.uint64))
        collided = core._sim_layout(spec, times, 1)
        assert collided.kT.tobytes() == layout.kT.tobytes()
        assert ss.simulate(spec, times, 40, seed=2).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", LAYOUT_GRIDS)
    @pytest.mark.parametrize("spec", BATCH_SPECS, ids=lambda s: f"{s.label}-{s.alpha}")
    def test_row_blocks_change_no_byte(self, spec, grid, monkeypatch):
        # the layout's row blocks, one radial row each or the whole grid,
        # give the kT bytes and counts of the default blocks
        times = np.asarray(LAYOUT_GRIDS[grid])
        layout = core._sim_layout(spec, times, 1)
        for block in (1, 1 << 40):
            monkeypatch.setattr(core, "_LAYOUT_BLOCK", block)
            other = core._sim_layout(spec, times, 1)
            assert other.kT.tobytes() == layout.kT.tobytes()
            assert other[1:] == layout[1:]


class TestPathEnsemble:
    @pytest.mark.parametrize("shape", ((20, 3), (20, 1), (2,), (20,), (2, 2, 2)))
    def test_values_of_wrong_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="values must have shape"):
            ss.PathEnsemble(np.array([0.5, 1.0]), np.zeros(shape), 0, "x")

    def test_no_paths_accepted(self):
        assert ss.PathEnsemble(np.array([0.5, 1.0]), np.zeros((0, 2)), 0, "x").n_paths == 0


_BAD_GRIDS = {"nan-last": [0.5, math.nan], "nan-first": [math.nan, 0.5],
              "nan-inside": [0.5, math.nan, 1.0], "inf-last": [0.5, math.inf],
              "minus-inf-first": [-math.inf, 0.5]}
_GRID_CALLERS = {
    "simulate": lambda t: ss.simulate(ss.build(ss.Lfsm(1.5, 0.7)), t, 4, 0),
    "PathEnsemble": lambda t: ss.PathEnsemble(np.array(t), np.zeros((1, len(t))), 0, ""),
    "PathFunction": lambda t: PathFunction(np.array(t), np.zeros(len(t))),
    "StepMultiplier": lambda t: StepMultiplier(tuple(t), (1.0,) * (len(t) - 1)),
    "integrate": lambda t: integrate(scalar_curve(lambda s: s), constant_multiplier(1.0, 0.0, 1.0),
                                     tuple(t)),
}


class TestGrid:
    # every time grid is checked by core._grid; diff(t) <= 0 alone is False
    # at a nan anywhere and at a last point of +inf (simulate returned finite
    # values at a nan time: -F(0, c) w_c S_c summed, as the profile reads nan as 0)
    @pytest.mark.parametrize("grid", _BAD_GRIDS.values(), ids=_BAD_GRIDS)
    @pytest.mark.parametrize("caller", _GRID_CALLERS.values(), ids=_GRID_CALLERS)
    def test_non_finite_point_rejected(self, caller, grid):
        with pytest.raises(ValueError, match="strictly increasing 1-d grid .* finite points"):
            caller(grid)

    def test_returns_floats_and_names_the_grid(self):
        t = core._grid([0, 1, 3], 2)
        assert t.dtype == float and t.tolist() == [0.0, 1.0, 3.0]
        assert core._grid([], 0).size == 0
        for values, n in (([1.0], 2), ([], 1), ([[0.0, 1.0]], 0), ([1.0, 1.0], 0), ([1.0, 0.5], 0)):
            with pytest.raises(ValueError, match=f"^edges must be a strictly increasing 1-d grid "
                                                 f"of at least {n} finite points$"):
                core._grid(values, n, "edges")

    def test_ensemble_keeps_its_times_as_an_array(self):
        # the checked grid is stored, so a list of times has an index
        ens = core.PathEnsemble([0.5, 1.0], np.array([[2.0, 3.0], [-1.0, 0.5]]), 0, "")
        assert isinstance(ens.times, np.ndarray) and ens.times.tolist() == [0.5, 1.0]
        assert ens.time_index(0.5) == 0 and ens.time_index(1.0) == 1
        cf = core.empirical_cf(ens, ss.combo((1.0, 1.0)))
        assert cf == pytest.approx(np.mean(np.exp(1j * np.array([3.0, 0.5]))))


class TestNamedErrors:
    def test_combo_without_terms(self):
        with pytest.raises(ValueError, match="at least one term"):
            ss.combo()

    def test_expect_on_diverged_certificate(self):
        r = core.CfExponent(None, Certificate((1, 2, 3, 4), (1.0, 2.0, 4.0, 8.0), "diverged", RTOL))
        with pytest.raises(ss.DivergenceError, match="diverged"):
            r.expect()

    def test_exhausted_certificate(self):
        # values that neither settle nor keep growing run every level
        value, cert = run_levels(lambda level: (-1.0) ** level)
        assert value == -1.0
        assert cert == Certificate((1, 2, 3, 4, 5), (-1.0, 1.0, -1.0, 1.0, -1.0), "exhausted", RTOL)
        assert not cert.converged

    def test_shift_partition_without_breakpoints(self):
        with pytest.raises(ValueError, match="at least one breakpoint"):
            shift_partition([], 1, 1e3)

    def test_shift_partition_pad_below_rounding(self):
        # the pad of width 1 left of 1e17 rounds to nothing
        with pytest.raises(ValueError, match="empty panel"):
            shift_partition([1e17], 0, 10.0)

    @pytest.mark.parametrize("name, call", [
        ("n", lambda k: ss.sample_standard_sas(1.5, 2.5, 0)),
        ("n_paths", lambda k: ss.simulate(k, [0.5, 1.0], 2.5, 0)),
        ("seed", lambda k: ss.simulate(k, [0.5, 1.0], 2, 2.5)),
        ("level", lambda k: ss.simulate(k, [0.5, 1.0], 2, 0, level=1.5)),
        ("threads", lambda k: ss.simulate(k, [0.5, 1.0], 2, 0, threads=2.0)),
        ("n_paths", lambda k: ss.simulate(k, [0.5, 1.0], True, 0)),
        ("level", lambda k: ss.cf_exponent(k, ss.combo((1.0, 1.0)), level=1.5)),
    ])
    def test_non_integral_count_named(self, name, call):
        # 2.5 paths used to run as 2, seed 2.5 as seed 2, and level 1.5 died
        # with a bare TypeError
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            call(ss.build(ss.Lfsm(1.5, 0.7)))

    def test_numpy_integer_counts_accepted(self):
        k = ss.build(ss.Lfsm(1.5, 0.7))
        ens = ss.simulate(k, [0.5, 1.0], np.int64(3), np.uint64(4), level=np.int32(1),
                          threads=np.int8(1))
        assert ens.values.shape == (3, 2) and type(ens.seed) is int and ens.seed == 4
        assert ens.values.tobytes() == ss.simulate(k, [0.5, 1.0], 3, 4).values.tobytes()
        assert ss.sample_standard_sas(1.5, np.int16(4), 1).size == 4


class TestShiftPartition:
    def test_narrow_panel_skipped(self):
        # the panel (1, 1 + 1e-15) is narrower than 1e-14 of the span: it gets
        # no cells, and the partition has the cells of the one without it
        edges = shift_partition([0.0, 1.0, 1.0 + 1e-15], 0, 10.0)
        assert np.all(np.diff(edges) > 0.0)
        without = shift_partition([0.0, 1.0], 0, 10.0)
        assert edges.size == without.size
        assert np.max(np.abs(edges - without)) < 1e-14


class TestEmpiricalCf:
    def test_zero_theta_gives_one(self):
        k = ss.build(ss.LinearMotion(1.5))
        ens = ss.simulate(k, [1.0, 2.0], 50, seed=1)
        assert ss.empirical_cf(ens, ss.combo((0.0, 1.0))) == 1.0

    def test_zero_paths_give_one(self):
        ens = ss.PathEnsemble(np.array([0.5, 1.0]), np.zeros((20, 2)), 0, "x")
        assert ss.empirical_cf(ens, ss.combo((2.0, 0.5), (-1.0, 1.0))) == 1.0

    def test_empty_ensemble_rejected(self):
        ens = ss.simulate(ss.LinearMotion(1.5), [1, 2], 0, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_paths"):
                ss.empirical_cf(ens, ss.combo((1.0, 1.0)))

    def test_linear_motion_value(self):
        # sigma^alpha = 1 at t=1, so CF target is e^-1
        k = ss.build(ss.LinearMotion(1.5))
        ens = ss.simulate(k, [1.0], 100000, seed=2)
        assert abs(ss.empirical_cf(ens, ss.combo((1.0, 1.0))) - math.exp(-1.0)) < 0.02

    def test_missing_time_is_lookup_error(self):
        k = ss.build(ss.LinearMotion(1.5))
        ens = ss.simulate(k, [1.0, 2.0], 10, seed=1)
        with pytest.raises(LookupError):
            ss.empirical_cf(ens, ss.combo((1.0, 1.5)))

    def test_modulus_bounded(self):
        k = ss.build(ss.Lfsm(1.5, 0.7))
        ens = ss.simulate(k, [1.0, 2.0], 200, seed=4)
        assert abs(ss.empirical_cf(ens, ss.combo((1.0, 1.0), (0.7, 2.0)))) <= 1.0
