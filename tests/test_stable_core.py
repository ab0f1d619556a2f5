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
from stablesim.core import _BLOCK_CELLS, _cms
from stablesim.quadrature import RTOL, Certificate, pairwise_sum, run_levels, shift_partition
from stablesim.riemann import StepMultiplier, constant_multiplier, integrate, scalar_curve
from stablesim.transforms import PathFunction, increment_process
from stablesim.verify import check_stationary_increments, default_probes


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
    def test_matches_full_array_reference(self, spec):
        # the row-blocked integrand with its power on nonzero cells only must
        # give exactly the values of whole fields, accumulated term by term,
        # then abs, ** alpha and * masses over the full array.  The rotating
        # family sums its terms as radial coefficients (its ``combination``),
        # so its reference is that sum over the whole, unblocked grid.  An
        # increment process is its source's combination of each term's
        # (theta, t + lag) and (-theta, t), so its reference takes the
        # source's fields of those, in that order.  The
        # truncated level-1 grid of the first probe (864 rows, 65536 // 165 =
        # 397 per block) ends in a partial block, asserted below;
        # Chentsov(1.0, 0.5) covers alpha = 1, Chentsov(0.5, 0.6) alpha = 0.5
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
            assert rows % (_BLOCK_CELLS // cols) != 0
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
        # the CPU count, and both workers take some of the 40 spans
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
        monkeypatch.setattr(core, "_ORACLE_POOL_MIN_WORK", 0)
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
            assert masses.ndim == 1 and len(pts) == masses.size
            assert np.all(np.isfinite(masses)) and np.all(masses >= 0.0)


class TestSimulate:
    def test_gaussian_variance_matches_time(self):
        k = ss.LinearMotion(2.0)
        ens = ss.simulate(k, [0.5, 1.0, 2.0], 20000, seed=7)
        for j, t in enumerate(ens.times):
            assert ens.values[:, j].var() / 2.0 == pytest.approx(t, rel=0.08)

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
                ss.Lfsm(1.5, 0.7))
PRUNED_TIMES = [0.5, 1.0, 2.0]


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
        # reference: the live cells found from sim_grid and eval, n_live
        # uniforms then n_live exponentials per path, reduced with einsum;
        # the two differ by reduction rounding alone
        times = sorted({t for c in default_probes() for t in c.times})
        seed, n_paths = 17, 7
        k = ss.build(spec)
        pts, masses = k.sim_grid(times[0], times[-1], 1)
        kmat = np.array([k.eval(t, pts) for t in times]) * masses ** (1.0 / k.alpha)
        live = np.any(kmat != 0.0, axis=0)
        n_live = int(live.sum())
        base = np.random.Philox(key=np.uint64(seed))
        draws = []
        for i in range(n_paths):
            gen = np.random.Generator(base.jumped(i))
            u = gen.random(n_live)
            draws.append(_cms(u, gen.standard_exponential(n_live), k.alpha))
        ref = np.einsum("pc,tc->pt", np.array(draws), kmat[:, live], optimize=False)
        got = ss.simulate(k, times, n_paths, seed=seed).values
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_dead_cells_take_no_draws(self, monkeypatch):
        # lfsm's K(t, s) is 0 for s past every grid time; cells put there at
        # the front, in the middle and at the back are dead and must leave
        # every row bit for bit as it was
        k = ss.build(ss.Lfsm(1.5, 0.7))
        want = ss.simulate(k, PRUNED_TIMES, 300, seed=5).values
        n_cells = k.sim_grid(PRUNED_TIMES[0], PRUNED_TIMES[-1], 1)[1].size
        far = PRUNED_TIMES[-1] + np.arange(1.0, 13.0)
        assert not any(np.any(k.eval(t, far)) for t in PRUNED_TIMES)
        sim_cells = ss.Lfsm.sim_cells

        def padded(self, t_lo, t_hi, level):
            s, m = sim_cells(self, t_lo, t_hi, level)
            at = np.repeat([0, s.size // 2, s.size], 4)
            return np.insert(s, at, far), np.insert(m, at, 0.5)

        monkeypatch.setattr(ss.Lfsm, "sim_cells", padded)
        assert k.sim_grid(PRUNED_TIMES[0], PRUNED_TIMES[-1], 1)[1].size == n_cells + far.size
        got = ss.simulate(k, PRUNED_TIMES, 300, seed=5).values
        assert got.tobytes() == want.tobytes()


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
