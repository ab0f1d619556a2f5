import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stablesim as ss
from stablesim.identify import (
    is_periodically_minimal,
    match_rotating,
    mixing_measure,
    ray_test,
    same_mixed_lfsm,
)
from stablesim.kernels import FourierSeries
from stablesim.verify import default_probes

ALPHA = 1.5


class TestMixingMeasure:
    def test_atom_pushforward(self):
        m = mixing_measure([((2.0, 0.0), 1.0)], ALPHA)
        assert len(m) == 2
        weights = sorted(w for _, w in m)
        assert weights[0] == pytest.approx(2.0**ALPHA)
        assert weights[1] == pytest.approx(2.0**ALPHA)
        dirs = sorted(o[0] for o, _ in m)
        assert dirs == pytest.approx([-1.0, 1.0])

    def test_unit_atom(self):
        m = mixing_measure([((1.0, 0.0), 1.0)], 1.2)
        assert all(w == pytest.approx(1.0) for _, w in m)

    def test_zero_atom_refused(self):
        with pytest.raises(ValueError):
            mixing_measure([((0.0, 0.0), 1.0)], ALPHA)

    def test_atoms_on_one_ray_merge(self):
        m = mixing_measure([((1.0, 0.0), 1.0), ((2.0, 0.0), 1.0)], ALPHA)
        assert [o for o, _ in m] == [(1.0, 0.0), (-1.0, 0.0)]
        assert [w for _, w in m] == pytest.approx([1.0 + 2.0**ALPHA] * 2, rel=1e-12)

    def test_atoms_across_zero_angle_merge(self):
        # angles +-1e-12 sort to the two ends of [0, 2 pi): one direction
        eps = 1e-12
        m = mixing_measure([((math.cos(eps), math.sin(eps)), 1.0),
                            ((math.cos(eps), -math.sin(eps)), 1.0)], ALPHA)
        assert len(m) == 2
        assert [w for _, w in m] == pytest.approx([2.0, 2.0], rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 10.0))
    def test_weight_rescaling_linear(self, lam):
        base = mixing_measure([((1.0, 2.0), 1.0), ((0.5, -1.0), 2.0)], ALPHA)
        scaled = mixing_measure([((1.0, 2.0), lam), ((0.5, -1.0), 2.0 * lam)], ALPHA)
        for (o1, w1), (o2, w2) in zip(base, scaled):
            assert o1 == pytest.approx(o2)
            assert w2 == pytest.approx(lam * w1, rel=1e-12)


class TestSameMixedLfsm:
    def test_radial_rescaling_matches(self):
        assert same_mixed_lfsm([((2.0, 0.0), 1.0)], [((1.0, 0.0), 2.0**ALPHA)], ALPHA)

    def test_sign_flip_matches(self):
        assert same_mixed_lfsm([((1.0, 0.0), 1.0)], [((-1.0, 0.0), 1.0)], ALPHA)

    def test_distinct_directions_differ(self):
        assert not same_mixed_lfsm([((1.0, 0.0), 1.0)], [((0.0, 1.0), 1.0)], ALPHA)

    def test_different_atom_counts_differ(self):
        assert not same_mixed_lfsm([((1.0, 0.0), 1.0)],
                                   [((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)], ALPHA)

    def test_different_weights_differ(self):
        assert not same_mixed_lfsm([((1.0, 0.0), 1.0)], [((1.0, 0.0), 2.0)], ALPHA)

    def test_equal_measures_give_equal_cf(self):
        # equality of the sphere measures must be confirmed by the simulator's
        # quadrature oracle on the actual kernels
        q1 = [((2.0, 0.0), 1.0)]
        q2 = [((1.0, 0.0), 2.0**ALPHA)]
        assert same_mixed_lfsm(q1, q2, ALPHA)
        k1 = ss.build(ss.MixedLfsm(ALPHA, 0.7, tuple(q1)))
        k2 = ss.build(ss.MixedLfsm(ALPHA, 0.7, tuple(q2)))
        for c in default_probes():
            v1 = ss.cf_exponent(k1, c, level=1).expect()
            v2 = ss.cf_exponent(k2, c, level=1).expect()
            assert v2 == pytest.approx(v1, rel=1e-3)

    def test_zero_atom_leaves_the_law(self):
        # validate admits a zero atom beside a nonzero one; its kernel is 0,
        # so the spec has the law of the spec without it
        with_zero = ss.MixedLfsm(1.5, 0.7, (((1.0, 0.0), 1.0), ((0.0, 0.0), 0.5)))
        without = ss.MixedLfsm(1.5, 0.7, (((1.0, 0.0), 1.0),))
        assert ss.validate(with_zero).ok
        c = ss.combo((1.0, 1.0), (-0.5, 2.0))
        assert (ss.cf_exponent(with_zero, c, level=1).expect()
                == ss.cf_exponent(without, c, level=1).expect())
        doc = with_zero.same_law(without)
        assert doc["equal_in_law"] and doc["ray_1"] and doc["ray_2"]
        assert doc["sphere_measure_1"] == doc["sphere_measure_2"]

    def test_ray_measure_matches_pure_lfsm_up_to_scale(self):
        q = [((1.0, 0.0), 0.7), ((-2.0, 0.0), 0.3)]
        assert ray_test(q)
        mixed = ss.build(ss.MixedLfsm(ALPHA, 0.7, tuple(q)))
        pure = ss.build(ss.Lfsm(ALPHA, 0.7, 1.0, 0.0))
        scale = None
        for c in default_probes():
            v1 = ss.cf_exponent(mixed, c, level=1).expect()
            v2 = ss.cf_exponent(pure, c, level=1).expect()
            if scale is None:
                scale = v1 / v2
            assert v1 / v2 == pytest.approx(scale, rel=1e-9)


class TestRayTest:
    def test_positive_multiples(self):
        assert ray_test([((1.0, 0.0), 1.0), ((2.0, 0.0), 1.0)])

    def test_line_through_origin(self):
        assert ray_test([((1.0, 0.0), 1.0), ((-2.0, 0.0), 1.0)])

    def test_two_directions(self):
        assert not ray_test([((1.0, 0.0), 1.0), ((0.0, 1.0), 1.0)])

    def test_oblique_ray(self):
        assert ray_test([((1.0, 1.0), 1.0), ((-3.0, -3.0), 2.0)])

    def test_zero_atoms_only(self):
        assert not ray_test([((0.0, 0.0), 1.0), ((0.0, 0.0), 2.0)])


class TestMinimalPeriod:
    def test_single_double_harmonic(self):
        assert not is_periodically_minimal(FourierSeries(((2, 1.0, 0.0),)))

    def test_mixed_harmonics_minimal(self):
        assert is_periodically_minimal(FourierSeries(((1, 1.0, 0.0), (2, 1.0, 0.0))))

    def test_gcd_three(self):
        g = FourierSeries(((3, 1.0, 0.0), (6, 0.0, 1.0)))
        assert not is_periodically_minimal(g)
        # brute-force period scan oracle: find the smallest dyadic-fraction
        # shift of 2 pi under which the sampled profile is invariant
        n = 5040  # divisible by every candidate divisor
        s = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        vals = g(s)
        periods = [2.0 * math.pi / d for d in range(1, 13)
                   if n % d == 0 and np.max(np.abs(vals - np.roll(vals, -n // d))) < 1e-9]
        assert min(periods) == pytest.approx(2.0 * math.pi / 3.0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6))
    def test_reindexing_breaks_minimality(self, k):
        base = FourierSeries(((1, 0.7, 0.2), (2, 0.0, -0.4)))
        reindexed = FourierSeries(tuple((k * kk, a, b) for kk, a, b in base.terms))
        assert is_periodically_minimal(reindexed) == (k == 1)


class TestMatchRotating:
    def test_shift_and_offset_witness(self):
        g1 = FourierSeries(((1, 1.0, 0.0),))
        tau = math.pi / 3.0
        g2 = FourierSeries(((1, math.cos(tau), -math.sin(tau)),), constant=1.0)
        w = match_rotating(g1, 0.8, g2, 0.8, tol=1e-3)
        assert w is not None
        assert w.epsilon == 1
        assert w.shift == pytest.approx(tau, abs=1e-3)
        assert w.offset == pytest.approx(1.0)

    def test_sign_flip_witness(self):
        g1 = FourierSeries(((1, 1.0, 0.0),))
        g2 = FourierSeries(((1, -1.0, 0.0),))
        w = match_rotating(g1, 0.8, g2, 0.8)
        assert w is not None
        # -cos(s) = cos(s + pi): either (eps=-1, tau=0) or (eps=1, tau=pi)
        assert (w.epsilon == -1 and abs(w.shift) < 1e-6) or \
               (w.epsilon == 1 and w.shift == pytest.approx(math.pi, abs=1e-6))

    def test_distinct_profiles_rejected(self):
        g1 = FourierSeries(((1, 1.0, 0.0),))
        g2 = FourierSeries(((1, 1.0, 0.0), (2, 0.5, 0.0)))
        assert match_rotating(g1, 0.8, g2, 0.8) is None

    def test_beta_gate(self):
        g1 = FourierSeries(((1, 1.0, 0.0),))
        assert match_rotating(g1, 0.8, g1, 0.7) is None

    def test_non_minimal_refused(self):
        g1 = FourierSeries(((2, 1.0, 0.0),))
        with pytest.raises(ValueError, match="minimal"):
            match_rotating(g1, 0.8, g1, 0.8)

    def test_witness_symmetry(self):
        g1 = FourierSeries(((1, 0.8, 0.3), (3, 0.2, -0.1)))
        tau = 1.1
        grid_terms = []
        # rotate each harmonic by tau: coefficients transform by the phase e^{ik tau}
        for k, a, b in g1.terms:
            gam = complex(a, -b) * complex(math.cos(k * tau), math.sin(k * tau))
            grid_terms.append((k, gam.real, -gam.imag))
        g2 = FourierSeries(tuple(grid_terms), constant=0.5)
        w12 = match_rotating(g1, 0.8, g2, 0.8)
        w21 = match_rotating(g2, 0.8, g1, 0.8)
        assert w12 is not None and w21 is not None
        # composing the witnesses returns to the identity shift
        assert (w12.shift + w21.shift) % (2.0 * math.pi) == pytest.approx(0.0, abs=1e-6) or \
               (w12.shift + w21.shift) % (2.0 * math.pi) == pytest.approx(2.0 * math.pi, abs=1e-6)

    def test_zero_fundamental_matches_nothing(self):
        # g1's fundamental k = 1 is absent from g2, so no phase to match
        g1 = FourierSeries(((1, 1.0, 0.0), (2, 0.5, 0.0)))
        g2 = FourierSeries(((2, 1.0, 0.0), (3, 0.5, 0.0)))
        assert match_rotating(g1, 0.8, g2, 0.8) is None
