import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerlab.bc_sets import (
    TAU,
    BCSet,
    CircleArc,
    StarSpec,
    arc_gap_entropy,
    dist_angle_to_set,
    hyperbolic_dist_to_star,
    star_area_integral,
    star_contains,
)

LOG2 = math.log(2.0)


def equally_spaced(n):
    return BCSet.from_points([TAU * k / n for k in range(n)])


class TestEntropy:
    def test_single_point(self):
        e = BCSet.from_points([0.0])
        assert e.entropy() == 0.0

    def test_two_antipodal(self):
        e = BCSet.from_points([0.0, math.pi])
        assert e.entropy() == pytest.approx(LOG2, abs=1e-15)

    def test_equally_spaced_closed_form(self):
        # brute-force sum over gaps against the closed form n*(1/n)*log n
        for n in (2, 3, 5, 8, 17, 64):
            e = equally_spaced(n)
            brute = math.fsum(-g.length * math.log(g.length) for g in e.gaps)
            assert e.entropy() == pytest.approx(brute, abs=1e-15)
            assert e.entropy() == pytest.approx(math.log(n), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, TAU, size=9)
        e = BCSet.from_points(pts)
        for delta in (0.3, 1.7, -2.2):
            assert e.rotate(delta).entropy() == pytest.approx(e.entropy(), abs=1e-12)

    @given(st.lists(st.floats(0, TAU - 1e-9), min_size=1, max_size=12),
           st.floats(1e-3, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_local_entropy_bounds(self, pts, eta):
        e = BCSet.from_points(pts)
        le = e.local_entropy(eta)
        assert 0.0 <= le <= e.entropy() + 1e-15
        assert le <= e.local_entropy(min(1.0, eta * 2)) + 1e-15  # nondecreasing


class TestLocalEntropy:
    def test_antipodal_thresholds(self):
        e = BCSet.from_points([0.0, math.pi])
        assert e.local_entropy(0.6) == pytest.approx(LOG2, abs=1e-15)
        assert e.local_entropy(0.4) == 0.0

    def test_eight_points(self):
        e = equally_spaced(8)
        assert e.local_entropy(0.2) == pytest.approx(3 * LOG2, abs=1e-12)


class TestArcGapEntropy:
    def test_subadditivity_in_arc(self):
        # entropy of the union complement within an arc is subadditive
        rng = np.random.default_rng(11)
        a, b = 0.3, 2.9
        for _ in range(200):
            f1 = rng.uniform(a, b, size=rng.integers(1, 9))
            f2 = rng.uniform(a, b, size=rng.integers(1, 9))
            lhs = arc_gap_entropy(np.concatenate([f1, f2]), a, b)
            rhs = arc_gap_entropy(f1, a, b) + arc_gap_entropy(f2, a, b)
            assert lhs <= rhs + 1e-12


class TestDist:
    def test_point_in_set(self):
        e = BCSet.from_points([0.4, 2.0])
        assert dist_angle_to_set(0.4, e) == 0.0
        assert dist_angle_to_set(2.0, e) == 0.0

    def test_chord_formula(self):
        e = BCSet.from_points([0.0])
        got = dist_angle_to_set(0.3, e)
        assert got == pytest.approx(2 * math.sin(0.15), abs=1e-14)
        assert got == pytest.approx(abs(np.exp(0.3j) - 1), abs=1e-14)

    def test_symmetric_pair(self):
        e = BCSet.from_points([0.0, math.pi])
        assert dist_angle_to_set(0.5 * math.pi, e) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_atan2_range(self):
        # star_contains passes angles in (-pi, pi]; the gap across angle 0
        # must measure them the same as their normalized copies
        e = BCSet.from_points([0.5, 2.0, 4.0])
        for phi in (-0.3, -1.5, -math.pi + 0.01, 0.2):
            assert dist_angle_to_set(phi, e) == pytest.approx(
                dist_angle_to_set(phi % TAU, e), abs=1e-14
            )
        assert dist_angle_to_set(-0.3, e) == pytest.approx(
            abs(np.exp(-0.3j) - np.exp(0.5j)), abs=1e-14
        )


class TestStar:
    def test_radial_point_above_base(self):
        spec = StarSpec(BCSet.from_points([0.0]))
        assert star_contains(spec, 0.9)

    def test_rotated_point_excluded(self):
        spec = StarSpec(BCSet.from_points([0.0]))
        assert not star_contains(spec, 0.9 * np.exp(0.3j))

    def test_origin_is_core(self):
        spec = StarSpec(BCSet.from_points([2.0]))
        assert star_contains(spec, 0.0)
        assert not star_contains(StarSpec(spec.base, include_core=False), 0.0)

    def test_monotone_in_order_and_aperture(self):
        # theta up always shrinks; order up enlarges where dist <= 1 and
        # shrinks where dist >= 1 (pointwise implication of the inequality)
        base = BCSet.from_points([0.0, 2.0, 4.0])
        rng = np.random.default_rng(9)
        zs = rng.uniform(0.05, 0.99, 120) * np.exp(1j * rng.uniform(0, TAU, 120))
        for z in zs:
            in_11 = star_contains(StarSpec(base, 1.0, 1.0, False), z)
            in_21 = star_contains(StarSpec(base, 2.0, 1.0, False), z)
            in_1h = star_contains(StarSpec(base, 1.0, 0.5, False), z)
            d = dist_angle_to_set(float(np.angle(z)), base)
            if in_11 and d <= 1.0:
                assert in_21
            if in_21 and d >= 1.0:
                assert in_11
            if in_11:
                assert in_1h

    def test_area_integral_rejects_degenerate(self):
        with pytest.raises(ValueError):
            star_area_integral(StarSpec(BCSet.full_circle()))

    def test_area_integral_resolution_stable(self):
        spec = StarSpec(BCSet.from_points([0.0, math.pi]))
        v1 = star_area_integral(spec, levels=30, order=12)
        v2 = star_area_integral(spec, levels=45, order=20)
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_area_integral_tracks_entropy(self):
        # comparability band across a small corpus (Lemma-style two-sided bound)
        ratios = []
        for n in (2, 4, 8, 16, 32):
            e = equally_spaced(n)
            v = star_area_integral(StarSpec(e), levels=35, order=16)
            ratios.append(v / e.entropy())
        assert max(ratios) / min(ratios) < 12.0

    def test_area_integral_converges_for_concentrating_sequence(self):
        # E_n = {0, pi, pi+eps_n} -> E = {0, pi} with entropies converging:
        # integrals converge (the extra point's contribution vanishes)
        target = BCSet.from_points([0.0, math.pi])
        limit = star_area_integral(StarSpec(target), levels=35, order=16)
        errs = []
        for eps in (0.2, 0.05, 0.01, 0.002):
            e = BCSet.from_points([0.0, math.pi, math.pi + eps])
            errs.append(abs(star_area_integral(StarSpec(e), levels=35, order=16) - limit))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.02 * limit


class TestHyperbolicDistToStar:
    def test_inside_is_zero(self):
        spec = StarSpec(BCSet.from_points([0.0]))
        assert hyperbolic_dist_to_star(0.9, spec) == 0.0
        assert hyperbolic_dist_to_star(0.1, spec) == 0.0  # core

    def test_outside_positive_and_refines(self):
        spec = StarSpec(BCSet.from_points([0.0]), order=2.0, include_core=False)
        d1 = hyperbolic_dist_to_star(-0.5, spec, n_samples=512)
        d2 = hyperbolic_dist_to_star(-0.5, spec, n_samples=2048)
        assert d2 > 0.0
        assert d2 <= d1 + 1e-12  # nested samples can only improve the min

    def test_monotone_in_aperture(self):
        base = BCSet.from_points([0.0])
        z = -0.4 + 0.2j
        d_small = hyperbolic_dist_to_star(z, StarSpec(base, 2.0, 0.4, False), 1024)
        d_big = hyperbolic_dist_to_star(z, StarSpec(base, 2.0, 1.0, False), 1024)
        assert d_big >= d_small - 1e-12


def test_gap_validation():
    with pytest.raises(ValueError):
        CircleArc(0.0, 0.0)
    with pytest.raises(ValueError):
        CircleArc(0.0, 1.5)
    with pytest.raises(ValueError):
        BCSet([CircleArc(0.0, 0.5), CircleArc(1.0, 0.5)])  # overlap
