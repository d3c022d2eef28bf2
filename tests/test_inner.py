import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_blaschke
from innerlab import kernels
from innerlab.bc_sets import hyperbolic_dist
from innerlab.inner import (
    InnerFunctionRep,
    QuadratureError,
    circle_entropy_quadrature,
    critical_points,
    doubling_circle_mean,
    jensen_entropy,
    log_abs_inner,
)
from innerlab.measures import DiskMeasure
from oracles import green, poisson

TAU = 2.0 * math.pi
LOG2 = math.log(2.0)


class TestGreen:
    def test_at_origin(self):
        assert green(0.5, 0.0) == pytest.approx(LOG2, abs=1e-15)
        assert green(0.0, 0.5) == pytest.approx(LOG2, abs=1e-15)  # symmetry

    def test_generic_value(self):
        # oracle: direct evaluation of log|(1 - z*conj(a))/(z - a)|
        want = math.log(abs(1 - 0.5 * (-0.5j)) / abs(0.5 - 0.5j))
        assert green(0.5, 0.5j) == pytest.approx(want, abs=1e-15)
        assert green(0.5, 0.5j) == pytest.approx(0.37688590118819, abs=1e-12)

    def test_coincidence_signalled(self):
        with pytest.raises(ValueError):
            green(0.3 + 0.1j, 0.3 + 0.1j)


class TestKernels:
    """Each potential kernel against a pointwise formula summed atom by atom."""

    _xy = np.random.default_rng(3).uniform(-0.7, 0.7, (2, 50))
    z = _xy[0] + 1j * _xy[1]

    def test_green_sum_matches_green(self):
        rng = np.random.default_rng(4)
        atoms = rng.uniform(-0.6, 0.6, 7) + 1j * rng.uniform(-0.6, 0.6, 7)
        masses = rng.uniform(0.1, 2.0, 7)
        want = sum(m * green(self.z, a) for a, m in zip(atoms, masses))
        assert np.allclose(kernels.green_sum(self.z, atoms, masses), want, rtol=0, atol=1e-13)
        assert kernels.green_sum(self.z[0], atoms, masses) == pytest.approx(want[0], abs=1e-13)

    def test_poisson_sum_matches_poisson(self):
        rng = np.random.default_rng(5)
        angs = rng.uniform(0, TAU, 5)
        masses = rng.uniform(0.1, 2.0, 5)
        want = sum(m * poisson(self.z, t) for t, m in zip(angs, masses))
        assert np.allclose(kernels.poisson_sum(self.z, angs, masses), want, rtol=0, atol=1e-13)

    def test_outer_exponent_matches_direct_sum(self):
        rng = np.random.default_rng(6)
        dirs = np.exp(1j * rng.uniform(0, TAU, 6))
        anchors = rng.uniform(1.0, 1.5, 6) * dirs
        masses = rng.uniform(0.1, 2.0, 6)
        got = kernels.outer_exponent(self.z, anchors, dirs, masses)
        for zp, g in zip(self.z, got):
            want = sum(m * u / (a - zp) for a, u, m in zip(anchors, dirs, masses))
            assert abs(g - want) <= 1e-13 * (1.0 + abs(want))

    @pytest.mark.parametrize("kernel", [kernels.green_sum, kernels.poisson_sum])
    def test_bounds_its_memory(self, kernel):
        # 20,000 points against 512 atoms peak at 328 MB in one broadcast;
        # in row slices of CHUNK_PAIRS pairs at about 4 MB
        rng = np.random.default_rng(8)
        z = 0.9 * np.sqrt(rng.uniform(0, 1, 20_000)) * np.exp(1j * rng.uniform(0, TAU, 20_000))
        atoms = 0.95 * np.exp(1j * rng.uniform(0, TAU, 512))
        if kernel is kernels.poisson_sum:
            atoms = np.angle(atoms)
        masses = rng.uniform(0.1, 2.0, 512)
        tracemalloc.start()
        try:
            out = kernel(z, atoms, masses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10_000_000, peak
        # the slices come back in order: spot points across them
        spots = np.arange(0, z.size, 997)
        assert np.allclose(out[spots], kernel(z[spots], atoms, masses), rtol=1e-14, atol=0)

    def test_empty_atom_sets(self):
        empty = np.array([])
        assert np.array_equal(kernels.green_sum(self.z, empty.astype(complex), empty), np.zeros(50))
        assert np.array_equal(kernels.poisson_sum(self.z, empty, empty), np.zeros(50))
        out = kernels.outer_exponent(self.z, empty.astype(complex), empty.astype(complex), empty)
        assert out.dtype == np.complex128 and not out.any()


class TestHyperbolic:
    def test_radial(self):
        assert hyperbolic_dist(0.0, 0.5) == pytest.approx(0.5 * math.log(3), abs=1e-15)

    def test_zero_on_diagonal(self):
        assert hyperbolic_dist(0.3 + 0.2j, 0.3 + 0.2j) == 0.0

    def test_mobius_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x, y, a = (
                complex(*rng.uniform(-0.6, 0.6, 2)),
                complex(*rng.uniform(-0.6, 0.6, 2)),
                complex(*rng.uniform(-0.5, 0.5, 2)),
            )
            t = InnerFunctionRep([(a, 1)], rotation=np.exp(1j * rng.uniform(0, TAU)))
            assert hyperbolic_dist(t(x), t(y)) == pytest.approx(
                hyperbolic_dist(x, y), abs=1e-12
            )


class TestLogAbsInner:
    def test_singular_atom_at_origin_probe(self):
        om = DiskMeasure(boundary=[(0.0, 1.0)])
        assert log_abs_inner(om, 0.0) == pytest.approx(-1.0, abs=1e-15)
        # matches the explicit exp((z+1)/(z-1)) factor
        s = InnerFunctionRep(singular_atoms=[(0.0, 1.0)])
        z = 0.3 + 0.2j
        assert log_abs_inner(om, z) == pytest.approx(math.log(abs(s(z))), abs=1e-12)

    def test_interior_atom(self):
        om = DiskMeasure(interior=[(0j, 1.0)])
        assert log_abs_inner(om, 0.5) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_additivity(self):
        om1 = DiskMeasure(interior=[(0j, 1.0)])
        om2 = DiskMeasure(boundary=[(0.0, 1.0)])
        z = 0.4 + 0.1j
        assert log_abs_inner(om1 + om2, z) == pytest.approx(
            log_abs_inner(om1, z) + log_abs_inner(om2, z), abs=1e-14
        )

    def test_nonpositive_everywhere(self):
        rng = np.random.default_rng(8)
        om = DiskMeasure(
            interior=[(0.3 + 0.4j, 1.5)], boundary=[(1.0, 0.7), (4.0, 0.2)]
        )
        z = rng.uniform(-0.7, 0.7, 200) + 1j * rng.uniform(-0.7, 0.7, 200)
        z = z[np.abs(z) < 0.99]
        assert np.all(log_abs_inner(om, z) <= 1e-15)

    def test_radial_averages_vanish_for_interior_structure(self):
        # boundary averages of log(1/|B|) tend weakly to zero
        om = DiskMeasure(interior=[(0.5, 1.0), (0.3j, 2.0)])
        theta = np.linspace(0, TAU, 512, endpoint=False)
        avgs = []
        for r in (0.9, 0.99, 0.999):
            avgs.append(-np.mean(log_abs_inner(om, r * np.exp(1j * theta))))
        assert avgs[0] > avgs[-1]
        assert avgs[-1] < 5e-3


class TestBlaschkeEval:
    def test_unimodular_on_circle(self):
        f = random_blaschke(np.random.default_rng(1), 5)
        z = np.exp(1j * np.linspace(0, TAU, 64, endpoint=False))
        assert np.allclose(np.abs(f(z)), 1.0, atol=1e-12)

    def test_derivative_matches_finite_difference(self):
        f = random_blaschke(np.random.default_rng(2), 4)
        h = 1e-6
        for z in (0.1 + 0.2j, -0.35j, 0.5):
            fd = (f(z + h) - f(z - h)) / (2 * h)
            assert f.deriv(z) == pytest.approx(fd, abs=1e-7)

    def test_critical_point_of_quadratic(self):
        f = InnerFunctionRep([(0j, 1), (0.5, 1)])
        (c, m), = critical_points(f)
        assert m == 1
        assert c == pytest.approx(2 - math.sqrt(3), abs=1e-11)

    def test_monomial_critical_points(self):
        for d in (2, 3, 6):
            (c, m), = critical_points(InnerFunctionRep([(0j, d)]))
            assert c == 0 and m == d - 1

    def test_critical_count_random(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            f = random_blaschke(rng, int(rng.integers(2, 8)))
            crits = critical_points(f)
            assert sum(m for _, m in crits) == f.degree - 1
            for c, _ in crits:
                assert abs(f.deriv(c)) < 1e-8


class TestEntropy:
    def test_identity_map(self):
        assert jensen_entropy(InnerFunctionRep([(0j, 1)])) == 0.0

    def test_quadratic_formula(self):
        f = InnerFunctionRep([(0j, 1), (0.5, 1)])
        want = math.log(0.5 / (2 - math.sqrt(3)))
        assert jensen_entropy(f) == pytest.approx(want, abs=1e-11)
        assert jensen_entropy(f) == pytest.approx(0.6238, abs=1e-4)

    def test_zero_migration_limits(self):
        # z*T_a tends to z^2 as a->0 (entropy -> log 2, the quadrature value
        # of the limit) and to a rotation of z as |a|->1 (entropy -> 0)
        inner_vals = [
            jensen_entropy(InnerFunctionRep([(0j, 1), (a, 1)]))
            for a in (0.2, 0.05, 0.01, 0.002)
        ]
        assert inner_vals == sorted(inner_vals)
        assert inner_vals[-1] == pytest.approx(LOG2, abs=1e-5)
        edge_vals = [
            jensen_entropy(InnerFunctionRep([(0j, 1), (a, 1)]))
            for a in (0.9, 0.99, 0.999)
        ]
        assert edge_vals == sorted(edge_vals, reverse=True)
        assert edge_vals[-1] < 0.05  # decays like sqrt(1-a)

    def test_quadrature_oracle_simple_cases(self):
        assert circle_entropy_quadrature(InnerFunctionRep([(0j, 1)])) == pytest.approx(
            0.0, abs=1e-12
        )
        assert circle_entropy_quadrature(InnerFunctionRep([(0j, 2)])) == pytest.approx(
            LOG2, abs=1e-12
        )

    def test_formula_matches_quadrature(self):
        rng = np.random.default_rng(2024)
        done = 0
        while done < 8:
            f = random_blaschke(rng, int(rng.integers(2, 7)), origin_zero=True)
            ent = jensen_entropy(f)
            quad = circle_entropy_quadrature(f)
            assert ent == pytest.approx(quad, abs=1e-6)
            assert ent >= -1e-9  # nonnegative on the corpus
            done += 1

    def test_requires_origin_zero(self):
        with pytest.raises(ValueError):
            jensen_entropy(InnerFunctionRep([(0.5, 1)]))
        with pytest.raises(ValueError):
            jensen_entropy(InnerFunctionRep([(0j, 2)]))  # F'(0) = 0

    def test_circle_mean_raises_when_unsettled(self):
        # a level that depends on the node count (1, 2, 4, 1, 2 at n = 64..1024)
        # never repeats between doublings, so the cap is reached
        def noise(theta):
            return np.full(theta.size, float(theta.size % 7))

        with pytest.raises(QuadratureError, match="within 1024 nodes"):
            doubling_circle_mean(noise, 1e-12, 1024, 0.318)
        assert issubclass(QuadratureError, RuntimeError)


class TestInnerRep:
    def test_modulus_matches_log_abs(self):
        rep = InnerFunctionRep(
            zeros=[(0.3 + 0.2j, 2)], singular_atoms=[(1.0, 0.5)], rotation=1j
        )
        z = np.array([0.1 + 0.4j, -0.5j, 0.6])
        om = DiskMeasure(interior=[(0.3 + 0.2j, 2.0)], boundary=[(1.0, 0.5)])
        assert np.allclose(np.log(np.abs(rep(z))), log_abs_inner(om, z), atol=1e-12)

    def test_degree_and_origin_multiplicity(self):
        rep = InnerFunctionRep([(0j, 2), (1e-14, 1), (0.5, 3)], [(1.0, 0.5)])
        assert rep.degree == 6
        assert rep.origin_multiplicity == 3
        assert InnerFunctionRep().degree == 0

    def test_derivatives_need_a_finite_blaschke_product(self):
        rep = InnerFunctionRep([(0j, 1), (0.5, 1)], [(1.0, 0.5)])
        for call in (rep.numden, rep.deriv_poly, lambda: rep.deriv(0.1), lambda: critical_points(rep)):
            with pytest.raises(ValueError, match="no singular atoms"):
                call()

    def test_rotation_is_the_keyword_after_singular_atoms(self):
        rep = InnerFunctionRep([(0.5, 1)], rotation=1j)
        assert rep.singular_atoms == () and rep.rotation == 1j
        assert rep(0.5) == 0 and rep(0.0) == pytest.approx(-0.5j, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            InnerFunctionRep(zeros=[(1.2, 1)])
        with pytest.raises(ValueError):
            InnerFunctionRep(rotation=2.0)


class TestPotentialProperties:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    pts = st.complex_numbers(max_magnitude=0.93, allow_infinity=False, allow_nan=False)

    @given(pts, pts)
    @settings(max_examples=80, deadline=None)
    def test_green_symmetry_and_sign(self, z, a):
        if abs(z - a) < 1e-6:
            return
        g = green(z, a)
        assert g >= -1e-13
        assert g == pytest.approx(green(a, z), rel=1e-10, abs=1e-12)

    @given(pts, pts, pts)
    @settings(max_examples=60, deadline=None)
    def test_hyperbolic_triangle_inequality(self, x, y, w):
        assert hyperbolic_dist(x, y) <= (
            hyperbolic_dist(x, w) + hyperbolic_dist(w, y) + 1e-10
        )
