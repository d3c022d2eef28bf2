import math

import numpy as np
import pytest

from innerlab import kernels
from innerlab.bc_sets import TAU, BCSet
from innerlab.measures import (
    DiskMeasure,
    ThetaUnsolvableError,
    diffuse_family,
    max_star_mass,
    theta_for,
)

LOG2 = math.log(2.0)


class TestMasses:
    def test_empty(self):
        om = DiskMeasure()
        assert om.blaschke_mass() == 0.0

    def test_atom_at_origin(self):
        om = DiskMeasure(interior=[(0j, 1.0)])
        assert om.blaschke_mass() == 1.0

    def test_mixed(self):
        om = DiskMeasure(interior=[(0.9, 2.0)], boundary=[(0.0, 0.5)])
        assert om.blaschke_mass() == pytest.approx(0.7, abs=1e-12)

    def test_duplicate_atoms_merge(self):
        om = DiskMeasure(interior=[(0.5j, 1.0), (0.5j, 2.0)])
        assert len(om.interior) == 1
        assert om.interior[0][1] == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskMeasure(interior=[(1.0 + 0j, 1.0)])
        with pytest.raises(ValueError):
            DiskMeasure(boundary=[(0.0, -1.0)])

    @pytest.mark.parametrize(
        "interior,boundary",
        [
            ([(complex(math.nan, 0.0), 1.0)], []),
            ([(complex(0.1, math.nan), 1.0)], []),
            ([(0.1, math.inf)], []),
            ([(0.1, math.nan)], []),
            ([], [(0.0, math.nan)]),
            ([], [(0.0, math.inf)]),
            ([], [(math.nan, 1.0)]),
            ([], [(math.inf, 1.0)]),
        ],
        ids=["interior-nan", "interior-imag-nan", "interior-mass-inf", "interior-mass-nan",
             "boundary-mass-nan", "boundary-mass-inf", "boundary-angle-nan", "boundary-angle-inf"],
    )
    def test_rejects_non_finite(self, interior, boundary):
        with pytest.raises(ValueError):
            DiskMeasure(interior=interior, boundary=boundary)


class TestMaxStarMass:
    def test_both_atoms_fit(self):
        om = DiskMeasure(boundary=[(0.0, 0.3), (math.pi, 0.7)])
        val, wit = max_star_mass(om, LOG2 + 1e-9, mode="exact")
        assert val == pytest.approx(1.0, abs=1e-15)
        assert wit == BCSet.from_points([0.0, math.pi])

    def test_budget_forces_singleton(self):
        om = DiskMeasure(boundary=[(0.0, 0.3), (math.pi, 0.7)])
        val, wit = max_star_mass(om, 0.5, mode="exact")
        assert val == pytest.approx(0.7, abs=1e-15)
        assert wit == BCSet.from_points([math.pi])

    def test_empty(self):
        assert max_star_mass(DiskMeasure(), 1.0, mode="exact") == (0.0, None)

    @pytest.mark.parametrize("mode", ["exact", "greedy"])
    @pytest.mark.parametrize("budget", [-1.0, math.nan])
    def test_rejects_budget_below_zero_or_nan(self, mode, budget):
        om = DiskMeasure(boundary=[(0.0, 0.3), (math.pi, 0.7)])
        with pytest.raises(ValueError, match="entropy budget"):
            max_star_mass(om, budget, mode=mode)

    def test_exact_beats_greedy_and_monotone_in_budget(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            k = int(rng.integers(2, 10))
            om = DiskMeasure(
                boundary=[(a, m) for a, m in zip(rng.uniform(0, TAU, k), rng.uniform(0.1, 1, k))]
            )
            prev = 0.0
            for budget in (0.1, 0.5, 1.2, math.log(k) + 0.1):
                ex, _ = max_star_mass(om, budget, mode="exact")
                gr, _ = max_star_mass(om, budget, mode="greedy")
                assert ex >= gr - 1e-12
                assert ex >= prev - 1e-12
                prev = ex

    def test_exact_mode_cap(self):
        om = DiskMeasure(boundary=[(0.01 * k, 1.0) for k in range(19)])
        with pytest.raises(ValueError):
            max_star_mass(om, 1.0, mode="exact")

    @staticmethod
    def brute_force(ang, mas, limit):
        """(best mass, smallest mask reaching it) over every subset."""

        def entropy(points):
            pts = sorted(set(points))
            gaps = [((q - p) % TAU) / TAU for p, q in zip(pts, pts[1:] + pts[:1])]
            return math.fsum(-g * math.log(g) for g in gaps if 0.0 < g < 1.0)

        k = ang.size
        best, best_mask = -1.0, 0
        for mask in range(1, 1 << k):
            chosen = [i for i in range(k) if (mask >> i) & 1]
            mass = math.fsum(mas[chosen])
            if mass > best and entropy(ang[chosen].tolist()) <= limit:
                best, best_mask = mass, mask
        return best, best_mask

    def test_subset_scan_matches_brute_force(self):
        rng = np.random.default_rng(5)

        def draw(k, equal_masses=False):
            ang = np.sort(rng.uniform(0, TAU, k))
            mas = np.full(k, 0.5) if equal_masses else rng.uniform(0.1, 1.0, k)
            return ang, mas, float(rng.uniform(0.0, math.log(max(k, 2))))

        cases = [draw(int(rng.integers(1, 11))) for _ in range(10)]
        # equal masses make many subsets tie: the smallest mask must win
        cases += [draw(k, equal_masses=True) for k in (3, 6, 9, 12, 14)]
        cases.append(draw(14))
        for ang, mas, budget in cases:
            k = ang.size
            limit = budget + kernels.ENTROPY_SLACK
            best, best_mask = self.brute_force(ang, mas, limit)
            got_mass, got_mask = kernels.subset_entropy_scan(ang, mas, budget)
            assert got_mass == pytest.approx(best, abs=1e-12)
            assert got_mask == best_mask
            chosen = [i for i in range(k) if (got_mask >> i) & 1]
            assert got_mass == pytest.approx(math.fsum(mas[chosen]), abs=1e-12)
            assert BCSet.from_points(ang[chosen]).entropy() <= limit


class TestTheta:
    def test_identity(self):
        for n, m in ((64, 10.0), (64, 0.1), (32, 10.0), (8, 2.0), (8, 1e-298)):
            th = theta_for(n, m)
            assert 0 < th < 1 / math.e
            assert n * th * math.log(1 / th) == pytest.approx(m, rel=1e-12, abs=0.0)

    def test_unsolvable(self):
        with pytest.raises(ThetaUnsolvableError):
            theta_for(8, 10.0)
        with pytest.raises(ThetaUnsolvableError):
            theta_for(16, 10.0)

    @pytest.mark.parametrize("n,m", [(8, 0.0), (8, -1.0), (8, math.nan), (0, 1.0)])
    def test_rejects_bad_input(self, n, m):
        with pytest.raises(ValueError, match="need n >= 1 and M > 0"):
            theta_for(n, m)

    @pytest.mark.parametrize("m", [1e-306, 5e-324])
    def test_rejects_root_below_the_normal_doubles(self, m):
        # n theta log(1/theta) at the smallest normal theta is already above
        # M, so bisection from there brackets no root
        with pytest.raises(ValueError, match="below the smallest normal double") as info:
            theta_for(8, m)
        assert not isinstance(info.value, ThetaUnsolvableError)

    def test_family_masses(self):
        om = diffuse_family(16, 2.0)
        assert len(om.boundary) == 16
        assert om.blaschke_mass() == pytest.approx(1.0, abs=1e-12)

    def test_arc_bound_of_the_construction(self):
        # an arc of radian length theta_n/2 holds at most one atom, and
        # 1/n = (1/M) * theta_n log(1/theta_n) <= (3/M) |I| log(1/|I|)
        # with |I| = theta_n/2 in radians
        for n, m in ((64, 10.0), (32, 4.0), (16, 2.0)):
            th = theta_for(n, m)
            om = diffuse_family(n, m)
            width = th / 2
            for ang0, _ in om.boundary:
                inside = [mm for a, mm in om.boundary if (a - ang0) % TAU < width]
                assert math.fsum(inside) <= 1.0 / n + 1e-15
            ell = width
            assert 1.0 / n <= (3.0 / m) * ell * math.log(1.0 / ell) + 1e-12
