import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from innerlab.roots import all_roots, cluster_roots


def sorted_roots(rs):
    return np.sort_complex(np.asarray(rs))


class TestAllRoots:
    def test_linear_and_quadratic(self):
        assert all_roots([1.0, 2.0])[0] == pytest.approx(-0.5)
        rs = sorted_roots(all_roots([-0.5, 2.0, -0.5]))  # -0.5 z^2 + 2 z - 0.5
        assert rs[0] == pytest.approx(2 - np.sqrt(3), abs=1e-12)
        assert rs[1] == pytest.approx(2 + np.sqrt(3), abs=1e-12)

    def test_monomial_deflation(self):
        rs = all_roots([0, 0, 0, 5.0])  # 5 z^3
        assert len(rs) == 3
        assert np.all(rs == 0)

    def test_against_numpy_on_random_polys(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            deg = int(rng.integers(2, 12))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            mine = sorted_roots(all_roots(c))
            ref = sorted_roots(np.roots(c[::-1]))
            assert np.allclose(mine, ref, atol=1e-7), (mine, ref)

    def test_residuals_small(self):
        rng = np.random.default_rng(7)
        c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        for r in all_roots(c):
            scale = sum(abs(ck) * abs(r) ** k for k, ck in enumerate(c))
            assert abs(polyval(r, c)) <= 1e-11 * scale

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            all_roots([0.0, 0.0])


class TestCluster:
    def test_exact_repeats(self):
        got = cluster_roots([0.5 + 0j, 0.5 + 1e-9j, -0.25 + 0j])
        got = sorted(got, key=lambda t: t[0].real)
        assert got[0][1] == 1 and got[1][1] == 2
        assert got[1][0] == pytest.approx(0.5, abs=1e-8)
