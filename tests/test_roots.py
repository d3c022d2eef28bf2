import numpy as np
import pytest
from numpy.polynomial.polynomial import polyfromroots, polyval

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

    def test_recovers_known_roots(self):
        # seeded roots inside, near and outside the unit circle, spread in angle
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 13))
            band = rng.integers(0, 3, n)
            radius = rng.uniform(np.array([0.1, 0.97, 1.1])[band], np.array([0.9, 1.03, 3.0])[band])
            want = radius * np.exp(2j * np.pi * (np.arange(n) + rng.uniform(0.2, 0.8, n)) / n)
            got = all_roots(polyfromroots(want) * np.exp(2j * np.pi * rng.uniform()))
            dist = np.abs(got[:, None] - want[None, :])
            assert len(got) == n and len(set(dist.argmin(axis=0))) == n
            assert np.all(dist.min(axis=0) <= 1e-10 * np.maximum(1.0, np.abs(want))), (got, want)

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
