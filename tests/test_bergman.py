import math

import numpy as np
import pytest

from conftest import random_blaschke
from oracles import bergman_distance_lstsq
from scipy.special import betaln

from innerlab.bergman import (
    BergmanSpaceSpec,
    distance_to_one,
    h2_norm_and_lp,
)
from innerlab.inner import InnerFunctionRep
from innerlab.measures import diffuse_family

SQRT_PI = math.sqrt(math.pi)


def monomial_norm(spec, n):
    """||z^n||_{A^2_alpha} from the polar rule: 2 pi sum W rho^(2n), square-rooted."""
    rho, wr = spec.radial_rule()
    return math.sqrt(2 * math.pi * float(np.sum(wr * rho ** (2 * n))))


class TestNorms:
    """The polar rule distance_to_one builds its Gram matrices from."""

    def test_constant(self):
        assert monomial_norm(BergmanSpaceSpec(), 0) == pytest.approx(SQRT_PI, abs=1e-12)

    def test_monomial(self):
        assert monomial_norm(BergmanSpaceSpec(), 1) == pytest.approx(
            math.sqrt(math.pi / 2), abs=1e-12
        )

    def test_modulus_invariance(self):
        # the rule and the Gram matrices see |f| only: a unimodular factor
        # changes neither the norm nor the distance from 1 to span{z^k f}
        spec = BergmanSpaceSpec(n_r=120, n_theta=128)
        f = InnerFunctionRep([(0.3 + 0.2j, 1)])
        g = lambda z: np.exp(0.7j) * f(z)
        rho, wr, theta = spec.nodes()
        z = rho[:, None] * np.exp(1j * theta)[None, :]
        n1, n2 = (2 * math.pi * (wr @ (np.abs(h(z)) ** 2).mean(axis=1)) for h in (f, g))
        assert n1 == pytest.approx(n2, rel=1e-14)
        d1, _ = distance_to_one(f, 20, spec)
        d2, _ = distance_to_one(g, 20, spec)
        assert d1 == pytest.approx(d2, rel=1e-12)

    def test_weighted_monomial_closed_form(self):
        # ||z^n||^2 = 2 pi B(2n+2, alpha+1)
        for alpha in (0.0, 1.0, -0.5):
            spec = BergmanSpaceSpec(alpha=alpha, n_r=220)
            for n in (0, 1, 3, 10):
                want = math.sqrt(2 * math.pi * math.exp(betaln(2.0 * n + 2.0, alpha + 1.0)))
                assert monomial_norm(spec, n) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -1.0])
    def test_rejects_alpha_not_above_minus_one_or_not_finite(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and exceed -1"):
            BergmanSpaceSpec(alpha=alpha)

    @pytest.mark.parametrize("field", ["n_r", "n_theta"])
    @pytest.mark.parametrize("value", [8.5, math.nan, True], ids=["fraction", "nan", "bool"])
    def test_rejects_resolution_not_an_integer(self, field, value):
        with pytest.raises(ValueError, match="must be integers"):
            BergmanSpaceSpec(**{field: value})

    def test_monomials_orthogonal_on_nodes(self):
        # the uniform angular grid makes <z^j, z^k> vanish for 0 < |j - k| < n_theta
        spec = BergmanSpaceSpec(alpha=1.0, n_r=120, n_theta=64)
        rho, wr, theta = spec.nodes()
        z = rho[:, None] * np.exp(1j * theta)[None, :]
        for j, k in ((0, 1), (2, 5), (3, 40)):
            inner = 2 * math.pi * (wr @ (z**j * np.conj(z**k)).mean(axis=1))
            assert abs(inner) < 1e-14


class TestLittlewoodPaley:
    def test_identity_map(self):
        h2, lp = h2_norm_and_lp(InnerFunctionRep([(0j, 1)]))
        assert h2 == pytest.approx(1.0, abs=1e-12)
        assert lp == pytest.approx(1.0, abs=1e-9)

    def test_square(self):
        h2, lp = h2_norm_and_lp(InnerFunctionRep([(0j, 2)]))
        assert h2 == pytest.approx(1.0, abs=1e-12)
        assert lp == pytest.approx(1.0, abs=1e-9)

    def test_random_corpus(self):
        rng = np.random.default_rng(2718)
        for _ in range(5):
            f = random_blaschke(rng, int(rng.integers(2, 6)), origin_zero=True)
            h2, lp = h2_norm_and_lp(f)
            assert h2 == pytest.approx(lp, abs=1e-6)

    def test_requires_origin_zero(self):
        with pytest.raises(ValueError):
            h2_norm_and_lp(InnerFunctionRep([(0.5, 1)]))


class TestDistanceToOne:
    def test_monomial_generator(self):
        spec = BergmanSpaceSpec()
        for m in (5, 20):
            d, rep = distance_to_one(lambda z: z, m, spec)
            assert d == pytest.approx(SQRT_PI, abs=1e-10)
            assert not rep["regularized"]

    def test_constant_generator(self):
        spec = BergmanSpaceSpec()
        d, _ = distance_to_one(lambda z: np.ones_like(z), 10, spec)
        assert d == pytest.approx(0.0, abs=1e-7)

    def test_trend_nonincreasing_and_rotation_invariant(self):
        spec = BergmanSpaceSpec(n_r=160, n_theta=256)
        gen = InnerFunctionRep(singular_atoms=[(0.0, 1.0)])
        d, rep = distance_to_one(gen, 24, spec)
        caps, vals = zip(*rep["trend"])
        assert list(vals) == sorted(vals, reverse=True)
        # unimodular prefactor leaves |I| and hence the Gram unchanged
        rot = InnerFunctionRep(singular_atoms=[(0.0, 1.0)], rotation=np.exp(1.3j))
        d_rot, _ = distance_to_one(rot, 24, spec)
        assert d_rot == pytest.approx(d, rel=1e-12)
        # moving the atom is exact in the continuum, quadrature-limited here
        moved = InnerFunctionRep(singular_atoms=[(2.2, 1.0)])
        d_mv, _ = distance_to_one(moved, 24, spec)
        assert d_mv == pytest.approx(d, rel=2e-3)

    @pytest.mark.parametrize("alpha", [-0.5, 0.0, 1.0])
    @pytest.mark.parametrize(
        "gen,m",
        [
            (InnerFunctionRep(singular_atoms=[(0.0, 1.0)]), 60),
            (InnerFunctionRep([(0.5 + 0.2j, 1)], singular_atoms=[(1.0, 0.5)]), 24),
            (InnerFunctionRep(singular_atoms=diffuse_family(64, 10.0).boundary), 20),
        ],
        ids=["singular", "blaschke-singular", "diffuse"],
    )
    def test_trend_matches_least_squares(self, gen, m, alpha):
        spec = BergmanSpaceSpec(alpha=alpha, n_r=96, n_theta=128)
        _, rep = distance_to_one(gen, m, spec)
        caps, vals = zip(*rep["trend"])
        want = bergman_distance_lstsq(gen, spec, caps)
        assert vals == pytest.approx(want, rel=1e-11)

    def test_rank_one_gram_takes_the_ridge(self):
        # a generator that is nonzero at one node gives a rank-one Gram matrix
        spec = BergmanSpaceSpec(n_r=16, n_theta=32)
        rho, _, theta = spec.nodes()
        node = rho[5] * np.exp(1j * theta[3])
        d, rep = distance_to_one(lambda z: np.where(z == node, 1.0 + 0j, 0j), 4, spec)
        assert rep["regularized"]
        vals = [v for _, v in rep["trend"]]
        assert vals == sorted(vals, reverse=True)
        assert math.isfinite(d)

    def test_prototype_singular_floor_vs_diffuse_ladder(self):
        spec = BergmanSpaceSpec(n_r=160, n_theta=512)
        d_sing, _ = distance_to_one(InnerFunctionRep(singular_atoms=[(0.0, 1.0)]), 20, spec)
        assert d_sing > 0.3
        prev = None
        for n in (32, 64):
            mu = diffuse_family(n, 10.0)
            gen = InnerFunctionRep(singular_atoms=mu.boundary)
            d, _ = distance_to_one(gen, 20, spec)
            if prev is not None:
                assert d < prev
            prev = d
        assert prev < d_sing

    def test_semicontinuity_concentrating_ladder(self):
        # atoms at +-eps merging into one: subspace distances converge to
        # the limit generator's distance
        spec = BergmanSpaceSpec(n_r=160, n_theta=512)
        d_lim, _ = distance_to_one(InnerFunctionRep(singular_atoms=[(0.0, 1.0)]), 20, spec)
        diffs = []
        for eps in (0.5, 0.1, 0.02, 0.004):
            gen = InnerFunctionRep(
                singular_atoms=[(eps, 0.5), (2 * math.pi - eps, 0.5)]
            )
            d, _ = distance_to_one(gen, 20, spec)
            diffs.append(abs(d - d_lim))
        assert diffs == sorted(diffs, reverse=True)
        assert diffs[-1] < 1e-3
