"""Weighted Bergman subspace distances and the Littlewood-Paley identity.

Subspace distances use a tensor polar rule: Gauss-Legendre in a graded
radial variable (rho = 1 - (1-t)^q with q matched to the weight exponent
so the factor (1-rho)^alpha folds into a polynomial) times a uniform
angular grid.

distance_to_one computes the exact A^2_alpha distance from the constant 1
to span{I, zI, ..., z^m I} through Gram matrices; the angular reductions
are DFTs, so the Gram assembly is O(n_r n_theta log n_theta + m^2 n_r).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .bc_sets import dyadic_gauss
from .inner import doubling_circle_mean

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class BergmanSpaceSpec:
    alpha: float = 0.0
    n_r: int = 200
    n_theta: int = 512

    def __post_init__(self):
        if not -1.0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and exceed -1")
        if self.n_r < 8 or self.n_theta < 16:
            raise ValueError("resolution too small")

    def radial_rule(self):
        """(rho, W) with sum W_i g(rho_i) ~ int_0^1 g(r) (1-r)^alpha r dr."""
        q = max(2, math.ceil(2.0 / (1.0 + self.alpha)))
        x, w = np.polynomial.legendre.leggauss(self.n_r)
        t = 0.5 * (x + 1.0)
        w = 0.5 * w
        one_minus = (1.0 - t) ** (q - 1 + q * self.alpha)
        rho = 1.0 - (1.0 - t) ** q
        return rho, w * q * one_minus * rho

    def nodes(self):
        rho, wr = self.radial_rule()
        theta = np.arange(self.n_theta) * (TAU / self.n_theta)
        return rho, wr, theta


def h2_norm_and_lp(f) -> tuple:
    """(||F||_{H^2}^2 by circle quadrature, the area log-weight integral).

    For F(0) = 0 the two agree: the mean square of |F| on the circle
    equals (1/pi) int |F'|^2 log(1/|z|^2) over the disk.
    """
    if f.origin_multiplicity < 1:
        raise ValueError("the identity needs F(0) = 0")

    def circ(theta):
        return np.abs(f(np.exp(1j * theta))) ** 2

    h2_sq = doubling_circle_mean(circ, 1e-12, 1 << 19, 0.23)

    def radial(r):
        # the circle mean of |F'|^2 at radius r, times the weight r log(1/r)
        z = r[..., None] * np.exp(1j * (np.arange(256) * (TAU / 256)))
        return np.mean(np.abs(f.deriv(z)) ** 2, axis=-1) * r * np.log(1.0 / r)

    lp = 4.0 * dyadic_gauss(radial, 1.0, 40, 16)
    return h2_sq, lp


# ---------------------------------------------------------------------------
# subspace distances


def _gram_pieces(gen, spec: BergmanSpaceSpec, m: int):
    rho, wr, theta = spec.nodes()
    if spec.n_theta < 2 * m + 4:
        raise ValueError("angular resolution must exceed twice the degree cap")
    z = rho[:, None] * np.exp(1j * theta)[None, :]
    vals = np.asarray(gen(z), dtype=np.complex128)
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("the generator is not finite at the quadrature nodes")
    if not np.any(vals):
        raise FloatingPointError("the generator underflows to 0 at every quadrature node")
    dth = TAU / spec.n_theta
    f_abs = np.fft.fft(np.abs(vals) ** 2, axis=1) * dth  # A_d = conj at -d
    f_conj = np.fft.fft(np.conj(vals), axis=1) * dth
    powers = rho[:, None] ** np.arange(2 * m + 1)[None, :]
    gram = np.empty((m + 1, m + 1), dtype=np.complex128)
    for j in range(m + 1):
        for k in range(m + 1):
            a_d = f_abs[:, (-(k - j)) % spec.n_theta]
            gram[j, k] = np.dot(wr * powers[:, j + k], a_d)
    b = np.array(
        [np.dot(wr * powers[:, j], f_conj[:, j % spec.n_theta]) for j in range(m + 1)]
    )
    one_sq = TAU * float(np.sum(wr))
    return gram, b, one_sq


def distance_to_one(generator, m: int, spec: BergmanSpaceSpec):
    """Distance in A^2_alpha from 1 to span{I, zI, ..., z^m I}, I = generator
    (evaluable on complex arrays) and m in [0, 60].

    Hilbert-space projection through the Gram matrix; returns
    (distance, report) where the report carries the nonincreasing trend
    over nested degree caps and a conditioning flag.
    """
    if m < 0 or m > 60:
        raise ValueError("polynomial degree cap must lie in [0, 60]")
    gram, b, one_sq = _gram_pieces(generator, spec, m)
    caps = sorted({m // 4, m // 2, (3 * m) // 4, m} - {0}) if m else [0]
    trend = []
    regularized = False
    for cap in caps:
        g_sub = gram[: cap + 1, : cap + 1]
        b_sub = b[: cap + 1]
        g_sub = 0.5 * (g_sub + g_sub.conj().T)
        try:
            sol = cho_solve(cho_factor(g_sub), b_sub)
        except np.linalg.LinAlgError:
            regularized = True
            eps = 1e-12 * float(np.trace(g_sub).real) / (cap + 1)
            sol = np.linalg.solve(g_sub + eps * np.eye(cap + 1), b_sub)
        d_sq = one_sq - float(np.real(np.vdot(b_sub, sol)))
        trend.append((cap, math.sqrt(max(d_sq, 0.0))))
    report = {"trend": trend, "regularized": regularized}
    return trend[-1][1], report
