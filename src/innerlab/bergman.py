"""Weighted Bergman subspace distances and the Littlewood-Paley identity.

Subspace distances use a tensor polar rule: Gauss-Legendre in a graded
radial variable (rho = 1 - (1-t)^q with q matched to the weight exponent
so the factor (1-rho)^alpha folds into a polynomial) times a uniform
angular grid.

distance_to_one computes the exact A^2_alpha distance from the constant 1
to span{I, zI, ..., z^m I}. Its Gram matrix is one product of the 2m + 1 radial
powers with the angular DFTs at the 2m + 1 offsets, O(n_r n_theta log n_theta
+ m^2 n_r), and one Cholesky factor, O(m^3), gives every degree cap's distance.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

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
        for n, low in ((self.n_r, 8), (self.n_theta, 16)):
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < low:
                raise ValueError("n_r and n_theta must be integers of at least 8 and 16")

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
    abs_sq = np.abs(vals) ** 2  # the Gram matrix sees only |I|^2, which underflows before I
    if not np.any(abs_sq):
        raise FloatingPointError("|generator|^2 underflows to 0 at every quadrature node")
    dth = TAU / spec.n_theta
    f_abs = np.fft.fft(abs_sq, axis=1) * dth
    f_conj = np.fft.fft(np.conj(vals), axis=1) * dth
    # moments[s, m + d] = sum_r W_r rho_r^s f_abs[r, d]; einsum, unlike @, stays off threaded BLAS
    w_pow = wr[:, None] * rho[:, None] ** np.arange(2 * m + 1)
    moments = np.einsum("rs,rd->sd", w_pow, f_abs[:, np.arange(-m, m + 1) % spec.n_theta])
    j = np.arange(m + 1)[:, None]
    gram = moments[j + j.T, m + j - j.T]
    b = np.einsum("rj,rj->j", w_pow[:, : m + 1], f_conj[:, : m + 1])
    one_sq = TAU * float(np.sum(wr))
    return gram, b, one_sq


def distance_to_one(generator, m: int, spec: BergmanSpaceSpec):
    """Distance in A^2_alpha from 1 to span{I, zI, ..., z^m I}, I = generator
    (evaluable on complex arrays) and m in [0, 60].

    Returns (distance, report). With one Cholesky factor G = L L^H of the Gram
    matrix and y = L^-1 b, the squared distance at degree cap c is
    ||1||^2 - sum_{i <= c} |y_i|^2, so the report's trend over the caps is
    nonincreasing; `regularized` says that G took the ridge 1e-12 tr(G)/(m + 1).
    """
    from scipy.linalg import cholesky, solve_triangular

    if m < 0 or m > 60:
        raise ValueError("polynomial degree cap must lie in [0, 60]")
    gram, b, one_sq = _gram_pieces(generator, spec, m)
    gram = 0.5 * (gram + gram.conj().T)
    regularized = False
    try:
        low = cholesky(gram, lower=True)
    except np.linalg.LinAlgError:
        regularized = True
        ridge = 1e-12 * float(np.trace(gram).real) / (m + 1)
        low = cholesky(gram + ridge * np.eye(m + 1), lower=True)
    y = solve_triangular(low, b, lower=True)
    d_sq = one_sq - np.cumsum(np.abs(y) ** 2)
    caps = sorted({m // 4, m // 2, (3 * m) // 4, m} - {0}) if m else [0]
    trend = [(cap, math.sqrt(max(d_sq[cap], 0.0))) for cap in caps]
    return trend[-1][1], {"trend": trend, "regularized": regularized}
