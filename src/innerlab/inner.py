"""Blaschke products, singular inner functions, disk potentials.

Green's function G(z,a) = log|1 - z*conj(a)| - log|z - a|, Poisson
kernel P(z,zeta) = (1-|z|^2)/|zeta - z|^2.

log|I_omega(z)| = -sum mt*G(z,a) - sum m*P(z,zeta) for a zero structure
omega with interior atoms (a, mt) and boundary atoms (zeta, m).
InnerFunctionRep evaluates F = B*S as a complex function. A finite
Blaschke product (S = 1) also has a derivative, critical points and the
entropy identities relating critical points, zeros and circle averages of
log|F'|. All three come from the zero list (a_k, m_k) through
F'/F = sum m_k [1/(z - a_k) + conj(a_k)/(1 - conj(a_k) z)]; no polynomial
is ever expanded, whose monomial coefficients would not determine the
critical points of clustered zeros.
"""

import math
import numbers

import numpy as np
from scipy.linalg import eigvals

from . import kernels
from .bc_sets import _norm_angle
from .measures import DiskMeasure

TAU = 2.0 * math.pi


class QuadratureError(RuntimeError):
    pass


class RootFindingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# potentials


def log_abs_inner(omega: DiskMeasure, z):
    """log|I_omega(z)| <= 0; -inf is signalled for scalar z at an atom."""
    z_arr = np.asarray(z, dtype=np.complex128)
    ia = np.array([a for a, _ in omega.interior], dtype=np.complex128)
    im = np.array([m for _, m in omega.interior], dtype=np.float64)
    ba = np.array([t for t, _ in omega.boundary], dtype=np.float64)
    bm = np.array([m for _, m in omega.boundary], dtype=np.float64)
    out = -(kernels.green_sum(z_arr, ia, im) + kernels.poisson_sum(z_arr, ba, bm))
    if out.ndim == 0:
        val = float(out)
        if not math.isfinite(val):
            raise ValueError("log|I| is -infinite at an atom of the zero structure")
        return val
    return out


# ---------------------------------------------------------------------------
# function representations


class InnerFunctionRep:
    """rotation * B * S: B = prod ((z - a)/(1 - conj(a) z))^m over finitely many
    zeros, S = prod exp(-m (zeta + z)/(zeta - z)) over singular boundary atoms.

    Evaluation works for any B*S; deriv, critical_points and
    circle_entropy_quadrature need a finite Blaschke product (no singular
    atoms) and work from the zero list alone.
    """

    __slots__ = ("zeros", "singular_atoms", "rotation")

    def __init__(self, zeros=(), singular_atoms=(), rotation=1.0 + 0j):
        # NaN fails every comparison: ask for what must hold
        zs = []
        for a, m in zeros:
            a = complex(a)
            if not abs(a) < 1.0:
                raise ValueError("zeros must lie strictly inside the disk")
            if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
                raise ValueError("multiplicities must be integers >= 1")
            zs.append((a, int(m)))
        r = complex(rotation)
        if not abs(abs(r) - 1.0) <= 1e-9:
            raise ValueError("rotation must be unimodular")
        self.zeros, self.rotation = tuple(zs), r / abs(r)
        sing = []
        for t, m in singular_atoms:
            t, m = float(t), float(m)
            if not (math.isfinite(t) and 0.0 < m < math.inf):
                raise ValueError("singular atoms need a finite angle and a positive finite mass")
            sing.append((_norm_angle(t), m))
        self.singular_atoms = tuple(sing)

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.zeros)

    @property
    def origin_multiplicity(self) -> int:
        """Order of the zero at the origin (zeros within 1e-13 of it count)."""
        return sum(m for a, m in self.zeros if abs(a) < 1e-13)

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        out = np.full(z.shape, self.rotation, dtype=np.complex128)
        for a, m in self.zeros:
            out = out * ((z - a) / (1.0 - np.conj(a) * z)) ** m
        for t, m in self.singular_atoms:
            zeta = np.exp(1j * t)
            out = out * np.exp(-m * (zeta + z) / (zeta - z))
        return complex(out) if out.ndim == 0 else out

    def _distinct_zeros(self, what: str):
        """Arrays of the distinct zeros and their total multiplicities; `what`
        names the caller, which needs a finite Blaschke product."""
        if self.singular_atoms:
            raise ValueError(f"{what} needs a finite Blaschke product (no singular atoms)")
        mult: dict = {}
        for a, m in self.zeros:
            mult[a] = mult.get(a, 0) + m
        a = np.array(list(mult), dtype=np.complex128)
        return a, np.array(list(mult.values()), dtype=np.float64)

    def deriv(self, z):
        """F' by the product rule over the factors b_k^m_k: exact at the zeros.

        Prefix and suffix products of the factors cost O(K) per point for K
        zeros, with no division by F; points go in kernel-sized row slices.
        """
        a, m = self._distinct_zeros("deriv")
        conj, wt = np.conj(a), m * (1.0 - np.abs(a) ** 2)

        def rows(zs):
            zc = zs[:, None]
            den = 1.0 - conj * zc
            b = (zc - a) / den
            powers = b**m
            one = np.ones_like(zc)
            before = np.cumprod(np.concatenate([one, powers[:, :-1]], axis=1), axis=1)
            after = np.cumprod(np.concatenate([one, powers[:, :0:-1]], axis=1), axis=1)[:, ::-1]
            return np.sum(before * after * b ** (m - 1.0) * wt / den**2, axis=1)

        z = np.asarray(z, dtype=np.complex128)
        out = self.rotation * kernels.in_row_slices(rows, z.ravel(), a.size).reshape(z.shape)
        return complex(out) if out.ndim == 0 else out


def critical_points(f: InnerFunctionRep):
    """Zeros of F' in the open disk as (point, multiplicity); count d-1.

    Over the distinct zeros, F'/F = sum_j w_j/(gamma_j z - beta_j): a zero a
    of multiplicity m gives (w, beta, gamma) = (m, a, 1) and its reflection
    (-m conj(a), 1, conj(a)). The critical points off the zeros are the
    finite eigenvalues inside the disk of the arrowhead pencil
    A = [[0, w^T], [1, diag beta]], B = diag(0, diag gamma) (Nakatsukasa,
    Sete and Trefethen, SIAM J. Sci. Comput. 40, 2018, sec. 3.3), each
    refined by one Newton step on F'/F. A zero of multiplicity m > 1 is the
    exact critical point (a, m - 1).
    """
    a, m = f._distinct_zeros("critical_points")
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    w = np.concatenate([m, -m * np.conj(a)])
    beta = np.concatenate([a, np.ones_like(a)])
    gamma = np.concatenate([np.ones_like(a), np.conj(a)])
    pencil_a = np.diag(np.concatenate([[0.0], beta]))
    pencil_a[0, 1:] = w
    pencil_a[1:, 0] = 1.0
    pencil_b = np.diag(np.concatenate([[0.0], gamma]))
    num, den = eigvals(pencil_a, pencil_b, homogeneous_eigvals=True)  # eigenvalues num/den
    inside = np.abs(num) < np.abs(den)
    z = (num[inside] / den[inside])[:, None]
    pole = gamma * z - beta
    z = z[:, 0] + np.sum(w / pole, axis=1) / np.sum(w * gamma / pole**2, axis=1)
    crits = [(complex(c), 1) for c in z]
    crits += [(complex(c), int(k) - 1) for c, k in zip(a, m) if k > 1]
    found = sum(k for _, k in crits)
    if found != f.degree - 1:
        raise RootFindingError(
            f"expected {f.degree - 1} interior critical points, found {found}"
        )
    return crits


# ---------------------------------------------------------------------------
# entropy identities


def jensen_entropy(f: InnerFunctionRep) -> float:
    """sum_crit log(1/|c|) - sum_{zeros != 0} log(1/|z_i|).

    Requires F(0) = 0 and F'(0) != 0 (simple zero at the origin, no
    critical point there).
    """
    if f.origin_multiplicity != 1:
        raise ValueError("entropy formula needs a simple zero at the origin")
    crit = critical_points(f)
    if any(abs(c) < 1e-13 for c, _ in crit):
        raise ValueError("entropy formula needs F'(0) != 0")
    s_crit = math.fsum(m * math.log(1.0 / abs(c)) for c, m in crit)
    s_zero = math.fsum(
        m * math.log(1.0 / abs(a)) for a, m in f.zeros if abs(a) >= 1e-13
    )
    return s_crit - s_zero


def entropy_table(degree: int, seed: int, count: int):
    """(degree, formula, quadrature, |difference|) rows for `count` seeded
    products with F(0) = 0 and degree drawn from 2..degree."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        deg = int(rng.integers(2, degree + 1))
        zeros = [(0j, 1)] + [
            (r * np.exp(1j * a), 1)
            for r, a in zip(rng.uniform(0.05, 0.9, deg - 1), rng.uniform(0, TAU, deg - 1))
        ]
        f = InnerFunctionRep(zeros, rotation=np.exp(1j * rng.uniform(0, TAU)))
        ent = jensen_entropy(f)
        quad = circle_entropy_quadrature(f)
        rows.append((deg, ent, quad, abs(ent - quad)))
    return rows


def doubling_circle_mean(fn, tol: float, cap: int, offset: float):
    """Trapezoid mean of a smooth periodic function with doubling control.

    Nodes sit at (k + offset) * 2pi/n; n doubles from 64 until two
    successive means agree to `tol` relative twice in a row, and
    QuadratureError is raised once n would exceed `cap`.
    """
    n = 64
    prev = None
    hits = 0
    while n <= cap:
        theta = (np.arange(n) + offset) * (TAU / n)
        val = float(np.mean(fn(theta)))
        if prev is not None and abs(val - prev) <= tol * (1.0 + abs(val)):
            hits += 1
            if hits >= 2:
                return val
        else:
            hits = 0
        prev = val
        n *= 2
    raise QuadratureError(f"circle quadrature did not settle below {tol} within {cap} nodes")


def circle_entropy_quadrature(f: InnerFunctionRep) -> float:
    """(1/2pi) integral of log|F'| over the circle; the entropy oracle,
    settled to 1e-10 relative within 2^20 nodes.

    On the circle |F'(zeta)| = sum m_k (1 - |a_k|^2)/|zeta - a_k|^2, a sum of
    positive terms; np.sum adds them in a fixed order, free of BLAS threads,
    over kernel-sized row slices of the nodes.
    """
    a, m = f._distinct_zeros("circle_entropy_quadrature")
    wt = m * (1.0 - np.abs(a) ** 2)

    def rows(theta):
        return np.log(np.sum(wt / np.abs(np.exp(1j * theta)[:, None] - a) ** 2, axis=1))

    def fn(theta):
        return kernels.in_row_slices(rows, theta, a.size)

    return doubling_circle_mean(fn, 1e-10, 1 << 20, 0.318)
