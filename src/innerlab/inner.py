"""Blaschke products, singular inner functions, disk potentials.

Green's function G(z,a) = log|1 - z*conj(a)| - log|z - a|, Poisson
kernel P(z,zeta) = (1-|z|^2)/|zeta - z|^2.

log|I_omega(z)| = -sum mt*G(z,a) - sum m*P(z,zeta) for a zero structure
omega with interior atoms (a, mt) and boundary atoms (zeta, m).
InnerFunctionRep evaluates F = B*S as a complex function; a finite
Blaschke product (S = 1) also has derivatives, critical points (companion-
matrix eigenvalues of the numerator of F'), and the entropy identities
relating critical points, zeros and circle averages of log|F'|.
"""

import math
import numbers

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

from . import kernels
from .bc_sets import _norm_angle
from .measures import DiskMeasure
from .roots import RootFindingError, all_roots, cluster_roots

TAU = 2.0 * math.pi


class QuadratureError(RuntimeError):
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

    Evaluation works for any B*S; numden, deriv_poly, deriv and the critical
    points need a finite Blaschke product (no singular atoms).
    """

    __slots__ = ("zeros", "singular_atoms", "rotation", "_numden")

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
        self._numden = None

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

    def numden(self):
        """(N, D) ascending coefficient arrays with F = N/D, rotation in N."""
        if self.singular_atoms:
            raise ValueError("numden needs a finite Blaschke product (no singular atoms)")
        if self._numden is None:
            num = np.array([self.rotation], dtype=np.complex128)
            den = np.array([1.0 + 0j], dtype=np.complex128)
            # np.convolve, not polymul: polymul drops D's zero top coefficients
            # (zeros at the origin), which moves the last bits of F'
            for a, m in self.zeros:
                for _ in range(m):
                    num = np.convolve(num, [-a, 1.0])
                    den = np.convolve(den, [1.0, -np.conj(a)])
            self._numden = (num, den)
        return self._numden

    def deriv_poly(self):
        """Numerator P of F' = P/D^2 (ascending coefficients, degree 2d - 2).

        N'D and ND' share their z^(2d-1) coefficient d*rotation*prod(-conj a),
        so it is dropped: left as rounding noise it would scale P's companion
        matrix and ruin the small critical points.
        """
        num, den = self.numden()
        p = np.convolve(polyder(num), den) - np.convolve(num, polyder(den))
        return p[: max(2 * self.degree - 1, 1)]

    def deriv(self, z):
        z = np.asarray(z, dtype=np.complex128)
        _, den = self.numden()
        out = polyval(z, self.deriv_poly()) / polyval(z, den) ** 2
        return complex(out) if out.ndim == 0 else out


def critical_points(f: InnerFunctionRep):
    """Zeros of F' in the open disk as (point, multiplicity); count d-1."""
    if f.degree < 1:
        raise ValueError("need degree >= 1")
    if f.degree == 1:
        return []
    p = f.deriv_poly()
    roots = all_roots(p)
    inside = [complex(r) for r in roots if abs(r) < 1.0]
    clustered = cluster_roots(inside)
    found = sum(m for _, m in clustered)
    if found != f.degree - 1:
        raise RootFindingError(
            f"expected {f.degree - 1} interior critical points, found {found}"
        )
    return clustered


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
    settled to 1e-10 relative within 2^20 nodes."""
    p = f.deriv_poly()
    _, den = f.numden()

    def fn(theta):
        z = np.exp(1j * theta)
        return np.log(np.abs(polyval(z, p))) - 2.0 * np.log(np.abs(polyval(z, den)))

    return doubling_circle_mean(fn, 1e-10, 1 << 20, 0.318)
