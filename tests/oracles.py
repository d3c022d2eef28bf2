"""Closed forms, reference solvers and reference matrices that the tests
check innerlab against.

None of these runs in a production path: the package evaluates potentials
through `kernels`, solves the curvature equation by Newton-GMRES,
applies the polar Laplacian as a stencil, never as a matrix, measures
the distance to a star only on the boundary samples nearest each point,
and projects in a Bergman space through a Gram matrix.
"""

import math

import numpy as np
import scipy.sparse as sp

from innerlab.bc_sets import CORE_RADIUS, dist_angle_to_set, hyperbolic_dist, star_contains
from innerlab.gce import GridFunction, _SmoothSystem

TAU = 2.0 * math.pi


def green(z, a):
    """Green's function of the unit disk; +inf signalled at z == a."""
    z = np.asarray(z, dtype=np.complex128)
    a_ = np.asarray(a, dtype=np.complex128)
    with np.errstate(divide="ignore"):
        g = np.log(np.abs(1.0 - z * np.conj(a_))) - np.log(np.abs(z - a_))
    if g.ndim == 0:
        g = float(g)
        if not math.isfinite(g):
            raise ValueError("Green's function is infinite at z == a")
    return g


def poisson(z, angle):
    """Poisson kernel (1-|z|^2)/|e^{i*angle} - z|^2."""
    z = np.asarray(z, dtype=np.complex128)
    zeta = np.exp(1j * np.asarray(angle, dtype=np.float64))
    out = (1.0 - np.abs(z) ** 2) / np.abs(zeta - z) ** 2
    return float(out) if out.ndim == 0 else out


def star_dist_every_sample(z, spec, n_samples):
    """bc_sets.hyperbolic_dist_to_star with hyperbolic_dist taken from each
    point to every sample of the star's boundary curve."""
    z = np.asarray(z, dtype=np.complex128)
    r = np.hypot(z.real, z.imag)
    best = np.vectorize(math.atanh, otypes=[np.float64])(r) - math.atanh(CORE_RADIUS)
    phis = np.arange(n_samples) * (TAU / n_samples)
    rho = 1.0 - dist_angle_to_set(phis, spec.base) ** spec.order
    m = rho > 0.0
    if m.any():
        curve = rho[m] * np.exp(1j * phis[m])
        best = np.minimum(best, np.min(hyperbolic_dist(z[..., None], curve), axis=-1))
    return np.where(star_contains(spec, z), 0.0, np.maximum(best, 0.0))


def bergman_distance_lstsq(gen, spec, caps):
    """bergman.distance_to_one's distance at each degree cap, with no Gram
    matrix: least squares for 1 against the columns z^k I(z), k <= cap, at
    the rule's nodes, every row scaled by sqrt(W dtheta)."""
    rho, wr, theta = spec.nodes()
    z = (rho[:, None] * np.exp(1j * theta)).ravel()
    scale = np.sqrt(np.repeat(wr, theta.size) * (TAU / theta.size))
    cols = z[:, None] ** np.arange(max(caps) + 1) * (gen(z) * scale)[:, None]
    out = []
    for cap in caps:
        coef = np.linalg.lstsq(cols[:, : cap + 1], scale, rcond=None)[0]
        out.append(float(np.linalg.norm(scale - cols[:, : cap + 1] @ coef)))
    return out


def liouville_density(f):
    """log(|F'| / (1 - |F|^2)) as a callable; the pullback log-density."""

    def fn(z):
        z = np.asarray(z, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(np.abs(f.deriv(z))) - np.log1p(-np.abs(f(z)) ** 2)
        return float(out) if out.ndim == 0 else out

    return fn


def radial_solution(r: float, c_value: float, n_steps: int = 4096):
    """u'' + u'/rho = 4 e^{2u} on [0, r], u'(0) = 0, u(r) = C, by shooting.

    Bisection on u(0); integration by fixed-step RK4 on a boundary-graded
    mesh. Returns (rho array, u array).
    """
    if r <= 0.0 or r > 1.0:
        raise ValueError("radius must lie in (0, 1]")
    t = np.arange(n_steps + 1) / n_steps
    rho = r * t * (2.0 - t)

    def _rhs(x, u, v):
        if u > 200.0:
            return v, math.inf
        return v, 4.0 * math.exp(2.0 * u) - v / x

    def _march(a, keep=False):
        # series start near 0: u = a + e^{2a} rho^2
        us = np.empty(n_steps + 1) if keep else None
        u = a + math.exp(2 * a) * rho[1] ** 2
        v = 2 * math.exp(2 * a) * rho[1]
        if keep:
            us[0], us[1] = a, u
        for i in range(1, n_steps):
            h = rho[i + 1] - rho[i]
            x = rho[i]
            k1u, k1v = _rhs(x, u, v)
            k2u, k2v = _rhs(x + h / 2, u + h / 2 * k1u, v + h / 2 * k1v)
            k3u, k3v = _rhs(x + h / 2, u + h / 2 * k2u, v + h / 2 * k2v)
            k4u, k4v = _rhs(x + h, u + h * k3u, v + h * k3v)
            if not all(map(math.isfinite, (k1v, k2v, k3v, k4v))):
                return math.inf, None
            u += h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u)
            v += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            if u > 200.0:
                return math.inf, None
            if keep:
                us[i + 1] = u
        return u, us

    def shoot(a):
        return _march(a)[0]

    lo = c_value
    while shoot(lo) > c_value:
        lo -= max(1.0, abs(lo))
        if lo < -1e6:
            raise ValueError("no lower shooting bracket found")
    hi = c_value + 1.0
    if shoot(hi) < c_value:
        raise ValueError("no upper shooting bracket found")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if shoot(mid) < c_value:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13 * max(1.0, abs(hi)):
            break
    _, us = _march(lo, keep=True)
    return rho, us


def pde_residual(gf: GridFunction) -> float:
    """Backward-stable sup residual of the smooth system for a solved field."""
    system = _SmoothSystem(gf.grid, gf.atoms, gf.rings[-1])
    w = gf.interior_values()
    src = system.source(w)
    return system.scaled_error(w, system.laplacian(w) - src, src)


def loop_laplacian(grid):
    """Reference (L, B): the five-point polar Laplacian assembled node by node."""
    n_r, n_t, rho = grid.n_r, grid.n_theta, grid.rho
    dth2 = (TAU / n_t) ** 2
    entries, rim = {}, {}

    def idx(i, j):  # ring i (1..n_r-1), angle j
        return 1 + (i - 1) * n_t + j % n_t

    c = 4.0 / rho[0] ** 2
    entries[0, 0] = -c
    for j in range(n_t):
        entries[0, idx(1, j)] = c / n_t
    for i in range(1, n_r):
        r, r_m, r_p = rho[i - 1], (0.0 if i == 1 else rho[i - 2]), rho[i]
        hm, hp = r - r_m, r_p - r
        a_m = 2.0 / (hm * (hm + hp)) + (-hp / (hm * (hm + hp))) / r
        a_p = 2.0 / (hp * (hm + hp)) + (hm / (hp * (hm + hp))) / r
        a_0 = -2.0 / (hm * hp) + ((hp - hm) / (hm * hp)) / r - 2.0 / (r * r * dth2)
        a_t = 1.0 / (r * r * dth2)
        for j in range(n_t):
            me = idx(i, j)
            entries[me, me] = a_0
            entries[me, idx(i, j + 1)] = a_t
            entries[me, idx(i, j - 1)] = a_t
            entries[me, 0 if i == 1 else idx(i - 1, j)] = a_m
            if i == n_r - 1:
                rim[me, j] = a_p
            else:
                entries[me, idx(i + 1, j)] = a_p

    def csr(d, n_cols):
        rows, cols = zip(*d)
        return sp.csr_matrix((list(d.values()), (rows, cols)), shape=(grid.interior_count(), n_cols))

    return csr(entries, grid.interior_count()), csr(rim, n_t)
