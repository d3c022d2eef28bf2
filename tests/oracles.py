"""Closed forms and reference solvers that the tests check innerlab against.

None of these runs in a production path: the package evaluates potentials
through `kernels` and solves the curvature equation by Newton-GMRES.
"""

import math

import numpy as np

from innerlab.gce import GridFunction, _SmoothSystem


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
