"""Gauss curvature equation Delta u = 4 e^{2u} + 2 pi nu on disks D_r.

Interior delta-atoms are removed analytically: writing u = w - s with
s(z) = sum mt * G(z, a), the smooth remainder solves Delta w = 4 q e^{2w}
with q = exp(-2s) in [0, 1], which a damped Newton-GMRES iteration handles
on a five-point polar grid (radial nodes graded toward the boundary as
rho = R * t(2-t), boundary data exact), right-preconditioned by a fast
polar solver factored once per solve and applied once per GMRES iteration.
The maximal solution is u_D = -log(1 - |z|^2).

Perron hulls Lambda_r[u] solve on D_r with boundary values u|_{dD_r},
their Newton iteration starting at the subsolution u they dominate (the
harmonic extension of the rim data, near log 1/(1-r) on deep rungs,
overshoots the interior and costs more steps the deeper the rung);
nearly-maximal solutions follow the ladder r_k = 1 - 2^{-k} applied to
the subsolution u_D + log|I_omega| and report the boundary deficiency
(circle averages of u_D - u) along the way. The hulls increase with k, so
each rung starts inside the previous disk at the previous rung's hull.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.interpolate import RectBivariateSpline
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import splu

from . import kernels
from .measures import DiskMeasure, diffuse_family

TAU = 2.0 * math.pi
NEWTON_TOL = 1e-10  # scaled residual at which the Newton iteration stops
NEWTON_MAX_ITER = 60
SUBSOLUTION_TOL = 0.05  # slack of the discrete subsolution check
# GMRES iterations per Newton correction, without restart (the most measured
# is 13); the line search absorbs an unfinished correction
KRYLOV_RESTART = 40
MAX_RUNG = 53  # the last k for which the ladder radius 1 - 2^-k is a double below 1
# a subsolution's closure hides how many atoms its kernels see, so its row
# slices at the interior nodes are sized for diffuse_family(64, M)'s boundary
# (2,048 points a slice): one evaluation of every node against those 64 atoms
# raised a diffuse-experiment run's peak RSS by 14 MB
SUB_ATOMS = 64


class NewtonError(RuntimeError):
    pass


class SubsolutionError(ValueError):
    pass


def u_max(z):
    """The maximal solution u_D = -log(1 - |z|^2)."""
    z = np.asarray(z, dtype=np.complex128)
    out = -np.log1p(-np.abs(z) ** 2)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# grid and fields


class PolarGrid:
    """Polar grid on D_R: center node + n_r rings (graded) x n_theta angles."""

    __slots__ = ("radius", "n_r", "n_theta", "rho", "theta", "_ops")

    def __init__(self, radius: float, n_r: int, n_theta: int):
        if not (0.0 < radius <= 1.0):
            raise ValueError("grid radius must lie in (0, 1]")
        if n_r < 8 or n_theta < 8:
            raise ValueError("need at least 8 nodes in each direction")
        self.radius = float(radius)
        self.n_r = int(n_r)
        self.n_theta = int(n_theta)
        t = np.arange(1, n_r + 1) / n_r
        self.rho = self.radius * t * (2.0 - t)  # rings 1..n_r; center separate
        self.theta = np.arange(n_theta) * (TAU / n_theta)
        self._ops = None

    def ring_nodes(self) -> np.ndarray:
        """Complex nodes, shape (n_r, n_theta); row i-1 is ring i."""
        return self.rho[:, None] * np.exp(1j * self.theta)[None, :]

    def rim_nodes(self) -> np.ndarray:
        """Complex nodes of the boundary ring, where the data is prescribed."""
        return self.radius * np.exp(1j * self.theta)

    def interior_nodes(self) -> np.ndarray:
        """Complex nodes of the unknowns: the center, then rings 1..n_r-1."""
        return np.concatenate([[0j], self.ring_nodes()[:-1].ravel()])

    def interior_count(self) -> int:
        return 1 + (self.n_r - 1) * self.n_theta

    def operators(self):
        """(L, B): discrete Laplacian on interior unknowns and its coupling
        to the boundary ring, so Delta_h u = L u_int + B u_bdry."""
        if self._ops is None:
            self._ops = _assemble_laplacian(self)
        return self._ops

    def __repr__(self):
        return f"PolarGrid(R={self.radius}, {self.n_r}x{self.n_theta})"


def _ring_coefficients(grid: PolarGrid):
    """Per-ring stencil coefficients of the five-point polar Laplacian.

    Ring i (1..n_r-1) weighs its inner, outer and own node by a_m, a_p, a_0
    and each angular neighbour by a_t (arrays indexed i-1; ring 1's inner
    neighbour is the center). The center row is c * (ring-1 mean - center).
    """
    rho = grid.rho
    dth2 = (TAU / grid.n_theta) ** 2
    r = rho[:-1]
    hm, hp = r - np.concatenate([[0.0], rho[:-2]]), rho[1:] - r
    # nonuniform 3-point second derivative + first derivative
    c_m = 2.0 / (hm * (hm + hp))
    c_p = 2.0 / (hp * (hm + hp))
    c_0 = -2.0 / (hm * hp)
    d_m = -hp / (hm * (hm + hp))
    d_p = hm / (hp * (hm + hp))
    d_0 = (hp - hm) / (hm * hp)
    a_m = c_m + d_m / r
    a_p = c_p + d_p / r
    a_0 = c_0 + d_0 / r - 2.0 / (r * r * dth2)
    a_t = 1.0 / (r * r * dth2)
    return a_m, a_p, a_0, a_t, 4.0 / rho[0] ** 2


def _assemble_laplacian(grid: PolarGrid):
    """Five-point polar Laplacian, assembled from per-ring coefficients."""
    n_r, n_t = grid.n_r, grid.n_theta
    a_m, a_p, a_0, a_t, c = _ring_coefficients(grid)
    j = np.arange(n_t)
    me = 1 + np.arange((n_r - 1) * n_t).reshape(n_r - 1, n_t)  # unknown index of (ring, angle)
    below = np.vstack([np.zeros((1, n_t), dtype=me.dtype), me[:-1]])
    arms = [  # (rows, columns, per-ring coefficient); the last ring's outer arm is B
        (me, me, a_0),
        (me, me[:, (j + 1) % n_t], a_t),
        (me, me[:, (j - 1) % n_t], a_t),
        (me, below, a_m),
        (me[:-1], me[1:], a_p[:-1]),
    ]
    rows = np.concatenate([np.zeros(1 + n_t, dtype=me.dtype)] + [rw.ravel() for rw, _, _ in arms])
    cols = np.concatenate([[0], me[0]] + [cl.ravel() for _, cl, _ in arms])
    vals = np.concatenate([[-c], np.full(n_t, c / n_t)] + [np.repeat(a, n_t) for _, _, a in arms])
    n = grid.interior_count()
    L = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    B = sp.csr_matrix((np.full(n_t, a_p[-1]), (me[-1], j)), shape=(n, n_t))
    return L, B


def _singular_part(atoms, z):
    """s(z) = sum mt * G(z, a); u = w - s."""
    z = np.asarray(z, dtype=np.complex128)
    a = np.array([p for p, _ in atoms], dtype=np.complex128)
    m = np.array([mm for _, mm in atoms], dtype=np.float64)
    if a.size == 0:
        return np.zeros(z.shape)
    return kernels.green_sum(np.ascontiguousarray(z), a, m)


class _SplitField:
    """Evaluation shared by fields stored as smooth part w plus atoms:
    u(z) = w(z) - sum mt G(z, a), with `smooth` supplied by the subclass."""

    __slots__ = ()

    def __call__(self, z):
        z_arr = np.asarray(z, dtype=np.complex128)
        shape = z_arr.shape
        s = _singular_part(self.atoms, np.atleast_1d(z_arr).ravel())
        out = np.atleast_1d(self.smooth(z_arr)).ravel() - s
        return float(out[0]) if shape == () else out.reshape(shape)


class GridFunction(_SplitField):
    """Smooth nodal values w plus an analytic singular part -sum mt G(., a).

    Total field u = w - s. Interpolation happens on the smooth part in
    graded-radius coordinates (cubic spline, periodic angle padding);
    the singular part is always evaluated analytically.
    """

    __slots__ = ("grid", "center", "rings", "atoms", "_spline")

    def __init__(self, grid: PolarGrid, center: float, rings: np.ndarray, atoms=()):
        if rings.shape != (grid.n_r, grid.n_theta):
            raise ValueError("ring array must cover rings 1..n_r")
        self.grid = grid
        self.center = float(center)
        self.rings = np.asarray(rings, dtype=np.float64)
        self.atoms = tuple((complex(a), float(m)) for a, m in atoms)
        self._spline = None

    # -- nodal access --------------------------------------------------------

    def total_nodes(self):
        """(center, rings) of u = w - s; -inf where a node sits on an atom."""
        s_c = float(_singular_part(self.atoms, np.array([0j]))[0]) if self.atoms else 0.0
        with np.errstate(invalid="ignore"):
            s_r = _singular_part(self.atoms, self.grid.ring_nodes())
        return self.center - s_c, self.rings - s_r

    def interior_values(self) -> np.ndarray:
        """Values at PolarGrid.interior_nodes(): the center, then rings 1..n_r-1."""
        return np.concatenate([[self.center], self.rings[:-1].ravel()])

    # -- pointwise evaluation -------------------------------------------------

    def _ensure_spline(self):
        if self._spline is None:
            n_r, n_t = self.grid.n_r, self.grid.n_theta
            t = np.concatenate([[0.0], np.arange(1, n_r + 1) / n_r])
            vals = np.vstack([np.full(n_t, self.center), self.rings])
            pad = 4
            th = np.concatenate(
                [self.grid.theta[-pad:] - TAU, self.grid.theta, self.grid.theta[:pad] + TAU]
            )
            v = np.hstack([vals[:, -pad:], vals, vals[:, :pad]])
            self._spline = RectBivariateSpline(t, th, v, kx=3, ky=3)
        return self._spline

    def smooth(self, z):
        z_arr = np.asarray(z, dtype=np.complex128)
        shape = z_arr.shape
        zf = np.atleast_1d(z_arr).ravel()
        r = np.abs(zf) / self.grid.radius
        if np.any(r > 1.0 + 1e-9):
            raise ValueError("point outside the grid disk")
        t = 1.0 - np.sqrt(np.maximum(0.0, 1.0 - np.minimum(r, 1.0)))  # invert t(2-t)
        th = np.angle(zf) % TAU
        out = self._ensure_spline()(t, th, grid=False)
        return float(out[0]) if shape == () else out.reshape(shape)

    def __repr__(self):
        return f"GridFunction({self.grid!r}, atoms={len(self.atoms)})"


class AnalyticField(_SplitField):
    """Closed-form field with the same protocol as GridFunction."""

    __slots__ = ("_fn", "atoms")

    def __init__(self, smooth_fn, atoms=()):
        self._fn = smooth_fn
        self.atoms = tuple((complex(a), float(m)) for a, m in atoms)

    def smooth(self, z):
        return self._fn(np.asarray(z, dtype=np.complex128))


def maximal_field() -> AnalyticField:
    return AnalyticField(u_max)


# ---------------------------------------------------------------------------
# linear pieces


def _boundary_samples(h, grid: PolarGrid) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (grid.n_theta,):
        raise ValueError("boundary data must sample every grid angle")
    return h


def harmonic_extension(h, grid: PolarGrid) -> GridFunction:
    """Poisson extension of boundary samples via modal decay.

    h: array of n_theta samples. The extension is the exact harmonic
    function matching the trigonometric interpolant of the samples: mode m
    decays like (rho/R)^|m|. Constants and harmonic polynomials extend
    exactly; for smooth data the discrete maximum principle
    min h <= P_h <= max h holds to interpolation accuracy.
    """
    h = _boundary_samples(h, grid)
    R = grid.radius
    fh = np.fft.rfft(h)
    m = np.arange(fh.size)
    decay = (grid.rho[:, None] / R) ** m[None, :]
    rings = np.fft.irfft(fh[None, :] * decay, grid.n_theta, axis=1)
    rings[-1] = h
    return GridFunction(grid, float(fh[0].real / grid.n_theta), rings)


def green_potential(atoms, grid: PolarGrid):
    """(1/2pi) sum mt G(., a) sampled on the grid, plus a residual report.

    Returns (GridFunction without singular bookkeeping, report). Nodes
    coinciding with an atom are flagged and carry +inf.
    """
    atoms = [(complex(a), float(m)) for a, m in atoms]
    for a, _ in atoms:
        if abs(a) >= grid.radius:
            raise ValueError("atoms must lie strictly inside the grid disk")
    with np.errstate(invalid="ignore", divide="ignore"):
        vals = _singular_part(atoms, grid.ring_nodes()) / TAU
        center = float(_singular_part(atoms, np.array([0j]))[0]) / TAU
    flagged = int(np.sum(~np.isfinite(vals)))
    gf = GridFunction(grid, center, vals)
    # discrete Laplacian residual away from the atoms
    resid = _SmoothSystem(grid, (), vals[-1]).laplacian(gf.interior_values())
    pos = grid.interior_nodes()
    dist = np.full(pos.shape, np.inf)
    for a, _ in atoms:
        dist = np.minimum(dist, np.abs(pos - a))
    far = dist > max(0.2, 8.0 * grid.radius / grid.n_r)
    report = {
        "flagged_nodes": flagged,
        "max_residual_far": float(np.max(np.abs(resid[far]))) if far.any() else 0.0,
        "boundary_max": float(np.max(np.abs(vals[-1]))) if grid.radius == 1.0 else None,
    }
    return gf, report


# ---------------------------------------------------------------------------
# the nonlinear solver


class _SmoothSystem:
    """The discrete smooth system Delta_h w = 4 q e^{2w} on a grid.

    With u = w - s and s the atoms' singular part, q = e^{-2s} on the
    interior nodes and w = w_bc on the rim. A node sitting on an atom is
    flagged and gets q = 0: w stays smooth there.
    """

    def __init__(self, grid: PolarGrid, atoms, w_bc):
        self.grid = grid
        self.L, self.B = grid.operators()
        self.abs_L = abs(self.L)
        with np.errstate(invalid="ignore", divide="ignore"):
            self.s = _singular_part(atoms, grid.interior_nodes())
            self.q = np.exp(-2.0 * self.s)
        self.flagged = ~np.isfinite(self.s)
        self.q[self.flagged] = 0.0
        self.w_bc = w_bc
        self.bc = self.B @ w_bc
        self.abs_bc = np.abs(self.B) @ np.abs(w_bc)

    @classmethod
    def with_data(cls, grid: PolarGrid, atoms, h) -> "_SmoothSystem":
        """The system for u = h on the rim, so w_bc = h + s there."""
        s_bc = _singular_part(atoms, grid.rim_nodes())
        if not np.all(np.isfinite(s_bc)):
            raise ValueError("an atom sits on a boundary node")
        h = _boundary_samples(h, grid)
        if not np.all(np.isfinite(h)):
            raise ValueError("boundary data must be finite")
        return cls(grid, atoms, h + s_bc)

    def source(self, w):
        return 4.0 * self.q * np.exp(2.0 * np.minimum(w, 150.0))

    def laplacian(self, w):
        return self.L @ w + self.bc

    def residual(self, w):
        return self.laplacian(w) - self.source(w)

    def scaled_error(self, w, r) -> float:
        """Sup of |r| over each row's scale |L||w| + |B||w_bc| + source + 1:
        backward stable, as the residual floor is eps * |L||w| anyway."""
        scale = self.abs_L @ np.abs(w) + self.abs_bc + self.source(w) + 1.0
        return float(np.max(np.abs(r) / scale))


def _polar_preconditioner(grid: PolarGrid, d):
    """Solver for L - diag(d) with d replaced by its mean over each ring.

    The center keeps its own d. An FFT in angle then splits the operator
    into one real tridiagonal system along the rings per angular mode m,
    whose angular term is a_t * 2cos(2 pi m / n_theta); mode 0 is bordered
    by the center row. With the center first and then each mode's rings,
    mode by mode, the whole system is a single tridiagonal matrix, factored
    once. It inverts the Jacobian exactly when d is constant on each ring;
    _newton_solve builds it from its first step's d and keeps it.
    """
    n_r, n_t = grid.n_r, grid.n_theta
    a_m, a_p, a_0, a_t, c = _ring_coefficients(grid)
    n_modes = n_t // 2 + 1
    d_ring = d[1:].reshape(n_r - 1, n_t).mean(axis=1)
    symbol = 2.0 * np.cos(TAU * np.arange(n_modes) / n_t)
    main = (a_0 - d_ring)[None, :] + symbol[:, None] * a_t[None, :]
    # a mode's rings couple through a_m and a_p, never to another mode's.
    # The center couples to mode 0 of ring 1 only: its row reads the ring
    # mean, mode 0 over n_theta, and ring 1 sees the center as a constant,
    # whose mode 0 is n_theta times it
    lower = np.tile(np.concatenate([[0.0], a_m[1:]]), n_modes)
    lower[0] = a_m[0] * n_t
    upper = np.tile(np.concatenate([a_p[:-1], [0.0]]), n_modes)[:-1]
    P = sp.diags(
        [lower, np.concatenate([[-c - d[0]], main.ravel()]), np.concatenate([[c / n_t], upper])],
        [-1, 0, 1],
        format="csc",
    )
    lu = splu(P, permc_spec="NATURAL")  # keeps the factor banded

    def solve(b):
        f = np.fft.rfft(b[1:].reshape(n_r - 1, n_t), axis=1).T.ravel()
        rhs = np.empty((f.size + 1, 2))
        rhs[0] = b[0], 0.0
        rhs[1:, 0], rhs[1:, 1] = f.real, f.imag
        x = lu.solve(rhs)
        modes = (x[1:, 0] + 1j * x[1:, 1]).reshape(n_modes, n_r - 1).T
        return np.concatenate([[x[0, 0]], np.fft.irfft(modes, n_t, axis=1).ravel()])

    return solve


def _gmres(L, d, precond, b, rtol):
    """Solve (L - diag(d)) x = b by right-preconditioned GMRES from x = 0.

    FGMRES-style: the preconditioned directions Z = precond(V) are kept and
    x = Z y, so each iteration applies precond exactly once, and the
    Givens-rotated least-squares residual is the true residual |b - J x|
    (to rounding; V is orthogonalized by classical Gram-Schmidt applied
    twice). Stops once that residual is at most rtol * |b|, or after
    KRYLOV_RESTART iterations. Returns (x, iterations).
    """
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 0
    m = KRYLOV_RESTART
    V, Z = np.empty((m + 1, b.size)), np.empty((m, b.size))  # rows are touched as used
    R = np.zeros((m, m))
    cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
    V[0], g[0] = b / beta, beta
    for j in range(m):
        Z[j] = precond(V[j])
        w = L @ Z[j] - d * Z[j]
        h = V[:j + 1] @ w
        w -= h @ V[:j + 1]
        h2 = V[:j + 1] @ w
        w -= h2 @ V[:j + 1]
        h += h2
        h_next = float(np.linalg.norm(w))
        for i in range(j):
            h[i], h[i + 1] = cs[i] * h[i] + sn[i] * h[i + 1], cs[i] * h[i + 1] - sn[i] * h[i]
        rho = math.hypot(h[j], h_next)
        cs[j], sn[j] = h[j] / rho, h_next / rho
        h[j] = rho
        R[:j + 1, j] = h
        g[j], g[j + 1] = cs[j] * g[j], -sn[j] * g[j]
        if abs(g[j + 1]) <= rtol * beta:
            break
        V[j + 1] = w / h_next
    k = j + 1
    y = solve_triangular(R[:k, :k], g[:k])
    return y @ Z[:k], k


def _newton_solve(system: _SmoothSystem, w):
    """Damped Newton iteration on the smooth system from the interior values w.

    Each correction solves J delta = -r, J = L - diag(2 source(w)), by
    right-preconditioned GMRES (_gmres, one preconditioner application per
    iteration) to an Eisenstat-Walker type forcing term: loose far from the
    root, tightening as the scaled error err falls (a fixed tight tolerance
    spends the full Krylov budget on every correction). The preconditioner
    is lagged: _polar_preconditioner is factored at the first correction and
    serves every later one, while GMRES applies the current J as
    L @ v - d * v. The info dict counts Newton steps and GMRES iterations
    and keeps the final scaled residual and the smallest line-search step.
    """
    r = system.residual(w)
    krylov_iters, min_step, precond = 0, 1.0, None
    for it in range(NEWTON_MAX_ITER):
        err = system.scaled_error(w, r)
        if not math.isfinite(err):
            raise NewtonError(f"{system.grid!r}: scaled residual is {err} at Newton step {it}")
        if err <= NEWTON_TOL:
            break
        d = 2.0 * system.source(w)
        if precond is None:  # lagged: the first correction's d serves the whole solve
            precond = _polar_preconditioner(system.grid, d)
        forcing = min(1e-2, max(1e-12, 1e-3 * math.sqrt(err)))
        delta, iters = _gmres(system.L, d, precond, -r, forcing)
        krylov_iters += iters
        lam, ok = 1.0, False
        nr0 = float(np.linalg.norm(r))
        for _ in range(40):
            w_new = w + lam * delta
            r_new = system.residual(w_new)
            if float(np.linalg.norm(r_new)) <= (1.0 - 1e-4 * lam) * nr0:
                ok = True
                break
            lam *= 0.5
        if not ok:
            if err <= 50.0 * NEWTON_TOL:
                break
            raise NewtonError(
                f"{system.grid!r}: line search stalled at Newton step {it} "
                f"(scaled residual {err:.3g})"
            )
        min_step = min(min_step, lam)
        w, r = w_new, r_new
    else:
        raise NewtonError(
            f"{system.grid!r}: no convergence in {NEWTON_MAX_ITER} Newton steps "
            f"(scaled residual {err:.3g})"
        )
    info = {"newton_iters": it, "residual": err, "krylov_iters": krylov_iters, "min_step": min_step}
    return w, info


def solve_dirichlet(grid: PolarGrid, atoms, boundary, start=None):
    """Unique solution of Delta u = 4 e^{2u} + 2 pi sum mt delta_a on the
    grid disk with u = boundary at the n_theta rim nodes.

    The (a, mt) atoms may lie anywhere in the open unit disk: those outside
    the grid disk contribute no delta there, only a harmonic potential, and
    are folded into the singular split for smoothness (the solution does not
    depend on them beyond the boundary data, which the caller supplies).

    `start`, if given, holds values of u at PolarGrid.interior_nodes(),
    typically a subsolution the solution dominates; Newton then starts from
    its smooth part start + s. Where that sum is not finite (a node on an
    atom, where u is -inf) and when start is None, Newton starts from the
    harmonic extension of the rim data.

    Returns (GridFunction carrying the atoms, info dict: newton_iters,
    residual, krylov_iters, min_step, flagged_nodes). Newton stops once the
    discrete residual of the smooth system is below NEWTON_TOL at every
    interior node, relative to that row's scale |L||w| + |B||w_bc| +
    source + 1 (_SmoothSystem.scaled_error). A line search that stalls is
    accepted when that scaled residual is already at most 50 * NEWTON_TOL.
    """
    atoms = tuple((complex(a), float(m)) for a, m in atoms)
    for a, _ in atoms:
        if abs(a) >= 1.0:
            raise ValueError("atoms must lie strictly inside the unit disk")
    system = _SmoothSystem.with_data(grid, atoms, boundary)
    w0 = harmonic_extension(system.w_bc, grid).interior_values()
    if start is not None:
        start = np.asarray(start, dtype=np.float64)
        if start.shape != w0.shape:
            raise ValueError("a start must hold one value per interior node")
        with np.errstate(invalid="ignore"):
            w_start = start + system.s
        w0 = np.where(np.isfinite(w_start), w_start, w0)
    w, info = _newton_solve(system, w0)
    rings = np.vstack([w[1:].reshape(grid.n_r - 1, grid.n_theta), system.w_bc])
    info["flagged_nodes"] = int(np.sum(system.flagged))
    return GridFunction(grid, w[0], rings, atoms), info


def pde_residual(gf: GridFunction) -> float:
    """Backward-stable sup residual of the smooth system for a solved field."""
    system = _SmoothSystem(gf.grid, gf.atoms, gf.rings[-1])
    w = gf.interior_values()
    return system.scaled_error(w, system.residual(w))


# ---------------------------------------------------------------------------
# Perron hulls and nearly-maximal solutions


def perron_hull_r(
    sub, r: float, n_r: int, n_theta: int, check_subsolution: bool = True, previous=None
):
    """Minimal solution on D_r dominating the subsolution, matching it on dD_r.

    `sub` follows the GridFunction protocol (smooth(z) + .atoms), and its
    atoms are nu's: those outside D_r contribute no delta and enter only
    through the split. The discrete subsolution check certifies
    user-supplied fields; it needs the data's potential kernels resolved by
    the grid, so callers holding an analytic subsolution guarantee may pass
    check_subsolution=False.
    Newton starts below the hull: at the subsolution, evaluated once at the
    interior nodes for the check and the start. `previous`, if given, is the
    hull of the same sub on a smaller disk with the same n_theta (the last
    ladder rung), which this hull dominates there by comparison: inside
    that disk Newton starts at it instead, and sub is evaluated only
    outside, unless the check needs it everywhere.
    """
    grid = PolarGrid(r, n_r, n_theta)
    h = _cell_averaged_boundary(sub, grid)
    nodes = grid.interior_nodes()
    start = np.empty(0) if previous is None else _continued_start(previous, grid, nodes)
    skip = 0 if check_subsolution else start.size  # sub is needed only where the start uses it
    with np.errstate(invalid="ignore", divide="ignore"):
        sub_int = kernels.in_row_slices(sub, nodes[skip:], SUB_ATOMS)
    if check_subsolution:
        _check_discrete_subsolution(sub, sub_int, grid)
    start = np.concatenate([start, sub_int[start.size - skip:]])
    return solve_dirichlet(grid, sub.atoms, h, start=start)


def _continued_start(previous: GridFunction, grid: PolarGrid, nodes) -> np.ndarray:
    """previous's u at grid's interior nodes strictly inside its disk: the
    center and the rings below its radius, a prefix of nodes. Its smooth
    spline is evaluated once, on the tensor grid of those rings' radii (in
    previous's graded coordinate) and grid.theta."""
    if previous.grid.n_theta != grid.n_theta or not previous.grid.radius < grid.radius:
        raise ValueError(
            "a previous hull needs the same n_theta and a smaller radius "
            f"(got {previous.grid!r} for {grid!r})"
        )
    rho = grid.rho[grid.rho < previous.grid.radius]
    t = 1.0 - np.sqrt(1.0 - rho / previous.grid.radius)  # invert t(2-t)
    w = previous._ensure_spline()(t, grid.theta, grid=True)
    inside = nodes[:1 + w.size]
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.concatenate([[previous.center], w.ravel()]) - _singular_part(previous.atoms, inside)


def _cell_averaged_boundary(sub, grid: PolarGrid) -> np.ndarray:
    """Boundary data as angular cell averages of the subsolution.

    Potential-kernel spikes of width 1-r alias badly under plain nodal
    sampling once they drop below the angular spacing; box averages keep
    their integrated effect (and the interior only sees low modes). The
    supersampling factor adapts to the spike width; S = 1 would reduce to
    midpoint sampling. Up to 512 samples per cell, so sub is evaluated in
    row slices, like at the interior nodes.
    """
    r = grid.radius
    dth = TAU / grid.n_theta
    s_factor = int(np.clip(math.ceil(4.0 * dth / max(1.0 - r, 1e-6)), 1, 512))
    fine = (
        grid.theta[:, None]
        + ((np.arange(s_factor) + 0.5) / s_factor - 0.5)[None, :] * dth
    )
    vals = np.asarray(
        kernels.in_row_slices(sub, r * np.exp(1j * fine.ravel()), SUB_ATOMS), dtype=np.float64
    )
    return vals.reshape(grid.n_theta, s_factor).mean(axis=1)


def _check_discrete_subsolution(sub, sub_int, grid):
    """Raise SubsolutionError where Delta_h sub falls below 4 e^{2 sub} by
    more than SUBSOLUTION_TOL, relative to 1 + the source, with sub's nodal
    values as the rim data; sub_int holds sub at the interior nodes."""
    system = _SmoothSystem.with_data(grid, sub.atoms, sub(grid.rim_nodes()))
    with np.errstate(invalid="ignore"):
        w_sub = sub_int + system.s
    good = np.isfinite(w_sub)
    w_sub = np.where(good, w_sub, 0.0)
    viol = np.where(good, -system.residual(w_sub) / (1.0 + system.source(w_sub)), 0.0)
    worst = float(np.max(viol))
    if worst > SUBSOLUTION_TOL:
        raise SubsolutionError(
            f"discrete subsolution check violated by {worst:.3g} (tol {SUBSOLUTION_TOL})"
        )


@dataclass
class NearlyMaximalResult:
    solution: GridFunction
    previous: GridFunction | None
    ladder_radii: list
    increments: list  # sup over probes between consecutive hulls
    deficiency: list  # circle averages of u_D - u at the ladder radii
    extrapolation_ratio: float | None

    def __call__(self, z, extrapolate: bool = True):
        u = self.solution(z)
        if (
            extrapolate
            and self.extrapolation_ratio is not None
            and self.previous is not None
        ):
            q = self.extrapolation_ratio
            u_prev = self.previous(z)
            u = u + (u - u_prev) * (q / (1.0 - q))
        return u


def _probe_points(r_max: float):
    radii = np.linspace(0.1, min(r_max, 0.8), 8)
    radii = np.concatenate([[0.02], radii])
    th = np.arange(48) * (TAU / 48) + 0.0391
    return (radii[:, None] * np.exp(1j * th)[None, :]).ravel()


def _plus_log_inner(u, omega: DiskMeasure) -> AnalyticField:
    """The field u + log|I_omega|: omega's interior atoms join u's atoms,
    merged as in a measure sum, and the Poisson sum of its boundary atoms
    comes off u's smooth part."""
    b_ang = np.array([t for t, _ in omega.boundary])
    b_mas = np.array([m for _, m in omega.boundary])

    def smooth(z):
        z = np.ascontiguousarray(z)
        pois = kernels.poisson_sum(np.atleast_1d(z), b_ang, b_mas).reshape(z.shape)
        return np.asarray(u.smooth(z)) - pois

    return AnalyticField(smooth, atoms=(DiskMeasure(u.atoms) + omega).interior)


def nearly_maximal(
    omega: DiskMeasure, ladder, n_r: int, n_theta: int, stop_tol: float = 1e-4
) -> NearlyMaximalResult:
    """Solution with boundary deficiency mu and singularity nu-tilde.

    Takes Perron hulls of u_D + log|I_omega| along r_k = 1 - 2^{-k},
    stopping early once the probe increment drops below stop_tol, and
    extrapolates geometrically when the increments contract cleanly.
    """
    # u_D + log|I_omega| is a subsolution identically (the curvature of the
    # maximal metric dominates after multiplying by |I| <= 1), so the ladder
    # skips the discrete check, which would only re-measure its own
    # resolution of the data's boundary kernels
    res = _ladder_hulls(_plus_log_inner(maximal_field(), omega), ladder, n_r, n_theta, stop_tol)
    for r in res.ladder_radii:
        ring = (r - 1e-12) * np.exp(1j * np.linspace(0, TAU, 256, endpoint=False))
        res.deficiency.append(float(np.mean(u_max(ring) - res.solution(ring))))
    return res


def _check_rungs(ladder):
    """Raise ValueError unless there is a rung, each lies in 1..MAX_RUNG and
    they strictly increase."""
    if not ladder:
        raise ValueError("need at least one ladder rung")
    if any(not 1 <= k <= MAX_RUNG for k in ladder):
        raise ValueError(
            f"ladder rungs must lie in 1..{MAX_RUNG}, where r_k = 1 - 2^-k is a double in (0, 1)"
        )
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder rungs must strictly increase")


def _ladder_hulls(sub, ladder, n_r, n_theta, stop_tol) -> NearlyMaximalResult:
    """Hulls of `sub` along the ladder; the result's deficiency is left empty."""
    _check_rungs(ladder)
    # the probes are sized from the first rung, the innermost disk
    r_first = 1.0 - 2.0 ** (-ladder[0])
    probes = _probe_points(r_max=0.95 * r_first)
    hulls, increments, radii = [], [], []
    prev_vals, gf = None, None
    for k in ladder:
        r = 1.0 - 2.0 ** (-k)
        # each rung starts at the last hull, which it dominates on the smaller disk
        gf, _ = perron_hull_r(sub, r, n_r, n_theta, check_subsolution=False, previous=gf)
        vals = gf(probes)
        hulls.append(gf)
        radii.append(r)
        if prev_vals is not None:
            increments.append(float(np.max(np.abs(vals - prev_vals))))
        prev_vals = vals
        if len(increments) >= 2 and increments[-1] < stop_tol:
            break
        if len(hulls) > 2:
            hulls[-3] = None  # keep only the last two fields

    # geometric tail estimate: boundary-atom data contracts like sqrt(1-r)
    # (ratio ~ 0.71), interior-only data quadratically (~0.25)
    ratio = None
    tail = [b / a for a, b in zip(increments, increments[1:]) if a > 0][-3:]
    if len(tail) >= 2 and min(tail) > 0:
        q = float(np.median(tail))
        if 0.05 <= q <= 0.85 and max(tail) / min(tail) <= 1.25:
            ratio = q
    previous = hulls[-2] if len(hulls) >= 2 else None
    return NearlyMaximalResult(hulls[-1], previous, radii, increments, [], ratio)


# ---------------------------------------------------------------------------
# analytic oracles and experiments


def liouville_density(f):
    """log(|F'| / (1 - |F|^2)) as a callable; the pullback log-density."""

    def fn(z):
        z = np.asarray(z, dtype=np.complex128)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(np.abs(f.deriv(z))) - np.log1p(-np.abs(f(z)) ** 2)
        return float(out) if out.ndim == 0 else out

    return fn


def liouville_pullback(f, grid: PolarGrid):
    """Pullback density sampled on a grid; critical nodes are flagged."""
    if f.degree < 1:
        raise ValueError("need a nonconstant map")
    fn = liouville_density(f)
    rings = fn(grid.ring_nodes())
    center = fn(np.array(0j + 0.0, dtype=np.complex128))
    finite = np.isfinite(rings)
    report = {"flagged_nodes": int(np.sum(~finite)) + (0 if math.isfinite(center) else 1)}
    return GridFunction(grid, center if math.isfinite(center) else -745.0, rings), report


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


def check_fund3(om1: DiskMeasure, om2: DiskMeasure, ladder, n_r: int, n_theta: int):
    """Compare u_{om1+om2} against the hull of u_{om1} + log|I_{om2}|.

    The right side's rungs stop strictly inside the disk where u_{om1} is
    known, so their boundary data comes from u_{om1}'s interior values
    (strictly above its own subsolution); the two routes therefore carry
    genuinely different data at every rung and the reported sup difference
    over |z| <= 0.8 measures the identity, not the solver reproducing
    itself.
    """
    _check_rungs(ladder)
    # the right side's last hull has radius 1 - 2^-k for the second-to-last
    # rung k, and it is probed out to |z| = 0.8
    if len(ladder) < 2 or 1.0 - 2.0 ** -ladder[-2] < 0.8:
        raise ValueError(
            "need at least two ladder rungs, the second-to-last with 1 - 2^-k >= 0.8 (k >= 3)"
        )
    lhs = nearly_maximal(om1 + om2, ladder=ladder, n_r=n_r, n_theta=n_theta)
    u1 = nearly_maximal(om1, ladder=ladder, n_r=n_r, n_theta=n_theta)
    # the composite subsolution lives on u1's disk: run rungs up to there,
    # and extrapolate both routes with their own measured contraction
    rhs = _ladder_hulls(_plus_log_inner(u1.solution, om2), ladder[:-1], n_r, n_theta, stop_tol=0.0)
    probes = _probe_points(r_max=0.8)
    lhs_val = lhs(probes, extrapolate=True)
    rhs_val = rhs(probes, extrapolate=True)
    return {
        "sup_difference": float(np.max(np.abs(lhs_val - rhs_val))),
        "lhs": lhs,
        "rhs_field": rhs,
    }


def diffuse_experiment(ns, big_ms, ladder, n_r: int, n_theta: int):
    """Gap |u_{mu_{n,M}}(0) - u_D(0)| across the (n, M) table.

    Rows: (n, M, theta_n, u_at_0, gap, status); unsolvable (n, M) pairs
    carry status "theta-unsolvable" and NaN numerics.
    """
    from .measures import ThetaUnsolvableError, theta_for

    _check_rungs(ladder)
    rows = []
    for big_m in big_ms:
        for n in ns:
            try:
                th = theta_for(n, big_m)
            except ThetaUnsolvableError:
                rows.append((n, big_m, math.nan, math.nan, math.nan, "theta-unsolvable"))
                continue
            om = diffuse_family(n, big_m)
            res = nearly_maximal(om, ladder=ladder, n_r=n_r, n_theta=n_theta)
            u0 = float(res(np.array(0j), extrapolate=False))
            rows.append((n, big_m, th, u0, abs(u0 - 0.0), "ok"))
    return rows
