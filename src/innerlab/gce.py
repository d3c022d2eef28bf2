"""Gauss curvature equation Delta u = 4 e^{2u} + 2 pi nu on disks D_r.

Interior delta-atoms are removed analytically: writing u = w - s with
s(z) = sum mt * G(z, a), the smooth remainder solves Delta w = 4 q e^{2w}
with q = exp(-2s) in [0, 1], which a damped Newton-GMRES iteration handles
on a five-point polar grid (radial nodes graded toward the boundary as
rho = R * t(2-t), boundary data exact), right-preconditioned by a fast
polar solver P factored once per solve, the Jacobian with its diagonal
averaged over each ring: each GMRES iteration applies P^-1 once, and the
Jacobian through it as v - e * P^-1 v, e the diagonal's deviation from
those means, with no Laplacian stencil.
The maximal solution is u_D = -log(1 - |z|^2).

Perron hulls Lambda_r[u] solve on D_r with boundary values u|_{dD_r},
their Newton iteration starting at the smooth part w of the subsolution u
they dominate (the harmonic extension of the rim data, near log 1/(1-r)
on deep rungs, overshoots the interior and costs more steps the deeper the
rung); nearly-maximal solutions follow the ladder r_k = 1 - 2^{-k} applied
to the subsolution u_D + log|I_omega| and report the boundary deficiency
(circle averages of u_D - u) along the way. The hulls increase with k, so
each rung starts inside the previous disk at the previous rung's hull.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .measures import DiskMeasure, ThetaUnsolvableError, diffuse_family, theta_for

TAU = 2.0 * math.pi
NEWTON_TOL = 1e-10  # scaled residual at which the Newton iteration stops
NEWTON_MAX_ITER = 60
# GMRES iterations per Newton correction, without restart (the most measured
# over the selftest is 10); the line search absorbs an unfinished correction
KRYLOV_RESTART = 40
LADDER_STOP = 1e-4  # probe increment at which check_fund3's and diffuse_experiment's ladders stop
# the last k for which every point r_k e^{i theta}, r_k = 1 - 2^-k, has modulus
# below 1 in doubles; from k = 52 some round onto the unit circle, where u_D is +inf
MAX_RUNG = 51
PAD = 4  # angular columns copied onto each side before a GridFunction's spline fit
W_CLAMP = 150.0  # the source reads e^{2 min(w, W_CLAMP)}, so e^{2w} never overflows


class NewtonError(RuntimeError):
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
        """(a_m, a_p, a_0, a_t, c): the five-point polar Laplacian's per-ring
        coefficients, computed once per grid, read-only; _stencil applies them.

        Ring i (1..n_r-1) weighs its inner, outer and own node by a_m, a_p, a_0
        and each angular neighbour by a_t (arrays indexed i-1; ring 1's inner
        neighbour is the center, ring n_r-1's outer one the rim). The center
        row is c * (ring-1 mean - center).
        """
        if self._ops is None:
            rho = self.rho
            dth2 = (TAU / self.n_theta) ** 2
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
            for a in (a_m, a_p, a_0, a_t):
                a.flags.writeable = False
            self._ops = a_m, a_p, a_0, a_t, 4.0 / rho[0] ** 2
        return self._ops

    def __repr__(self):
        return f"PolarGrid(R={self.radius}, {self.n_r}x{self.n_theta})"


def _stencil(coeffs, w, rim, absolute=False):
    """L w + B rim = Delta_h u at interior values w (the center, then rings
    1..n_r-1) and rim values rim, from coeffs = PolarGrid.operators(). L's
    diagonal is -c at the center and a_0 on each ring; absolute=True flips
    its sign, which applies |L| and |B|, as all their other entries are > 0.

    The values go once into a (n_r + 1) x (n_theta + 2) array: the center
    row, the rings, the rim and a wrapped angle on each side.
    """
    a_m, a_p, a_0, a_t, c = coeffs
    d_c, d_r = (c, -a_0) if absolute else (-c, a_0)  # L's diagonal: center, each ring
    m = a_t.size  # rings with unknowns
    n_t = (w.size - 1) // m
    u = np.empty((m + 2, n_t + 2))
    u[0] = w[0]
    u[1:-1, 1:-1] = w[1:].reshape(m, n_t)
    u[-1, 1:-1] = rim
    u[:, 0], u[:, -1] = u[:, -2], u[:, 1]
    out = np.empty_like(w)
    out[0] = d_c * w[0] + c / n_t * np.sum(u[1, 1:-1])
    rings = out[1:].reshape(m, n_t)
    np.add(u[1:-1, :-2], u[1:-1, 2:], out=rings)
    rings *= a_t[:, None]
    rings += a_m[:, None] * u[:-2, 1:-1]
    rings += d_r[:, None] * u[1:-1, 1:-1]
    rings += a_p[:, None] * u[2:, 1:-1]
    return out


def _singular_part(atoms, z):
    """s(z) = sum mt * G(z, a); u = w - s."""
    a = np.array([p for p, _ in atoms], dtype=np.complex128)
    m = np.array([mm for _, mm in atoms], dtype=np.float64)
    return kernels.green_sum(np.asarray(z, dtype=np.complex128), a, m)


class _SplitField:
    """Evaluation shared by fields stored as smooth part w plus atoms:
    u(z) = w(z) - sum mt G(z, a), with `smooth` supplied by the subclass."""

    __slots__ = ()

    def __call__(self, z):
        z = np.asarray(z, dtype=np.complex128)
        out = np.asarray(self.smooth(z)) - _singular_part(self.atoms, z)
        return float(out) if out.ndim == 0 else out


class GridFunction(_SplitField):
    """Smooth nodal values w plus an analytic singular part -sum mt G(., a).

    Total field u = w - s. Interpolation happens on the smooth part in
    graded-radius coordinates (not-a-knot bicubic spline, PAD columns of
    periodic angle padding); the singular part is always evaluated analytically.
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
        s_c = float(_singular_part(self.atoms, np.array([0j]))[0])
        with np.errstate(invalid="ignore"):
            s_r = _singular_part(self.atoms, self.grid.ring_nodes())
        return self.center - s_c, self.rings - s_r

    def interior_values(self) -> np.ndarray:
        """Values at PolarGrid.interior_nodes(): the center, then rings 1..n_r-1."""
        return np.concatenate([[self.center], self.rings[:-1].ravel()])

    # -- pointwise evaluation -------------------------------------------------

    def _coefficients(self) -> np.ndarray:
        """The (n_r + 3) x (n_theta + 2 PAD + 2) spline coefficients, fitted once."""
        if self._spline is None:
            vals = np.vstack([np.full(self.grid.n_theta, self.center), self.rings])
            v = np.hstack([vals[:, -PAD:], vals, vals[:, :PAD]])
            self._spline = _not_a_knot(v.shape[0]) @ v @ _not_a_knot(v.shape[1]).T
        return self._spline

    def smooth(self, z):
        z_arr = np.asarray(z, dtype=np.complex128)
        shape = z_arr.shape
        zf = z_arr.ravel()
        r = np.abs(zf) / self.grid.radius
        if not np.all(r <= 1.0 + 1e-9):  # also a NaN point
            raise ValueError("point outside the grid disk")
        t = 1.0 - np.sqrt(np.maximum(0.0, 1.0 - np.minimum(r, 1.0)))  # invert t(2-t)
        c = self._coefficients()
        jr, wr = _bspline_weights(t * self.grid.n_r, c.shape[0])
        jt, wt = _bspline_weights(np.angle(zf) % TAU * (self.grid.n_theta / TAU) + PAD, c.shape[1])
        k, n = np.arange(4), c.shape[1]
        patches = c.ravel()[(jr * n + jt)[:, None, None] + (k[:, None] * n + k)]  # (P, 4, 4)
        out = np.einsum("pa,pab,pb->p", wr, patches, wt)
        return float(out[0]) if shape == () else out.reshape(shape)

    def __repr__(self):
        return f"GridFunction({self.grid!r}, atoms={len(self.atoms)})"


@functools.lru_cache(maxsize=16)
def _not_a_knot(n: int) -> np.ndarray:
    """The (n + 2) x n matrix from values at n uniform nodes to the n + 2
    uniform cubic B-spline coefficients of their not-a-knot interpolant: the
    inverse of n interpolation rows (1/6, 2/3, 1/6) and two rows
    (1, -4, 6, -4, 1) with right-hand side 0, which make the third derivative
    continuous at the second and second-to-last node (a product is faster
    than triangular solves with an LU factor). Built once per n, read-only."""
    A = np.zeros((n + 2, n + 2))
    A[1:-1] = (np.eye(n, n + 2) + 4.0 * np.eye(n, n + 2, 1) + np.eye(n, n + 2, 2)) / 6.0
    A[0, :5] = A[-1, -5:] = 1.0, -4.0, 6.0, -4.0, 1.0
    out = np.ascontiguousarray(np.linalg.inv(A)[:, 1:-1])
    out.flags.writeable = False
    return out


def _bspline_weights(s, m: int):
    """For positions s (in node units) on an axis of m coefficients: the first
    of the four coefficients whose B-splines cover each s, and their weights."""
    j = np.clip(np.floor(s), 0, m - 4).astype(np.intp)
    u = s - j
    w = [(1.0 - u) ** 3, (3.0 * u - 6.0) * u * u + 4.0, ((3.0 - 3.0 * u) * u + 3.0) * u + 1.0, u ** 3]
    return j, np.stack(w, -1) / 6.0


def _bspline_matrix(s, m: int) -> np.ndarray:
    """The (len(s), m) matrix that evaluates an axis's spline at positions s."""
    j, w = _bspline_weights(s, m)
    out = np.zeros((s.size, m))
    out[np.arange(s.size)[:, None], j[:, None] + np.arange(4)] = w
    return out


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
        self.coeffs = grid.operators()
        with np.errstate(invalid="ignore", divide="ignore"):
            s = _singular_part(atoms, grid.interior_nodes())
            self.q = np.exp(-2.0 * s)
        self.flagged = ~np.isfinite(s)
        self.q[self.flagged] = 0.0
        self.w_bc = w_bc

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
        return 4.0 * self.q * np.exp(2.0 * np.minimum(w, W_CLAMP))

    def laplacian(self, w):
        return _stencil(self.coeffs, w, self.w_bc)

    def scaled_error(self, w, r, src) -> float:
        """Sup of |r| over each row's scale |L||w| + |B||w_bc| + source + 1,
        with src = source(w): backward stable, as the residual floor is
        eps * |L||w| anyway."""
        scale = _stencil(self.coeffs, np.abs(w), np.abs(self.w_bc), absolute=True) + src + 1.0
        return float(np.max(np.abs(r) / scale))


def splu(*args, **kwargs):
    """scipy.sparse.linalg.splu, imported at the first factorization so that
    `import innerlab` loads no scipy; a module-level name, which perfbench's
    tracer and the tests wrap."""
    from scipy.sparse.linalg import splu

    return splu(*args, **kwargs)


def _polar_preconditioner(grid: PolarGrid, d):
    """(solve, d_bar): a solver for P = L - diag(d_bar), where d_bar is d
    with each ring replaced by its mean and the center keeping its own d.

    An FFT in angle splits P into one real tridiagonal system along the
    rings per angular mode m, whose angular term is a_t * 2cos(2 pi m /
    n_theta); mode 0 is bordered by the center row. With the center first
    and then each mode's rings, mode by mode, the whole system is a single
    tridiagonal matrix, factored once. It inverts the Jacobian exactly when
    d is constant on each ring; _newton_solve builds it from its first
    step's d and keeps it.
    """
    import scipy.sparse as sp

    n_r, n_t = grid.n_r, grid.n_theta
    a_m, a_p, a_0, a_t, c = grid.operators()
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
    # -P is a Z-matrix whose rows are weakly dominant once the center unknown
    # is scaled by n_theta, and strictly dominant at the last ring: a
    # nonsingular M-matrix, which Gaussian elimination factors without row
    # pivoting. A tridiagonal matrix has no supernodes. So the factor keeps
    # identity permutations and at most 4n nonzeros
    lu = splu(P, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1, panel_size=1)
    # the right-hand side, rewritten by every application: the center row
    # (b[0], 0), then each mode's rings as (real, imaginary) rows, which the
    # forward FFT fills through their complex view
    rhs = np.zeros((1 + n_modes * (n_r - 1), 2))
    spectrum = rhs[1:].view(np.complex128).reshape(n_modes, n_r - 1)

    def solve(b, out):
        """Write P^-1 b into out, a contiguous array other than b, and return it."""
        rhs[0, 0] = b[0]
        np.fft.rfft(b[1:].reshape(n_r - 1, n_t).T, axis=0, out=spectrum)
        x = lu.solve(rhs)  # Fortran order: real and imaginary parts lie apart
        out[0] = x[0, 0]
        modes = (x[1:, 0] + 1j * x[1:, 1]).reshape(n_modes, n_r - 1)
        np.fft.irfft(modes, n_t, axis=0, out=out[1:].reshape(n_r - 1, n_t).T)
        return out

    return solve, np.concatenate([[d[0]], np.repeat(d_ring, n_t)])


def _gmres(apply, b, rtol):
    """Solve J x = b by right-preconditioned GMRES from x = 0, where
    apply(v, z) writes the preconditioned direction P^-1 v into z and
    returns J z.

    FGMRES-style: the preconditioned directions Z are kept and x = Z y, so
    each iteration calls apply exactly once, as apply(V[j], Z[j]), which
    writes into the row Z[j]. The Givens-rotated least-squares residual is
    the true residual |b - J x| up to rounding and the accuracy of P^-1 (V
    is orthogonalized by classical Gram-Schmidt applied twice). Stops once
    it is at most rtol * |b|, or after KRYLOV_RESTART iterations. Returns
    (x, iterations).
    """
    from scipy.linalg import solve_triangular

    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return np.zeros_like(b), 0
    m = KRYLOV_RESTART
    # rows are touched as used. Allocated per solve: one (2m + 1) x n block
    # kept across solves took 0.905x the time on the ladder benchmark but
    # 14-19% more peak memory, and two kept arrays saved nothing
    V, Z = np.empty((m + 1, b.size)), np.empty((m, b.size))
    R = np.zeros((m, m))
    cs, sn, g = np.zeros(m), np.zeros(m), np.zeros(m + 1)
    V[0], g[0] = b / beta, beta
    for j in range(m):
        w = apply(V[j], Z[j])
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

    The source is evaluated once per trial point and serves its residual,
    its scaled error and, at an accepted iterate, the Jacobian's diagonal.
    Each correction solves J delta = -r, J = L - diag(d), d = 2 source(w), by
    right-preconditioned GMRES (_gmres, one preconditioner application per
    iteration) to an Eisenstat-Walker type forcing term
    min(1e-2, max(0.1 * sqrt(err), 0.1 * NEWTON_TOL / err)): loose far from
    the root, tightening as the scaled error err falls (a fixed tight
    tolerance spends the full Krylov budget on every correction). The factor
    0.1 on sqrt(err) sits on a plateau: on the ladder benchmark's two
    ladders, 0.03, 0.1 and 0.2 take 136, 120 and 118 GMRES iterations (45,
    44 and 46 Newton steps) against 158 for 1e-3; a factor of 1 (cap 0.5)
    takes 108 but gives criterion 08 677 Newton steps in place of 606, each
    with its own residual and line search. The forcing is
    never below 0.1 * NEWTON_TOL / err, the Eisenstat-Walker safeguard: the
    last correction need only bring err under NEWTON_TOL, not to rounding.
    Its factor 0.1, not the textbook 0.5, leaves room because GMRES bounds
    the 2-norm of the residual while the stop tests its scaled sup-norm. The
    preconditioner is lagged: _polar_preconditioner is factored at the first
    correction and serves every later one. It inverts P = L - diag(d_bar),
    so J = P - diag(e) with e = d - d_bar, and GMRES applies J P^-1 v as
    v - e * P^-1 v: one preconditioner application and one diagonal product
    per iteration. The info dict counts Newton steps and GMRES iterations
    and keeps the final scaled residual and the smallest line-search step.
    """
    src = system.source(w)
    r = system.laplacian(w) - src
    krylov_iters, min_step, precond = 0, 1.0, None
    for it in range(NEWTON_MAX_ITER):
        err = system.scaled_error(w, r, src)
        if not math.isfinite(err):
            raise NewtonError(f"{system.grid!r}: scaled residual is {err} at Newton step {it}")
        if err <= NEWTON_TOL:
            break
        nr0 = float(np.linalg.norm(r))
        if not math.isfinite(nr0):  # finite entries whose 2-norm overflows
            raise NewtonError(f"{system.grid!r}: residual norm is {nr0} at Newton step {it}")
        if precond is None:  # lagged: the first correction's d serves the whole solve
            precond, d_bar = _polar_preconditioner(system.grid, 2.0 * src)
        forcing = min(1e-2, max(0.1 * math.sqrt(err), 0.1 * NEWTON_TOL / err))
        e = 2.0 * src - d_bar
        delta, iters = _gmres(lambda v, z: v - e * precond(v, z), -r, forcing)
        krylov_iters += iters
        lam, ok = 1.0, False
        for _ in range(40):
            w_new = w + lam * delta
            src_new = system.source(w_new)
            r_new = system.laplacian(w_new) - src_new
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
        w, r, src = w_new, r_new, src_new
    else:
        raise NewtonError(
            f"{system.grid!r}: no convergence in {NEWTON_MAX_ITER} Newton steps "
            f"(scaled residual {err:.3g})"
        )
    # past W_CLAMP the source is clamped, and against a row scale of |L||w|
    # the scaled residual cannot see it: such an iterate solves another equation
    w_max = float(np.max(w, where=system.q > 0.0, initial=-math.inf))
    if w_max > W_CLAMP:
        raise NewtonError(
            f"{system.grid!r}: the accepted iterate has w = {w_max:.3g} > {W_CLAMP:g} "
            "at a node with q > 0, where the source is clamped"
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
    They pass through DiskMeasure, which raises ValueError unless each lies
    in the open disk with a positive finite mass (so q = e^{-2s} <= 1), and
    merges atoms at one point.

    `start`, if given, holds values of the smooth unknown w = u + s at
    PolarGrid.interior_nodes(), as GridFunction.interior_values() returns
    them, typically of a subsolution the solution dominates; Newton starts
    there. When start is None, Newton starts from the harmonic extension of
    the rim data.

    Returns (GridFunction carrying the atoms, info dict: newton_iters,
    residual, krylov_iters, min_step, flagged_nodes). Newton stops once the
    discrete residual of the smooth system is below NEWTON_TOL at every
    interior node, relative to that row's scale |L||w| + |B||w_bc| +
    source + 1 (_SmoothSystem.scaled_error). A line search that stalls is
    accepted when that scaled residual is already at most 50 * NEWTON_TOL.
    An accepted w above W_CLAMP at a node with q > 0 raises NewtonError.
    """
    atoms = DiskMeasure(atoms).interior
    system = _SmoothSystem.with_data(grid, atoms, boundary)
    if start is None:
        w0 = harmonic_extension(system.w_bc, grid).interior_values()
    else:
        w0 = np.asarray(start, dtype=np.float64)
        if w0.shape != (grid.interior_count(),):
            raise ValueError("a start must hold one value per interior node")
    w, info = _newton_solve(system, w0)
    rings = np.vstack([w[1:].reshape(grid.n_r - 1, grid.n_theta), system.w_bc])
    info["flagged_nodes"] = int(np.sum(system.flagged))
    return GridFunction(grid, w[0], rings, atoms), info


# ---------------------------------------------------------------------------
# Perron hulls and nearly-maximal solutions


def perron_hull_r(sub, r: float, n_r: int, n_theta: int, previous=None):
    """Minimal solution on D_r dominating the subsolution, matching it on dD_r.

    `sub` follows the GridFunction protocol (smooth(z) + .atoms), and its
    atoms are nu's: those outside D_r contribute no delta and enter only
    through the split. The caller guarantees that sub is a subsolution;
    nothing here checks it. Newton starts below the hull: at the
    subsolution's smooth part sub.smooth, the unknown w = u + s that Newton
    iterates, evaluated once at the interior nodes. `previous`, if given,
    is the hull of the same sub on a smaller disk with the same n_theta
    (the last ladder rung), which this hull dominates there by comparison:
    inside that disk Newton starts at its smooth part instead, and
    sub.smooth is evaluated only outside.
    """
    grid = PolarGrid(r, n_r, n_theta)
    h = _cell_averaged_boundary(sub, grid)
    start = np.empty(0) if previous is None else _continued_start(previous, grid)
    outside = np.asarray(sub.smooth(grid.interior_nodes()[start.size:]), dtype=np.float64)
    return solve_dirichlet(grid, sub.atoms, h, start=np.concatenate([start, outside]))


def _continued_start(previous: GridFunction, grid: PolarGrid) -> np.ndarray:
    """previous's smooth part w at grid's interior nodes strictly inside its
    disk: the center and the rings below its radius, a prefix of
    grid.interior_nodes(). Its spline is evaluated once, on the tensor grid
    of those rings' radii (in previous's graded coordinate) and grid.theta."""
    if previous.grid.n_theta != grid.n_theta or not previous.grid.radius < grid.radius:
        raise ValueError(
            "a previous hull needs the same n_theta and a smaller radius "
            f"(got {previous.grid!r} for {grid!r})"
        )
    rho = grid.rho[grid.rho < previous.grid.radius]
    t = 1.0 - np.sqrt(1.0 - rho / previous.grid.radius)  # invert t(2-t)
    c = previous._coefficients()
    angles = np.arange(grid.n_theta) + PAD  # grid.theta in node units
    w = _bspline_matrix(t * previous.grid.n_r, c.shape[0]) @ c @ _bspline_matrix(angles, c.shape[1]).T
    return np.concatenate([[previous.center], w.ravel()])


def _cell_averaged_boundary(sub, grid: PolarGrid) -> np.ndarray:
    """Boundary data as angular cell averages of the subsolution.

    Potential-kernel spikes of width 1-r alias badly under plain nodal
    sampling once they drop below the angular spacing; box averages keep
    their integrated effect (and the interior only sees low modes). The
    supersampling factor adapts to the spike width; S = 1 would reduce to
    midpoint sampling. Up to 512 samples per cell; the potential kernels
    bound their own memory.
    """
    r = grid.radius
    dth = TAU / grid.n_theta
    s_factor = int(np.clip(math.ceil(4.0 * dth / max(1.0 - r, 1e-6)), 1, 512))
    fine = (
        grid.theta[:, None]
        + ((np.arange(s_factor) + 0.5) / s_factor - 0.5)[None, :] * dth
    )
    vals = np.asarray(sub(r * np.exp(1j * fine.ravel())), dtype=np.float64)
    return vals.reshape(grid.n_theta, s_factor).mean(axis=1)


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
        return np.asarray(u.smooth(z)) - kernels.poisson_sum(np.asarray(z), b_ang, b_mas)

    return AnalyticField(smooth, atoms=(DiskMeasure(u.atoms) + omega).interior)


def nearly_maximal(
    omega: DiskMeasure, ladder, n_r: int, n_theta: int, stop_tol: float
) -> NearlyMaximalResult:
    """Solution with boundary deficiency mu and singularity nu-tilde.

    Takes Perron hulls of u_D + log|I_omega| along r_k = 1 - 2^{-k},
    stopping early once the probe increment drops below stop_tol, and
    extrapolates geometrically when the increments contract cleanly.
    """
    # u_D + log|I_omega| is a subsolution identically: the curvature of the
    # maximal metric dominates after multiplying by |I| <= 1
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
            f"ladder rungs must lie in 1..{MAX_RUNG}: beyond, points on |z| = 1 - 2^-k "
            "round onto the unit circle"
        )
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("ladder rungs must strictly increase")


def _ladder_hulls(sub, ladder, n_r, n_theta, stop_tol) -> NearlyMaximalResult:
    """Hulls of `sub` along the ladder; the result's deficiency is left empty."""
    _check_rungs(ladder)
    # the probes are sized from the first rung, the innermost disk
    r_first = 1.0 - 2.0 ** (-ladder[0])
    probes = _probe_points(r_max=0.95 * r_first)
    increments, radii = [], []
    prev_vals, gf = None, None
    for k in ladder:
        r = 1.0 - 2.0 ** (-k)
        # each rung starts at the last hull, which it dominates on the smaller disk
        previous = gf
        gf, _ = perron_hull_r(sub, r, n_r, n_theta, previous=previous)
        vals = gf(probes)
        radii.append(r)
        if prev_vals is not None:
            increments.append(float(np.max(np.abs(vals - prev_vals))))
        prev_vals = vals
        if len(increments) >= 2 and increments[-1] < stop_tol:
            break

    # geometric tail estimate: boundary-atom data contracts like sqrt(1-r)
    # (ratio ~ 0.71), interior-only data quadratically (~0.25)
    ratio = None
    tail = [b / a for a, b in zip(increments, increments[1:]) if a > 0][-3:]
    if len(tail) >= 2 and min(tail) > 0:
        q = float(np.median(tail))
        if 0.05 <= q <= 0.85 and max(tail) / min(tail) <= 1.25:
            ratio = q
    return NearlyMaximalResult(gf, previous, radii, increments, [], ratio)


# ---------------------------------------------------------------------------
# experiments


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
    lhs = nearly_maximal(om1 + om2, ladder=ladder, n_r=n_r, n_theta=n_theta, stop_tol=LADDER_STOP)
    u1 = nearly_maximal(om1, ladder=ladder, n_r=n_r, n_theta=n_theta, stop_tol=LADDER_STOP)
    # the composite subsolution lives on u1's disk: run rungs up to there,
    # and extrapolate both routes with their own measured contraction
    rhs = _ladder_hulls(_plus_log_inner(u1.solution, om2), ladder[:-1], n_r, n_theta, stop_tol=0.0)
    probes = _probe_points(r_max=0.8)
    lhs_val = lhs(probes, extrapolate=True)
    rhs_val = rhs(probes, extrapolate=True)
    return {"sup_difference": float(np.max(np.abs(lhs_val - rhs_val))), "lhs": lhs}


def diffuse_experiment(ns, big_ms, ladder, n_r: int, n_theta: int):
    """Gap |u_{mu_{n,M}}(0) - u_D(0)| across the (n, M) table.

    Rows: (n, M, theta_n, u_at_0, gap, status); unsolvable (n, M) pairs
    carry status "theta-unsolvable" and NaN numerics. Raises ValueError
    unless there is at least one n and one M, before any solve.
    """
    _check_rungs(ladder)
    if len(ns) == 0 or len(big_ms) == 0:
        raise ValueError("need at least one n and one M")
    rows = []
    for big_m in big_ms:
        for n in ns:
            try:
                th = theta_for(n, big_m)
            except ThetaUnsolvableError:
                rows.append((n, big_m, math.nan, math.nan, math.nan, "theta-unsolvable"))
                continue
            om = diffuse_family(n, big_m)
            res = nearly_maximal(om, ladder=ladder, n_r=n_r, n_theta=n_theta, stop_tol=LADDER_STOP)
            u0 = float(res(np.array(0j), extrapolate=False))
            rows.append((n, big_m, th, u0, abs(u0), "ok"))
    return rows
