import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from innerlab import gce
from innerlab.gce import (
    AnalyticField,
    GridFunction,
    NewtonError,
    PolarGrid,
    check_fund3,
    diffuse_experiment,
    harmonic_extension,
    maximal_field,
    nearly_maximal,
    perron_hull_r,
    solve_dirichlet,
    u_max,
)
from innerlab.inner import InnerFunctionRep
from innerlab.measures import DiskMeasure, diffuse_family
from oracles import liouville_density, loop_laplacian, pde_residual, poisson, radial_solution

TAU = 2.0 * math.pi


def monomial_pullback(d):
    def fn(z):
        z = np.asarray(z, dtype=np.complex128)
        with np.errstate(divide="ignore"):
            return np.log(d * np.abs(z) ** (d - 1) / (1.0 - np.abs(z) ** (2 * d)))

    return fn


GRIDS = [(0.9, 8, 8), (1.0, 9, 17), (0.75, 48, 96), (0.9921875, 128, 256)]


class TestOperators:
    @pytest.mark.parametrize("radius,n_r,n_theta", GRIDS)
    def test_equals_node_by_node_assembly(self, radius, n_r, n_theta):
        # on seeded random values, the stencil applies L w + B rim, and with
        # absolute=True |L||w| + |B||rim|
        grid = PolarGrid(radius, n_r, n_theta)
        L, B = loop_laplacian(grid)
        rng = np.random.default_rng(n_r * n_theta)
        w, rim = rng.standard_normal(grid.interior_count()), rng.standard_normal(n_theta)
        abs_want = abs(L) @ np.abs(w) + abs(B) @ np.abs(rim)
        system = gce._SmoothSystem(grid, (), rim)
        for got, want in [
            (system.laplacian(w), L @ w + B @ rim),
            (gce._stencil(grid.operators(), np.abs(w), np.abs(rim), absolute=True), abs_want),
        ]:
            assert float(np.max(np.abs(got - want) / abs_want)) <= 1e-15

    def test_coefficients_computed_once_and_read_only(self):
        grid = PolarGrid(0.9, 24, 32)
        coeffs = grid.operators()
        assert grid.operators() is coeffs
        assert not any(a.flags.writeable for a in coeffs[:4])

    @pytest.mark.parametrize("m", [0, 1, 3])
    @pytest.mark.parametrize("radius,n_r,n_theta", GRIDS)
    def test_discrete_symbol(self, radius, n_r, n_theta, m):
        # u = rho^2 e^{i m theta}: the nonuniform three-point radial
        # differences are exact on rho^2 (radial part 2 + 2 = 4), the angular
        # second difference has symbol (2 cos(m dth) - 2) / dth^2, and the
        # center row is 4 / rho_1^2 times (ring-1 mean - center value)
        grid = PolarGrid(radius, n_r, n_theta)
        coeffs = grid.operators()
        dth = TAU / n_theta
        mode = np.exp(1j * m * grid.theta)
        u = grid.rho[:, None] ** 2 * mode[None, :]
        u_int, u_rim = np.concatenate([[0j], u[:-1].ravel()]), u[-1]
        ring_target = (4.0 + (2.0 * math.cos(m * dth) - 2.0) / dth**2) * mode
        target = np.concatenate([[4.0 if m == 0 else 0.0], np.tile(ring_target, n_r - 1)])
        lap = gce._stencil(coeffs, u_int.real, u_rim.real)
        lap = lap + 1j * gce._stencil(coeffs, u_int.imag, u_rim.imag)
        scale = gce._stencil(coeffs, np.abs(u_int), np.abs(u_rim), absolute=True) + np.abs(target)
        assert float(np.max(np.abs(lap - target) / scale)) <= 1e-13


def exact_newton(system, w):
    """Reference damped Newton: the solver's iteration and line search, with
    each correction solved exactly by a sparse direct solve of the Jacobian."""
    def residual(w):
        return system.laplacian(w) - system.source(w)

    r = residual(w)
    for it in range(gce.NEWTON_MAX_ITER):
        err = system.scaled_error(w, r, system.source(w))
        if err <= gce.NEWTON_TOL:
            return w, it
        J = (loop_laplacian(system.grid)[0] - sp.diags(2.0 * system.source(w))).tocsc()
        delta = spsolve(J, -r)
        lam, nr0 = 1.0, float(np.linalg.norm(r))
        while float(np.linalg.norm(residual(w + lam * delta))) > (1.0 - 1e-4 * lam) * nr0:
            lam *= 0.5
            assert lam > 2.0**-40, "reference line search stalled"
        w = w + lam * delta
        r = residual(w)
    raise AssertionError("reference Newton did not converge")


def spiky_problem():
    # two interior atoms, and rim data with two Poisson spikes of width ~ 0.1
    grid = PolarGrid(0.9, 24, 32)
    rim = grid.rim_nodes()
    h = u_max(rim) - 0.5 * poisson(rim, 0.3) - 0.8 * poisson(rim, 2.0 + TAU / 64)
    return grid, ((0.3 + 0.2j, 0.7), (-0.45j, 1.2)), h


class TestNewtonKrylov:
    @pytest.mark.parametrize("radius,n_r,n_theta", GRIDS)
    def test_preconditioner_inverts_ring_constant_jacobian(self, radius, n_r, n_theta):
        # with the Jacobian's diagonal constant on each ring, the ring mean
        # changes nothing and the preconditioner is the exact inverse
        grid = PolarGrid(radius, n_r, n_theta)
        rng = np.random.default_rng(n_r * n_theta)
        rings = np.repeat(rng.uniform(0.0, 50.0, n_r - 1), n_theta)
        d = np.concatenate([[rng.uniform(0.0, 5.0)], rings])
        J = loop_laplacian(grid)[0] - sp.diags(d)
        x = rng.standard_normal(grid.interior_count())
        y = gce._polar_preconditioner(grid, d)[0](J @ x, np.empty_like(x))
        assert np.linalg.norm(y - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("radius,n_r,n_theta", GRIDS)
    def test_preconditioner_factor_is_pivot_free(self, monkeypatch, radius, n_r, n_theta):
        # -P is an M-matrix: no row pivoting, and a tridiagonal factor of at
        # most 4n nonzeros (a row permutation adds fill)
        factors, factor = [], gce.splu

        def captured(*args, **kwargs):
            factors.append(factor(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(gce, "splu", captured)
        grid = PolarGrid(radius, n_r, n_theta)
        rng = np.random.default_rng(n_r * n_theta)
        rings = np.repeat(rng.uniform(0.0, 50.0, n_r - 1), n_theta)
        gce._polar_preconditioner(grid, np.concatenate([[rng.uniform(0.0, 5.0)], rings]))
        (lu,) = factors
        n = lu.shape[0]
        assert np.array_equal(lu.perm_r, np.arange(n))
        assert np.array_equal(lu.perm_c, np.arange(n))
        assert lu.nnz <= 4 * n

    @pytest.mark.parametrize("radius,n_r,n_theta", GRIDS)
    def test_apply_matches_copying_formula_bit_for_bit(self, monkeypatch, radius, n_r, n_theta):
        # the apply writes the FFTs into one reused right-hand side and into
        # its output; over the same factor it gives the bits of the formula
        # that builds every intermediate afresh, and reusing the buffer
        # touches neither an earlier output nor the input
        factors, factor = [], gce.splu

        def captured(*args, **kwargs):
            factors.append(factor(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(gce, "splu", captured)
        grid = PolarGrid(radius, n_r, n_theta)
        rng = np.random.default_rng(n_r * n_theta)
        solve, _ = gce._polar_preconditioner(grid, rng.uniform(0.0, 50.0, grid.interior_count()))
        (lu,) = factors
        n_modes = n_theta // 2 + 1

        def copying(b):
            f = np.fft.rfft(b[1:].reshape(n_r - 1, n_theta), axis=1).T.ravel()
            rhs = np.empty((f.size + 1, 2))
            rhs[0] = b[0], 0.0
            rhs[1:, 0], rhs[1:, 1] = f.real, f.imag
            x = lu.solve(rhs)
            modes = (x[1:, 0] + 1j * x[1:, 1]).reshape(n_modes, n_r - 1).T
            return np.concatenate([[x[0, 0]], np.fft.irfft(modes, n_theta, axis=1).ravel()])

        b1, b2 = rng.standard_normal((2, grid.interior_count()))
        b1_copy = b1.copy()
        out1, out2 = np.empty((2, grid.interior_count()))
        assert solve(b1, out1) is out1
        first = out1.copy()
        assert solve(b2, out2) is out2
        assert np.array_equal(out1, first) and np.array_equal(b1, b1_copy)
        assert np.array_equal(out1, copying(b1)) and np.array_equal(out2, copying(b2))

    def test_matches_exact_newton(self):
        grid, atoms, h = spiky_problem()
        gf, info = solve_dirichlet(grid, atoms, h)
        system = gce._SmoothSystem.with_data(grid, atoms, h)
        w0 = harmonic_extension(system.w_bc, grid).interior_values()
        want, iters = exact_newton(system, w0)
        got = gf.interior_values()
        assert np.max(np.abs(got - want)) <= 1e-11 * max(1.0, np.max(np.abs(want)))
        assert info["newton_iters"] == iters

    def test_forcing_stops_at_newton_tol(self, monkeypatch):
        # each correction is solved only as far as the Newton stop needs:
        # never below 0.1 * NEWTON_TOL / err relative to the residual norm,
        # and every solve still ends at NEWTON_TOL
        errs, asked = [], []
        scaled_error, gmres = gce._SmoothSystem.scaled_error, gce._gmres

        def recorded_error(system, w, r, src):
            errs.append(scaled_error(system, w, r, src))
            return errs[-1]

        def recorded_gmres(apply, b, rtol):
            asked.append((rtol, errs[-1]))
            return gmres(apply, b, rtol)

        monkeypatch.setattr(gce._SmoothSystem, "scaled_error", recorded_error)
        monkeypatch.setattr(gce, "_gmres", recorded_gmres)
        sub = gce._plus_log_inner(maximal_field(), DiskMeasure(interior=[(0j, 1.0)]))
        infos = [
            solve_dirichlet(*spiky_problem())[1],
            perron_hull_r(sub, 0.9375, 48, 96)[1],
        ]
        assert len(asked) == sum(info["newton_iters"] for info in infos)
        assert all(rtol >= 0.1 * gce.NEWTON_TOL / err for rtol, err in asked), asked
        assert all(info["residual"] <= gce.NEWTON_TOL for info in infos), infos

    def test_one_source_evaluation_per_trial_point(self, monkeypatch):
        # the source at an iterate serves its residual, its scaled error and
        # the Jacobian's diagonal: one evaluation at the start and one per
        # line-search trial, which is newton_iters + 1 when every step is full
        calls = []
        source = gce._SmoothSystem.source
        monkeypatch.setattr(gce._SmoothSystem, "source", lambda *a: calls.append(1) or source(*a))
        sub = gce._plus_log_inner(maximal_field(), DiskMeasure(interior=[(0j, 1.0)]))
        for solve in (lambda: solve_dirichlet(*spiky_problem()), lambda: perron_hull_r(sub, 0.9375, 48, 96)):
            calls.clear()
            _, info = solve()
            assert info["newton_iters"] > 1 and info["min_step"] == 1.0
            assert len(calls) == info["newton_iters"] + 1

    def test_scaled_error_against_matrix_scale(self):
        # Newton stops on max |r| / (|L||w| + |B||w_bc| + src + 1), each row
        # scaled by the matrices of the node-by-node assembly
        grid, atoms, h = spiky_problem()
        system = gce._SmoothSystem.with_data(grid, atoms, h)
        L, B = loop_laplacian(grid)
        w = harmonic_extension(system.w_bc, grid).interior_values()
        w = w + np.random.default_rng(3).standard_normal(w.size)
        src = system.source(w)
        r = system.laplacian(w) - src
        scale = abs(L) @ np.abs(w) + abs(B) @ np.abs(system.w_bc) + src + 1.0
        want = float(np.max(np.abs(r) / scale))
        assert system.scaled_error(w, r, src) == pytest.approx(want, rel=1e-14)

    def test_solve_accounting(self):
        _, info = solve_dirichlet(*spiky_problem())
        assert info["newton_iters"] > 0
        assert info["krylov_iters"] >= info["newton_iters"]
        assert 0.0 < info["min_step"] <= 1.0
        assert info["residual"] <= gce.NEWTON_TOL

    @staticmethod
    def count_factorizations(monkeypatch):
        calls = []
        splu = gce.splu
        monkeypatch.setattr(gce, "splu", lambda *a, **k: calls.append(a) or splu(*a, **k))
        return calls

    def test_one_factorization_per_solve(self, monkeypatch):
        # the preconditioner is factored at the first correction and kept for
        # every later one, however many Newton steps the solve takes
        calls = self.count_factorizations(monkeypatch)
        _, info = solve_dirichlet(*spiky_problem())
        assert info["newton_iters"] > 1 and len(calls) == 1
        sub = gce._plus_log_inner(maximal_field(), DiskMeasure(interior=[(0j, 1.0)]))
        for r in (0.75, 0.9375):
            _, info = perron_hull_r(sub, r, 48, 96)
            assert info["newton_iters"] > 1
        assert len(calls) == 3

    def test_converged_start_factors_nothing(self, monkeypatch):
        # a start holds the smooth unknown w, as interior_values() returns it,
        # also at a node on an atom (the center's delta)
        grid = PolarGrid(0.9, 24, 32)
        h = u_max(grid.rim_nodes())
        calls = self.count_factorizations(monkeypatch)
        for atoms in ((), ((0j, 1.0), (0.3 + 0.1j, 0.5))):
            gf, _ = solve_dirichlet(grid, atoms, h)
            calls.clear()
            _, info = solve_dirichlet(grid, atoms, h, start=gf.interior_values())
            assert info["newton_iters"] == 0 and calls == [], atoms

    def test_one_preconditioner_application_per_gmres_iteration(self, monkeypatch):
        calls = []
        factor = gce._polar_preconditioner

        def counted(grid, d):
            solve, d_bar = factor(grid, d)
            return (lambda b, out: calls.append(1) or solve(b, out)), d_bar

        monkeypatch.setattr(gce, "_polar_preconditioner", counted)
        _, info = solve_dirichlet(*spiky_problem())
        assert info["krylov_iters"] > info["newton_iters"] > 1
        assert len(calls) == info["krylov_iters"]
        grid = PolarGrid(0.9, 24, 32)
        h = u_max(grid.rim_nodes())
        gf, _ = solve_dirichlet(grid, (), h)
        calls.clear()
        _, info = solve_dirichlet(grid, (), h, start=gf.interior_values())
        assert info["newton_iters"] == 0 and calls == []

    def test_no_stencil_inside_gmres(self, monkeypatch):
        # GMRES applies J P^-1 v as v - e * P^-1 v, so every stencil is a
        # residual's Laplacian or a scaled error's row scale: the count does
        # not grow with the GMRES iterations
        stencils, owned = [], []
        stencil = gce._stencil
        laplacian, scaled_error = gce._SmoothSystem.laplacian, gce._SmoothSystem.scaled_error
        monkeypatch.setattr(gce, "_stencil", lambda *a, **k: stencils.append(1) or stencil(*a, **k))
        monkeypatch.setattr(gce._SmoothSystem, "laplacian", lambda *a: owned.append(1) or laplacian(*a))
        monkeypatch.setattr(
            gce._SmoothSystem, "scaled_error", lambda *a: owned.append(1) or scaled_error(*a)
        )
        sub = gce._plus_log_inner(maximal_field(), DiskMeasure(interior=[(0j, 1.0)]))
        for solve in (lambda: solve_dirichlet(*spiky_problem()), lambda: perron_hull_r(sub, 0.9375, 48, 96)):
            stencils.clear()
            owned.clear()
            _, info = solve()
            assert info["krylov_iters"] > info["newton_iters"] > 1
            assert len(stencils) == len(owned)

    @pytest.mark.parametrize("radius,n_r,n_theta", GRIDS)
    def test_apply_is_jacobian_after_preconditioner(self, monkeypatch, radius, n_r, n_theta):
        # at every correction, with d = 2 source(w) constant on no ring and
        # the factor lagged at the first correction's d, the apply handed to
        # GMRES writes the preconditioner's output into z, bit for bit, and
        # returns J z for the current J = L - diag(d)
        grid = PolarGrid(radius, n_r, n_theta)
        rng = np.random.default_rng(n_r * n_theta)
        system = gce._SmoothSystem(grid, (), np.zeros(n_theta))
        L = loop_laplacian(grid)[0]
        sources, factors, checked = [], [], []
        source, factor, gmres = gce._SmoothSystem.source, gce._polar_preconditioner, gce._gmres

        def recorded_source(system, w):
            sources.append(source(system, w))
            return sources[-1]

        def recorded_factor(grid, d):
            factors.append(factor(grid, d))
            return factors[-1]

        def checked_gmres(apply, b, rtol):
            d = 2.0 * sources[-1]
            assert np.all(np.ptp(d[1:].reshape(n_r - 1, n_theta), axis=1) > 0.0)
            ((solve, _),) = factors
            v = rng.standard_normal(b.size)
            z, want_z = np.empty_like(v), np.empty_like(v)
            got = apply(v, z)
            assert np.array_equal(z, solve(v, want_z))
            want = (L - sp.diags(d)) @ z
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            checked.append(1)
            return gmres(apply, b, rtol)

        monkeypatch.setattr(gce._SmoothSystem, "source", recorded_source)
        monkeypatch.setattr(gce, "_polar_preconditioner", recorded_factor)
        monkeypatch.setattr(gce, "_gmres", checked_gmres)
        _, info = gce._newton_solve(system, rng.uniform(-1.0, 1.0, grid.interior_count()))
        assert len(checked) == info["newton_iters"] > 1

    def test_clamped_source_is_not_a_solution(self):
        # with w = 1e140 the source 4 e^{2 min(w, 150)} is clamped, and the
        # scaled residual, against a row scale near |L| 1e140, reads 7.5e-14;
        # the true solution lies below the maximal one, u(0) <= log(1/0.9)
        with pytest.raises(NewtonError, match=r"^PolarGrid\(R=0\.9, 64x128\): .* > 150 at a node with q > 0"):
            solve_dirichlet(PolarGrid(0.9, 64, 128), (), np.full(128, 1e140))

    def test_newton_error_names_grid_and_residual(self, monkeypatch):
        monkeypatch.setattr(gce, "NEWTON_MAX_ITER", 1)
        with pytest.raises(NewtonError, match=r"^PolarGrid\(R=0\.9, 24x32\): .*scaled residual \d"):
            solve_dirichlet(*spiky_problem())


class TestGmres:
    """gce._gmres, the right-preconditioned GMRES of each Newton correction."""

    @staticmethod
    def problem(ring_constant):
        grid = PolarGrid(0.9, 24, 32)
        rng = np.random.default_rng(7)
        if ring_constant:
            d = np.concatenate([[3.0], np.repeat(rng.uniform(0.0, 500.0, 23), 32)])
        else:
            d = rng.uniform(0.0, 500.0, grid.interior_count())
        J = loop_laplacian(grid)[0] - sp.diags(d)
        return grid, d, J, rng.standard_normal(grid.interior_count())

    def test_exact_preconditioner_converges_in_one_iteration(self):
        grid, d, J, b = self.problem(ring_constant=True)
        solve, _ = gce._polar_preconditioner(grid, d)
        x, iters = gce._gmres(lambda v, z: J @ solve(v, z), b, 1e-10)
        assert iters == 1
        assert np.linalg.norm(b - J @ x) <= 1e-10 * np.linalg.norm(b)

    @pytest.mark.parametrize("rtol", [1e-2, 1e-6, 1e-10, 1e-12])
    def test_true_residual_meets_rtol(self, rtol):
        grid, d, J, b = self.problem(ring_constant=False)
        solve, _ = gce._polar_preconditioner(grid, d)
        x, iters = gce._gmres(lambda v, z: J @ solve(v, z), b, rtol)
        assert 1 < iters < gce.KRYLOV_RESTART
        assert np.linalg.norm(b - J @ x) <= rtol * np.linalg.norm(b)

    def test_stops_after_krylov_restart_iterations(self):
        # without a preconditioner the budget runs out; the iterate still
        # lowers the residual, and the line search takes what it gives
        _, _, J, b = self.problem(ring_constant=False)
        def unpreconditioned(v, z):
            z[:] = v
            return J @ z

        x, iters = gce._gmres(unpreconditioned, b, 1e-10)
        assert iters == gce.KRYLOV_RESTART
        assert np.linalg.norm(b - J @ x) < 0.1 * np.linalg.norm(b)

    def test_zero_right_side(self):
        grid, d, J, b = self.problem(ring_constant=False)
        solve, _ = gce._polar_preconditioner(grid, d)
        with np.errstate(all="raise"):
            x, iters = gce._gmres(lambda v, z: J @ solve(v, z), np.zeros_like(b), 1e-6)
        assert iters == 0 and x.shape == b.shape and not x.any()


class TestSubsolutionStart:
    """perron_hull_r starts Newton at the subsolution; start=None at the
    harmonic extension of the rim data, as gce-dirichlet does."""

    @staticmethod
    def delta0_rungs():
        # (subsolution start, harmonic start) solves per rung of the delta_0 ladder
        sub = gce._plus_log_inner(maximal_field(), DiskMeasure(interior=[(0j, 1.0)]))
        for k in range(2, 8):
            r = 1.0 - 2.0 ** -k
            grid = PolarGrid(r, 48, 96)
            harmonic = solve_dirichlet(grid, sub.atoms, gce._cell_averaged_boundary(sub, grid))
            yield perron_hull_r(sub, r, 48, 96), harmonic

    def test_fewer_newton_steps_on_delta0_ladder(self):
        steps = [
            (info["newton_iters"], h_info["newton_iters"])
            for (_, info), (_, h_info) in self.delta0_rungs()
        ]
        assert all(sub <= harm for sub, harm in steps), steps
        assert steps[-1][0] < steps[-1][1], steps

    def test_same_solution_at_tight_tolerance(self, monkeypatch):
        monkeypatch.setattr(gce, "NEWTON_TOL", 1e-12)
        probes = gce._probe_points(r_max=0.7)
        for (hull, info), (harm, h_info) in self.delta0_rungs():
            assert max(info["residual"], h_info["residual"]) <= 1e-12
            assert float(np.max(np.abs(hull(probes) - harm(probes)))) <= 1e-9

    @pytest.mark.parametrize("shape", [(1,), (24, 32), (1 + 23 * 32 + 1,)])
    def test_start_of_wrong_shape_rejected(self, shape):
        grid, atoms, h = spiky_problem()
        with pytest.raises(ValueError, match="one value per interior node"):
            solve_dirichlet(grid, atoms, h, start=np.zeros(shape))


class TestRungContinuation:
    """A ladder rung starts Newton at the previous rung's hull inside its
    disk (perron_hull_r(..., previous=)) and at the subsolution outside."""

    @staticmethod
    def delta0_rungs():
        # (continued start, subsolution start) solves per rung of the delta_0 ladder
        sub = gce._plus_log_inner(maximal_field(), DiskMeasure(interior=[(0j, 1.0)]))
        previous = None
        for k in range(2, 8):
            r = 1.0 - 2.0 ** -k
            continued = perron_hull_r(sub, r, 48, 96, previous=previous)
            yield continued, perron_hull_r(sub, r, 48, 96)
            previous = continued[0]

    def test_no_more_newton_steps_than_subsolution_start(self):
        steps = [
            (info["newton_iters"], s_info["newton_iters"])
            for (_, info), (_, s_info) in self.delta0_rungs()
        ]
        assert all(cont <= sub for cont, sub in steps), steps
        assert sum(cont for cont, _ in steps) < sum(sub for _, sub in steps), steps

    def test_same_solution_at_tight_tolerance(self, monkeypatch):
        monkeypatch.setattr(gce, "NEWTON_TOL", 1e-12)
        probes = gce._probe_points(r_max=0.7)
        for (hull, info), (ref, s_info) in self.delta0_rungs():
            assert max(info["residual"], s_info["residual"]) <= 1e-12
            assert float(np.max(np.abs(hull(probes) - ref(probes)))) <= 1e-9

    def test_sub_evaluated_only_outside_the_previous_disk(self):
        # inside the previous disk the start is the previous hull, so no
        # evaluation of sub.smooth, at the rim or the interior, reaches there
        sub = gce._plus_log_inner(maximal_field(), DiskMeasure(interior=[(0j, 1.0)]))
        previous, _ = perron_hull_r(sub, 0.75, 48, 96)
        seen = []

        def recorded(z):
            seen.append(np.abs(np.asarray(z)).ravel())
            return sub.smooth(z)

        perron_hull_r(AnalyticField(recorded, sub.atoms), 0.875, 48, 96, previous=previous)
        radii = np.concatenate(seen)
        assert radii.min() >= previous.grid.radius
        assert radii.min() < 0.875  # the interior nodes outside the previous disk

    @pytest.mark.parametrize(
        "radius,n_theta",
        [(0.75, 64), (0.875, 96), (0.9375, 96)],
        ids=["other-n_theta", "same-radius", "larger-radius"],
    )
    def test_mismatched_previous_rejected(self, radius, n_theta):
        previous = GridFunction(PolarGrid(radius, 16, n_theta), 0.0, np.zeros((16, n_theta)))
        sub = gce._plus_log_inner(maximal_field(), DiskMeasure(interior=[(0j, 1.0)]))
        with pytest.raises(ValueError, match="same n_theta and a smaller radius"):
            perron_hull_r(sub, 0.875, 48, 96, previous=previous)

    def test_ladder_passes_each_hull_to_the_next_rung(self, monkeypatch):
        seen = []
        hull = gce.perron_hull_r

        def recorded(*args, **kwargs):
            out = hull(*args, **kwargs)
            seen.append((kwargs.get("previous"), out[0]))
            return out

        monkeypatch.setattr(gce, "perron_hull_r", recorded)
        nearly_maximal(DiskMeasure(interior=[(0j, 1.0)]), ladder=(2, 3, 4), n_r=24, n_theta=32, stop_tol=1e-4)
        assert [prev for prev, _ in seen] == [None] + [gf for _, gf in seen[:-1]]


def fitpack_reference(gf):
    """FITPACK's not-a-knot bicubic of gf's smooth nodal values on the same
    padded nodes: the reference that GridFunction's own spline must match."""
    from scipy.interpolate import RectBivariateSpline  # innerlab itself never imports it

    grid, pad = gf.grid, gce.PAD
    t = np.arange(grid.n_r + 1) / grid.n_r
    theta = np.concatenate([grid.theta[-pad:] - TAU, grid.theta, grid.theta[:pad] + TAU])
    vals = np.vstack([np.full(grid.n_theta, gf.center), gf.rings])
    return RectBivariateSpline(t, theta, np.hstack([vals[:, -pad:], vals, vals[:, :pad]]), kx=3, ky=3)


class TestBicubic:
    """GridFunction's spline is FITPACK's bicubic to rounding on solved (smooth) fields."""

    @pytest.fixture(scope="class", params=[(24, 32), (128, 256)], ids=["24x32", "128x256"])
    def field(self, request):
        n_r, n_theta = request.param
        grid = PolarGrid(0.9, n_r, n_theta)
        boundary = u_max(grid.rim_nodes()) + np.cos(3.0 * grid.theta)
        return solve_dirichlet(grid, [(0.3 + 0.2j, 0.5)], boundary)[0]

    def test_scattered_points_match_fitpack(self, field):
        R = field.grid.radius
        rng = np.random.default_rng(0)
        below_2pi = np.exp(-1e-9j)  # theta = 2 pi - 1e-9
        special = np.array([0j, R, -R, 1j * R, R * below_2pi, 0.5 * R, 0.5 * R * below_2pi])
        z = np.concatenate([special, R * np.sqrt(rng.random(4000)) * np.exp(TAU * 1j * rng.random(4000))])
        t = 1.0 - np.sqrt(1.0 - np.abs(z) / R)
        expected = fitpack_reference(field)(t, np.angle(z) % TAU, grid=False)
        np.testing.assert_allclose(field.smooth(z), expected, rtol=0.0, atol=1e-13)
        assert field._coefficients() is field._coefficients()  # fitted once

    def test_continued_start_matches_fitpack(self, field):
        grid = PolarGrid(0.95, field.grid.n_r, field.grid.n_theta)
        rho = grid.rho[grid.rho < field.grid.radius]
        expected = fitpack_reference(field)(1.0 - np.sqrt(1.0 - rho / field.grid.radius), grid.theta)
        start = gce._continued_start(field, grid)
        assert start[0] == field.center
        np.testing.assert_allclose(start[1:], expected.ravel(), rtol=0.0, atol=1e-13)


class TestHarmonicExtension:
    def test_constant(self):
        grid = PolarGrid(0.9, 16, 32)
        gf = harmonic_extension(np.full(32, 2.5), grid)
        assert gf.center == pytest.approx(2.5, abs=1e-14)
        assert np.allclose(gf.rings, 2.5, atol=1e-13)

    def test_harmonic_polynomial(self):
        grid = PolarGrid(1.0, 16, 32)
        gf = harmonic_extension(np.cos(grid.theta), grid)
        assert np.allclose(gf.rings, grid.ring_nodes().real, atol=1e-12)

    def test_poisson_kernel_data(self):
        # P(., zeta) is harmonic on D: its trace on dD_0.7 extends back to it
        grid = PolarGrid(0.7, 24, 256)
        zeta_ang = 1.3
        h = poisson(0.7 * np.exp(1j * grid.theta), zeta_ang)
        gf = harmonic_extension(h, grid)
        probes = 0.5 * np.exp(1j * np.linspace(0, TAU, 7))
        want = poisson(probes, zeta_ang)
        assert np.allclose(gf(probes), want, rtol=1e-6)

    def test_max_principle_smooth_data(self):
        grid = PolarGrid(0.8, 16, 64)
        h = 1.0 + 0.3 * np.sin(2 * grid.theta) + 0.1 * np.cos(5 * grid.theta)
        gf = harmonic_extension(h, grid)
        assert gf.rings.max() <= h.max() + 1e-12
        assert gf.rings.min() >= h.min() - 1e-12


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.nan)], ids=["re", "im"])
def test_nan_point_rejected(z):
    gf = harmonic_extension(np.zeros(8), PolarGrid(0.9, 8, 8))
    res = nearly_maximal(DiskMeasure(), ladder=(2, 3), n_r=8, n_theta=8, stop_tol=1e-4)
    for field in (gf, res):
        with pytest.raises(ValueError, match="point outside the grid disk"):
            field(z)


class TestGreenPotential:
    """The singular part s = sum mt G(., a), (1/2pi) per unit mass, on a grid."""

    def test_mass_2pi_at_origin(self):
        grid = PolarGrid(1.0, 24, 48)
        vals = gce._singular_part([(0j, TAU)], grid.ring_nodes()) / TAU
        assert np.allclose(vals[:, 0], np.log(1.0 / grid.rho), atol=1e-12)
        assert float(np.max(np.abs(vals[-1]))) == pytest.approx(0.0, abs=1e-12)

    def test_discrete_laplacian_residual_shrinks(self):
        # the five-point Laplacian of the potential, away from its atom
        atoms, vals = [(0.2 + 0.3j, 1.5)], []
        for n_r, n_t in ((48, 96), (96, 192)):
            grid = PolarGrid(1.0, n_r, n_t)
            pos = grid.interior_nodes()
            rim = gce._singular_part(atoms, grid.ring_nodes()[-1]) / TAU
            resid = gce._SmoothSystem(grid, (), rim).laplacian(gce._singular_part(atoms, pos) / TAU)
            far = np.abs(pos - atoms[0][0]) > max(0.2, 8.0 * grid.radius / grid.n_r)
            vals.append(float(np.max(np.abs(resid[far]))))
        assert vals[1] < vals[0] / 2
        assert vals[1] < 0.1


class TestDirichlet:
    @pytest.mark.parametrize("boundary", [0.5, np.zeros(7), np.zeros((2, 8))])
    def test_boundary_must_sample_every_angle(self, boundary):
        with pytest.raises(ValueError, match="boundary data must sample every grid angle"):
            solve_dirichlet(PolarGrid(0.9, 8, 8), (), boundary)

    @pytest.mark.parametrize(
        "atom,message",
        [
            ((0.2, -1.0), "masses must be positive and finite"),
            ((0.2, 0.0), "masses must be positive and finite"),
            ((0.2, math.nan), "masses must be positive and finite"),
            ((0.2, math.inf), "masses must be positive and finite"),
            ((complex(math.nan, 0.0), 1.0), r"need \|a\| < 1"),
            ((1.0, 1.0), r"need \|a\| < 1"),
        ],
        ids=["negative-mass", "zero-mass", "nan-mass", "inf-mass", "nan-position", "on-circle"],
    )
    def test_atoms_validated_as_a_measure(self, atom, message):
        # q = e^{-2s} lies in [0, 1] only for positive masses; a negative one
        # would solve another equation, a NaN fail as if on a boundary node
        with pytest.raises(ValueError, match=message):
            solve_dirichlet(PolarGrid(0.9, 16, 16), (atom,), np.zeros(16))

    def test_reproduces_maximal_solution(self):
        grid = PolarGrid(0.9, 64, 128)
        h = u_max(0.9 * np.exp(1j * grid.theta))
        gf, info = solve_dirichlet(grid, (), h)
        c, rings = gf.total_nodes()
        err = max(
            abs(c - u_max(0j)), float(np.max(np.abs(rings - u_max(grid.ring_nodes()))))
        )
        assert err < 1.5e-4
        assert info["newton_iters"] < 15
        assert gf.center == pytest.approx(0.0, abs=1.5e-4)
        assert gf(0.5) == pytest.approx(-math.log(0.75), abs=1.5e-4)

    def test_refinement_reduces_error(self):
        errs = []
        for n_r, n_t in ((32, 64), (64, 128)):
            grid = PolarGrid(0.9, n_r, n_t)
            h = u_max(0.9 * np.exp(1j * grid.theta))
            gf, _ = solve_dirichlet(grid, (), h)
            _, rings = gf.total_nodes()
            errs.append(float(np.max(np.abs(rings - u_max(grid.ring_nodes())))))
        assert errs[0] / errs[1] >= 1.5

    def test_liouville_atom_case(self):
        # nu = delta_0, boundary from the z^2 pullback: solution matches it
        orc = monomial_pullback(2)
        grid = PolarGrid(0.9, 64, 128)
        h = orc(0.9 * np.exp(1j * grid.theta))
        gf, info = solve_dirichlet(grid, ((0j, 1.0),), h)
        _, rings = gf.total_nodes()
        assert float(np.max(np.abs(rings - orc(grid.ring_nodes())))) < 5e-4
        assert info["flagged_nodes"] == 1  # the center node sits on the atom
        assert pde_residual(gf) < 1e-9

    def test_monotone_in_data(self):
        grid = PolarGrid(0.9, 32, 64)
        h = u_max(0.9 * np.exp(1j * grid.theta))
        lo, _ = solve_dirichlet(grid, ((0.2, 0.5),), h - 0.3)
        hi, _ = solve_dirichlet(grid, (), h)
        c_lo, r_lo = lo.total_nodes()
        c_hi, r_hi = hi.total_nodes()
        mask = np.isfinite(r_lo)
        assert c_lo <= c_hi + 1e-10
        assert np.all(r_lo[mask] <= r_hi[mask] + 1e-10)


class TestPerron:
    def test_fixes_solutions(self):
        hull, _ = perron_hull_r(maximal_field(), 0.9, 48, 96)
        _, rings = hull.total_nodes()
        assert float(np.max(np.abs(rings - u_max(hull.grid.ring_nodes())))) < 3e-4

    def test_dominates_subsolution_and_monotone_in_r(self):
        om = DiskMeasure(interior=[(0j, 1.0)])
        sub = AnalyticField(u_max, atoms=om.interior)  # u_D + log|z|
        probes = 0.5 * np.exp(1j * np.linspace(0, TAU, 8))
        vals = []
        for r in (0.75, 0.875, 0.9375):
            hull, _ = perron_hull_r(sub, r, 48, 96)
            assert np.all(hull(probes) >= sub(probes) - 1e-10)
            vals.append(hull(probes))
        assert np.all(vals[1] >= vals[0] - 1e-8)
        assert np.all(vals[2] >= vals[1] - 1e-8)

    def test_hull_approaches_liouville_limit(self):
        om = DiskMeasure(interior=[(0j, 1.0)])
        sub = AnalyticField(u_max, atoms=om.interior)
        orc = monomial_pullback(2)
        probes = np.array([0.3, 0.5 * np.exp(1.7j), 0.6j])
        errs = []
        for r in (0.875, 0.96875, 0.9921875):
            hull, _ = perron_hull_r(sub, r, 64, 128)
            errs.append(float(np.max(np.abs(hull(probes) - orc(probes)))))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 1e-3

    def test_rim_evaluation_memory_bounded(self):
        # rung 10 at 80x256 supersamples 101 points per cell: one evaluation
        # of those 25,856 rim points against 64 boundary atoms peaked at 40.8 MB
        sub = gce._plus_log_inner(maximal_field(), diffuse_family(64, 10.0))
        grid = PolarGrid(1.0 - 2.0 ** -10, 80, 256)
        tracemalloc.start()
        try:
            h = gce._cell_averaged_boundary(sub, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        dth = TAU / grid.n_theta
        fine = grid.theta[:, None] + ((np.arange(101) + 0.5) / 101 - 0.5) * dth
        one_shot = sub(grid.radius * np.exp(1j * fine)).mean(axis=1)
        np.testing.assert_allclose(h, one_shot, rtol=1e-13)


class TestNearlyMaximal:
    def test_zero_measure_gives_maximal(self):
        res = nearly_maximal(DiskMeasure(), ladder=(2, 3, 4), n_r=32, n_theta=64, stop_tol=1e-4)
        probes = 0.6 * np.exp(1j * np.linspace(0, TAU, 9))
        assert np.allclose(res(probes, extrapolate=False), u_max(probes), atol=1e-3)

    def test_liouville_oracle_small_grid(self):
        om = DiskMeasure(interior=[(0j, 1.0)])
        res = nearly_maximal(om, ladder=(2, 3, 4, 5, 6), n_r=64, n_theta=128, stop_tol=0.0)
        orc = monomial_pullback(2)
        probes = np.concatenate(
            [r * np.exp(1j * np.linspace(0, TAU, 16, endpoint=False)) for r in (0.1, 0.4, 0.8)]
        )
        assert float(np.max(np.abs(res(probes) - orc(probes)))) < 1e-3

    def test_deficiency_tends_to_boundary_mass(self):
        om = DiskMeasure(boundary=[(0.0, 1.0)])
        res = nearly_maximal(om, ladder=(2, 3, 4, 5, 6, 7), n_r=48, n_theta=128, stop_tol=0.0)
        assert res.deficiency[-1] == pytest.approx(1.0, abs=5e-3)
        assert res.deficiency == sorted(res.deficiency)

    def test_maximality_bound(self):
        om = DiskMeasure(interior=[(0.3, 0.7)], boundary=[(2.0, 0.5)])
        res = nearly_maximal(om, ladder=(2, 3, 4, 5), n_r=48, n_theta=96, stop_tol=0.0)
        c, rings = res.solution.total_nodes()
        ud = u_max(res.solution.grid.ring_nodes())
        mask = np.isfinite(rings)
        assert np.all(rings[mask] <= ud[mask] + 1e-6)
        assert c <= u_max(0j) + 1e-6

    def test_residual_contract(self):
        om = DiskMeasure(interior=[(0.4j, 1.0)])
        res = nearly_maximal(om, ladder=(2, 3, 4), n_r=32, n_theta=64, stop_tol=1e-4)
        assert pde_residual(res.solution) < 1e-9


class TestLadder:
    @pytest.mark.parametrize("ladder", [[5, 2], [3, 3], [3, 4, 2]])
    @pytest.mark.parametrize(
        "run",
        [lambda ladder: nearly_maximal(DiskMeasure(), ladder=ladder, n_r=8, n_theta=8, stop_tol=1e-4),
         lambda ladder: check_fund3(DiskMeasure(), DiskMeasure(), ladder=ladder, n_r=8, n_theta=8)],
        ids=["nearly_maximal", "check_fund3"],
    )
    def test_non_increasing_ladder_rejected_before_any_solve(self, monkeypatch, run, ladder):
        def no_solve(*args, **kwargs):
            raise AssertionError("a rung was solved")

        monkeypatch.setattr(gce, "perron_hull_r", no_solve)
        with pytest.raises(ValueError, match="ladder rungs must strictly increase"):
            run(ladder)


class TestRadial:
    def test_matches_maximal_profile(self):
        rho, us = radial_solution(0.8, float(u_max(0.8)), n_steps=2048)
        assert float(np.max(np.abs(us - u_max(rho)))) < 1e-10

    def test_below_maximal_for_lower_boundary(self):
        rho, us = radial_solution(0.8, float(u_max(0.8)) - 1.0, n_steps=1024)
        assert np.all(us <= u_max(rho) + 1e-12)
        assert us[0] < 0.0

    def test_monotone_in_boundary_value(self):
        rho, u1 = radial_solution(0.8, 0.0, n_steps=1024)
        _, u2 = radial_solution(0.8, 1.0, n_steps=1024)
        assert np.all(u1 <= u2 + 1e-12)

    def test_center_value_tends_to_zero_along_ladder(self):
        vals = []
        for k in (2, 3, 4, 5, 6):
            r = 1.0 - 2.0 ** (-k)
            c = 0.8 * float(u_max(r))
            _, us = radial_solution(r, c, n_steps=2048)
            vals.append(abs(us[0]))
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 0.05

    def test_lower_bound_for_layered_measure(self):
        # thin spread layer with tiny c: its solution sits above the
        # (4/5)-profile radial solution on the inner disk
        c = 0.01
        n = 16
        thr = (c / n) * math.log(n)
        om = DiskMeasure(boundary=[(TAU * (k + 0.5) / n, thr) for k in range(n)])
        res = nearly_maximal(om, ladder=(2, 3, 4, 5), n_r=48, n_theta=96, stop_tol=0.0)
        r0 = 0.75
        _, us = radial_solution(r0, 0.8 * float(u_max(r0)), n_steps=1024)
        rad_at = lambda rr: float(np.interp(rr, *radial_solution(r0, 0.8 * float(u_max(r0)), 1024)))
        for rr in (0.0, 0.2, 0.4, 0.6):
            z = rr * np.exp(0.37j)
            assert float(res(z, extrapolate=False)) > rad_at(rr)


class TestLiouvillePullback:
    """liouville_density, the pullback log-density, at a grid's ring nodes."""

    def test_identity_map(self):
        z = PolarGrid(0.9, 16, 32).ring_nodes()
        assert np.allclose(liouville_density(InnerFunctionRep([(0j, 1)]))(z), u_max(z), atol=1e-12)

    def test_square_value(self):
        fn = liouville_density(InnerFunctionRep([(0j, 2)]))
        assert fn(0.5) == pytest.approx(math.log(1.0 / (1 - 0.0625)) , abs=1e-12)
        assert fn(0.5) == pytest.approx(0.06453852113757118, abs=1e-10)

    def test_mobius_invariance(self):
        z = PolarGrid(0.8, 12, 24).ring_nodes()
        f = InnerFunctionRep([(0.3 - 0.2j, 1)], rotation=np.exp(0.7j))
        assert np.allclose(liouville_density(f)(z), u_max(z), atol=1e-12)

    def test_critical_node_flagged(self):
        # F'(0) = 0 at the critical point 0 of z^3
        assert liouville_density(InnerFunctionRep([(0j, 3)]))(0j) == -math.inf


class TestFund3:
    def test_short_right_route_rejected_before_any_solve(self, monkeypatch):
        # the right side stops at the second-to-last rung, 1 - 2^-k, and is
        # probed out to |z| = 0.8: k = 2 (r = 0.75) falls short, k = 3 reaches
        class Solved(Exception):
            pass

        def no_solve(*args, **kwargs):
            raise Solved

        monkeypatch.setattr(gce, "nearly_maximal", no_solve)
        with pytest.raises(ValueError, match="second-to-last"):
            check_fund3(DiskMeasure(), DiskMeasure(), ladder=[2, 3], n_r=8, n_theta=8)
        with pytest.raises(Solved):
            check_fund3(DiskMeasure(), DiskMeasure(), ladder=[3, 4], n_r=8, n_theta=8)

    def test_zero_second_measure(self):
        om1 = DiskMeasure(interior=[(0.3, 0.5)])
        rep = check_fund3(om1, DiskMeasure(), ladder=(2, 3, 4, 5, 6), n_r=48, n_theta=96)
        assert rep["sup_difference"] < 5e-3

    def test_split_origin_atom_matches_square_pullback(self):
        half = DiskMeasure(interior=[(0j, 0.5)])
        rep = check_fund3(half, half, ladder=(2, 3, 4, 5, 6), n_r=48, n_theta=96)
        assert rep["sup_difference"] < 5e-3
        orc = monomial_pullback(2)
        probes = np.array([0.3, 0.5j, -0.6])
        assert np.allclose(rep["lhs"](probes), orc(probes), atol=2e-3)

    def test_random_interior_pair(self):
        om1 = DiskMeasure(interior=[(0.25 + 0.35j, 0.6), (-0.3, 0.4)])
        om2 = DiskMeasure(interior=[(0.1 - 0.5j, 0.8)])
        rep = check_fund3(om1, om2, ladder=(2, 3, 4, 5, 6, 7), n_r=48, n_theta=96)
        assert rep["sup_difference"] < 5e-3


class TestDiffuseExperiment:
    def test_table_shape_and_unsolvable_rows(self):
        rows = diffuse_experiment(
            [8, 64], [10.0], ladder=(2, 3, 4), n_r=32, n_theta=128
        )
        by_n = {r[0]: r for r in rows}
        assert by_n[8][5] == "theta-unsolvable"
        assert math.isnan(by_n[8][2])
        assert by_n[64][5] == "ok"
        assert by_n[64][3] < 0.0  # u(0) < u_D(0) = 0


class TestDiffuseScaling:
    def test_single_atom_row_matches_direct_solve(self):
        # n = 1: the family is one unit atom; the experiment row reproduces
        # a direct solve of the same measure
        rows = diffuse_experiment([1], [0.2], ladder=(2, 3, 4), n_r=24, n_theta=64)
        (n, big_m, th, u0, gap, status), = rows
        assert status == "ok"
        om = diffuse_family(1, 0.2)
        res = nearly_maximal(om, ladder=(2, 3, 4), n_r=24, n_theta=64, stop_tol=0.0)
        assert u0 == pytest.approx(float(res(0j, extrapolate=False)), abs=1e-12)

    def test_scaled_down_measure_sits_closer_to_maximal(self):
        om = diffuse_family(32, 10.0)
        full = nearly_maximal(om, ladder=(2, 3, 4, 5), n_r=40, n_theta=128, stop_tol=0.0)
        half_om = DiskMeasure(boundary=[(t, 0.5 * m) for t, m in om.boundary])
        half = nearly_maximal(half_om, ladder=(2, 3, 4, 5), n_r=40, n_theta=128, stop_tol=0.0)
        g_full = abs(float(full(0j, extrapolate=False)))
        g_half = abs(float(half(0j, extrapolate=False)))
        assert g_half < g_full


def test_refinement_convergence_on_singular_case():
    # halving the mesh reduces the pullback-oracle error by the scheme order
    errs = []
    for n_r, n_t in ((32, 64), (64, 128)):
        grid = PolarGrid(0.9, n_r, n_t)
        orc = monomial_pullback(2)
        h = orc(0.9 * np.exp(1j * grid.theta))
        gf, _ = solve_dirichlet(grid, ((0j, 1.0),), h)
        _, rings = gf.total_nodes()
        errs.append(float(np.max(np.abs(rings - orc(grid.ring_nodes())))))
    assert errs[0] / errs[1] >= 1.5
