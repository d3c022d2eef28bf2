"""Simultaneous-iteration polynomial root finding (Aberth-Ehrlich).

Coefficients are ascending: p(z) = c[0] + c[1] z + ... + c[n] z^n.
Exact zero roots are stripped before iterating; convergence is declared
through the backward-stable residual |p(z)| <= tol * sum |c_k| |z|^k.
Stagnating configurations restart from a deterministically seeded random
perturbation.

Multiplicity detection clusters converged approximants at radius 1e-7.
That recovers exact-coefficient multiplicities (which arrive here as
stripped zeros or exactly repeated factors); approximants of an
inexactly-multiple root of order m scatter like residual^(1/m) and are
reported as a nearby simple cluster, which downstream multiplicity-
agnostic sums (entropy, Green sums) absorb with no loss.
"""

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval

RESIDUAL_TOL = 1e-12
CLUSTER_RADIUS = 1e-7
MAX_ITER = 400


class RootFindingError(RuntimeError):
    pass


def _poly_val_and_scale(c, z):
    """Horner value and the backward-error scale sum |c_k| |z|^k."""
    v = np.zeros_like(z)
    s = np.zeros(z.shape, dtype=np.float64)
    az = np.abs(z)
    for k in range(len(c) - 1, -1, -1):
        v = v * z + c[k]
        s = s * az + abs(c[k])
    return v, s


def all_roots(coeffs) -> np.ndarray:
    """All complex roots of the polynomial, multiplicities repeated."""
    c = np.asarray(coeffs, dtype=np.complex128)
    if c.size == 0 or not np.any(c != 0):
        raise ValueError("zero polynomial has no well-defined roots")
    # strip exact leading zeros (high order) and trailing zeros (roots at 0)
    hi = c.size - 1
    while hi > 0 and c[hi] == 0:
        hi -= 1
    c = c[: hi + 1]
    lo = 0
    while lo < c.size - 1 and c[lo] == 0:
        lo += 1
    zero_roots = np.zeros(lo, dtype=np.complex128)
    c = c[lo:]
    n = c.size - 1
    if n == 0:
        return zero_roots
    if n == 1:
        return np.concatenate([zero_roots, [-c[0] / c[1]]])

    c = c / np.max(np.abs(c))
    dc = polyder(c)
    # Cauchy-style initial radius, slightly irrational phase offset
    radius = 1.0 + np.max(np.abs(c[:-1] / c[-1])) ** (1.0 / n)
    rng = np.random.default_rng(0x5EED)
    z = radius * np.exp(1j * (2 * np.pi * np.arange(n) / n + 0.376))

    last = np.inf
    for it in range(MAX_ITER):
        pv, scale = _poly_val_and_scale(c, z)
        res = np.abs(pv) / np.maximum(scale, 1e-300)
        worst = float(res.max())
        if worst <= RESIDUAL_TOL:
            break
        dv = polyval(z, dc)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.where(dv != 0, pv / dv, 0.0)
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, np.inf)
            sums = (1.0 / diff).sum(axis=1)
            corr = w / (1.0 - w * sums)
        corr = np.where(np.isfinite(corr), corr, 0.1 * radius * np.exp(1j * it))
        z = z - corr
        if it % 25 == 24:
            if worst > 0.5 * last:  # stagnation: deterministic random restart
                z = z + 0.05 * radius * (
                    rng.standard_normal(n) + 1j * rng.standard_normal(n)
                )
            last = worst
    else:
        raise RootFindingError(
            f"Aberth iteration did not reach residual {RESIDUAL_TOL} in {MAX_ITER} steps"
        )
    return np.concatenate([zero_roots, z])


def cluster_roots(roots):
    """Greedy clustering into (centroid, multiplicity) pairs."""
    roots = sorted(roots, key=lambda w: (round(w.real, 12), round(w.imag, 12)))
    out = []
    for r in roots:
        for i, (ctr, mult) in enumerate(out):
            if abs(r - ctr) <= CLUSTER_RADIUS:
                out[i] = ((ctr * mult + r) / (mult + 1), mult + 1)
                break
        else:
            out.append((r, 1))
    return out
