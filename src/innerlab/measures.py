"""Atomic positive measures on the closed disk.

A DiskMeasure carries interior atoms (a, mt) with |a| < 1 — the measure
nu-tilde — and boundary atoms (angle, m) — the measure mu. The combined
finite measure on the closed disk weights interior atoms by (1-|a|)*mt
("blaschke mass"), the weighting under which Roberts decompositions
operate.
"""

import math
import sys

import numpy as np

from . import kernels
from .bc_sets import BCSet, _norm_angle


class ThetaUnsolvableError(ValueError):
    """n*theta*log(1/theta) = M has no root in (0, 1/e) when M >= n/e."""


class DiskMeasure:
    """Finite positive atomic measure, interior + boundary parts."""

    __slots__ = ("interior", "boundary")

    def __init__(self, interior=(), boundary=()):
        by_loc = {}
        for a, m in interior:
            a = complex(a)
            # NaN fails every comparison: ask for what must hold
            if not abs(a) < 1.0:
                raise ValueError(f"interior atom at |a| = {abs(a)}, need |a| < 1")
            if not 0.0 < m < math.inf:
                raise ValueError("masses must be positive and finite")
            by_loc[a] = by_loc.get(a, 0.0) + float(m)
        self.interior = tuple(sorted(by_loc.items(), key=lambda t: (t[0].real, t[0].imag)))
        by_ang = {}
        for ang, m in boundary:
            if not (math.isfinite(float(ang)) and 0.0 < m < math.inf):
                raise ValueError("boundary atoms need a finite angle and a positive finite mass")
            ang = _norm_angle(float(ang))
            by_ang[ang] = by_ang.get(ang, 0.0) + float(m)
        self.boundary = tuple(sorted(by_ang.items()))

    # -- masses -------------------------------------------------------------

    def blaschke_mass(self) -> float:
        """Mass of the combined measure: sum m + sum (1-|a|)*mt."""
        return math.fsum((1.0 - abs(a)) * m for a, m in self.interior) + math.fsum(
            m for _, m in self.boundary
        )

    @property
    def is_empty(self) -> bool:
        return not self.interior and not self.boundary

    def __add__(self, other: "DiskMeasure") -> "DiskMeasure":
        return DiskMeasure(
            list(self.interior) + list(other.interior),
            list(self.boundary) + list(other.boundary),
        )

    def __repr__(self):
        return (
            f"DiskMeasure({len(self.interior)} interior, "
            f"{len(self.boundary)} boundary, |omega|={self.blaschke_mass():.6g})"
        )


def max_star_mass(omega: DiskMeasure, budget: float, mode: str = "exact"):
    """Best boundary mass captured by a point set of entropy <= budget.

    Witness sets are built from subsets of the boundary-atom angles
    (adding non-atom points only spends entropy). Exact mode enumerates
    all subsets (<= 18 atoms); greedy adds atoms in decreasing-mass order
    while the budget permits. Returns (mass, witness BCSet or None).
    """
    if not budget >= 0.0:
        raise ValueError("entropy budget must be >= 0")
    atoms = omega.boundary
    if not atoms:
        return 0.0, None
    angles = np.array([t for t, _ in atoms])
    masses = np.array([m for _, m in atoms])
    if mode == "exact":
        if len(atoms) > 18:
            raise ValueError("exact mode supports at most 18 boundary atoms")
        best_mass, best_mask = kernels.subset_entropy_scan(angles, masses, budget)
        if best_mask == 0:
            return 0.0, None
        chosen = [angles[i] for i in range(len(atoms)) if (best_mask >> i) & 1]
        return float(best_mass), BCSet.from_points(chosen)
    if mode == "greedy":
        order = sorted(range(len(atoms)), key=lambda i: (-masses[i], angles[i]))
        chosen: list[float] = []
        got = 0.0
        for i in order:
            trial = chosen + [angles[i]]
            if BCSet.from_points(trial).entropy() <= budget + 1e-12:
                chosen = trial
                got += masses[i]
        if not chosen:
            return 0.0, None
        return got, BCSet.from_points(chosen)
    raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")


# ---------------------------------------------------------------------------
# the n-atom families with prescribed spread


def theta_for(n: int, big_m: float) -> float:
    """Solve n * theta * log(1/theta) = M for theta in (0, 1/e).

    The left side is increasing on (0, 1/e) with supremum n/e, so the
    equation is solvable iff M < n/e; otherwise ThetaUnsolvableError, or
    ValueError for a root below the smallest normal double (M < about
    n * 1.6e-305). Bisection to 1e-14 relative tolerance.
    """
    if not (n >= 1 and big_m > 0.0):
        raise ValueError("need n >= 1 and M > 0")
    emax = n / math.e
    if big_m >= emax:
        raise ThetaUnsolvableError(
            f"n*theta*log(1/theta) has supremum n/e = {emax:.6g} < M = {big_m}"
        )

    def f(t):
        return n * t * math.log(1.0 / t)

    lo, hi = sys.float_info.min, 1.0 / math.e
    if not f(lo) < big_m:
        raise ValueError(f"M = {big_m} puts theta below the smallest normal double")
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if f(mid) < big_m:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return 0.5 * (lo + hi)


def diffuse_family(n: int, big_m: float) -> DiskMeasure:
    """mu_{n,M}: n equal boundary atoms of mass 1/n at angles k*theta_n."""
    th = theta_for(n, big_m)
    return DiskMeasure(boundary=[(k * th, 1.0 / n) for k in range(1, n + 1)])
