"""Finite-entropy closed sets on the unit circle and their star geometry.

A set E is stored through its complementary open arcs ("gaps"); the
represented closed set is the circle minus the gap interiors. Arc
lengths are normalized to fractions of the circle, so every entropy
term ell*log(1/ell) is nonnegative. Euclidean (chord) distance is used
throughout for dist(., E).

The star of order alpha >= 1 and aperture theta in (0,1] over E is

    { z in closed disk : 1 - |z| >= theta * dist(z/|z|, E)^alpha },

optionally united with the core ball B(0, 1/sqrt(2)) (include_core).
"""

import math
from dataclasses import dataclass

import numpy as np

TAU = 2.0 * math.pi
CORE_RADIUS = 1.0 / math.sqrt(2.0)
_EPS = 1e-12


def _norm_angle(phi: float) -> float:
    phi = math.fmod(phi, TAU)
    if phi < 0.0:
        phi += TAU
    # fmod can return TAU-epsilon rounding up to TAU exactly
    return 0.0 if phi >= TAU else phi


def chord(delta: float) -> float:
    """Euclidean distance between circle points with angular separation delta."""
    d = abs(math.fmod(delta, TAU))
    if d > math.pi:
        d = TAU - d
    return 2.0 * math.sin(0.5 * d)


@dataclass(frozen=True)
class CircleArc:
    """Open arc starting at `start` (radians) of normalized length in (0,1]."""

    start: float
    length: float

    def __post_init__(self):
        if not (0.0 < self.length <= 1.0 + _EPS):
            raise ValueError(f"arc length must be in (0,1], got {self.length}")
        object.__setattr__(self, "length", min(self.length, 1.0))
        object.__setattr__(self, "start", _norm_angle(self.start))

    @property
    def rad_length(self) -> float:
        return self.length * TAU

    @property
    def end(self) -> float:
        """End angle, possibly >= 2*pi (unwrapped)."""
        return self.start + self.rad_length

    def contains_angle(self, phi: float) -> bool:
        """Strict interior membership."""
        phi = _norm_angle(phi)
        if phi < self.start:
            phi += TAU
        return self.start < phi < self.end

    def entropy_term(self) -> float:
        return -self.length * math.log(self.length) if self.length < 1.0 else 0.0


class BCSet:
    """Closed subset of the circle given by pairwise-disjoint open gaps."""

    __slots__ = ("gaps",)

    def __init__(self, gaps):
        gaps = tuple(sorted(gaps, key=lambda a: a.start))
        total = math.fsum(g.length for g in gaps)
        if total > 1.0 + 1e-9:
            raise ValueError(f"gap lengths sum to {total} > 1")
        if len(gaps) > 1:
            # arcs may share endpoints but not overlap
            for i in range(len(gaps) - 1):
                if gaps[i].end > gaps[i + 1].start + 1e-12:
                    raise ValueError("gap arcs overlap")
            if gaps[-1].end - TAU > gaps[0].start + 1e-12:
                raise ValueError("gap arcs overlap around the wrap")
        self.gaps = gaps

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_points(cls, angles) -> "BCSet":
        """Finite set of circle points (angles in radians)."""
        pts = sorted({_norm_angle(a) for a in angles})
        if not pts:
            raise ValueError("need at least one point")
        if len(pts) == 1:
            return cls([CircleArc(pts[0], 1.0)])
        gaps = []
        for i, p in enumerate(pts):
            q = pts[(i + 1) % len(pts)]
            ln = ((q - p) % TAU) / TAU
            if ln > 0.0:
                gaps.append(CircleArc(p, ln))
        return cls(gaps)

    @classmethod
    def full_circle(cls) -> "BCSet":
        """E = S^1 (no gaps); degenerate for the area integral."""
        return cls([])

    # -- basic queries -----------------------------------------------------

    @property
    def gap_measure(self) -> float:
        return math.fsum(g.length for g in self.gaps)

    @property
    def set_measure(self) -> float:
        """Normalized Lebesgue measure of the represented closed set."""
        return max(0.0, 1.0 - self.gap_measure)

    def entropy(self) -> float:
        return math.fsum(g.entropy_term() for g in self.gaps)

    def local_entropy(self, eta: float) -> float:
        if eta <= 0.0:
            raise ValueError("threshold must be positive")
        return math.fsum(g.entropy_term() for g in self.gaps if g.length < eta)

    def contains_angle(self, phi: float, tol: float = 0.0) -> bool:
        phi = _norm_angle(phi)
        for g in self.gaps:
            p = phi if phi >= g.start else phi + TAU
            if g.start + tol < p < g.end - tol:
                return False
        return True

    def rotate(self, delta: float) -> "BCSet":
        return BCSet([CircleArc(g.start + delta, g.length) for g in self.gaps])

    def gap_containing(self, phi: float):
        phi = _norm_angle(phi)
        for g in self.gaps:
            if g.contains_angle(phi):
                return g
        return None

    def __eq__(self, other):
        if not isinstance(other, BCSet):
            return NotImplemented
        if len(self.gaps) != len(other.gaps):
            return False
        return all(
            abs(a.start - b.start) < 1e-12 and abs(a.length - b.length) < 1e-12
            for a, b in zip(self.gaps, other.gaps)
        )

    def __repr__(self):
        return f"BCSet({len(self.gaps)} gaps, entropy={self.entropy():.6g})"


# ---------------------------------------------------------------------------
# distance and arc entropy


def dist_angle_to_set(phi: float, e: BCSet) -> float:
    """Euclidean distance from the circle point at angle phi to the closed set."""
    g = e.gap_containing(phi)
    if g is None:
        return 0.0
    p = phi if phi >= g.start else phi + TAU
    d_cw = p - g.start
    d_ccw = g.end - p
    return min(chord(d_cw), chord(d_ccw))


def arc_gap_entropy(points, arc_start: float, arc_end: float) -> float:
    """Entropy of the complement of a finite point set within an arc.

    The complementary pieces of [arc_start, arc_end] \\ points include the
    two boundary segments; lengths are normalized fractions of the circle.
    """
    if arc_end <= arc_start:
        raise ValueError("need arc_end > arc_start")
    pts = sorted(p for p in points if arc_start <= p <= arc_end)
    cuts = [arc_start] + pts + [arc_end]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        ell = (b - a) / TAU
        if ell > 0.0:
            total -= ell * math.log(ell)
    return total


# ---------------------------------------------------------------------------
# stars


@dataclass(frozen=True)
class StarSpec:
    """Generalized star over a base set: order alpha, aperture theta."""

    base: BCSet
    order: float = 1.0
    aperture: float = 1.0
    include_core: bool = True

    def __post_init__(self):
        if self.order < 1.0:
            raise ValueError("order must be >= 1")
        if not (0.0 < self.aperture <= 1.0):
            raise ValueError("aperture must be in (0,1]")


def star_contains(spec: StarSpec, z: complex, tol: float = 0.0) -> bool:
    """Membership in the star; `tol` loosens both sides (for verifier use)."""
    r = abs(z)
    if r > 1.0 + 1e-9:
        raise ValueError("point must lie in the closed disk")
    if r == 0.0:
        return spec.include_core
    if spec.include_core and r < CORE_RADIUS:
        return True
    d = dist_angle_to_set(math.atan2(z.imag, z.real), spec.base)
    return (1.0 - r) + tol >= spec.aperture * max(d - tol, 0.0) ** spec.order


def _radial_star_profile(spec: StarSpec, psi: np.ndarray, gap: CircleArc) -> np.ndarray:
    """Integrand of the star area integral at angular depth psi into a gap.

    For fixed angle with x = theta*d^alpha < 1 the radial integral of
    rho/(1-rho) over [0, 1-x] is log(1/x) - 1 + x; empty for x >= 1.
    """
    d = 2.0 * np.sin(0.5 * psi)
    x = spec.aperture * d ** spec.order
    out = np.zeros_like(psi)
    m = (x > 0.0) & (x < 1.0)
    out[m] = -np.log(x[m]) - 1.0 + x[m]
    # psi == 0 sits on E where the radial integral diverges; callers keep
    # quadrature nodes strictly inside the gap
    return out


def star_area_integral(spec: StarSpec, levels: int = 40, order: int = 16) -> float:
    """Integral of |dz|^2/(1-|z|) over the star, without the core ball.

    Composite Gauss-Legendre on dyadic panels toward each gap endpoint
    (the integrand has a log singularity there). `levels` dyadic levels
    per half-gap, Gauss order `order`.
    """
    if levels <= 0 or order <= 0:
        raise ValueError("resolution must be positive")
    e = spec.base
    if not e.gaps:
        raise ValueError("set with empty gap list is degenerate for the area integral")
    if e.set_measure > 1e-9:
        raise ValueError(
            "set has positive measure; the star area integral diverges"
        )
    nodes, weights = np.polynomial.legendre.leggauss(order)
    # angular depth at which theta*d^alpha reaches 1 (empty radial fibre)
    s = 0.5 * spec.aperture ** (-1.0 / spec.order)
    psi_cut = 2.0 * math.asin(s) if s < 1.0 else math.inf
    total = 0.0
    for g in e.gaps:
        upper = min(0.5 * g.rad_length, psi_cut)
        lo = upper
        for _ in range(levels):
            hi, lo = lo, lo * 0.5
            mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
            psi = mid + rad * nodes
            vals = _radial_star_profile(spec, psi, g)
            total += 2.0 * rad * float(np.dot(weights, vals))
        # innermost panel [0, lo]: integrable log singularity, one last panel
        mid, rad = 0.5 * lo, 0.5 * lo
        psi = mid + rad * nodes
        vals = _radial_star_profile(spec, psi, g)
        total += 2.0 * rad * float(np.dot(weights, vals))
    return total


def hyperbolic_dist(x, y):
    """Distance in the curvature -4 metric: artanh |x-y|/|1-x*conj(y)|."""
    x, y = np.asarray(x, dtype=np.complex128), np.asarray(y, dtype=np.complex128)
    out = np.arctanh(np.minimum(np.abs(x - y) / np.abs(1.0 - x * np.conj(y)), 1.0 - 1e-15))
    return float(out) if out.ndim == 0 else out


def hyperbolic_dist_to_star(z: complex, spec: StarSpec, n_samples: int = 2048) -> float:
    """Approximate hyperbolic distance from z to the star (0 if inside).

    Samples the star's radial boundary curve rho*(phi) = 1 - theta*d(phi)^alpha
    densely in angle and takes the min over sampled points; the core ball
    distance is handled analytically.
    """
    if abs(z) >= 1.0:
        raise ValueError("point must lie in the open disk")
    if star_contains(spec, z):
        return 0.0
    best = math.inf
    if spec.include_core:
        best = math.atanh(abs(z)) - math.atanh(CORE_RADIUS)
    phis = np.arange(n_samples) * (TAU / n_samples)
    d = np.array([dist_angle_to_set(p, spec.base) for p in phis])
    rho = 1.0 - spec.aperture * d ** spec.order
    m = rho > 0.0
    if m.any():
        best = min(best, float(np.min(hyperbolic_dist(z, rho[m] * np.exp(1j * phis[m])))))
    return max(best, 0.0)
