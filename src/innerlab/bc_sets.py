"""Finite-entropy closed sets on the unit circle and their star geometry.

A set E is stored through its complementary open arcs ("gaps"); the
represented closed set is the circle minus the gap interiors. Arc
lengths are normalized to fractions of the circle, so every entropy
term ell*log(1/ell) is nonnegative. Euclidean (chord) distance is used
throughout for dist(., E).

The queries (`chord`, `dist_angle_to_set`, `BCSet.contains_angle`,
`star_contains`, `hyperbolic_dist_to_star`) take a scalar or an array and
answer in kind. Each angle is looked up once: the only gap that can hold
it is the last one starting below it, or the last gap, wrapping past
2*pi, when none does.

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


def _scalar_or_array(x, out):
    """`out` as a Python scalar when the query `x` was a scalar."""
    return out.item() if np.ndim(x) == 0 else out


def _norm_angle(phi):
    """Angle(s) reduced to [0, 2*pi)."""
    out = np.fmod(phi, TAU)
    out = np.where(out < 0.0, out + TAU, out)
    # a tiny negative angle plus TAU can round up to TAU exactly
    return _scalar_or_array(phi, np.where(out >= TAU, 0.0, out))


def chord(delta):
    """Euclidean distance between circle points with angular separation delta."""
    d = np.abs(np.fmod(delta, TAU))
    return _scalar_or_array(delta, 2.0 * np.sin(0.5 * np.minimum(d, TAU - d)))


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

    def entropy_term(self) -> float:
        return -self.length * math.log(self.length) if self.length < 1.0 else 0.0


class BCSet:
    """Closed subset of the circle given by pairwise-disjoint open gaps."""

    __slots__ = ("gaps", "_starts", "_ends")

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
        # the full circle gets one empty arc, so every lookup has a candidate
        self._starts = np.array([g.start for g in gaps] or [0.0])
        self._ends = np.array([g.end for g in gaps] or [0.0])

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_points(cls, angles) -> "BCSet":
        """Finite set of circle points (angles in radians)."""
        pts = sorted(set(_norm_angle(np.asarray(angles, dtype=np.float64)).tolist()))
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

    def _gap_of(self, phi, tol: float = 0.0):
        """(start, end, inside) of the one gap that can hold each angle.

        That gap is the last one starting below the angle, or the last gap
        (wrapping past 2*pi) when none does; `inside` is strict membership
        in its interior shrunk by `tol` at both ends.
        """
        q = np.asarray(_norm_angle(phi))
        k = np.searchsorted(self._starts, q) - 1
        s, t = self._starts[k], self._ends[k]
        p = np.where(q >= s, q, q + TAU)
        return s, t, (s + tol < p) & (p < t - tol)

    def contains_angle(self, phi, tol: float = 0.0):
        """Membership of the angle(s) in the closed set, gaps shrunk by `tol`."""
        return _scalar_or_array(phi, ~self._gap_of(phi, tol)[2])

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


def dist_angle_to_set(phi, e: BCSet):
    """Euclidean distance from the circle point(s) at angle phi to the closed set."""
    phi = np.asarray(phi, dtype=np.float64)
    s, t, inside = e._gap_of(phi)
    # unwrap the angle as given: reducing it first can change the last bit
    p = np.where(phi >= s, phi, phi + TAU)
    d = np.minimum(chord(p - s), chord(t - p))
    return _scalar_or_array(phi, np.where(inside, d, 0.0))


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


def star_contains(spec: StarSpec, z, tol: float = 0.0):
    """Membership of the point(s) z in the star; `tol` loosens both sides
    (for verifier use)."""
    z = np.asarray(z, dtype=np.complex128)
    r = np.hypot(z.real, z.imag)
    if np.any(r > 1.0 + 1e-9):
        raise ValueError("point must lie in the closed disk")
    d = dist_angle_to_set(np.arctan2(z.imag, z.real), spec.base)
    inside = (1.0 - r) + tol >= spec.aperture * np.maximum(d - tol, 0.0) ** spec.order
    # the origin lies in the star exactly when the core ball is included
    inside = (inside & (r > 0.0)) | (spec.include_core & (r < CORE_RADIUS))
    return _scalar_or_array(z, inside)


def _radial_star_profile(spec: StarSpec, psi: np.ndarray) -> np.ndarray:
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
    # angular depth at which theta*d^alpha reaches 1 (empty radial fibre)
    s = 0.5 * spec.aperture ** (-1.0 / spec.order)
    psi_cut = 2.0 * math.asin(s) if s < 1.0 else math.inf
    # gaps differ only in the upper limit: integrate once per distinct limit,
    # and sum per gap in gap order
    half_gap = {}
    total = 0.0
    for g in e.gaps:
        upper = min(0.5 * g.rad_length, psi_cut)
        if upper not in half_gap:
            half_gap[upper] = 2.0 * dyadic_gauss(
                lambda psi: _radial_star_profile(spec, psi), upper, levels, order
            )
        total += half_gap[upper]
    return total


def dyadic_gauss(fn, upper: float, levels: int, order: int) -> float:
    """int_0^upper fn(x) dx by Gauss-Legendre of order `order` on the dyadic
    panels [upper 2^-(k+1), upper 2^-k], k < levels, and on [0, upper 2^-levels].

    The panels shrink toward 0, where fn may have an integrable (say
    logarithmic) singularity; no node sits at 0. fn is called once, on the
    (levels + 1, order) array of all nodes, one row per panel.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    hi = np.ldexp(upper, -np.arange(levels + 1))
    lo = np.append(hi[1:], 0.0)
    mid, rad = 0.5 * (hi + lo), 0.5 * (hi - lo)
    vals = fn(mid[:, None] + rad[:, None] * nodes[None, :])
    total = 0.0
    for r, row in zip(rad.tolist(), vals):
        total += r * float(np.dot(weights, row))
    return total


def hyperbolic_dist(x, y):
    """Distance in the curvature -4 metric: artanh |x-y|/|1-x*conj(y)|."""
    x, y = np.asarray(x, dtype=np.complex128), np.asarray(y, dtype=np.complex128)
    out = np.arctanh(np.minimum(np.abs(x - y) / np.abs(1.0 - x * np.conj(y)), 1.0 - 1e-15))
    return float(out) if out.ndim == 0 else out


def hyperbolic_dist_to_star(z, spec: StarSpec, n_samples: int = 2048):
    """Approximate hyperbolic distance from the point(s) z to the star (0 inside).

    Samples the star's radial boundary curve rho*(phi) = 1 - theta*d(phi)^alpha
    densely in angle, once per call, and takes the min over sampled points;
    the core ball distance is handled analytically.
    """
    z = np.asarray(z, dtype=np.complex128)
    r = np.hypot(z.real, z.imag)
    if np.any(r >= 1.0):
        raise ValueError("point must lie in the open disk")
    best = np.full(z.shape, math.inf)
    if spec.include_core:
        # libm's atanh, which the frozen ratios were measured with; np.arctanh
        # can differ in the last bit
        best = np.vectorize(math.atanh, otypes=[np.float64])(r) - math.atanh(CORE_RADIUS)
    phis = np.arange(n_samples) * (TAU / n_samples)
    rho = 1.0 - spec.aperture * dist_angle_to_set(phis, spec.base) ** spec.order
    m = rho > 0.0
    if m.any():
        curve = rho[m] * np.exp(1j * phis[m])
        best = np.minimum(best, np.min(hyperbolic_dist(z[..., None], curve), axis=-1))
    out = np.where(star_contains(spec, z), 0.0, np.maximum(best, 0.0))
    return _scalar_or_array(z, out)
