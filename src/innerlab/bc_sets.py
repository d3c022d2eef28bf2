"""Finite-entropy closed sets on the unit circle and their star geometry.

A set E is stored through its complementary open arcs ("gaps"), as one
array of (start, length) rows: the starts in [0, 2*pi), sorted, and the
lengths; the represented closed set is the circle minus the gap
interiors. Lengths are normalized to fractions of the circle, so every
entropy term ell*log(1/ell) is nonnegative. Euclidean (chord) distance
is used throughout for dist(., E).

The queries (`chord`, `dist_angle_to_set`, `BCSet.contains_angle`,
`star_contains`, `hyperbolic_dist_to_star`) take a scalar or an array and
answer in kind; a non-finite angle or point raises ValueError. Each
angle is looked up once: the only gap that can hold it is the last one
starting below it, or the last gap, wrapping past 2*pi, when none does.

The star of order alpha >= 1 over E is

    { z in closed disk : 1 - |z| >= dist(z/|z|, E)^alpha }

united with the core ball B(0, 1/sqrt(2)). The hyperbolic distance to it
is the least of the distance to the core ball and the `hyperbolic_dist`
to samples of its radial boundary curve. Since 1 - rho(z,c)^2 =
(1-|z|^2)(1-|c|^2) / |1 - z conj(c)|^2, each point's nearest samples are
found from one real Gram product, and `hyperbolic_dist` is evaluated only
on the samples within a bounded rounding margin of the best: the same bits
as the scan over all.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels

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


class BCSet:
    """Closed subset of the circle given by pairwise-disjoint open gaps.

    `gaps` is an (n, 2) read-only array of (start, length) rows sorted by
    start: starts in [0, 2*pi), lengths as fractions of the circle in (0, 1].
    """

    __slots__ = ("gaps", "_starts", "_ends")

    def __init__(self, starts, lengths):
        starts = np.asarray(starts, dtype=np.float64)
        lengths = np.asarray(lengths, dtype=np.float64)
        if starts.ndim != 1 or starts.shape != lengths.shape:
            raise ValueError("need one-dimensional starts and lengths of one size")
        if not (np.isfinite(starts).all() and np.isfinite(lengths).all()):
            raise ValueError("gap starts and lengths must be finite")
        bad = ~((lengths > 0.0) & (lengths <= 1.0 + _EPS))
        if bad.any():
            raise ValueError(f"arc length must be in (0,1], got {lengths[bad][0]}")
        starts = _norm_angle(starts)
        order = np.argsort(starts, kind="stable")
        starts, lengths = starts[order], np.minimum(lengths, 1.0)[order]
        total = math.fsum(lengths.tolist())
        if total > 1.0 + 1e-9:
            raise ValueError(f"gap lengths sum to {total} > 1")
        ends = starts + lengths * TAU
        # arcs may share endpoints but not overlap
        if np.any(ends[:-1] > starts[1:] + 1e-12):
            raise ValueError("gap arcs overlap")
        if len(starts) > 1 and ends[-1] - TAU > starts[0] + 1e-12:
            raise ValueError("gap arcs overlap around the wrap")
        self.gaps = np.column_stack([starts, lengths])
        self.gaps.flags.writeable = False
        # the full circle gets one empty arc, so every lookup has a candidate
        self._starts = starts if len(starts) else np.zeros(1)
        self._ends = ends if len(starts) else np.zeros(1)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_points(cls, angles) -> "BCSet":
        """Finite set of circle points (angles in radians)."""
        pts = np.asarray(angles, dtype=np.float64).ravel()
        if not np.isfinite(pts).all():
            raise ValueError("point angles must be finite")
        if not pts.size:
            raise ValueError("need at least one point")
        pts = _norm_angle(pts)
        pts = pts[np.argsort(pts, kind="stable")]
        # the first of equal angles, as a set keeps it (0.0 and -0.0 are equal)
        pts = pts[np.append(True, pts[1:] != pts[:-1])]
        ln = np.ones(1)
        if len(pts) > 1:
            # np.remainder is Python's float %
            ln = np.remainder(np.append(pts[1:], pts[0]) - pts, TAU) / TAU
        keep = ln > 0.0
        return cls(pts[keep], ln[keep])

    # -- basic queries -----------------------------------------------------

    @property
    def gap_measure(self) -> float:
        return math.fsum(self.gaps[:, 1].tolist())

    @property
    def set_measure(self) -> float:
        """Normalized Lebesgue measure of the represented closed set."""
        return max(0.0, 1.0 - self.gap_measure)

    def entropy(self) -> float:
        return self.local_entropy(1.0)

    def local_entropy(self, eta: float) -> float:
        """Entropy of the gaps shorter than eta; a gap of length 1 adds 0."""
        if not eta > 0.0:
            raise ValueError("threshold must be positive")
        # libm's log, in gap order: np.log can differ in the last bit
        cut = min(eta, 1.0)
        return math.fsum(-x * math.log(x) for x in self.gaps[:, 1].tolist() if x < cut)

    def _gap_of(self, phi, tol: float = 0.0):
        """(start, end, inside) of the one gap that can hold each angle.

        That gap is the last one starting below the angle, or the last gap
        (wrapping past 2*pi) when none does; `inside` is strict membership
        in its interior shrunk by `tol` at both ends.
        """
        if not np.isfinite(phi).all():
            raise ValueError("query angles must be finite")
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
        return self.gaps.shape == other.gaps.shape and bool(
            np.all(np.abs(self.gaps - other.gaps) < 1e-12)
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
    if not -math.inf < arc_start < arc_end < math.inf:
        raise ValueError("need finite arc_start < arc_end")
    if not all(math.isfinite(p) for p in points):
        raise ValueError("points must be finite")
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
    """Star of order alpha over a base set, with the core ball."""

    base: BCSet
    order: float = 1.0

    def __post_init__(self):
        if not self.order >= 1.0:
            raise ValueError("order must be >= 1")


def _finite_points(z):
    z = np.asarray(z, dtype=np.complex128)
    if not np.isfinite(z).all():
        raise ValueError("query points must be finite")
    return z


def star_contains(spec: StarSpec, z, tol: float = 0.0):
    """Membership of the point(s) z in the star; `tol` loosens both sides
    (for verifier use)."""
    z = _finite_points(z)
    r = np.hypot(z.real, z.imag)
    if np.any(r > 1.0 + 1e-9):
        raise ValueError("point must lie in the closed disk")
    d = dist_angle_to_set(np.arctan2(z.imag, z.real), spec.base)
    inside = ((1.0 - r) + tol >= np.maximum(d - tol, 0.0) ** spec.order) | (r < CORE_RADIUS)
    return _scalar_or_array(z, inside)


def _radial_star_profile(spec: StarSpec, psi: np.ndarray) -> np.ndarray:
    """Integrand of the star area integral at angular depth psi into a gap.

    For fixed angle with x = d^alpha < 1 the radial integral of
    rho/(1-rho) over [0, 1-x] is log(1/x) - 1 + x; empty for x >= 1.
    """
    x = (2.0 * np.sin(0.5 * psi)) ** spec.order
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
    if not len(e.gaps):
        raise ValueError("set with empty gap list is degenerate for the area integral")
    if e.set_measure > 1e-9:
        raise ValueError(
            "set has positive measure; the star area integral diverges"
        )
    # angular depth at which d^alpha reaches 1 (empty radial fibre)
    psi_cut = 2.0 * math.asin(0.5)
    # gaps differ only in the upper limit: integrate once per distinct limit,
    # and sum per gap in gap order
    half_gap = {}
    total = 0.0
    for upper in np.minimum(0.5 * (e.gaps[:, 1] * TAU), psi_cut).tolist():
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

    The distance to the core ball is taken analytically. The star's radial
    boundary curve rho*(phi) = 1 - d(phi)^alpha is sampled at n_samples
    equally spaced angles, once per call, and the min of `hyperbolic_dist`
    over the sampled points is evaluated only on each point's nearest samples.
    """
    if n_samples < 1:
        raise ValueError(f"need n_samples >= 1, got {n_samples}")
    z = _finite_points(z)
    r = np.hypot(z.real, z.imag)
    if np.any(r >= 1.0):
        raise ValueError("point must lie in the open disk")
    # libm's atanh, which the frozen ratios were measured with; np.arctanh
    # can differ in the last bit
    best = np.vectorize(math.atanh, otypes=[np.float64])(r) - math.atanh(CORE_RADIUS)
    phis = np.arange(n_samples) * (TAU / n_samples)
    rho = 1.0 - dist_angle_to_set(phis, spec.base) ** spec.order
    m = rho > 0.0
    if m.any():
        curve = rho[m] * np.exp(1j * phis[m])
        near = kernels.in_row_slices(lambda zs: _nearest_sample_dist(zs, curve), z.ravel(), curve.size)
        best = np.minimum(best, near.reshape(z.shape))
    out = np.where(star_contains(spec, z), 0.0, np.maximum(best, 0.0))
    return _scalar_or_array(z, out)


def _nearest_sample_dist(z, curve):
    """min over the samples c of hyperbolic_dist(z, c), for each point of a 1-d z.

    1 - rho(z,c)^2 = (1-|z|^2) s(c) for the score s(c) = (1-|c|^2)/|1 - z conj(c)|^2,
    whose denominator 1 + |z|^2 |c|^2 - 2 Re(z conj(c)) is one real Gram product.
    """
    c2 = curve.real ** 2 + curve.imag ** 2
    rows = np.column_stack([np.ones(z.size), z.real ** 2 + z.imag ** 2, z.real, z.imag])
    cols = np.stack([np.ones(curve.size), c2, -2.0 * curve.real, -2.0 * curve.imag])
    den = rows @ cols
    # the true denominator is at least h^2, h = 1-|z|
    h2 = (1.0 - np.hypot(z.real, z.imag)) ** 2
    np.maximum(den, h2[:, None], out=den)
    score = np.divide(1.0 - c2, den, out=den)
    top = score.max(axis=1)
    # The margin. With eps = 2^-52 and s a true score, the computed score is
    # off by at most (2 + 16 s) eps/h^2 (absolute errors of 2 eps in 1-|c|^2 and
    # 16 eps in the Gram denominator), so two compared scores spread by twice
    # that. hyperbolic_dist's ratio is off by a relative 8 eps/h (its
    # 1 - z conj(c), of modulus >= h, loses 3 eps), which spreads s by
    # 33 eps/h^2, and its arctanh (4 ulp) by 290 eps s. A sample giving the
    # minimum thus scores within (37 + 322 s) eps/h^2 of the best. Once
    # h^2 > 32 eps, s <= 2 top + 4 eps/h^2, so (128 + 1024 top) eps/h^2 covers
    # it; nearer the rim every sample is kept.
    eps = np.finfo(np.float64).eps
    margin = np.where(h2 > 32.0 * eps, eps * (128.0 + 1024.0 * top) / h2, np.inf)
    i, j = np.divmod(np.flatnonzero(score >= (top - margin)[:, None]), curve.size)
    out = np.full(z.size, math.inf)
    np.minimum.at(out, i, hyperbolic_dist(z[i], curve[j]))
    return out
