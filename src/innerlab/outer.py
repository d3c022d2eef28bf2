"""Smooth outer functions vanishing to infinite order on a circle set.

Each complementary gap of E splits into a middle third J_0 and geometric
side pieces J_{+-k} with |J_k| = dist(E, J_k) = |gap|/(3*2^|k|). With
smoothed weights lambda(J) (identity in log(1/|J|) for short pieces, 1
for long ones) the outer function is

    Phi_E(z) = exp[- sum_J lambda(J) |J| log(1/|J|) e^{i theta_J} / (a_J - z)]

where theta_J is the midpoint direction and a_J lies outside the circle
at the point seeing J at a right angle (|a_J| = cos(w/2) + sin(w/2) > 1
for radian length w), which keeps every term's real part positive and
hence |Phi_E| <= 1 on the disk. The |k| > K tail of each gap side is
attached analytically as a point mass at the gap endpoint; the residual
truncation error is quadratic in the tail size instead of linear.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .bc_sets import TAU, BCSet, dist_angle_to_set

_TINY = 1e-280


def smoothstep(x):
    """Quintic C^2 step: 0 below 0, 1 above 1."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def bump_psi(t):
    """1 below 1, 0 above 2, smooth C^2 in between."""
    return 1.0 - smoothstep(np.asarray(t, dtype=np.float64) - 1.0)


def profile_phi(t):
    """1 below 1, identity above 2, smooth increasing C^2 blend."""
    t = np.asarray(t, dtype=np.float64)
    s = smoothstep(t - 1.0)
    return 1.0 + (t - 1.0) * s


@dataclass(frozen=True)
class JInterval:
    gap_index: int
    k: int  # 0 = middle third, -k left side, +k right side
    start: float  # radians
    rad_length: float

    @property
    def length(self) -> float:
        """Normalized length (fraction of the circle)."""
        return self.rad_length / TAU

    @property
    def midpoint(self) -> float:
        return self.start + 0.5 * self.rad_length


def subdivide(e: BCSet, depth: int = 20):
    """The pieces J_{n,k}, |k| <= depth, of every gap of E."""
    if not e.gaps:
        raise ValueError("need a set with at least one gap")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    out = []
    for n, g in enumerate(e.gaps):
        length = g.rad_length
        out.append(JInterval(n, 0, g.start + length / 3.0, length / 3.0))
        for k in range(1, depth + 1):
            piece = length / (3.0 * 2.0 ** k)
            out.append(JInterval(n, -k, g.start + piece, piece))
            out.append(
                JInterval(n, k, g.start + length - 2.0 * piece, piece)
            )
    return out


def weights(intervals):
    """(h_F, lambda_F) arrays for the smoothed construction.

    h_F(J) sums |J'| log(1/|J'|) over pieces shorter than 2|J| through the
    bump; lambda_F(J) = profile(log(1/|J|)) >= 1 and grows without bound
    as |J| -> 0. Lengths are normalized to circle fractions.
    """
    ell = np.array([j.length for j in intervals])
    ent = -ell * np.log(ell)
    ratio = ell[None, :] / ell[:, None]  # |J'| / |J|
    h = (bump_psi(ratio) * ent[None, :]).sum(axis=1)
    lam = profile_phi(np.log(1.0 / ell))
    return h, lam


def _tail_mass(gap_norm_length: float, depth: int) -> float:
    """sum over k > depth of lambda(l_k) l_k log(1/l_k), one gap side."""
    total = 0.0
    k = depth + 1
    while True:
        ell = gap_norm_length / (3.0 * 2.0 ** k)
        if ell < _TINY:
            break
        lg = math.log(1.0 / ell)
        total += float(profile_phi(lg)) * ell * lg
        k += 1
    return total


class OuterSpec:
    """Precomputed evaluation data for Phi_E at truncation depth K."""

    __slots__ = ("base", "depth", "intervals", "h_values", "lambdas",
                 "anchors", "dirs", "masses", "tail_mass_total")

    def __init__(self, base: BCSet, depth: int = 20):
        self.base = base
        self.depth = depth
        self.intervals = subdivide(base, depth)
        self.h_values, self.lambdas = weights(self.intervals)

        anchors, dirs, masses = [], [], []
        for j, lam in zip(self.intervals, self.lambdas):
            w = j.rad_length
            r_a = math.cos(0.5 * w) + math.sin(0.5 * w)  # right-angle point, outside
            anchors.append(r_a * np.exp(1j * j.midpoint))
            dirs.append(np.exp(1j * j.midpoint))
            masses.append(lam * j.length * math.log(1.0 / j.length))
        tail_total = 0.0
        for n, g in enumerate(base.gaps):
            m_tail = _tail_mass(g.length, depth)
            tail_total += 2.0 * m_tail
            for endpoint in (g.start, g.end):
                zeta = np.exp(1j * endpoint)
                anchors.append(zeta)
                dirs.append(zeta)
                masses.append(m_tail)
        self.anchors = np.array(anchors, dtype=np.complex128)
        self.dirs = np.array(dirs, dtype=np.complex128)
        self.masses = np.array(masses, dtype=np.float64)
        self.tail_mass_total = tail_total

    def exponent(self, z):
        """S(z) with Re S >= 0; Phi = exp(-S)."""
        z = np.ascontiguousarray(np.atleast_1d(np.asarray(z, dtype=np.complex128)))
        return kernels.outer_exponent(z, self.anchors, self.dirs, self.masses)

    def __call__(self, z):
        shape = np.shape(z)
        out = np.exp(-self.exponent(z))
        return complex(out[0]) if shape == () else out.reshape(shape)

    def log_abs(self, z):
        shape = np.shape(z)
        out = -np.real(self.exponent(z))
        return float(out[0]) if shape == () else out.reshape(shape)


def decay_profile(spec: OuterSpec, orders=(1, 2, 3)):
    """sup over a near-E probe sweep of |Phi(z)| * dist(z, E)^(-N).

    Probes approach each gap endpoint radially and tangentially at dyadic
    distances; the suprema are finite for every order because Phi vanishes
    to infinite order on E.
    """
    pts = []
    for g in spec.base.gaps:
        for endpoint in (g.start, g.end % TAU):
            for i in range(1, 41):
                d = 2.0 ** (-i / 2.5) * 0.5  # down to 7.6e-6
                pts.append((1.0 - d) * np.exp(1j * endpoint))
                pts.append((1.0 - d) * np.exp(1j * (endpoint + 0.7 * d)))
    z = np.array(pts, dtype=np.complex128)
    la = spec.log_abs(z)
    on_circle = dist_angle_to_set(np.angle(z) % TAU, spec.base)
    dist = np.maximum(on_circle, 1.0 - np.hypot(z.real, z.imag))
    out = {}
    for n_ord in orders:
        out[n_ord] = float(np.max(np.exp(la - n_ord * np.log(dist))))
    return out
