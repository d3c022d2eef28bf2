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

The pieces are arrays (gap index, k, start, radian length), so OuterSpec
needs memory linear in their number.
"""

import math

import numpy as np

from . import kernels
from .bc_sets import TAU, BCSet, dist_angle_to_set

_TINY = 1e-280


def smoothstep(x):
    """Quintic C^2 step: 0 below 0, 1 above 1."""
    x = np.clip(x, 0.0, 1.0)
    return x * x * x * (10.0 + x * (-15.0 + 6.0 * x))


def profile_phi(t):
    """1 below 1, identity above 2, smooth increasing C^2 blend."""
    t = np.asarray(t, dtype=np.float64)
    s = smoothstep(t - 1.0)
    return 1.0 + (t - 1.0) * s


def subdivide(e: BCSet, depth: int = 20):
    """The pieces J_{n,k}, |k| <= depth, of every gap of E, as arrays.

    Returns (gap index, k, start, radian length), gap by gap and within a
    gap k = 0, -1, +1, -2, +2, ...: 0 is the middle third, -k the left
    side piece, +k the right.
    """
    if not len(e.gaps):
        raise ValueError("need a set with at least one gap")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    # 2.0 ** 1024 raises OverflowError, before any array of the depth's size
    scale = np.array([3.0 * 2.0 ** j for j in range(depth + 1)])
    k = np.zeros(2 * depth + 1, dtype=np.int64)
    k[1::2] = -np.arange(1, depth + 1)
    k[2::2] = np.arange(1, depth + 1)
    g_start, g_len = e.gaps[:, :1], e.gaps[:, 1:] * TAU
    piece = g_len / scale[np.abs(k)]
    start = np.where(k > 0, g_start + g_len - 2.0 * piece, g_start + piece)
    gaps = np.repeat(np.arange(len(e.gaps)), k.size)
    return gaps, np.tile(k, len(e.gaps)), start.ravel(), piece.ravel()


def _lambda(ell):
    """lambda_F = profile(log(1/|J|)) >= 1, unbounded as |J| -> 0."""
    return profile_phi(np.log(1.0 / ell))


def _tail_mass(gap_norm_length: float, depth: int) -> float:
    """sum over k > depth of lambda(l_k) l_k log(1/l_k), one gap side,
    in order of k while l_k >= 1e-280 (k < 929 for a gap of length <= 1)."""
    ell = gap_norm_length / np.ldexp(3.0, np.arange(depth + 1, 1000))
    ell = ell[ell >= _TINY]
    lg = np.array([math.log(1.0 / x) for x in ell.tolist()])  # libm's log
    return float(np.cumsum(np.append(0.0, profile_phi(lg) * ell * lg))[-1])


class OuterSpec:
    """Precomputed evaluation data for Phi_E at truncation depth K: the
    pieces' anchors, then each gap's two endpoint tail masses."""

    __slots__ = ("base", "depth", "anchors", "dirs", "masses")

    def __init__(self, base: BCSet, depth: int = 20):
        self.base = base
        self.depth = depth
        _, _, start, w = subdivide(base, depth)
        ell = w / TAU
        # the mass takes libm's log, lambda numpy's: they can differ in the last bit
        log_inv = np.array([math.log(x) for x in (1.0 / ell).tolist()])
        dirs = np.exp(1j * (start + 0.5 * w))
        r_a = np.cos(0.5 * w) + np.sin(0.5 * w)  # right-angle point, outside
        lengths = base.gaps[:, 1].tolist()
        tail = {x: _tail_mass(x, depth) for x in set(lengths)}
        g_start = base.gaps[:, 0]
        ends = np.exp(1j * np.column_stack([g_start, g_start + base.gaps[:, 1] * TAU]).ravel())
        self.anchors = np.concatenate([r_a * dirs, ends])
        self.dirs = np.concatenate([dirs, ends])
        self.masses = np.concatenate(
            [_lambda(ell) * ell * log_inv, np.repeat([tail[x] for x in lengths], 2)]
        )
        if not np.isfinite(self.masses).all():  # pieces too short for 1/|J| to be finite
            raise FloatingPointError(f"outer-function masses are not finite at depth {depth}")

    def exponent(self, z):
        """S(z) with Re S >= 0; Phi = exp(-S)."""
        z = np.asarray(z, dtype=np.complex128)
        return kernels.outer_exponent(z, self.anchors, self.dirs, self.masses)

    def __call__(self, z):
        out = np.exp(-self.exponent(z))
        return complex(out) if out.ndim == 0 else out

    def log_abs(self, z):
        out = -np.real(self.exponent(z))
        return float(out) if out.ndim == 0 else out


def decay_profile(spec: OuterSpec, orders=(1, 2, 3)):
    """sup over a near-E probe sweep of |Phi(z)| * dist(z, E)^(-N).

    Probes approach each gap endpoint radially and tangentially at dyadic
    distances; the suprema are finite for every order because Phi vanishes
    to infinite order on E.
    """
    g_start, g_len = spec.base.gaps[:, 0], spec.base.gaps[:, 1] * TAU
    endpoint = np.column_stack([g_start, np.remainder(g_start + g_len, TAU)]).reshape(-1, 1)
    d = np.array([2.0 ** (-i / 2.5) * 0.5 for i in range(1, 41)])  # down to 7.6e-6
    radial = (1.0 - d) * np.exp(1j * endpoint)
    tangential = (1.0 - d) * np.exp(1j * (endpoint + 0.7 * d))
    z = np.stack([radial, tangential], axis=-1).ravel()
    la = spec.log_abs(z)
    on_circle = dist_angle_to_set(np.angle(z) % TAU, spec.base)
    dist = np.maximum(on_circle, 1.0 - np.hypot(z.real, z.imag))
    out = {}
    for n_ord in orders:
        out[n_ord] = float(np.max(np.exp(la - n_ord * np.log(dist))))
    return out
