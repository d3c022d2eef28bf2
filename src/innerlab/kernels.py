"""Hot numerical kernels, vectorized with numpy.

Each kernel broadcasts probe points against atoms and reduces over the
atom axis, so the work is a few array operations per call. The test
suite checks each against an independent reference: the pointwise
potentials of `inner`, a direct sum, and a brute-force subset search.

Conventions: probe points are complex128 arrays, atom locations either
complex128 (interior) or float64 angles (boundary), masses float64.
"""

import numpy as np

TAU = 2.0 * np.pi


# ---------------------------------------------------------------------------
# Green potential sum:  out[p] = sum_k m[k] * G(z[p], a[k])
# with G(z,a) = log|1 - z*conj(a)| - log|z - a|  (>= 0 on the disk).

def green_sum(z, atoms, masses):
    if atoms.size == 0:
        return np.zeros(z.shape, dtype=np.float64)
    zc = z[..., None]
    num = np.abs(1.0 - zc * np.conj(atoms))
    den = np.abs(zc - atoms)
    with np.errstate(divide="ignore"):
        g = np.log(num) - np.log(den)
    return g @ masses if g.ndim > 1 else float(np.dot(g, masses))


# ---------------------------------------------------------------------------
# Poisson kernel sum:  out[p] = sum_k m[k] * (1-|z|^2) / |zeta_k - z|^2
# with zeta_k = exp(i*angle_k) on the unit circle.

def poisson_sum(z, angles, masses):
    if angles.size == 0:
        return np.zeros(z.shape, dtype=np.float64)
    zeta = np.exp(1j * angles)
    zc = z[..., None]
    k = (1.0 - np.abs(zc) ** 2) / np.abs(zeta - zc) ** 2
    return k @ masses if k.ndim > 1 else float(np.dot(k, masses))


# ---------------------------------------------------------------------------
# Outer-function exponent:  out[p] = sum_J m[J] * u[J] / (a[J] - z[p])
# (complex; u[J] unimodular direction, a[J] anchor outside or on the circle).

def outer_exponent(z, anchors, dirs, masses):
    if anchors.size == 0:
        return np.zeros(z.shape, dtype=np.complex128)
    zc = z[..., None]
    terms = (dirs * masses) / (anchors - zc)
    return terms.sum(axis=-1)


# ---------------------------------------------------------------------------
# Exact subset scan for max_star_mass: over all nonempty subsets S of
# angle-sorted boundary atoms, maximize sum of masses subject to the
# entropy of the point set {angles[i] : i in S} being <= budget.
# Returns (best_mass, best_mask); ties keep the smallest bitmask.

ENTROPY_SLACK = 1e-12


def subset_entropy_scan(angles, masses, budget):
    n = angles.size
    nmask = 1 << n
    masks = np.arange(nmask, dtype=np.int64)
    total = np.zeros(nmask)
    for i in range(n):
        total += masses[i] * ((masks >> i) & 1)
    ent = np.zeros(nmask)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = angles[j] - angles[i]
            if d <= 0.0:
                d += TAU
            ell = d / TAU
            c = -ell * np.log(ell)
            # j is the cyclic successor of i iff no index strictly between is set
            between = 0
            k = (i + 1) % n
            while k != j:
                between |= 1 << k
                k = (k + 1) % n
            adj = (((masks >> i) & 1) == 1) & (((masks >> j) & 1) == 1)
            adj &= (masks & between) == 0
            ent += c * adj
    ok = (ent <= budget + ENTROPY_SLACK) & (masks > 0)
    score = np.where(ok, total, -1.0)
    best = int(np.argmax(score))  # argmax keeps the first (smallest) mask on ties
    if score[best] < 0.0:
        return 0.0, 0
    return float(total[best]), int(masks[best])

