"""Hot numerical kernels, vectorized with numpy.

Each kernel broadcasts probe points against atoms and reduces over the
atom axis, so the work is a few array operations per call. The test
suite checks each against an independent reference: the pointwise
potentials of `inner`, a direct sum, and a brute-force subset search.
The subset scan is the exception to one broadcast: it grows its 2^n masks
in n array steps, one atom at a time. The three potential kernels broadcast
in row slices of at most CHUNK_PAIRS pairs (`in_row_slices`), sized by
their own atom count, so their temporaries stay bounded however many points
a caller passes.

Conventions: probe points are complex128 arrays, atom locations either
complex128 (interior) or float64 angles (boundary), masses float64.
"""

import numpy as np

TAU = 2.0 * np.pi
# (point, atom) pairs per row slice: 1 MB per float64 (points x atoms) temporary
CHUNK_PAIRS = 1 << 17


def in_row_slices(fn, z, n_atoms):
    """fn over a 1-d z, evaluated CHUNK_PAIRS // n_atoms points at a time (at
    least one) and concatenated, so its temporaries stay bounded."""
    step = max(1, CHUNK_PAIRS // max(1, n_atoms))
    if z.size <= step:
        return fn(z)
    return np.concatenate([fn(z[i:i + step]) for i in range(0, z.size, step)])


# ---------------------------------------------------------------------------
# Green potential sum:  out[p] = sum_k m[k] * G(z[p], a[k])
# with G(z,a) = log|1 - z*conj(a)| - log|z - a|  (>= 0 on the disk).

def green_sum(z, atoms, masses):
    if atoms.size == 0:
        return np.zeros(z.shape, dtype=np.float64)
    conj = np.conj(atoms)

    def rows(zs):
        zc = zs[:, None]
        num = np.abs(1.0 - zc * conj)
        den = np.abs(zc - atoms)
        with np.errstate(divide="ignore"):
            return (np.log(num) - np.log(den)) @ masses

    return in_row_slices(rows, z.ravel(), atoms.size).reshape(z.shape)


# ---------------------------------------------------------------------------
# Poisson kernel sum:  out[p] = sum_k m[k] * (1-|z|^2) / |zeta_k - z|^2
# with zeta_k = exp(i*angle_k) on the unit circle.

def poisson_sum(z, angles, masses):
    if angles.size == 0:
        return np.zeros(z.shape, dtype=np.float64)
    zeta = np.exp(1j * angles)

    def rows(zs):
        zc = zs[:, None]
        return ((1.0 - np.abs(zc) ** 2) / np.abs(zeta - zc) ** 2) @ masses

    return in_row_slices(rows, z.ravel(), angles.size).reshape(z.shape)


# ---------------------------------------------------------------------------
# Outer-function exponent:  out[p] = sum_J m[J] * u[J] / (a[J] - z[p])
# (complex; u[J] unimodular direction, a[J] anchor outside or on the circle).

def outer_exponent(z, anchors, dirs, masses):
    if anchors.size == 0:
        return np.zeros(z.shape, dtype=np.complex128)
    weights = dirs * masses

    def rows(zs):
        return (weights / (anchors - zs[:, None])).sum(axis=1)

    return in_row_slices(rows, z.ravel(), anchors.size).reshape(z.shape)


# ---------------------------------------------------------------------------
# Exact subset scan for max_star_mass: over all nonempty subsets S of
# angle-sorted boundary atoms, maximize sum of masses subject to the
# entropy of the point set {angles[i] : i in S} being <= budget.
# Returns (best_mass, best_mask); ties keep the smallest bitmask.
#
# The arrays are indexed by mask. Step k appends every subset of atoms
# 0..k-1 extended by atom k, carrying its mass, first and last atom and
# open-chain entropy c(i1,i2) + c(i2,i3) + ...; closing the chain with
# c(last, first) gives the point set's entropy (0 for a singleton).

ENTROPY_SLACK = 1e-12


def subset_entropy_scan(angles, masses, budget):
    n = angles.size
    c = np.zeros((n, n))  # c[i, j]: entropy of the gap from atom i to atom j
    for i in range(n):
        for j in range(n):
            if i != j:
                d = angles[j] - angles[i]
                if d <= 0.0:
                    d += TAU
                ell = d / TAU
                c[i, j] = -ell * np.log(ell)
    total = np.zeros(1)
    chain = np.zeros(1)
    first = np.zeros(1, dtype=np.intp)
    last = np.zeros(1, dtype=np.intp)
    for k in range(n):
        chain_k = chain + c[last, k]
        first_k = first.copy()
        chain_k[0], first_k[0] = 0.0, k  # the empty set grows into {k}
        total = np.concatenate([total, total + masses[k]])
        chain = np.concatenate([chain, chain_k])
        first = np.concatenate([first, first_k])
        last = np.concatenate([last, np.full(last.size, k)])
    ent = chain + c[last, first]
    ok = ent <= budget + ENTROPY_SLACK
    ok[0] = False  # the empty set
    score = np.where(ok, total, -1.0)
    best = int(np.argmax(score))  # argmax keeps the first (smallest) mask on ties
    if score[best] < 0.0:
        return 0.0, 0
    return float(total[best]), best
