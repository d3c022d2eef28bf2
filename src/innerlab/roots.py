"""Polynomial roots as companion-matrix eigenvalues, polished by Newton.

Coefficients are ascending: p(z) = c[0] + c[1] z + ... + c[n] z^n.
Exact zero coefficients are stripped first: high-order ones lower the
degree, low-order ones are exact roots at 0. numpy's `polyroots` takes the
eigenvalues of the companion matrix, which is backward stable (Edelman and
Murakami, Math. Comp. 64, 1995); one Newton step z - p(z)/p'(z) on every
root then refines it against the coefficients themselves.

Multiplicity detection clusters roots at radius 1e-7. That recovers
exact-coefficient multiplicities (which arrive here as stripped zeros or
exactly repeated factors); the approximants of an inexactly-multiple root of
order m scatter like error^(1/m) and are reported as a nearby simple
cluster, which downstream multiplicity-agnostic sums (entropy, Green sums)
absorb with no loss.
"""

import numpy as np
from numpy.polynomial.polynomial import polyder, polyroots, polyval

CLUSTER_RADIUS = 1e-7


class RootFindingError(RuntimeError):
    pass


def all_roots(coeffs) -> np.ndarray:
    """All complex roots of the polynomial, multiplicities repeated."""
    c = np.asarray(coeffs, dtype=np.complex128)
    nonzero = np.flatnonzero(c)
    if nonzero.size == 0:
        raise ValueError("zero polynomial has no well-defined roots")
    lo, hi = nonzero[0], nonzero[-1]
    c = c[lo : hi + 1]
    z = polyroots(c)
    z = z - polyval(z, c) / polyval(z, polyder(c))
    return np.concatenate([np.zeros(lo, dtype=np.complex128), z])


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
