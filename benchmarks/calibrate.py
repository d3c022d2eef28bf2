#!/usr/bin/env python3
"""Regenerate the frozen calibration constants (src/innerlab/frozen.py).

Prints the measured values from the seeded corpora; paste them into
frozen.py after an intentional change to the corpora or the estimators.
"""

import math

import numpy as np

from innerlab.bc_sets import TAU, BCSet, StarSpec, star_area_integral
from innerlab.bergman import BergmanSpaceSpec, distance_to_one
from innerlab.calibration import comparison_exponents, hyperbolic_decay_ratio, order4_decay_ratios
from innerlab.inner import InnerFunctionRep
from innerlab.outer import OuterSpec, decay_profile


def main():
    print(f"HYPERBOLIC_DECAY_RATIO = {hyperbolic_decay_ratio()!r}")
    disk, circle = order4_decay_ratios()
    print(f"ORDER4_DISK_RATIO = {disk!r}")
    print(f"ORDER4_CIRCLE_RATIO = {circle!r}")
    ratios = [g / c for c, g in comparison_exponents()]
    print(f"# comparison gamma/c measured: {[round(r, 4) for r in ratios]}")
    band = []
    for n in (2, 4, 8, 16, 32):
        e = BCSet.from_points([TAU * k / n for k in range(n)])
        band.append(star_area_integral(StarSpec(e), 35, 16) / e.entropy())
    print(f"# star area/entropy measured band: [{min(band):.6f}, {max(band):.6f}]")
    e = BCSet.from_points([0.0, 2.2, math.pi, 4.8])
    print(f"OUTER_DECAY_ORDER3 = {decay_profile(OuterSpec(e, 20), orders=(3,))[3]!r}")
    spec = BergmanSpaceSpec(n_r=160, n_theta=512)
    d, _ = distance_to_one(InnerFunctionRep(singular_atoms=[(0.0, 1.0)]), 20, spec)
    print(f"# singular generator distance measured: {d!r} (floor stays below it)")


if __name__ == "__main__":
    main()
