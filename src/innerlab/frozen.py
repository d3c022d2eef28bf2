"""Frozen calibration constants.

Values measured once on the seeded corpora in calibration.py and the
acceptance suite (benchmarks/calibrate.py regenerates them); the
regression criteria guard measured values against frozen * 1.05.
"""

# worst log(1/|I|) / (M exp(-d(z, K^2))) on the decay corpus
HYPERBOLIC_DECAY_RATIO = 1.3270691618718486

# worst (1-|F|)/(1-|z|) * dist^4 outside the order-4 star, and
# worst |F'(zeta)| * dist^4 on the circle, over the critical-structure corpus
ORDER4_DISK_RATIO = 24.843756151973192
ORDER4_CIRCLE_RATIO = 25.30451028896417

# gamma / c band for the layer comparison exponents
COMPARISON_BAND_LO = 3.5
COMPARISON_BAND_HI = 5.0

# star area integral / entropy over the equally-spaced corpus
STAR_AREA_BAND_LO = 2.5
STAR_AREA_BAND_HI = 4.8

# sup |Phi_E| * dist^-3 near E over the outer corpus
OUTER_DECAY_ORDER3 = 0.000215492521039

# distance floor for the prototype singular generator (m = 20, alpha = 0)
SINGULAR_DISTANCE_FLOOR = 1.0
