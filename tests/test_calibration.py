import numpy as np
import pytest

from innerlab.bc_sets import TAU, BCSet, StarSpec, star_contains
from innerlab.calibration import _probes_outside


def probes_one_at_a_time(rng, spec, count):
    """One (radius, angle) draw and one membership test per candidate."""
    out = []
    tries = 0
    while len(out) < count and tries < 60 * count:
        tries += 1
        z = complex(rng.uniform(0.05, 0.995) * np.exp(1j * rng.uniform(0, TAU)))
        if not star_contains(spec, z):
            out.append(z)
    return np.array(out, dtype=np.complex128)


DENSE = BCSet.from_points(np.arange(256) * (TAU / 256))
CASES = {
    "order-2": (StarSpec(BCSet.from_points([0.5, 2.0, 4.0]), order=2.0), 120),
    "order-4": (StarSpec(BCSet.from_points([1.0, 3.0, 5.5]), order=4.0), 150),
    # a star over 256 points leaves almost nothing outside: the 60*count cap ends the search
    "cap": (StarSpec(DENSE, order=1.0), 5),
}


@pytest.mark.parametrize("case", list(CASES))
def test_matches_per_draw_loop(case):
    spec, count = CASES[case]
    for seed in (0, 3):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = probes_one_at_a_time(ref_rng, spec, count)
        got = _probes_outside(rng, spec, count)
        assert (len(want) < count) == (case == "cap")
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()
