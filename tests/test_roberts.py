import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from innerlab.acceptance import _random_measure
from innerlab.bc_sets import TAU, StarSpec, _norm_angle, star_contains
from innerlab.measures import DiskMeasure
from innerlab.roberts import (
    InvariantViolation,
    RobertsParams,
    decompose,
    local_entropy_bounds,
    verify,
)

LOG2 = math.log(2.0)


def random_measure(rng, n_interior=4, n_boundary=4):
    interior = [
        (r * np.exp(1j * a), m)
        for r, a, m in zip(
            rng.uniform(0, 0.999, n_interior),
            rng.uniform(0, TAU, n_interior),
            rng.uniform(0.05, 1.0, n_interior),
        )
    ]
    boundary = [
        (a, m)
        for a, m in zip(rng.uniform(0, TAU, n_boundary), rng.uniform(0.05, 1.0, n_boundary))
    ]
    return DiskMeasure(interior, boundary)


class TestParams:
    def test_scaling_rule(self):
        p = RobertsParams(n2=16, max_generation=4)
        assert p.n_arcs(2) == 16
        assert p.n_arcs(3) == 256
        assert p.n_arcs(4) == 65536
        assert p.radius(1) == 1 - 0.25
        assert p.radius(2) == 1 - 1 / 16

    def test_validation(self):
        for c in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                RobertsParams(c=c)
        with pytest.raises(ValueError):
            RobertsParams(n2=12)
        with pytest.raises(ValueError):
            RobertsParams(max_generation=1)
        with pytest.raises(ValueError):
            RobertsParams(n2=65536, max_generation=6)


class TestHandTrace:
    def test_delta_one(self):
        om = DiskMeasure(boundary=[(0.0, 1.0)])
        p = RobertsParams(c=1.0, n2=16, max_generation=3)
        d = decompose(om, p)
        masses = {j: m.blaschke_mass() for j, m in d.layers}
        assert masses[2] == pytest.approx(LOG2 / 4, abs=1e-15)
        assert masses[3] == pytest.approx(LOG2 / 32, abs=1e-15)
        assert d.cone.blaschke_mass() == pytest.approx(1 - 9 * LOG2 / 32, abs=1e-13)
        assert verify(d, om, p).ok
        # both thresholds hit exactly via the H2 top-up
        acts = [(e.generation, e.action) for e in d.audit]
        assert acts == [(2, "H2"), (3, "H2")]

    def test_mass_inside_step_one_ball(self):
        om = DiskMeasure(interior=[(0.3 + 0.2j, 1.0), (0.5j, 2.0)])
        p = RobertsParams(c=1.0, n2=16, max_generation=3)
        d = decompose(om, p)
        assert all(m.is_empty for _, m in d.layers)
        assert d.cone.blaschke_mass() == pytest.approx(om.blaschke_mass(), abs=1e-15)

    def test_tiny_atom_goes_light(self):
        om = DiskMeasure(boundary=[(0.1, 1e-4)])
        p = RobertsParams(c=1.0, n2=16, max_generation=3)
        d = decompose(om, p)
        layer2 = dict(d.layers)[2]
        assert layer2.blaschke_mass() == pytest.approx(1e-4, abs=1e-18)
        assert d.cone.is_empty

    def test_underflowed_interior_weight_is_dropped(self):
        # (1 - 0.9) * 5e-324 underflows to 0: the atom carries no weight to place
        om = DiskMeasure(interior=[(0.9, 5e-324)], boundary=[(0.0, 1.0)])
        p = RobertsParams(c=1.0)
        d = decompose(om, p)
        assert all(not m.interior for _, m in d.layers) and not d.cone.interior
        assert verify(d, om, p).ok


class TestVerifyCorpus:
    def test_seeded_corpus_passes(self):
        rng = np.random.default_rng(1234)
        p = RobertsParams(c=0.7, n2=16, max_generation=3)
        for _ in range(30):
            om = random_measure(rng, int(rng.integers(0, 6)), int(rng.integers(0, 6)))
            if om.is_empty:
                continue
            d = decompose(om, p)
            rep = verify(d, om, p)
            assert rep.ok, rep.failures

    def test_negative_control_moved_atom(self):
        om = DiskMeasure(boundary=[(0.0, 1.0)])
        p = RobertsParams(c=1.0, n2=16, max_generation=3)
        d = decompose(om, p)
        # corrupt: push a layer atom inside the forbidden annulus
        j, layer = d.layers[1]
        bad = DiskMeasure(interior=[(0.5, layer.blaschke_mass() / 0.5)])
        d.layers[1] = (j, bad)
        rep = verify(d, om, p)
        assert not rep.ok
        assert any("radius" in f for f in rep.failures)

    def test_negative_control_displaced_cone_atom(self):
        om = DiskMeasure(boundary=[(0.0, 1.0)])
        p = RobertsParams(c=1.0, n2=16, max_generation=3)
        d = decompose(om, p)
        # move the cone's boundary mass to an uncovered angle deep inside a gap
        d.cone = DiskMeasure(boundary=[(0.0 + TAU * 3.5 / 16, d.cone.blaschke_mass())])
        rep = verify(d, om, p)
        assert not rep.ok
        assert any("E_cone" in f or "star" in f for f in rep.failures)


def sliding_arc_failures(d, p):
    """verify's sliding-arc failures by the direct O(P^2) loop."""
    failures = []
    for j, layer in d.layers:
        cap = 2.0 * p.threshold(j)
        pts = list(layer.boundary)
        pts += [
            (_norm_angle(math.atan2(a.imag, a.real)), (1.0 - abs(a)) * mt) for a, mt in layer.interior
        ]
        width = TAU / p.n_arcs(j)
        for ang0, _ in pts:
            s = math.fsum(m for ang, m in pts if (ang - ang0) % TAU < width)
            if s > cap + 1e-12:
                failures.append(f"layer {j}: sliding arc at {ang0:.4f} carries {s:.6g} > {cap:.6g}")
                break
    return failures


# a generation-2 layer holds 0.17 at angle 0.2 (c = 1, n2 = 16): added
# atoms take it over the cap 2 log(16)/16 = 0.35 in some arc of width
# TAU/16 = 0.39; boundary atoms come first in verify's order. Each case
# ends with the angle of the first arc verify reports
OVER_CAP = {
    # the arcs from 1.0 and from 1.1 are both over the cap: the first in
    # verify's order is the boundary atom's, not the smaller angle's
    "inside-one-arc": ([(1.1, 0.2), (1.2, 0.2)], [(0.9 * np.exp(1.0j), 2.0)], 1.1),
    "straddling-2pi": ([(TAU - 0.1, 0.2)], [], TAU - 0.1),
    # atan2 % TAU rounds the angle of 0.9 - 1e-17j up to TAU; it counts at
    # angle 0.0, with the atom 0.9, where the arc is over the cap
    "angle-tau": ([(0.3, 0.1)], [(0.9 - 1e-17j, 3.0), (0.9 + 0j, 0.5)], 0.0),
}


@pytest.mark.parametrize("boundary,interior,first_arc", OVER_CAP.values(), ids=OVER_CAP.keys())
def test_over_cap_layer_fails_as_the_direct_loop(boundary, interior, first_arc):
    om = DiskMeasure(boundary=[(0.2, 1.0)])
    p = RobertsParams(c=1.0, n2=16, max_generation=3)
    d = decompose(om, p)
    assert verify(d, om, p).ok
    extra = DiskMeasure(interior, boundary)
    j, layer = d.layers[0]
    assert j == 2
    d.layers[0] = (j, layer + extra)
    rep = verify(d, om + extra, p)
    assert not rep.ok
    assert rep.failures == sliding_arc_failures(d, p)
    assert rep.failures[0].startswith(f"layer 2: sliding arc at {first_arc:.4f} carries")


class TestStructure:
    def test_cone_monotone_in_c(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            om = random_measure(rng, 3, 3)
            masses = []
            for c in (0.25, 0.5, 1.0, 2.0, 4.0):
                d = decompose(om, RobertsParams(c=c, n2=16, max_generation=3))
                masses.append(d.cone.blaschke_mass())
            assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))

    def test_determinism(self):
        rng = np.random.default_rng(9)
        om = random_measure(rng, 5, 5)
        p = RobertsParams(c=0.8, n2=16, max_generation=3)
        d1, d2 = decompose(om, p), decompose(om, p)
        assert d1.audit == d2.audit
        assert d1.cone.interior == d2.cone.interior
        assert d1.cone.boundary == d2.cone.boundary
        assert d1.cone_set == d2.cone_set

    def test_partition_points_always_present(self):
        # every generation-2 partition point survives into E*_cone
        rng = np.random.default_rng(21)
        om = random_measure(rng, 2, 2)
        p = RobertsParams(c=1.0, n2=16, max_generation=3)
        d = decompose(om, p)
        for k in range(16):
            assert d.star_core_set.contains_angle(TAU * k / 16, tol=1e-12)

    def test_local_entropy_bounds(self):
        om = DiskMeasure(boundary=[(0.0, 1.0)])
        vals = []
        for c in (0.5, 1.0, 2.0):
            d = decompose(om, RobertsParams(c=c, n2=16, max_generation=3))
            vals.append(local_entropy_bounds(d))
        # both entropies finite and decreasing as c grows
        stars, cones = zip(*vals)
        assert all(s >= 0 for s in stars)
        assert stars[0] >= stars[-1] - 1e-12
        assert cones[0] >= cones[-1] - 1e-12

    def test_local_entropy_empty_measure(self):
        d = decompose(DiskMeasure(), RobertsParams(c=1.0, n2=16, max_generation=2))
        assert local_entropy_bounds(d) == (0.0, 0.0)

    def test_spread_light_measure_keeps_cone_empty(self):
        # mass spread thinly over every arc: all light, E* has no short gaps
        om = DiskMeasure(boundary=[(TAU * (k + 0.31) / 16, 1e-3) for k in range(16)])
        p = RobertsParams(c=1.0, n2=16, max_generation=3)
        d = decompose(om, p)
        assert d.cone.is_empty
        assert local_entropy_bounds(d) == (0.0, 0.0)

    def test_eq44_sliding_bound_via_verify(self):
        rng = np.random.default_rng(4321)
        p = RobertsParams(c=0.3, n2=16, max_generation=3)
        for _ in range(10):
            om = random_measure(rng, 6, 6)
            d = decompose(om, p)
            assert verify(d, om, p).ok

    def test_heavy_boxes_inside_star(self):
        # H1 cone boxes land in the genuine star over E_cone
        om = DiskMeasure(
            boundary=[(0.05, 0.5)],
            interior=[(0.94 * np.exp(0.05j), 60.0)],  # heavy annulus box at gen 2
        )
        p = RobertsParams(c=0.5, n2=16, max_generation=3)
        d = decompose(om, p)
        acts = {e.action for e in d.audit}
        assert "H1" in acts
        spec = StarSpec(d.cone_set)
        for a, _ in d.cone.interior:
            assert star_contains(spec, a, tol=1e-9)


# ---------------------------------------------------------------------------
# E*_cone and E_cone against an exact oracle in Fractions


def fraction_cone_sets(d, p):
    """(E*_cone, E_cone) gaps as float (start, length), rebuilt from the heavy
    arcs with Fractions: the light arcs are the candidates of each generation
    that are not heavy, and every light arc is cut at the anchor points
    strictly inside it, skipping empty pieces."""
    heavy = set(d.heavy_intervals)
    light, candidates = [], [(2, k) for k in range(p.n_arcs(2))]
    for j in range(2, p.max_generation + 1):
        light += [c for c in candidates if c not in heavy]
        scale = p.n_arcs(j + 1) // p.n_arcs(j) if j < p.max_generation else 0
        candidates = [(j + 1, k * scale + i) for c, k in candidates if (c, k) in heavy for i in range(scale)]
    rational_gaps = [(Fraction(k, p.n_arcs(j)), Fraction(1, p.n_arcs(j))) for j, k in light]
    points = sorted(
        Fraction(10 * k + i, 10 * p.n_arcs(j)) for j, k in d.heavy_intervals for i in range(1, 9)
    )
    cut_gaps = []
    for lo, span in rational_gaps:
        inside = [q for q in points if lo < q < lo + span]
        cuts = [lo] + inside + [lo + span]
        cut_gaps += [(a, b - a) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]

    def as_floats(gaps):
        return sorted((TAU * float(lo), float(span)) for lo, span in gaps)

    return as_floats(rational_gaps), as_floats(cut_gaps), len(points) - len(set(points))


def bits(circle_set):
    return [(start.hex(), length.hex()) for start, length in circle_set.gaps.tolist()]


@pytest.mark.parametrize(
    "om,p,shared_anchors",
    [
        # anchor tenths of generations 2 and 3 coincide inside later light arcs
        (_random_measure(np.random.default_rng(0), 20, 20, r_max=0.999),
         RobertsParams(c=0.7, n2=16, max_generation=4), True),
        # criterion 05's hand trace
        (DiskMeasure(boundary=[(0.0, 1.0)]), RobertsParams(c=1.0, n2=16, max_generation=3), False),
    ],
    ids=["generation-4", "hand-trace"],
)
def test_cone_sets_match_fraction_oracle(om, p, shared_anchors):
    d = decompose(om, p)
    star_core, cone, repeats = fraction_cone_sets(d, p)
    assert (repeats > 0) == shared_anchors
    assert bits(d.star_core_set) == [(a.hex(), b.hex()) for a, b in star_core]
    assert bits(d.cone_set) == [(a.hex(), b.hex()) for a, b in cone]


# ---------------------------------------------------------------------------
# every output of decompose, pinned bit for bit


def criterion_05_corpus():
    p = RobertsParams(c=0.7, n2=16, max_generation=3)
    rng = np.random.default_rng(1234)
    for _ in range(50):
        om = _random_measure(rng, int(rng.integers(0, 6)), int(rng.integers(0, 6)), r_max=0.999)
        if om.is_empty:
            om = DiskMeasure(boundary=[(float(rng.uniform(0, TAU)), 0.5)])
        yield om, p


def generation_4():
    om = _random_measure(np.random.default_rng(0), 20, 20, r_max=0.999)
    yield om, RobertsParams(c=0.7, n2=16, max_generation=4)


# (inputs, SHA-256 of the outputs, audit actions); the action counts show
# which branches of decompose each digest covers
DIGESTS = {
    "criterion-05": (
        criterion_05_corpus,
        "23f84f86c5f7c257a27925db93ea279201707d3ee076b19701b69bdc02bd6693",
        {"L": 61, "H1": 3, "H2": 205},
    ),
    "generation-4": (
        generation_4,
        "ff637d85725d62b52982d36717708d4dfd9aad076967e3c776821b2c45689b2a",
        {"L": 3, "H2": 45},
    ),
}


@pytest.mark.parametrize("inputs,digest,actions", DIGESTS.values(), ids=DIGESTS.keys())
def test_outputs_match_pinned_digest(inputs, digest, actions):
    h, seen = hashlib.sha256(), {}
    for om, p in inputs():
        d = decompose(om, p)
        for e in d.audit:
            seen[e.action] = seen.get(e.action, 0) + 1
        h.update(repr((
            [(j, m.interior, m.boundary) for j, m in d.layers],
            (d.cone.interior, d.cone.boundary),
            d.star_core_set.gaps.tolist(),
            d.cone_set.gaps.tolist(),
            d.audit,
            d.heavy_intervals,
        )).encode())
    assert seen == actions
    assert h.hexdigest() == digest
