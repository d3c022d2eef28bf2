import math
import tracemalloc

import numpy as np
import pytest

from innerlab import kernels
from innerlab.bc_sets import TAU, BCSet
from innerlab.outer import OuterSpec, _lambda, decay_profile, profile_phi, subdivide


def two_point_set():
    return BCSet.from_points([0.0, math.pi])


class TestSubdivide:
    def test_middle_third_and_sides(self):
        e = BCSet.from_points([0.0])  # one gap of full length
        _, k, _, w = subdivide(e, depth=3)
        length = dict(zip(k.tolist(), (w / TAU).tolist()))
        assert length[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert length[-1] == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert length[1] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_order_within_each_gap(self):
        gap, k, _, _ = subdivide(two_point_set(), 3)
        assert gap.tolist() == [0] * 7 + [1] * 7
        assert k.tolist() == [0, -1, 1, -2, 2, -3, 3] * 2

    def test_pieces_disjoint_and_fill(self):
        e = two_point_set()
        for depth in (5, 12):
            gap, _, start, w = subdivide(e, depth)
            order = np.argsort(start[gap == 0])
            start, w = start[gap == 0][order], w[gap == 0][order]
            assert np.all(start[:-1] + w[:-1] <= start[1:] + 1e-12)
            total = sum((w / TAU).tolist())
            gap_len = e.gaps[0, 1]
            tail = 2.0 * gap_len / (3.0 * 2.0 ** depth)
            assert total == pytest.approx(gap_len - tail, abs=1e-13)

    def test_distance_to_set_equals_length(self):
        e = two_point_set()
        _, k, start, w = subdivide(e, 8)
        start, w = start[k != 0], w[k != 0]
        d_left = (start - 0.0) % TAU
        d_right = (math.pi - (start + w)) % TAU
        d = np.minimum(d_left % math.pi, d_right % math.pi) / TAU
        assert d == pytest.approx(w / TAU, rel=1e-9)


class TestWeights:
    def test_profile_clamps(self):
        assert profile_phi(0.5) == 1.0
        assert profile_phi(5.0) == 5.0

    def test_lambda_values(self):
        e = two_point_set()
        ell = subdivide(e, 25)[3] / TAU
        lam = _lambda(ell)
        assert np.all(lam[ell > math.exp(-1)] == 1.0)
        short = ell < math.exp(-2)
        assert lam[short] == pytest.approx([math.log(1 / x) for x in ell[short]], rel=1e-12)
        assert np.all(lam >= 1.0)


def piece_by_piece(e, depth):
    """(anchors, dirs, masses) built one piece and one gap end at a time."""
    anchors, dirs, masses = [], [], []
    for gap_start, gap_len in e.gaps.tolist():
        length = gap_len * TAU
        pieces = [(gap_start + length / 3.0, length / 3.0)]
        for k in range(1, depth + 1):
            piece = length / (3.0 * 2.0 ** k)
            pieces += [(gap_start + piece, piece), (gap_start + length - 2.0 * piece, piece)]
        for start, w in pieces:
            ell = w / TAU
            direction = np.exp(1j * (start + 0.5 * w))
            anchors.append((math.cos(0.5 * w) + math.sin(0.5 * w)) * direction)
            dirs.append(direction)
            masses.append(float(profile_phi(np.log(1.0 / ell))) * ell * math.log(1.0 / ell))
    for gap_start, gap_len in e.gaps.tolist():
        tail, k = 0.0, depth + 1
        while (ell := gap_len / (3.0 * 2.0 ** k)) >= 1e-280:
            lg = math.log(1.0 / ell)
            tail += float(profile_phi(lg)) * ell * lg
            k += 1
        for endpoint in (gap_start, gap_start + gap_len * TAU):
            anchors.append(np.exp(1j * endpoint))
            dirs.append(np.exp(1j * endpoint))
            masses.append(tail)
    return np.array(anchors), np.array(dirs), np.array(masses)


_SEEDED = np.random.default_rng(1212)
OUTER_SETS = {
    "criterion-10": [0.0, 2.2, math.pi, 4.8],
    "two-point": [0.0, math.pi],
    **{f"seeded-{n}": _SEEDED.uniform(0, TAU, n).tolist() for n in (3, 8, 21, 50)},
}


@pytest.mark.parametrize("depth", [20, 30])
@pytest.mark.parametrize("points", OUTER_SETS.values(), ids=OUTER_SETS.keys())
def test_spec_equals_piece_by_piece_construction(points, depth):
    e = BCSet.from_points(points)
    spec = OuterSpec(e, depth)
    anchors, dirs, masses = piece_by_piece(e, depth)
    np.testing.assert_array_equal(spec.anchors, anchors)
    np.testing.assert_array_equal(spec.dirs, dirs)
    np.testing.assert_array_equal(spec.masses, masses)


def test_spec_memory_linear_in_pieces():
    # 64 gaps at depth 20 are 2,624 pieces: a pieces x pieces matrix of
    # float64 alone would take 55 MB
    e = BCSet.from_points([TAU * k / 64 for k in range(64)])
    tracemalloc.start()
    try:
        OuterSpec(e, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def disk_points(n, seed):
    rng = np.random.default_rng(seed)
    return 0.99 * np.sqrt(rng.uniform(0, 1, n)) * np.exp(1j * rng.uniform(0, TAU, n))


@pytest.mark.parametrize("points", OUTER_SETS.values(), ids=OUTER_SETS.keys())
def test_exponent_slices_equal_one_broadcast(points):
    spec = OuterSpec(BCSet.from_points(points), 20)
    # three full row slices and a short one
    z = disk_points(3 * (kernels.CHUNK_PAIRS // spec.anchors.size) + 7, len(points))
    one_shot = ((spec.dirs * spec.masses) / (spec.anchors - z[:, None])).sum(axis=-1)
    np.testing.assert_array_equal(spec.exponent(z), one_shot)
    grid_z, grid_phi = z[:-1].reshape(3, -1), np.exp(-one_shot[:-1]).reshape(3, -1)
    np.testing.assert_array_equal(spec(grid_z), grid_phi)


def test_exponent_memory_bounded_in_points():
    # 100 points at depth 30 are 6,300 anchors: one broadcast of 3,000
    # points would build two complex temporaries of 302 MB each
    spec = OuterSpec(BCSet.from_points(np.random.default_rng(3).uniform(0, TAU, 100).tolist()), 30)
    z = disk_points(3000, 3)
    tracemalloc.start()
    try:
        spec.exponent(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


class TestPhi:
    def test_modulus_bounded_by_one(self):
        spec = OuterSpec(two_point_set(), depth=20)
        rng = np.random.default_rng(17)
        z = rng.uniform(0, 0.999, 400) * np.exp(1j * rng.uniform(0, TAU, 400))
        assert np.all(np.abs(spec(z)) <= 1.0 + 1e-14)

    def test_vanishes_fast_near_set(self):
        spec = OuterSpec(two_point_set(), depth=20)
        prof = decay_profile(spec, orders=(1, 2, 3))
        assert all(np.isfinite(v) for v in prof.values())
        # farther from E the function recovers: vanishing is localized
        assert abs(spec(0.0)) > 1e-4

    def test_truncation_stability(self):
        e = two_point_set()
        s20, s30 = OuterSpec(e, 20), OuterSpec(e, 30)
        rng = np.random.default_rng(3)
        z = rng.uniform(0, 0.99, 300) * np.exp(1j * rng.uniform(0, TAU, 300))
        assert float(np.max(np.abs(s20(z) - s30(z)))) < 1e-8

    def test_continuity_in_the_set(self):
        base = BCSet.from_points([0.0, math.pi])
        spec0 = OuterSpec(base, 20)
        probes = np.array([0.2 + 0.1j, -0.4j, 0.5 * np.exp(2.3j)])
        prev = None
        for eps in (0.1, 0.02, 0.004):
            spec = OuterSpec(BCSet.from_points([0.0, math.pi + eps]), 20)
            diff = float(np.max(np.abs(spec(probes) - spec0(probes))))
            if prev is not None:
                assert diff < prev
            prev = diff
        assert prev < 5e-3

    def test_log_domain_stability(self):
        spec = OuterSpec(two_point_set(), depth=20)
        z = (1 - 1e-6) * np.exp(1j * 1e-6)  # close to the set point at angle 0
        la = spec.log_abs(z)
        assert np.isfinite(la)
        assert la < -10.0  # deep vanishing yet representable in logs


def test_high_order_decay_stable_under_refinement():
    e = two_point_set()
    prof20 = decay_profile(OuterSpec(e, 20), orders=(5,))[5]
    prof30 = decay_profile(OuterSpec(e, 30), orders=(5,))[5]
    assert np.isfinite(prof20)
    assert prof20 == pytest.approx(prof30, rel=1e-6)
