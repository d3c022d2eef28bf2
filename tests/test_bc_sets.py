import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from innerlab import bc_sets
from innerlab.bc_sets import (
    CORE_RADIUS,
    TAU,
    BCSet,
    StarSpec,
    arc_gap_entropy,
    dist_angle_to_set,
    hyperbolic_dist,
    hyperbolic_dist_to_star,
    star_area_integral,
    star_contains,
)

LOG2 = math.log(2.0)


def equally_spaced(n):
    return BCSet.from_points([TAU * k / n for k in range(n)])


class TestEntropy:
    def test_single_point(self):
        e = BCSet.from_points([0.0])
        assert e.entropy() == 0.0

    def test_two_antipodal(self):
        e = BCSet.from_points([0.0, math.pi])
        assert e.entropy() == pytest.approx(LOG2, abs=1e-15)

    def test_equally_spaced_closed_form(self):
        # brute-force sum over gaps against the closed form n*(1/n)*log n
        for n in (2, 3, 5, 8, 17, 64):
            e = equally_spaced(n)
            brute = math.fsum(-x * math.log(x) for x in e.gaps[:, 1].tolist())
            assert e.entropy() == pytest.approx(brute, abs=1e-15)
            assert e.entropy() == pytest.approx(math.log(n), abs=1e-12)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, TAU, size=9)
        e = BCSet.from_points(pts)
        for delta in (0.3, 1.7, -2.2):
            assert BCSet.from_points(pts + delta).entropy() == pytest.approx(e.entropy(), abs=1e-12)

    @given(st.lists(st.floats(0, TAU - 1e-9), min_size=1, max_size=12),
           st.floats(1e-3, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_local_entropy_bounds(self, pts, eta):
        e = BCSet.from_points(pts)
        le = e.local_entropy(eta)
        assert 0.0 <= le <= e.entropy() + 1e-15
        assert le <= e.local_entropy(min(1.0, eta * 2)) + 1e-15  # nondecreasing


class TestLocalEntropy:
    def test_antipodal_thresholds(self):
        e = BCSet.from_points([0.0, math.pi])
        assert e.local_entropy(0.6) == pytest.approx(LOG2, abs=1e-15)
        assert e.local_entropy(0.4) == 0.0

    def test_eight_points(self):
        e = equally_spaced(8)
        assert e.local_entropy(0.2) == pytest.approx(3 * LOG2, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, -0.5, math.nan])
    def test_rejects_threshold_not_positive(self, eta):
        with pytest.raises(ValueError, match="threshold must be positive"):
            equally_spaced(8).local_entropy(eta)


class TestArcGapEntropy:
    def test_subadditivity_in_arc(self):
        # entropy of the union complement within an arc is subadditive
        rng = np.random.default_rng(11)
        a, b = 0.3, 2.9
        for _ in range(200):
            f1 = rng.uniform(a, b, size=rng.integers(1, 9))
            f2 = rng.uniform(a, b, size=rng.integers(1, 9))
            lhs = arc_gap_entropy(np.concatenate([f1, f2]), a, b)
            rhs = arc_gap_entropy(f1, a, b) + arc_gap_entropy(f2, a, b)
            assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize(
        "arc_start,arc_end",
        [(math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0), (0.0, math.inf), (1.0, 1.0)],
        ids=["nan-start", "nan-end", "minus-inf-start", "inf-end", "equal"],
    )
    def test_rejects_arc_not_finite_and_increasing(self, arc_start, arc_end):
        with pytest.raises(ValueError, match="need finite arc_start < arc_end"):
            arc_gap_entropy([0.5], arc_start, arc_end)

    @pytest.mark.parametrize("point", [math.nan, math.inf])
    def test_rejects_point_not_finite(self, point):
        with pytest.raises(ValueError, match="points must be finite"):
            arc_gap_entropy([0.5, point], 0.0, 1.0)


class TestDist:
    def test_point_in_set(self):
        e = BCSet.from_points([0.4, 2.0])
        assert dist_angle_to_set(0.4, e) == 0.0
        assert dist_angle_to_set(2.0, e) == 0.0

    def test_chord_formula(self):
        e = BCSet.from_points([0.0])
        got = dist_angle_to_set(0.3, e)
        assert got == pytest.approx(2 * math.sin(0.15), abs=1e-14)
        assert got == pytest.approx(abs(np.exp(0.3j) - 1), abs=1e-14)

    def test_symmetric_pair(self):
        e = BCSet.from_points([0.0, math.pi])
        assert dist_angle_to_set(0.5 * math.pi, e) == pytest.approx(math.sqrt(2), abs=1e-14)

    def test_atan2_range(self):
        # star_contains passes angles in (-pi, pi]; the gap across angle 0
        # must measure them the same as their normalized copies
        e = BCSet.from_points([0.5, 2.0, 4.0])
        for phi in (-0.3, -1.5, -math.pi + 0.01, 0.2):
            assert dist_angle_to_set(phi, e) == pytest.approx(
                dist_angle_to_set(phi % TAU, e), abs=1e-14
            )
        assert dist_angle_to_set(-0.3, e) == pytest.approx(
            abs(np.exp(-0.3j) - np.exp(0.5j)), abs=1e-14
        )


class TestStar:
    def test_radial_point_above_base(self):
        spec = StarSpec(BCSet.from_points([0.0]))
        assert star_contains(spec, 0.9)

    def test_rotated_point_excluded(self):
        spec = StarSpec(BCSet.from_points([0.0]))
        assert not star_contains(spec, 0.9 * np.exp(0.3j))

    @pytest.mark.parametrize("order", [0.5, -1.0, math.nan])
    def test_rejects_order_below_one(self, order):
        with pytest.raises(ValueError, match="order must be >= 1"):
            StarSpec(BCSet.from_points([0.0]), order=order)

    def test_origin_is_core(self):
        spec = StarSpec(BCSet.from_points([2.0]))
        assert star_contains(spec, 0.0)

    def test_monotone_in_order(self):
        # order up enlarges where dist <= 1 and shrinks where dist >= 1
        # (pointwise implication of the inequality)
        base = BCSet.from_points([0.0, 2.0, 4.0])
        rng = np.random.default_rng(9)
        zs = rng.uniform(0.05, 0.99, 120) * np.exp(1j * rng.uniform(0, TAU, 120))
        for z in zs:
            in_1 = star_contains(StarSpec(base, 1.0), z)
            in_2 = star_contains(StarSpec(base, 2.0), z)
            d = dist_angle_to_set(float(np.angle(z)), base)
            if in_1 and d <= 1.0:
                assert in_2
            if in_2 and d >= 1.0:
                assert in_1

    def test_area_integral_rejects_degenerate(self):
        with pytest.raises(ValueError):
            star_area_integral(StarSpec(BCSet([], [])))

    def test_area_integral_resolution_stable(self):
        spec = StarSpec(BCSet.from_points([0.0, math.pi]))
        v1 = star_area_integral(spec, levels=30, order=12)
        v2 = star_area_integral(spec, levels=45, order=20)
        assert v1 == pytest.approx(v2, rel=1e-9)

    def test_area_integral_tracks_entropy(self):
        # comparability band across a small corpus (Lemma-style two-sided bound)
        ratios = []
        for n in (2, 4, 8, 16, 32):
            e = equally_spaced(n)
            v = star_area_integral(StarSpec(e), levels=35, order=16)
            ratios.append(v / e.entropy())
        assert max(ratios) / min(ratios) < 12.0

    def test_area_integral_converges_for_concentrating_sequence(self):
        # E_n = {0, pi, pi+eps_n} -> E = {0, pi} with entropies converging:
        # integrals converge (the extra point's contribution vanishes)
        target = BCSet.from_points([0.0, math.pi])
        limit = star_area_integral(StarSpec(target), levels=35, order=16)
        errs = []
        for eps in (0.2, 0.05, 0.01, 0.002):
            e = BCSet.from_points([0.0, math.pi, math.pi + eps])
            errs.append(abs(star_area_integral(StarSpec(e), levels=35, order=16) - limit))
        assert errs == sorted(errs, reverse=True)
        assert errs[-1] < 0.02 * limit

    @pytest.mark.parametrize(
        "points",
        [
            [TAU * k / 32 for k in range(32)],
            # two clusters: both wide gaps are cut at the same angular depth
            list(np.concatenate([np.random.default_rng(5).uniform(0.0, 0.5, 6),
                                 math.pi + np.random.default_rng(6).uniform(0.0, 0.5, 6)])),
        ],
        ids=["equally-spaced-32", "seeded-clusters"],
    )
    def test_area_integral_once_per_distinct_limit(self, monkeypatch, points):
        spec = StarSpec(BCSet.from_points(points))
        psi_cut = 2.0 * math.asin(0.5)
        limits = [min(0.5 * (x * TAU), psi_cut) for x in spec.base.gaps[:, 1].tolist()]
        want = 0.0
        for upper in limits:
            want += 2.0 * bc_sets.dyadic_gauss(
                lambda psi: bc_sets._radial_star_profile(spec, psi), upper, 35, 16
            )
        calls = []
        real = bc_sets.dyadic_gauss

        def counted(fn, upper, levels, order):
            calls.append(upper)
            return real(fn, upper, levels, order)

        monkeypatch.setattr(bc_sets, "dyadic_gauss", counted)
        assert star_area_integral(spec, 35, 16) == want
        assert sorted(calls) == sorted(set(limits))
        assert len(calls) < len(limits)


class TestHyperbolicDistToStar:
    def test_inside_is_zero(self):
        spec = StarSpec(BCSet.from_points([0.0]))
        assert hyperbolic_dist_to_star(0.9, spec) == 0.0
        assert hyperbolic_dist_to_star(0.1, spec) == 0.0  # core

    def test_outside_positive_and_refines(self):
        spec = StarSpec(BCSet.from_points([0.0]), order=2.0)
        z = 0.9 * np.exp(0.4j)  # nearer the boundary curve than the core ball
        d1 = hyperbolic_dist_to_star(z, spec, n_samples=512)
        d2 = hyperbolic_dist_to_star(z, spec, n_samples=2048)
        assert d2 > 0.0
        assert d2 <= d1 + 1e-12  # nested samples can only improve the min


# ---------------------------------------------------------------------------
# array queries against a brute-force reference: a scan over every gap with
# the scalar formulas, one angle or point at a time


def ref_norm(phi):
    q = math.fmod(phi, TAU)
    if q < 0.0:
        q += TAU
    return 0.0 if q >= TAU else q


def ref_arcs(e):
    """(start, end) of each gap, the end unwrapped past 2*pi when it wraps."""
    return [(s, s + ln * TAU) for s, ln in e.gaps.tolist()]


def ref_gap(phi, e, tol=0.0):
    """The first gap (start, end) whose interior, shrunk by tol, holds the angle phi, or None."""
    q = ref_norm(phi)
    for start, end in ref_arcs(e):
        p = q if q >= start else q + TAU
        if start + tol < p < end - tol:
            return start, end
    return None


def ref_chord(delta):
    d = abs(math.fmod(delta, TAU))
    if d > math.pi:
        d = TAU - d
    return 2.0 * math.sin(0.5 * d)


def ref_dist(phi, e):
    g = ref_gap(phi, e)
    if g is None:
        return 0.0
    start, end = g
    p = phi if phi >= start else phi + TAU
    return min(ref_chord(p - start), ref_chord(end - p))


def ref_star_contains(spec, z, tol=0.0):
    r = abs(z)
    if r < CORE_RADIUS:
        return True
    d = ref_dist(math.atan2(z.imag, z.real), spec.base)
    return (1.0 - r) + tol >= max(d - tol, 0.0) ** spec.order


def ref_hyperbolic_dist_to_star(z, spec, n_samples):
    if ref_star_contains(spec, z):
        return 0.0
    best = math.atanh(abs(z)) - math.atanh(CORE_RADIUS)
    phis = np.arange(n_samples) * (TAU / n_samples)
    d = np.array([ref_dist(p, spec.base) for p in phis])
    rho = 1.0 - d ** spec.order
    m = rho > 0.0
    if m.any():
        best = min(best, float(np.min(hyperbolic_dist(z, rho[m] * np.exp(1j * phis[m])))))
    return max(best, 0.0)


QUERY_SETS = {
    # the last gap runs from 4.0 past 2*pi to 0.5
    "wrapping": BCSet.from_points([0.5, 2.0, 4.0]),
    # every point past pi: angles in (-pi, 0) fall before the first gap
    "lower-half": BCSet.from_points([3.5, 4.0, 5.5]),
    "one-point": BCSet.from_points([1.3]),
    "full-circle": BCSet([], []),
    "sixteen": equally_spaced(16),
    "seeded": BCSet.from_points(np.random.default_rng(5).uniform(0, TAU, 9)),
}


def query_angles(e):
    """Angles in (-pi, pi] and [0, 2*pi), the gap endpoints and their turns."""
    rng = np.random.default_rng(17)
    ends = [x for s, t in ref_arcs(e) for x in (s, t, t - TAU, s - TAU)]
    fixed = [0.0, -0.0, math.pi, -math.pi + 1e-12, TAU, -1e-17, *ends]
    return np.concatenate([rng.uniform(-math.pi, math.pi, 400), rng.uniform(0, TAU, 400), fixed])


def query_points(n):
    """Points of the closed disk: the origin, the core ball, the rim."""
    rng = np.random.default_rng(23)
    ang = rng.uniform(-math.pi, math.pi, n)
    radii = np.concatenate([[0.0], rng.uniform(0, CORE_RADIUS, n // 4),
                            rng.uniform(CORE_RADIUS, 0.999, n - n // 4 - 2), [1.0]])
    return radii * np.exp(1j * ang)


def assert_scalar_calls_match(fn, xs, got):
    assert [fn(x) for x in xs] == got.tolist()


@pytest.mark.parametrize("name", QUERY_SETS)
class TestArrayQueries:
    def test_dist_angle_to_set(self, name):
        e = QUERY_SETS[name]
        phis = query_angles(e)
        got = dist_angle_to_set(phis, e)
        assert got.tolist() == [ref_dist(float(p), e) for p in phis]
        assert_scalar_calls_match(lambda p: dist_angle_to_set(float(p), e), phis, got)

    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_contains_angle(self, name, tol):
        e = QUERY_SETS[name]
        phis = query_angles(e)
        got = e.contains_angle(phis, tol=tol)
        assert got.tolist() == [ref_gap(float(p), e, tol) is None for p in phis]
        assert_scalar_calls_match(lambda p: e.contains_angle(float(p), tol=tol), phis, got)

    @pytest.mark.parametrize("order", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("tol", [0.0, 1e-9])
    def test_star_contains(self, name, order, tol):
        spec = StarSpec(QUERY_SETS[name], order)
        z = query_points(400)
        got = star_contains(spec, z, tol=tol)
        assert got.tolist() == [ref_star_contains(spec, complex(p), tol) for p in z]
        assert_scalar_calls_match(lambda p: star_contains(spec, complex(p), tol=tol), z, got)

    @pytest.mark.parametrize("order", [1.0, 2.0])
    def test_hyperbolic_dist_to_star(self, name, order):
        spec = StarSpec(QUERY_SETS[name], order)
        z = query_points(41)[:-1]  # the open disk
        got = hyperbolic_dist_to_star(z, spec, n_samples=256)
        assert got.tolist() == [ref_hyperbolic_dist_to_star(complex(p), spec, 256) for p in z]
        assert_scalar_calls_match(lambda p: hyperbolic_dist_to_star(complex(p), spec, 256), z, got)


def assert_matches_reference(z, spec, n_samples):
    got = hyperbolic_dist_to_star(z, spec, n_samples=n_samples)
    assert got.tolist() == [ref_hyperbolic_dist_to_star(complex(p), spec, n_samples) for p in z]
    return got


def points_outside(spec, n):
    """n seeded points of the open disk outside the star."""
    rng = np.random.default_rng(29)
    z = rng.uniform(0.05, 0.999, 50 * n) * np.exp(1j * rng.uniform(-math.pi, math.pi, 50 * n))
    return z[~star_contains(spec, z)][:n]


def curve_samples(e, order, scale, n_samples):
    """The samples with rho > 0 of the curve rho = 1 - scale * dist(phi, E)^order
    at n_samples equally spaced angles; a star's boundary curve has scale 1."""
    phis = np.arange(n_samples) * (TAU / n_samples)
    rho = 1.0 - scale * dist_angle_to_set(phis, e) ** order
    m = rho > 0.0
    return rho[m] * np.exp(1j * phis[m])


def assert_nearest_is_every_sample_min(z, curve):
    got = bc_sets._nearest_sample_dist(z, curve)
    assert got.tolist() == np.min(hyperbolic_dist(z[:, None], curve), axis=1).tolist()
    return got


# hyperbolic_dist's value wherever |z - c| / |1 - z conj(c)| reaches its clip
CLIPPED = float(np.arctanh(1.0 - 1e-15))


class TestNearestSamples:
    """hyperbolic_dist is evaluated only on the samples the Gram scores put
    near the best; the minimum still equals the scan over every sample."""

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 16, 32])
    @pytest.mark.parametrize("order,scale", [(1.0, 1.0), (2.0, 0.4), (4.0, 1.0)])
    def test_origin_over_equally_spaced_sets(self, n, order, scale):
        # from the origin, samples at one depth into a gap tie up to their last bits
        for n_samples in (64, 256, 1000):
            curve = curve_samples(equally_spaced(n), order, scale, n_samples)
            assert assert_nearest_is_every_sample_min(np.zeros(1, complex), curve)[0] > 0.0

    @pytest.mark.parametrize("order,scale", [(1.0, 1.0), (2.0, 1.0), (4.0, 0.5)])
    def test_beside_a_set_point_near_the_rim(self, order, scale):
        e = QUERY_SETS["wrapping"]
        offsets = np.array([1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3])
        angles = e.gaps[:, 0][:, None] + np.concatenate([offsets, -offsets])
        z = 0.999 * np.exp(1j * angles.ravel())
        assert_nearest_is_every_sample_min(z, curve_samples(e, order, scale, 512))

    @pytest.mark.parametrize(
        "spec,n_samples",
        [
            (StarSpec(QUERY_SETS["one-point"], 2.0), 256),
            # d^1000 underflows: every sample with rho > 0 lies on the circle
            (StarSpec(QUERY_SETS["one-point"], 1000.0), 16),
        ],
        ids=["to-the-rim", "curve-on-the-circle"],
    )
    def test_far_probes_reach_the_clip(self, spec, n_samples):
        radii = 1.0 - np.array([1e-3, 1e-7, 1e-9, 1e-12, 1e-15, 2.0 ** -53])
        z = (radii[:, None] * np.exp(1j * (1.3 + np.array([2.0, math.pi, 4.0])))).ravel()
        got = assert_matches_reference(z, spec, n_samples)
        assert CLIPPED in got.tolist()

    def test_n_samples_2048(self):
        spec = StarSpec(QUERY_SETS["seeded"], 4.0)
        assert_matches_reference(points_outside(spec, 32), spec, 2048)

    def test_more_probes_than_one_row_slice(self, monkeypatch):
        slices = []

        def counted(z, curve):
            slices.append(z.size)
            return nearest(z, curve)

        nearest = bc_sets._nearest_sample_dist
        monkeypatch.setattr(bc_sets, "_nearest_sample_dist", counted)
        spec = StarSpec(QUERY_SETS["wrapping"], 2.0)
        z = points_outside(spec, 150)
        assert_matches_reference(z, spec, 2048)
        assert len(slices) > 1 and sum(slices) == z.size == 150


@pytest.mark.parametrize("n_samples", [0, -1, -2048])
def test_rejects_sample_count_below_one(n_samples):
    with pytest.raises(ValueError, match="n_samples"):
        hyperbolic_dist_to_star(-0.5, StarSpec(QUERY_SETS["one-point"]), n_samples=n_samples)


def test_gap_validation():
    with pytest.raises(ValueError, match="arc length"):
        BCSet([0.0], [0.0])
    with pytest.raises(ValueError, match="arc length"):
        BCSet([0.0], [1.5])
    with pytest.raises(ValueError, match="gap arcs overlap$"):
        BCSet([0.0, 1.0], [0.5, 0.5])  # overlap
    with pytest.raises(ValueError, match="around the wrap"):
        BCSet([0.5, 5.0], [0.1, 0.3])
    with pytest.raises(ValueError, match="sum to"):
        BCSet([0.0, 4.0], [0.6, 0.6])


INF, NAN = math.inf, math.nan


@pytest.mark.parametrize(
    "build",
    [
        lambda: BCSet.from_points([0.0, INF]),
        lambda: BCSet.from_points([NAN, 1.0]),
        lambda: BCSet.from_points([NAN]),
        lambda: BCSet.from_points([-INF]),
        lambda: BCSet([NAN], [0.5]),
        lambda: BCSet([INF, 1.0], [0.1, 0.1]),
        lambda: BCSet([0.0], [NAN]),
        lambda: BCSet([0.0, 2.0], [0.1, INF]),
    ],
    ids=["point-inf", "point-nan-first", "point-nan-alone", "point-minus-inf",
         "start-nan", "start-inf", "length-nan", "length-inf"],
)
def test_rejects_non_finite(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def ref_from_points(angles):
    """(start, length, end) of each gap of from_points, one gap at a time, in
    scalar arithmetic: sorted distinct normalized angles, the gap from each to
    the next, its start normalized again and its end start + length * 2*pi."""
    pts = sorted(set(ref_norm(float(a)) for a in angles))
    if len(pts) == 1:
        pairs = [(pts[0], 1.0)]
    else:
        pairs = [(p, ((q - p) % TAU) / TAU) for p, q in zip(pts, pts[1:] + pts[:1])]
    return [(ref_norm(p), ln, ref_norm(p) + ln * TAU) for p, ln in pairs if ln > 0.0]


POINT_SETS = {
    "wrapping": [0.5, 2.0, 4.0],
    "lower-half": [3.5, 4.0, 5.5],
    "one-point": [1.3],
    "sixteen": [TAU * k / 16 for k in range(16)],
    "seeded": np.random.default_rng(5).uniform(0, TAU, 9),
    "past-2pi": [TAU, TAU + 1.0, 3.0 * TAU + 2.5, 7.0, 100.0],
    "negative": [-0.5, -TAU + 0.1, -100.0, -1e-17, -math.pi],
    # equal after normalization; -0.0 first keeps its sign, as a set does
    "duplicates": [-0.0, 0.0, TAU, -TAU, 2.0 * TAU, 1.0, 1.0, 3.0, -3.0 + TAU, 3.0 - TAU],
    "seeded-wide": np.random.default_rng(8).uniform(-30.0, 30.0, 40),
    # the first gap's length underflows to 0 and is dropped
    "subnormal-gap": [0.0, 5e-324, 2.0],
}


@pytest.mark.parametrize("name", POINT_SETS)
def test_from_points_matches_scalar_arithmetic(name):
    e = BCSet.from_points(POINT_SETS[name])
    got = [(s.hex(), ln.hex(), t.hex()) for (s, ln), t in zip(e.gaps.tolist(), e._ends.tolist())]
    want = [tuple(x.hex() for x in gap) for gap in ref_from_points(POINT_SETS[name])]
    assert got == want


@pytest.mark.parametrize("form", ["scalar", "array"])
@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "minus-inf"])
class TestRejectsNonFiniteQuery:
    """Every comparison with NaN is False, so a NaN angle used to read as a
    point of the set: dist_angle_to_set(nan, E) was 0.0, contains_angle True."""

    E = BCSet.from_points([0.0, 2.0])

    @staticmethod
    def angle(bad, form):
        return bad if form == "scalar" else np.array([1.0, bad])

    @staticmethod
    def point(bad, form):
        return complex(bad, 0.0) if form == "scalar" else np.array([0.3 + 0.1j, complex(0.0, bad)])

    def test_dist_angle_to_set(self, bad, form):
        with pytest.raises(ValueError, match="query angles must be finite"):
            dist_angle_to_set(self.angle(bad, form), self.E)

    def test_contains_angle(self, bad, form):
        with pytest.raises(ValueError, match="query angles must be finite"):
            self.E.contains_angle(self.angle(bad, form))

    def test_star_contains(self, bad, form):
        with pytest.raises(ValueError, match="query points must be finite"):
            star_contains(StarSpec(self.E), self.point(bad, form))

    def test_hyperbolic_dist_to_star(self, bad, form):
        with pytest.raises(ValueError, match="query points must be finite"):
            hyperbolic_dist_to_star(self.point(bad, form), StarSpec(self.E), n_samples=64)
