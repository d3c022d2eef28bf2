"""The acceptance suite: every gate criterion as a callable record.

Each criterion function returns {"name", "passed", "details"} with
deterministic detail strings, so the CLI selftest output is byte-stable
across runs. Criterion 12 (byte-identical selftest) can only be checked
from outside the process; the test suite runs the CLI twice and compares
bytes, and run_all reports it as externally checked.
"""

import math
import time

import numpy as np

from . import frozen
from .bc_sets import TAU, BCSet, StarSpec, arc_gap_entropy, star_area_integral
from .bergman import BergmanSpaceSpec, distance_to_one, h2_norm_and_lp
from .calibration import comparison_exponents, hyperbolic_decay_ratio, order4_decay_ratios
from .gce import PolarGrid, nearly_maximal, check_fund3, solve_dirichlet, u_max
from .inner import InnerFunctionRep, entropy_table
from .measures import DiskMeasure, ThetaUnsolvableError, diffuse_family
from .outer import OuterSpec, decay_profile
from .roberts import RobertsParams, decompose, verify

LOG2 = math.log(2.0)


def _fmt(x):
    return f"{x:.12g}"


def _rec(name, passed, details):
    return {"name": name, "passed": bool(passed), "details": list(details)}


def _monomial_pullback(d):
    def fn(z):
        z = np.asarray(z, dtype=np.complex128)
        with np.errstate(divide="ignore"):
            return np.log(d * np.abs(z) ** (d - 1) / (1.0 - np.abs(z) ** (2 * d)))

    return fn


def _probe_disk():
    """9 x 64 probes over |z| <= 0.8."""
    radii = np.linspace(0.8 / 9, 0.8, 9)
    th = np.arange(64) * (TAU / 64) + 0.0173
    return (radii[:, None] * np.exp(1j * th)[None, :]).ravel()


def criterion_01():
    """Liouville consistency for omega = (d-1) delta_0, d = 2, 3."""
    details, ok = [], True
    probes = _probe_disk()
    for d in (2, 3):
        t0 = time.monotonic()
        om = DiskMeasure(interior=[(0j, float(d - 1))])
        res = nearly_maximal(
            om, ladder=(2, 3, 4, 5, 6, 7), n_r=128, n_theta=256, stop_tol=0.0
        )
        err = float(np.max(np.abs(res(probes) - _monomial_pullback(d)(probes))))
        elapsed = time.monotonic() - t0
        ok &= err <= 1e-3 and elapsed <= 60.0
        details.append(f"d={d}: sup error {_fmt(err)} (tol 1e-3)")
        if elapsed > 60.0:
            details.append(f"d={d}: runtime limit exceeded")
    return _rec("01 Liouville consistency", ok, details)


def criterion_02():
    """Entropy formula vs circle quadrature on 20 seeded products."""
    t0 = time.monotonic()
    worst = max(row[3] for row in entropy_table(6, 424242, 20))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed <= 10.0
    details = [f"worst |formula - quadrature| {_fmt(worst)} (tol 1e-6)"]
    if elapsed > 10.0:
        details.append("runtime limit exceeded")
    return _rec("02 Jensen entropy identity", ok, details)


def criterion_03():
    """Dirichlet solver reproduces u_D; halving refinement gains >= 1.5x."""
    errs = {}
    for n_r, n_t in ((48, 96), (96, 192)):
        grid = PolarGrid(0.9, n_r, n_t)
        h = u_max(0.9 * np.exp(1j * grid.theta))
        gf, _ = solve_dirichlet(grid, (), h)
        _, rings = gf.total_nodes()
        errs[n_r] = float(np.max(np.abs(rings - u_max(grid.ring_nodes()))))
    ratio = errs[48] / errs[96]
    ok = errs[96] <= 1e-4 and ratio >= 1.5
    return _rec(
        "03 Dirichlet maximal-solution oracle",
        ok,
        [f"sup error {_fmt(errs[96])} (tol 1e-4)", f"refinement gain {_fmt(ratio)} (>= 1.5)"],
    )


def _random_measure(rng, n_int, n_bnd, r_max=0.85):
    interior = [
        (r * np.exp(1j * a), m)
        for r, a, m in zip(
            rng.uniform(0.05, r_max, n_int),
            rng.uniform(0, TAU, n_int),
            rng.uniform(0.05, 0.8, n_int),
        )
    ]
    boundary = [
        (a, m) for a, m in zip(rng.uniform(0, TAU, n_bnd), rng.uniform(0.05, 0.4, n_bnd))
    ]
    return DiskMeasure(interior, boundary)


def criterion_04():
    """Monotonicity in the data on 25 seeded ordered pairs."""
    rng = np.random.default_rng(777)
    worst = -math.inf
    for _ in range(25):
        om1 = _random_measure(rng, int(rng.integers(1, 4)), int(rng.integers(0, 3)))
        extra = _random_measure(rng, 1, 1)
        om2 = om1 + extra
        r1 = nearly_maximal(om1, ladder=(2, 3, 4), n_r=48, n_theta=96, stop_tol=0.0)
        r2 = nearly_maximal(om2, ladder=(2, 3, 4), n_r=48, n_theta=96, stop_tol=0.0)
        c1, t1 = r1.solution.total_nodes()
        c2, t2 = r2.solution.total_nodes()
        mask = np.isfinite(t1) & np.isfinite(t2)
        worst = max(worst, float(np.max(t2[mask] - t1[mask])), c2 - c1)
    ok = worst <= 1e-6
    return _rec(
        "04 Monotonicity in the measure",
        ok,
        [f"worst violation of u1 >= u2 {_fmt(worst)} (tol 1e-6)"],
    )


def criterion_05():
    """Roberts decomposition verification corpus plus the exact hand trace."""
    p = RobertsParams(c=0.7, n2=16, max_generation=3)
    rng = np.random.default_rng(1234)
    fails = 0
    for _ in range(50):
        om = _random_measure(rng, int(rng.integers(0, 6)), int(rng.integers(0, 6)), r_max=0.999)
        if om.is_empty:
            om = DiskMeasure(boundary=[(float(rng.uniform(0, TAU)), 0.5)])
        rep = verify(decompose(om, p), om, p)
        fails += 0 if rep.ok else 1

    p1 = RobertsParams(c=1.0, n2=16, max_generation=3)
    d = decompose(DiskMeasure(boundary=[(0.0, 1.0)]), p1)
    masses = {j: m.blaschke_mass() for j, m in d.layers}
    trace_err = max(
        abs(masses[2] - LOG2 / 4),
        abs(masses[3] - LOG2 / 32),
        abs(d.cone.blaschke_mass() - (1.0 - 9 * LOG2 / 32)),
    )
    ok = fails == 0 and trace_err <= 1e-12
    return _rec(
        "05 Roberts decomposition",
        ok,
        [f"corpus failures {fails}/50", f"hand-trace error {_fmt(trace_err)} (tol 1e-12)"],
    )


def criterion_06():
    """Entropy subadditivity within an arc, 200 seeded pairs, exact."""
    rng = np.random.default_rng(4242)
    worst = -math.inf
    a, b = 0.2, 2.8
    for _ in range(200):
        f1 = rng.uniform(a, b, int(rng.integers(1, 10)))
        f2 = rng.uniform(a, b, int(rng.integers(1, 10)))
        lhs = arc_gap_entropy(np.concatenate([f1, f2]), a, b)
        rhs = arc_gap_entropy(f1, a, b) + arc_gap_entropy(f2, a, b)
        worst = max(worst, lhs - rhs)
    ok = worst <= 1e-12
    return _rec(
        "06 Entropy subadditivity", ok, [f"worst excess {_fmt(worst)} (tol 1e-12)"]
    )


def criterion_07():
    """Diffuse direction of the n-atom families at M in {0.1, 10}."""
    details = []
    gaps = {}
    ok = True
    for n, big_m in ((64, 10.0), (64, 0.1), (32, 10.0), (16, 10.0), (8, 10.0)):
        try:
            om = diffuse_family(n, big_m)
        except ThetaUnsolvableError:
            details.append(
                f"n={n} M={big_m}: theta_n unsolvable (needs M < n/e = {_fmt(n / math.e)})"
            )
            gaps[(n, big_m)] = None
            continue
        res = nearly_maximal(om, ladder=(2, 3, 4, 5, 6, 7, 8), n_r=80, n_theta=256, stop_tol=0.0)
        gaps[(n, big_m)] = abs(float(res(0j, extrapolate=False)))
    if gaps[(64, 10.0)] is not None and gaps[(64, 0.1)] is not None:
        first = gaps[(64, 10.0)] < gaps[(64, 0.1)]
        details.insert(
            0,
            f"n=64 gaps: M=10 {_fmt(gaps[(64, 10.0)])} < M=0.1 {_fmt(gaps[(64, 0.1)])}: {first}",
        )
        ok &= first
    solvable = [gaps[(n, 10.0)] for n in (8, 16, 32, 64) if gaps.get((n, 10.0)) is not None]
    monotone_full = all(gaps.get((n, 10.0)) is not None for n in (8, 16, 32, 64)) and (
        solvable == sorted(solvable, reverse=True)
    )
    details.append(
        "monotone M=10 gap over n in {8,16,32,64}: "
        + ("True" if monotone_full else "False (theta_n has no solution for n=8,16 at M=10)")
    )
    details.append(
        f"monotone over the solvable subrange {{32,64}}: {solvable == sorted(solvable, reverse=True)}"
    )
    ok &= monotone_full
    return _rec("07 Diffuse direction", ok, details)


def criterion_08():
    """Fundamental identity on 10 seeded interior-atom pairs."""
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(10):
        om1 = _random_measure(rng, int(rng.integers(1, 4)), 0)
        om2 = _random_measure(rng, int(rng.integers(1, 4)), 0)
        rep = check_fund3(om1, om2, ladder=(2, 3, 4, 5, 6, 7, 8), n_r=64, n_theta=128)
        worst = max(worst, rep["sup_difference"])
    ok = worst <= 5e-3
    return _rec(
        "08 Fundamental identity", ok, [f"worst sup difference {_fmt(worst)} (tol 5e-3)"]
    )


def criterion_09():
    """Bergman oracles: monomial distance, Littlewood-Paley, subspace ladders."""
    details, ok = [], True
    spec = BergmanSpaceSpec()
    for m in (5, 20):
        d, _ = distance_to_one(lambda z: z, m, spec)
        err = abs(d - math.sqrt(math.pi))
        ok &= err <= 1e-10
        details.append(f"distance(1,[z]) m={m}: error {_fmt(err)} (tol 1e-10)")

    rng = np.random.default_rng(909)
    worst_lp = 0.0
    for _ in range(10):
        deg = int(rng.integers(2, 6))
        zeros = [(0j, 1)] + [
            (r * np.exp(1j * a), 1)
            for r, a in zip(rng.uniform(0.05, 0.85, deg - 1), rng.uniform(0, TAU, deg - 1))
        ]
        f = InnerFunctionRep(zeros, rotation=np.exp(1j * rng.uniform(0, TAU)))
        h2, lp = h2_norm_and_lp(f)
        worst_lp = max(worst_lp, abs(h2 - lp))
    ok &= worst_lp <= 1e-6
    details.append(f"Littlewood-Paley worst gap {_fmt(worst_lp)} (tol 1e-6)")

    gspec = BergmanSpaceSpec(n_r=160, n_theta=512)
    ladder_vals = []
    for n in (32, 64, 128):
        gen = InnerFunctionRep(singular_atoms=diffuse_family(n, 10.0).boundary)
        d, _ = distance_to_one(gen, 20, gspec)
        ladder_vals.append(d)
    decreasing = all(a > b for a, b in zip(ladder_vals, ladder_vals[1:]))
    d_sing, _ = distance_to_one(InnerFunctionRep(singular_atoms=[(0.0, 1.0)]), 20, gspec)
    ok &= decreasing and d_sing >= frozen.SINGULAR_DISTANCE_FLOOR
    details.append(
        "diffuse ladder distances "
        + " > ".join(_fmt(v) for v in ladder_vals)
        + f": {decreasing}"
    )
    details.append(
        f"singular generator distance {_fmt(d_sing)} >= floor {_fmt(frozen.SINGULAR_DISTANCE_FLOOR)}"
    )
    return _rec("09 Bergman oracles", ok, details)


def criterion_10():
    """Outer function: modulus bound, order-3 decay, truncation stability."""
    e = BCSet.from_points([0.0, 2.2, math.pi, 4.8])
    s20 = OuterSpec(e, 20)
    rng = np.random.default_rng(1010)
    radii = np.sqrt(rng.uniform(0.0, 0.9999, 10000))
    z = radii * np.exp(1j * rng.uniform(0, TAU, 10000))
    vals = np.abs(s20(z))
    max_mod = float(np.max(vals))

    prof = decay_profile(s20, orders=(3,))[3]
    s30 = OuterSpec(e, 30)
    stab = float(np.max(np.abs(s20(z) - s30(z))))
    ok = (
        max_mod <= 1.0 + 1e-14
        and prof <= frozen.OUTER_DECAY_ORDER3 * 1.05
        and stab <= 1e-8
    )
    return _rec(
        "10 Outer function",
        ok,
        [
            f"max |Phi| on 10^4 probes {_fmt(max_mod)} (<= 1)",
            f"sup |Phi| dist^-3 {_fmt(prof)} (frozen {_fmt(frozen.OUTER_DECAY_ORDER3)})",
            f"K 20->30 change {_fmt(stab)} (tol 1e-8)",
        ],
    )


def criterion_11():
    """Regression guards for the calibrated decay constants."""
    details, ok = [], True
    val = hyperbolic_decay_ratio()
    ok &= val <= frozen.HYPERBOLIC_DECAY_RATIO * 1.05
    details.append(
        f"hyperbolic decay ratio {_fmt(val)} (frozen {_fmt(frozen.HYPERBOLIC_DECAY_RATIO)})"
    )
    disk, circle = order4_decay_ratios()
    ok &= disk <= frozen.ORDER4_DISK_RATIO * 1.05
    ok &= circle <= frozen.ORDER4_CIRCLE_RATIO * 1.05
    details.append(
        f"order-4 disk ratio {_fmt(disk)} (frozen {_fmt(frozen.ORDER4_DISK_RATIO)})"
    )
    details.append(
        f"order-4 circle ratio {_fmt(circle)} (frozen {_fmt(frozen.ORDER4_CIRCLE_RATIO)})"
    )
    for c, g in comparison_exponents():
        ratio = g / c
        ok &= frozen.COMPARISON_BAND_LO <= ratio <= frozen.COMPARISON_BAND_HI
        details.append(f"comparison exponent c={_fmt(c)}: gamma/c {_fmt(ratio)}")
    band = []
    for n in (2, 4, 8, 16, 32):
        e = BCSet.from_points([TAU * k / n for k in range(n)])
        band.append(star_area_integral(StarSpec(e), 35, 16) / e.entropy())
    ok &= frozen.STAR_AREA_BAND_LO <= min(band) and max(band) <= frozen.STAR_AREA_BAND_HI
    details.append(
        f"star area/entropy band [{_fmt(min(band))}, {_fmt(max(band))}]"
        f" (frozen [{_fmt(frozen.STAR_AREA_BAND_LO)}, {_fmt(frozen.STAR_AREA_BAND_HI)}])"
    )
    return _rec("11 Decay regression guards", ok, details)


CRITERIA = [
    criterion_01,
    criterion_02,
    criterion_03,
    criterion_04,
    criterion_05,
    criterion_06,
    criterion_07,
    criterion_08,
    criterion_09,
    criterion_10,
    criterion_11,
]


def run_all():
    records = [fn() for fn in CRITERIA]
    records.append(
        _rec(
            "12 Selftest determinism",
            True,
            ["byte-identity of repeated selftests is checked externally (pytest runs the CLI twice)"],
        )
    )
    return records
