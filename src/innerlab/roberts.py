"""Layered decomposition of a measure on the closed disk.

The input measure (combined weight: boundary mass m, interior mass
(1-|a|)*mt) is sorted generation by generation into thin near-boundary
layers mu_j with per-arc mass caps, plus a cone measure supported on a
star over a finite-entropy set E_cone:

  Step 1   everything inside B(0, r_1) goes to the cone.
  Step j   the circle splits into n_j equal arcs; an arc is light when
           its remaining column mass is <= (c/n_j) log n_j, else heavy.
           L: a light column moves wholesale into mu_j. Heavy arcs look
           at the annulus box [r_{j-1}, r_j): H1 moves a box of at least
           threshold mass to the cone; H2 moves a lighter box into mu_j
           and tops mu_j up to the threshold from the outer part of the
           column (atoms ordered by decreasing radius then increasing
           angle, one atom split exactly).
  residue  whatever survives the last generation goes to the cone.

Only heavy arcs keep mass, so from generation 3 on a generation makes one
pass over the children of the previous generation's heavy arcs: n_j is a
power of two, so phi / TAU * n_j rescales one rounded quotient exactly, and
a kept atom's arc is a child of the heavy arc that held it.

Generations scale by n_{j+1} = n_j^2 from a configurable n2 (the doubly
exponential literal sequence overflows immediately); r_j = 1 - 1/n_j and
r_1 = 1 - 1/sqrt(n2). E*_cone is the complement of the interiors of the
maximal light arcs; E_cone adds eight equally spaced anchor points inside
every heavy arc, which places every heavy box inside the genuine star.
All interval bookkeeping is exact: arcs and anchor points are Python
integers in units of 1/(10 n_max) of the circle, n_max = n_{max_generation}.
Floats appear only in the emitted BCSets, where `lo / unit` on integers
rounds each endpoint once.
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

from .bc_sets import TAU, BCSet, StarSpec, _norm_angle, star_contains
from .measures import DiskMeasure

# frozen corpus constant for the local-entropy budget ||E_cone||_{BC_eta} <= K * mass / c
K_LOCAL_ENTROPY = 6.0
VERIFY_ATOL = 1e-12  # slack of verify's mass conservation and sliding-arc caps
STAR_TOL = 1e-9  # slack of verify's cone containment checks


class InvariantViolation(AssertionError):
    pass


@dataclass(frozen=True)
class RobertsParams:
    c: float = 1.0
    n2: int = 16
    max_generation: int = 3

    def __post_init__(self):
        # NaN fails every comparison: ask for what must hold
        if not 0.0 < self.c < math.inf:
            raise ValueError("c must be positive and finite")
        if self.n2 < 4 or (self.n2 & (self.n2 - 1)) != 0:
            raise ValueError("n2 must be a power of 2, at least 4")
        if self.max_generation < 2:
            raise ValueError("max_generation must be >= 2")
        # log2 n_j = 2^(j-2) log2 n2, compared before any power is taken; from
        # j = 8 on it is >= 128 for every n2 >= 4, so capping the shift at 6
        # changes no verdict
        if (1 << min(self.max_generation - 2, 6)) * (self.n2.bit_length() - 1) > 62:
            raise ValueError("n_j overflows machine integers at this depth")

    def n_arcs(self, j: int) -> int:
        """n_j = n2^(2^(j-2)) for j >= 2."""
        return self.n2 ** (1 << (j - 2))

    def radius(self, j: int) -> float:
        """r_j = 1 - 1/n_j; r_1 = 1 - 1/sqrt(n2)."""
        if j == 1:
            return 1.0 - 1.0 / math.sqrt(self.n2)
        return 1.0 - 1.0 / self.n_arcs(j)

    def threshold(self, j: int) -> float:
        n = self.n_arcs(j)
        return (self.c / n) * math.log(n)


@dataclass
class _Atom:
    phi: float  # angle in [0, 2pi)
    rho: float  # radius, 1.0 for boundary atoms
    w: float  # combined (omega) weight
    loc: object  # original location: complex (interior) or float angle


def _angle_of(a: complex) -> float:
    return _norm_angle(math.atan2(a.imag, a.real))


def _atoms_of(omega: DiskMeasure):
    out = []
    for ang, m in omega.boundary:
        out.append(_Atom(ang, 1.0, m, ang))
    for a, mt in omega.interior:
        out.append(_Atom(_angle_of(a), abs(a), (1.0 - abs(a)) * mt, a))
    out.sort(key=lambda t: (t.phi, t.rho))
    return out


def _measure_of(pieces) -> DiskMeasure:
    interior, boundary = [], []
    for at in pieces:
        if at.w == 0.0:  # an interior weight (1 - |a|) mt that underflowed to 0
            continue
        if isinstance(at.loc, complex):
            interior.append((at.loc, at.w / (1.0 - at.rho)))
        else:
            boundary.append((at.loc, at.w))
    return DiskMeasure(interior, boundary)


@dataclass(frozen=True)
class AuditEntry:
    generation: int
    arc_index: int
    column_mass: float
    classification: str  # "light" | "heavy"
    action: str  # "L" | "H1" | "H2"
    moved_to_layer: float
    moved_to_cone: float


@dataclass
class RobertsDecomposition:
    params: RobertsParams
    layers: list  # [(generation, DiskMeasure)]
    cone: DiskMeasure
    star_core_set: BCSet  # E*_cone
    cone_set: BCSet  # E_cone
    audit: list = field(default_factory=list)
    heavy_intervals: list = field(default_factory=list)  # [(j, k)]


def _arc_index(phi: float, n: int) -> int:
    k = int(phi / TAU * n)
    return min(max(k, 0), n - 1)


def decompose(omega: DiskMeasure, p: RobertsParams) -> RobertsDecomposition:
    layers = {j: [] for j in range(2, p.max_generation + 1)}
    cone: list = []
    remaining: list = []
    audit: list = []
    heavy: list = []  # (j, k)
    # E*_cone's light arcs (lo, hi) and the heavy arcs' anchor tenths, in units of 1/(10 n_max)
    n_max = p.n_arcs(p.max_generation)
    light: list = []
    anchors: set = set()

    r1 = p.radius(1)
    for at in _atoms_of(omega):
        (cone if at.rho < r1 else remaining).append(at)

    candidates = range(p.n_arcs(2))
    for j in range(2, p.max_generation + 1):
        n, thr = p.n_arcs(j), p.threshold(j)
        r_lo, r_hi = p.radius(j - 1), p.radius(j)
        tenth = n_max // n  # units in a tenth of an arc
        buckets: dict[int, list] = {}
        for at in remaining:
            buckets.setdefault(_arc_index(at.phi, n), []).append(at)
        remaining.clear()
        for k in candidates:
            col = buckets.get(k, [])
            col_mass = math.fsum(at.w for at in col)
            if col_mass <= thr:
                light.append((10 * k * tenth, (10 * k + 10) * tenth))
                if col:
                    layers[j].extend(col)
                    audit.append(AuditEntry(j, k, col_mass, "light", "L", col_mass, 0.0))
                continue
            heavy.append((j, k))
            anchors.update((10 * k + i) * tenth for i in range(1, 9))
            box = [at for at in col if r_lo <= at.rho < r_hi]
            outer = [at for at in col if at.rho >= r_hi]
            box_mass = math.fsum(at.w for at in box)
            if box_mass >= thr:
                cone.extend(box)
                audit.append(AuditEntry(j, k, col_mass, "heavy", "H1", 0.0, box_mass))
                remaining.extend(outer)
                continue
            # H2: box into the layer, top up to thr from the outer column, outermost first
            layers[j].extend(box)
            need, moved = thr - box_mass, 0.0
            for at in sorted(outer, key=lambda t: (-t.rho, t.phi)):
                take = min(at.w, need)  # the whole atom, a split of it, or nothing
                if take > 0.0:
                    layers[j].append(_Atom(at.phi, at.rho, take, at.loc))
                if take < at.w:
                    remaining.append(_Atom(at.phi, at.rho, at.w - take, at.loc))
                moved += take
                need -= take
            audit.append(AuditEntry(j, k, col_mass, "heavy", "H2", box_mass + moved, 0.0))
        if j < p.max_generation:  # n_(j+1) = n_j^2: heavy arc k holds k n_j + i, i < n_j
            candidates = [k * n + i for g, k in heavy if g == j for i in range(n)]

    cone.extend(remaining)
    # E_cone cuts the light arcs at the anchors inside them
    points = sorted(anchors)
    cut = []
    for lo, hi in light:
        inner = points[bisect_right(points, lo):bisect_left(points, hi)]
        cut += zip([lo, *inner], [*inner, hi])
    return RobertsDecomposition(
        params=p,
        layers=[(j, _measure_of(layers[j])) for j in sorted(layers)],
        cone=_measure_of(cone),
        star_core_set=_circle_set(light, 10 * n_max),
        cone_set=_circle_set(cut, 10 * n_max),
        audit=audit,
        heavy_intervals=heavy,
    )


def _circle_set(gaps, unit: int) -> BCSet:
    """BCSet of integer gaps (lo, hi), in units of 1/unit of the circle."""
    # Python's int / int rounds once, also for units above 2**53
    return BCSet([TAU * (lo / unit) for lo, _ in gaps], [(hi - lo) / unit for lo, hi in gaps])


# ---------------------------------------------------------------------------
# verification


@dataclass
class VerifyReport:
    ok: bool
    failures: list
    metrics: dict


def _sliding_arc_masses(pts, width: float) -> dict:
    """ang0 -> exact mass of the pts with (ang - ang0) % TAU < width.

    Over the sorted angles each arc is a run whose end only moves forward
    as ang0 grows.
    """
    srt = sorted(pts)
    mass = [m for _, m in srt] * 2  # twice round the circle
    arcs, hi = {}, 0
    for ang0 in sorted({a for a, _ in pts}):
        lo = bisect_left(srt, (ang0,))
        hi = max(hi, lo)
        while hi < lo + len(srt) and (srt[hi % len(srt)][0] - ang0) % TAU < width:
            hi += 1
        arcs[ang0] = math.fsum(mass[lo:hi])
    return arcs


def verify(d: RobertsDecomposition, omega: DiskMeasure, p: RobertsParams) -> VerifyReport:
    failures = []
    metrics = {}

    total_in = omega.blaschke_mass()
    total_out = math.fsum(m.blaschke_mass() for _, m in d.layers) + d.cone.blaschke_mass()
    metrics["mass_error"] = abs(total_in - total_out)
    if metrics["mass_error"] > VERIFY_ATOL * max(1.0, total_in):
        failures.append(f"mass conservation off by {metrics['mass_error']:.3e}")

    # layer supports and sliding-arc bounds
    for j, layer in d.layers:
        r_lo = p.radius(j - 1)
        cap = 2.0 * p.threshold(j)
        pts = [(ang, m) for ang, m in layer.boundary]
        pts += [(_angle_of(a), (1.0 - abs(a)) * mt) for a, mt in layer.interior]
        for a, mt in layer.interior:
            if abs(a) < r_lo - 1e-12:
                failures.append(f"layer {j}: atom at radius {abs(a):.6f} < r_(j-1)")
        arcs = _sliding_arc_masses(pts, TAU / p.n_arcs(j))
        for ang0, _ in pts:
            s = arcs[ang0]
            if s > cap + VERIFY_ATOL:
                failures.append(
                    f"layer {j}: sliding arc at {ang0:.4f} carries {s:.6g} > {cap:.6g}"
                )
                break

    # cone containment in the star over E_cone
    spec = StarSpec(d.cone_set, order=1.0)
    for ang, _ in d.cone.boundary:
        if not d.cone_set.contains_angle(ang, tol=STAR_TOL):
            failures.append(f"cone boundary atom at angle {ang:.6f} outside E_cone")
    for a, _ in d.cone.interior:
        if not star_contains(spec, a, tol=STAR_TOL):
            failures.append(f"cone interior atom at {a:.6f} outside the star")

    metrics["cone_entropy"] = d.cone_set.entropy()
    metrics["entropy_reference"] = math.log2(math.log2(p.n2)) + omega.blaschke_mass()
    return VerifyReport(not failures, failures, metrics)


def local_entropy_bounds(d: RobertsDecomposition):
    """Local entropies of (E*_cone, E_cone) at threshold eta = 1/(2 n2).

    Enforces the frozen budget K * mass / c on both values.
    """
    p = d.params
    eta = 1.0 / (2.0 * p.n2)
    mass = math.fsum(m.blaschke_mass() for _, m in d.layers) + d.cone.blaschke_mass()
    star_val = d.star_core_set.local_entropy(eta)
    cone_val = d.cone_set.local_entropy(eta)
    bound = K_LOCAL_ENTROPY * mass / p.c
    if star_val > bound + 1e-12 or cone_val > bound + 1e-12:
        raise InvariantViolation(
            f"local entropies ({star_val:.6g}, {cone_val:.6g}) exceed {bound:.6g}"
        )
    return star_val, cone_val
