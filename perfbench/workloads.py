"""The three benchmark workloads.

Each workload is built from a workload seed (building it is the timed
input generation of `setup_s`) and hands out one pass of operations. An
operation returns its failure messages; an empty list is a pass. The
default seed 0 reproduces the seeds of the acceptance criteria the
workloads reuse (1234 for the Roberts corpus, 2025 and 2026 for the
calibration corpora). The frozen calibration guards were measured on
those corpora, so only seed 0 checks them; every other check holds for
any seed.

Where a fixed input is rotated by the seed, the rotation is a multiple of
2*pi/16. That maps every polar grid used here (n_theta divisible by 16),
the probe sets of the ladder, and every Roberts arc partition (n_j a power
of 16) onto itself, so each seed does the same work on different numbers.
A freshly drawn generation-4 Roberts measure costs between 2.0 s and
4.4 s on a 2-vCPU Xeon VM depending on the draw, which would swamp the
run-to-run spread.
"""

import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np
from click.testing import CliRunner

import checks
from innerlab import bc_sets, calibration, cli, frozen, gce, measures, roberts
from innerlab.measures import DiskMeasure
from tracing import recording

TAU = 2.0 * math.pi
DEFAULT_SEED = 0


def rotation(seed):
    return (seed % 16) * TAU / 16


def stream_seed(base, seed):
    """Seed of one corpus: the acceptance seed `base` at the default workload seed."""
    return base + seed


def random_measure(rng, n_int, n_bnd, r_max=0.85, m_max=0.8):
    """The acceptance suite's seeded measure generator (same draws, same order)."""
    interior = [
        (r * np.exp(1j * a), m)
        for r, a, m in zip(
            rng.uniform(0.05, r_max, n_int),
            rng.uniform(0, TAU, n_int),
            rng.uniform(0.05, m_max, n_int),
        )
    ]
    boundary = [
        (a, m) for a, m in zip(rng.uniform(0, TAU, n_bnd), rng.uniform(0.05, 0.4, n_bnd))
    ]
    return DiskMeasure(interior, boundary)


def rotated(om, angle):
    turn = complex(math.cos(angle), math.sin(angle))
    return DiskMeasure(
        [(a * turn, m) for a, m in om.interior], [(t + angle, m) for t, m in om.boundary]
    )


@dataclass
class Op:
    name: str
    run: object  # () -> list of failure messages
    known_bad: bool = False  # a malformed input the CLI is expected to reject cleanly
    kind: str = ""  # scenario kind, for the cli.<kind>.wall_s metrics


# ---------------------------------------------------------------------------
# ladder


class Ladder:
    """Two nearly-maximal solves at the acceptance sizes; sparse LU dominates.

    Liouville omega = delta_0 (criterion 01, d = 2) is smooth interior data
    with a closed-form answer; the 64-atom diffuse family (criterion 07) puts
    angular spikes on every rung's boundary data.
    """

    name = "ladder"
    min_passes = 1

    def __init__(self, seed, workdir):
        self.liouville = DiskMeasure(interior=[(0j, 1.0)])
        self.diffuse = rotated(measures.diffuse_family(64, 10.0), rotation(seed))
        radii = np.linspace(0.8 / 9, 0.8, 9)
        th = np.arange(64) * (TAU / 64) + 0.0173
        self.probes = (radii[:, None] * np.exp(1j * th)[None, :]).ravel()
        self.oracle_err = math.nan
        self.between_steps = lambda: None  # called before each rung; run.py samples host speed

    def stats(self, outcomes):
        return {}

    def operations(self):
        return [Op("liouville", self._liouville), Op("diffuse", self._diffuse)]

    def _solve(self, om, ladder, n_r, n_theta):
        with recording(gce, "perron_hull_r", before=self.between_steps) as rungs:
            res = gce.nearly_maximal(om, ladder=ladder, n_r=n_r, n_theta=n_theta, stop_tol=0.0)
        return res, checks.residuals([info["residual"] for _, info in rungs])

    def _liouville(self):
        res, fails = self._solve(self.liouville, tuple(range(2, 8)), 128, 256)
        z = self.probes
        exact = np.log(2.0 * np.abs(z) / (1.0 - np.abs(z) ** 4))
        self.oracle_err = float(np.max(np.abs(res(z) - exact)))
        return fails + checks.oracle(self.oracle_err)

    def _diffuse(self):
        res, fails = self._solve(self.diffuse, tuple(range(2, 9)), 80, 256)
        return fails + checks.finite("u(0)", float(res(0j, extrapolate=False)))


# ---------------------------------------------------------------------------
# geometry


class Geometry:
    """Circle-set geometry, star capture and Roberts bookkeeping; no PDE."""

    name = "geometry"
    min_passes = 1

    def __init__(self, seed, workdir):
        self.default = seed == DEFAULT_SEED
        self.hyp_seed = stream_seed(2025, seed)
        self.order4_seed = stream_seed(2026, seed)
        self.band_sets = [
            bc_sets.BCSet.from_points([TAU * k / n for k in range(n)]) for n in (2, 4, 8, 16, 32)
        ]
        rng = np.random.default_rng(stream_seed(1111, seed))
        self.capture = (random_measure(rng, 3, 16), 2.0)

        # criterion 05's corpus, drawn exactly as the acceptance suite draws it
        rng = np.random.default_rng(stream_seed(1234, seed))
        self.corpus = []
        for _ in range(50):
            om = random_measure(rng, int(rng.integers(0, 6)), int(rng.integers(0, 6)), r_max=0.999)
            if om.is_empty:
                om = DiskMeasure(boundary=[(float(rng.uniform(0, TAU)), 0.5)])
            self.corpus.append(om)
        self.corpus_params = roberts.RobertsParams(c=0.7, n2=16, max_generation=3)
        deep = random_measure(np.random.default_rng(0), 20, 20, r_max=0.999)
        self.deep = rotated(deep, rotation(seed))
        self.deep_params = roberts.RobertsParams(c=0.7, n2=16, max_generation=4)

    def stats(self, outcomes):
        return {}

    def operations(self):
        ops = [
            Op("hyperbolic_decay", self._hyperbolic),
            Op("order4_decay", self._order4),
            Op("star_area_band", self._band),
            Op("max_star_mass", self._capture),
        ]
        ops += [
            Op(f"roberts_corpus_{i}", lambda om=om: self._roberts(om, self.corpus_params))
            for i, om in enumerate(self.corpus)
        ]
        ops.append(Op("roberts_gen4", lambda: self._roberts(self.deep, self.deep_params)))
        return ops

    def _frozen(self, name, val, ref):
        fails = checks.finite(name, val)
        if self.default and not fails:
            fails += checks.frozen_bound(name, val, ref)
        return fails

    def _hyperbolic(self):
        val = calibration.hyperbolic_decay_ratio(seed=self.hyp_seed)
        return self._frozen("hyperbolic decay ratio", val, frozen.HYPERBOLIC_DECAY_RATIO)

    def _order4(self):
        disk, circle = calibration.order4_decay_ratios(seed=self.order4_seed)
        return self._frozen("order-4 disk ratio", disk, frozen.ORDER4_DISK_RATIO) + self._frozen(
            "order-4 circle ratio", circle, frozen.ORDER4_CIRCLE_RATIO
        )

    def _band(self):
        band = [
            bc_sets.star_area_integral(bc_sets.StarSpec(e), 35, 16) / e.entropy()
            for e in self.band_sets
        ]
        return checks.star_band(band, frozen)

    def _capture(self):
        om, budget = self.capture
        exact = measures.max_star_mass(om, budget, "exact")
        greedy = measures.max_star_mass(om, budget, "greedy")
        return checks.star_capture(exact, greedy, budget)

    def _roberts(self, om, p):
        return checks.verify_ok(roberts.verify(roberts.decompose(om, p), om, p))


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class CliRun:
    exit_code: int
    stderr: str
    traceback: str | None
    files: dict = field(default_factory=dict)  # output name -> bytes


def _measure_json(om):
    return {
        "interior": [{"position": [a.real, a.imag], "mass": m} for a, m in om.interior],
        "boundary": [{"angle": t, "mass": m} for t, m in om.boundary],
    }


def _strict_outputs(run):
    fails = []
    for name, data in sorted(run.files.items()):
        if name.endswith(".json"):
            fails += checks.strict_json(name, data.decode())[1]
    return fails


def _payload(run, name):
    payload, fails = checks.strict_json(name, run.files[name].decode())
    return payload if not fails else None


class Scenarios:
    """`innerlab run <file> --out <dir>` in process, for all eight kinds, plus
    six malformed or edge inputs the CLI must handle without a traceback."""

    name = "scenarios"
    min_passes = 2  # byte-identity compares each output with the previous repeat

    def __init__(self, seed, workdir):
        turn = rotation(seed)
        nm = rotated(DiskMeasure([(0.3 + 0.2j, 1.0)], [(2.0, 0.4)]), turn)
        rb = rotated(
            DiskMeasure([(0.5 + 0.3j, 0.8), (-0.2 + 0.9j, 2.0)], [(1.0, 0.5), (4.0, 0.3)]), turn
        )
        # criterion 08's first seeded pair. At the README default resolution
        # its sup difference is 3.7e-3; not every pair of that corpus stays
        # within the criterion's 5e-3 there (the criterion runs 64x128, rungs 2..8)
        rng = np.random.default_rng(808)
        f1, f2 = (rotated(random_measure(rng, int(rng.integers(1, 4)), 0), turn) for _ in range(2))
        zero = 0.5 * complex(math.cos(turn), math.sin(turn))
        outer_pts = [(t + turn) % TAU for t in (0.0, 2.2, math.pi, 4.8)]
        g = self._good
        bad = self._rejected
        good = [
            ("entropy", {"degree": 6, "seed": seed, "count": 20},
             g(lambda r: checks.entropy_table(r.files["entropy.csv"].decode()))),
            ("roberts", {"measure": _measure_json(rb)},
             g(lambda r: checks.roberts_payload(_payload(r, "roberts.json")))),
            ("gce-dirichlet", {},
             g(lambda r: checks.dirichlet_payload(_payload(r, "gce.json")))),
            ("nearly-maximal", {"measure": _measure_json(nm)}, g(None)),
            ("diffuse-experiment", {"n": [8, 32, 64], "M": [10]},
             g(lambda r: checks.diffuse_table(r.files["diffuse.csv"].decode(), unsolvable={8}))),
            ("outer-eval", {"set": {"points": outer_pts}}, g(None)),
            ("bergman-distance",
             {"generator": {"zeros": [{"position": [zero.real, zero.imag]}],
                            "singular_atoms": [{"angle": (1.0 + turn) % TAU, "mass": 0.5}]}},
             g(None)),
            ("fund3-check", {"measure1": _measure_json(f1), "measure2": _measure_json(f2)},
             g(lambda r: checks.fund3(_payload(r, "fund3.json")))),
        ]
        # the first five are malformed; the sixth puts an atom on the grid's
        # center node and must still write strict JSON
        known_bad = [
            ("gce-dirichlet", {"n_r": "abc"}, bad),
            ("gce-dirichlet", {"boundary": "maximal"}, bad),
            ("gce-dirichlet", {"n_r": 4}, bad),
            ("roberts", {"measure": _measure_json(rb), "n2": 6}, bad),
            ("entropy", {"degre": 6}, bad),
            ("gce-dirichlet", {"atoms": [{"position": [0.0, 0.0], "mass": 1.0}]}, g(None)),
        ]
        self.cases = good + known_bad
        self.n_good = len(good)
        self.workdir = workdir
        self.paths = []
        for i, (kind, params, _) in enumerate(self.cases):
            path = os.path.join(workdir, f"scenario_{i:02d}.json")
            with open(path, "w") as fh:
                json.dump({"kind": kind, "params": params}, fh, sort_keys=True)
            self.paths.append(path)
        self.previous = [None] * len(self.cases)
        self._runs = {}

    @staticmethod
    def _good(check):
        def judge(run):
            fails = checks.exit_ok(run)
            if not fails:
                fails = _strict_outputs(run)
            if not fails and check is not None:
                fails = check(run)
            return fails

        return judge

    @staticmethod
    def _rejected(run):
        return checks.validation_error(run)

    def stats(self, outcomes):
        """Per-layer values of the cli layer, measured around each `innerlab run`."""
        runs = self._runs.values()
        out = {
            "cli.bytes_written": sum(len(b) for r in runs for b in r.files.values()),
            "cli.tracebacks": sum(r.traceback is not None for r in runs),
            "cli.validation_errors": sum(r.stderr.startswith("validation error:") for r in runs),
            "cli.known_bad_missed": sum(1 for op, fails, _ in outcomes if op.known_bad and fails),
        }
        for op, _, seconds in outcomes:
            key = f"cli.{op.kind}.wall_s"
            out[key] = out.get(key, 0.0) + seconds
        return out

    def operations(self):
        self._runs = {}
        return [
            Op(f"{kind}_{i:02d}", lambda i=i: self._run_case(i), known_bad=i >= self.n_good,
               kind=kind)
            for i, (kind, _, _) in enumerate(self.cases)
        ]

    def _invoke(self, i):
        out = os.path.join(self.workdir, f"out_{i:02d}")
        shutil.rmtree(out, ignore_errors=True)
        result = CliRunner().invoke(cli.main, ["run", self.paths[i], "--out", out])
        tb = None
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            tb = f"{type(result.exception).__name__}: {result.exception}"
        run = CliRun(result.exit_code, result.stderr, tb)
        if os.path.isdir(out):
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    run.files[name] = fh.read()
            shutil.rmtree(out)
        return run

    def _run_case(self, i):
        run = self._runs[i] = self._invoke(i)
        fails = self.cases[i][2](run)
        fails += checks.identical(self.previous[i], run.files)
        self.previous[i] = run.files
        return fails


WORKLOADS = {w.name: w for w in (Ladder, Geometry, Scenarios)}
