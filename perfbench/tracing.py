"""Per-layer tracing from outside the package.

`Tracer.installed()` replaces public module-level names of innerlab's
layers with wrappers that count calls and accumulate inclusive wall time,
then puts the originals back. A function is rebound in every innerlab
module that holds it, because several modules import names directly
(`calibration` imports `dist_angle_to_set`, `cli` imports the solvers).
Methods are wrapped on their class. Nothing under `src/` is edited.

Times are inclusive spans: `gce.dirichlet_s` contains `gce.splu_s`. A
wrapper that is re-entered (a `NearlyMaximalResult` evaluating its
`GridFunction`) times only the outermost call.
"""

import contextlib
import sys
import time

# name -> (unit, better); the order is the order of BENCHMARK.json's per_layer
PER_LAYER = {
    "gce.splu_calls": ("count", "lower"),
    "gce.splu_s": ("s", "lower"),
    "gce.lu_nnz": ("count", "lower"),
    "gce.rungs": ("count", "lower"),
    "gce.rung_s": ("s", "lower"),
    "gce.newton_iters": ("count", "lower"),
    "gce.residual_max": ("1", "lower"),
    "gce.operators_calls": ("count", "lower"),
    "gce.operators_s": ("s", "lower"),
    "gce.dirichlet_s": ("s", "lower"),
    "gce.boundary_s": ("s", "lower"),
    "gce.eval_s": ("s", "lower"),
    "kernels.green_sum_s": ("s", "lower"),
    "kernels.green_sum_pairs": ("count", "lower"),
    "kernels.poisson_sum_s": ("s", "lower"),
    "kernels.poisson_sum_pairs": ("count", "lower"),
    "kernels.outer_exponent_s": ("s", "lower"),
    "kernels.outer_exponent_pairs": ("count", "lower"),
    "kernels.subset_scan_s": ("s", "lower"),
    "kernels.subset_scan_masks": ("count", "lower"),
    "bc_sets.dist_calls": ("count", "lower"),
    "bc_sets.dist_s": ("s", "lower"),
    "bc_sets.hyp_dist_calls": ("count", "lower"),
    "bc_sets.hyp_dist_s": ("s", "lower"),
    "bc_sets.star_contains_calls": ("count", "lower"),
    "bc_sets.star_area_s": ("s", "lower"),
    "measures.max_star_mass_s": ("s", "lower"),
    "roberts.decompose_s": ("s", "lower"),
    "roberts.verify_s": ("s", "lower"),
    "roberts.atoms": ("count", "lower"),
    "roberts.heavy_arcs": ("count", "lower"),
    "roberts.cone_gaps": ("count", "lower"),
    "inner.critical_points_s": ("s", "lower"),
    "inner.entropy_quadrature_s": ("s", "lower"),
    "outer.eval_s": ("s", "lower"),
    "bergman.distance_s": ("s", "lower"),
    "calibration.hyperbolic_s": ("s", "lower"),
    "calibration.order4_s": ("s", "lower"),
    "cli.entropy.wall_s": ("s", "lower"),
    "cli.roberts.wall_s": ("s", "lower"),
    "cli.gce-dirichlet.wall_s": ("s", "lower"),
    "cli.nearly-maximal.wall_s": ("s", "lower"),
    "cli.diffuse-experiment.wall_s": ("s", "lower"),
    "cli.outer-eval.wall_s": ("s", "lower"),
    "cli.bergman-distance.wall_s": ("s", "lower"),
    "cli.fund3-check.wall_s": ("s", "lower"),
    "cli.bytes_written": ("count", "lower"),
    "cli.tracebacks": ("count", "lower"),
    "cli.validation_errors": ("count", "higher"),
    "cli.known_bad_missed": ("count", "lower"),
    "fail_frac": ("1", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _pairs(z, atoms):
    return int(getattr(z, "size", 1)) * int(getattr(atoms, "size", 1))


def _observe_splu(t, args, out):
    t.add("gce.lu_nnz", out.nnz)


def _observe_dirichlet(t, args, out):
    info = out[1]
    t.add("gce.newton_iters", info["newton_iters"])
    t.values["gce.residual_max"] = max(t.values.get("gce.residual_max", 0.0), info["residual"])


def _observe_decompose(t, args, d):
    measures = [m for _, m in d.layers] + [d.cone]
    t.add("roberts.atoms", sum(len(m.interior) + len(m.boundary) for m in measures))
    t.add("roberts.heavy_arcs", len(d.heavy_intervals))
    t.add("roberts.cone_gaps", len(d.cone_set.gaps))


def _layer_hooks():
    """(owner, attribute, seconds metric, calls metric, observer) per wrapped name."""
    from innerlab import (
        bc_sets, bergman, calibration, gce, inner, kernels, measures, outer, roberts,
    )

    def pairs(metric):
        return lambda t, args, out: t.add(metric, _pairs(args[0], args[1]))

    return [
        (gce, "splu", "gce.splu_s", "gce.splu_calls", _observe_splu),
        (gce, "perron_hull_r", "gce.rung_s", "gce.rungs", None),
        (gce, "solve_dirichlet", "gce.dirichlet_s", None, _observe_dirichlet),
        (gce.PolarGrid, "operators", "gce.operators_s", "gce.operators_calls", None),
        (gce, "_cell_averaged_boundary", "gce.boundary_s", None, None),
        (gce.GridFunction, "__call__", "gce.eval_s", None, None),
        (gce.NearlyMaximalResult, "__call__", "gce.eval_s", None, None),
        (kernels, "green_sum", "kernels.green_sum_s", None, pairs("kernels.green_sum_pairs")),
        (kernels, "poisson_sum", "kernels.poisson_sum_s", None, pairs("kernels.poisson_sum_pairs")),
        (kernels, "outer_exponent", "kernels.outer_exponent_s", None,
         pairs("kernels.outer_exponent_pairs")),
        (kernels, "subset_entropy_scan", "kernels.subset_scan_s", None,
         lambda t, args, out: t.add("kernels.subset_scan_masks", 1 << len(args[0]))),
        (bc_sets, "dist_angle_to_set", "bc_sets.dist_s", "bc_sets.dist_calls", None),
        (bc_sets, "hyperbolic_dist_to_star", "bc_sets.hyp_dist_s", "bc_sets.hyp_dist_calls", None),
        (bc_sets, "star_contains", None, "bc_sets.star_contains_calls", None),
        (bc_sets, "star_area_integral", "bc_sets.star_area_s", None, None),
        (measures, "max_star_mass", "measures.max_star_mass_s", None, None),
        (roberts, "decompose", "roberts.decompose_s", None, _observe_decompose),
        (roberts, "verify", "roberts.verify_s", None, None),
        (inner, "critical_points", "inner.critical_points_s", None, None),
        (inner, "circle_entropy_quadrature", "inner.entropy_quadrature_s", None, None),
        (outer.OuterSpec, "exponent", "outer.eval_s", None, None),
        (bergman, "distance_to_one", "bergman.distance_s", None, None),
        (calibration, "hyperbolic_decay_ratio", "calibration.hyperbolic_s", None, None),
        (calibration, "order4_decay_ratios", "calibration.order4_s", None, None),
    ]


def _bindings(owner, name):
    """Every (namespace, name) pair that must be rebound to wrap owner.name."""
    orig = getattr(owner, name)
    if isinstance(owner, type):
        return orig, [(owner, name)]
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "innerlab" or mod_name.startswith("innerlab.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                found.append((mod, attr))
    return orig, found


def _wrapper(tracer, orig, seconds, calls, observe):
    depth = [0]
    clock = time.perf_counter

    def wrapped(*args, **kwargs):
        if calls is not None:
            tracer.values[calls] += 1
        if depth[0]:
            return orig(*args, **kwargs)
        depth[0] += 1
        t0 = clock()
        try:
            out = orig(*args, **kwargs)
        finally:
            depth[0] -= 1
            if seconds is not None:
                tracer.values[seconds] += clock() - t0
        if observe is not None:
            observe(tracer, args, out)
        return out

    wrapped.__wrapped__ = orig
    return wrapped


class Tracer:
    """Counters and inclusive timers for one traced pass."""

    def __init__(self):
        self.values = dict.fromkeys(PER_LAYER, 0)

    def add(self, metric, amount):
        self.values[metric] += amount

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for owner, name, seconds, calls, observe in _layer_hooks():
                orig, targets = _bindings(owner, name)
                wrapped = _wrapper(self, orig, seconds, calls, observe)
                for ns, attr in targets:
                    undo.append((ns, attr, getattr(ns, attr)))
                    setattr(ns, attr, wrapped)
            yield self
        finally:
            for ns, attr, orig in reversed(undo):
                setattr(ns, attr, orig)


@contextlib.contextmanager
def recording(owner, name, before=None):
    """Collect the return values of owner.name while the block runs.

    Output checks use this to see the per-rung solve reports that
    `nearly_maximal` discards; it records results and takes no times.
    `before`, if given, is called ahead of each call.
    """
    orig = getattr(owner, name)
    seen = []

    def wrapped(*args, **kwargs):
        if before is not None:
            before()
        out = orig(*args, **kwargs)
        seen.append(out)
        return out

    setattr(owner, name, wrapped)
    try:
        yield seen
    finally:
        setattr(owner, name, orig)
