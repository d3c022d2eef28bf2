"""Scenario runner and serialization.

`innerlab run scenario.json [--out DIR]` dispatches a JSON scenario to
the owning module and writes CSV tables (one '#'-prefixed metadata block
with the scenario hash and tolerances, 17-significant-digit scientific
floats) plus a JSON result with full metadata. Outputs are written
atomically (temp + rename) and carry no timestamps, so identical runs
are byte-identical.

Exit codes: 0 ok, 1 validation failure, 2 numerical failure.
"""

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import click
import numpy as np

from . import __version__
from .backend import backend_name
from .bc_sets import BCSet
from .bergman import BergmanSpaceSpec, SubspaceProbe, distance_to_one
from .gce import GceProblem, NewtonError, PolarGrid, diffuse_experiment, check_fund3, solve_dirichlet, u_max
from .inner import FiniteBlaschke, InnerFunctionRep, QuadratureError, circle_entropy_quadrature, jensen_entropy
from .measures import DiskMeasure, ThetaUnsolvableError
from .outer import OuterSpec
from .roberts import RobertsParams, decompose, local_entropy_bounds, verify
from .roots import RootFindingError

NUMERICAL_ERRORS = (
    NewtonError,
    QuadratureError,
    RootFindingError,
    ThetaUnsolvableError,
    OverflowError,
    FloatingPointError,
)


class ScenarioError(ValueError):
    """Schema or parameter validation failure (exit code 1)."""


KINDS = (
    "entropy",
    "roberts",
    "gce-dirichlet",
    "nearly-maximal",
    "diffuse-experiment",
    "outer-eval",
    "bergman-distance",
    "fund3-check",
)


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: kind, structured parameters, output subpath, hash."""

    kind: str
    params: dict
    output: str
    digest: str

    @classmethod
    def from_config(cls, config) -> "Scenario":
        if not isinstance(config, dict):
            raise ScenarioError("scenario root must be a JSON object")
        kind = _field(config, "kind", str, "scenario")
        if kind not in KINDS:
            raise ScenarioError(
                f"scenario: unknown kind '{kind}' (expected one of {', '.join(KINDS)})"
            )
        params = config.get("params", {})
        if not isinstance(params, dict):
            raise ScenarioError("scenario: params must be an object")
        output = config.get("output", "")
        if not isinstance(output, str) or os.path.isabs(output) or ".." in output:
            raise ScenarioError("scenario: output must be a relative subpath")
        return cls(kind, params, output, _scenario_hash(config))


@dataclass
class ResultTable:
    """Column schema + numeric rows + run metadata, serialized as CSV."""

    header: list
    rows: list
    meta: dict = field(default_factory=dict)

    def to_csv(self) -> str:
        return _csv_text(self.header, self.rows, self.meta)


# ---------------------------------------------------------------------------
# serialization helpers


def _scenario_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_atomic(path: str, data: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _csv_text(header, rows, meta: dict) -> str:
    lines = [f"# {k} = {v}" for k, v in sorted(meta.items())]
    lines.append(",".join(header))
    for row in rows:
        cells = []
        for x in row:
            if isinstance(x, float):
                cells.append(f"{x:.17e}")
            else:
                cells.append(str(x))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _field(cfg: dict, name: str, kind, where: str):
    if name not in cfg:
        raise ScenarioError(f"{where}: missing field '{name}'")
    val = cfg[name]
    if kind is float and isinstance(val, int):
        val = float(val)
    if not isinstance(val, kind):
        raise ScenarioError(
            f"{where}: field '{name}' must be {getattr(kind, '__name__', kind)}"
        )
    return val


def _position(atom: dict, where: str) -> complex:
    pos = _field(atom, "position", list, where)
    if len(pos) != 2 or not all(isinstance(x, (int, float)) for x in pos):
        raise ScenarioError(f"{where}: position needs [re, im]")
    return pos[0] + 1j * pos[1]


def _parse_measure(cfg: dict, where: str) -> DiskMeasure:
    if not isinstance(cfg, dict):
        raise ScenarioError(f"{where}: measure must be an object")
    interior, boundary = [], []
    for i, atom in enumerate(cfg.get("interior", [])):
        at = f"{where}.interior[{i}]"
        interior.append((_position(atom, at), _field(atom, "mass", float, at)))
    for i, atom in enumerate(cfg.get("boundary", [])):
        boundary.append(
            (
                _field(atom, "angle", float, f"{where}.boundary[{i}]"),
                _field(atom, "mass", float, f"{where}.boundary[{i}]"),
            )
        )
    try:
        return DiskMeasure(interior, boundary)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _parse_rep(cfg: dict, where: str) -> InnerFunctionRep:
    zeros = []
    for i, z in enumerate(cfg.get("zeros", [])):
        zeros.append((_position(z, f"{where}.zeros[{i}]"), int(z.get("multiplicity", 1))))
    atoms = [
        (_field(a, "angle", float, f"{where}.singular[{i}]"), _field(a, "mass", float, f"{where}.singular[{i}]"))
        for i, a in enumerate(cfg.get("singular_atoms", []))
    ]
    try:
        return InnerFunctionRep(zeros, atoms)
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# scenario implementations


def _entropy_rows(degree: int, seed: int, count: int):
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(count):
        deg = int(rng.integers(2, degree + 1))
        zeros = [(0j, 1)] + [
            (r * np.exp(1j * a), 1)
            for r, a in zip(
                rng.uniform(0.05, 0.9, deg - 1), rng.uniform(0, 2 * math.pi, deg - 1)
            )
        ]
        f = FiniteBlaschke(zeros, np.exp(1j * rng.uniform(0, 2 * math.pi)))
        ent = jensen_entropy(f)
        quad = circle_entropy_quadrature(f, tol=1e-10)
        rows.append((deg, ent, quad, abs(ent - quad)))
    return rows


def _run_entropy(params, meta):
    degree = int(params.get("degree", 6))
    seed = int(params.get("seed", 0))
    count = int(params.get("count", 20))
    if degree < 2 or count < 1:
        raise ScenarioError("entropy: need degree >= 2 and count >= 1")
    rows = _entropy_rows(degree, seed, count)
    csv = ResultTable(
        ["degree", "formula_entropy", "quadrature_entropy", "abs_diff"], rows, meta
    ).to_csv()
    return {"entropy.csv": csv}, {"rows": len(rows)}


def _measure_payload(m: DiskMeasure):
    return {
        "interior": [
            {"position": [a.real, a.imag], "mass": mass} for a, mass in m.interior
        ],
        "boundary": [{"angle": t, "mass": mass} for t, mass in m.boundary],
    }


def _run_roberts(params, meta):
    om = _parse_measure(_field(params, "measure", dict, "roberts"), "roberts.measure")
    p = RobertsParams(
        c=float(params.get("c", 1.0)),
        n2=int(params.get("n2", 16)),
        max_generation=int(params.get("generations", 3)),
    )
    d = decompose(om, p)
    rep = verify(d, om, p)
    star_loc, cone_loc = local_entropy_bounds(d)
    payload = {
        "params": {"c": p.c, "n2": p.n2, "generations": p.max_generation},
        "layers": [
            {"generation": j, "mass": m.blaschke_mass(), "measure": _measure_payload(m)}
            for j, m in d.layers
        ],
        "cone": {"mass": d.cone.blaschke_mass(), "measure": _measure_payload(d.cone)},
        "cone_set_entropy": d.cone_set.entropy(),
        "local_entropies": {"star_core": star_loc, "cone": cone_loc},
        "verify": {"ok": rep.ok, "failures": rep.failures, "metrics": rep.metrics},
        "audit": [
            {
                "generation": a.generation,
                "arc_index": a.arc_index,
                "column_mass": a.column_mass,
                "classification": a.classification,
                "action": a.action,
                "moved_to_layer": a.moved_to_layer,
                "moved_to_cone": a.moved_to_cone,
            }
            for a in d.audit
        ],
    }
    rows = [(j, m.blaschke_mass()) for j, m in d.layers]
    rows.append(("cone", d.cone.blaschke_mass()))
    csv = ResultTable(
        ["component", "mass"], rows, meta
    ).to_csv()
    return {"roberts.json": _json_text(payload), "roberts.csv": csv}, {
        "verify_ok": rep.ok
    }


def _run_gce_dirichlet(params, meta):
    radius = float(params.get("radius", 0.9))
    n_r = int(params.get("n_r", 64))
    n_theta = int(params.get("n_theta", 128))
    grid = PolarGrid(radius, n_r, n_theta)
    bnd = params.get("boundary", {"kind": "maximal"})
    kind = bnd.get("kind", "maximal")
    if kind == "maximal":
        h = u_max(radius * np.exp(1j * grid.theta))
    elif kind == "constant":
        h = np.full(n_theta, _field(bnd, "value", float, "gce-dirichlet.boundary"))
    else:
        raise ScenarioError("gce-dirichlet: boundary.kind must be 'maximal' or 'constant'")
    atoms = tuple(
        (a, m)
        for a, m in _parse_measure(
            {"interior": params.get("atoms", [])}, "gce-dirichlet"
        ).interior
    )
    gf, info = solve_dirichlet(GceProblem(grid, atoms, h))
    center, rings = gf.total_nodes()
    rows = [(float(r), float(np.mean(vals))) for r, vals in zip(grid.rho, rings)]
    csv = ResultTable(
        ["radius", "mean_u"], rows, meta
    ).to_csv()
    payload = {
        "center": center,
        "newton_iters": info["newton_iters"],
        "residual": info["residual"],
        "radial_means": rows,
        "grid": {
            "radius": grid.radius,
            "rho": [float(r) for r in grid.rho],
            "theta": [float(t) for t in grid.theta],
            "values": [[float(v) for v in row] for row in rings],
        },
    }
    return {"gce.csv": csv, "gce.json": _json_text(payload)}, info


def _run_nearly_maximal(params, meta):
    from .gce import nearly_maximal

    om = _parse_measure(_field(params, "measure", dict, "nearly-maximal"), "nearly-maximal.measure")
    ladder = tuple(params.get("ladder", [2, 3, 4, 5, 6]))
    res = nearly_maximal(
        om,
        ladder=ladder,
        n_r=int(params.get("n_r", 64)),
        n_theta=int(params.get("n_theta", 128)),
        stop_tol=float(params.get("stop_tol", 0.0)),
    )
    rows = list(zip([float(r) for r in res.ladder_radii], res.deficiency))
    csv = ResultTable(
        ["radius", "deficiency"], rows, meta
    ).to_csv()
    payload = {
        "u_at_0": float(res(0j, extrapolate=False)),
        "increments": res.increments,
        "deficiency": res.deficiency,
        "extrapolation_ratio": res.extrapolation_ratio,
    }
    return {"nearly_maximal.csv": csv, "nearly_maximal.json": _json_text(payload)}, {}


def _run_diffuse(params, meta):
    ns = [int(n) for n in _field(params, "n", list, "diffuse-experiment")]
    ms = [float(m) for m in _field(params, "M", list, "diffuse-experiment")]
    rows = diffuse_experiment(
        ns,
        ms,
        ladder=tuple(params.get("ladder", [2, 3, 4, 5, 6])),
        n_r=int(params.get("n_r", 64)),
        n_theta=int(params.get("n_theta", 192)),
    )
    csv = ResultTable(
        ["n", "M", "theta_n", "u_at_0", "u_D_gap", "status"], rows, meta
    ).to_csv()
    return {"diffuse.csv": csv}, {"rows": len(rows)}


def _run_outer(params, meta):
    angles = _field(params, "set", dict, "outer-eval").get("points")
    if not angles:
        raise ScenarioError("outer-eval: set.points must be a nonempty angle list")
    e = BCSet.from_points([float(a) for a in angles])
    spec = OuterSpec(e, int(params.get("depth", 20)))
    pts = params.get("points") or [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]]
    z = np.array([p[0] + 1j * p[1] for p in pts])
    vals = spec(z)
    rows = [
        (float(p.real), float(p.imag), float(abs(v)), float(spec.log_abs(p)))
        for p, v in zip(z, vals)
    ]
    csv = ResultTable(
        ["re", "im", "abs_phi", "log_abs_phi"], rows, meta
    ).to_csv()
    return {"outer.csv": csv}, {"tail_mass": spec.tail_mass_total}


def _run_bergman_distance(params, meta):
    gen = _parse_rep(_field(params, "generator", dict, "bergman-distance"), "bergman-distance.generator")
    m = int(params.get("m", 20))
    spec = BergmanSpaceSpec(
        alpha=float(params.get("alpha", 0.0)),
        n_r=int(params.get("n_r", 200)),
        n_theta=int(params.get("n_theta", 512)),
    )
    dist, rep = distance_to_one(SubspaceProbe(gen, m), spec)
    rows = [(cap, val) for cap, val in rep["trend"]]
    csv = ResultTable(
        ["degree_cap", "distance"], rows, meta
    ).to_csv()
    payload = {"distance": dist, "regularized": rep["regularized"], "trend": rows}
    return {"bergman.csv": csv, "bergman.json": _json_text(payload)}, {}


def _run_fund3(params, meta):
    om1 = _parse_measure(_field(params, "measure1", dict, "fund3-check"), "fund3-check.measure1")
    om2 = _parse_measure(_field(params, "measure2", dict, "fund3-check"), "fund3-check.measure2")
    rep = check_fund3(
        om1,
        om2,
        ladder=tuple(params.get("ladder", [2, 3, 4, 5, 6])),
        n_r=int(params.get("n_r", 48)),
        n_theta=int(params.get("n_theta", 96)),
    )
    payload = {"sup_difference": rep["sup_difference"]}
    return {"fund3.json": _json_text(payload)}, payload


RUNNERS = {
    "entropy": _run_entropy,
    "roberts": _run_roberts,
    "gce-dirichlet": _run_gce_dirichlet,
    "nearly-maximal": _run_nearly_maximal,
    "diffuse-experiment": _run_diffuse,
    "outer-eval": _run_outer,
    "bergman-distance": _run_bergman_distance,
    "fund3-check": _run_fund3,
}


def run_scenario(config: dict, out_dir: str) -> dict:
    scenario = Scenario.from_config(config)
    meta = {
        "innerlab_version": __version__,
        "backend": backend_name(),
        "scenario_hash": scenario.digest,
        "kind": scenario.kind,
        "newton_tol": "1e-10",
        "mass_tol": "1e-12",
    }
    if scenario.output:
        out_dir = os.path.join(out_dir, scenario.output)
    os.makedirs(out_dir, exist_ok=True)
    files, info = RUNNERS[scenario.kind](scenario.params, meta)
    written = []
    for name, text in sorted(files.items()):
        path = os.path.join(out_dir, name)
        _write_atomic(path, text)
        written.append(path)
    return {"written": written, "info": info}


# ---------------------------------------------------------------------------
# click surface


@click.group()
def main():
    """Numerical laboratory for inner functions and the curvature equation."""


def _load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _run_and_report(build_config, out_dir: str):
    """Run the scenario `build_config()` returns and print the written paths.

    Validation failures exit 1 and numerical failures exit 2, each with a
    one-line message on stderr.
    """
    try:
        result = run_scenario(build_config(), out_dir)
    except ScenarioError as exc:
        click.echo(f"validation error: {exc}", err=True)
        sys.exit(1)
    except NUMERICAL_ERRORS as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(2)
    for path in result["written"]:
        click.echo(path)


@main.command(name="run")
@click.argument("scenario", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_dir", default=".", show_default=True, help="output directory")
def run_cmd(scenario, out_dir):
    """Run a scenario file and write its CSV/JSON results."""
    _run_and_report(lambda: _load_json(scenario), out_dir)


@main.command()
def selftest():
    """Run the acceptance suite; nonzero exit on any failed criterion."""
    from .acceptance import run_all

    records = run_all()
    failed = 0
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        click.echo(f"criterion {rec['name']}: {status}")
        for line in rec["details"]:
            click.echo(f"    {line}")
        failed += 0 if rec["passed"] else 1
    click.echo(f"{len(records) - failed}/{len(records)} criteria passed")
    if failed:
        sys.exit(1)


@main.command()
@click.option("--degree", type=int, default=6, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--count", type=int, default=20, show_default=True)
@click.option("--out", "out_dir", default=".", show_default=True)
def entropy(degree, seed, count, out_dir):
    """Entropy formula vs quadrature table for seeded Blaschke products."""
    _run_and_report(
        lambda: {"kind": "entropy", "params": {"degree": degree, "seed": seed, "count": count}},
        out_dir,
    )


@main.command()
@click.option("--measure", "measure_file", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--c", "c_par", type=float, default=1.0, show_default=True)
@click.option("--n2", type=int, default=16, show_default=True)
@click.option("--gens", type=int, default=3, show_default=True)
@click.option("--out", "out_dir", default=".", show_default=True)
def roberts(measure_file, c_par, n2, gens, out_dir):
    """Decompose a measure file and write the audit."""
    def config():
        params = {"measure": _load_json(measure_file), "c": c_par, "n2": n2, "generations": gens}
        return {"kind": "roberts", "params": params}

    _run_and_report(config, out_dir)


if __name__ == "__main__":
    main()
