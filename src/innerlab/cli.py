"""Scenario runner and serialization.

`innerlab run scenario.json [--out DIR]` dispatches a JSON scenario to
the owning module and writes CSV tables (one '#'-prefixed metadata block
with the scenario hash and tolerances, 17-significant-digit scientific
floats) plus a JSON result with full metadata. Outputs are written
atomically (temp + rename) and carry no timestamps, so identical runs
are byte-identical.

Each scenario kind is declared once, in SCENARIOS: its runner and its
parameters, name -> (parser, default or REQUIRED). The parsers check
JSON types and object keys; value ranges stay with the constructors that
own them.

Exit codes: 0 ok, 1 validation failure, 2 numerical failure.
"""

import hashlib
import json
import math
import os
import sys
from dataclasses import asdict
from typing import Callable, NamedTuple

import click
import numpy as np

from . import __version__
from .backend import backend_name
from .bc_sets import BCSet, dist_angle_to_set
from .bergman import BergmanSpaceSpec, distance_to_one
from .gce import NEWTON_TOL, NewtonError, PolarGrid, check_fund3, diffuse_experiment, nearly_maximal
from .gce import solve_dirichlet, u_max
from .inner import InnerFunctionRep, QuadratureError, entropy_table
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
    MemoryError,  # a grid too large to allocate
    np.linalg.LinAlgError,
)


class ScenarioError(ValueError):
    """A scenario that does not match its kind's declared parameters (exit code 1)."""


# ---------------------------------------------------------------------------
# parameter parsers: parser(value, where) returns the parsed value, where
# being the JSON path used in error messages


REQUIRED = object()  # default of a parameter the scenario must supply


def _show(value) -> str:
    return json.dumps(value)[:40]


def _int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {_show(value)}")
    return value


def _float(value, where):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ScenarioError(f"{where} must be a finite number, got {_show(value)}")
    return float(value)


def _position(value, where) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ScenarioError(f"{where} needs [re, im], got {_show(value)}")
    re, im = (_float(x, f"{where}[{i}]") for i, x in enumerate(value))
    return re + 1j * im


def _disk_position(value, where) -> complex:
    z = _position(value, where)
    if abs(z) > 1.0:
        raise ScenarioError(f"{where} must lie in the closed unit disk, got {_show(value)}")
    return z


def _list(item):
    """Parser for a JSON list whose entries `item` parses."""

    def parse(value, where):
        if not isinstance(value, list):
            raise ScenarioError(f"{where} must be a list, got {_show(value)}")
        return [item(x, f"{where}[{i}]") for i, x in enumerate(value)]

    return parse


def _choice(*options):
    def parse(value, where):
        if not isinstance(value, str) or value not in options:
            raise ScenarioError(f"{where} must be one of {', '.join(options)}, got {_show(value)}")
        return value

    return parse


def _object(fields, build=None):
    """Parser for a JSON object with no keys beyond those of `fields`.

    `fields` maps each key to (parser, default or REQUIRED). The parsed
    values form a dict, or the keyword arguments of `build` if given.
    """

    def parse(value, where):
        if not isinstance(value, dict):
            raise ScenarioError(f"{where} must be an object, got {_show(value)}")
        for key in value:
            if key not in fields:
                raise ScenarioError(
                    f"{where} has unknown key {_show(key)} (expected {', '.join(fields)})"
                )
        out = {}
        for key, (parser, default) in fields.items():
            if key in value:
                out[key] = parser(value[key], f"{where}.{key}")
            elif default is REQUIRED:
                raise ScenarioError(f"{where}.{key} is required")
            else:
                out[key] = default
        return out if build is None else build(**out)

    return parse


def _values(**parsed) -> tuple:
    return tuple(parsed.values())


_POINT_ATOM = _object({"position": (_position, REQUIRED), "mass": (_float, REQUIRED)}, _values)
_ARC_ATOM = _object({"angle": (_float, REQUIRED), "mass": (_float, REQUIRED)}, _values)
_ZERO = _object({"position": (_position, REQUIRED), "multiplicity": (_int, 1)}, _values)
_MEASURE = _object(
    {"interior": (_list(_POINT_ATOM), ()), "boundary": (_list(_ARC_ATOM), ())}, DiskMeasure
)
_GENERATOR = _object(
    {"zeros": (_list(_ZERO), ()), "singular_atoms": (_list(_ARC_ATOM), ())}, InnerFunctionRep
)
_CIRCLE_SET = _object({"points": (_list(_float), REQUIRED)}, lambda points: BCSet.from_points(points))
_GCE_BOUNDARY = _object({"kind": (_choice("maximal", "constant"), "maximal"), "value": (_float, None)})
_LADDER = (_list(_int), (2, 3, 4, 5, 6))


def _kind(value, where):
    if not isinstance(value, str) or value not in SCENARIOS:
        raise ScenarioError(f"unknown kind {_show(value)} (expected one of {', '.join(SCENARIOS)})")
    return value


def _subpath(value, where):
    if not isinstance(value, str) or os.path.isabs(value) or ".." in value:
        raise ScenarioError(f"{where} must be a relative subpath, got {_show(value)}")
    return value


# ---------------------------------------------------------------------------
# serialization helpers


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
    """Strict JSON; a non-finite value is a numerical failure."""
    try:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise FloatingPointError(f"result is not finite: {exc}") from exc


# ---------------------------------------------------------------------------
# scenario implementations


def _run_entropy(p, meta):
    if p["degree"] < 2 or p["count"] < 1:
        raise ValueError("need degree >= 2 and count >= 1")
    rows = entropy_table(p["degree"], p["seed"], p["count"])
    csv = _csv_text(["degree", "formula_entropy", "quadrature_entropy", "abs_diff"], rows, meta)
    return {"entropy.csv": csv}


def _measure_payload(m: DiskMeasure):
    return {
        "interior": [
            {"position": [a.real, a.imag], "mass": mass} for a, mass in m.interior
        ],
        "boundary": [{"angle": t, "mass": mass} for t, mass in m.boundary],
    }


def _run_roberts(p, meta):
    om = p["measure"]
    rp = RobertsParams(c=p["c"], n2=p["n2"], max_generation=p["generations"])
    d = decompose(om, rp)
    rep = verify(d, om, rp)
    star_loc, cone_loc = local_entropy_bounds(d)
    payload = {
        "params": {"c": rp.c, "n2": rp.n2, "generations": rp.max_generation},
        "layers": [
            {"generation": j, "mass": m.blaschke_mass(), "measure": _measure_payload(m)}
            for j, m in d.layers
        ],
        "cone": {"mass": d.cone.blaschke_mass(), "measure": _measure_payload(d.cone)},
        "cone_set_entropy": d.cone_set.entropy(),
        "local_entropies": {"star_core": star_loc, "cone": cone_loc},
        "verify": asdict(rep),
        "audit": [asdict(a) for a in d.audit],
    }
    rows = [(j, m.blaschke_mass()) for j, m in d.layers]
    rows.append(("cone", d.cone.blaschke_mass()))
    csv = _csv_text(["component", "mass"], rows, meta)
    return {"roberts.json": _json_text(payload), "roberts.csv": csv}


def _run_gce_dirichlet(p, meta):
    grid = PolarGrid(p["radius"], p["n_r"], p["n_theta"])
    bnd = p["boundary"]
    if bnd["kind"] == "maximal":
        if bnd["value"] is not None:
            raise ScenarioError("params.boundary.value is read only when its kind is constant")
        # infinite on the unit circle; the solver rejects such data
        with np.errstate(divide="ignore", invalid="ignore"):
            h = u_max(p["radius"] * np.exp(1j * grid.theta))
    elif bnd["value"] is None:
        raise ScenarioError("params.boundary.value is required when its kind is constant")
    else:
        h = np.full(grid.n_theta, bnd["value"])
    atoms = DiskMeasure(p["atoms"]).interior
    gf, info = solve_dirichlet(grid, atoms, h)
    center, rings = gf.total_nodes()
    rows = [(float(r), float(np.mean(vals))) for r, vals in zip(grid.rho, rings)]
    csv = _csv_text(["radius", "mean_u"], rows, meta)
    payload = {
        # u is -infinity at an atom on the center node
        "center": center if math.isfinite(center) else None,
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
    return {"gce.csv": csv, "gce.json": _json_text(payload)}


def _run_nearly_maximal(p, meta):
    res = nearly_maximal(
        p["measure"], ladder=p["ladder"], n_r=p["n_r"], n_theta=p["n_theta"], stop_tol=p["stop_tol"]
    )
    rows = list(zip([float(r) for r in res.ladder_radii], res.deficiency))
    csv = _csv_text(["radius", "deficiency"], rows, meta)
    u_at_0 = float(res(0j, extrapolate=False))
    payload = {
        # u is -infinity at an atom on the origin
        "u_at_0": u_at_0 if math.isfinite(u_at_0) else None,
        "increments": res.increments,
        "deficiency": res.deficiency,
        "extrapolation_ratio": res.extrapolation_ratio,
    }
    return {"nearly_maximal.csv": csv, "nearly_maximal.json": _json_text(payload)}


def _run_diffuse(p, meta):
    rows = diffuse_experiment(p["n"], p["M"], ladder=p["ladder"], n_r=p["n_r"], n_theta=p["n_theta"])
    csv = _csv_text(["n", "M", "theta_n", "u_at_0", "u_D_gap", "status"], rows, meta)
    return {"diffuse.csv": csv}


def _run_outer(p, meta):
    z = np.array(p["points"], dtype=np.complex128)
    rim = np.hypot(z.real, z.imag) == 1.0
    on_set = rim & (dist_angle_to_set(np.angle(z), p["set"]) == 0.0)
    if on_set.any():
        raise ScenarioError(
            f"params.points[{int(np.argmax(on_set))}] lies on E, where log|Phi| is -infinity"
        )
    expo = OuterSpec(p["set"], p["depth"]).exponent(z)
    phi = np.exp(-expo)
    # hypot, not np.abs: numpy's complex abs can differ from it in the last bit
    abs_phi = np.hypot(phi.real, phi.imag)
    rows = zip(z.real.tolist(), z.imag.tolist(), abs_phi.tolist(), (-expo.real).tolist())
    csv = _csv_text(["re", "im", "abs_phi", "log_abs_phi"], rows, meta)
    return {"outer.csv": csv}


def _run_bergman_distance(p, meta):
    spec = BergmanSpaceSpec(alpha=p["alpha"], n_r=p["n_r"], n_theta=p["n_theta"])
    dist, rep = distance_to_one(p["generator"], p["m"], spec)
    rows = [(cap, val) for cap, val in rep["trend"]]
    csv = _csv_text(["degree_cap", "distance"], rows, meta)
    payload = {"distance": dist, "regularized": rep["regularized"], "trend": rows}
    return {"bergman.csv": csv, "bergman.json": _json_text(payload)}


def _run_fund3(p, meta):
    rep = check_fund3(
        p["measure1"], p["measure2"], ladder=p["ladder"], n_r=p["n_r"], n_theta=p["n_theta"]
    )
    return {"fund3.json": _json_text({"sup_difference": rep["sup_difference"]})}


class Kind(NamedTuple):
    """A scenario kind: its runner and its parameters, name -> (parser, default or REQUIRED)."""

    runner: Callable
    params: dict


SCENARIOS = {
    "entropy": Kind(_run_entropy, {"degree": (_int, 6), "seed": (_int, 0), "count": (_int, 20)}),
    "roberts": Kind(_run_roberts, {
        "measure": (_MEASURE, REQUIRED), "c": (_float, 1.0), "n2": (_int, 16), "generations": (_int, 3)}),
    "gce-dirichlet": Kind(_run_gce_dirichlet, {
        "radius": (_float, 0.9), "n_r": (_int, 64), "n_theta": (_int, 128),
        "boundary": (_GCE_BOUNDARY, {"kind": "maximal", "value": None}), "atoms": (_list(_POINT_ATOM), ())}),
    "nearly-maximal": Kind(_run_nearly_maximal, {
        "measure": (_MEASURE, REQUIRED), "ladder": _LADDER, "n_r": (_int, 64), "n_theta": (_int, 128),
        "stop_tol": (_float, 0.0)}),
    "diffuse-experiment": Kind(_run_diffuse, {
        "n": (_list(_int), REQUIRED), "M": (_list(_float), REQUIRED), "ladder": _LADDER,
        "n_r": (_int, 64), "n_theta": (_int, 192)}),
    "outer-eval": Kind(_run_outer, {
        "set": (_CIRCLE_SET, REQUIRED), "depth": (_int, 20),
        "points": (_list(_disk_position), (0j, 0.5 + 0j, 0.5j))}),
    "bergman-distance": Kind(_run_bergman_distance, {
        "generator": (_GENERATOR, REQUIRED), "m": (_int, 20), "alpha": (_float, 0.0),
        "n_r": (_int, 200), "n_theta": (_int, 512)}),
    "fund3-check": Kind(_run_fund3, {
        "measure1": (_MEASURE, REQUIRED), "measure2": (_MEASURE, REQUIRED), "ladder": _LADDER,
        "n_r": (_int, 48), "n_theta": (_int, 96)}),
}


def run_scenario(config: dict, out_dir: str) -> list:
    """Run a scenario and write its files; returns the paths written."""
    root = _object(
        {"kind": (_kind, REQUIRED), "params": (lambda value, where: value, {}), "output": (_subpath, "")}
    )(config, "scenario")
    kind = SCENARIOS[root["kind"]]
    params = _object(kind.params)(root["params"], "params")
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    meta = {
        "innerlab_version": __version__,
        "backend": backend_name(),
        "scenario_hash": hashlib.sha256(blob).hexdigest()[:16],
        "kind": root["kind"],
        "newton_tol": f"{NEWTON_TOL:g}",
    }
    files = kind.runner(params, meta)
    if root["output"]:
        out_dir = os.path.join(out_dir, root["output"])
    written = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in sorted(files.items()):
            path = os.path.join(out_dir, name)
            _write_atomic(path, text)
            written.append(path)
    except OSError as exc:
        raise ScenarioError(f"cannot write output: {exc}") from exc
    return written


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
        except RecursionError as exc:
            raise ScenarioError(f"{path}: JSON nested too deeply") from exc


def _label(config) -> str:
    """The scenario's kind for error messages, or 'scenario' when it has none."""
    kind = config.get("kind") if isinstance(config, dict) else None
    return kind if isinstance(kind, str) and kind in SCENARIOS else "scenario"


def _run_and_report(build_config, out_dir: str):
    """Run the scenario `build_config()` returns and print the written paths.

    A numerical failure exits 2. Every other ValueError the package raises
    is an input check and exits 1. Each prints a one-line message on
    stderr. The numerical clause comes first because ThetaUnsolvableError
    and LinAlgError are ValueErrors. numpy's floating-point warnings are
    silenced: a failure they foretell is reported by its own message.
    """
    config = None
    try:
        config = build_config()
        with np.errstate(all="ignore"):
            written = run_scenario(config, out_dir)
    except NUMERICAL_ERRORS as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(2)
    except ValueError as exc:
        click.echo(f"validation error: {_label(config)}: {exc}", err=True)
        sys.exit(1)
    for path in written:
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


def _default(kind: str, name: str):
    return SCENARIOS[kind].params[name][1]


@main.command()
@click.option("--degree", type=int, default=_default("entropy", "degree"), show_default=True)
@click.option("--seed", type=int, default=_default("entropy", "seed"), show_default=True)
@click.option("--count", type=int, default=_default("entropy", "count"), show_default=True)
@click.option("--out", "out_dir", default=".", show_default=True)
def entropy(degree, seed, count, out_dir):
    """Entropy formula vs quadrature table for seeded Blaschke products."""
    _run_and_report(
        lambda: {"kind": "entropy", "params": {"degree": degree, "seed": seed, "count": count}},
        out_dir,
    )


@main.command()
@click.option("--measure", "measure_file", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--c", "c_par", type=float, default=_default("roberts", "c"), show_default=True)
@click.option("--n2", type=int, default=_default("roberts", "n2"), show_default=True)
@click.option("--gens", type=int, default=_default("roberts", "generations"), show_default=True)
@click.option("--out", "out_dir", default=".", show_default=True)
def roberts(measure_file, c_par, n2, gens, out_dir):
    """Decompose a measure file and write the audit."""
    def config():
        params = {"measure": _load_json(measure_file), "c": c_par, "n2": n2, "generations": gens}
        return {"kind": "roberts", "params": params}

    _run_and_report(config, out_dir)


if __name__ == "__main__":
    main()
