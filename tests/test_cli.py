import copy
import json
import math
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from conftest import child_env
from hypothesis import given, settings
from hypothesis import strategies as st

from innerlab import cli, gce

RUN = [sys.executable, "-m", "innerlab.cli"]


def _reject_constant(token):
    raise ValueError(f"output JSON holds {token}")


def run_cli(args, cwd):
    return subprocess.run(
        RUN + args, capture_output=True, text=True, cwd=cwd, env=child_env()
    )


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


class TestEntropyCommand:
    def test_writes_csv(self, workdir):
        res = run_cli(["entropy", "--degree", "4", "--seed", "7", "--count", "5", "--out", "o"], workdir)
        assert res.returncode == 0, res.stderr
        path = workdir / "o" / "entropy.csv"
        text = path.read_text()
        assert text.startswith("#")
        meta = dict(ln[2:].split(" = ", 1) for ln in text.splitlines() if ln.startswith("#"))
        assert sorted(meta) == ["backend", "innerlab_version", "kind", "newton_tol", "scenario_hash"]
        assert meta["newton_tol"] == f"{gce.NEWTON_TOL:g}"
        header = [ln for ln in text.splitlines() if not ln.startswith("#")][0]
        assert header == "degree,formula_entropy,quadrature_entropy,abs_diff"
        rows = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
        assert len(rows) == 5
        for row in rows:
            assert float(row.split(",")[3]) < 1e-6

    def test_byte_identical_reruns(self, workdir):
        for d in ("a", "b"):
            run_cli(["entropy", "--degree", "5", "--seed", "3", "--count", "4", "--out", d], workdir)
        assert (workdir / "a" / "entropy.csv").read_bytes() == (
            workdir / "b" / "entropy.csv"
        ).read_bytes()

    def test_bytes_independent_of_blas_threads(self, workdir):
        # the critical points are LAPACK eigenvalues, of pencils of up to 61
        # rows at degree 30; 2 threads is the most this test asks for, so
        # larger thread counts stay unchecked
        for degree, count in ((6, 20), (30, 10)):
            out = {}
            for threads in ("1", "2"):
                env = dict(child_env(), OPENBLAS_NUM_THREADS=threads)
                args = ["entropy", "--degree", str(degree), "--seed", "1", "--count", str(count)]
                res = subprocess.run(RUN + args + ["--out", f"{degree}-{threads}"],
                                     capture_output=True, text=True, cwd=workdir, env=env)
                assert res.returncode == 0, res.stderr
                out[threads] = (workdir / f"{degree}-{threads}" / "entropy.csv").read_bytes()
            assert out["1"] == out["2"], degree


class TestRobertsCommand:
    def test_delta_one_audit(self, workdir):
        measure = {"boundary": [{"angle": 0.0, "mass": 1.0}]}
        (workdir / "m.json").write_text(json.dumps(measure))
        res = run_cli(
            ["roberts", "--measure", "m.json", "--c", "1.0", "--n2", "16", "--gens", "3", "--out", "o"],
            workdir,
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads((workdir / "o" / "roberts.json").read_text())
        assert payload["verify"]["ok"] is True
        masses = {str(l["generation"]): l["mass"] for l in payload["layers"]}
        assert abs(masses["2"] - math.log(2) / 4) < 1e-14
        assert abs(payload["cone"]["mass"] - (1 - 9 * math.log(2) / 32)) < 1e-13
        acts = [(a["generation"], a["action"]) for a in payload["audit"]]
        assert acts == [[2, "H2"], [3, "H2"]] or acts == [(2, "H2"), (3, "H2")]

    def test_bad_measure_exits_1(self, workdir):
        (workdir / "bad.json").write_text('{"boundary": [{"angle": 0.0}]}')
        res = run_cli(["roberts", "--measure", "bad.json", "--out", "o"], workdir)
        assert res.returncode == 1
        assert "mass" in res.stderr

    def test_malformed_json_diagnostics(self, workdir):
        (workdir / "bad.json").write_text('{"boundary": [')
        res = run_cli(["roberts", "--measure", "bad.json", "--out", "o"], workdir)
        assert res.returncode == 1
        assert "bad.json:1:" in res.stderr


class TestRunCommand:
    def test_unknown_kind_exits_1(self, workdir):
        (workdir / "s.json").write_text(json.dumps({"kind": "nope", "params": {}}))
        res = run_cli(["run", "s.json", "--out", "o"], workdir)
        assert res.returncode == 1
        assert "unknown kind" in res.stderr

    def test_diffuse_experiment_rows(self, workdir):
        config = {
            "kind": "diffuse-experiment",
            "params": {"n": [8, 64], "M": [10.0], "ladder": [2, 3, 4], "n_r": 24, "n_theta": 96},
        }
        (workdir / "s.json").write_text(json.dumps(config))
        res = run_cli(["run", "s.json", "--out", "o"], workdir)
        assert res.returncode == 0, res.stderr
        lines = [
            ln
            for ln in (workdir / "o" / "diffuse.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == "n,M,theta_n,u_at_0,u_D_gap,status"
        body = {ln.split(",")[0]: ln for ln in lines[1:]}
        assert body["8"].endswith("theta-unsolvable")
        assert body["64"].endswith("ok")

    def test_outer_eval(self, workdir):
        config = {
            "kind": "outer-eval",
            "params": {"set": {"points": [0.0, math.pi]}, "depth": 15,
                       "points": [[0.0, 0.0], [0.3, 0.3]]},
        }
        (workdir / "s.json").write_text(json.dumps(config))
        res = run_cli(["run", "s.json", "--out", "o"], workdir)
        assert res.returncode == 0, res.stderr
        lines = (workdir / "o" / "outer.csv").read_text().splitlines()
        data = [ln for ln in lines if not ln.startswith("#")][1:]
        for row in data:
            assert float(row.split(",")[2]) <= 1.0

    def test_fund3_scenario(self, workdir):
        config = {
            "kind": "fund3-check",
            "params": {
                "measure1": {"interior": [{"position": [0.0, 0.0], "mass": 0.5}]},
                "measure2": {"interior": [{"position": [0.0, 0.0], "mass": 0.5}]},
                "ladder": [2, 3, 4, 5],
                "n_r": 32,
                "n_theta": 64,
            },
        }
        (workdir / "s.json").write_text(json.dumps(config))
        res = run_cli(["run", "s.json", "--out", "o"], workdir)
        assert res.returncode == 0, res.stderr
        payload = json.loads((workdir / "o" / "fund3.json").read_text())
        assert payload["sup_difference"] < 2e-2

    def test_bergman_distance_scenario(self, workdir):
        config = {
            "kind": "bergman-distance",
            "params": {"generator": {"zeros": [{"position": [0.0, 0.0]}]},
                       "m": 8, "n_r": 80, "n_theta": 64},
        }
        (workdir / "s.json").write_text(json.dumps(config))
        res = run_cli(["run", "s.json", "--out", "o"], workdir)
        assert res.returncode == 0, res.stderr
        payload = json.loads((workdir / "o" / "bergman.json").read_text())
        assert payload["distance"] == pytest.approx(math.sqrt(math.pi), abs=1e-9)

    def test_bergman_distance_bytes_independent_of_blas_threads(self, workdir):
        # the Gram moments are einsum reductions and the factor is LAPACK
        # Cholesky; 2 threads is the most this test asks for, so larger
        # thread counts stay unchecked
        generator = {"zeros": [{"position": [0.5, 0.0]}],
                     "singular_atoms": [{"angle": 1.0, "mass": 0.5}]}
        for m in (20, 60):
            config = {"kind": "bergman-distance", "params": {"generator": generator, "m": m}}
            (workdir / f"{m}.json").write_text(json.dumps(config))
            out = {}
            for threads in ("1", "2"):
                env = dict(child_env(), OPENBLAS_NUM_THREADS=threads)
                res = subprocess.run(RUN + ["run", f"{m}.json", "--out", f"{m}-{threads}"],
                                     capture_output=True, text=True, cwd=workdir, env=env)
                assert res.returncode == 0, res.stderr
                out[threads] = {p.name: p.read_bytes()
                                for p in sorted((workdir / f"{m}-{threads}").iterdir())}
            assert sorted(out["1"]) == ["bergman.csv", "bergman.json"]
            assert out["1"] == out["2"], m

    def test_nearly_maximal_scenario(self, workdir):
        config = {
            "kind": "nearly-maximal",
            "params": {
                "measure": {"boundary": [{"angle": 0.0, "mass": 1.0}]},
                "ladder": [2, 3, 4, 5],
                "n_r": 32,
                "n_theta": 64,
            },
        }
        (workdir / "s.json").write_text(json.dumps(config))
        res = run_cli(["run", "s.json", "--out", "o"], workdir)
        assert res.returncode == 0, res.stderr
        payload = json.loads((workdir / "o" / "nearly_maximal.json").read_text())
        assert payload["u_at_0"] < 0.0
        assert payload["deficiency"] == sorted(payload["deficiency"])

    def test_nearly_maximal_atom_at_origin(self, workdir):
        # the Liouville example omega = delta_0 at the default parameters:
        # u(0) = -infinity, written as null, and everything else is finite
        config = {
            "kind": "nearly-maximal",
            "params": {"measure": {"interior": [{"position": [0, 0], "mass": 1}]}},
        }
        (workdir / "s.json").write_text(json.dumps(config))
        res = run_cli(["run", "s.json", "--out", "o"], workdir)
        assert res.returncode == 0, res.stderr
        text = (workdir / "o" / "nearly_maximal.json").read_text()
        payload = json.loads(text, parse_constant=_reject_constant)
        assert payload["u_at_0"] is None
        assert payload["increments"] and payload["deficiency"]
        assert all(math.isfinite(v) for v in payload["increments"] + payload["deficiency"])

    @pytest.mark.parametrize(
        "config",
        [
            {"kind": "bergman-distance",
             "params": {"generator": {"zeros": [{"position": [0.5]}]}}},
            {"kind": "nearly-maximal",
             "params": {"measure": {"interior": [{"position": [0.5], "mass": 1.0}]}}},
        ],
        ids=["zero", "interior-atom"],
    )
    def test_short_position_exits_1(self, workdir, config):
        (workdir / "s.json").write_text(json.dumps(config))
        res = run_cli(["run", "s.json", "--out", "o"], workdir)
        assert res.returncode == 1
        assert "validation error" in res.stderr
        assert "position needs [re, im]" in res.stderr
        assert "Traceback" not in res.stderr


class TestGceScenario:
    def test_dirichlet_scenario_grid_payload(self, workdir):
        config = {
            "kind": "gce-dirichlet",
            "params": {
                "radius": 0.9,
                "n_r": 16,
                "n_theta": 32,
                "atoms": [{"position": [0.0, 0.0], "mass": 1.0}],
            },
        }
        (workdir / "s.json").write_text(json.dumps(config))
        res = run_cli(["run", "s.json", "--out", "o"], workdir)
        assert res.returncode == 0, res.stderr
        payload = json.loads((workdir / "o" / "gce.json").read_text(), parse_constant=_reject_constant)
        assert payload["center"] is None  # u is -infinity at the atom on the center node
        assert len(payload["grid"]["values"]) == 16
        assert len(payload["grid"]["values"][0]) == 32
        assert payload["residual"] < 1e-9


def test_scenario_output_subpath(tmp_path):
    config = {
        "kind": "entropy",
        "params": {"degree": 3, "seed": 1, "count": 2},
        "output": "nested/results",
    }
    (tmp_path / "s.json").write_text(json.dumps(config))
    res = run_cli(["run", "s.json", "--out", "o"], tmp_path)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "o" / "nested" / "results" / "entropy.csv").exists()


def test_scenario_output_escapes_rejected(tmp_path):
    config = {"kind": "entropy", "params": {}, "output": "../evil"}
    (tmp_path / "s.json").write_text(json.dumps(config))
    res = run_cli(["run", "s.json", "--out", "o"], tmp_path)
    assert res.returncode == 1
    assert "validation error" in res.stderr
    assert "output" in res.stderr


@pytest.mark.parametrize("output,out", [(None, "f"), ("f/sub", ".")], ids=["out-is-file", "output-under-file"])
def test_unwritable_output_exits_1(tmp_path, output, out):
    (tmp_path / "f").write_text("")
    config = {"kind": "entropy", "params": {"degree": 3, "seed": 1, "count": 2}}
    if output is not None:
        config["output"] = output
    (tmp_path / "s.json").write_text(json.dumps(config))
    res = run_cli(["run", "s.json", "--out", out], tmp_path)
    assert res.returncode == 1
    assert res.stderr.startswith("validation error: entropy: cannot write output:"), res.stderr
    assert "Traceback" not in res.stderr


# ---------------------------------------------------------------------------
# malformed scenarios, run in process


def run_in_process(config, out):
    """`innerlab run` on `config` in this process; returns the click result."""
    path = out.parent / f"{out.name}.json"
    path.write_text(json.dumps(config))
    return CliRunner().invoke(cli.main, ["run", str(path), "--out", str(out)])


def assert_rejected(result, out):
    assert result.exit_code == 1, (result.output, result.exception)
    assert isinstance(result.exception, SystemExit), repr(result.exception)
    assert result.stderr.startswith("validation error:"), result.stderr
    assert "Traceback" not in result.output
    assert not out.exists()


MALFORMED = {
    "n_r-string": ("gce-dirichlet", {"n_r": "abc"}),
    "boundary-string": ("gce-dirichlet", {"boundary": "maximal"}),
    "n_r-below-8": ("gce-dirichlet", {"n_r": 4}),
    "radius-above-1": ("gce-dirichlet", {"radius": 1.5}),
    "atom-on-boundary-node": (
        "gce-dirichlet",
        {"radius": 0.9, "n_r": 8, "n_theta": 8, "atoms": [{"position": [0.9, 0.0], "mass": 1.0}]},
    ),
    "constant-boundary-without-value": ("gce-dirichlet", {"boundary": {"kind": "constant"}}),
    "maximal-boundary-with-value": ("gce-dirichlet", {"boundary": {"kind": "maximal", "value": 3.0}}),
    "n2-not-power-of-2": ("roberts", {"measure": {}, "n2": 6}),
    "unknown-param": ("entropy", {"degre": 6}),
    "bool-int": ("entropy", {"degree": True}),
    "string-int": ("entropy", {"count": "3"}),
    "float-int": ("entropy", {"count": 8.0}),
    "multiplicity-string": (
        "bergman-distance",
        {"generator": {"zeros": [{"position": [0.5, 0.0], "multiplicity": "two"}]}},
    ),
    "atom-not-object": ("nearly-maximal", {"measure": {"interior": [5]}}),
    "unknown-atom-key": (
        "nearly-maximal",
        {"measure": {"interior": [{"position": [0.1, 0.0], "mass": 1.0, "weight": 2}]}},
    ),
    "empty-ladder": ("nearly-maximal", {"measure": {}, "ladder": []}),
    "ladder-not-list": ("nearly-maximal", {"measure": {}, "ladder": 5}),
    "ladder-decreasing": ("nearly-maximal", {"measure": {}, "ladder": [5, 2], "n_r": 8, "n_theta": 8}),
    "outer-points-empty": ("outer-eval", {"set": {"points": [0.0, 3.0]}, "points": []}),
    "short-outer-point": ("outer-eval", {"set": {"points": [0.0, 3.0]}, "points": [[0.5]]}),
    "set-point-string": ("outer-eval", {"set": {"points": ["a"]}}),
    "depth-0": ("outer-eval", {"set": {"points": [0.0, 3.0]}, "depth": 0}),
    "M-string": ("diffuse-experiment", {"n": [8], "M": ["x"]}),
    "m-above-60": ("bergman-distance", {"generator": {}, "m": 100}),
    "alpha-below-minus-1": ("bergman-distance", {"generator": {}, "alpha": -2}),
    "fund3-one-rung": ("fund3-check", {"measure1": {}, "measure2": {}, "ladder": [2]}),
    "fund3-short-right-route": ("fund3-check", {"measure1": {}, "measure2": {}, "ladder": [2, 3]}),
    "fund3-ladder-not-increasing": (
        "fund3-check",
        {"measure1": {}, "measure2": {}, "ladder": [3, 4, 2], "n_r": 8, "n_theta": 8},
    ),
}


@pytest.mark.parametrize(
    "config",
    [{"kind": kind, "params": params} for kind, params in MALFORMED.values()]
    + [{"kind": "entropy", "params": {}, "extra": 1}],
    ids=list(MALFORMED) + ["unknown-top-level-key"],
)
def test_malformed_scenario_exits_1(tmp_path, config):
    out = tmp_path / "o"
    assert_rejected(run_in_process(config, out), out)


@pytest.mark.parametrize(
    "params,message",
    [
        # u_max is infinite on the unit circle, and no atom is anywhere
        ({"radius": 1.0, "n_r": 8, "n_theta": 8}, "boundary data must be finite"),
        ({"radius": 0.9, "n_r": 8, "n_theta": 8, "atoms": [{"position": [0.9, 0.0], "mass": 1.0}]},
         "an atom sits on a boundary node"),
    ],
    ids=["infinite-data", "atom-on-rim"],
)
def test_nonfinite_dirichlet_data_message(tmp_path, params, message):
    out = tmp_path / "o"
    result = run_in_process({"kind": "gce-dirichlet", "params": params}, out)
    assert_rejected(result, out)
    assert result.stderr == f"validation error: gce-dirichlet: {message}\n"


def test_maximal_data_on_unit_circle_prints_one_line(tmp_path):
    # u_max is infinite on the rim; evaluating it must not warn before the message
    config = {"kind": "gce-dirichlet", "params": {"radius": 1.0, "n_r": 8, "n_theta": 8}}
    (tmp_path / "s.json").write_text(json.dumps(config))
    res = run_cli(["run", "s.json", "--out", "o"], tmp_path)
    assert res.returncode == 1
    assert res.stderr == "validation error: gce-dirichlet: boundary data must be finite\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("point,index", [([1, 0], 0), ([-1, 0], 1)], ids=["angle-0", "angle-pi"])
def test_outer_point_on_set_exits_1(tmp_path, point, index):
    # Phi vanishes on E, so log|Phi| there is -infinity
    points = [[0.5, 0.0], point] if index else [point]
    config = {"kind": "outer-eval",
              "params": {"set": {"points": [0.0, math.pi]}, "points": points}}
    (tmp_path / "s.json").write_text(json.dumps(config))
    res = run_cli(["run", "s.json", "--out", "o"], tmp_path)
    assert res.returncode == 1
    assert res.stderr == (
        f"validation error: outer-eval: params.points[{index}] lies on E, where log|Phi| is -infinity\n"
    )
    assert not (tmp_path / "o").exists()


def test_outer_point_outside_disk_exits_1(tmp_path):
    config = {"kind": "outer-eval",
              "params": {"set": {"points": [0.0, 3.0]}, "points": [[0.5, 0.0], [2, 0]]}}
    out = tmp_path / "o"
    result = run_in_process(config, out)
    assert_rejected(result, out)
    assert result.stderr == (
        "validation error: outer-eval: params.points[1] must lie in the closed unit disk, got [2, 0]\n"
    )


def test_outer_points_on_circle_allowed(tmp_path):
    # |Phi| <= 1 holds up to the circle: off E it is the boundary weight
    config = {"kind": "outer-eval",
              "params": {"set": {"points": [0.0, 3.0]}, "points": [[0.6, 0.8], [-1, 0], [0, 1]]}}
    result = run_in_process(config, tmp_path / "o")
    assert result.exit_code == 0, result.output
    lines = (tmp_path / "o" / "outer.csv").read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 3
    for row in data:
        assert 0.0 < float(row.split(",")[2]) <= 1.0


NUMERICAL_FAILURES = {
    # the Newton state turns NaN in the first step
    "huge-constant-data": (
        "gce-dirichlet", {"n_r": 8, "n_theta": 8, "boundary": {"kind": "constant", "value": 1e308}},
        "PolarGrid(R=0.9, 8x8): scaled residual is nan at Newton step 0"),
    "tiny-radius": (
        "gce-dirichlet", {"n_r": 8, "n_theta": 8, "radius": 1e-300},
        "PolarGrid(R=1e-300, 8x8): scaled residual is nan at Newton step 0"),
    # the generator underflows to 0 on every node, so the Gram matrix would be singular
    "huge-singular-mass": (
        "bergman-distance", {"generator": {"singular_atoms": [{"angle": 0.0, "mass": 1e200}]}},
        "the generator underflows to 0 at every quadrature node"),
    # the residual's entries are finite but its 2-norm overflows
    "huge-boundary-mass": (
        "nearly-maximal", {"measure": {"boundary": [{"angle": 1.0, "mass": 1e200}]}},
        "PolarGrid(R=0.75, 64x128): residual norm is inf at Newton step 0"),
    # the source e^{2w} is clamped at w = 150, where the scaled residual cannot see it
    "clamped-source": (
        "gce-dirichlet", {"boundary": {"kind": "constant", "value": 1e140}},
        "PolarGrid(R=0.9, 64x128): the accepted iterate has w = 1e+140 > 150 "
        "at a node with q > 0, where the source is clamped"),
    # the generator is NaN near the atom
    "overflowing-singular-mass": (
        "bergman-distance", {"generator": {"singular_atoms": [{"angle": 0.0, "mass": 1e308}]}},
        "the generator is not finite at the quadrature nodes"),
    # past depth ~1010 the pieces are too short for finite masses; past
    # 1023 the divisor 3*2^k of their lengths overflows, before any array
    # of the depth's size is built
    **{f"outer-depth-{depth}": (
        "outer-eval", {"set": {"points": [0.0, 3.0, 3.1]}, "depth": depth},
        f"outer-function masses are not finite at depth {depth}") for depth in (1020, 1023)},
    **{f"outer-depth-{depth}": (
        "outer-eval", {"set": {"points": [0.0, 3.0, 3.1]}, "depth": depth},
        "(34, 'Numerical result out of range')") for depth in (1024, 10**9)},
}


@pytest.mark.parametrize(
    "kind,params,message", list(NUMERICAL_FAILURES.values()), ids=list(NUMERICAL_FAILURES)
)
def test_valid_input_numerical_failure_exits_2(tmp_path, kind, params, message):
    # the message is the whole of stderr: no numpy warning comes before it
    (tmp_path / "s.json").write_text(json.dumps({"kind": kind, "params": params}))
    res = run_cli(["run", "s.json", "--out", "o"], tmp_path)
    assert res.returncode == 2, res.stderr
    assert res.stderr == f"numerical failure: {message}\n"
    assert not (tmp_path / "o").exists()


TOO_LARGE_FOR_MEMORY = {
    "gce-dirichlet": {"n_theta": 10**12},
    "nearly-maximal": {"measure": {}, "n_r": 10**11},
    "bergman-distance": {"generator": {}, "n_r": 10**6, "n_theta": 10**6},
}


def _limit_address_space():
    # 3 GiB: the first large allocation fails at once, whatever the
    # host's overcommit policy
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


@pytest.mark.parametrize(
    "kind,params", TOO_LARGE_FOR_MEMORY.items(), ids=TOO_LARGE_FOR_MEMORY.keys()
)
def test_grid_too_large_for_memory_exits_2(tmp_path, kind, params):
    # only ever run these sizes under the address-space limit
    (tmp_path / "s.json").write_text(json.dumps({"kind": kind, "params": params}))
    res = subprocess.run(
        RUN + ["run", "s.json", "--out", "o"], capture_output=True, text=True, cwd=tmp_path,
        env={**child_env(), "OPENBLAS_NUM_THREADS": "1"}, preexec_fn=_limit_address_space,
    )
    assert res.returncode == 2, res.stderr
    assert res.stderr.startswith("numerical failure: Unable to allocate ")
    assert res.stderr.count("\n") == 1 and res.stderr.endswith("\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("generations", [40, 10**18])
def test_roberts_depth_past_machine_integers_exits_1(tmp_path, generations):
    # n_j = 16^(2^38) at generation 40 would take 128 GiB: the guard must
    # reject the depth without building n_j (the address-space limit turns a
    # regression into a failure, not a swapping host)
    params = {"measure": {}, "generations": generations}
    (tmp_path / "s.json").write_text(json.dumps({"kind": "roberts", "params": params}))
    res = subprocess.run(
        RUN + ["run", "s.json", "--out", "o"], capture_output=True, text=True, cwd=tmp_path,
        env={**child_env(), "OPENBLAS_NUM_THREADS": "1"}, preexec_fn=_limit_address_space,
    )
    assert res.returncode == 1, res.stderr
    assert res.stderr == "validation error: roberts: n_j overflows machine integers at this depth\n"
    assert not (tmp_path / "o").exists()


def test_import_leaves_scipy_interpolate_unloaded(tmp_path):
    # every innerlab process pays for what the import loads
    probe = "import sys, innerlab, innerlab.cli; print('scipy.interpolate' in sys.modules)"
    res = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, cwd=tmp_path, env=child_env()
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


@pytest.mark.parametrize(
    "kind,params",
    [
        ("nearly-maximal", {"measure": {}, "ladder": [2, 10**400]}),
        ("nearly-maximal", {"measure": {}, "ladder": [2, 60], "n_r": 8, "n_theta": 8}),
        ("fund3-check",
         {"measure1": {}, "measure2": {}, "ladder": [2, 3, 10000, 10001], "n_r": 8, "n_theta": 8}),
    ],
    ids=["rung-overflows-float", "rung-60", "fund3-rung-10000"],
)
def test_ladder_rung_out_of_range_exits_1(tmp_path, kind, params):
    # beyond k = 53, r_k = 1 - 2^-k is no double below 1: no rung is solved
    (tmp_path / "s.json").write_text(json.dumps({"kind": kind, "params": params}))
    res = run_cli(["run", "s.json", "--out", "o"], tmp_path)
    assert res.returncode == 1, res.stderr
    assert res.stderr == (
        f"validation error: {kind}: ladder rungs must lie in 1..53, "
        "where r_k = 1 - 2^-k is a double in (0, 1)\n"
    )
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "ladder,message",
    [([5, 2, 100], "ladder rungs must lie in 1..53, where r_k = 1 - 2^-k is a double in (0, 1)"),
     ([5, 2], "ladder rungs must strictly increase")],
    ids=["out-of-range", "decreasing"],
)
def test_diffuse_bad_ladder_exits_1_without_a_solvable_row(tmp_path, ladder, message):
    # theta_n is unsolvable for n = 8 at M = 10, so no row reaches a solve:
    # the ladder is checked up front
    params = {"n": [8], "M": [10.0], "ladder": ladder}
    (tmp_path / "s.json").write_text(json.dumps({"kind": "diffuse-experiment", "params": params}))
    res = run_cli(["run", "s.json", "--out", "o"], tmp_path)
    assert res.returncode == 1, res.stderr
    assert res.stderr == f"validation error: diffuse-experiment: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "params", [{"n": [], "M": [0.2]}, {"n": [1], "M": []}], ids=["empty-n", "empty-M"]
)
def test_diffuse_empty_table_exits_1(tmp_path, params):
    # an empty list would leave a CSV with a header and no row
    out = tmp_path / "o"
    result = run_in_process({"kind": "diffuse-experiment", "params": params}, out)
    assert_rejected(result, out)
    assert result.stderr == "validation error: diffuse-experiment: need at least one n and one M\n"


def test_diffuse_tiny_m_writes_the_root(tmp_path):
    # theta_n ~ 1.8e-302 is a normal double, so the row is the equation's root
    params = {"n": [8], "M": [1e-298], "ladder": [2, 3], "n_r": 8, "n_theta": 8}
    result = run_in_process({"kind": "diffuse-experiment", "params": params}, tmp_path / "o")
    assert result.exit_code == 0, (result.output, result.exception)
    rows = [ln for ln in (tmp_path / "o" / "diffuse.csv").read_text().splitlines() if ln[0] != "#"]
    n, big_m, theta = (float(x) for x in rows[1].split(",")[:3])
    assert rows[1].endswith(",ok")
    assert n * theta * math.log(1.0 / theta) == pytest.approx(big_m, rel=1e-12, abs=0.0)


def test_diffuse_theta_below_the_normal_doubles_exits_1(tmp_path):
    # n theta log(1/theta) = M has its root below the smallest normal double
    out = tmp_path / "o"
    params = {"n": [8], "M": [1e-306], "ladder": [2, 3], "n_r": 8, "n_theta": 8}
    result = run_in_process({"kind": "diffuse-experiment", "params": params}, out)
    assert_rejected(result, out)
    assert "below the smallest normal double" in result.stderr


def test_deeply_nested_json_exits_1(tmp_path):
    (tmp_path / "s.json").write_text("[" * 100_000)
    out = tmp_path / "o"
    assert_rejected(CliRunner().invoke(cli.main, ["run", str(tmp_path / "s.json"), "--out", str(out)]), out)


# one small valid scenario per kind; the fuzz test below breaks each in one place
SMALL = {
    "entropy": {"degree": 3, "seed": 1, "count": 2},
    "roberts": {
        "measure": {"interior": [{"position": [0.5, 0.3], "mass": 0.8}],
                    "boundary": [{"angle": 1.0, "mass": 0.5}]},
        "c": 1.0, "n2": 16, "generations": 3,
    },
    "gce-dirichlet": {
        "radius": 0.9, "n_r": 8, "n_theta": 8, "boundary": {"kind": "constant", "value": 0.5},
        "atoms": [{"position": [0.1, 0.2], "mass": 1.0}],
    },
    "nearly-maximal": {
        "measure": {"boundary": [{"angle": 0.0, "mass": 1.0}]},
        "ladder": [2, 3], "n_r": 8, "n_theta": 8, "stop_tol": 0.0,
    },
    "diffuse-experiment": {"n": [8], "M": [10.0], "ladder": [2, 3], "n_r": 8, "n_theta": 8},
    "outer-eval": {"set": {"points": [0.0, 3.0]}, "depth": 3, "points": [[0.1, 0.2]]},
    "bergman-distance": {
        "generator": {"zeros": [{"position": [0.5, 0.0], "multiplicity": 1}],
                      "singular_atoms": [{"angle": 1.0, "mass": 0.5}]},
        "m": 4, "alpha": 0.0, "n_r": 16, "n_theta": 32,
    },
    "fund3-check": {
        "measure1": {"interior": [{"position": [0.1, 0.0], "mass": 0.5}]},
        "measure2": {"boundary": [{"angle": 1.0, "mass": 0.2}]},
        "ladder": [2, 3, 4], "n_r": 8, "n_theta": 8,
    },
}

# (name of the enclosing key, key) of every required key in SMALL
REQUIRED_KEYS = {
    ("", "kind"),
    ("params", "measure"), ("params", "measure1"), ("params", "measure2"),
    ("params", "n"), ("params", "M"), ("params", "set"), ("params", "generator"),
    ("set", "points"), ("boundary", "value"),
    ("interior", "position"), ("interior", "mass"), ("atoms", "position"), ("atoms", "mass"),
    ("zeros", "position"), ("boundary", "angle"), ("boundary", "mass"),
    ("singular_atoms", "angle"), ("singular_atoms", "mass"),
}

# one JSON value of each type; a value is only replaced by one of another type
OTHER_TYPES = {"bool": True, "number": 1.5, "null": None, "string": "x", "list": [], "object": {}}


def json_type(value):
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {type(None): "null", str: "string", list: "list", dict: "object"}[type(value)]


def small_scenario(kind):
    return {"kind": kind, "params": copy.deepcopy(SMALL[kind]), "output": "sub"}


def mutations(node, path=(), name=""):
    """Every single-place change of `node` that no scenario kind accepts."""
    out = []
    if isinstance(node, dict):
        out.append(("add", path, "bogus"))
        for key, child in node.items():
            if (name, key) in REQUIRED_KEYS:
                out.append(("drop", path, key))
            out += [("set", path + (key,), v) for t, v in OTHER_TYPES.items() if t != json_type(child)]
            out += mutations(child, path + (key,), key)
    elif isinstance(node, list):
        for i, child in enumerate(node):
            out += [("set", path + (i,), v) for t, v in OTHER_TYPES.items() if t != json_type(child)]
            out += mutations(child, path + (i,), name)
    return out


def mutated(config, mutation):
    op, path, arg = mutation
    config = copy.deepcopy(config)
    parent = config
    for step in path[:-1] if op == "set" else path:
        parent = parent[step]
    if op == "add":
        parent[arg] = 0
    elif op == "drop":
        del parent[arg]
    else:
        parent[path[-1]] = copy.deepcopy(arg)
    return config


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_small_scenarios_run(tmp_path, kind):
    result = run_in_process(small_scenario(kind), tmp_path / "o")
    assert result.exit_code == 0, result.output
    assert os.listdir(tmp_path / "o" / "sub")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_fuzz_one_mutation_exits_1(data):
    config = small_scenario(data.draw(st.sampled_from(sorted(SMALL)), label="kind"))
    config = mutated(config, data.draw(st.sampled_from(mutations(config)), label="mutation"))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "o"
        assert_rejected(run_in_process(config, out), out)


def test_readme_lists_every_parameter():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = {ln.split("|")[1].strip(): ln for ln in section.splitlines() if ln.startswith("| `")}
    assert sorted(rows) == sorted(f"`{kind}`" for kind in cli.SCENARIOS)
    for kind, spec in cli.SCENARIOS.items():
        for name in spec.params:
            assert f"`{name}`" in rows[f"`{kind}`"], (kind, name)
