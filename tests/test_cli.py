import json
import math
import os
import subprocess
import sys

import pytest
from conftest import child_env

RUN = [sys.executable, "-m", "innerlab.cli"]


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
        assert "scenario_hash" in text
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
        payload = json.loads((workdir / "o" / "gce.json").read_text())
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
