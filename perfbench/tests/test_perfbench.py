"""Tests of the benchmark itself: its checks, its tracing and its counts.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from innerlab import frozen, gce, roberts  # noqa: E402
from innerlab.measures import DiskMeasure  # noqa: E402


def _ops(workload, names):
    return [op for op in workload.operations() if op.name in names]


class Subset:
    """A workload restricted to some of its operations."""

    def __init__(self, workload, names):
        self.workload, self.names = workload, names

    def operations(self):
        return _ops(self.workload, self.names)

    def stats(self, outcomes):
        return self.workload.stats(outcomes)


def _failures(p):
    return [(op.name, fails) for op, fails, _ in p.outcomes]


# cheap operations that still reach every layer the counts come from
GEOMETRY_OPS = {"order4_decay", "star_area_band", "max_star_mass", "roberts_corpus_0",
                "roberts_corpus_1", "roberts_corpus_2"}
SCENARIO_OPS = {"entropy_00", "roberts_01", "gce-dirichlet_02", "outer-eval_05",
                "gce-dirichlet_08", "entropy_12", "gce-dirichlet_13"}


@pytest.fixture(scope="module")
def scenario_runs(tmp_path_factory):
    """Two untraced and two traced passes over the cheap scenario operations."""
    wl = workloads.Scenarios(workloads.DEFAULT_SEED, str(tmp_path_factory.mktemp("work")))
    sub, speed = Subset(wl, SCENARIO_OPS), hostspeed.HostSpeed()
    return [run.run_pass(sub, tracing.Tracer() if traced else None, speed)
            for traced in (False, True, False, True)]


@pytest.fixture(scope="module")
def geometry_passes(tmp_path_factory):
    out, speed = [], hostspeed.HostSpeed()
    for traced in (False, True, True):
        wl = workloads.Geometry(workloads.DEFAULT_SEED, str(tmp_path_factory.mktemp("work")))
        out.append(run.run_pass(Subset(wl, GEOMETRY_OPS), tracing.Tracer() if traced else None,
                                speed))
    return out


# ---------------------------------------------------------------------------
# each check flags a perturbed result


def test_oracle_and_residual_checks():
    assert checks.oracle(1.643349e-4) == []
    assert checks.oracle(1.1e-3) and checks.oracle(math.nan)
    assert checks.residuals([7.9e-11, 1e-10]) == []
    assert checks.residuals([7.9e-11, 2e-10])
    assert checks.finite("u(0)", 0.5) == [] and checks.finite("u(0)", -math.inf)


def test_verify_check_flags_a_perturbed_decomposition():
    om = DiskMeasure([(0.5 + 0.3j, 0.8)], [(1.0, 0.5), (4.0, 0.3)])
    p = roberts.RobertsParams(c=0.7, n2=16, max_generation=3)
    d = roberts.decompose(om, p)
    assert checks.verify_ok(roberts.verify(d, om, p)) == []
    extra = replace(d, cone=DiskMeasure(d.cone.interior, d.cone.boundary + ((2.5, 0.1),)))
    assert checks.verify_ok(roberts.verify(extra, om, p))


def test_frozen_and_band_checks():
    ref = frozen.HYPERBOLIC_DECAY_RATIO
    assert checks.frozen_bound("r", ref, ref) == []
    assert checks.frozen_bound("r", ref * 1.06, ref)
    inside = [frozen.STAR_AREA_BAND_LO + 0.1, frozen.STAR_AREA_BAND_HI - 0.1]
    assert checks.star_band(inside, frozen) == []
    assert checks.star_band(inside + [frozen.STAR_AREA_BAND_HI + 0.1], frozen)
    assert checks.star_band(inside + [frozen.STAR_AREA_BAND_LO - 0.1], frozen)


def test_star_capture_check():
    assert checks.star_capture((2.0, None), (1.5, None), 1.0) == []
    assert checks.star_capture((1.5, None), (2.0, None), 1.0)


def test_strict_json_check():
    assert checks.strict_json("a.json", '{"center": -1.5}')[1] == []
    for bad in ('{"center": -Infinity}', '{"x": NaN}', '{"x": Infinity}', "{"):
        assert checks.strict_json("a.json", bad)[1]


def test_exit_checks():
    ok = workloads.CliRun(0, "", None)
    rejected = workloads.CliRun(1, "validation error: bad n_r\n", None)
    crashed = workloads.CliRun(1, "", "ValueError: invalid literal")
    numerical = workloads.CliRun(2, "numerical failure: stalled\n", None)
    assert checks.exit_ok(ok) == []
    assert checks.exit_ok(crashed) and checks.exit_ok(numerical) and checks.exit_ok(rejected)
    assert checks.validation_error(rejected) == []
    for run_ in (ok, crashed, numerical):
        assert checks.validation_error(run_)


def test_table_checks(scenario_runs):
    assert dict(_failures(scenario_runs[0]))["entropy_00"] == []
    csv_text = "# kind = entropy\ndegree,formula_entropy,quadrature_entropy,abs_diff\n"
    assert checks.entropy_table(csv_text + "3,1.0,1.0,1.0e-07\n") == []
    assert checks.entropy_table(csv_text + "3,1.0,1.0,2.0e-06\n")
    head = "n,M,theta_n,u_at_0,u_D_gap,status\n"
    good = head + "8,10.0,nan,nan,nan,theta-unsolvable\n32,10.0,0.1,-0.2,0.2,ok\n"
    assert checks.diffuse_table(good, {8}) == []
    assert checks.diffuse_table(good.replace("theta-unsolvable", "ok"), {8})
    assert checks.diffuse_table(good.replace("-0.2", "nan"), {8})
    assert checks.fund3({"sup_difference": 3.7e-3}) == []
    assert checks.fund3({"sup_difference": 5.1e-3})
    assert checks.roberts_payload({"verify": {"ok": True, "failures": []}}) == []
    assert checks.roberts_payload({"verify": {"ok": False, "failures": ["mass"]}})


def test_identity_check_flags_a_changed_byte():
    files = {"a.csv": b"1,2\n", "b.json": b"{}\n"}
    assert checks.identical(None, files) == []
    assert checks.identical(files, dict(files)) == []
    assert checks.identical(files, {**files, "a.csv": b"1,3\n"})
    assert checks.identical(files, {"a.csv": b"1,2\n"})


# ---------------------------------------------------------------------------
# tracing


def test_known_bad_misses_count_in_fail_frac_not_in_failed():
    good = workloads.Op("good", None)
    bad = workloads.Op("bad", None, known_bad=True)
    p = run.Pass(False, 1.0, [(good, [], 0.25), (bad, ["traceback"], 0.75)], None)
    report, result = run.summarize("w", [p, p], 0.5, 2.0, trace=False)
    assert (result["attempted"], result["failed"], result["correct"]) == (4, 0, True)
    assert report["fail_frac"][0] == 0.5
    # times are reported in reference-host seconds: raw over the host slowdown
    assert (report["wall_s"][0], report["setup_s"][0]) == (0.5, 0.25)
    wrong = run.Pass(False, 1.0, [(good, ["wrong"], 0.25), (bad, [], 0.75)], None)
    report, result = run.summarize("w", [wrong, p], 0.5, 2.0, trace=False)
    assert (result["failed"], result["correct"]) == (1, False)
    assert report["fail_frac"][0] == 0.5


def test_cli_counters_agree_with_the_outcomes(scenario_runs):
    p = scenario_runs[1]
    layers = p.layers
    assert layers["cli.known_bad_missed"] == sum(
        1 for op, f, _ in p.outcomes if op.known_bad and f
    )
    assert layers["cli.tracebacks"] == sum(
        1 for _, f, _ in p.outcomes if any(m.startswith("traceback") for m in f)
    )
    assert layers["cli.bytes_written"] > 0
    assert layers["cli.entropy.wall_s"] > 0


def test_traced_run_passes_the_same_checks(scenario_runs, geometry_passes):
    assert _failures(scenario_runs[2]) == _failures(scenario_runs[3])
    assert _failures(geometry_passes[0]) == _failures(geometry_passes[1])
    assert all(not f for _, f in _failures(geometry_passes[0]))


def test_counts_repeat_exactly(scenario_runs, geometry_passes):
    counts = [k for k, (unit, _) in tracing.PER_LAYER.items() if unit == "count"]
    for a, b in ((scenario_runs[1].layers, scenario_runs[3].layers),
                 (geometry_passes[1].layers, geometry_passes[2].layers)):
        assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert scenario_runs[1].layers["gce.splu_calls"] > 0
    assert scenario_runs[1].layers["gce.newton_iters"] > 0
    assert geometry_passes[1].layers["bc_sets.dist_calls"] > 0
    assert geometry_passes[1].layers["roberts.cone_gaps"] > 0


def test_tracer_restores_every_binding():
    from innerlab import bc_sets, calibration

    before = (gce.splu, bc_sets.dist_angle_to_set, calibration.dist_angle_to_set,
              gce.PolarGrid.operators)
    with tracing.Tracer().installed():
        assert calibration.dist_angle_to_set is bc_sets.dist_angle_to_set
        assert calibration.dist_angle_to_set is not before[1]
    after = (gce.splu, bc_sets.dist_angle_to_set, calibration.dist_angle_to_set,
             gce.PolarGrid.operators)
    assert before == after


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == tracing.PER_LAYER[m["name"]]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
