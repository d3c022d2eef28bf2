import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env
from oracles import star_dist_every_sample

from innerlab import calibration, frozen
from innerlab.bc_sets import TAU, BCSet, StarSpec, star_contains
from innerlab.calibration import _blaschke_with_critical_structure_in_star, _probes_outside
from innerlab.inner import RootFindingError


def probes_one_at_a_time(rng, spec, count):
    """One (radius, angle) draw and one membership test per candidate."""
    out = []
    tries = 0
    while len(out) < count and tries < 60 * count:
        tries += 1
        z = complex(rng.uniform(0.05, 0.995) * np.exp(1j * rng.uniform(0, TAU)))
        if not star_contains(spec, z):
            out.append(z)
    return np.array(out, dtype=np.complex128)


DENSE = BCSet.from_points(np.arange(256) * (TAU / 256))
CASES = {
    "order-2": (StarSpec(BCSet.from_points([0.5, 2.0, 4.0]), order=2.0), 120),
    "order-4": (StarSpec(BCSet.from_points([1.0, 3.0, 5.5]), order=4.0), 150),
    # a star over 256 points leaves almost nothing outside: the 60*count cap ends the search
    "cap": (StarSpec(DENSE, order=1.0), 5),
}


@pytest.mark.parametrize("case", list(CASES))
def test_matches_per_draw_loop(case):
    spec, count = CASES[case]
    for seed in (0, 3):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = probes_one_at_a_time(ref_rng, spec, count)
        got = _probes_outside(rng, spec, count)
        assert (len(want) < count) == (case == "cap")
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()


def draws_used(seed, spec, count):
    """Candidates the per-draw loop draws: through its count-th outside point,
    or all 60*count."""
    draws = np.random.default_rng(seed).uniform([0.05, 0.0], [0.995, TAU], (60 * count, 2))
    outside = np.flatnonzero(~star_contains(spec, draws[:, 0] * np.exp(1j * draws[:, 1])))
    return int(outside[count - 1]) + 1 if outside.size >= count else 60 * count


@pytest.mark.parametrize("case", list(CASES))
def test_tests_at_most_twice_the_draws_used(monkeypatch, case):
    spec, count = CASES[case]
    tested = []

    def counted(spec, z, tol=0.0):
        tested.append(np.size(z))
        return star_contains(spec, z, tol)

    monkeypatch.setattr(calibration, "star_contains", counted)
    for seed in (0, 3):
        tested.clear()
        _probes_outside(np.random.default_rng(seed), spec, count)
        used = draws_used(seed, spec, count)
        assert sum(tested) <= 2 * used + count
        assert (used < 60 * count) == (case != "cap")


@pytest.mark.parametrize("count", [0, -3])
def test_rejects_count_below_one(count):
    spec, _ = CASES["order-2"]
    with pytest.raises(ValueError, match="count"):
        _probes_outside(np.random.default_rng(0), spec, count)


def test_corpora_match_the_per_draw_and_every_sample_path(monkeypatch):
    fast = calibration.hyperbolic_decay_ratio(), calibration.order4_decay_ratios()
    monkeypatch.setattr(calibration, "_probes_outside", probes_one_at_a_time)
    monkeypatch.setattr(calibration, "hyperbolic_dist_to_star", star_dist_every_sample)
    assert (calibration.hyperbolic_decay_ratio(), calibration.order4_decay_ratios()) == fast


def test_calibrate_script_passes_the_frozen_guards():
    # benchmarks/calibrate.py prints the values frozen.py is regenerated
    # from; each must pass the guard the acceptance suite puts on it
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "calibrate.py"
    res = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, env=child_env()
    )
    assert res.returncode == 0, res.stderr
    lines = res.stdout.splitlines()
    constants = dict(ln.split(" = ") for ln in lines if not ln.startswith("#"))
    assert sorted(constants) == [
        "HYPERBOLIC_DECAY_RATIO", "ORDER4_CIRCLE_RATIO", "ORDER4_DISK_RATIO", "OUTER_DECAY_ORDER3",
    ]
    for name, value in constants.items():
        assert 0.0 < float(value) <= getattr(frozen, name) * 1.05, name
        # frozen.py holds these measurements: to 1e-12 relative, or to half a unit
        # in the last digit it keeps (OUTER_DECAY_ORDER3 has 12 significant digits)
        frozen_value = getattr(frozen, name)
        last_digit = 0.5 * 10.0 ** Decimal(repr(frozen_value)).as_tuple().exponent
        assert abs(float(value) - frozen_value) <= max(1e-12 * frozen_value, last_digit), name
    comments = [ln for ln in lines if ln.startswith("#")]
    assert len(comments) == 3
    ratios = re.fullmatch(r"# comparison gamma/c measured: \[(.*)\]", comments[0]).group(1)
    for ratio in map(float, ratios.split(", ")):
        assert frozen.COMPARISON_BAND_LO <= ratio <= frozen.COMPARISON_BAND_HI
    lo, hi = re.fullmatch(r"# star area/entropy measured band: \[(.*), (.*)\]", comments[1]).groups()
    assert frozen.STAR_AREA_BAND_LO <= float(lo) <= float(hi) <= frozen.STAR_AREA_BAND_HI
    dist = re.fullmatch(r"# singular generator distance measured: (.*) \(floor stays below it\)",
                        comments[2]).group(1)
    assert float(dist) >= frozen.SINGULAR_DISTANCE_FLOOR


@pytest.mark.parametrize("error,skipped", [(RootFindingError, True), (TypeError, False)])
def test_candidate_search_skips_only_root_finding_failures(monkeypatch, error, skipped):
    calls = []

    def failing(f):
        calls.append(f)
        raise error("no roots")

    monkeypatch.setattr(calibration, "critical_points", failing)
    rng, e = np.random.default_rng(2026), BCSet.from_points([0.5, 2.0, 4.0])
    if skipped:
        # every candidate fails to factor: each is skipped, and none is returned
        assert _blaschke_with_critical_structure_in_star(rng, e, 4) is None
        assert len(calls) == 40
    else:
        with pytest.raises(error):
            _blaschke_with_critical_structure_in_star(rng, e, 4)
        assert len(calls) == 1
