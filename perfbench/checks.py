"""Output checks. Each returns a list of failure messages; empty means pass.

Every threshold is the one of the acceptance criterion the output comes
from; none is loosened for the benchmark.
"""

import csv
import io
import json
import math

ORACLE_TOL = 1e-3  # criterion 01
RESIDUAL_TOL = 1e-10  # Newton tolerance of every solve
ENTROPY_TOL = 1e-6  # criterion 02
FUND3_TOL = 5e-3  # criterion 08
FROZEN_SLACK = 1.05  # criterion 11


def oracle(err):
    if not err <= ORACLE_TOL:
        return [f"Liouville oracle error {err:.6g} > {ORACLE_TOL:g}"]
    return []


def residuals(values):
    return [
        f"rung {i}: scaled residual {r:.3g} > {RESIDUAL_TOL:g}"
        for i, r in enumerate(values)
        if not r <= RESIDUAL_TOL
    ]


def finite(name, value):
    return [] if math.isfinite(value) else [f"{name} is not finite: {value!r}"]


def verify_ok(report):
    return [] if report.ok else [f"verify failed: {'; '.join(report.failures)}"]


def frozen_bound(name, val, ref):
    if not val <= ref * FROZEN_SLACK:
        return [f"{name} {val!r} > frozen {ref!r} x {FROZEN_SLACK}"]
    return []


def star_band(band, frozen):
    lo, hi = frozen.STAR_AREA_BAND_LO, frozen.STAR_AREA_BAND_HI
    if lo <= min(band) and max(band) <= hi:
        return []
    return [f"star area/entropy band [{min(band)!r}, {max(band)!r}] leaves [{lo}, {hi}]"]


def star_capture(exact, greedy, budget):
    """Exact capture is optimal over subsets, so it never trails greedy."""
    out = []
    for mode, (mass, witness) in (("exact", exact), ("greedy", greedy)):
        if witness is not None and not witness.entropy() <= budget + 1e-12:
            out.append(f"{mode} witness entropy {witness.entropy()!r} > budget {budget!r}")
    if not exact[0] >= greedy[0] - 1e-12:
        out.append(f"exact capture {exact[0]!r} < greedy capture {greedy[0]!r}")
    return out


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


def strict_json(name, text):
    """Parse as RFC 8259 JSON: NaN and Infinity are refused."""
    try:
        return json.loads(text, parse_constant=_reject_constant), []
    except ValueError as exc:
        return None, [f"{name}: {exc}"]


def exit_ok(run):
    if run.traceback:
        return [f"traceback: {run.traceback}"]
    if run.exit_code != 0:
        return [f"exit code {run.exit_code}: {run.stderr.strip()[:200]}"]
    return []


def validation_error(run):
    """A malformed scenario ends with exit 1 and a `validation error:` message."""
    if run.traceback:
        return [f"traceback instead of a validation error: {run.traceback}"]
    if run.exit_code != 1 or not run.stderr.startswith("validation error:"):
        return [f"exit code {run.exit_code} without a validation error: {run.stderr.strip()[:200]}"]
    return []


def csv_rows(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def entropy_table(text):
    return [
        f"entropy row {i}: abs_diff {row['abs_diff']} > {ENTROPY_TOL:g}"
        for i, row in enumerate(csv_rows(text))
        if not float(row["abs_diff"]) <= ENTROPY_TOL
    ]


def diffuse_table(text, unsolvable):
    """Rows with n in `unsolvable` report theta-unsolvable; the rest are ok and finite."""
    out = []
    for row in csv_rows(text):
        n = int(row["n"])
        want = "theta-unsolvable" if n in unsolvable else "ok"
        if row["status"] != want:
            out.append(f"diffuse row n={n}: status {row['status']} != {want}")
        elif want == "ok" and not math.isfinite(float(row["u_at_0"])):
            out.append(f"diffuse row n={n}: u_at_0 {row['u_at_0']}")
    return out


def fund3(payload):
    d = payload["sup_difference"]
    return [] if d <= FUND3_TOL else [f"fund3 sup_difference {d!r} > {FUND3_TOL:g}"]


def roberts_payload(payload):
    v = payload["verify"]
    return [] if v["ok"] else [f"roberts verify failed: {v['failures']}"]


def dirichlet_payload(payload):
    return residuals([payload["residual"]])


def identical(previous, files):
    """Each output file is byte-identical to the same file of the previous repeat."""
    if previous is None:
        return []
    out = []
    for name in sorted(set(previous) | set(files)):
        if previous.get(name) != files.get(name):
            out.append(f"{name} differs from the previous repeat")
    return out
