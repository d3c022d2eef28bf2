#!/usr/bin/env python3
"""Time innerlab's start-up in fresh interpreters.

Times `import innerlab`, then `innerlab run` on each of the fourteen
scenario files of perfbench's `scenarios` workload at seed 0, each in a new
process with one OpenBLAS thread, and prints the median of five runs and
whether the process loaded scipy. perfbench runs the CLI in process, so
its `scenarios` times leave out the interpreter and the imports.

    python3 benchmarks/startup.py
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLES = 5

IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import innerlab; "
    "print(time.perf_counter() - t, 'scipy' in sys.modules)"
)
# `innerlab run` as the console script runs it; reports on stderr, last,
# whether scipy was loaded
RUN_PROBE = (
    "import sys\n"
    "from innerlab import cli\n"
    "try:\n"
    "    cli.main(sys.argv[1:], prog_name='innerlab')\n"
    "finally:\n"
    "    print('scipy' in sys.modules, file=sys.stderr)\n"
)


def import_time(env, cwd):
    """(median seconds of `import innerlab`, whether it loaded scipy)."""
    times, loaded = [], set()
    for _ in range(SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=cwd,
                             capture_output=True, text=True, check=True)
        seconds, scipy = out.stdout.split()
        times.append(float(seconds))
        loaded.add(scipy)
    return statistics.median(times), "/".join(sorted(loaded))


def run_time(path, env, cwd):
    """(median wall seconds of a fresh `innerlab run path`, whether it loaded
    scipy, exit code)."""
    times, loaded, codes = [], set(), set()
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", RUN_PROBE, "run", path, "--out", "out"],
                             env=env, cwd=cwd, capture_output=True, text=True)
        times.append(time.perf_counter() - t0)
        loaded.add(out.stderr.splitlines()[-1])
        codes.add(str(out.returncode))
    return statistics.median(times), "/".join(sorted(loaded)), "/".join(sorted(codes))


def main():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    print(f"{'item':<34} {'median s':>8}  scipy  exit")
    with tempfile.TemporaryDirectory() as workdir:
        seconds, scipy = import_time(env, workdir)
        print(f"{'import innerlab':<34} {seconds:>8.3f}  {scipy:<5}")
        scenarios = workloads.Scenarios(0, workdir)
        for path, (kind, _, _) in zip(scenarios.paths, scenarios.cases):
            seconds, scipy, code = run_time(path, env, workdir)
            name = f"run {Path(path).stem} {kind}"
            print(f"{name:<34} {seconds:>8.3f}  {scipy:<5}  {code}")


if __name__ == "__main__":
    main()
