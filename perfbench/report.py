#!/usr/bin/env python3
"""Run every workload untraced and then traced, and print every metric by name.

    python3 perfbench/report.py [--seed 0] [--seconds 30]

Each run is a separate `run.py` process, so each workload's end-to-end
numbers come from a process that ran nothing else. Exits non-zero if a run
fails or reports an incorrect output.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            print(f"== {name} trace={trace}")
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stdout.write(proc.stderr)
            if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
                print(f"== {name} trace={trace}: run failed (exit {proc.returncode})")
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
