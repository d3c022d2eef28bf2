#!/usr/bin/env python3
"""Count the Newton-GMRES work of the curvature-equation solves.

Counts from outside with perfbench's tracer (nothing in src/ is edited),
then runs acceptance criteria 01, 03, 04, 07 and 08 and the two
operations of perfbench's `ladder` workload at seed 0. Prints, per item,
Newton steps / GMRES iterations / factorizations, summed over its solves;
`ladder` is the sum of its two operations. The counts are deterministic, so
two versions of the solver that do the same work print the same table.

    python3 benchmarks/work.py
"""

import contextlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CRITERIA = ("01", "03", "04", "07", "08")


class Counts:
    def __init__(self):
        self.newton = self.krylov = self.factors = 0

    def row(self, name):
        return f"{name:<16} {self.newton:>6} / {self.krylov:>6} / {self.factors:>4}"


@contextlib.contextmanager
def counting():
    """Count while the block runs: Newton steps and factorizations through
    perfbench's tracer, GMRES iterations from gce._gmres's returns."""
    from innerlab import gce
    from tracing import Tracer, recording

    counts = Counts()
    with Tracer().installed() as tracer, recording(gce, "_gmres") as solves:
        yield counts
    counts.newton = tracer.values["gce.newton_iters"]
    counts.factors = tracer.values["gce.splu_calls"]
    counts.krylov = sum(iters for _, iters in solves)


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from innerlab import acceptance

    print(f"{'item':<16} Newton / GMRES / factorizations")
    for number in CRITERIA:
        (criterion,) = [fn for fn in acceptance.CRITERIA if fn.__name__ == f"criterion_{number}"]
        with counting() as counts:
            criterion()
        print(counts.row(number))
    total = Counts()
    with tempfile.TemporaryDirectory() as workdir:
        for op in workloads.Ladder(0, workdir).operations():
            with counting() as counts:
                fails = op.run()
            if fails:
                raise SystemExit(f"ladder.{op.name} failed its checks: {fails}")
            print(counts.row(f"ladder.{op.name}"))
            total.newton += counts.newton
            total.krylov += counts.krylov
            total.factors += counts.factors
    print(total.row("ladder"))


if __name__ == "__main__":
    main()
