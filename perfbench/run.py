#!/usr/bin/env python3
"""innerlab benchmark: one workload, one run.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 38 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` the run times whole passes over the workload's operations
with nothing wrapped and reports the end-to-end metrics. With `--trace 1`
it alternates untraced and traced passes and reports the per-layer
metrics of the traced passes, plus the tracing overhead. Either way every
output is checked. Human-readable lines come first; the last line of
standard output is the JSON result.

BLAS is pinned to one thread before numpy loads: one OpenBLAS thread was
measured no slower than two on a 2-vCPU host (nearly_maximal at 96x192,
median 3.12 s against 3.46 s).
"""

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed
from tracing import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
IMPORT_SAMPLES = 3  # fresh interpreters timing `import innerlab`
INPUT_SAMPLES = 5  # in-process repeats of the input generation
SETUP_SPEED_SAMPLES = 3  # host-speed samples taken next to the import timing

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import innerlab; print(repr(time.perf_counter() - t))"
)


def import_seconds():
    """Median wall time of `import innerlab` in fresh interpreters."""
    env = dict(os.environ)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def blas_threads():
    """Thread count reported by each OpenBLAS that numpy and scipy loaded."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("libscipy_openblas*.so")):
            handle = ctypes.CDLL(str(lib))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                if hasattr(handle, sym):
                    fn = getattr(handle, sym)
                    fn.restype = ctypes.c_int
                    found[lib.name] = fn()
                    break
    return found or {"env": os.environ["OPENBLAS_NUM_THREADS"]}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(seed):
    import numpy
    import scipy

    from innerlab.backend import backend_name

    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "innerlab").glob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": backend_name(),
        "blas_threads": blas_threads(),
        "seed": seed,
        "src_lines": src_lines,
    }


@dataclass
class Pass:
    traced: bool
    wall: float
    outcomes: list  # (op, failure messages, seconds)
    layers: dict | None  # per-layer values of a traced pass


def run_pass(workload, tracer, speed):
    """One pass over the workload's operations, sampling the host's speed between them."""
    gc.collect()
    ops = workload.operations()
    ctx = tracer.installed() if tracer is not None else contextlib.nullcontext()
    outcomes = []
    t0 = time.perf_counter()
    with ctx:
        speed.sample(force=True)
        for op in ops:
            speed.sample()
            t, spent = time.perf_counter(), speed.spent
            try:
                fails = op.run()
            except Exception as exc:  # an operation that raises has failed
                fails = [f"{type(exc).__name__}: {exc}"]
            outcomes.append((op, fails, time.perf_counter() - t - (speed.spent - spent)))
    wall = time.perf_counter() - t0
    layers = None
    if tracer is not None:
        layers = tracer.values
        layers.update(workload.stats(outcomes))
    return Pass(tracer is not None, wall, outcomes, layers)


def run_passes(workload, seconds, trace, speed):
    """Passes until the next one would overrun `seconds`.

    A workload asks for at least `min_passes`. A traced run alternates
    untraced and traced passes and ends on a traced one.
    """
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(workload, Tracer() if traced else None, speed))
        n = len(passes)
        if n < workload.min_passes or (trace and n % 2):
            continue
        step = 2 if trace else 1
        mean = statistics.mean(p.wall for p in passes)
        if time.perf_counter() - start + step * mean > seconds:
            return passes


def pass_seconds(passes):
    """One pass with each operation at its median over `passes`.

    Taking medians per operation rather than per pass keeps a burst of
    host load during one operation from deciding the result.
    """
    per_op = zip(*([seconds for _, _, seconds in p.outcomes] for p in passes))
    return sum(statistics.median(times) for times in per_op)


def summarize(name, passes, setup_s, slowdown, trace):
    """Metrics and result line; wall_s and setup_s in reference-host seconds (hostspeed)."""
    outcomes = [o for p in passes for o in p.outcomes]
    attempted = len(outcomes)
    failed = sum(1 for op, f, _ in outcomes if f and not op.known_bad)
    known_bad = sum(1 for op, f, _ in outcomes if f and op.known_bad)
    fail_frac = (failed + known_bad) / attempted
    plain = [p for p in passes if not p.traced]
    wall = pass_seconds(plain)
    report = {
        "wall_s": (wall / slowdown, "s"),
        "setup_s": (setup_s / slowdown, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_frac": (fail_frac, "1"),
        "raw_wall_s": (wall, "s"),
        "raw_setup_s": (setup_s, "s"),
        "host_slowdown": (slowdown, "1"),
    }
    if trace:
        traced = [p for p in passes if p.traced]
        metrics = {key: statistics.median(p.layers[key] for p in traced) for key in PER_LAYER}
        metrics["fail_frac"] = fail_frac
        metrics["trace.overhead_s"] = (pass_seconds(traced) - wall) / slowdown
        metrics = {k: {"value": float(v), "unit": PER_LAYER[k][0]} for k, v in metrics.items()}
    else:
        metrics = {k: {"value": float(report[k][0]), "unit": report[k][1]}
                   for k in ("wall_s", "setup_s", "peak_rss_mb")}
    seen = set()
    for op, fails, _ in outcomes:
        for msg in fails:
            if (op.name, msg) not in seen:
                seen.add((op.name, msg))
                tag = "known-bad input missed" if op.known_bad else "FAILED"
                print(f"{name}: {tag}: {op.name}: {msg}", file=sys.stderr)
    return report, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "innerlab" / "__init__.py").is_file():
        print(f"perfbench: no innerlab package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    speed = HostSpeed()
    for _ in range(SETUP_SPEED_SAMPLES):
        speed.sample(force=True)
    import_s = import_seconds()
    import workloads  # imports innerlab

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        gen = []
        for _ in range(INPUT_SAMPLES):
            t0 = time.perf_counter()
            workload = cls(args.seed, str(workdir))
            gen.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(gen)
        if hasattr(workload, "between_steps"):
            workload.between_steps = speed.sample
        passes = run_passes(workload, args.seconds, bool(args.trace), speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    report, result = summarize(
        args.workload, passes, setup_s, speed.slowdown(), bool(args.trace)
    )
    print(f"meta {json.dumps(metadata(args.seed), sort_keys=True)}")
    print(f"passes {len(passes)} ({sum(p.traced for p in passes)} traced): "
          + " ".join(f"{p.wall:.3f}" for p in passes))
    for key, (value, unit) in report.items():
        print(f"{args.workload}.{key} = {value:.6g} {unit}")
    if hasattr(workload, "oracle_err"):
        print(f"{args.workload}.oracle_err = {workload.oracle_err:.7g} 1")
    if args.trace:
        for key, m in result["metrics"].items():
            print(f"{args.workload}.{key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
