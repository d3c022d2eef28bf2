#!/usr/bin/env python3
"""List the innerlab functions that the production paths never enter.

Installs a profile hook before innerlab is imported, then runs `innerlab
selftest` (through click's CliRunner), one pass of each perfbench workload
at seed 0, and calibrate.main(). Prints every function or method defined in
src/innerlab that none of them entered, as `file:line name`, then a count.

    python3 benchmarks/reach.py
"""

import ast
import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "innerlab"


def defined_functions():
    """{(path, first line): qualified name} of every def in the package;
    the first line is the first decorator's, as in co_firstlineno."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), line] = prefix + child.name
                visit(child, f"{prefix}{child.name}.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return found


def run_production_paths():
    from click.testing import CliRunner

    import calibrate
    import workloads
    from innerlab import cli

    result = CliRunner().invoke(cli.main, ["selftest"])  # exits 1 on criterion 07, an xfail
    if not isinstance(result.exception, (SystemExit, type(None))):
        raise result.exception
    for workload in workloads.WORKLOADS.values():
        with tempfile.TemporaryDirectory() as workdir:
            for op in workload(0, workdir).operations():
                op.run()
    with contextlib.redirect_stdout(io.StringIO()):
        calibrate.main()


def main():
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "benchmarks")]
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    try:
        run_production_paths()
    finally:
        sys.setprofile(None)
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in entered}
    functions = defined_functions()
    missed = sorted(key for key in functions if key not in reached)
    for path, line in missed:
        print(f"{Path(path).relative_to(ROOT)}:{line} {functions[path, line]}")
    print(f"# {len(missed)} of {len(functions)} functions in src/innerlab never entered")


if __name__ == "__main__":
    main()
