"""Lines each benchmark job compiles, and the lines it compiles but never calls.

    python tests/compile_census.py --seed 4242 check build search

For each job of a workload ladder, built read-only from bench/ladder.py,
the census runs the job through `triadica.cli.main` in a fresh interpreter
and prints one JSON line: the lines of the triadica layers that ran (whole
files), and the lines of the top-level functions and methods in them that
no call event of `sys.setprofile` reached.  Each workload's start-up probe
is counted apart from its jobs, and each workload ends with a total line.

A layer that is registered but has not run is a `LazyLoader` module, and
reading any attribute of it runs it; so the census reads only the type of
each `sys.modules` entry and, for the layers that ran, their files.

pytest does not collect this file, and it takes about a second per job.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# runs one job in this interpreter; prints the layers that ran, and the
# (file, first line) of every triadica code object that was called
CHILD = """
import contextlib, io, json, sys, types
argv = json.loads(sys.argv[1])
called = set()

def profile(frame, event, arg):
    if event == "call" and "triadica" in frame.f_code.co_filename:
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
import triadica.cli
with contextlib.redirect_stdout(io.StringIO()):
    triadica.cli.main(argv)
sys.setprofile(None)
ran = sorted(m.__file__ for n, m in list(sys.modules.items())
             if n.startswith("triadica.")
             and type(m) is types.ModuleType)
print(json.dumps([ran, sorted(called)]))
"""


def definitions(path: str) -> list[tuple[int, int]]:
    """(first line, line count) of each top-level function and method; a
    decorated one starts at its first decorator, as its code object does."""
    out = []
    for node in ast.parse(pathlib.Path(path).read_text()).body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in members:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([f.lineno] + [d.lineno for d in f.decorator_list])
                out.append((first, f.end_lineno - first + 1))
    return out


def census(argv: list[str]) -> tuple[int, int]:
    """(lines compiled, lines in functions never called) for one job."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    ran, called = json.loads(done.stdout)
    called = {tuple(c) for c in called}
    compiled = unrun = 0
    for path in ran:
        compiled += len(pathlib.Path(path).read_text().splitlines())
        unrun += sum(n for first, n in definitions(path) if (path, first) not in called)
    return compiled, unrun


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("workloads", nargs="+", help="check, build or search")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # the ladder is read, not cached
    sys.path.insert(0, str(ROOT / "bench"))
    import ladder

    with tempfile.TemporaryDirectory(prefix="triadica-census-") as directory:
        for workload in args.workloads:
            built = ladder.build_ladder(workload, args.seed)
            built.write(directory)
            compiled, unrun = census(built.probe.argv(directory))
            print(json.dumps({"workload": workload, "job": "start-up probe",
                              "compiled": compiled, "never_called": unrun}), flush=True)
            totals = [0, 0]
            for job in built.jobs:
                compiled, unrun = census(job.argv(directory))
                totals[0] += compiled
                totals[1] += unrun
                print(json.dumps({"workload": workload, "job": job.name,
                                  "compiled": compiled, "never_called": unrun}), flush=True)
            print(json.dumps({"workload": workload, "jobs": len(built.jobs),
                              "compiled": totals[0], "never_called": totals[1]}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
