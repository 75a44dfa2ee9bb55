"""Lines and AST nodes each benchmark job compiles, and those it compiles but
never calls.

    python tests/compile_census.py --seed 4242 [--functions N] [--by-command] \
        check build search

For each job of a workload ladder, built read-only from bench/ladder.py,
the census runs the job as `python -m triadica.cli` does, through
`runpy.run_module` in a fresh interpreter, and prints one JSON line: the
lines of the triadica layers that ran (whole files), and the lines of the
top-level functions and methods in them that no call event of
`sys.setprofile` reached; `nodes` and
`never_called_nodes` count the same code in AST nodes (`ast.walk`), which
compile time follows more closely than lines.  Each workload's start-up
probe is counted apart from its jobs, and each workload ends with a total
line whose `by_layer` splits every count by layer, so a change that moves
code between layers shows where its compile cost lands.

With `--functions N` the probe line and each workload's total line also
list the N functions with the most never-called line-jobs, each marked
`pinned` when `bench/tracing.py` patches it by name (its `LAYERS`, loaded
read-only from the file), and the total line gives `cold_everywhere`: the
lines, and the count, of the functions no job of the workload called
although their layer ran.

With `--by-command` the census ends with one line per command, over the
jobs of every workload given: the node-jobs compiled, the never-called
node-jobs split into those in pinned and in unpinned functions, and
`never_called_functions`, the functions of the layers it ran that no job
of that command called, with their nodes and whether they are pinned.  It
is the per-command evidence for a change that moves code between layers.

A layer that is registered but has not run is a `LazyLoader` module, and
reading any attribute of it runs it; so the census reads only the type of
each `sys.modules` entry and, for the layers that ran, their files.

pytest does not collect this file, and it takes about a second per job.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent

# runs one job in this interpreter as `python -m triadica.cli` runs it (with
# the profile hook set, `console_entry` ends through `sys.exit`); prints the
# layers that ran, `cli` among them although the run leaves it out of
# `sys.modules`, and the (file, first line) of every triadica code object
# that was called
CHILD = """
import contextlib, importlib.util, io, json, runpy, sys, types
sys.argv = ["triadica"] + json.loads(sys.argv[1])
called = set()

def profile(frame, event, arg):
    if event == "call" and "triadica" in frame.f_code.co_filename:
        called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    runpy.run_module("triadica.cli", run_name="__main__")
sys.setprofile(None)
ran = sorted([importlib.util.find_spec("triadica.cli").origin]
             + [m.__file__ for n, m in list(sys.modules.items())
                if n.startswith("triadica.")
                and type(m) is types.ModuleType])
print(json.dumps([ran, sorted(called)]))
"""


def nodes(tree: ast.AST) -> int:
    return sum(1 for _ in ast.walk(tree))


def definitions(tree: ast.Module) -> list[tuple[str, int, int, int]]:
    """(qualified name, first line, line count, node count) of each top-level
    function and method; a decorated one starts at its first decorator, as
    its code object does."""
    out = []
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for f in members:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([f.lineno] + [d.lineno for d in f.decorator_list])
                name = f.name if f is node else f"{node.name}.{f.name}"
                out.append((name, first, f.end_lineno - first + 1, nodes(f)))
    return out


def census(argv: list[str]) -> tuple[dict[str, list[int]],
                                     dict[str, tuple[bool, int, int]]]:
    """[lines compiled, lines in functions never called, nodes compiled,
    nodes in functions never called] per layer that ran, for one job; and
    for each function of those layers, as `layer.name`, whether it was
    called, its line count and its node count."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    ran, called = json.loads(done.stdout)
    called = {tuple(c) for c in called}
    layers, functions = {}, {}
    for path in ran:
        stem, text = pathlib.Path(path).stem, pathlib.Path(path).read_text()
        tree = ast.parse(text)
        cold = cold_nodes = 0
        for name, first, n, k in definitions(tree):
            hit = (path, first) in called
            functions[f"{stem}.{name}"] = (hit, n, k)
            cold += 0 if hit else n
            cold_nodes += 0 if hit else k
        layers[stem] = [len(text.splitlines()), cold, nodes(tree), cold_nodes]
    return layers, functions


def pinned_names() -> set[str]:
    """`layer.name` for each function `bench/tracing.py` patches by name."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {f"{m}.{f}" for m, names in module.LAYERS.items() for f in names}


def largest(cold: Counter, n: int, pinned: set[str]) -> list[dict]:
    """The `n` functions with the most never-called line-jobs in `cold`."""
    return [{"function": name, "line_jobs": jobs, "pinned": name in pinned}
            for name, jobs in sorted(cold.items(), key=lambda c: (-c[1], c[0]))[:n]]


def by_command(command: str, jobs: list, pinned: set[str]) -> dict:
    """One command's line: over its `jobs`, each the (layers, functions) of
    `census`, the node-jobs compiled and never called, the latter split by
    whether the function is pinned, and the functions no job called."""
    cold = {"pinned": 0, "unpinned": 0}
    hits: dict[str, bool] = {}
    sizes: dict[str, int] = {}
    for _, functions in jobs:
        for f, (hit, _, k) in functions.items():
            hits[f] = hits.get(f, False) or hit
            sizes[f] = k
            if not hit:
                cold["pinned" if f in pinned else "unpinned"] += k
    never = sorted((f for f, hit in hits.items() if not hit),
                   key=lambda f: (-sizes[f], f))
    return {"command": command, "jobs": len(jobs),
            "nodes": sum(sums(layers)["nodes"] for layers, _ in jobs),
            "never_called_nodes": cold,
            "never_called_functions": [{"function": f, "nodes": sizes[f],
                                        "pinned": f in pinned} for f in never]}


COUNTS = ("compiled", "never_called", "nodes", "never_called_nodes")


def sums(layers: dict[str, list[int]]) -> dict[str, int]:
    """Each of COUNTS summed over `layers`."""
    return {name: sum(c[i] for c in layers.values()) for i, name in enumerate(COUNTS)}


def line(workload: str, job: str, layers: dict[str, list[int]], **extra) -> str:
    return json.dumps({"workload": workload, "job": job, **sums(layers), **extra})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--functions", type=int, default=0, metavar="N",
                        help="list the N largest never-called functions")
    parser.add_argument("--by-command", action="store_true",
                        help="end with one line per command")
    parser.add_argument("workloads", nargs="+", help="check, build or search")
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True  # the ladder is read, not cached
    sys.path.insert(0, str(ROOT / "bench"))
    import ladder

    pinned = pinned_names() if args.functions or args.by_command else set()
    commands: dict[str, list] = {}
    with tempfile.TemporaryDirectory(prefix="triadica-census-") as directory:
        for workload in args.workloads:
            built = ladder.build_ladder(workload, args.seed)
            built.write(directory)
            layers, functions = census(built.probe.argv(directory))
            extra = {}
            if args.functions:
                extra["largest_never_called"] = largest(Counter(
                    {f: n for f, (hit, n, _) in functions.items() if not hit}),
                    args.functions, pinned)
            print(line(workload, "start-up probe", layers, **extra), flush=True)
            by_layer: dict[str, list[int]] = {}
            cold: Counter = Counter()
            hits: dict[str, bool] = {}
            lines: dict[str, int] = {}
            for job in built.jobs:
                layers, functions = census(job.argv(directory))
                for name, counts in layers.items():
                    by_layer[name] = [t + c for t, c in
                                      zip(by_layer.get(name, [0] * len(COUNTS)), counts)]
                commands.setdefault(job.command, []).append((layers, functions))
                for f, (hit, n, _) in functions.items():
                    hits[f] = hits.get(f, False) or hit
                    cold[f] += 0 if hit else n
                    lines[f] = n
                print(line(workload, job.name, layers), flush=True)
            extra = {}
            if args.functions:
                never = [f for f, hit in hits.items() if not hit]
                extra = {"largest_never_called": largest(cold, args.functions, pinned),
                         "cold_everywhere": {"lines": sum(lines[f] for f in never),
                                             "functions": len(never)}}
            print(json.dumps({
                "workload": workload, "jobs": len(built.jobs),
                **sums(by_layer),
                "by_layer": {name: dict(zip(COUNTS, counts))
                             for name, counts in sorted(by_layer.items())},
                **extra}), flush=True)
    if args.by_command:
        for command, jobs in sorted(commands.items()):
            print(json.dumps(by_command(command, jobs, pinned)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
