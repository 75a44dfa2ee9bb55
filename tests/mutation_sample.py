"""A seeded sample of one-operator mutants of triadica's layers, each run
against the tests.

    python tests/mutation_sample.py --seed 2026 --sites 30 finspace dtcat

For each named layer of src/triadica, the sampler lists every mutation
site in the layer's syntax tree and draws `--sites` of them with
`random.Random(seed)`.  A site is one of:

- a comparison operator swapped: == and !=, < and <=, > and >=, in and
  not in, is and is not;
- an arithmetic operator swapped: + and -, * to +, also in augmented
  assignments;
- a `not` dropped;
- an integer literal 0 or 1 turned into the other;
- the two entries of a two-element list swapped, as in a witness [i, j].

Each mutant is written with `ast.unparse` into a fresh copy of the
repository, where `pytest -x` runs the tests.  The sampler prints one JSON
line per mutant: "killed" when the tests fail, "timeout" when they run five
times longer than on the unmutated copy, "survived" when they pass.  Before
the mutants, it runs the tests once on a copy whose named layers are
unparsed but not mutated, and stops unless they pass, so a kill is the
mutation's and not the unparsing's.

pytest does not collect this file, and a run takes minutes: a survivor
costs one whole test run.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYERS = ROOT / "src" / "triadica"

COMPARE_SWAP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.LtE,
                ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
                ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot,
                ast.IsNot: ast.Is}
ARITHMETIC_SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Add}
SYMBOL = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=",
          ast.Gt: ">", ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in",
          ast.Is: "is", ast.IsNot: "is not", ast.Add: "+", ast.Sub: "-",
          ast.Mult: "*"}


class Mutator(ast.NodeTransformer):
    """Lists the mutation sites of a tree in visiting order, and applies the
    one numbered `target`, if any."""

    def __init__(self, target: int | None = None):
        self.target = target
        self.sites: list[dict] = []
        self._functions: list[str] = []

    def _site(self, node, change: str) -> bool:
        """Record a site; true when it is the one to mutate."""
        self.sites.append({"line": node.lineno, "change": change,
                           "function": ".".join(self._functions) or None})
        return len(self.sites) - 1 == self.target

    def _in_scope(self, node):
        self._functions.append(node.name)
        self.generic_visit(node)
        self._functions.pop()
        return node

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _in_scope

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            swap = COMPARE_SWAP[type(op)]
            if self._site(node, f"{SYMBOL[type(op)]} -> {SYMBOL[swap]}"):
                node.ops[i] = swap()
        return node

    def _arithmetic(self, node):
        self.generic_visit(node)
        swap = ARITHMETIC_SWAP.get(type(node.op))
        if swap and self._site(node, f"{SYMBOL[type(node.op)]} -> {SYMBOL[swap]}"):
            node.op = swap()
        return node

    visit_BinOp = visit_AugAssign = _arithmetic

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not) and self._site(node, "drop not"):
            return node.operand
        return node

    def visit_Constant(self, node):
        if type(node.value) is int and node.value in (0, 1) and \
                self._site(node, f"{node.value} -> {1 - node.value}"):
            return ast.Constant(1 - node.value)
        return node

    def visit_List(self, node):
        self.generic_visit(node)
        if isinstance(node.ctx, ast.Load) and len(node.elts) == 2 and \
                not all(isinstance(e, ast.Constant) for e in node.elts) and \
                self._site(node, "swap list entries"):
            node.elts.reverse()
        return node


def layer_source(layer: str, target: int | None = None) -> tuple[str, list[dict]]:
    """The layer unparsed, with site `target` mutated, and its sites."""
    mutator = Mutator(target)
    tree = mutator.visit(ast.parse((LAYERS / f"{layer}.py").read_text()))
    return ast.unparse(ast.fix_missing_locations(tree)), mutator.sites


def run_tests(sources: dict[str, str], timeout: float) -> tuple[str, float]:
    """Run `pytest -x` in a fresh copy of the repository with `sources`
    written over its layers; the outcome and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="triadica-mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        for layer, text in sources.items():
            (copy / "src" / "triadica" / f"{layer}.py").write_text(text)
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=copy, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return "timeout", time.perf_counter() - start
        seconds = time.perf_counter() - start
    return ("survived" if proc.returncode == 0 else "killed"), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--sites", type=int, required=True,
                        help="mutants drawn per layer")
    parser.add_argument("layers", nargs="+", help="layer names, such as dtcat")
    args = parser.parse_args(argv)

    baseline, seconds = run_tests(
        {layer: layer_source(layer)[0] for layer in args.layers}, timeout=None)
    passed = baseline == "survived"
    print(json.dumps({"baseline": "passed" if passed else "failed",
                      "seconds": round(seconds, 1)}), flush=True)
    if not passed:
        return 1
    rng = random.Random(args.seed)
    tally = {"killed": 0, "timeout": 0, "survived": 0}
    for layer in args.layers:
        sites = layer_source(layer)[1]
        for target in sorted(rng.sample(range(len(sites)), min(args.sites, len(sites)))):
            text, _ = layer_source(layer, target)
            status, took = run_tests({layer: text}, timeout=5 * seconds)
            tally[status] += 1
            print(json.dumps(dict(layer=layer, site=target, **sites[target],
                                  status=status, seconds=round(took, 1))),
                  flush=True)
    print(json.dumps({"seed": args.seed, **tally}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
