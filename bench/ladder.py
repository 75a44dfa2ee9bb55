"""Seeded ladder of triadica workspaces, written without importing triadica.

Every structure is built here from closed forms: discrete, indiscrete,
Sierpinski and product topologies; function presheaves and their zero-module
triads; the Kaehler module of Q[x]/(x^k), whose basis is x^j dx for j < k-1
with d(x^i) = i x^(i-1) dx; algebras in a random rational basis, obtained by
conjugating structure constants with a seeded invertible matrix; and 0/1
pullback components of point maps.  The inputs therefore stay fixed when the
code under test changes, and the facts each job is checked against are known
by construction.

A workload is a list of jobs, each one `triadica <command>` invocation on one
workspace.  Each job belongs to a rung; rung 1 holds the smallest inputs, and
higher rungs grow the property the workload varies.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian
import oracle

WORKLOADS = ("check", "build", "search")


@dataclass(frozen=True)
class Job:
    name: str
    rung: int
    command: str
    workspace: str
    args: tuple[str, ...]
    code: int
    check: oracle.Check

    def argv(self, directory: str) -> list[str]:
        return [self.command, "--workspace",
                os.path.join(directory, self.workspace), *self.args]


@dataclass(frozen=True)
class Ladder:
    workload: str
    seed: int
    files: dict[str, str]
    jobs: tuple[Job, ...]
    probe: Job

    def write(self, directory: str) -> str:
        """Write every workspace into `directory`; return the ladder digest."""
        digest = hashlib.sha256()
        for name in sorted(self.files):
            with open(os.path.join(directory, name), "w",
                      encoding="utf-8") as handle:
                handle.write(self.files[name])
            digest.update(name.encode() + b"\0" + self.files[name].encode())
        for job in self.jobs:
            digest.update(repr((job.command, job.workspace, job.args,
                                job.code)).encode())
        return digest.hexdigest()


# ---------------------------------------------------------------------------
# spaces, as {"points": n, "opens": [sorted point lists]}


def discrete(n: int) -> dict:
    return {"points": n,
            "opens": [[i for i in range(n) if mask >> i & 1]
                      for mask in range(1 << n)]}


def indiscrete(n: int) -> dict:
    return {"points": n, "opens": [[], list(range(n))]}


SIERPINSKI = {"points": 2, "opens": [[], [0], [0, 1]]}
POINT = discrete(1)


def product(x: dict, y: dict) -> dict:
    """Product topology; point (a, b) has index a * |Y| + b."""
    ny = y["points"]
    opens = {frozenset(a * ny + b for a in u for b in v)
             for u in x["opens"] for v in y["opens"]}
    while True:
        unions = {a | b for a in opens for b in opens}
        if unions <= opens:
            break
        opens |= unions
    return {"points": x["points"] * ny,
            "opens": sorted((sorted(u) for u in opens),
                            key=lambda u: (len(u), u))}


def inclusions(space: dict) -> list[tuple[int, int]]:
    """Proper inclusions u -> v with v nonempty: the restrictions to write."""
    sets = [set(u) for u in space["opens"]]
    return [(u, v) for u in range(len(sets)) for v in range(len(sets))
            if u != v and sets[v] and sets[v] <= sets[u]]


# ---------------------------------------------------------------------------
# matrices and algebras


def mat(rows, cols: int) -> dict:
    return {"rows": len(rows), "cols": cols,
            "entries": [[str(x) for x in row] for row in rows]}


def identity(n: int) -> dict:
    return mat([[int(i == j) for j in range(n)] for i in range(n)], n)


def selection(big, small) -> dict:
    """Restriction of functions on `big` to `small`, in sorted coordinates."""
    return mat([[int(p == q) for q in big] for p in small], len(big))


EMPTY_MODULE = {"algebra_dim": 0, "dim": 0, "action": []}


def truncated_struct(k: int):
    """Structure constants of Q[x]/(x^k) in the basis 1, x, ..., x^(k-1)."""
    return [[[Fraction(int(i + j == t)) for t in range(k)] for j in range(k)]
            for i in range(k)], [Fraction(int(t == 0)) for t in range(k)]


def function_struct(n: int):
    return [[[Fraction(int(i == j == t)) for t in range(n)] for j in range(n)]
            for i in range(n)], [Fraction(1)] * n


def inverse(m):
    """Exact inverse of a square Fraction matrix by Gauss-Jordan."""
    n = len(m)
    work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [inv * x for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def random_basis(rng: random.Random, n: int):
    """A seeded invertible matrix L * U, unit triangular factors with entries
    in {-2, -1, 1, 2}, and its inverse."""
    lower = [[Fraction(1) if i == j else
              Fraction(rng.choice((-2, -1, 1, 2))) if j < i else Fraction(0)
              for j in range(n)] for i in range(n)]
    upper = [[Fraction(1) if i == j else
              Fraction(rng.choice((-2, -1, 1, 2))) if j > i else Fraction(0)
              for j in range(n)] for i in range(n)]
    p = [[sum(lower[i][t] * upper[t][j] for t in range(n)) for j in range(n)]
         for i in range(n)]
    return p, inverse(p)


def change_basis(struct, unit, p, p_inv):
    """Structure constants in the basis f_a = sum_i p[i][a] e_i."""
    n = len(unit)
    new = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for a, b in cartesian(range(n), repeat=2):
        for i, j, k in cartesian(range(n), repeat=3):
            c = struct[i][j][k]
            if c and p[i][a] and p[j][b]:
                w = p[i][a] * p[j][b] * c
                for z in range(n):
                    new[a][b][z] += w * p_inv[z][k]
    new_unit = [sum(p_inv[z][k] * unit[k] for k in range(n)) for z in range(n)]
    return new, new_unit


def algebra_json(struct, unit) -> dict:
    return {"struct": [[[str(x) for x in v] for v in row] for row in struct],
            "unit": [str(x) for x in unit]}


def kaehler_truncated(k: int):
    """Omega of Q[x]/(x^k): module sections and the universal differential."""
    m = k - 1
    action = [[[int(t == i + j) for t in range(m)] for j in range(m)]
              for i in range(k)]
    module = {"algebra_dim": k, "dim": m,
              "action": [[[str(x) for x in w] for w in row] for row in action]}
    d = [[i if r == i - 1 else 0 for i in range(k)] for r in range(m)]
    return module, d


# ---------------------------------------------------------------------------
# presheaves, triads and morphisms


def function_presheaf(space_ref: str, space: dict) -> dict:
    opens = space["opens"]
    return {"space": space_ref,
            "sections": [f"function_algebra {len(u)}" for u in opens],
            "restrictions": {f"{u}->{v}": selection(opens[u], opens[v])
                             for u, v in inclusions(space)}}


def constant_presheaf(space_ref: str, space: dict, algebra: str,
                      dim: int) -> dict:
    return {"space": space_ref,
            "sections": [algebra if u else "function_algebra 0"
                         for u in space["opens"]],
            "restrictions": {f"{u}->{v}": identity(dim)
                             for u, v in inclusions(space)}}


def function_triad(presheaf_ref: str, space: dict) -> dict:
    opens = space["opens"]
    return {"algebras": presheaf_ref,
            "modules": {"sections": [{"algebra_dim": len(u), "dim": 0,
                                      "action": [[] for _ in u]}
                                     for u in opens],
                        "restrictions": {}},
            "differentials": [mat([], len(u)) for u in opens]}


def constant_kaehler_triad(space_ref: str, space: dict, k: int,
                           d=None) -> dict:
    """Q[x]/(x^k) with its Kaehler module over every nonempty open; `d`
    replaces the universal differential (to plant a broken one)."""
    module, universal = kaehler_truncated(k)
    d = universal if d is None else d
    opens = space["opens"]
    return {"algebras": constant_presheaf(space_ref, space,
                                          f"truncated_poly {k}", k),
            "modules": {"sections": [module if u else EMPTY_MODULE
                                     for u in opens],
                        "restrictions": {f"{u}->{v}": identity(k - 1)
                                         for u, v in inclusions(space)}},
            "differentials": [mat(d, k) if u else mat([], 0) for u in opens]}


def pullback_morphism(x: dict, y: dict, values, map_ref: str, source: str,
                      target: str) -> dict:
    """Precomposition with a point map, between function triads."""
    alg = []
    for v in y["opens"]:
        pre = [p for p in range(x["points"]) if values[p] in v]
        alg.append(mat([[int(values[p] == q) for q in v] for p in pre],
                       len(v)))
    return {"map": map_ref, "source": source, "target": target,
            "algebra_components": alg,
            "module_components": [mat([], 0) for _ in y["opens"]]}


def identity_kaehler_morphism(space: dict, space_ref: str, triad_ref: str,
                              k: int) -> dict:
    opens = space["opens"]
    return {"map": {"domain": space_ref, "codomain": space_ref,
                    "values": list(range(space["points"]))},
            "source": triad_ref, "target": triad_ref,
            "algebra_components": [identity(k if u else 0) for u in opens],
            "module_components": [identity(k - 1 if u else 0) for u in opens]}


def map_json(x_ref: str, y_ref: str, values) -> dict:
    return {"domain": x_ref, "codomain": y_ref, "values": list(values)}


class Collector:
    """Collects workspaces and jobs for one ladder."""

    def __init__(self):
        self.files: dict[str, str] = {}
        self.jobs: list[Job] = []

    def workspace(self, name: str, description: str, **sections) -> str:
        doc = {"schema": 1, "description": description}
        doc.update({k: v for k, v in sections.items() if v})
        self.files[name] = json.dumps(doc, indent=1, sort_keys=True) + "\n"
        return name

    def job(self, name: str, rung: int, command: str, workspace: str,
            args=(), code: int = 0, check=oracle.all_pass) -> None:
        self.jobs.append(Job(name, rung, command, workspace, tuple(args),
                             code, check))


SPACE_NAMES = {"D2": discrete(2), "D3": discrete(3), "D4": discrete(4),
               "S": SIERPINSKI, "SxS": product(SIERPINSKI, SIERPINSKI),
               "SxD2": product(SIERPINSKI, discrete(2)), "I5": indiscrete(5),
               "PT": POINT}


def _spaces(*names) -> dict:
    return {n: SPACE_NAMES[n] for n in names}


def _probe(b: Collector) -> Job:
    ws = b.workspace("point.json", "one point with its function sections",
                     spaces=_spaces("PT"),
                     presheaves={"FP": function_presheaf("PT", POINT)})
    return Job("startup", 1, "validate", ws, (), 0,
               oracle.validate_sheaf_verdicts({"PT": {},
                                               "FP": {"sections": True}}))


def _pullbacks(rng: random.Random, pairs) -> tuple[dict, dict]:
    """Function triads on the named spaces and, for each (domain,
    codomain) pair, a seeded continuous map F_X_Y with its pullback
    morphism PB_X_Y.  Returns (workspace sections, point map by morphism)."""
    used = sorted({r for pair in pairs for r in pair})
    sections = {
        "spaces": _spaces(*used), "maps": {}, "morphisms": {},
        "presheaves": {f"FP_{r}": function_presheaf(r, SPACE_NAMES[r])
                       for r in used},
        "triads": {f"FT_{r}": function_triad(f"FP_{r}", SPACE_NAMES[r])
                   for r in used}}
    values = {}
    for x_ref, y_ref in pairs:
        x, y = SPACE_NAMES[x_ref], SPACE_NAMES[y_ref]
        tag = f"{x_ref}_{y_ref}"
        values[f"PB_{tag}"] = v = rng.choice(oracle.continuous_maps(x, y))
        sections["maps"][f"F_{tag}"] = map_json(x_ref, y_ref, v)
        sections["morphisms"][f"PB_{tag}"] = pullback_morphism(
            x, y, v, f"F_{tag}", f"FT_{x_ref}", f"FT_{y_ref}")
    return sections, values


# ---------------------------------------------------------------------------
# workloads


# k for the constant Kaehler triads on discrete(n): validation time grows
# with both, so the largest pairs are left out to keep a pass short
KAEHLER_DEGREES = {2: (4, 6, 8), 3: (4, 6), 4: (4,)}


def _check(b: Collector, rng: random.Random) -> None:
    """Sheaf condition and Leibniz validation: point and open count grow."""
    function_rungs = {"D2": 1, "SxS": 1, "I5": 1, "D3": 2, "SxD2": 2,
                      "D4": 3}
    for name, rung in function_rungs.items():
        space = SPACE_NAMES[name]
        ws = b.workspace(f"functions_{name}.json",
                         f"function presheaf and function triad on {name}",
                         spaces=_spaces(name),
                         presheaves={"FP": function_presheaf(name, space)},
                         triads={"FT": function_triad("FP", space)})
        b.job(f"validate-functions-{name}", rung, "validate", ws,
              check=oracle.validate_sheaf_verdicts({
                  name: {}, "FP": {"sections": True},
                  "FT": {"algebra layer": True, "module layer": True}}))
    for n in (2, 3, 4):
        name = f"D{n}"
        space = SPACE_NAMES[name]
        triads = {f"K{k}": constant_kaehler_triad(name, space, k)
                  for k in KAEHLER_DEGREES[n]}
        ws = b.workspace(f"kaehler_constant_{name}.json",
                         f"constant Kaehler triads of Q[x]/(x^k) on {name}",
                         spaces=_spaces(name), triads=triads)
        # constant presheaves on a discrete space with >= 2 points never glue
        b.job(f"validate-kaehler-{name}", n - 1, "validate", ws,
              check=oracle.validate_sheaf_verdicts({
                  name: {}, **{t: {"algebra layer": False,
                                   "module layer": False} for t in triads}}))
    k = 5
    _, planted = kaehler_truncated(k)
    broken = rng.choice((2, 3))
    planted[broken - 1][broken] = 1  # forget the exponent of x^broken
    ws = b.workspace("planted.json",
                     "a naive derivative on Q[x]/(x^5) that forgets one "
                     "exponent factor",
                     spaces=_spaces("PT"),
                     triads={"NAIVE": constant_kaehler_triad("PT", POINT, k,
                                                             planted)})
    b.job("validate-planted", 1, "validate", ws, code=1,
          check=oracle.leibniz_witness("NAIVE", k, planted))

    rungs = {"PB_D2_D3": 1, "PB_D4_D3": 2, "PB_SxD2_SxS": 2, "ID_K6_D3": 2}
    sections, _ = _pullbacks(rng, (("D2", "D3"), ("D4", "D3"),
                                   ("SxD2", "SxS")))
    sections["triads"]["K6_D3"] = constant_kaehler_triad(
        "D3", SPACE_NAMES["D3"], 6)
    sections["morphisms"]["ID_K6_D3"] = identity_kaehler_morphism(
        SPACE_NAMES["D3"], "D3", "K6_D3", 6)
    ws = b.workspace("morphisms.json",
                     "pullback morphisms of seeded point maps, and the "
                     "identity of a constant Kaehler triad", **sections)
    for name, rung in rungs.items():
        b.job(f"check-morphism-{name}", rung, "check-morphism", ws,
              ("--target", name))


def _build(b: Collector, rng: random.Random) -> None:
    """Constructions that write derived artifacts: algebra dimension and
    coefficient size grow."""
    standard = {f"T{k}": f"truncated_poly {k}" for k in (5, 6, 7, 8)}
    ws = b.workspace("kaehler_standard.json",
                     "truncated polynomial algebras in the monomial basis",
                     algebras=standard)
    for k in (5, 6, 7, 8):
        struct, unit = truncated_struct(k)
        b.job(f"kaehler-T{k}", 1 if k == 5 else 2 if k < 8 else 3,
              "kaehler", ws, ("--target", f"T{k}"),
              check=oracle.kaehler_algebra(f"T{k}", struct, unit, k - 1))

    randomized = {}
    for name, (struct, unit), omega, rung in (
            ("R4", truncated_struct(4), 3, 1),
            ("RF4", function_struct(4), 0, 2)):
        p, p_inv = random_basis(rng, len(unit))
        randomized[name] = (change_basis(struct, unit, p, p_inv), omega,
                            rung)
    ws = b.workspace("kaehler_random.json",
                     "algebras in a seeded random rational basis",
                     algebras={n: algebra_json(*a)
                               for n, (a, _, _) in randomized.items()})
    for name, ((struct, unit), omega, rung) in randomized.items():
        b.job(f"kaehler-{name}", rung, "kaehler", ws, ("--target", name),
              check=oracle.kaehler_algebra(name, struct, unit, omega))

    for n in (2, 3):
        name = f"D{n}"
        space = SPACE_NAMES[name]
        ws = b.workspace(
            f"kaehler_presheaves_{name}.json",
            f"constant and function presheaves on {name}",
            spaces=_spaces(name),
            presheaves={"CP": constant_presheaf(name, space,
                                                "truncated_poly 3", 3),
                        "FP": function_presheaf(name, space)})
        opens = space["opens"]
        b.job(f"kaehler-presheaves-{name}", n - 1, "kaehler", ws,
              check=oracle.kaehler_presheaf({
                  "CP": ([2 if u else 0 for u in opens],
                         [3 * len(u) for u in opens],
                         [2 * len(u) for u in opens]),
                  "FP": ([0] * len(opens), [len(u) for u in opens],
                         [0] * len(opens))}))

    for n, algebra, dim in ((2, "truncated_poly 3", 3),
                            (3, "function_algebra 2", 2),
                            (4, "truncated_poly 2", 2)):
        name = f"D{n}"
        space = SPACE_NAMES[name]
        ws = b.workspace(f"sheafify_{name}.json",
                         f"constant presheaf of {algebra} on {name}",
                         spaces=_spaces(name),
                         presheaves={"CP": constant_presheaf(
                             name, space, algebra, dim)})
        b.job(f"sheafify-{name}", n - 1, "sheafify", ws,
              check=oracle.sheafify_dims(
                  "CP", [dim * len(u) for u in space["opens"]]))

    sections, values = _pullbacks(rng, (("D2", "D3"), ("D3", "D4")))
    f, g = values["PB_D2_D3"], values["PB_D3_D4"]
    point = rng.randrange(3)
    ws = b.workspace("morphisms.json",
                     "function triads with seeded point maps for "
                     "pushforward, compose and constant-morphism",
                     **sections)
    target = "F_D3_D4:FT_D3"
    b.job("pushforward", 1, "pushforward", ws, ("--target", target),
          check=oracle.pushforward_dims(
              target, [sum(1 for p in range(3) if g[p] in v)
                       for v in SPACE_NAMES["D4"]["opens"]]))
    target = "PB_D3_D4:PB_D2_D3"
    b.job("compose", 1, "compose", ws, ("--target", target),
          check=oracle.derived_map(target, [g[f[p]] for p in range(2)]))
    target = f"FT_D4:FT_D3:{point}"
    b.job("constant-morphism", 1, "constant-morphism", ws,
          ("--target", target),
          check=oracle.derived_map(target, [point] * 4))


def _search(b: Collector, rng: random.Random) -> None:
    """Enumerations: map count, candidate count and trial-division range
    grow."""
    ws = b.workspace("fullness.json", "spaces for morphism counting",
                     spaces=_spaces("D2", "D3", "D4", "S", "SxD2"))
    for x, y, rung, bound in (("D3", "D3", 1, 64), ("D2", "D4", 1, 64),
                              ("D4", "D2", 2, 16), ("SxD2", "S", 1, 64)):
        args = ("--target", f"{x}:{y}", "--bound", str(bound))
        b.job(f"fullness-{x}-{y}", rung, "fullness", ws, args,
              check=oracle.fullness(f"{x}:{y}", SPACE_NAMES[x],
                                    SPACE_NAMES[y]))

    algebras = {f"F{n}": f"function_algebra {n}" for n in (3, 4, 5, 6)}
    ws = b.workspace("split.json", "split function algebras",
                     algebras=algebras)
    b.job("spectrum-split", 1, "spectrum", ws,
          check=oracle.spectrum_split({name: int(name[1:])
                                       for name in algebras}))
    quadratics = {}
    for exponent, rung in ((11, 1), (12, 2), (13, 3)):
        n = 10 ** exponent + rng.randrange(10 ** (exponent - 2))
        while math.isqrt(n + 1) ** 2 == n + 1:
            n += 1
        quadratics[f"Q{exponent}"] = (n + 1, rung, None)
    root = 3 * 10 ** 6 + rng.randrange(10 ** 5)
    quadratics["SQ13"] = (root * root, 3, root)
    ws = b.workspace(
        "quadratics.json", "Q[x]/(x^2 - (N+1)) with N up to 10^13",
        algebras={name: algebra_json(
            [[[1, 0], [0, 1]], [[0, 1], [c, 0]]], [1, 0])
            for name, (c, _, _) in quadratics.items()})
    for name, (c, rung, root) in quadratics.items():
        b.job(f"spectrum-{name}", rung, "spectrum", ws, ("--target", name),
              code=0 if root else 1,
              check=oracle.spectrum_quadratic(name, root))

    rungs = {("D2", "D3"): 1, ("D3", "D4"): 2, ("D4", "D3"): 2,
             ("SxD2", "S"): 1}
    sections, values = _pullbacks(rng, rungs)
    ws = b.workspace("pullbacks.json",
                     "pullback morphisms of seeded point maps", **sections)
    for (x, y), rung in rungs.items():
        name = f"PB_{x}_{y}"
        exploratory = not (oracle.is_discrete(SPACE_NAMES[x])
                           and oracle.is_discrete(SPACE_NAMES[y]))
        args = ("--target", name) + (("--exploratory",) if exploratory
                                     else ())
        b.job(f"recover-map-{name}", rung, "recover-map", ws, args,
              check=oracle.recovered_map(name, values[name], exploratory))


_WORKLOADS = {"check": _check, "build": _build, "search": _search}


def build_ladder(workload: str, seed: int, max_rung: int = 3) -> Ladder:
    rng = random.Random(f"{workload}:{seed}")
    b = Collector()
    probe = _probe(b)
    _WORKLOADS[workload](b, rng)
    jobs = tuple(j for j in b.jobs if j.rung <= max_rung)
    used = {probe.workspace} | {j.workspace for j in jobs}
    files = {n: t for n, t in b.files.items() if n in used}
    return Ladder(workload, seed, files, jobs, probe)
