"""Output checks for benchmark jobs, from facts known by construction.

Each factory returns `check(report_document) -> list of problems`, where the
document is the parsed JSON that `triadica` printed.  The checks compare
against dimensions, counts and verdicts that follow from how the ladder
built its inputs, and recompute Leibniz identities with this file's own
rational arithmetic; none of them imports triadica.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as cartesian
from typing import Callable

Check = Callable[[dict], list[str]]


def _reports(doc: dict) -> dict:
    return {r["target"]: r for r in doc.get("reports", [])}


def _status(doc: dict, target: str, status: str) -> list[str]:
    rep = _reports(doc).get(target)
    if rep is None:
        return [f"{target}: no report"]
    if rep["status"] != status:
        return [f"{target}: status {rep['status']}, expected {status}"]
    return []


def _derived(doc: dict, target: str) -> dict:
    return _reports(doc).get(target, {}).get("derived_artifacts", {})


def _info(doc: dict, target: str) -> dict:
    rep = _reports(doc).get(target, {})
    return {f["location"]: f["message"] for f in rep.get("findings", ())
            if f["severity"] == "info"}


def _dims(sections) -> list[int]:
    """Dimensions of serialized algebras ({struct, unit}) or modules."""
    return [len(s["unit"]) if "unit" in s else s["dim"] for s in sections]


def all_pass(doc: dict) -> list[str]:
    return [f"{r['target']}: status {r['status']}"
            for r in doc.get("reports", []) if r["status"] != "pass"]


def validate_sheaf_verdicts(expected: dict) -> Check:
    """Every target passes, and `expected[target][location]` is True where
    the report must say the sheaf condition holds, False where it fails."""
    def check(doc):
        problems = all_pass(doc)
        if set(_reports(doc)) != set(expected):
            problems.append(f"targets {sorted(_reports(doc))}")
        for target, layers in expected.items():
            info = _info(doc, target)
            for location, is_sheaf in layers.items():
                want = ("sheaf condition holds" if is_sheaf
                        else "sheaf condition fails")
                if not info.get(location, "").startswith(want):
                    problems.append(f"{target} {location}: "
                                    f"{info.get(location)!r}, want {want!r}")
        return problems
    return check


def _leibniz_defect(struct, action, d, i: int, j: int) -> list[Fraction]:
    """d(e_i e_j) - e_i d(e_j) - e_j d(e_i) in module coordinates."""
    m = len(d)
    n = len(struct)

    def apply(v):
        return [sum((d[r][c] * v[c] for c in range(n)), Fraction(0))
                for r in range(m)]

    def act(a: int, w):
        return [sum((action[a][t][s] * w[t] for t in range(m)), Fraction(0))
                for s in range(m)]

    unit = [[Fraction(int(t == s)) for t in range(n)] for s in range(n)]
    lhs = apply(struct[i][j])
    right = [x + y for x, y in zip(act(i, apply(unit[j])),
                                   act(j, apply(unit[i])))]
    return [x - y for x, y in zip(lhs, right)]


def _fractions(value):
    if isinstance(value, list):
        return [_fractions(v) for v in value]
    return Fraction(value)


def _truncated_action(k: int):
    m = k - 1
    return [[[Fraction(int(s == i + t)) for s in range(m)] for t in range(m)]
            for i in range(k)]


def leibniz_witness(target: str, k: int, d) -> Check:
    """The planted derivative on Q[x]/(x^k) must fail with a genuine witness:
    the reported defect is recomputed here and must be nonzero."""
    struct = [[[Fraction(int(i + j == t)) for t in range(k)]
               for j in range(k)] for i in range(k)]
    action = _truncated_action(k)
    d = _fractions(d)

    def check(doc):
        problems = _status(doc, target, "fail")
        rep = _reports(doc).get(target, {})
        witnesses = [f["witness"] for f in rep.get("findings", ())
                     if f["severity"] == "error"
                     and isinstance(f["witness"], dict)
                     and "pair" in f["witness"]]
        if not witnesses:
            problems.append(f"{target}: no Leibniz witness")
        for w in witnesses:
            i, j = w["pair"]
            defect = _leibniz_defect(struct, action, d, i, j)
            if not any(defect) or _fractions(w["defect"]) != defect:
                problems.append(f"{target}: witness {w} is not a defect")
        return problems
    return check


def kaehler_algebra(target: str, struct, unit, omega: int) -> Check:
    """dim Omega is known; the printed differential must satisfy Leibniz
    against the printed module action, and kill the unit."""
    n = len(unit)

    def check(doc):
        problems = _status(doc, target, "pass")
        message = f"module of differentials has dimension {omega}"
        if _info(doc, target).get("module") != message:
            problems.append(f"{target}: expected {message!r}")
        derived = _derived(doc, target)
        module, diff = derived["module"], derived["differential"]
        action = _fractions(module["action"])
        d = _fractions(diff["entries"])
        if module["dim"] != omega or diff["rows"] != omega or \
                diff["cols"] != n:
            return problems + [f"{target}: derived shapes"]
        for i, j in cartesian(range(n), repeat=2):
            if i <= j and any(_leibniz_defect(struct, action, d, i, j)):
                problems.append(f"{target}: Leibniz fails at ({i},{j})")
                break
        image = [sum((row[c] * unit[c] for c in range(n)), Fraction(0))
                 for row in d]
        if any(image):
            problems.append(f"{target}: differential does not kill 1")
        return problems
    return check


def kaehler_presheaf(expected: dict) -> Check:
    """`expected[target]` = (module dims per open, sheafified algebra dims,
    sheafified module dims)."""
    def check(doc):
        problems = all_pass(doc)
        if set(_reports(doc)) != set(expected):
            problems.append(f"targets {sorted(_reports(doc))}")
        for target, (modules, sheaf_alg, sheaf_mod) in expected.items():
            info = _info(doc, target)
            for u, dim in enumerate(modules):
                if info.get(f"open {u}") != f"module dimension {dim}":
                    problems.append(f"{target}: open {u} dimension")
            derived = _derived(doc, target)
            pre = derived["presheaf_triad"]["modules"]["sections"]
            plus = derived["sheaf_triad"]
            got = (_dims(pre), _dims(plus["algebras"]["sections"]),
                   _dims(plus["modules"]["sections"]))
            if got != (modules, sheaf_alg, sheaf_mod):
                problems.append(f"{target}: derived dimensions {got}")
        return problems
    return check


def sheafify_dims(target: str, dims: list[int]) -> Check:
    """A non-sheaf input whose sheafification has the given section dims."""
    def check(doc):
        problems = _status(doc, target, "pass")
        info = _info(doc, target)
        if not info.get("input", "").startswith("sheaf condition fails"):
            problems.append(f"{target}: input verdict {info.get('input')!r}")
        if info.get("result") != "sheaf condition holds":
            problems.append(f"{target}: result verdict "
                            f"{info.get('result')!r}")
        got = _dims(_derived(doc, target)["sheaf"]["sections"])
        if got != dims:
            problems.append(f"{target}: sheaf dimensions {got}")
        return problems
    return check


def pushforward_dims(target: str, dims: list[int]) -> Check:
    def check(doc):
        problems = _status(doc, target, "pass")
        got = _dims(_derived(doc, target)["triad"]["algebras"]["sections"])
        if got != dims:
            problems.append(f"{target}: pushforward dimensions {got}")
        return problems
    return check


def derived_map(target: str, values) -> Check:
    """A derived morphism that must ride on the given point map."""
    def check(doc):
        problems = _status(doc, target, "pass")
        got = _derived(doc, target)["morphism"]["map"]["values"]
        if got != list(values):
            problems.append(f"{target}: map {got}, expected {list(values)}")
        return problems
    return check


def is_discrete(space: dict) -> bool:
    return len(space["opens"]) == 1 << space["points"]


def continuous_maps(x: dict, y: dict) -> list[tuple[int, ...]]:
    """All continuous point maps x -> y, in lexicographic order."""
    x_opens = {frozenset(u) for u in x["opens"]}
    return [values
            for values in cartesian(range(y["points"]), repeat=x["points"])
            if all(frozenset(p for p in range(x["points"]) if values[p] in v)
                   in x_opens for v in y["opens"])]


def fullness(target: str, x: dict, y: dict) -> Check:
    """Discrete pairs: |Y|^|X| morphisms, one family per map.  Otherwise the
    count is exploratory: every continuous map carries at least its own
    pullback family."""
    discrete = is_discrete(x) and is_discrete(y)
    maps = continuous_maps(x, y)

    def check(doc):
        problems = _status(doc, target,
                           "pass" if discrete else "exploratory")
        derived = _derived(doc, target)
        per_map = derived.get("per_map", {})
        keys = {",".join(str(v) for v in values) for values in maps}
        if set(per_map) != keys:
            problems.append(f"{target}: maps {sorted(per_map)}")
        counts = list(per_map.values())
        if discrete:
            if derived.get("total") != y["points"] ** x["points"] or \
                    any(c != 1 for c in counts):
                problems.append(f"{target}: total {derived.get('total')}")
        elif any(c < 1 for c in counts) or \
                derived.get("total") != sum(counts):
            problems.append(f"{target}: counts {per_map}")
        return problems
    return check


def spectrum_split(expected: dict) -> Check:
    """Q^n in the standard basis: the n point evaluations."""
    def check(doc):
        problems = all_pass(doc)
        for target, n in expected.items():
            chars = _derived(doc, target).get("characters")
            points = [[str(int(i == j)) for j in range(n)] for i in range(n)]
            if chars is None or sorted(chars) != sorted(points):
                problems.append(f"{target}: characters {chars}")
        return problems
    return check


def spectrum_quadratic(target: str, root: int | None) -> Check:
    """Q[x]/(x^2 - c): x -> +-root when c = root^2, otherwise not split."""
    def check(doc):
        if root is None:
            problems = _status(doc, target, "fail")
            rep = _reports(doc).get(target, {})
            if not any("does not split" in f["message"]
                       for f in rep.get("findings", ())):
                problems.append(f"{target}: no 'does not split' finding")
            return problems
        problems = _status(doc, target, "pass")
        chars = _derived(doc, target).get("characters")
        if chars != [["1", str(-root)], ["1", str(root)]]:
            problems.append(f"{target}: characters {chars}")
        return problems
    return check


def recovered_map(target: str, values, exploratory: bool) -> Check:
    def check(doc):
        problems = _status(doc, target,
                           "exploratory" if exploratory else "pass")
        got = _derived(doc, target).get("map", {}).get("values")
        if got != list(values):
            problems.append(f"{target}: map {got}")
        return problems
    return check
