"""Acceptance gate: one test per shipping criterion.

Run with -v to get a single pass/fail line per criterion.  Everything is
exact rational arithmetic; there are no tolerances to tune.  Expected
values are either independently recomputed here (brute-force tensor
oracle, exhaustive map enumeration) or pinned integers derived from those
oracles.
"""

import io
import itertools
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
import sympy

from kaehler_oracle import committed_kaehler_module, random_derivations
from support import families_over, free_module_sections, is_zero
from triadica.algebra import (ModuleSections, algebra_from_struct,
                              function_algebra, truncated_poly_algebra)
from triadica.cli import main
from triadica.compound import (morphism_from_json, presheaf_from_json,
                               triad_from_json)
from triadica.dtcat import (TriadMorphism, check_morphism, compose,
                            constant_morphism, fullness_check,
                            identity_morphism, pullback_morphism)
from triadica.exactla import Matrix, vec
from triadica.finspace import (ContinuousMap, all_maps, discrete_space,
                               indiscrete_space, is_continuous,
                               minimal_open_superset, sierpinski_space,
                               space_from_opens)
from triadica.kaehler import factor_derivation, kaehler_module, kaehler_presheaf
from triadica.sheaf import (check_sheaf_condition, constant_presheaf,
                            function_presheaf, pushforward, sheafify, stalk)
from triadica.triad import (check_leibniz, constant_triad,
                            constants_only_kernel, function_triad,
                            pushforward_triad, validate_triad)
from triadica.uniqueness import differential_agreement_on_image
from triadica.workspace import WorkspaceDocument

WORKSPACES = pathlib.Path(__file__).parent / "workspaces"

POINT = discrete_space(1)


def square_zero_algebra():
    # Q[x,y] with x^2 = xy = y^2 = 0
    z = [0, 0, 0]
    struct = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], z, z],
        [[0, 0, 1], z, z],
    ]
    return algebra_from_struct(struct, [1, 0, 0])


FIXTURE_ALGEBRAS = [
    function_algebra(1),
    function_algebra(2),
    function_algebra(3),
    truncated_poly_algebra(2),
    truncated_poly_algebra(3),
    square_zero_algebra(),
]


def kaehler_point_triad(a):
    # in the basis of the corpus, which test_criterion_10 reads back
    k = committed_kaehler_module(a)
    return constant_triad(POINT, a, k.module, k.differential)


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def ws(name):
    return str(WORKSPACES / name)


# ---------------------------------------------------------------------------
# 1. the Leibniz validator accepts every universal differential and rejects
#    the coordinate derivative that ignores truncation


def test_criterion_01_leibniz_validation():
    for a in FIXTURE_ALGEBRAS:
        k = kaehler_module(a)
        assert check_leibniz(a, k.module, k.differential).ok, a

    # d/dx into the free rank-1 module over Q[x]/(x^3): the pair (x, x^2)
    # exposes that x * x^2 truncates to zero while the rule says otherwise
    a = truncated_poly_algebra(3)
    m = free_module_sections(a, 1)
    naive = Matrix.from_columns(
        [vec([0, 0, 0]), vec([1, 0, 0]), vec([0, 2, 0])], rows=3)
    report = check_leibniz(a, m, naive)
    assert not report.ok
    assert report.findings[0].witness["pair"] == [1, 2]


# ---------------------------------------------------------------------------
# 2. universal module dimensions, checked against a brute-force oracle that
#    materializes the n^2-dimensional tensor square with sympy


def brute_force_omega_dim(a):
    n = a.dim
    sstruct = [[[sympy.Rational(c.numerator, c.denominator)
                 for c in a.struct[i][j]] for j in range(n)] for i in range(n)]
    mult = sympy.zeros(n, n * n)
    for i in range(n):
        for j in range(n):
            for p in range(n):
                mult[p, i * n + j] = sstruct[i][j][p]
    ideal = mult.nullspace()
    assert len(ideal) == n * n - n  # the multiplication map is onto

    def tensor_mult(u, v):
        w = sympy.zeros(n * n, 1)
        for i in range(n):
            for j in range(n):
                cu = u[i * n + j, 0]
                if cu == 0:
                    continue
                for k in range(n):
                    for l in range(n):
                        cv = v[k * n + l, 0]
                        if cv == 0:
                            continue
                        for p in range(n):
                            sp = sstruct[i][k][p]
                            if sp == 0:
                                continue
                            for q in range(n):
                                w[p * n + q, 0] += cu * cv * sp * sstruct[j][l][q]
        return w

    products = [tensor_mult(u, v) for u in ideal for v in ideal]
    square_rank = (sympy.Matrix.hstack(*products).rank() if products else 0)
    return len(ideal) - square_rank


def test_criterion_02_kaehler_dimensions():
    cases = [
        (function_algebra(1), 0),
        (function_algebra(2), 0),
        (function_algebra(3), 0),
        (truncated_poly_algebra(2), 1),
        (truncated_poly_algebra(3), 2),
    ]
    for a, expected in cases:
        assert brute_force_omega_dim(a) == expected, a
        assert kaehler_module(a).module.dim == expected, a


# ---------------------------------------------------------------------------
# 3. every derivation factors exactly and uniquely through the universal one


def test_criterion_03_universal_property():
    for a in FIXTURE_ALGEBRAS:
        k = kaehler_module(a)
        targets = [free_module_sections(a, 1), free_module_sections(a, 2)]
        for t_index, target in enumerate(targets):
            derivations = random_derivations(a, target, 10,
                                             seed=31 * a.dim + t_index)
            assert len(derivations) == 10
            for d in derivations:
                fact = factor_derivation(k, target, d)
                assert fact.matrix @ k.differential == d
                assert fact.unique


# ---------------------------------------------------------------------------
# 4. category laws on a three-morphism chain over small discrete spaces


def test_criterion_04_category_laws():
    f = pullback_morphism(ContinuousMap(discrete_space(2), discrete_space(3),
                                        (2, 0)))
    g = pullback_morphism(ContinuousMap(discrete_space(3), discrete_space(2),
                                        (1, 1, 0)))
    h = pullback_morphism(ContinuousMap(discrete_space(2), discrete_space(2),
                                        (1, 0)))
    assert compose(compose(h, g), f) == compose(h, compose(g, f))
    for m in (f, g, h):
        assert compose(identity_morphism(m.target), m) == m
        assert compose(m, identity_morphism(m.source)) == m


# ---------------------------------------------------------------------------
# 5. collapsing to a point is always a morphism, and the operator kills the
#    constant algebra components


def test_criterion_05_constant_morphisms():
    sources = [function_triad(discrete_space(2)),
               function_triad(sierpinski_space()),
               kaehler_point_triad(truncated_poly_algebra(3))]
    targets = [function_triad(discrete_space(2)),
               function_triad(sierpinski_space())]
    combos = 0
    for src in sources:
        for tgt in targets:
            for c in range(tgt.space.point_count):
                m = constant_morphism(src, tgt, c)
                assert check_morphism(m).ok, (src.space, tgt.space, c)
                for v in range(len(tgt.space.opens)):
                    composite = (src.differentials[m.map.preimages[v]]
                                 @ m.algebra_components[v])
                    assert is_zero(composite)
                combos += 1
    assert combos >= 6


# ---------------------------------------------------------------------------
# 6. component determination: equal algebra layers agree on the operator
#    image, and equal module layers force equal algebra layers


def padded_point_triad():
    a = truncated_poly_algebra(3)
    k = committed_kaehler_module(a)
    dim = k.module.dim + 1
    action = []
    for i in range(a.dim):
        row = [vec(tuple(k.module.action[i][j]) + (0,))
               for j in range(k.module.dim)]
        row.append(vec([0] * dim) if i else vec([0] * k.module.dim + [1]))
        action.append(tuple(row))
    padded = ModuleSections(a.dim, dim, tuple(action))
    d = Matrix.from_rows(
        [list(k.differential.row(r)) for r in range(k.module.dim)]
        + [[0] * a.dim], cols=a.dim)
    return constant_triad(POINT, a, padded, d)


def order_three_endomorphism(a, b):
    t = kaehler_point_triad(truncated_poly_algebra(3))
    fa = Matrix.from_columns([vec([1, 0, 0]), vec([0, a, b]),
                              vec([0, 0, a * a])], rows=3)
    fo = Matrix.from_columns([vec([a, 2 * b]), vec([0, a * a])], rows=2)
    alg = tuple(fa if s else Matrix.zeros(0, 0) for s in POINT.opens)
    mod = tuple(fo if s else Matrix.zeros(0, 0) for s in POINT.opens)
    return TriadMorphism(ContinuousMap(POINT, POINT, (0,)), t, t, alg, mod)


def test_criterion_06_component_determination():
    # (a) same algebra layer: module layers agree wherever the operator
    # reaches, and may only drift on the inert summand
    pad = padded_point_triad()
    base = identity_morphism(pad)
    family = []
    for t in (1, 2, 3, -1):
        fo = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, t]], cols=3)
        mods = tuple(fo if pad.space.opens[v] else base.module_components[v]
                     for v in range(len(pad.space.opens)))
        m = TriadMorphism(base.map, pad, pad, base.algebra_components, mods)
        assert check_morphism(m).ok
        family.append((t, m))
    pairs = 0
    for (t1, m1), (t2, m2) in itertools.combinations(family, 2):
        report = differential_agreement_on_image(m1, m2)
        assert report.ok
        for v in range(len(pad.space.opens)):
            d = pad.differentials[v]
            assert m1.module_components[v] @ d == m2.module_components[v] @ d
        assert any(f.message == "agree on image, differ globally"
                   for f in report.findings) == (t1 != t2)
        pairs += 1
    assert pairs >= 6

    # (b) over the cubic fixture the operator kernel is just the constants,
    # and the module layer pins down the algebra layer across the grid
    grid = [order_three_endomorphism(a, b)
            for a in range(-2, 3) for b in range(-2, 3)]
    assert constants_only_kernel(grid[0].source)
    for m in grid:
        assert check_morphism(m).ok
    for m1, m2 in itertools.combinations(grid, 2):
        if m1.module_components == m2.module_components:
            assert m1.algebra_components == m2.algebra_components
    # contrapositive witness: gluing one grid member's algebra layer onto
    # another's module layer never survives validation
    franken = TriadMorphism(grid[0].map, grid[0].source, grid[0].target,
                            order_three_endomorphism(2, 0).algebra_components,
                            order_three_endomorphism(1, 0).module_components)
    assert not check_morphism(franken).ok


# ---------------------------------------------------------------------------
# 7. over discrete spaces the only unit-preserving family is pullback,
#    confirmed against directly constructed indicator matrices


def oracle_pullback_components(f):
    comps = []
    for v, vset in enumerate(f.codomain.opens):
        pre = sorted(p for p in range(f.domain.point_count)
                     if f.values[p] in vset)
        cols = sorted(vset)
        comps.append(Matrix.from_rows(
            [[1 if f.values[x] == y else 0 for y in cols] for x in pre],
            cols=len(cols)))
    return tuple(comps)


def test_criterion_07_pullback_forced_discrete():
    for nx in (1, 2, 3):
        for ny in (1, 2, 3):
            x, y = discrete_space(nx), discrete_space(ny)
            enumerated_sets = set()
            oracle_sets = set()
            for values in all_maps(x, y):
                assert is_continuous(values, x, y)
                f = ContinuousMap(x, y, values)
                found = families_over(f)
                assert len(found) == 1, (nx, ny, values)
                assert found[0].components == oracle_pullback_components(f)
                enumerated_sets.add(found[0].components)
                oracle_sets.add(oracle_pullback_components(f))
            assert enumerated_sets == oracle_sets


# ---------------------------------------------------------------------------
# 8. morphism counts between functional triads match point-map counts


def test_criterion_08_fullness_counts():
    expected = {(1, 2): 2, (2, 2): 4, (2, 3): 9, (3, 2): 8}
    for (nx, ny), count in expected.items():
        res = fullness_check(discrete_space(nx), discrete_space(ny))
        assert res.report.ok
        assert res.total == count
        # bijection with point maps: one morphism riding each map
        assert len(res.per_map) == ny ** nx
        assert all(c == 1 for _, c in res.per_map)
        assert {values for values, _ in res.per_map} == set(
            all_maps(discrete_space(nx), discrete_space(ny)))


# ---------------------------------------------------------------------------
# 9. sheaf machinery: idempotent sheafification preserving stalks,
#    certificate-preserving pushforward, and subset-level commutativity


def test_criterion_09_sheaf_machinery():
    spaces = [sierpinski_space(), discrete_space(2), discrete_space(3),
              indiscrete_space(2),
              space_from_opens(3, [(), (0,), (0, 1), (0, 1, 2)])]
    presheaves = [constant_presheaf(sp, function_algebra(1)) for sp in spaces]
    presheaves.append(constant_presheaf(POINT, truncated_poly_algebra(3)))
    assert len(presheaves) >= 5

    for p in presheaves:
        once = sheafify(p)
        twice = sheafify(once.presheaf)
        assert twice.presheaf == once.presheaf  # idempotent on the nose
        space = p.space
        for x in range(space.point_count):
            before = stalk(p, x)
            after = stalk(once.presheaf, x)
            assert after.sections.dim == before.sections.dim
            assert before.open_index == after.open_index

    # derived global dimensions for the constant rational presheaf
    d2_plus = sheafify(constant_presheaf(discrete_space(2),
                                         function_algebra(1))).presheaf
    assert d2_plus.section_dim(len(d2_plus.space.opens) - 1) == 2
    s_plus = sheafify(constant_presheaf(sierpinski_space(),
                                        function_algebra(1))).presheaf
    assert s_plus.section_dim(len(s_plus.space.opens) - 1) == 1

    # pushforward keeps sheaf certificates
    push_cases = [
        (ContinuousMap(discrete_space(2), POINT, (0, 0)),
         function_presheaf(discrete_space(2))),
        (ContinuousMap(sierpinski_space(), sierpinski_space(), (0, 1)),
         function_presheaf(sierpinski_space())),
        (ContinuousMap(discrete_space(3), discrete_space(2), (0, 0, 1)),
         function_presheaf(discrete_space(3))),
    ]
    for f, p in push_cases:
        assert check_sheaf_condition(p).is_sheaf
        assert check_sheaf_condition(pushforward(f, p)).is_sheaf

    # subset-level squares commute for fixture morphisms
    morphisms = [sheafify(p).canonical for p in presheaves]
    for sp in (discrete_space(2), sierpinski_space(), discrete_space(3)):
        ident = ContinuousMap(sp, sp, tuple(range(sp.point_count)))
        morphisms.extend(families_over(ident))
    for h in morphisms:
        space = h.source.space
        points = range(space.point_count)
        for size in range(1, space.point_count + 1):
            for subset in itertools.combinations(points, size):
                uk = minimal_open_superset(space, subset)
                comp = h.components[uk]
                for v, vset in enumerate(space.opens):
                    if not set(subset) <= vset:
                        continue
                    lhs = comp @ h.source.restriction(v, uk)
                    rhs = h.target.restriction(v, uk) @ h.components[v]
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# 10. command surface: exit codes over the corpus, byte-level determinism,
#     and reload of every derived artifact


CORPUS = [
    (["validate", "--workspace", ws("ws_minimal.json")], 0),
    (["validate", "--workspace", ws("ws_kaehler_point.json")], 0),
    (["validate", "--workspace", ws("ws_mixed_base.json")], 0),
    (["validate", "--workspace", ws("ws_constant_morphism.json")], 0),
    (["check-morphism", "--workspace", ws("ws_function_triads.json")], 0),
    (["check-morphism", "--workspace", ws("ws_morphism_chain.json")], 0),
    (["uniqueness", "--workspace", ws("ws_uniqueness.json"),
      "--target", "U_BASE:U_OFF"], 0),
    (["fullness", "--workspace", ws("ws_fullness.json"),
      "--target", "D2:D3"], 0),
    (["sheafify", "--workspace", ws("ws_sheafify.json")], 0),
    (["spectrum", "--workspace", ws("ws_spectrum.json"),
      "--target", "F3", "--target", "A2"], 0),
    (["validate", "--workspace", ws("ws_bad_topology.json")], 1),
    (["validate", "--workspace", ws("ws_bad_leibniz.json")], 1),
    (["check-morphism", "--workspace", ws("ws_bad_morphism.json")], 1),
    (["spectrum", "--workspace", ws("ws_spectrum.json"),
      "--target", "SQRT2"], 1),
    (["validate", "--workspace", ws("bad_rational.json")], 2),
    (["validate", "--workspace", ws("bad_reference.json")], 2),
    (["validate", "--workspace", ws("bad_float.json")], 2),
    (["validate", "--workspace", ws("bad_shape.json")], 2),
    (["validate", "--workspace", ws("bad_syntax.json")], 2),
]


def test_criterion_10_cli_contract():
    files = {a[a.index("--workspace") + 1] for a, _ in CORPUS}
    assert len(files) >= 12
    assert sum(1 for a, code in CORPUS if code == 2) >= 3

    for argv, expected in CORPUS:
        code, out, err = run_cli(*argv)
        assert code == expected, (argv, code, err or out)

    # byte-identical output across repeated runs, in both renderings
    for argv in (["validate", "--workspace", ws("ws_kaehler_point.json")],
                 ["fullness", "--workspace", ws("ws_fullness.json"),
                  "--target", "D2:D3", "--human"]):
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second

    # every derived artifact reloads through the parser as an equal object
    blank = WorkspaceDocument()

    _, out, _ = run_cli("kaehler", "--workspace", ws("ws_kaehler_point.json"),
                        "--target", "CP3")
    derived = json.loads(out)["reports"][0]["derived_artifacts"]
    expected_triad = kaehler_presheaf(constant_presheaf(
        POINT, truncated_poly_algebra(3))).presheaf_triad
    assert triad_from_json(derived["presheaf_triad"], blank, "k", {}) == \
        expected_triad

    _, out, _ = run_cli("sheafify", "--workspace", ws("ws_sheafify.json"),
                        "--target", "CQ_D2")
    derived = json.loads(out)["reports"][0]["derived_artifacts"]
    expected_sheaf = sheafify(constant_presheaf(discrete_space(2),
                                                function_algebra(1))).presheaf
    assert presheaf_from_json(derived["sheaf"], blank, "s", {}) == expected_sheaf

    _, out, _ = run_cli("pushforward", "--workspace", ws("ws_pushforward.json"),
                        "--target", "COLLAPSE:FT2")
    derived = json.loads(out)["reports"][0]["derived_artifacts"]
    expected_push = pushforward_triad(
        ContinuousMap(discrete_space(2), POINT, (0, 0)),
        function_triad(discrete_space(2)))
    reloaded = triad_from_json(derived["triad"], blank, "p", {})
    assert reloaded == expected_push
    assert validate_triad(reloaded).ok

    _, out, _ = run_cli("compose", "--workspace", ws("ws_morphism_chain.json"),
                        "--target", "E20:E11")
    derived = json.loads(out)["reports"][0]["derived_artifacts"]
    reloaded = morphism_from_json(derived["morphism"], blank, "c", {})
    assert reloaded == compose(order_three_endomorphism(2, 0),
                               order_three_endomorphism(1, 1))
    assert check_morphism(reloaded).ok

    _, out, _ = run_cli("constant-morphism",
                        "--workspace", ws("ws_constant_morphism.json"),
                        "--target", "FT2:FTS:1")
    derived = json.loads(out)["reports"][0]["derived_artifacts"]
    reloaded = morphism_from_json(derived["morphism"], blank, "m", {})
    assert reloaded == constant_morphism(function_triad(discrete_space(2)),
                                         function_triad(sierpinski_space()), 1)
    assert check_morphism(reloaded).ok
