"""Regenerate the workspace corpus under tests/workspaces/.

Run from the repository root:  python3 tests/make_workspaces.py

Valid documents are produced through the library serializers, so they stay
in lockstep with the parser.  The deliberately broken documents (bad_*.json)
are hand-written next to this script and not touched here.  Kaehler modules
are written in the I / I^2 basis of `kaehler_oracle`, which does not depend
on a choice of generators.  `main(out)` writes the corpus into another
directory, so a test can compare it with the committed one.
"""

import pathlib

from kaehler_oracle import committed_kaehler_module, committed_kaehler_triad
from triadica.algebra import (Algebra, ModuleSections, function_algebra,
                              truncated_poly_algebra, zero_module_sections)
from triadica.compound import (map_to_json, morphism_to_json, presheaf_to_json,
                               triad_to_json)
from triadica.dtcat import TriadMorphism, identity_morphism, pullback_morphism
from triadica.exactla import Matrix, rat, vec
from triadica.finspace import (ContinuousMap, discrete_space,
                               sierpinski_space)
from triadica.kaehler import kaehler_presheaf
from triadica.sheaf import constant_presheaf, make_presheaf
from triadica.triad import constant_triad, function_triad
from triadica.workspace import (algebra_to_json, dump_workspace,
                                parse_workspace, space_to_json)

HERE = pathlib.Path(__file__).parent / "workspaces"

POINT = discrete_space(1)
D2 = discrete_space(2)
D3 = discrete_space(3)
SIER = sierpinski_space()

A3 = truncated_poly_algebra(3)


def kaehler_point_triad(a):
    k = committed_kaehler_module(a)
    return constant_triad(POINT, a, k.module, k.differential)


def order_three_endomorphism(a, b):
    """x -> a*x + b*x^2 on Q[x]/(x^3); the module matrix is the one forced
    by the operator square."""
    t = kaehler_point_triad(A3)
    fa = Matrix.from_columns([vec([1, 0, 0]), vec([0, a, b]),
                              vec([0, 0, a * a])], rows=3)
    fo = Matrix.from_columns([vec([a, 2 * b]), vec([0, a * a])], rows=2)
    alg, mod = [], []
    for vset in POINT.opens:
        alg.append(fa if vset else Matrix.zeros(0, 0))
        mod.append(fo if vset else Matrix.zeros(0, 0))
    return TriadMorphism(ContinuousMap(POINT, POINT, (0,)), t, t,
                         tuple(alg), tuple(mod))


def padded_point_triad():
    """Q[x]/(x^3) differentials plus one inert summand off the image."""
    k = committed_kaehler_module(A3)
    dim = k.module.dim + 1
    action = []
    for i in range(A3.dim):
        row = [vec(tuple(k.module.action[i][j]) + (0,))
               for j in range(k.module.dim)]
        row.append(vec([0] * dim) if i else vec([0] * k.module.dim + [1]))
        action.append(tuple(row))
    padded = ModuleSections(A3.dim, dim, tuple(action))
    d = Matrix.from_rows(
        [list(k.differential.row(r)) for r in range(k.module.dim)]
        + [[0] * A3.dim], cols=A3.dim)
    return constant_triad(POINT, A3, padded, d)


def endo_with_module_matrix(t, fo):
    base = identity_morphism(t)
    mods = tuple(fo if t.space.opens[v] else base.module_components[v]
                 for v in range(len(t.space.opens)))
    return TriadMorphism(base.map, t, t, base.algebra_components, mods)


def character_morphism(picked):
    """One of the two unit-preserving maps Q^2 -> Q[x]/(x^3) over a point."""
    source = kaehler_point_triad(A3)
    target = constant_triad(POINT, function_algebra(2),
                            zero_module_sections(2), Matrix.zeros(0, 2))
    fa = Matrix.from_columns(
        [vec([1, 0, 0]) if j == picked else vec([0, 0, 0]) for j in range(2)],
        rows=3)
    alg, mod = [], []
    for vset in POINT.opens:
        alg.append(fa if vset else Matrix.zeros(0, 0))
        mod.append(Matrix.zeros(2, 0) if vset else Matrix.zeros(0, 0))
    return TriadMorphism(ContinuousMap(POINT, POINT, (0,)), source, target,
                         tuple(alg), tuple(mod))


def mixed_presheaf():
    """Dual numbers on one point, plain Q on the other, product globally."""
    dual = truncated_poly_algebra(2)
    q = function_algebra(1)
    prod_struct = []
    for i in range(3):
        row = []
        for j in range(3):
            out = [rat(0)] * 3
            if i < 2 and j < 2:
                for k, c in enumerate(dual.struct[i][j]):
                    out[k] = c
            elif i == 2 and j == 2:
                out[2] = rat(1)
            row.append(tuple(out))
        prod_struct.append(tuple(row))
    prod = Algebra(3, tuple(prod_struct), (rat(1), rat(0), rat(1)))
    empty = D2.open_index(frozenset())
    u0 = D2.open_index(frozenset({0}))
    u1 = D2.open_index(frozenset({1}))
    full = D2.open_index(frozenset({0, 1}))
    sections = [None] * 4
    sections[empty] = function_algebra(0)
    sections[u0], sections[u1], sections[full] = dual, q, prod
    restrictions = {
        (full, u0): Matrix.from_rows([[1, 0, 0], [0, 1, 0]], cols=3),
        (full, u1): Matrix.from_rows([[0, 0, 1]], cols=3),
    }
    return make_presheaf(D2, tuple(sections), restrictions)


def sqrt2_algebra():
    """Q[x]/(x^2 - 2): semisimple but with no rational characters."""
    z, one, two = rat(0), rat(1), rat(2)
    struct = (((one, z), (z, one)), ((z, one), (two, z)))
    return Algebra(2, struct, (one, z))


def corrupted_leibniz_triad():
    """The Q[x]/(x^3) differential with d(x^2) zeroed out."""
    k = committed_kaehler_module(A3)
    d = Matrix.from_columns(
        [k.differential.col(0), k.differential.col(1),
         vec([0] * k.module.dim)], rows=k.module.dim)
    return constant_triad(POINT, A3, k.module, d)


def broken_square_morphism():
    """Multiplicative on the algebra layer, wrong on the module layer."""
    m = order_three_endomorphism(2, 0)
    mods = tuple(Matrix.identity(2) if m.source.space.opens[v]
                 else m.module_components[v]
                 for v in range(len(m.source.space.opens)))
    return TriadMorphism(m.map, m.source, m.target, m.algebra_components, mods)


def main(out=HERE):
    """Write every generated document into `out`."""
    out.mkdir(exist_ok=True)

    def write(name, doc):
        text = dump_workspace(doc)
        parse_workspace(text)  # every valid fixture must reload
        (out / name).write_text(text, encoding="utf-8")
        print("wrote", name)

    write("ws_minimal.json", {
        "schema": 1,
        "description": "two discrete points with their function sections",
        "spaces": {"D2": space_to_json(D2)},
        "algebras": {"F2": "function_algebra 2"},
        "presheaves": {"FP2": presheaf_to_json(function_triad(D2).algebras)},
    })

    kp = kaehler_presheaf(constant_presheaf(POINT, A3))
    write("ws_kaehler_point.json", {
        "schema": 1,
        "description": "truncated cubic polynomials over a single point, "
                       "with the universal differential triad",
        "spaces": {"PT": space_to_json(POINT)},
        "algebras": {"A3": "truncated_poly 3"},
        "presheaves": {"CP3": presheaf_to_json(constant_presheaf(POINT, A3))},
        "triads": {"KT3": triad_to_json(committed_kaehler_triad(kp))},
    })

    swap = ContinuousMap(D2, D2, (1, 0))
    into3 = ContinuousMap(D2, D3, (0, 2))
    sid = ContinuousMap(SIER, SIER, (0, 1))
    write("ws_function_triads.json", {
        "schema": 1,
        "description": "function triads and pullback morphisms used by "
                       "check-morphism and recover-map",
        "spaces": {"D2": space_to_json(D2), "D3": space_to_json(D3),
                   "S": space_to_json(SIER)},
        "maps": {"SWAP": map_to_json(swap), "INTO3": map_to_json(into3),
                 "SID": map_to_json(sid)},
        "triads": {"FT2": triad_to_json(function_triad(D2)),
                   "FT3": triad_to_json(function_triad(D3)),
                   "FTS": triad_to_json(function_triad(SIER))},
        "morphisms": {"PB_SWAP": morphism_to_json(pullback_morphism(swap)),
                      "PB_INTO3": morphism_to_json(pullback_morphism(into3)),
                      "PB_SID": morphism_to_json(pullback_morphism(sid))},
    })

    write("ws_morphism_chain.json", {
        "schema": 1,
        "description": "three endomorphisms of the cubic differential triad, "
                       "closed under composition",
        "spaces": {"PT": space_to_json(POINT)},
        "morphisms": {
            "E11": morphism_to_json(order_three_endomorphism(1, 1)),
            "E20": morphism_to_json(order_three_endomorphism(2, 0)),
            "E12": morphism_to_json(order_three_endomorphism(1, 2)),
        },
    })

    write("ws_constant_morphism.json", {
        "schema": 1,
        "description": "function triads for collapse-to-a-point morphisms",
        "spaces": {"D2": space_to_json(D2), "S": space_to_json(SIER)},
        "triads": {"FT2": triad_to_json(function_triad(D2)),
                   "FTS": triad_to_json(function_triad(SIER))},
    })

    pad = padded_point_triad()
    off_image = endo_with_module_matrix(pad, Matrix.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 2]], cols=3))
    write("ws_uniqueness.json", {
        "schema": 1,
        "description": "component-uniqueness probes: an inert summand the "
                       "operator never reaches, and a target with two "
                       "evaluation maps",
        "spaces": {"PT": space_to_json(POINT)},
        "morphisms": {
            "U_BASE": morphism_to_json(identity_morphism(pad)),
            "U_OFF": morphism_to_json(off_image),
            "X_FIRST": morphism_to_json(character_morphism(0)),
            "X_SECOND": morphism_to_json(character_morphism(1)),
        },
    })

    write("ws_fullness.json", {
        "schema": 1,
        "description": "spaces for morphism counting",
        "spaces": {"D1": space_to_json(discrete_space(1)),
                   "D2": space_to_json(D2), "D3": space_to_json(D3),
                   "S": space_to_json(SIER)},
    })

    write("ws_sheafify.json", {
        "schema": 1,
        "description": "a constant presheaf that fails gluing over two "
                       "discrete points, next to one that glues",
        "spaces": {"D2": space_to_json(D2), "S": space_to_json(SIER)},
        "presheaves": {
            "CQ_D2": presheaf_to_json(constant_presheaf(D2,
                                                        function_algebra(1))),
            "CQ_S": presheaf_to_json(constant_presheaf(SIER,
                                                       function_algebra(1))),
        },
    })

    collapse = ContinuousMap(D2, POINT, (0, 0))
    write("ws_pushforward.json", {
        "schema": 1,
        "description": "direct images of function triads",
        "spaces": {"D2": space_to_json(D2), "PT": space_to_json(POINT),
                   "S": space_to_json(SIER)},
        "maps": {"COLLAPSE": map_to_json(collapse),
                 "SID": map_to_json(ContinuousMap(SIER, SIER, (0, 1)))},
        "triads": {"FT2": triad_to_json(function_triad(D2)),
                   "FTS": triad_to_json(function_triad(SIER))},
    })

    write("ws_spectrum.json", {
        "schema": 1,
        "description": "split, nilpotent and non-split algebras for the "
                       "character search",
        "algebras": {"F3": "function_algebra 3",
                     "A2": "truncated_poly 2",
                     "SQRT2": algebra_to_json(sqrt2_algebra())},
    })

    mp = mixed_presheaf()
    write("ws_mixed_base.json", {
        "schema": 1,
        "description": "dual numbers on one point, plain rationals on the "
                       "other, their product globally",
        "spaces": {"D2": space_to_json(D2)},
        "presheaves": {"MIXP": presheaf_to_json(mp)},
        "triads": {"MIXT": triad_to_json(
            committed_kaehler_triad(kaehler_presheaf(mp)))},
    })

    write("ws_bad_topology.json", {
        "schema": 1,
        "description": "opens not closed under union; parses, fails validate",
        "spaces": {"BADTOP": {"points": 3,
                              "opens": [[], [0], [1], [0, 1, 2]]}},
    })

    write("ws_bad_morphism.json", {
        "schema": 1,
        "description": "algebra layer fine, module layer breaks the "
                       "operator square",
        "spaces": {"PT": space_to_json(POINT)},
        "morphisms": {"BROKEN": morphism_to_json(broken_square_morphism())},
    })

    write("ws_bad_leibniz.json", {
        "schema": 1,
        "description": "a differential that forgets the square term; "
                       "parses, fails validate",
        "spaces": {"PT": space_to_json(POINT)},
        "triads": {"CORRUPT": triad_to_json(corrupted_leibniz_triad())},
    })


if __name__ == "__main__":
    main()
