"""Triad morphisms: validation, category laws, constant maps, uniqueness of
components, point-map recovery, and the fullness count."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from triadica.algebra import (function_algebra, truncated_poly_algebra,
                              validate_algebra_morphism)
from triadica.dtcat import (BoundExceeded, FullnessResult, TriadMorphism,
                            _pullback_report,
                            algebra_component_uniqueness, check_morphism,
                            compose, constant_morphism,
                            differential_agreement_on_image,
                            fullness_check, identity_morphism,
                            pullback_morphism, verify_pullback_forced)
from triadica.errors import DimensionMismatchError
from triadica.exactla import Matrix, vec
from triadica.finspace import (ContinuousMap, InvalidTopologyError, all_maps,
                               constant_map, discrete_space, identity_map,
                               indiscrete_space, is_continuous, sierpinski_space,
                               space_from_opens)
from triadica.kaehler import kaehler_module, kaehler_presheaf
from triadica.record import Interner
from triadica.report import Finding, relocated
from triadica.sheaf import (ModuleSections, PresheafMorphism, constant_presheaf,
                            function_presheaf, pushforward,
                            semilinearity_defects, validate_presheaf_morphism,
                            zero_module_sections)
from triadica.triad import (DifferentialTriad, NotFunctional, constant_triad,
                            constants_only_kernel, function_triad)

from dtcat_oracle import module_linearity_by_pairs, presheaf_morphisms_by_search
from support import (families_over, free_module_sections, is_zero, replace,
                     scaled)
from test_sheaf import all_topologies

POINT = discrete_space(1)


def kaehler_point_triad(a):
    """The algebra's universal differential module as a triad over one point."""
    k = kaehler_module(a)
    return constant_triad(POINT, a, k.module, k.differential)


def order_three_endomorphism(a, b):
    """The triad endomorphism induced by x -> a*x + b*x^2 on Q[x]/(x^3)."""
    t = kaehler_point_triad(truncated_poly_algebra(3))
    fa = Matrix.from_columns([vec([1, 0, 0]), vec([0, a, b]), vec([0, 0, a * a])],
                             rows=3)
    fo = Matrix.from_columns([vec([a, 2 * b]), vec([0, a * a])], rows=2)
    full = POINT.open_index(frozenset({0}))
    alg = [None] * len(POINT.opens)
    mod = [None] * len(POINT.opens)
    for v, vset in enumerate(POINT.opens):
        if vset:
            alg[v], mod[v] = fa, fo
        else:
            alg[v], mod[v] = Matrix.zeros(0, 0), Matrix.zeros(0, 0)
    return TriadMorphism(ContinuousMap(POINT, POINT, (0,)), t, t,
                         tuple(alg), tuple(mod))


# ---------------------------------------------------------------------------
# check_morphism


def test_identity_is_a_morphism_on_fixture_triads():
    fixtures = [
        function_triad(discrete_space(2)),
        function_triad(sierpinski_space()),
        kaehler_point_triad(truncated_poly_algebra(3)),
        kaehler_presheaf(constant_presheaf(
            sierpinski_space(), truncated_poly_algebra(2))).presheaf_triad,
    ]
    for t in fixtures:
        assert check_morphism(identity_morphism(t)).ok


def test_pullback_is_a_morphism_for_every_map():
    spaces = [discrete_space(2), discrete_space(3), sierpinski_space()]
    for x in spaces:
        for y in spaces:
            for values in all_maps(x, y):
                if not is_continuous(values, x, y):
                    continue
                pm = pullback_morphism(ContinuousMap(x, y, values))
                assert check_morphism(pm).ok


def test_doubled_module_component_breaks_the_operator_square():
    t = kaehler_point_triad(truncated_poly_algebra(3))
    good = identity_morphism(t)
    bad = TriadMorphism(good.map, t, t, good.algebra_components,
                        tuple(scaled(c, Fraction(2))
                              for c in good.module_components))
    report = check_morphism(bad)
    assert not report.ok
    errs = report.errors()
    assert any("differential_squares" in f.location for f in errs)
    assert any(f.witness and f.witness.get("defect") for f in errs
               if isinstance(f.witness, dict))


def test_component_shapes_are_enforced():
    t = function_triad(discrete_space(2))
    good = identity_morphism(t)
    with pytest.raises(DimensionMismatchError):
        TriadMorphism(good.map, t, t, good.algebra_components[:-1] +
                      (Matrix.zeros(1, 1),), good.module_components)


@pytest.mark.parametrize("end", ["source", "target"])
def test_a_map_onto_another_listing_of_a_triad_space_is_refused(end):
    # discrete(2) with {0} and {1} listed the other way round: every open
    # keeps its size, so the shapes fit, but the spaces are not equal
    x = discrete_space(2)
    swapped = space_from_opens(2, [x.opens[i] for i in (0, 2, 1, 3)])
    m = replace(identity_morphism(function_triad(x)),
                **{end: function_triad(swapped)})
    assert check_morphism(m).findings == (Finding(
        "error", "frame", "underlying map does not connect the triad spaces", None),)


# ---------------------------------------------------------------------------
# category laws


def pullback_chain():
    f = ContinuousMap(discrete_space(2), discrete_space(3), (2, 0))
    g = ContinuousMap(discrete_space(3), discrete_space(2), (1, 1, 0))
    h = ContinuousMap(discrete_space(2), discrete_space(2), (1, 0))
    return pullback_morphism(f), pullback_morphism(g), pullback_morphism(h)


def mixed_chain():
    source = kaehler_presheaf(constant_presheaf(
        sierpinski_space(), truncated_poly_algebra(3))).presheaf_triad
    m1 = constant_morphism(source, function_triad(discrete_space(2)), 1)
    m2 = pullback_morphism(ContinuousMap(discrete_space(2), discrete_space(3),
                                         (2, 0)))
    m3 = pullback_morphism(ContinuousMap(discrete_space(3), discrete_space(2),
                                         (1, 1, 0)))
    return m1, m2, m3


@pytest.mark.parametrize("chain", [pullback_chain, mixed_chain])
def test_associativity_of_composition(chain):
    m1, m2, m3 = chain()
    left = compose(m3, compose(m2, m1))
    right = compose(compose(m3, m2), m1)
    assert left == right
    assert check_morphism(left).ok


@pytest.mark.parametrize("chain", [pullback_chain, mixed_chain])
def test_identity_is_neutral_for_composition(chain):
    for m in chain():
        assert compose(identity_morphism(m.target), m) == m
        assert compose(m, identity_morphism(m.source)) == m


@pytest.mark.parametrize("chain", [pullback_chain, mixed_chain])
def test_composites_are_morphisms(chain):
    m1, m2, m3 = chain()
    for m in (compose(m2, m1), compose(m3, m2), compose(m3, compose(m2, m1))):
        assert check_morphism(m).ok


def test_identity_composes_to_itself():
    i = identity_morphism(function_triad(discrete_space(2)))
    assert compose(i, i) == i


def test_composing_mismatched_morphisms_is_rejected():
    m1, m2, _ = pullback_chain()
    with pytest.raises(DimensionMismatchError):
        compose(m1, m1)
    outer, inner = maps_that_do_not_chain()
    assert inner.target == outer.source
    with pytest.raises(DimensionMismatchError, match="^maps are not composable$"):
        compose(outer, inner)


def maps_that_do_not_chain():
    """(outer, inner): morphisms whose triads chain but whose maps do not.

    Both are identities of the function triad on the Sierpinski space
    {0} < {0, 1}; the outer one rides on the identity of its mirror, whose
    open point is 1.  The opens and the section sizes line up, so
    TriadMorphism takes the mirror's map."""
    t = function_triad(sierpinski_space())
    mirror = space_from_opens(2, [[], [1], [0, 1]])
    inner = identity_morphism(t)
    outer = TriadMorphism(identity_map(mirror), t, t, inner.algebra_components,
                          inner.module_components)
    return outer, inner


# ---------------------------------------------------------------------------
# constant morphisms


CONSTANT_GRID = []
for _target_space in (discrete_space(2), sierpinski_space()):
    for _c in range(_target_space.point_count):
        CONSTANT_GRID.append((function_triad(_target_space), _c))


def constant_sources():
    return [
        kaehler_point_triad(truncated_poly_algebra(3)),
        kaehler_presheaf(constant_presheaf(
            sierpinski_space(), truncated_poly_algebra(2))).presheaf_triad,
        function_triad(discrete_space(2)),
    ]


def test_constant_morphisms_pass_validation_on_the_grid():
    combos = 0
    for source in constant_sources():
        for target, c in CONSTANT_GRID:
            m = constant_morphism(source, target, c)
            assert check_morphism(m).ok
            combos += 1
    assert combos >= 6


def test_constant_morphism_kills_the_operator():
    # the operator square degenerates: d after the algebra component is zero
    for source in constant_sources():
        for target, c in CONSTANT_GRID:
            m = constant_morphism(source, target, c)
            for v in range(len(m.target.space.opens)):
                pre = m.map.preimages[v]
                assert is_zero(source.differentials[pre] @ m.algebra_components[v])
                assert is_zero(m.module_components[v])


def test_constant_morphism_sends_unit_to_unit():
    source = kaehler_point_triad(truncated_poly_algebra(3))
    target = function_triad(sierpinski_space())
    m = constant_morphism(source, target, 0)
    full_y = target.space.open_index(target.space.full_set)
    unit_y = target.algebras.sections[full_y].unit
    full_x = source.space.open_index(source.space.full_set)
    unit_x = source.algebras.sections[full_x].unit
    assert m.algebra_components[full_y].apply(unit_y) == unit_x


def test_constant_morphism_requires_point_evaluations():
    source = function_triad(discrete_space(2))
    target = kaehler_point_triad(truncated_poly_algebra(2))  # nilpotents inside
    with pytest.raises(NotFunctional):
        constant_morphism(source, target, 0)


def test_composing_constant_morphisms_lands_at_the_final_point():
    source = kaehler_point_triad(truncated_poly_algebra(3))
    mid = function_triad(discrete_space(2))
    end = function_triad(sierpinski_space())
    c1 = constant_morphism(source, mid, 1)
    c2 = constant_morphism(mid, end, 0)
    assert compose(c2, c1) == constant_morphism(source, end, 0)


def test_constant_morphisms_between_function_triads_are_pullbacks():
    # every target topology with at most 3 points and every point of it; the
    # source enters only through its global unit, so sources with at most 2
    # points (the empty space and the non-T0 one included) cover it
    sources = [sp for n in range(3) for sp in all_topologies(n)]
    targets = [sp for n in range(4) for sp in all_topologies(n)]
    cases = 0
    for x, y in itertools.product(sources, targets):
        tx, ty = function_triad(x), function_triad(y)
        for c in range(y.point_count):
            m = constant_morphism(tx, ty, c)
            assert m == pullback_morphism(constant_map(x, y, c)), (x, y, c)
            assert check_morphism(m).ok
            cases += 1
    assert cases == 6 * 96


# ---------------------------------------------------------------------------
# module components are pinned on the operator image


def padded_point_triad():
    """Q[x]/(x^3) with its differential module plus one inert summand the
    operator never reaches."""
    a = truncated_poly_algebra(3)
    k = kaehler_module(a)
    dim = k.module.dim + 1
    action = []
    for i in range(a.dim):
        row = [vec(tuple(k.module.action[i][j]) + (0,)) for j in range(k.module.dim)]
        row.append(vec([0] * dim) if i else vec([0] * k.module.dim + [1]))
        action.append(tuple(row))
    padded = ModuleSections(a.dim, dim, tuple(action))
    d = Matrix.from_rows([list(k.differential.row(r)) for r in range(k.module.dim)]
                         + [[0] * a.dim], cols=a.dim)
    return constant_triad(POINT, a, padded, d)


def _endo_with_module_matrix(t, fo):
    base = identity_morphism(t)
    mods = tuple(fo if t.space.opens[v] else base.module_components[v]
                 for v in range(len(t.space.opens)))
    return TriadMorphism(base.map, t, t, base.algebra_components, mods)


def test_equal_morphisms_trivially_agree_on_image():
    t = kaehler_point_triad(truncated_poly_algebra(3))
    m = identity_morphism(t)
    report = differential_agreement_on_image(m, m)
    assert report.ok and not report.findings


def test_difference_outside_the_image_is_reported_but_not_an_error():
    t = padded_point_triad()
    m1 = identity_morphism(t)
    m2 = _endo_with_module_matrix(t, Matrix.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 2]], cols=3))
    assert check_morphism(m2).ok  # scaling the inert summand is legal
    report = differential_agreement_on_image(m1, m2)
    assert report.ok
    assert any(f.message == "agree on image, differ globally"
               for f in report.findings)


def test_difference_inside_the_image_is_an_error():
    t = padded_point_triad()
    m1 = identity_morphism(t)
    m2 = _endo_with_module_matrix(t, Matrix.from_rows(
        [[2, 0, 0], [0, 1, 0], [0, 0, 1]], cols=3))
    report = differential_agreement_on_image(m1, m2)
    assert not report.ok
    assert any("disagree on the operator image" in f.message
               for f in report.errors())
    # no "agree on image" note beside a disagreement on the image, and each
    # witness's defect is the difference of the components on its section
    assert report.errors() == list(report.findings)
    for f in report.findings:
        v, section = f.witness["open"], [Fraction(c) for c in f.witness["section"]]
        lhs = m1.module_components[v].apply(section)
        rhs = m2.module_components[v].apply(section)
        defect = [Fraction(c) for c in f.witness["defect"]]
        assert defect == [p - q for p, q in zip(lhs, rhs, strict=True)]
        assert any(defect)


def test_agreement_requires_equal_algebra_components():
    t = kaehler_point_triad(truncated_poly_algebra(3))
    report = differential_agreement_on_image(order_three_endomorphism(1, 0),
                                             order_three_endomorphism(2, 0))
    assert not report.ok
    assert any("algebra components differ" in f.message for f in report.errors())


# ---------------------------------------------------------------------------
# algebra components are pinned by module components


def test_endomorphism_grid_never_shares_a_module_component():
    # over Q[x]/(x^3) the operator image is the whole module, so the module
    # component remembers both parameters of the algebra component
    grid = {}
    for a, b in itertools.product(range(-2, 3), repeat=2):
        m = order_three_endomorphism(a, b)
        assert check_morphism(m).ok
        key = tuple(tuple(row) for row in m.module_components[1].entries)
        grid.setdefault(key, []).append(m.algebra_components[1])
    assert len(grid) == 25
    for mats in grid.values():
        assert len(mats) == 1


def test_uniqueness_report_passes_on_equal_module_components():
    t = kaehler_point_triad(truncated_poly_algebra(3))
    assert constants_only_kernel(t)
    for a, b in [(1, 0), (2, -1), (0, 3)]:
        m = order_three_endomorphism(a, b)
        report = algebra_component_uniqueness(m, m)
        assert report.ok and report.status == "pass"


def test_uniqueness_detects_a_constant_shift():
    # doctor one algebra component by a constant: the executable argument
    # walks difference -> killed by operator -> constant -> nonzero
    m1 = order_three_endomorphism(1, 0)
    shifted = Matrix.from_columns(
        [vec([1, 0, 0]), vec([1, 1, 0]), vec([0, 0, 1])], rows=3)
    alg = list(m1.algebra_components)
    alg[1] = shifted
    m2 = TriadMorphism(m1.map, m1.source, m1.target, tuple(alg),
                       m1.module_components)
    assert not check_morphism(m2).ok  # the shift is not multiplicative
    report = algebra_component_uniqueness(m1, m2)
    assert not report.ok
    assert any("nonzero constant" in f.message for f in report.errors())


def test_uniqueness_requires_equal_module_components():
    m1, m2 = order_three_endomorphism(1, 0), order_three_endomorphism(2, 0)
    assert m1.module_components != m2.module_components
    report = algebra_component_uniqueness(m1, m2)
    assert [(f.severity, f.location, f.message) for f in report.findings] == [
        ("error", "preconditions", "module components differ")]


def test_uniqueness_reports_a_difference_the_operator_does_not_kill():
    # x -> x + x^2 on the algebra layer, riding the module components of the
    # identity: not a morphism, and the difference x^2 has d(x^2) = 2x dx
    m1 = order_three_endomorphism(1, 0)
    doctored = order_three_endomorphism(1, 1)
    m2 = replace(doctored, module_components=m1.module_components)
    assert not check_morphism(m2).ok
    report = algebra_component_uniqueness(m1, m2)
    full = POINT.open_index(frozenset({0}))
    assert [(f.location, f.message, f.witness) for f in report.errors()] == [
        (f"open {full}, basis 1",
         "difference of algebra components is not killed by the operator "
         "(an input was not a morphism)",
         {"open": full, "basis": 1, "difference": ["0", "0", "-1"]})]


def test_uniqueness_hypothesis_not_met_is_exploratory():
    t = function_triad(discrete_space(2))  # zero operator: kernel is everything
    m = identity_morphism(t)
    report = algebra_component_uniqueness(m, m)
    assert report.status == "exploratory"
    assert any("hypothesis not met" in f.message for f in report.findings)


MAPS_DIFFER = ("error", "frame", "underlying maps differ")
TRIADS_DIFFER = ("error", "frame", "morphisms connect different triads")


def frame_mismatches():
    """Pairs of morphisms of different frames, and the findings they give."""
    x = discrete_space(2)
    swap, ident = (pullback_morphism(ContinuousMap(x, x, values))
                   for values in ((1, 0), (0, 1)))
    kaehler_ident = identity_morphism(kaehler_presheaf(constant_presheaf(
        x, truncated_poly_algebra(2))).presheaf_triad)
    bigger = identity_morphism(function_triad(discrete_space(3)))
    return [(swap, ident, [MAPS_DIFFER]), (ident, kaehler_ident, [TRIADS_DIFFER]),
            (ident, bigger, [MAPS_DIFFER, TRIADS_DIFFER])]


@pytest.mark.parametrize("check", [algebra_component_uniqueness,
                                   differential_agreement_on_image])
def test_uniqueness_refuses_morphisms_of_different_frames(check):
    for m1, m2, expected in frame_mismatches():
        report = check(m1, m2)
        assert [(f.severity, f.location, f.message)
                for f in report.findings] == expected
        assert report.status == "fail"


def test_two_characters_in_the_target_defeat_uniqueness():
    # an abstract Q^2 over one point admits two evaluation-like maps into the
    # source; both ride the identity with zero module components, so the
    # module layer cannot tell them apart and the report says so
    source = kaehler_point_triad(truncated_poly_algebra(3))
    assert constants_only_kernel(source)
    target = constant_triad(POINT, function_algebra(2), zero_module_sections(2),
                            Matrix.zeros(0, 2))
    f = ContinuousMap(POINT, POINT, (0,))
    morphisms = []
    for picked in (0, 1):
        # indicator at the picked coordinate becomes the unit, the other dies
        fa = Matrix.from_columns(
            [vec([1, 0, 0]) if j == picked else vec([0, 0, 0])
             for j in range(2)], rows=3)
        alg, mod = [], []
        for v, vset in enumerate(POINT.opens):
            if vset:
                alg.append(fa)
                mod.append(Matrix.zeros(2, 0))
            else:
                alg.append(Matrix.zeros(0, 0))
                mod.append(Matrix.zeros(0, 0))
        morphisms.append(TriadMorphism(f, source, target, tuple(alg), tuple(mod)))
    m1, m2 = morphisms
    assert check_morphism(m1).ok and check_morphism(m2).ok
    assert m1.module_components == m2.module_components
    assert m1.algebra_components != m2.algebra_components
    report = algebra_component_uniqueness(m1, m2)
    assert not report.ok
    assert any("nonzero constant" in f.message for f in report.errors())


# ---------------------------------------------------------------------------
# recovering the point map


def test_pullback_family_is_the_only_family_small_discrete():
    for nx in (1, 2, 3):
        for ny in (1, 2, 3):
            x, y = discrete_space(nx), discrete_space(ny)
            for values in all_maps(x, y):
                f = ContinuousMap(x, y, values)
                fams = families_over(f)
                assert len(fams) == 1
                pm = pullback_morphism(f)
                assert fams[0].components == pm.algebra_components
                assert verify_pullback_forced(f, fams[0].components).status == "pass"


def test_recovery_rejects_the_wrong_pullback():
    x = y = discrete_space(2)
    f = ContinuousMap(x, y, (1, 0))
    g = ContinuousMap(x, y, (0, 1))
    report = verify_pullback_forced(f, pullback_morphism(g).algebra_components)
    assert not report.ok


def test_recovery_on_non_discrete_spaces_is_exploratory():
    s = sierpinski_space()
    f = ContinuousMap(s, s, (0, 1))
    fams = families_over(f)
    report = verify_pullback_forced(f, fams[0].components)
    assert report.exploratory
    assert report.status in ("exploratory", "fail")


@pytest.mark.parametrize("points,opens,witness", [
    (2, [[0], [1], [0, 1]], "not a topology: opens: empty set missing"),
    (3, [[], [0], [1], [2], [0, 1], [0, 2], [0, 1, 2]],
     "not a topology: opens[2]|opens[3]: union of opens is not open"),
    (2, [[], [0], [1]], "not a topology: opens: full point set missing"),
], ids=["no_empty_set", "no_union", "no_full_set"])
def test_recovery_refuses_a_non_topology(points, opens, witness):
    # every point is open, so each space passes for discrete
    bad = space_from_opens(points, opens)
    assert bad.is_discrete
    f = ContinuousMap(bad, bad, tuple(range(points)))
    with pytest.raises(InvalidTopologyError) as exc:
        verify_pullback_forced(f, pullback_morphism(f).algebra_components)
    assert str(exc.value) == witness


# ---------------------------------------------------------------------------
# fullness counts


@pytest.mark.parametrize("nx,ny,count", [
    (1, 2, 2), (2, 2, 4), (2, 3, 9), (3, 2, 8), (2, 1, 1), (1, 1, 1),
])
def test_fullness_counts_match_point_maps(nx, ny, count):
    result = fullness_check(discrete_space(nx), discrete_space(ny))
    assert isinstance(result, FullnessResult)
    assert result.report.ok and result.report.status == "pass"
    assert result.total == count
    assert all(n == 1 for _, n in result.per_map)


def test_fullness_bound_guard():
    with pytest.raises(BoundExceeded):
        fullness_check(discrete_space(3), discrete_space(3), bound=26)
    assert fullness_check(discrete_space(3), discrete_space(3)).total == 27


def test_fullness_over_sierpinski_is_exploratory_and_inflated():
    # off the discrete world extra component families appear; frozen counts
    # document the phenomenon rather than assert a theorem
    s = sierpinski_space()
    result = fullness_check(s, s)
    assert result.report.status == "exploratory"
    assert result.total == 7
    assert dict((tuple(v), n) for v, n in result.per_map) == {
        (0, 0): 1, (0, 1): 2, (1, 1): 4}


@pytest.mark.parametrize("x,y,total", [
    (indiscrete_space(3), indiscrete_space(3), 729),
    (discrete_space(3), indiscrete_space(4), 4096),
    (sierpinski_space(), indiscrete_space(4), 256),
], ids=["indiscrete3-indiscrete3", "discrete3-indiscrete4",
        "sierpinski-indiscrete4"])
def test_fullness_counts_beyond_the_search(x, y, total):
    # too many families for the search oracle: prod_x |U_{f(x)}| summed over
    # the continuous maps (every map is continuous into an indiscrete space)
    assert fullness_check(x, y).total == total


@pytest.mark.parametrize("points,opens,witness", [
    (3, [[], [0, 1], [1, 2], [0, 1, 2]],
     "not a topology: opens[1]&opens[2]: intersection of opens is not open"),
    (2, [[], [0], [1]], "not a topology: opens: full point set missing"),
], ids=["no_intersection", "no_full_set"])
def test_fullness_refuses_a_non_topology(points, opens, witness):
    bad = space_from_opens(points, opens)
    # refused on either side, before the bound is looked at
    for x, y in ((bad, bad), (bad, POINT), (POINT, bad)):
        with pytest.raises(InvalidTopologyError) as exc:
            fullness_check(x, y, bound=1)
        assert str(exc.value) == witness


def test_fullness_builds_each_function_presheaf_once(monkeypatch):
    import triadica.dtcat as dtcat_module
    builds = []

    def counting(space):
        builds.append(space)
        return function_presheaf(space)

    monkeypatch.setattr(dtcat_module, "function_presheaf", counting)
    x, y = discrete_space(2), discrete_space(3)
    assert fullness_check(x, y).total == 9
    # one presheaf per space, not one pair per continuous map
    assert builds == [x, y]


def test_fullness_checks_each_algebra_map_once(monkeypatch):
    import triadica.sheaf as sheaf_module
    checked = []

    def counting(h):
        checked.append((h.source, h.target, h.matrix))
        return validate_algebra_morphism(h)

    monkeypatch.setattr(sheaf_module, "validate_algebra_morphism", counting)
    x = y = discrete_space(3)
    assert fullness_check(x, y).report.ok
    functions_x, functions_y = function_presheaf(x), function_presheaf(y)
    per_open = []  # (source section, target section, component) of every family
    for values in all_maps(x, y):
        f = ContinuousMap(x, y, values)
        for v, c in enumerate(pullback_morphism(f).algebra_components):
            per_open.append((functions_y.sections[v],
                             functions_x.sections[f.preimages[v]], c))
    assert len(per_open) == 216
    # once per distinct (source, target, component) over the whole call
    assert sorted(map(repr, checked)) == sorted(map(repr, set(per_open)))
    assert len(checked) == 47


# ---------------------------------------------------------------------------
# one memo across pullback checks, against fresh ones


def corrupt_one_entry(components, rng):
    """`components` with one seeded entry of one nonempty component changed."""
    comps = list(components)
    v = rng.choice([v for v, c in enumerate(comps) if c.rows and c.cols])
    rows = [list(row) for row in comps[v].entries]
    r, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[r][j] += rng.choice([1, -1, 2, Fraction(1, 2)])
    comps[v] = Matrix.from_rows(rows, cols=comps[v].cols)
    return tuple(comps)


def self_map_families(seed):
    """(f, family) for every continuous self-map f of every topology with at
    most 3 points: the pullback family, then two seeded corruptions of it."""
    rng = random.Random(seed)
    out = []
    for space in (sp for n in range(1, 4) for sp in all_topologies(n)):
        functions = function_presheaf(space)
        for values in all_maps(space, space):
            if is_continuous(values, space, space):
                f = ContinuousMap(space, space, values)
                image = pushforward(f, functions)
                pulled = pullback_morphism(f).algebra_components
                out += [(f, PresheafMorphism(functions, image, comps)) for comps in
                        (pulled, corrupt_one_entry(pulled, rng), corrupt_one_entry(pulled, rng))]
    return out


def test_pullback_reports_with_a_shared_memo_match_fresh_ones():
    families = self_map_families(1606)
    shared = Interner()
    failed = 0
    for f, h in families:
        report = _pullback_report(f, h, Interner())
        oracle = relocated("morphism: ", validate_presheaf_morphism(h).findings)
        assert [x for x in report.findings if x.location.startswith("morphism: ")] == oracle
        # one memo across every family, clean and corrupted, as in fullness_check
        assert _pullback_report(f, h, shared) == report
        failed += any(x.location.startswith("morphism: square") for x in oracle)
    assert (len(families), failed) == (1170, 607)


def test_fullness_reports_with_one_memo_match_fresh_memos(monkeypatch):
    """fullness_check hands every family's check one interner; each report
    equals the one a fresh interner gives, also when some families are
    corrupted and share squares with earlier clean ones."""
    import triadica.dtcat as dtcat_module
    rng = random.Random(1607)
    point_map_components, pullback_report = (dtcat_module._point_map_components,
                                             dtcat_module._pullback_report)
    corrupted, reports = set(), []

    def corrupting(f, g):
        components = point_map_components(f, g)
        if rng.random() < 0.5:
            corrupted.add(f.values)
            components = corrupt_one_entry(components, rng)
        return components

    def recording(f, h, interner):
        reports.append((f, h, interner, pullback_report(f, h, interner)))
        return reports[-1][3]

    monkeypatch.setattr(dtcat_module, "_point_map_components", corrupting)
    monkeypatch.setattr(dtcat_module, "_pullback_report", recording)
    result = fullness_check(discrete_space(3), discrete_space(3))
    assert len(reports) == 27 and len({id(i) for _, _, i, _ in reports}) == 1
    assert 0 < len(corrupted) < 27
    assert {f.values for f, _, _, report in reports if not report.ok} == corrupted
    assert {tuple(x.witness) for x in result.report.errors()} == corrupted
    for f, h, _, report in reports:
        assert report == pullback_report(f, h, Interner())


# ---------------------------------------------------------------------------
# the closed form against the search


def _minimal_open(space, y):
    return sorted(frozenset.intersection(*(u for u in space.opens if y in u)))


def test_families_match_the_search_on_small_topologies():
    maps = 0
    for nx, ny in itertools.product((1, 2, 3), repeat=2):
        if nx == ny == 3:
            continue
        for x, y in itertools.product(all_topologies(nx), all_topologies(ny)):
            top = y.open_index(y.full_set)
            counted = []
            for values in all_maps(x, y):
                if not is_continuous(values, x, y):
                    continue
                f = ContinuousMap(x, y, values)
                got = families_over(f)
                counted.append((values, len(got)))
                expected = presheaf_morphisms_by_search(f)
                assert Counter(h.components for h in got) == \
                    Counter(h.components for h in expected), values
                choices = [_minimal_open(y, v) for v in values]
                assert len(got) == math.prod(len(c) for c in choices)
                # the row of x over the whole codomain names g(x); the
                # families come in lexicographic order of g
                recovered = [tuple(row.index(1) for row in h.components[top].entries)
                             for h in got]
                assert recovered == list(itertools.product(*choices))
                maps += 1
            # fullness_check's closed-form count, map by map and in order
            assert list(fullness_check(x, y).per_map) == counted
    assert maps == 1443


def test_fullness_counts_without_building_a_family(monkeypatch):
    """Into an indiscrete codomain every set map is continuous and carries
    |Y|^|X| families; the count is read off the closed form, so no family
    and no function presheaf is built, and each candidate's preimages are
    computed once."""
    import triadica.dtcat as dtcat_module
    import triadica.finspace as finspace_module
    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, call)

    for name in ("PresheafMorphism", "pushforward", "function_presheaf"):
        counting(dtcat_module, name)
    counting(finspace_module, "_preimage_indices")
    result = fullness_check(discrete_space(5), indiscrete_space(4), bound=1024)
    assert result.total == 1024 ** 2 == 1_048_576
    assert len(result.per_map) == 1024
    assert calls == {"_preimage_indices": 1024}


# the module-component check against the pairwise oracle

LINEARITY = "module component is not linear over the algebra component"


def _nudge_component(components, rng):
    """components with one entry of one nonempty matrix moved."""
    v = rng.choice([v for v, c in enumerate(components) if c.rows and c.cols])
    rows = [list(row) for row in components[v].entries]
    r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[r][c] += rng.choice([Fraction(1), Fraction(-2), Fraction(1, 3)])
    return components[:v] + (Matrix.from_rows(rows, cols=len(rows[0])),) + components[v + 1:]


def _free_rank_one_parts():
    a = truncated_poly_algebra(2)
    return a, free_module_sections(a, 1), Matrix.zeros(2, 2)


def _kaehler_parts():
    k = kaehler_module(truncated_poly_algebra(3))
    return k.algebra, k.module, k.differential


@pytest.mark.parametrize("parts", [_free_rank_one_parts, _kaehler_parts],
                         ids=["free rank one", "kaehler truncated_poly 3"])
def test_module_linearity_matches_the_pairwise_oracle(parts):
    rng = random.Random(f"module linearity {parts.__name__}")
    failing = Counter()
    for space in [sp for n in (1, 2, 3) for sp in all_topologies(n)]:
        m = identity_morphism(constant_triad(space, *parts()))
        cases = {
            "valid": m,
            "module": replace(m, module_components=_nudge_component(
                m.module_components, rng)),
            "algebra": replace(m, algebra_components=_nudge_component(
                m.algebra_components, rng)),
        }
        for kind, case in cases.items():
            expected = [replace(f, location=f"module_components: {f.location}")
                        for f in module_linearity_by_pairs(case)]
            module_part = [f for f in check_morphism(case).findings
                           if f.location.startswith("module_components: ")]
            split = len(module_part) - len(expected)
            assert module_part[split:] == expected, (space.opens, kind)
            assert LINEARITY not in [f.message for f in module_part[:split]]
            failing[kind] += bool(expected)
    assert failing["valid"] == 0
    assert failing["module"] >= 20 and failing["algebra"] >= 20, failing


def test_each_distinct_semilinearity_check_runs_once(monkeypatch):
    # the constant Kaehler triad over discrete(3) has 8 opens but only two
    # distinct (components, modules) inputs: the empty open's and the rest's
    seen = []

    def counted(*inputs):
        seen.append(inputs)
        return semilinearity_defects(*inputs)

    monkeypatch.setattr("triadica.dtcat.semilinearity_defects", counted)
    m = identity_morphism(constant_triad(discrete_space(3), *_kaehler_parts()))
    assert check_morphism(m).ok
    assert len(seen) == 2 and seen[0] != seen[1]
