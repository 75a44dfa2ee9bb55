"""Presheaf validation, sheaf condition, sheafification, pushforward."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triadica.algebra import (Algebra, AlgebraMorphism, function_algebra,
                              truncated_poly_algebra)
from triadica.errors import DimensionMismatchError
from triadica.exactla import ONE, ZERO, Matrix, kernel, solve, unit_vector, vec
from triadica.finspace import (ContinuousMap, InvalidTopologyError, all_maps,
                               constant_map, discrete_space, indiscrete_space,
                               minimal_open, preimage_open, sierpinski_space,
                               space_from_opens)
from triadica.sheaf import (InvalidPresheafError, ModuleSections, Presheaf,
                            PresheafMorphism, check_sheaf_condition,
                            constant_presheaf, fill_restrictions,
                            function_presheaf, function_restriction_matrix,
                            irredundant_covers, make_presheaf, pushforward,
                            pushforward_module, sheafify, sheafify_module, stalk,
                            validate_algebra_presheaf, validate_module_presheaf,
                            validate_module_sections, validate_presheaf_morphism,
                            zero_module_presheaf, zero_module_sections)
from triadica.kaehler import kaehler_module
from triadica.record import Interner
from triadica.triad import DifferentialTriad, constant_triad, validate_triad
from sheaf_oracle import (check_sheaf_by_covers, validate_algebra_presheaf_by_pairs,
                          validate_module_presheaf_by_pairs, validate_triad_by_opens)
from support import free_module_sections, matrix_sum, replace, scaled


def chain_space():
    # nested opens: {} < {0} < {0,1} < {0,1,2}
    return space_from_opens(3, [(), (0,), (0, 1), (0, 1, 2)])


FIXTURE_SPACES = [
    sierpinski_space(),
    discrete_space(2),
    discrete_space(3),
    indiscrete_space(2),
    chain_space(),
]


def irredundant_covers_oracle(space, u):
    """A cover is irredundant when dropping any member stops it covering."""
    from itertools import combinations
    target = space.opens[u]
    if not target:
        return [()]
    members = [i for i, w in enumerate(space.opens) if w and w < target]
    found = []
    for r in range(1, len(members) + 1):
        for combo in combinations(members, r):
            if frozenset().union(*[space.opens[i] for i in combo]) != target:
                continue
            still_covers_without = False
            for drop in combo:
                rest = [space.opens[i] for i in combo if i != drop]
                if rest and frozenset().union(*rest) == target:
                    still_covers_without = True
                    break
            if not still_covers_without:
                found.append(combo)
    return sorted(found)


# ---------------------------------------------------------------------------
# module sections


def test_free_module_sections_action_is_multiplication():
    a = truncated_poly_algebra(3)
    m = free_module_sections(a, 1)
    assert m.dim == 3
    assert validate_module_sections(a, m).ok
    x = vec([0, 1, 0])
    assert m.act(x, x) == vec([0, 0, 1])
    assert m.act(x, vec([0, 0, 1])) == vec([0, 0, 0])


def test_free_module_rank_two_blocks():
    a = function_algebra(2)
    m = free_module_sections(a, 2)
    assert m.dim == 4
    assert validate_module_sections(a, m).ok
    # acting on the second block leaves the first untouched
    assert m.act(vec([1, 0]), vec([0, 0, 1, 1])) == vec([0, 0, 1, 0])


def test_broken_action_is_reported():
    a = function_algebra(1)
    bad = ModuleSections(1, 1, ((vec([0]),),))  # unit acts as zero
    report = validate_module_sections(a, bad)
    assert not report.ok
    assert any("unit" in f.message for f in report.errors())


def test_zero_module_sections_shape():
    m = zero_module_sections(3)
    assert m.dim == 0 and m.algebra_dim == 3
    assert m.act(vec([1, 2, 3]), ()) == ()


def test_zero_algebra_acts_on_a_nonzero_module_by_a_square_zero_matrix():
    m = ModuleSections(0, 3, ())
    assert m.act_matrix(()) == Matrix.zeros(3, 3)
    assert m.act((), vec([1, 2, 3])) == vec([0, 0, 0])


def test_free_module_sections_act_block_by_block():
    rng = random.Random("free module blocks")
    values = [ZERO] * 4 + [ONE, Fraction(-2), Fraction(1, 3)]
    for n, rank in [(0, 2), (1, 3), (2, 0), (2, 2), (3, 1), (3, 3)]:
        # any structure tensor will do: the blocks only repeat a.multiply
        a = Algebra(n, tuple(tuple(tuple(rng.choice(values) for _ in range(n))
                                   for _ in range(n)) for _ in range(n)),
                    tuple(rng.choice(values) for _ in range(n)))
        m = free_module_sections(a, rank)
        assert (m.algebra_dim, m.dim) == (n, n * rank)
        for _ in range(10):
            x = tuple(rng.choice(values) for _ in range(n))
            w = tuple(rng.choice(values) for _ in range(n * rank))
            got = m.act(x, w)
            for b in range(rank):
                block = slice(b * n, (b + 1) * n)
                assert got[block] == a.multiply(x, w[block])
        for i in range(n):
            assert m.act_matrix(unit_vector(n, i)) == Matrix(
                n * rank, n * rank, tuple(
                    tuple(a.struct[i][q][p] if b == c else ZERO
                          for c in range(rank) for q in range(n))
                    for b in range(rank) for p in range(n)))


# ---------------------------------------------------------------------------
# presheaf validation


@pytest.mark.parametrize("space", FIXTURE_SPACES)
def test_function_presheaf_validates(space):
    assert validate_algebra_presheaf(function_presheaf(space)).ok


@pytest.mark.parametrize("space", FIXTURE_SPACES)
def test_constant_presheaf_validates(space):
    assert validate_algebra_presheaf(constant_presheaf(space, function_algebra(2))).ok


def test_nonzero_sections_over_empty_open_flagged():
    s = sierpinski_space()
    q = function_algebra(1)
    table = {(u, v): Matrix.identity(1) for u, v in s.inclusion_pairs()}
    p = Presheaf(s, (q, q, q), table)
    report = validate_algebra_presheaf(p)
    assert any("empty" in f.message for f in report.errors())


def test_non_unital_restriction_flagged():
    s = sierpinski_space()
    q = function_algebra(1)
    double = Matrix.from_rows([[Fraction(2)]], cols=1)
    p = make_presheaf(
        s, (function_algebra(0), q, q),
        {(1, 1): Matrix.identity(1), (2, 2): Matrix.identity(1), (2, 1): double})
    report = validate_algebra_presheaf(p)
    assert not report.ok
    assert any("restriction 2->1" in f.location for f in report.errors())


def test_module_restriction_functoriality_flagged():
    sp = chain_space()
    base = constant_presheaf(sp, function_algebra(1))
    sections = tuple(zero_module_sections(0) if not sp.opens[u]
                     else free_module_sections(function_algebra(1), 1)
                     for u in range(len(sp.opens)))
    scale = lambda c: Matrix.from_rows([[Fraction(c)]], cols=1)
    table = {(3, 2): scale(2), (2, 1): scale(3), (3, 1): scale(5)}
    for u in range(len(sp.opens)):
        table[(u, u)] = Matrix.identity(sections[u].dim)
        table[(u, 0)] = Matrix.zeros(0, sections[u].dim)
    m = Presheaf(sp, sections, table, base)
    report = validate_module_presheaf(m)
    assert not report.ok
    assert any("functorially" in f.message for f in report.errors())


def test_missing_restriction_rejected():
    s = sierpinski_space()
    q = function_algebra(1)
    with pytest.raises(DimensionMismatchError):
        fill_restrictions(s, [0, 1, 1], {(1, 1): Matrix.identity(1),
                                         (2, 2): Matrix.identity(1)})


def test_module_layer_must_live_on_its_base_space():
    base = function_presheaf(discrete_space(2))
    modules = zero_module_presheaf(base)
    with pytest.raises(DimensionMismatchError, match="base's space"):
        Presheaf(sierpinski_space(), modules.sections[:3], {}, base)


def test_function_restriction_matrix_selects_sorted_coordinates():
    m = function_restriction_matrix({0, 1, 2}, {0, 2})
    assert m.apply(vec([5, 7, 9])) == vec([5, 9])


# ---------------------------------------------------------------------------
# stalks


def test_sierpinski_function_stalks():
    fp = function_presheaf(sierpinski_space())
    assert stalk(fp, 0).sections.dim == 1
    assert stalk(fp, 1).sections.dim == 2


def test_stalk_germ_maps_are_restrictions():
    fp = function_presheaf(discrete_space(3))
    st_ = stalk(fp, 1)
    for v, germ in st_.germ_maps.items():
        assert germ == fp.restriction(v, st_.open_index)


# ---------------------------------------------------------------------------
# irredundant covers


def test_irredundant_cover_counts_discrete_three():
    sp = discrete_space(3)
    full = sp.open_index(frozenset({0, 1, 2}))
    assert len(irredundant_covers(sp, full)) == 7
    for pts in [(0, 1), (0, 2), (1, 2)]:
        assert len(irredundant_covers(sp, sp.open_index(frozenset(pts)))) == 1
    assert irredundant_covers(sp, sp.open_index(frozenset())) == [()]
    assert irredundant_covers(sp, sp.open_index(frozenset({0}))) == []


@pytest.mark.parametrize("space", FIXTURE_SPACES)
def test_irredundant_covers_match_oracle(space):
    for u in range(len(space.opens)):
        assert irredundant_covers(space, u) == irredundant_covers_oracle(space, u)


# ---------------------------------------------------------------------------
# sheaf condition


@pytest.mark.parametrize("space", FIXTURE_SPACES)
def test_function_presheaf_is_a_sheaf(space):
    cert = check_sheaf_condition(function_presheaf(space))
    assert cert.is_sheaf
    assert cert.witnesses == ()


def test_constant_presheaf_fails_gluing_on_discrete_space():
    sp = discrete_space(2)
    cert = check_sheaf_condition(constant_presheaf(sp, function_algebra(1)))
    assert not cert.is_sheaf
    (w,) = cert.witnesses
    assert w.open_index == sp.open_index(frozenset({0, 1}))
    assert w.cover == (1, 2)
    assert w.kind == "gluing_fails"
    # stray compatible family: value 1 on one patch, 0 on the other
    assert w.section == [["1"], ["0"]]


def test_constant_presheaf_is_a_sheaf_on_chain():
    # nested opens admit no nontrivial covers, so constants glue
    assert check_sheaf_condition(constant_presheaf(chain_space(),
                                                   function_algebra(1))).is_sheaf


def test_injectivity_failure_detected():
    sp = discrete_space(2)
    proj = Matrix.from_rows([[ONE, ZERO]], cols=2)
    p = make_presheaf(
        sp,
        (function_algebra(0), function_algebra(1), function_algebra(1),
         function_algebra(2)),
        {(1, 1): Matrix.identity(1), (2, 2): Matrix.identity(1),
         (3, 3): Matrix.identity(2), (3, 1): proj, (3, 2): proj})
    assert validate_algebra_presheaf(p).ok
    cert = check_sheaf_condition(p)
    assert not cert.is_sheaf
    (w,) = cert.witnesses
    assert w.kind == "not_injective"
    assert w.section == ["0", "1"]


def test_nonzero_empty_sections_fail_empty_cover():
    s = sierpinski_space()
    q = function_algebra(1)
    table = {(u, v): Matrix.identity(1) for u, v in s.inclusion_pairs()}
    p = Presheaf(s, (q, q, q), table)
    cert = check_sheaf_condition(p)
    assert not cert.is_sheaf
    assert any(w.open_index == 0 and w.cover == () and w.kind == "not_injective"
               for w in cert.witnesses)


def all_topologies(n):
    """Every topology on n points, as FiniteSpaces (29 of them on 3 points)."""
    subsets = [frozenset(c) for r in range(n + 1)
               for c in combinations(range(n), r)]
    full, empty = frozenset(range(n)), frozenset()
    middle = [x for x in subsets if x not in (empty, full)]
    found = []
    for r in range(len(middle) + 1):
        for extra in combinations(middle, r):
            opens = {empty, full, *extra}
            if all(a | b in opens and a & b in opens
                   for a in opens for b in opens):
                found.append(space_from_opens(
                    n, sorted((tuple(sorted(o)) for o in opens), key=lambda o: (len(o), o))))
    return found


def zeroed_top_presheaf(space):
    """Q over every nonempty open, identities except that every restriction
    out of the whole space is zero.  The restrictions still compose, and the
    whole space fails injectivity unless it is some point's minimal open."""
    top = space.open_index(frozenset(range(space.point_count)))
    q = function_algebra(1)
    sections = tuple(q if o else function_algebra(0) for o in space.opens)
    table = {(u, v): (Matrix.identity(1) if u == v or u != top else Matrix.zeros(1, 1))
             if space.opens[v] else Matrix.zeros(0, sections[u].dim)
             for u, v in space.inclusion_pairs()}
    return Presheaf(space, sections, table)


ORACLE_SPACES = [sp for n in range(4) for sp in all_topologies(n)] + [discrete_space(4)]
ORACLE_PRESHEAVES = {
    "function": function_presheaf,
    "constant Q": lambda sp: constant_presheaf(sp, function_algebra(1)),
    "constant truncated_poly 2": lambda sp: constant_presheaf(sp, truncated_poly_algebra(2)),
    "zeroed top": zeroed_top_presheaf,
}


def natural_map(p, u):
    """F(U) -> prod over sorted x in U of F(U_x), by stacked restrictions."""
    space = p.space
    stalks = [minimal_open(space, x) for x in sorted(space.opens[u])]
    rows = [row for s in stalks for row in p.restriction(u, s).entries]
    return Matrix(len(rows), p.section_dim(u), tuple(rows)), stalks


def assert_witness_is_genuine(p, w):
    space = p.space
    natural, stalks = natural_map(p, w.open_index)
    assert w.cover == tuple(sorted(set(stalks)))
    if w.kind == "not_injective":
        v = vec(w.section)
        assert any(v) and not any(natural.apply(v))
        return
    assert w.kind == "gluing_fails"
    family = [vec(chunk) for chunk in w.section]
    assert [len(c) for c in family] == [p.section_dim(s) for s in stalks]
    for sx, cx in zip(stalks, family):
        for sy, cy in zip(stalks, family):
            if space.opens[sy] <= space.opens[sx]:
                assert p.restriction(sx, sy).apply(cx) == cy
    flat = tuple(x for c in family for x in c)
    assert not solve(natural, flat).consistent


def test_every_topology_on_three_points_is_enumerated():
    assert [len(all_topologies(n)) for n in range(4)] == [1, 1, 4, 29]


# ---------------------------------------------------------------------------
# one interner shared by several checks


def test_a_shared_interner_gives_the_reports_of_fresh_ones():
    """Identity components between presheaves that differ in one sections
    algebra or in one set of restrictions: a memo key that left out a
    corner of a square, or the source or target of an algebra map, would
    carry an earlier verdict over to a later morphism."""
    space = discrete_space(2)
    presheaves = [constant_presheaf(space, function_algebra(2)),
                  constant_presheaf(space, truncated_poly_algebra(2)),
                  constant_presheaf(space, function_algebra(1)),
                  zeroed_top_presheaf(space)]
    shared = Interner()
    verdicts = []
    for source, target in [(a, b) for a in presheaves for b in presheaves]:
        if [s.dim for s in source.sections] != [t.dim for t in target.sections]:
            continue
        h = PresheafMorphism(source, target, tuple(
            Matrix.identity(s.dim) for s in source.sections))
        report = validate_presheaf_morphism(h, shared)
        assert report == validate_presheaf_morphism(h)
        verdicts.append(report.ok)
    assert verdicts == [True, False, False, True, True, False, False, True]


def test_a_shared_interner_gives_the_module_presheaf_reports_of_fresh_ones():
    """Identity restrictions of modules over Q x Q on the Sierpinski space,
    with the action on {0} or on the whole space, or the base's restriction
    between them, twisted by the swap of the two factors: a module-map memo
    key that left out the source or target sections or the base restriction
    would pass a twisted presheaf on the verdict of the untwisted one."""
    space = sierpinski_space()
    base = constant_presheaf(space, function_algebra(2))
    swapped_base = replace(base, restrictions={
        **base.restrictions, (2, 1): Matrix.from_rows([[0, 1], [1, 0]])})
    plain = free_module_sections(function_algebra(2), 1)
    twisted = ModuleSections(2, 2, (plain.action[1], plain.action[0]))
    untwisted = constant_presheaf(space, plain, base)
    empty = untwisted.sections[0]
    shared = Interner()
    verdicts = []
    for m in [untwisted, replace(untwisted, sections=(empty, twisted, plain)),
              replace(untwisted, sections=(empty, plain, twisted)),
              replace(untwisted, base=swapped_base)]:
        report = validate_module_presheaf(m, shared)
        assert report == validate_module_presheaf(m)
        verdicts.append(report.ok)
    assert validate_algebra_presheaf(swapped_base).ok
    assert verdicts == [True, False, False, False]


@pytest.mark.parametrize("name", sorted(ORACLE_PRESHEAVES))
def test_stalk_family_check_matches_cover_oracle(name):
    for space in ORACLE_SPACES:
        p = ORACLE_PRESHEAVES[name](space)
        cert = check_sheaf_condition(p)
        assert cert.is_sheaf == check_sheaf_by_covers(p).is_sheaf, space.opens
        assert len({w.open_index for w in cert.witnesses}) == len(cert.witnesses)
        for w in cert.witnesses:
            assert_witness_is_genuine(p, w)


def test_function_presheaf_on_discrete_five_is_a_sheaf():
    assert check_sheaf_condition(function_presheaf(discrete_space(5))).is_sheaf


def test_constant_presheaf_on_discrete_five_fails_once_per_open():
    sp = discrete_space(5)
    p = constant_presheaf(sp, truncated_poly_algebra(3))
    cert = check_sheaf_condition(p)
    failing = sorted(w.open_index for w in cert.witnesses)
    assert failing == [u for u, o in enumerate(sp.opens) if len(o) > 1]
    assert len(failing) == 26
    for w in cert.witnesses:
        assert w.kind == "gluing_fails"
        assert_witness_is_genuine(p, w)


def test_restrictions_that_do_not_compose_are_witnessed():
    # U = {0,1,2} over U_0 = {0}, U_1 = {0,1}, U_2 = {0,2}: the section (0,1)
    # of F(U) restricts to 0 on {0} but to 1 on {0,2}, whose restriction to
    # {0} is 1, so its stalk family is not compatible, while every compatible
    # family is hit; the cover oracle cannot even name a witness here
    sp = space_from_opens(3, [(), (0,), (0, 1), (0, 2), (0, 1, 2)])
    q = function_algebra(1)
    row = lambda *xs: Matrix.from_rows([xs], cols=len(xs))
    top, zero, a, b = (sp.open_index(frozenset(o))
                       for o in [(0, 1, 2), (0,), (0, 1), (0, 2)])
    p = make_presheaf(
        sp, [function_algebra(0), q, q, q, function_algebra(2)],
        {(zero, zero): Matrix.identity(1), (a, a): Matrix.identity(1),
         (b, b): Matrix.identity(1), (top, top): Matrix.identity(2),
         (a, zero): Matrix.identity(1), (b, zero): Matrix.identity(1),
         (top, zero): row(ONE, ZERO), (top, a): row(ONE, ZERO),
         (top, b): row(ONE, ONE)})
    cert = check_sheaf_condition(p)
    (w,) = cert.witnesses
    assert (w.open_index, w.kind, w.section) == (top, "not_compatible", ["0", "1"])
    assert w.cover == (zero, a, b)


# ---------------------------------------------------------------------------
# sheafification


def test_sheafify_refuses_an_invalid_presheaf():
    # the presheaf of test_non_unital_restriction_flagged: refused before
    # any family is built, with the validator's first error
    s = sierpinski_space()
    q = function_algebra(1)
    p = make_presheaf(s, (function_algebra(0), q, q),
                      {(2, 1): Matrix.from_rows([[Fraction(2)]], cols=1)})
    with pytest.raises(InvalidPresheafError) as info:
        sheafify(p)
    assert info.value.finding == validate_algebra_presheaf(p).errors()[0]
    assert str(info.value) == \
        "not a valid presheaf: restriction 2->1: unit: unit is not preserved"


def test_sheaf_operations_refuse_a_non_topology():
    # {0} and {1} are open but their union is not
    p = function_presheaf(space_from_opens(3, [(), (0,), (1,), (0, 1, 2)]))
    for operation in (check_sheaf_condition, sheafify):
        with pytest.raises(InvalidTopologyError) as info:
            operation(p)
        assert info.value.finding.location == "opens[1]|opens[2]"
        assert info.value.finding.message == "union of opens is not open"


def test_sheafify_constants_on_discrete_two():
    sp = discrete_space(2)
    result = sheafify(constant_presheaf(sp, function_algebra(1)))
    assert [a.dim for a in result.presheaf.sections] == [0, 1, 1, 2]
    # over the whole space the result is literally the function algebra
    full = sp.open_index(frozenset({0, 1}))
    assert result.presheaf.sections[full] == function_algebra(2)
    assert check_sheaf_condition(result.presheaf).is_sheaf
    assert validate_presheaf_morphism(result.canonical).ok


def test_sheafify_constants_on_sierpinski_changes_nothing():
    s = sierpinski_space()
    result = sheafify(constant_presheaf(s, function_algebra(1)))
    assert [a.dim for a in result.presheaf.sections] == [0, 1, 1]
    for u in range(len(s.opens)):
        comp = result.canonical.components[u]
        assert comp.rows == comp.cols
        assert kernel(comp).dim == 0


@pytest.mark.parametrize("space", FIXTURE_SPACES)
def test_sheafify_output_is_always_a_sheaf(space):
    for p in (constant_presheaf(space, truncated_poly_algebra(2)),
              function_presheaf(space)):
        result = sheafify(p)
        assert validate_algebra_presheaf(result.presheaf).ok
        assert check_sheaf_condition(result.presheaf).is_sheaf
        assert validate_presheaf_morphism(result.canonical).ok


@pytest.mark.parametrize("space", FIXTURE_SPACES)
def test_sheafify_preserves_stalks(space):
    p = constant_presheaf(space, truncated_poly_algebra(2))
    result = sheafify(p)
    for x in range(space.point_count):
        ux = minimal_open(space, x)
        assert result.presheaf.section_dim(ux) == p.section_dim(ux)
        comp = result.canonical.components[ux]
        assert kernel(comp).dim == 0


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(FIXTURE_SPACES), st.integers(min_value=1, max_value=3))
def test_sheafify_is_idempotent_up_to_iso(space, k):
    once = sheafify(constant_presheaf(space, function_algebra(k)))
    twice = sheafify(once.presheaf)
    for u in range(len(space.opens)):
        assert twice.presheaf.section_dim(u) == once.presheaf.section_dim(u)
        assert kernel(twice.canonical.components[u]).dim == 0


def test_sheafify_module_free_rank_one():
    s = sierpinski_space()
    fp = function_presheaf(s)
    sections = tuple(free_module_sections(fp.sections[u], 1)
                     for u in range(len(s.opens)))
    table = {pair: fp.restriction(*pair) for pair in s.inclusion_pairs()}
    mp = Presheaf(s, sections, table, fp)
    assert validate_module_presheaf(mp).ok
    base_plus = sheafify(fp)
    result = sheafify_module(mp, base_plus)
    assert [m.dim for m in result.presheaf.sections] == [0, 1, 2]
    assert validate_module_presheaf(result.presheaf).ok
    assert validate_presheaf_morphism(result.canonical).ok
    assert check_sheaf_condition(result.presheaf).is_sheaf


def test_sheafify_zero_module():
    sp = discrete_space(2)
    base = constant_presheaf(sp, function_algebra(1))
    mp = zero_module_presheaf(base)
    result = sheafify_module(mp, sheafify(base))
    assert all(m.dim == 0 for m in result.presheaf.sections)


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_collapse_to_point():
    sp = discrete_space(2)
    f = constant_map(sp, discrete_space(1), 0)
    img = pushforward(f, function_presheaf(sp))
    assert [a.dim for a in img.sections] == [0, 2]
    assert validate_algebra_presheaf(img).ok
    assert check_sheaf_condition(img).is_sheaf


def test_pushforward_of_sheaf_is_sheaf_for_every_map():
    source = discrete_space(2)
    fp = function_presheaf(source)
    for target in (sierpinski_space(), discrete_space(2)):
        for values in all_maps(source, target):
            f = ContinuousMap(source, target, values)  # discrete source
            img = pushforward(f, fp)
            assert validate_algebra_presheaf(img).ok
            assert check_sheaf_condition(img).is_sheaf


def pushforward_morphism(f, h):
    """The direct image of the presheaf morphism h along f."""
    return PresheafMorphism(pushforward(f, h.source), pushforward(f, h.target),
                            tuple(h.components[preimage_open(f, v)]
                                  for v in range(len(f.codomain.opens))))


def test_pushforward_module_and_morphism():
    sp = discrete_space(2)
    f = constant_map(sp, indiscrete_space(1), 0)
    base = constant_presheaf(sp, function_algebra(1))
    plus = sheafify(base)
    fwd = pushforward_morphism(f, plus.canonical)
    assert validate_presheaf_morphism(fwd).ok
    mp = zero_module_presheaf(base)
    img = pushforward_module(f, mp, pushforward(f, base))
    assert all(m.dim == 0 for m in img.sections)


def test_pushforward_wrong_domain_rejected():
    f = constant_map(discrete_space(2), discrete_space(1), 0)
    p = function_presheaf(sierpinski_space())
    with pytest.raises(DimensionMismatchError):
        pushforward(f, p)


def test_presheaf_morphism_shape_checked():
    s = sierpinski_space()
    fp = function_presheaf(s)
    with pytest.raises(DimensionMismatchError):
        PresheafMorphism(fp, fp, (Matrix.identity(0), Matrix.identity(2),
                                  Matrix.identity(2)))


# ---------------------------------------------------------------------------
# the validators against the all-pairs oracle


NUDGES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)]


def _nudged(m, rng):
    """m with one entry moved by a nonzero rational."""
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    rows = [list(row) for row in m.entries]
    rows[r][c] += rng.choice(NUDGES)
    return Matrix.from_rows(rows, cols=m.cols)


def _plus_outer(m, left, right):
    outer = Matrix.from_rows([[x * y for y in right] for x in left], cols=m.cols)
    return matrix_sum(m, outer)


def _retabled(p, pair, matrix):
    return replace(p, restrictions={**p.restrictions, pair: matrix})


def corrupted(p, kind, rng):
    """p with one seeded defect of the given kind, or None where p has no
    room for it.  The shapes stay valid, so the constructor accepts it."""
    space = p.space
    dim = p.section_dim
    proper = [(u, v) for u, v in space.inclusion_pairs()
              if u != v and dim(u) and dim(v)]
    if kind in ("entry", "action"):
        if not proper:
            return None
        u, v = rng.choice(proper)
        r = p.restriction(u, v)
        if kind == "entry":
            return _retabled(p, (u, v), _nudged(r, rng))
        left = [rng.choice(NUDGES) for _ in range(r.rows)]
        right = [rng.choice(NUDGES) for _ in range(r.cols)]
        return _retabled(p, (u, v), _plus_outer(r, left, right))
    if kind == "diagonal":
        opens = [u for u in range(len(space.opens)) if dim(u)]
        u = rng.choice(opens)
        return _retabled(p, (u, u), _nudged(Matrix.identity(dim(u)), rng))
    if kind == "non_unital":
        if not proper:
            return None
        u, v = rng.choice(proper)
        return _retabled(p, (u, v), scaled(p.restriction(u, v), 2))
    if kind == "non_multiplicative":
        # add y (x) phi with phi(1) = 0: the unit is kept, products are not
        pairs = [(u, v) for u, v in proper if dim(u) >= 2]
        if not pairs:
            return None
        u, v = rng.choice(pairs)
        unit = p.sections[u].unit
        k = next(i for i, x in enumerate(unit) if x)
        l = next(i for i in range(dim(u)) if i != k)
        phi = [unit[l] if i == k else -unit[k] if i == l else ZERO
               for i in range(dim(u))]
        y = [rng.choice(NUDGES) for _ in range(dim(v))]
        return _retabled(p, (u, v), _plus_outer(p.restriction(u, v), y, phi))
    if kind == "not_composing":
        triples = [(u, w) for u, v in proper for v2, w in proper
                   if v2 == v and space.opens[w] < space.opens[v]]
        if not triples:
            return None
        pair = rng.choice(triples)
        return _retabled(p, pair, _nudged(p.restriction(*pair), rng))
    if kind == "empty":
        empty = space.open_index(frozenset())
        section = (function_algebra(1) if p.base is None
                   else ModuleSections(0, 1, ()))
        sections = tuple(section if u == empty else s
                         for u, s in enumerate(p.sections))
        table = {(u, v): Matrix.identity(1) if u == v == empty else
                 Matrix.zeros(1, dim(u)) if v == empty else r
                 for (u, v), r in p.restrictions.items()}
        return replace(p, sections=sections, restrictions=table)
    raise ValueError(kind)


def free_rank_one(space):
    """The function presheaf acting on itself."""
    fp = function_presheaf(space)
    return Presheaf(space, tuple(free_module_sections(a, 1) for a in fp.sections),
                    fp.restrictions, fp)


def _dual_numbers_triad(space):
    a = truncated_poly_algebra(2)
    omega = ModuleSections(2, 1, ((vec([1]),), (vec([0]),)))
    return constant_triad(space, a, omega, Matrix.from_rows([[0, 1]], cols=2))


def _kaehler_triad(space):
    k = kaehler_module(truncated_poly_algebra(3))
    return constant_triad(space, k.algebra, k.module, k.differential)


ALGEBRA_LAYERS = {
    "function": function_presheaf,
    "constant truncated_poly 2": lambda sp: constant_presheaf(sp, truncated_poly_algebra(2)),
    "constant function_algebra 2": lambda sp: constant_presheaf(sp, function_algebra(2)),
}
MODULE_LAYERS = {
    "free rank one": free_rank_one,
    "dual numbers": lambda sp: _dual_numbers_triad(sp).modules,
    "kaehler truncated_poly 3": lambda sp: _kaehler_triad(sp).modules,
}
SMALL_TOPOLOGIES = [sp for n in (1, 2, 3) for sp in all_topologies(n)]


@pytest.mark.parametrize("layer", sorted(ALGEBRA_LAYERS) + sorted(MODULE_LAYERS))
def test_validators_match_the_all_pairs_oracle(layer):
    if layer in ALGEBRA_LAYERS:
        build, validate, oracle = (ALGEBRA_LAYERS[layer], validate_algebra_presheaf,
                                   validate_algebra_presheaf_by_pairs)
        kinds = ("entry", "diagonal", "non_unital", "non_multiplicative",
                 "not_composing", "empty")
    else:
        build, validate, oracle = (MODULE_LAYERS[layer], validate_module_presheaf,
                                   validate_module_presheaf_by_pairs)
        kinds = ("entry", "diagonal", "action", "not_composing", "empty")
    rng = random.Random(f"validators {layer}")
    failing = Counter()
    for space in SMALL_TOPOLOGIES:
        p = build(space)
        cases = [("valid", p)] + [(kind, corrupted(p, kind, rng)) for kind in kinds]
        for kind, q in cases:
            if q is None:
                continue
            expected = oracle(q)
            assert validate(q) == expected, (space.opens, kind)
            failing[kind] += not expected.ok
    assert failing["valid"] == 0
    assert all(failing[kind] >= 10 for kind in kinds), failing


def test_each_distinct_section_structure_is_validated_once(monkeypatch):
    import triadica.sheaf as sheaf_module
    calls = []

    def counting(validate):
        def call(*args):
            calls.append(args)
            return validate(*args)
        return call

    monkeypatch.setattr(sheaf_module, "validate_algebra",
                        counting(sheaf_module.validate_algebra))
    monkeypatch.setattr(sheaf_module, "validate_module_sections",
                        counting(sheaf_module.validate_module_sections))
    space = discrete_space(3)
    a = truncated_poly_algebra(3)
    assert validate_algebra_presheaf(constant_presheaf(space, a)).ok
    # eight opens: the constant section, and the zero algebra over the empty open
    assert len(calls) == 2 and set(calls) == {(a,), (function_algebra(0),)}
    calls.clear()
    triad = _kaehler_triad(space)
    assert validate_module_presheaf(triad.modules).ok
    pairs = set(zip(triad.algebras.sections, triad.modules.sections))
    assert len(pairs) == 2 and len(calls) == 2 and set(calls) == pairs


def corrupted_differentials(t, kind, rng):
    """t with seeded defects in its differentials, or None where t has no
    room for them: one entry moved on one open ("entry"), one open's
    differential doubled, so that Leibniz holds but the squares fail
    ("doubled"), or the same moved differential on every nonempty open
    ("everywhere")."""
    opens = [u for u, d in enumerate(t.differentials) if d.rows and d.cols]
    if not opens:
        return None
    diffs = list(t.differentials)
    if kind == "everywhere":
        moved = _nudged(diffs[opens[0]], rng)
        diffs = [moved if u in opens else d for u, d in enumerate(diffs)]
    else:
        u = rng.choice(opens)
        diffs[u] = _nudged(diffs[u], rng) if kind == "entry" else scaled(diffs[u], 2)
    return DifferentialTriad(t.algebras, t.modules, tuple(diffs))


TRIADS = {
    "dual numbers": _dual_numbers_triad,
    "kaehler truncated_poly 3": _kaehler_triad,
}


@pytest.mark.parametrize("triad", sorted(TRIADS))
def test_validate_triad_matches_the_oracle_by_opens(triad):
    kinds = ("entry", "doubled", "everywhere")
    rng = random.Random(f"triads {triad}")
    failing = Counter()
    for space in SMALL_TOPOLOGIES:
        t = TRIADS[triad](space)
        cases = [("valid", t)] + [(kind, corrupted_differentials(t, kind, rng))
                                  for kind in kinds]
        for kind, q in cases:
            expected = validate_triad_by_opens(q)
            assert validate_triad(q) == expected, (space.opens, kind)
            failing[kind] += not expected.ok
    assert failing["valid"] == 0
    assert all(failing[kind] >= 10 for kind in kinds), failing


def test_each_distinct_check_of_a_triad_runs_once(monkeypatch):
    import triadica.sheaf as sheaf_module
    import triadica.triad as triad_module
    calls = {"morphism": [], "semilinear": [], "leibniz": []}

    def counting(kind, check):
        def call(*args):
            calls[kind].append(args)
            return check(*args)
        return call

    for module, name, kind in ((sheaf_module, "validate_algebra_morphism", "morphism"),
                               (sheaf_module, "semilinearity_defects", "semilinear"),
                               (triad_module, "check_leibniz", "leibniz")):
        monkeypatch.setattr(module, name, counting(kind, getattr(module, name)))
    t = _kaehler_triad(discrete_space(3))
    assert validate_triad(t).ok
    algebras, modules = t.algebras, t.modules
    pairs = t.space.inclusion_pairs()
    morphisms = {(algebras.sections[u], algebras.sections[v], algebras.restriction(u, v))
                 for u, v in pairs}
    semilinear = {(modules.sections[u], modules.sections[v], modules.restriction(u, v),
                   algebras.restriction(u, v)) for u, v in pairs}
    leibniz = set(zip(algebras.sections, modules.sections, t.differentials))
    # 27 inclusion pairs and 8 opens: to the empty open, between the empty
    # opens, and between nonempty ones; over the empty open and the others
    assert (len(pairs), len(morphisms), len(semilinear), len(leibniz)) == (27, 3, 3, 2)
    assert len(calls["morphism"]) == len(morphisms)
    assert set(calls["morphism"]) == {(AlgebraMorphism(*key),) for key in morphisms}
    assert len(calls["semilinear"]) == len(semilinear)
    assert {(source, target, rho, r) for rho, r, source, target in calls["semilinear"]} \
        == semilinear
    assert len(calls["leibniz"]) == len(leibniz) and set(calls["leibniz"]) == leibniz
