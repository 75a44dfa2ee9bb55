import itertools
import re

import pytest

from test_sheaf import all_topologies
from triadica.errors import DimensionMismatchError
from triadica.finspace import (ContinuousMap, all_maps, check_topology,
                               compose_maps, constant_map, continuity_witness,
                               discrete_space, identity_map, indiscrete_space,
                               is_continuous, minimal_open,
                               minimal_open_superset, sierpinski_space,
                               space_from_opens)


def test_sierpinski_is_a_topology():
    assert check_topology(sierpinski_space()).ok


def test_discrete_and_indiscrete_are_topologies():
    for n in range(4):
        assert check_topology(discrete_space(n)).ok
        assert check_topology(indiscrete_space(n)).ok


def test_is_discrete_when_every_point_is_open():
    for n in range(4):
        assert discrete_space(n).is_discrete
        assert indiscrete_space(n).is_discrete == (n <= 1)
    assert not sierpinski_space().is_discrete


def test_missing_union_is_reported():
    s = space_from_opens(2, [[], [0], [1], [0, 1]][:-1])
    rep = check_topology(s)
    assert not rep.ok
    assert any("union" in f.message for f in rep.errors())


def test_missing_empty_set_is_reported():
    s = space_from_opens(1, [[0]])
    rep = check_topology(s)
    assert any("empty" in f.message for f in rep.errors())


def test_duplicate_open_is_reported():
    s = space_from_opens(1, [[], [0], [0]])
    assert any("duplicate" in f.message for f in check_topology(s).errors())


def test_minimal_open_sierpinski():
    s = sierpinski_space()
    assert s.opens[minimal_open(s, 0)] == frozenset({0})
    assert s.opens[minimal_open(s, 1)] == frozenset({0, 1})


def test_minimal_open_is_least():
    for space in (sierpinski_space(), discrete_space(3), indiscrete_space(2)):
        for x in space.points:
            u = space.opens[minimal_open(space, x)]
            for v in space.opens:
                if x in v:
                    assert u <= v


def test_minimal_open_superset():
    s = sierpinski_space()
    assert s.opens[minimal_open_superset(s, {1})] == frozenset({0, 1})
    assert s.opens[minimal_open_superset(s, {0})] == frozenset({0})
    assert s.opens[minimal_open_superset(s, {0, 1})] == frozenset({0, 1})


def test_identity_on_sierpinski_continuous_swap_not():
    s = sierpinski_space()
    assert is_continuous((0, 1), s, s)
    assert not is_continuous((1, 0), s, s)
    w = continuity_witness((1, 0), s, s)
    assert s.opens[w] == frozenset({0})


def test_constant_maps_always_continuous():
    spaces = [discrete_space(2), sierpinski_space(), indiscrete_space(3)]
    for x_space in spaces:
        for y_space in spaces:
            for c in y_space.points:
                constant_map(x_space, y_space, c)  # constructor validates


def test_continuous_map_constructor_rejects_bad_map():
    s = sierpinski_space()
    with pytest.raises(ValueError):
        ContinuousMap(s, s, (1, 0))
    for values, culprit in (((0, 2), "f(1) = 2"), ((-1, 0), "f(0) = -1")):
        with pytest.raises(DimensionMismatchError,
                           match=re.escape(f"{culprit} is outside the codomain")):
            ContinuousMap(discrete_space(2), s, values)


def test_preimages_match_the_brute_force_index_on_small_topologies():
    # every map between topologies with at most 3 points: a continuous one
    # keeps the first index of each preimage, a discontinuous one is refused
    # at the first codomain open whose preimage is not listed
    spaces = [sp for n in range(4) for sp in all_topologies(n)]
    continuous = 0
    for x, y in itertools.product(spaces, repeat=2):
        for values in all_maps(x, y):
            pre = [frozenset(p for p in x.points if values[p] in v) for v in y.opens]
            bad = next((j for j, u in enumerate(pre) if u not in x.opens), None)
            if bad is None:
                f = ContinuousMap(x, y, values)
                assert f.preimages == tuple(x.opens.index(u) for u in pre)
                continuous += 1
            else:
                message = (f"not continuous: preimage of open {sorted(y.opens[bad])} "
                           f"(index {bad}) is not open")
                with pytest.raises(ValueError, match=re.escape(message)):
                    ContinuousMap(x, y, values)
    assert continuous == 11345  # of 24,907 maps


def test_open_index_reads_the_first_of_duplicate_opens():
    s = space_from_opens(2, [[], [0], [0], [0, 1]])
    assert s.open_index({0}) == 1
    assert s.open_index(frozenset({0, 1})) == 3
    assert s.is_open({0}) and not s.is_open({1})
    with pytest.raises(KeyError, match=re.escape("[1] is not an open of this space")):
        s.open_index({1})


def test_preimage_commutes_with_union_and_intersection():
    d = discrete_space(3)
    s = sierpinski_space()
    for values in all_maps(d, s):
        if not is_continuous(values, d, s):
            continue
        f = ContinuousMap(d, s, tuple(values))
        for i, u in enumerate(s.opens):
            for j, v in enumerate(s.opens):
                pu = d.opens[f.preimages[i]]
                pv = d.opens[f.preimages[j]]
                union = d.opens[f.preimages[s.open_index(u | v)]]
                meet = d.opens[f.preimages[s.open_index(u & v)]]
                assert union == pu | pv
                assert meet == pu & pv


def test_continuity_monotone_on_minimal_opens():
    # f(U_x) lands inside U_f(x) for continuous f
    d = discrete_space(2)
    s = sierpinski_space()
    cases = []
    for values in all_maps(s, s):
        if is_continuous(values, s, s):
            cases.append(ContinuousMap(s, s, tuple(values)))
    for values in all_maps(d, s):
        cases.append(ContinuousMap(d, s, tuple(values)))
    for f in cases:
        for x in f.domain.points:
            ux = f.domain.opens[minimal_open(f.domain, x)]
            ufx = f.codomain.opens[minimal_open(f.codomain, f(x))]
            assert frozenset(f(p) for p in ux) <= ufx


def test_compose_and_identity():
    s = sierpinski_space()
    d = discrete_space(2)
    f = ContinuousMap(d, s, (0, 1))
    g = constant_map(s, d, 1)
    gf = compose_maps(g, f)
    assert gf.values == (1, 1)
    assert compose_maps(identity_map(s), f).values == f.values
    assert compose_maps(f, identity_map(d)).values == f.values


def test_opens_may_mention_only_points_of_the_space():
    for opens in ([[], [0, 2], [0, 1, 2]], [[], [-1], [0, 1]]):
        with pytest.raises(DimensionMismatchError, match="mentions a point outside"):
            space_from_opens(2, opens)


def test_opens_containing_lists_every_open_around_a_set():
    # an open contains itself, so it is listed around its own points
    for space in (sp for n in range(4) for sp in all_topologies(n)):
        for i, u in enumerate(space.opens):
            assert i in space.opens_containing(u)
            assert all(u <= space.opens[j] for j in space.opens_containing(u))


def test_all_maps_count():
    assert len(list(all_maps(discrete_space(3), discrete_space(2)))) == 8
