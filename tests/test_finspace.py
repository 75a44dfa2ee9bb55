import pytest

from triadica.finspace import (ContinuousMap, all_maps, check_topology,
                               compose_maps, constant_map, continuity_witness,
                               discrete_space, identity_map, indiscrete_space,
                               is_continuous, minimal_open,
                               minimal_open_superset, preimage_open,
                               sierpinski_space, space_from_opens)


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


def test_preimage_open():
    s = sierpinski_space()
    d = discrete_space(2)
    f = ContinuousMap(d, s, (0, 1))
    assert d.opens[preimage_open(f, s.open_index({0}))] == frozenset({0})
    assert d.opens[preimage_open(f, s.open_index({0, 1}))] == frozenset({0, 1})


def test_preimage_commutes_with_union_and_intersection():
    d = discrete_space(3)
    s = sierpinski_space()
    for values in all_maps(d, s):
        if not is_continuous(values, d, s):
            continue
        f = ContinuousMap(d, s, tuple(values))
        for i, u in enumerate(s.opens):
            for j, v in enumerate(s.opens):
                pu = d.opens[preimage_open(f, i)]
                pv = d.opens[preimage_open(f, j)]
                union = d.opens[preimage_open(f, s.open_index(u | v))]
                meet = d.opens[preimage_open(f, s.open_index(u & v))]
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


def test_all_maps_count():
    assert len(list(all_maps(discrete_space(3), discrete_space(2)))) == 8
