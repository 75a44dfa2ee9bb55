from fractions import Fraction
from itertools import product

import pytest

from triadica.algebra import (Algebra, AlgebraMorphism, Character,
                              InvalidAlgebraError, NotSplitError, algebra_from_struct, characters,
                              enumerate_unital_morphisms, function_algebra,
                              is_standard_function_algebra, multiplication_map,
                              nilradical, tensor_product,
                              truncated_poly_algebra, validate_algebra,
                              validate_algebra_morphism, validate_character)
from triadica.exactla import Matrix, vec

F = Fraction


def square_zero_algebra():
    """Q[x,y]/(x^2, xy, y^2): basis 1, x, y with all degree-2 products zero."""
    struct = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    return algebra_from_struct(struct, [1, 0, 0])


def irrational_quadratic_algebra():
    """Q[x]/(x^2 - 2): semisimple but with no rational characters."""
    struct = [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]
    return algebra_from_struct(struct, [1, 0])


FIXTURE_ALGEBRAS = [
    function_algebra(1),
    function_algebra(2),
    function_algebra(3),
    truncated_poly_algebra(2),
    truncated_poly_algebra(3),
    square_zero_algebra(),
]


def test_fixture_algebras_validate():
    for a in FIXTURE_ALGEBRAS:
        assert validate_algebra(a).ok


def test_degenerate_zero_algebra_is_valid():
    rep = validate_algebra(function_algebra(0))
    assert rep.ok
    assert any("degenerate" in f.message for f in rep.findings)


def test_noncommutative_struct_is_reported():
    struct = [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]
    a = algebra_from_struct(struct, [1, 0])
    rep = validate_algebra(a)
    assert any("commutative" in f.message for f in rep.errors())


def test_nonassociative_struct_is_reported():
    # u*u = v, u*v = 0, v*v = u: then (u u) v = u but u (u v) = 0
    struct = [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]
    a = algebra_from_struct(struct, [1, 0])
    rep = validate_algebra(a)
    assert any("associative" in f.message for f in rep.errors())


def test_broken_unit_is_reported():
    a = Algebra(2, function_algebra(2).struct, vec([1, 0]))
    assert any("unit" in f.message for f in validate_algebra(a).errors())


def test_characters_refuse_invalid_algebra():
    # Q[x]/(x^2) with x declared as the unit
    a = algebra_from_struct(truncated_poly_algebra(2).struct, [0, 1])
    with pytest.raises(InvalidAlgebraError) as exc:
        characters(a)
    assert exc.value.finding == validate_algebra(a).errors()[0]
    assert "unit is not a left unit" in str(exc.value)


def test_truncated_poly_products():
    a = truncated_poly_algebra(3)
    x = vec([0, 1, 0])
    assert a.multiply(x, x) == vec([0, 0, 1])
    assert a.multiply(a.multiply(x, x), x) == vec([0, 0, 0])


def test_multiplication_map_dual_numbers():
    m = multiplication_map(truncated_poly_algebra(2))
    assert m.entries == Matrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0]]).entries


def test_tensor_with_scalars_is_identity():
    for a in FIXTURE_ALGEBRAS:
        t = tensor_product(function_algebra(1), a)
        assert t.algebra == a


def test_tensor_of_function_algebras_is_pointwise():
    t = tensor_product(function_algebra(2), function_algebra(2))
    assert t.algebra == function_algebra(4)


def test_tensor_square_of_dual_numbers():
    a = truncated_poly_algebra(2)
    t = tensor_product(a, a)
    assert validate_algebra(t.algebra).ok
    x_left = t.left.col(1)   # x tensor 1
    assert t.algebra.multiply(x_left, x_left) == vec([0] * 4)
    x_right = t.right.col(1)  # 1 tensor x
    mixed = t.algebra.multiply(x_left, x_right)
    assert mixed == vec([0, 0, 0, 1])


def test_tensor_embeddings_are_morphisms():
    a = truncated_poly_algebra(3)
    b = function_algebra(2)
    t = tensor_product(a, b)
    assert validate_algebra_morphism(AlgebraMorphism(a, t.algebra, t.left)).ok
    assert validate_algebra_morphism(AlgebraMorphism(b, t.algebra, t.right)).ok


def trace_form_oracle(a):
    """Independent trace-form computation by direct summation."""
    n = a.dim
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = a.struct[i][j]
            m = a.left_mult(prod)
            row.append(sum((m.entries[d][d] for d in range(n)), F(0)))
        rows.append(row)
    return rows


def test_nilradical_of_function_algebras_is_zero():
    for k in range(1, 4):
        assert nilradical(function_algebra(k)).dim == 0


def test_nilradical_dual_numbers():
    a = truncated_poly_algebra(2)
    assert trace_form_oracle(a) == [[2, 0], [0, 0]]
    n = nilradical(a)
    assert n.basis == (vec([0, 1]),)


def test_nilradical_matches_oracle_on_fixtures():
    import sympy
    for a in FIXTURE_ALGEBRAS + [irrational_quadratic_algebra()]:
        oracle = sympy.Matrix([[sympy.Rational(x) for x in row]
                               for row in trace_form_oracle(a)])
        assert nilradical(a).dim == len(oracle.nullspace())


def test_nilradical_elements_are_nilpotent():
    for a in FIXTURE_ALGEBRAS:
        for b in nilradical(a).basis:
            assert a.power(b, a.dim + 1) == vec([0] * a.dim)


def brute_force_characters(a, candidates):
    """Oracle: test every candidate functional for the character equations."""
    out = []
    for chi in candidates:
        c = Character(a, vec(chi))
        if validate_character(c).ok:
            out.append(c.functional)
    return sorted(out)


def test_characters_of_function_algebras_are_coordinate_projections():
    for k in range(1, 4):
        a = function_algebra(k)
        got = [c.functional for c in characters(a)]
        zero_one = list(product([0, 1], repeat=k))
        assert got == brute_force_characters(a, zero_one)
        assert len(got) == k
        for chi in got:
            assert sum(chi) == 1 and set(chi) <= {0, 1}


def test_characters_sorted_lexicographically():
    got = [c.functional for c in characters(function_algebra(3))]
    assert got == sorted(got)


def test_characters_kill_nilradical():
    for a in FIXTURE_ALGEBRAS:
        chars = characters(a)
        nil = nilradical(a)
        for chi in chars:
            for b in nil.basis:
                assert chi(b) == 0


def test_truncated_poly_has_single_character():
    for k in (2, 3):
        chars = characters(truncated_poly_algebra(k))
        assert [c.functional for c in chars] == [vec([1] + [0] * (k - 1))]


def test_characters_refuse_non_split_algebra():
    with pytest.raises(NotSplitError) as exc:
        characters(irrational_quadratic_algebra())
    assert exc.value.found == 0
    assert exc.value.semisimple_dim == 2


def test_characters_refuse_partially_split_algebra():
    # Q x Q[x]/(x^2-2): one rational character exists, two do not
    struct = [
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 0, 1], [0, 2, 0]],
    ]
    a = algebra_from_struct(struct, [1, 1, 0])
    assert validate_algebra(a).ok
    with pytest.raises(NotSplitError) as exc:
        characters(a)
    assert exc.value.found == 1
    assert exc.value.semisimple_dim == 3


def test_characters_of_rational_split_quadratic():
    # Q[x]/(x^2 - 1) = Q x Q in a non-pointwise basis {1, x}
    struct = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    a = algebra_from_struct(struct, [1, 0])
    got = [c.functional for c in characters(a)]
    assert got == [vec([1, -1]), vec([1, 1])]


def brute_force_unital_morphisms(m, k):
    """Oracle: search all 0/1 images for each source idempotent."""
    a, b = function_algebra(m), function_algebra(k)
    images = list(product([0, 1], repeat=k))
    out = []
    for choice in product(images, repeat=m):
        mat = Matrix.from_columns([vec(c) for c in choice], rows=k)
        if validate_algebra_morphism(AlgebraMorphism(a, b, mat)).ok:
            out.append(mat.entries)
    return sorted(out)


def test_enumerate_unital_morphisms_counts_and_completeness():
    for m, k in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)]:
        got = enumerate_unital_morphisms(function_algebra(m), function_algebra(k))
        assert len(got) == m ** k
        assert sorted(h.matrix.entries for h in got) == brute_force_unital_morphisms(m, k)


def test_enumerate_unital_morphisms_two_evaluations():
    got = enumerate_unital_morphisms(function_algebra(2), function_algebra(1))
    assert [h.matrix.entries for h in got] == [
        Matrix.from_rows([[1, 0]]).entries,
        Matrix.from_rows([[0, 1]]).entries,
    ]


def test_enumerate_unital_morphisms_recovers_point_maps():
    a, b = function_algebra(2), function_algebra(3)
    for idx, h in enumerate(enumerate_unital_morphisms(a, b)):
        tau = [None] * b.dim
        for chi in characters(b):
            composite = tuple(chi(h.matrix.col(i)) for i in range(a.dim))
            # composite is a character of the source: evaluation at one point
            assert sum(composite) == 1 and set(composite) <= {0, 1}
            tau[chi.functional.index(1)] = composite.index(1)
        # the recovered point map is the defining one; enumeration is
        # lexicographic in that map
        assert idx == tau[0] * 4 + tau[1] * 2 + tau[2]


def test_enumerate_requires_standard_function_algebras():
    with pytest.raises(ValueError):
        enumerate_unital_morphisms(truncated_poly_algebra(2), function_algebra(1))


def test_degenerate_target_has_single_trivial_morphism():
    got = enumerate_unital_morphisms(function_algebra(2), function_algebra(0))
    assert len(got) == 1
    assert got[0].matrix.rows == 0


def test_is_standard_function_algebra():
    assert is_standard_function_algebra(function_algebra(3))
    assert not is_standard_function_algebra(truncated_poly_algebra(2))
