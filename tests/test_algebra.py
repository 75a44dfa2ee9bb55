from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from algebra_oracle import rational_roots_by_division
from kaehler_oracle import multiplication_map
from triadica.algebra import (Algebra, AlgebraMorphism, Character,
                              InvalidAlgebraError, NotSplitError,
                              algebra_from_struct, characters,
                              enumerate_unital_morphisms, function_algebra,
                              is_standard_function_algebra,
                              nilradical, tensor_product,
                              truncated_poly_algebra, validate_algebra,
                              validate_algebra_morphism)
from triadica.exactla import Matrix, vec
from triadica.poly import _primitive, _sign_changes, _sturm_chain, rational_roots

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


def test_each_non_commuting_basis_pair_is_reported_once_in_order():
    # truncated_poly 3 with e0 e2 moved off e2 and e2 e1 moved to e1: the
    # pairs (0,2) and (1,2), each once, with i < j as location and witness
    a = truncated_poly_algebra(3)
    struct = [list(row) for row in a.struct]
    struct[0][2] = vec([1, 0, 1])
    struct[2][1] = vec([0, 1, 0])
    rep = validate_algebra(Algebra(3, tuple(map(tuple, struct)), a.unit))
    commuting = [f for f in rep.findings if f.message == "product is not commutative"]
    assert [(f.location, f.witness) for f in commuting] == [
        ("basis (0,2)", [0, 2]), ("basis (1,2)", [1, 2])]


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
            power = a.unit
            for _ in range(a.dim + 1):
                power = a.multiply(power, b)
            assert power == vec([0] * a.dim)


def brute_force_characters(a, candidates):
    """Oracle: test every candidate functional for the character equations,
    as an algebra map into Q."""
    out = []
    for chi in candidates:
        c = Character(a, vec(chi))
        as_map = AlgebraMorphism(a, function_algebra(1), Matrix(1, a.dim, (c.functional,)))
        if validate_algebra_morphism(as_map).ok:
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


def test_character_rejects_a_vector_of_the_wrong_length():
    chars = characters(function_algebra(2))
    assert [chi(vec([3, 5])) for chi in chars] == [5, 3]
    chi = chars[0]
    with pytest.raises(ValueError):
        chi(vec([3]))
    with pytest.raises(ValueError):
        chi(vec([3, 5, 7]))


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


# ---------------------------------------------------------------------------
# rational roots: Sturm bisection against trial division and sympy


def expand(factors):
    """Coefficients, low degree first, of the product of the given ones."""
    out = [F(1)]
    for f in factors:
        prod_ = [F(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod_[i + j] += a * b
        out = prod_
    return out


def digits(k):
    """Integers with 1 to k decimal digits, spread evenly over the lengths."""
    return st.integers(1, k).flatmap(lambda n: st.integers(10 ** (n - 1), 10 ** n - 1))


def signed(ints):
    return st.tuples(st.sampled_from([1, -1]), ints).map(lambda t: t[0] * t[1])


@st.composite
def split_polynomials(draw, numerators, denominators, scalars, max_roots):
    """A product of rational linear factors (repeats and a root at 0 likely)
    and an integer factor of degree 0..2, which may have no rational root."""
    pool = draw(st.lists(st.builds(F, numerators, denominators), min_size=1, max_size=4))
    pool.append(F(0))
    roots = draw(st.lists(st.sampled_from(pool), max_size=max_roots))
    tail = draw(st.lists(scalars, max_size=2))
    lead = draw(scalars.filter(bool))
    return expand([[-r, F(1)] for r in roots] + [[F(c) for c in tail] + [F(lead)]])


def sympyrational_roots(coeffs):
    return sorted(F(int(r.p), int(r.q)) for r in
                  sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"),
                             domain=sympy.QQ).ground_roots())


@seed(20131)
@settings(max_examples=150, deadline=None)
@given(split_polynomials(st.integers(-12, 12), st.integers(1, 4), st.integers(-9, 9), 5))
def test_rational_roots_match_trial_division(coeffs):
    assert rational_roots(coeffs) == rational_roots_by_division(coeffs)


@seed(20132)
@settings(max_examples=100, deadline=None)
@given(split_polynomials(signed(digits(20)), digits(10), signed(digits(12)), 6))
def test_rational_roots_match_sympy_on_large_coefficients(coeffs):
    assert rational_roots(coeffs) == sympyrational_roots(coeffs)


@seed(20134)
@settings(max_examples=100, deadline=None)
@given(split_polynomials(st.integers(-12, 12), st.integers(1, 4), st.integers(-9, 9), 5),
       st.lists(st.integers(-60, 60), min_size=2, max_size=2, unique=True))
def test_sturm_chain_counts_distinct_real_roots_like_sympy(coeffs, ends):
    ints = _primitive(coeffs)
    assume(len(ints) >= 2)
    lo, hi = sorted(2 * e + 1 for e in ends)  # the points lo/2 < hi/2
    poly = sympy.Poly(list(reversed(ints)), sympy.Symbol("x"))
    points = sympy.Rational(lo, 2), sympy.Rational(hi, 2)
    assume(all(poly.eval(p) != 0 for p in points))  # Sturm's hypothesis
    chain = _sturm_chain(ints)
    assert (_sign_changes(chain, lo, 2) - _sign_changes(chain, hi, 2)
            == poly.sqf_part().count_roots(*points))


def test_rational_roots_of_sixty_digit_coefficients():
    r, s = F(10 ** 29 + 7, 3), F(-(10 ** 30) - 1, 10 ** 6 + 3)
    coeffs = expand([[-r, 1], [-r, 1], [-s, 1], [-2, 0, 1], [11, 0, 5 * 10 ** 8]])
    assert max(len(str(abs(c.numerator))) for c in coeffs) >= 60
    assert rational_roots(coeffs) == sorted([r, s]) == sympyrational_roots(coeffs)
    assert rational_roots([F(-(10 ** 60 + 1)), F(10 ** 20)]) == [F(10 ** 60 + 1, 10 ** 20)]


@pytest.mark.parametrize("coeffs,roots", [
    ([5], []),                                    # degree 0
    ([F(-1, 3)], []),
    ([3, -2], [F(3, 2)]),                         # degree 1
    ([0, 7], [0]),
    (expand([[F(-3, 2), 1]] * 5), [F(3, 2)]),     # all roots equal
    (expand([[7, 1]] * 4), [-7]),
    ([0] * 6 + [1], [0]),
    ([3, -4, 1], [1, 3]),          # [-4, 4] -> [1, 4] -> [1, 2] and [3, 4]:
                                   # each root is the midpoint of its interval
    (expand([[-9, 1], [1, 1]]), [-1, 9]),         # 9 = Cauchy bound - 1
    (expand([[9, 1], [-1, 1]]), [-9, 1]),         # -9 = -(Cauchy bound - 1)
    ([-7, 1], [7]),
    ([7, 1], [-7]),
    ([-2, 5, -3], [F(2, 3), 1]),                  # negative leading coefficient
    ([-2, -7, -3], [-2, F(-1, 3)]),
    ([-2, 0, 1], []),                             # irrational roots only
    ([1, 0, 1], []),                              # no real roots
])
def test_rational_roots_edge_cases(coeffs, roots):
    coeffs = [F(c) for c in coeffs]
    assert rational_roots(coeffs) == [F(r) for r in roots]
    assert rational_roots_by_division(coeffs) == [F(r) for r in roots]


def test_characters_of_a_split_quadratic_with_a_huge_root():
    r = 10 ** 20 + 39
    a = algebra_from_struct([[[1, 0], [0, 1]], [[0, 1], [r * r, 0]]], [1, 0])
    assert [c.functional for c in characters(a)] == [vec([1, -r]), vec([1, r])]


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
