import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from triadica.errors import DimensionMismatchError
from triadica.exactla import (ZERO, Matrix, Subspace, contract, contract_matrix,
                              dot, full_space, kernel, product_subspace,
                              quotient_space, rat, rref, solve, span,
                              unit_vector, vec)

from support import is_zero

F = Fraction


def sympy_nullspace_dim(rows):
    m = sympy.Matrix([[sympy.Rational(str(x)) for x in r] for r in rows])
    return len(m.nullspace())


def sympy_rank(rows):
    m = sympy.Matrix([[sympy.Rational(str(x)) for x in r] for r in rows])
    return m.rank()


def test_rat_parses_exact_strings():
    assert rat("2/3") == F(2, 3)
    assert rat("-5") == F(-5)
    assert rat(7) == F(7)
    assert rat("  1/2 ") == F(1, 2)
    assert rat("+4/6") == F(2, 3)
    assert rat("-0/7") == F(0)
    assert rat("0012") == F(12)


@pytest.mark.parametrize("text", [
    "1.5", "1e5", "1E-3", "1e999999999", "1_000", "0x10", "1/-2", "1 / 2",
    "- 1", "", " ", "/2", "2/", "inf", "nan", "\u0663", "1/0", "7" * 5000])
def test_rat_accepts_only_digits_over_digits(text):
    with pytest.raises(ValueError) as exc:
        rat(text)
    assert str(exc.value) == f"not an exact rational literal: {text!r}"


def test_rat_rejects_floats_and_zero_denominator():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(ValueError):
        rat("1/0")
    with pytest.raises(TypeError):
        rat(True)


def test_kernel_of_identity_is_zero():
    assert kernel(Matrix.identity(2)).dim == 0


def test_kernel_of_zero_map_is_everything():
    k = kernel(Matrix.zeros(2, 3))
    assert k.dim == 3
    assert k.basis == Matrix.identity(3).entries


def test_kernel_of_dual_number_multiplication():
    # multiplication Q[x]/(x^2) tensor-square -> algebra, columns indexed by
    # basis pairs (1,1), (1,x), (x,1), (x,x)
    m = Matrix.from_rows([[1, 0, 0, 0], [0, 1, 1, 0]])
    k = kernel(m)
    assert k.dim == 2 == sympy_nullspace_dim(m.entries)
    # canonical echelon basis, frozen after checking against the oracle route
    assert k.basis == (vec([0, 1, -1, 0]), vec([0, 0, 0, 1]))


def two_step_kernel(m):
    """The null space by rref(m), then a second elimination that puts the
    standard null vectors into canonical echelon form."""
    rows, pivots = rref(m.entries, m.cols)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [ZERO] * m.cols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return span(m.cols, basis)


def seeded_matrices(count, seed):
    """0-8 rows, 1-9 columns, density from all zeros to no zeros; a third of
    them get rows that are combinations of earlier rows."""
    rng = random.Random(seed)
    for _ in range(count):
        rows, cols = rng.randint(0, 8), rng.randint(1, 9)
        density = rng.choice((0, 0.2, 0.5, 1))
        entries = [[F(rng.randint(-6, 6), rng.randint(1, 4))
                    if rng.random() < density else ZERO for _ in range(cols)]
                   for _ in range(rows)]
        if rows > 1 and rng.random() < 1 / 3:
            for i in range(rng.randint(1, rows - 1), rows):
                c, d = F(rng.randint(-3, 3)), F(rng.randint(-3, 3), 2)
                entries[i] = [c * x + d * y for x, y in
                              zip(entries[rng.randrange(i)], entries[rng.randrange(i)])]
        yield Matrix(rows, cols, tuple(map(tuple, entries)))


def test_kernel_matches_the_two_step_oracle():
    kinds = Counter()
    for m in seeded_matrices(3000, seed=20131):
        rank = len(rref(m.entries, m.cols)[1])
        kinds["zero" if is_zero(m) else "full rank" if rank == min(m.rows, m.cols)
              else "dependent"] += 1
        assert kernel(m) == two_step_kernel(m)
    assert min(kinds.values()) >= 300, kinds


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(0, 4))
    cols = draw(st.integers(1, 4))
    nums = st.integers(-6, 6)
    dens = st.integers(1, 4)
    entries = [[F(draw(nums), draw(dens)) for _ in range(cols)] for _ in range(rows)]
    return Matrix.from_rows(entries, cols=cols)


def test_dot_rejects_mismatched_lengths_even_when_all_zero():
    assert dot(vec([0, 2]), vec([3, 0])) == 0
    for a, b in [(vec([1, 2]), vec([3])), (vec([0, 0]), vec([0])), ((), vec([0]))]:
        with pytest.raises(ValueError):
            dot(a, b)


@st.composite
def matrix_pairs(draw):
    """a (n x k), b (k x m) and v in Q^k; a draw's density runs from all
    zeros to no zeros, so both sparse and dense products are exercised."""
    n, k, m = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 4))
    density = draw(st.sampled_from([0, 1, 2, 4]))
    entry = st.builds(lambda keep, num, den: F(num, den) if keep < density else ZERO,
                      st.integers(0, 3), st.integers(-6, 6), st.integers(1, 4))
    grid = lambda r, c: [[draw(entry) for _ in range(c)] for _ in range(r)]
    return (Matrix(n, k, tuple(map(tuple, grid(n, k)))),
            Matrix(k, m, tuple(map(tuple, grid(k, m)))),
            tuple(draw(entry) for _ in range(k)))


@seed(20130)
@settings(max_examples=80, deadline=None)
@given(matrix_pairs())
def test_apply_and_matmul_equal_the_dense_products(pair):
    a, b, v = pair
    assert a.apply(v) == tuple(sum((a.entries[i][t] * v[t] for t in range(a.cols)), ZERO)
                               for i in range(a.rows))
    assert (a @ b).entries == tuple(
        tuple(sum((a.entries[i][t] * b.entries[t][j] for t in range(a.cols)), ZERO)
              for j in range(b.cols))
        for i in range(a.rows))


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rank_nullity(m):
    _, pivots = rref(m.entries, m.cols)
    assert len(pivots) + kernel(m).dim == m.cols
    assert len(pivots) == sympy_rank(m.entries) if m.rows else len(pivots) == 0


@settings(max_examples=40, deadline=None)
@given(small_matrices(), st.randoms(use_true_random=False))
def test_canonical_basis_is_order_independent(m, rng):
    shuffled = list(m.entries)
    rng.shuffle(shuffled)
    assert span(m.cols, m.entries) == span(m.cols, shuffled)


def test_span_scaling_invariance():
    a = span(3, [[1, 2, 3], [0, 1, 1]])
    b = span(3, [[2, 4, 6], [0, F(1, 2), F(1, 2)], [1, 3, 4]])
    assert a == b


def test_solve_unique():
    m = Matrix.from_rows([[1, 1], [0, 1]])
    r = solve(m, vec([3, 1]))
    assert r.solution == vec([2, 1])
    assert r.unique


def test_solve_inconsistent_reported_as_value():
    m = Matrix.from_rows([[1, 1], [1, 1]])
    r = solve(m, vec([0, 1]))
    assert r.solution is None


def test_solve_underdetermined_not_unique():
    m = Matrix.from_rows([[1, 1]])
    r = solve(m, vec([2]))
    assert r.solution is not None
    assert not r.unique
    assert m.apply(r.solution) == vec([2])


def test_quotient_by_diagonal_of_plane():
    q = quotient_space(2, span(2, [[1, 1]]))
    assert q.quotient_dim == 1
    assert (q.projection @ q.section) == Matrix.identity(1)
    assert q.projection.apply(vec([1, 1])) == vec([0])


def test_quotient_projection_kills_exactly_the_subspace():
    sub = span(4, [[1, 0, 2, 0], [0, 1, 1, 1]])
    q = quotient_space(4, sub)
    assert q.quotient_dim == 2
    assert (q.projection @ q.section) == Matrix.identity(2)
    for b in sub.basis:
        assert q.projection.apply(b) == vec([0, 0])
    assert kernel(q.projection).basis == sub.basis


@settings(max_examples=40, deadline=None)
@given(small_matrices())
def test_quotient_identities_hold_generally(m):
    sub = span(m.cols, m.entries)
    q = quotient_space(m.cols, sub)
    assert q.quotient_dim == m.cols - sub.dim
    assert (q.projection @ q.section) == Matrix.identity(q.quotient_dim)
    assert kernel(q.projection) == sub


def test_product_subspace_pointwise_idempotent():
    # Q^3 pointwise: span{(1,1,0)} times itself is span{(1,1,0)}
    struct = [[vec([1 if i == j == k else 0 for k in range(3)]) for j in range(3)]
              for i in range(3)]
    u = span(3, [[1, 1, 0]])
    assert product_subspace(u, u, struct) == u


def test_product_subspace_nilpotents_vanish():
    # dual numbers: x*x = 0, so span{x} squared is zero
    struct = [[vec([1, 0]), vec([0, 1])], [vec([0, 1]), vec([0, 0])]]
    u = span(2, [[0, 1]])
    assert product_subspace(u, u, struct).dim == 0


# ---------------------------------------------------------------------------
# structure-tensor contraction

SPARSE = [F(0)] * 6 + [F(1), F(-1), F(2), F(1, 2), F(-3, 2)]


def sparse_vector(rng, n):
    return tuple(rng.choice(SPARSE) for _ in range(n))


def sparse_table(rng, rows, dim):
    """A random rows x dim x dim structure tensor, mostly zeros."""
    return tuple(tuple(sparse_vector(rng, dim) for _ in range(dim))
                 for _ in range(rows))


def naive_contract(table, dim, a, b):
    """sum_ij a_i b_j table[i][j], summed densely over every index."""
    return tuple(sum((a[i] * b[j] * table[i][j][k]
                      for i in range(len(a)) for j in range(len(b))), ZERO)
                 for k in range(dim))


# (rows, dim): the zero algebra, an action of the zero algebra on a nonzero
# module, square tables as for algebras, and module-shaped tables
CONTRACTION_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (3, 3), (2, 4), (4, 2)]


@pytest.mark.parametrize("rows,dim", CONTRACTION_SHAPES)
def test_contraction_matches_the_naive_sum(rows, dim):
    rng = random.Random(f"contract {rows} {dim}")
    for _ in range(25):
        table = sparse_table(rng, rows, dim)
        a, b = sparse_vector(rng, rows), sparse_vector(rng, dim)
        assert contract(table, dim, a, b) == naive_contract(table, dim, a, b)
        m = contract_matrix(table, dim, a)
        assert (m.rows, m.cols, len(m.entries)) == (dim, dim, dim)
        for j in range(dim):
            assert m.col(j) == naive_contract(table, dim, a, unit_vector(dim, j))
        assert m.apply(b) == contract(table, dim, a, b)


def test_contraction_checks_vector_lengths():
    table = sparse_table(random.Random("contract lengths"), 2, 3)
    with pytest.raises(ValueError):
        contract(table, 3, vec([1, 2, 3]), vec([1, 0, 0]))
    with pytest.raises(ValueError):
        contract(table, 3, vec([1, 2]), vec([1, 0]))
    with pytest.raises(ValueError):
        contract_matrix(table, 3, vec([1]))


def test_subspace_membership_and_coordinates():
    s = span(3, [[1, 0, 1], [0, 1, 1]])
    assert s.contains(vec([2, 3, 5]))
    assert not s.contains(vec([1, 0, 0]))
    assert s.coordinates(vec([2, 3, 5])) == vec([2, 3])
    assert s.coordinates(vec([1, 0, 0])) is None


def test_coordinates_refuse_a_vector_of_the_wrong_length():
    s = span(3, [[1, 0, 0]])
    assert s.coordinates(vec([2, 0, 0])) == vec([2])
    for v in (vec([2, 0, 0, 5, 7]), vec([2]), ()):
        with pytest.raises(DimensionMismatchError):
            s.coordinates(v)
        with pytest.raises(DimensionMismatchError):
            s.contains(v)


def full_residue_coordinates(s, v):
    """The reduction `Subspace.coordinates` did before it read coordinates
    at the leads: subtract every basis row from a full-length residue.
    Returns (residue, coordinates)."""
    residue, coords = list(v), []
    for b in s.basis:
        lead = next(j for j, x in enumerate(b) if x != 0)
        c = residue[lead]
        coords.append(c)
        if c != 0:
            residue = [x - c * y for x, y in zip(residue, b)]
    return residue, tuple(coords)


@st.composite
def subspaces_with_vectors(draw):
    """A subspace from `span`, `kernel` or `full_space` of a sparse random
    matrix, a random combination of its basis, and that member moved off
    along one unit vector."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    density = draw(st.sampled_from([0, 1, 2, 4]))
    entry = st.builds(lambda keep, num, den: F(num, den) if keep < density else ZERO,
                      st.integers(0, 3), st.integers(-6, 6), st.integers(1, 4))
    m = Matrix(rows, cols, tuple(tuple(draw(entry) for _ in range(cols))
                                 for _ in range(rows)))
    kind = draw(st.sampled_from(["span", "kernel", "full_space"]))
    s = {"span": lambda: span(cols, m.entries), "kernel": lambda: kernel(m),
         "full_space": lambda: full_space(cols)}[kind]()
    member = [ZERO] * cols
    for b in s.basis:
        c = draw(entry)
        member = [x + c * y for x, y in zip(member, b)]
    shift = draw(st.integers(0, cols - 1))
    moved = list(member)
    moved[shift] += draw(st.sampled_from([F(1), F(-2, 3), F(5)]))
    return s, tuple(member), shift, tuple(moved)


@seed(20131)
@settings(max_examples=150, deadline=None)
@given(subspaces_with_vectors())
def test_residue_and_coordinates_agree_with_the_full_residue(case):
    s, member, shift, moved = case
    n = s.ambient_dim
    # the stored basis is reduced echelon: canonical, and each lead column
    # is a unit column
    assert span(n, s.basis) == s
    assert list(s.leads) == sorted(set(s.leads))
    for i, lead in enumerate(s.leads):
        assert tuple(b[lead] for b in s.basis) == unit_vector(s.dim, i)
    free = [j for j in range(n) if j not in s.leads]
    assert list(s.free) == free
    for v in (member, moved) + tuple(unit_vector(n, j) for j in range(n)):
        residue, coords = full_residue_coordinates(s, v)
        assert all(residue[lead] == 0 for lead in s.leads)
        assert s.residue(v) == tuple(residue[j] for j in free)
        inside = not any(residue)
        assert s.coordinates(v) == (coords if inside else None)
        assert s.contains(v) is inside
    assert s.contains(member)
    assert s.contains(moved) is s.contains(unit_vector(n, shift))
    if shift in free:
        assert not s.contains(moved)


def test_residue_refuses_a_vector_of_the_wrong_length():
    s = span(3, [[1, 0, 1]])
    assert s.residue(vec([2, 5, 2])) == vec([5, 0])
    for v in (vec([2, 0, 0, 5]), vec([2]), ()):
        with pytest.raises(DimensionMismatchError):
            s.residue(v)


def test_full_space_round_trip():
    assert full_space(3).dim == 3
    assert quotient_space(3, span(3, [])).quotient_dim == 3
