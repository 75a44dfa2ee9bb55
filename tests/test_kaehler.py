"""Universal differential modules: dimensions, universality, presheaf glue.

Expected dimensions come from two independent routes: the gcd formula for
quotients of the one-variable polynomial ring (computed with sympy), and a
presentation count for the two-generator square-zero algebra.  The module
and its operator are compared with the I / I^2 and Leibniz constructions
in `kaehler_oracle` by the unique isomorphism between them, and the basis
is pinned where it is the textbook one: on truncated polynomial rings and
their tensor products the operator is the usual derivative.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from builders import (algebra_from_struct, constant_presheaf, discrete_space,
                      indiscrete_space, poly_quotient_algebra, sierpinski_space,
                      space_from_opens)
from kaehler_oracle import (factor_derivation_on_every_basis_vector,
                            ideal_square_module, kaehler_isomorphism,
                            leibniz_kaehler_module, multiplication_map,
                            random_derivations, restrict_scalars)
from triadica.algebra import (InvalidAlgebraError, ModuleSections,
                              function_algebra, tensor_product,
                              truncated_poly_algebra, validate_algebra)
from triadica.triad_axioms import validate_module_sections
from triadica.exactla import Matrix, kernel, rref, solve, span, unit_vector, vec
from triadica.finspace import InvalidTopologyError
from triadica.kaehler import (FactorizationFailed, NotADerivation,
                              derivation_space, factor_derivation,
                              kaehler_module, kaehler_presheaf)
from triadica.report import DimensionMismatchError
from triadica.sheaf import (InvalidPresheafError, check_sheaf_condition,
                            function_presheaf, make_presheaf,
                            validate_algebra_presheaf,
                            validate_presheaf_morphism)
from triadica.triad import check_leibniz, validate_triad
from triadica.uniqueness import constants_only_kernel

from support import free_module_sections, is_functional_triad, replace, scaled


def square_zero_algebra():
    # Q[x,y] with x^2 = xy = y^2 = 0
    z = [0, 0, 0]
    struct = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], z, z],
        [[0, 0, 1], z, z],
    ]
    return algebra_from_struct(struct, [1, 0, 0])


def jet_algebra(m, k):
    """Q[x_1..x_m]/(x_1..x_m)^(k+1), the k-jets in m variables, on the
    monomials of degree at most k, in degree order."""
    monomials = sorted((e for e in itertools.product(range(k + 1), repeat=m)
                        if sum(e) <= k), key=lambda e: (sum(e), [-x for x in e]))
    index = {e: i for i, e in enumerate(monomials)}

    def product(e, f):
        g = index.get(tuple(x + y for x, y in zip(e, f)))
        return [int(g == i) for i in range(len(monomials))]

    return algebra_from_struct([[product(e, f) for f in monomials]
                                for e in monomials],
                               [int(i == 0) for i in range(len(monomials))])


def random_conjugate(a, seed):
    """`a` in the basis f_c = sum_i p[i][c] e_i, for a seeded P = L U whose
    unit triangular factors have entries in {-2, -1, 1, 2}."""
    rng = random.Random(seed)
    n = a.dim
    lower = [[1 if i == j else rng.choice((-2, -1, 1, 2)) if j < i else 0
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.choice((-2, -1, 1, 2)) if j > i else 0
              for j in range(n)] for i in range(n)]
    p = Matrix.from_rows(lower) @ Matrix.from_rows(upper)
    p_inv = Matrix.from_columns(
        [solve(p, vec([int(r == c) for r in range(n)])).solution
         for c in range(n)], rows=n)
    struct = [[p_inv.apply(a.multiply(p.col(b), p.col(c))) for c in range(n)]
              for b in range(n)]
    return algebra_from_struct(struct, p_inv.apply(a.unit))


def monogenic_dim_oracle(coeffs):
    """deg gcd(f, f') over Q, via sympy."""
    x = sympy.symbols("x")
    f = sum(sympy.Rational(c) * x ** i for i, c in enumerate(coeffs))
    g = sympy.gcd(f, sympy.diff(f, x))
    deg = sympy.degree(g, x)
    return 0 if deg is sympy.S.NegativeInfinity else int(deg)


# ---------------------------------------------------------------------------
# dimensions


@pytest.mark.parametrize("coeffs", [
    [0, 1],            # x
    [0, 0, 1],         # x^2
    [0, 0, 0, 1],      # x^3
    [0, 0, 0, 0, 1],   # x^4
    [-1, 0, 1],        # x^2 - 1
    [-2, 0, 1],        # x^2 - 2, no rational points at all
    [1, 0, 1],         # x^2 + 1
    [2, -3, 0, 1],     # (x - 1)^2 (x + 2)
    [0, -1, 0, 1],     # x (x - 1) (x + 1)
])
def test_monogenic_dimension_matches_gcd_oracle(coeffs):
    a = poly_quotient_algebra(coeffs)
    assert kaehler_module(a).module.dim == monogenic_dim_oracle(coeffs)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_function_algebras_have_zero_differential_module(k):
    assert kaehler_module(function_algebra(k)).module.dim == 0


def test_square_zero_dimension_matches_presentation_count():
    # free module on dx, dy over the 3-dim algebra, modulo the images of
    # the defining relations x^2, xy, y^2 under the would-be operator
    relations = sympy.Matrix([
        [0, 2, 0, 0, 0, 0],   # 2 x dx
        [0, 0, 1, 0, 1, 0],   # y dx + x dy
        [0, 0, 0, 0, 0, 2],   # 2 y dy
    ])
    expected = 6 - relations.rank()
    assert expected == 3
    assert kaehler_module(square_zero_algebra()).module.dim == expected


def test_degenerate_algebra_has_empty_module():
    k = kaehler_module(function_algebra(0))
    assert k.module.dim == 0
    assert k.differential == Matrix.zeros(0, 0)


# ---------------------------------------------------------------------------
# structure of the dual-number and order-three modules


def test_dual_number_module_structure():
    a = truncated_poly_algebra(2)
    k = kaehler_module(a)
    assert k.module.dim == 1
    assert validate_module_sections(a, k.module).ok
    dx = k.differential.col(1)
    assert any(c != 0 for c in dx)
    assert k.module.act(vec([0, 1]), dx) == vec([0])
    assert check_leibniz(a, k.module, k.differential).ok


def test_order_three_module_structure():
    a = truncated_poly_algebra(3)
    k = kaehler_module(a)
    assert k.module.dim == 2
    x, x_sq = vec([0, 1, 0]), vec([0, 0, 1])
    dx = k.differential.col(1)
    assert all(c == 0 for c in k.differential.col(0))
    assert k.module.act(x_sq, dx) == vec([0, 0])
    assert k.differential.col(2) == tuple(2 * c for c in k.module.act(x, dx))
    # the operator image generates the module over the algebra
    assert span(2, [dx, k.module.act(x, dx)]).dim == 2


def test_ideal_bookkeeping_shapes():
    a = truncated_poly_algebra(2)
    k = kaehler_module(a)
    oracle = ideal_square_module(a)
    assert oracle.ideal.ambient_dim == 4
    assert oracle.ideal.dim == 2
    assert oracle.ideal == kernel(multiplication_map(a))
    assert oracle.ideal_square.ambient_dim == oracle.ideal.dim
    assert oracle.quotient.quotient_dim == k.module.dim
    kaehler_isomorphism(k, oracle)


ORACLE_ALGEBRAS = (
    [(f"truncated_poly {k}", truncated_poly_algebra(k)) for k in range(2, 7)]
    + [(f"function_algebra {k}", function_algebra(k)) for k in (0, 3, 4)]
    + [("square_zero", square_zero_algebra()),
       ("(x-1)^2(x+2)", poly_quotient_algebra([2, -3, 0, 1])),
       ("x^4+x^2", poly_quotient_algebra([0, 0, 1, 0, 1])),
       ("conjugate truncated_poly 4",
        random_conjugate(truncated_poly_algebra(4), seed=5)),
       ("conjugate function_algebra 4",
        random_conjugate(function_algebra(4), seed=6)),
       ("jets J(2,3)", jet_algebra(2, 3)), ("jets J(3,2)", jet_algebra(3, 2))])


@pytest.mark.parametrize("a", [a for _, a in ORACLE_ALGEBRAS],
                         ids=[name for name, _ in ORACLE_ALGEBRAS])
def test_presentation_matches_ideal_square_oracle(a):
    # the two bases differ, so the modules match by the unique isomorphism
    # that carries one operator to the other
    assert validate_algebra(a).ok
    kaehler_isomorphism(kaehler_module(a), ideal_square_module(a))


@pytest.mark.parametrize("a", [a for _, a in ORACLE_ALGEBRAS],
                         ids=[name for name, _ in ORACLE_ALGEBRAS])
def test_factoring_on_generators_matches_every_basis_vector(a):
    # both ways between the two constructions, and on the smaller algebras
    # a derivation into A^1
    k, other = kaehler_module(a), ideal_square_module(a)
    cases = [(k, other.module, other.differential),
             (other, k.module, k.differential)]
    target = free_module_sections(a, 1)
    if a.dim <= 6:
        cases += [(k, target, d) for d in random_derivations(a, target, 1, seed=3)]
    for source, target, d in cases:
        assert factor_derivation(source, target, d) == \
            factor_derivation_on_every_basis_vector(source, target, d)


def _tensor(*algebras):
    out = algebras[0]
    for a in algebras[1:]:
        out = tensor_product(out, a).algebra
    return out


T2, T3 = truncated_poly_algebra(2), truncated_poly_algebra(3)
LEIBNIZ_ALGEBRAS = (
    [(f"truncated_poly {k}", truncated_poly_algebra(k)) for k in (1, 2, 3, 5, 8, 10)]
    + [(f"function_algebra {k}", function_algebra(k)) for k in (0, 1, 3, 4)]
    + [("T2 (x) T2", _tensor(T2, T2)), ("T3 (x) T2", _tensor(T3, T2)),
       ("T2 (x) T2 (x) T2", _tensor(T2, T2, T2))]
    + [(f"conjugate truncated_poly {k}",
        random_conjugate(truncated_poly_algebra(k), seed=k)) for k in (4, 5, 6)]
    + [("conjugate function_algebra 4",
        random_conjugate(function_algebra(4), seed=4))])


@pytest.mark.parametrize("a", [a for _, a in LEIBNIZ_ALGEBRAS],
                         ids=[name for name, _ in LEIBNIZ_ALGEBRAS])
def test_generator_presentation_matches_leibniz_oracle(a):
    kaehler_isomorphism(kaehler_module(a), leibniz_kaehler_module(a))


@pytest.mark.parametrize("a,b", [(k, 1) for k in range(1, 9)]
                         + [(2, 3), (3, 2), (3, 3), (3, 4), (4, 3)])
def test_the_operator_is_the_usual_derivative(a, b):
    # Q[x]/(x^a) (x) Q[y]/(y^b), or Q[x]/(x^a) when b is 1, with x^p y^q as
    # basis vector p * b + q.  Omega is A dx + A dy modulo x^(a-1) dx and
    # y^(b-1) dy, so it has the standard basis x^p y^q dx (p < a - 1) and
    # x^p y^q dy (q < b - 1), and there d(x^p y^q) = p x^(p-1) y^q dx +
    # q x^p y^(q-1) dy.  By the chain rule, e_l dg_i is e_l (dg_i/dx dx +
    # dg_i/dy dy); written in those vectors, the operator must be the
    # derivative, with no sign or scale
    algebra = truncated_poly_algebra(a) if b == 1 else tensor_product(
        truncated_poly_algebra(a), truncated_poly_algebra(b)).algebra
    k = kaehler_module(algebra)
    n, sizes = a * b, (a, b)
    monomials = [divmod(m, b) for m in range(n)]
    standard = [(m, j) for m in monomials for j in (0, 1)
                if m[j] < sizes[j] - 1]

    def partial(w, j):
        out = [0] * n
        for m, c in zip(monomials, w):
            if m[j]:
                out[(m[0] - (j == 0)) * b + m[1] - (j == 1)] += c * m[j]
        return out

    def in_standard_basis(w, v):
        # w dx + v dy, modulo x^(a-1) dx and y^(b-1) dy
        forms = (w, v)
        return [forms[j][m[0] * b + m[1]] for m, j in standard]

    change = Matrix.from_columns(
        [in_standard_basis(*(algebra.multiply(unit_vector(n, l),
                                              partial(k.generators[i], j))
                             for j in (0, 1)))
         for l, i in k.basis], rows=len(standard))
    derivative = Matrix.from_columns(
        [in_standard_basis(*(partial(unit_vector(n, m), j) for j in (0, 1)))
         for m in range(n)], rows=len(standard))
    assert k.module.dim == len(standard)
    assert span(len(standard), change.transpose().entries).dim == len(standard)
    assert change @ k.differential == derivative
    if algebra.generating_basis is not None:
        # the generators are x and y, so each e_l dg_i is one x^p y^q dv
        assert all(sorted(c) == [0] * (len(c) - 1) + [1]
                   for c in change.transpose().entries)


def test_truncated_poly_8_needs_no_large_elimination(monkeypatch):
    # the Leibniz presentation of Q[x]/(x^8) reduces 196 x 64 relation rows;
    # on the generator x the only elimination is the 8 x 8 Jacobian span
    cells = []

    def counting(vectors, width):
        vectors = list(vectors)
        cells.append(len(vectors) * width)
        return rref(vectors, width)

    monkeypatch.setattr("triadica.exactla.rref", counting)
    monkeypatch.setattr("triadica.kaehler.rref", counting)
    kaehler_module(truncated_poly_algebra(8))
    assert cells and max(cells) <= 64


def test_presheaf_builds_each_distinct_module_once(monkeypatch):
    # the constant presheaf on discrete(3): truncated_poly 3 on seven opens
    # and the zero algebra on the empty one
    calls = []

    def counting(a):
        calls.append(a)
        return kaehler_module(a)

    monkeypatch.setattr("triadica.kaehler.kaehler_module", counting)
    res = kaehler_presheaf(constant_presheaf(discrete_space(3), T3))
    assert sorted(a.dim for a in calls) == [0, 3]
    assert [k.module.dim for k in res.per_open] == [2 if u else 0 for u in
                                                    discrete_space(3).opens]


def test_invalid_algebra_is_refused():
    # Q[x]/(x^2) with x declared as the unit: not a left unit
    a = algebra_from_struct(truncated_poly_algebra(2).struct, [0, 1])
    expected = validate_algebra(a).errors()[0]
    assert expected.message == "unit is not a left unit"
    with pytest.raises(InvalidAlgebraError) as exc:
        kaehler_module(a)
    assert exc.value.finding == expected


def test_presheaf_on_a_non_topology_is_refused_before_any_module(monkeypatch):
    # the presheaf of test_cli's non-topology test: {0} and {1} are open but
    # their union is not
    space = space_from_opens(3, [(), (0,), (1,), (0, 1, 2)])
    base = make_presheaf(
        space, [function_algebra(0), function_algebra(1), function_algebra(1),
                function_algebra(3)],
        {(3, 1): Matrix.from_rows([[1, 0, 0]]),
         (3, 2): Matrix.from_rows([[0, 1, 0]])})
    calls = []

    def counting(a):
        calls.append(a)
        return kaehler_module(a)

    monkeypatch.setattr("triadica.kaehler.kaehler_module", counting)
    with pytest.raises(InvalidTopologyError) as exc:
        kaehler_presheaf(base)
    assert str(exc.value) == "not a topology: opens[1]|opens[2]: union of opens is not open"
    assert calls == []


@pytest.mark.parametrize("sections,restrictions,message", [
    # the restriction to {0} doubles
    ([function_algebra(1), function_algebra(1)], {(2, 1): Matrix.from_rows([[2]])},
     "restriction 2->1: unit: unit is not preserved"),
    # Q[x]/(x^2) with x declared as the unit, over the whole space
    ([function_algebra(0), algebra_from_struct(truncated_poly_algebra(2).struct, [0, 1])],
     {(2, 1): Matrix.zeros(0, 2)}, "open 2: unit*e0: unit is not a left unit"),
], ids=["doubling_restriction", "broken_unit"])
def test_invalid_presheaf_is_refused_before_any_module(monkeypatch, sections,
                                                       restrictions, message):
    base = make_presheaf(sierpinski_space(), [function_algebra(0)] + sections,
                         restrictions)
    calls = []

    def counting(a):
        calls.append(a)
        return kaehler_module(a)

    monkeypatch.setattr("triadica.kaehler.kaehler_module", counting)
    with pytest.raises(InvalidPresheafError) as exc:
        kaehler_presheaf(base)
    assert exc.value.finding == validate_algebra_presheaf(base).errors()[0]
    assert str(exc.value) == f"not a valid presheaf: {message}"
    assert calls == []


# ---------------------------------------------------------------------------
# universal property


FACTOR_ALGEBRAS = [truncated_poly_algebra(2), truncated_poly_algebra(3),
                   square_zero_algebra(), poly_quotient_algebra([2, -3, 0, 1])]


@pytest.mark.parametrize("a", FACTOR_ALGEBRAS)
def test_every_derivation_factors_uniquely(a):
    k = kaehler_module(a)
    targets = [k.module, free_module_sections(a, 1), free_module_sections(a, 2)]
    for target in targets:
        for D in random_derivations(a, target, 3, seed=11):
            fact = factor_derivation(k, target, D)
            assert fact.unique
            assert fact.matrix @ k.differential == D
            for i in range(a.dim):
                e = vec([1 if t == i else 0 for t in range(a.dim)])
                left = fact.matrix @ k.module.act_matrix(e)
                right = target.act_matrix(e) @ fact.matrix
                assert left == right


def test_canonical_operator_factors_to_identity():
    for a in FACTOR_ALGEBRAS:
        k = kaehler_module(a)
        fact = factor_derivation(k, k.module, k.differential)
        assert fact.matrix == Matrix.identity(k.module.dim)
        assert fact.unique


def test_non_derivation_is_rejected():
    a = truncated_poly_algebra(3)
    k = kaehler_module(a)
    naive = Matrix.from_columns([vec([0, 0, 0]), vec([1, 0, 0]), vec([0, 2, 0])],
                                rows=3)
    with pytest.raises(NotADerivation) as exc:
        factor_derivation(k, free_module_sections(a, 1), naive)
    assert exc.value.finding.witness["pair"] == [1, 2]


def test_factorization_fails_for_doctored_operator():
    a = truncated_poly_algebra(3)
    k = kaehler_module(a)
    doctored = replace(k, differential=Matrix.zeros(2, 3))
    with pytest.raises(FactorizationFailed):
        factor_derivation(doctored, k.module, k.differential)


def test_an_operator_doctored_off_the_generators_is_refused():
    # d agrees with the universal operator on x, which generates Q[x]/(x^3),
    # but not on x^2: the system on the generator has a unique solution,
    # and the check on every basis vector refuses it
    a = truncated_poly_algebra(3)
    k = kaehler_module(a)
    assert a.generating_basis == (1,)
    cols = [k.differential.col(0), k.differential.col(1), vec([0, 0])]
    doctored = replace(k, differential=Matrix.from_columns(cols, rows=2))
    with pytest.raises(FactorizationFailed):
        factor_derivation(doctored, k.module, k.differential)
    with pytest.raises(FactorizationFailed):
        factor_derivation_on_every_basis_vector(doctored, k.module, k.differential)


def test_uniqueness_flag_drops_with_padded_module():
    # pad the module with a summand the operator image cannot reach
    a = truncated_poly_algebra(3)
    k = kaehler_module(a)
    chi = [Fraction(1), Fraction(0), Fraction(0)]  # evaluation at x = 0
    action = []
    for i in range(3):
        row = [tuple(k.module.action[i][j]) + (Fraction(0),) for j in range(2)]
        row.append((Fraction(0), Fraction(0), chi[i]))
        action.append(tuple(row))
    padded = ModuleSections(3, 3, tuple(action))
    assert validate_module_sections(a, padded).ok
    padded_d = Matrix.from_rows(k.differential.entries + (vec([0, 0, 0]),), cols=3)
    doctored = replace(k, module=padded, differential=padded_d)
    fact = factor_derivation(doctored, padded, padded_d)
    assert fact.matrix @ padded_d == padded_d
    assert not fact.unique


def test_wrong_algebra_module_rejected():
    k = kaehler_module(truncated_poly_algebra(2))
    with pytest.raises(DimensionMismatchError):
        factor_derivation(k, free_module_sections(function_algebra(3), 1),
                          Matrix.zeros(3, 3))


# ---------------------------------------------------------------------------
# derivation spaces


def test_derivation_space_dimensions():
    a2, a3 = truncated_poly_algebra(2), truncated_poly_algebra(3)
    assert len(derivation_space(a3, kaehler_module(a3).module)) == 2
    assert len(derivation_space(a3, free_module_sections(a3, 1))) == 2
    assert len(derivation_space(a2, kaehler_module(a2).module)) == 1
    q3 = function_algebra(3)
    assert len(derivation_space(q3, free_module_sections(q3, 1))) == 0


def test_derivation_space_members_are_derivations():
    a = square_zero_algebra()
    target = free_module_sections(a, 1)
    for d in derivation_space(a, target):
        assert check_leibniz(a, target, d).ok


def test_random_derivations_are_seeded_and_reproducible():
    a = truncated_poly_algebra(3)
    target = kaehler_module(a).module
    first = random_derivations(a, target, 4, seed=3)
    second = random_derivations(a, target, 4, seed=3)
    other = random_derivations(a, target, 4, seed=4)
    assert first == second
    assert len(first) == 4
    assert first != other
    for d in first:
        assert check_leibniz(a, target, d).ok


# ---------------------------------------------------------------------------
# change of scalars


def test_restrict_scalars_along_truncation():
    a3, a2 = truncated_poly_algebra(3), truncated_poly_algebra(2)
    trunc = Matrix.from_rows([[1, 0, 0], [0, 1, 0]], cols=3)
    k2, k3 = kaehler_module(a2), kaehler_module(a3)
    pulled = restrict_scalars(k2.module, trunc)
    assert validate_module_sections(a3, pulled).ok
    composite = k2.differential @ trunc
    fact = factor_derivation(k3, pulled, composite)
    assert fact.unique
    assert fact.matrix @ k3.differential == composite


# ---------------------------------------------------------------------------
# presheaf level


def test_presheaf_of_modules_over_constant_base():
    base = constant_presheaf(sierpinski_space(), truncated_poly_algebra(3))
    res = kaehler_presheaf(base)
    assert validate_triad(res.presheaf_triad).ok
    assert [m.dim for m in res.presheaf_triad.modules.sections] == [0, 2, 2]
    # identity base restrictions force identity module restrictions
    assert res.presheaf_triad.modules.restriction(2, 1) == Matrix.identity(2)
    assert validate_triad(res.sheaf_triad).ok
    assert [m.dim for m in res.sheaf_triad.modules.sections] == [0, 2, 2]
    assert res.per_open[2].module.dim == 2
    assert validate_presheaf_morphism(res.base_sheafification.canonical).ok
    assert validate_presheaf_morphism(res.module_sheafification.canonical).ok


def _oracle_presheaves():
    spaces = [("sierpinski", sierpinski_space()),
              ("discrete(2)", discrete_space(2)),
              ("indiscrete(2)", indiscrete_space(2))]
    algebras = ([(f"T{k}", truncated_poly_algebra(k)) for k in range(2, 6)]
                + [("square_zero", square_zero_algebra()),
                   ("conjugate T4", random_conjugate(truncated_poly_algebra(4), seed=4)),
                   ("conjugate function_algebra 3",
                    random_conjugate(function_algebra(3), seed=3))])
    out = [(f"constant {name} over {space_name}", constant_presheaf(space, a))
           for space_name, space in spaces for name, a in algebras]
    out.append(("function presheaf over discrete(3)",
                function_presheaf(discrete_space(3))))
    out.append(("constant conjugate T3 over discrete(3)",
                constant_presheaf(discrete_space(3),
                                  random_conjugate(truncated_poly_algebra(3), seed=7))))
    # the truncation Q[x]/(x^3) -> Q[x]/(x^2) from the whole space to {1}
    out.append(("truncation T3 -> T2 over sierpinski", make_presheaf(
        sierpinski_space(), [function_algebra(0), T2, T3],
        {(2, 1): Matrix.from_rows([[1, 0, 0], [0, 1, 0]], cols=3)})))
    return out


ORACLE_PRESHEAVES = _oracle_presheaves()


@pytest.mark.parametrize("base", [p for _, p in ORACLE_PRESHEAVES],
                         ids=[name for name, _ in ORACLE_PRESHEAVES])
def test_presheaf_restrictions_match_factor_derivation(base):
    # each module restriction u -> v is the unique module map that factors
    # d_v . r through d_u, as factor_derivation solves for it
    res = kaehler_presheaf(base)
    modules = res.presheaf_triad.modules
    for u, v in base.space.inclusion_pairs:
        if u != v:
            ku, kv = res.per_open[u], res.per_open[v]
            r = base.restriction(u, v)
            fact = factor_derivation(ku, restrict_scalars(kv.module, r),
                                     kv.differential @ r)
            assert fact.unique
            assert modules.restriction(u, v) == fact.matrix, (u, v)


def test_truncation_restriction_is_not_the_identity():
    base = dict(ORACLE_PRESHEAVES)["truncation T3 -> T2 over sierpinski"]
    res = kaehler_presheaf(base)
    # dx goes to dx and x dx to x dx = 0 in Omega of Q[x]/(x^2)
    restriction = res.presheaf_triad.modules.restriction(2, 1)
    assert (restriction.rows, restriction.cols) == (1, 2)
    assert restriction @ res.per_open[2].differential == \
        res.per_open[1].differential @ base.restriction(2, 1)
    assert validate_triad(res.presheaf_triad).ok


def test_presheaf_restrictions_need_no_solve(monkeypatch):
    calls = []

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapped

    monkeypatch.setattr("triadica.kaehler.factor_derivation",
                        counting("factor_derivation", factor_derivation))
    monkeypatch.setattr("triadica.kaehler.solve", counting("solve", solve))
    monkeypatch.setattr("triadica.exactla.solve", counting("solve", solve))
    res = kaehler_presheaf(constant_presheaf(discrete_space(3), T3))
    assert calls == []
    assert res.presheaf_triad.modules.restriction(7, 1) == Matrix.identity(2)


def test_function_base_gives_functional_triad():
    res = kaehler_presheaf(function_presheaf(discrete_space(2)))
    assert all(m.dim == 0 for m in res.presheaf_triad.modules.sections)
    assert validate_triad(res.sheaf_triad).ok
    assert is_functional_triad(res.sheaf_triad)


def test_sheafification_glues_module_sections():
    base = constant_presheaf(discrete_space(2), truncated_poly_algebra(2))
    res = kaehler_presheaf(base)
    assert [m.dim for m in res.presheaf_triad.modules.sections] == [0, 1, 1, 1]
    assert [m.dim for m in res.sheaf_triad.modules.sections] == [0, 1, 1, 2]
    assert not check_sheaf_condition(res.presheaf_triad.modules).is_sheaf
    assert check_sheaf_condition(res.sheaf_triad.modules).is_sheaf
    assert validate_triad(res.sheaf_triad).ok


def test_dual_number_triad_kernel_is_constants():
    base = constant_presheaf(sierpinski_space(), truncated_poly_algebra(2))
    res = kaehler_presheaf(base)
    assert constants_only_kernel(res.presheaf_triad)


def test_doubled_operator_factors_to_doubled_identity():
    a = truncated_poly_algebra(3)
    k = kaehler_module(a)
    phi = factor_derivation(k, k.module, scaled(k.differential, Fraction(2)))
    assert phi.unique
    assert phi.matrix == scaled(Matrix.identity(k.module.dim), Fraction(2))


@pytest.mark.parametrize("a", [truncated_poly_algebra(2),
                               truncated_poly_algebra(3),
                               function_algebra(3),
                               poly_quotient_algebra([2, -3, 0, 1])])
def test_module_dimension_bounds(a):
    # mult: A(x)A -> A is onto (it hits a at 1(x)a), so the kernel has
    # dimension exactly n^2 - n and the quotient can only be smaller
    k = kaehler_module(a)
    oracle = ideal_square_module(a)
    n = a.dim
    assert oracle.ideal.dim == n * n - n
    assert k.module.dim <= oracle.ideal.dim
    kaehler_isomorphism(k, oracle)


def _tensor_lift(k, idx):
    # module basis vector -> ideal coordinates -> ambient tensor coordinates;
    # k is the I / I^2 oracle, which keeps the quotient data
    in_ideal = k.quotient.section.apply(
        tuple(Fraction(1) if t == idx else Fraction(0)
              for t in range(k.module.dim)))
    amb = [Fraction(0)] * (k.algebra.dim ** 2)
    for c, b in zip(in_ideal, k.ideal.basis):
        if c != 0:
            amb = [x + c * y for x, y in zip(amb, b)]
    return tuple(amb)


@pytest.mark.parametrize("a", [truncated_poly_algebra(3), None])
def test_left_and_right_actions_agree_on_the_quotient(a):
    # (x(x)1 - 1(x)x) I lies in I^2, so both actions induce the same module
    if a is None:
        a = square_zero_algebra()
    k = ideal_square_module(a)
    n = a.dim
    t = tensor_product(a, a)
    for i in range(n):
        left = [Fraction(0)] * (n * n)
        right = [Fraction(0)] * (n * n)
        for j, uj in enumerate(a.unit):
            if uj != 0:
                left[i * n + j] += uj
                right[j * n + i] += uj
        for idx in range(k.module.dim):
            lift = _tensor_lift(k, idx)
            lp = t.algebra.multiply(tuple(left), lift)
            rp = t.algebra.multiply(tuple(right), lift)
            lc = k.quotient.projection.apply(k.ideal.coordinates(lp))
            rc = k.quotient.projection.apply(k.ideal.coordinates(rp))
            assert lc == rc


def test_mixed_base_over_two_discrete_points():
    # dual numbers on one point, plain rationals on the other, their product
    # as global sections: already a sheaf, and the module layer follows suit
    space = discrete_space(2)
    dual = truncated_poly_algebra(2)
    z = [0, 0, 0]
    prod = algebra_from_struct([
        [[1, 0, 0], [0, 1, 0], z],
        [[0, 1, 0], z, z],
        [z, z, [0, 0, 1]],
    ], [1, 0, 1])
    empty = function_algebra(0)
    by_open = {frozenset(): empty, frozenset({0}): dual,
               frozenset({1}): function_algebra(1), frozenset({0, 1}): prod}
    sections = [by_open[u] for u in space.opens]
    full = space.open_index(frozenset({0, 1}))
    u0 = space.open_index(frozenset({0}))
    u1 = space.open_index(frozenset({1}))
    table = {(full, u0): Matrix.from_rows([[1, 0, 0], [0, 1, 0]], cols=3),
             (full, u1): Matrix.from_rows([[0, 0, 1]], cols=3)}
    base = make_presheaf(space, sections, table)
    assert check_sheaf_condition(base).is_sheaf
    result = kaehler_presheaf(base)
    dims = [result.presheaf_triad.modules.section_dim(u)
            for u in range(len(space.opens))]
    by_dim = {space.opens[u]: d for u, d in zip(range(len(space.opens)), dims)}
    assert by_dim[frozenset({0})] == 1
    assert by_dim[frozenset({1})] == 0
    assert by_dim[frozenset({0, 1})] == 1
    assert validate_triad(result.sheaf_triad).ok
    for layer in (result.sheaf_triad.algebras, result.sheaf_triad.modules):
        assert check_sheaf_condition(layer).is_sheaf
    sheaf_dims = [result.sheaf_triad.modules.section_dim(u)
                  for u in range(len(space.opens))]
    assert sheaf_dims == dims  # nothing to repair
