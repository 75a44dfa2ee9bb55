"""Leibniz validation, triad structure checks, pushforward of triads."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triadica.algebra import function_algebra, truncated_poly_algebra
from triadica.errors import DimensionMismatchError
from triadica.exactla import ONE, ZERO, Matrix, kernel, span, vec
from triadica.finspace import (ContinuousMap, constant_map, discrete_space,
                               indiscrete_space, sierpinski_space)
from triadica.sheaf import (ModuleSections, Presheaf, check_sheaf_condition,
                            zero_module_presheaf, zero_module_sections)
from triadica.triad import (DifferentialTriad, NotFunctional, check_leibniz,
                            constant_triad, constants_only_kernel,
                            function_triad, pushforward_triad,
                            require_functional, validate_triad)

from support import free_module_sections, is_functional_triad, scaled

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def dual_number_differentials():
    """Q[x]/(x^2) with its one-dimensional module Q.dx where x.dx = 0."""
    a = truncated_poly_algebra(2)
    omega = ModuleSections(2, 1, ((vec([1]),), (vec([0]),)))
    d = Matrix.from_rows([[ZERO, ONE]], cols=2)
    return a, omega, d


def order_three_differentials():
    """Q[x]/(x^3) with module spanned by dx, x.dx and x^2.dx = 0."""
    a = truncated_poly_algebra(3)
    omega = ModuleSections(3, 2, (
        (vec([1, 0]), vec([0, 1])),
        (vec([0, 1]), vec([0, 0])),
        (vec([0, 0]), vec([0, 0]))))
    d = Matrix.from_rows([[0, 1, 0], [0, 0, 2]], cols=3)
    return a, omega, d


# ---------------------------------------------------------------------------
# Leibniz rule


def test_derivative_on_dual_numbers_is_leibniz():
    a, omega, d = dual_number_differentials()
    assert check_leibniz(a, omega, d).ok


def test_derivative_on_order_three_is_leibniz():
    a, omega, d = order_three_differentials()
    assert check_leibniz(a, omega, d).ok


def test_naive_truncated_derivative_fails_at_first_bad_pair():
    # d/dx into the free rank-1 module ignores that x.x^2 is truncated to 0
    a = truncated_poly_algebra(3)
    m = free_module_sections(a, 1)
    d = Matrix.from_columns([vec([0, 0, 0]), vec([1, 0, 0]), vec([0, 2, 0])],
                            rows=3)
    report = check_leibniz(a, m, d)
    assert not report.ok
    assert len(report.findings) == 1  # scan stops at the first violation
    witness = report.findings[0].witness
    assert witness["pair"] == [1, 2]
    assert witness["defect"] == ["0", "0", "-3"]


def test_zero_map_is_always_leibniz():
    a = function_algebra(3)
    m = free_module_sections(a, 1)
    assert check_leibniz(a, m, Matrix.zeros(3, 3)).ok


def test_degenerate_algebra_leibniz_trivially():
    a = function_algebra(0)
    m = ModuleSections(0, 0, ())
    assert check_leibniz(a, m, Matrix.zeros(0, 0)).ok


@settings(max_examples=40, deadline=None)
@given(rationals, rationals)
def test_order_three_derivations_are_a_plane(alpha, beta):
    # a derivation is freely determined by the image of x
    a, omega, _ = order_three_differentials()
    d = Matrix.from_columns(
        [vec([0, 0]), vec([alpha, beta]), vec([0, 2 * alpha])], rows=2)
    assert check_leibniz(a, omega, d).ok


@settings(max_examples=25, deadline=None)
@given(rationals)
def test_scaled_derivation_stays_a_derivation(c):
    a, omega, d = dual_number_differentials()
    assert check_leibniz(a, omega, scaled(d, c)).ok


# ---------------------------------------------------------------------------
# triad validation


SPACES = [sierpinski_space(), discrete_space(2), discrete_space(3),
          indiscrete_space(2)]


@pytest.mark.parametrize("space", SPACES)
def test_function_triad_is_valid_and_functional(space):
    t = function_triad(space)
    assert validate_triad(t).ok
    assert is_functional_triad(t)
    require_functional(t)


def test_constant_triad_with_dual_numbers_is_valid():
    a, omega, d = dual_number_differentials()
    t = constant_triad(sierpinski_space(), a, omega, d)
    assert validate_triad(t).ok
    assert not is_functional_triad(t)


def test_differential_restriction_square_violation_reported():
    a, omega, d = dual_number_differentials()
    good = constant_triad(sierpinski_space(), a, omega, d)
    diffs = list(good.differentials)
    diffs[1] = scaled(d, Fraction(2))  # inconsistent operator on the small open
    bad = DifferentialTriad(good.algebras, good.modules, tuple(diffs))
    report = validate_triad(bad)
    assert not report.ok
    assert any("inclusion 2->1" in f.location and "commute" in f.message
               for f in report.errors())


def test_leibniz_violation_located_per_open():
    a = truncated_poly_algebra(3)
    m = free_module_sections(a, 1)
    d = Matrix.from_columns([vec([0, 0, 0]), vec([1, 0, 0]), vec([0, 2, 0])],
                            rows=3)
    t = constant_triad(indiscrete_space(1), a, m, d)
    report = validate_triad(t)
    assert not report.ok
    assert any("open 1" in f.location and "pair (1,2)" in f.location
               for f in report.errors())


def test_shape_mismatch_rejected():
    a, omega, d = dual_number_differentials()
    good = constant_triad(sierpinski_space(), a, omega, d)
    wrong = list(good.differentials)
    wrong[2] = Matrix.zeros(2, 2)
    with pytest.raises(DimensionMismatchError):
        DifferentialTriad(good.algebras, good.modules, tuple(wrong))
    with pytest.raises(DimensionMismatchError):
        DifferentialTriad(good.algebras, good.modules, good.differentials[:2])


def test_module_over_foreign_base_rejected():
    a, omega, d = dual_number_differentials()
    t = constant_triad(sierpinski_space(), a, omega, d)
    other = function_triad(sierpinski_space())
    with pytest.raises(DimensionMismatchError):
        DifferentialTriad(other.algebras, t.modules, t.differentials)


def test_validation_reports_a_defect_of_the_algebra_layer():
    sp = indiscrete_space(1)
    q = function_algebra(1)
    table = {pair: Matrix.identity(1) for pair in sp.inclusion_pairs()}
    algebras = Presheaf(sp, (q, q), table)  # nonzero over the empty set
    modules = zero_module_presheaf(algebras)
    diffs = (Matrix.zeros(0, 1), Matrix.zeros(0, 1))
    t = DifferentialTriad(algebras, modules, diffs)
    # the Leibniz rule and the differential squares hold; the one error is
    # the presheaf's
    assert [(f.location, f.message) for f in validate_triad(t).errors()] == [
        ("validate_algebra_presheaf: open 0",
         "sections over the empty set must be the zero algebra")]


# ---------------------------------------------------------------------------
# kernels


def test_dual_number_triad_has_constants_only_kernel():
    a, omega, d = dual_number_differentials()
    t = constant_triad(sierpinski_space(), a, omega, d)
    assert constants_only_kernel(t)
    full = t.space.open_index(frozenset({0, 1}))
    assert kernel(t.differentials[full]) == span(2, [a.unit])


def test_function_triad_kernel_is_everything():
    t = function_triad(discrete_space(2))
    assert not constants_only_kernel(t)
    full = t.space.open_index(frozenset({0, 1}))
    assert kernel(t.differentials[full]).dim == 2


def test_point_function_triad_has_constants_only_kernel():
    assert constants_only_kernel(function_triad(discrete_space(1)))


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_triad_collapse():
    a, omega, d = dual_number_differentials()
    t = constant_triad(sierpinski_space(), a, omega, d)
    f = constant_map(sierpinski_space(), discrete_space(1), 0)
    image = pushforward_triad(f, t)
    assert validate_triad(image).ok
    assert [x.dim for x in image.algebras.sections] == [0, 2]
    assert image.differentials[1] == d


def test_pushforward_preserves_functional_triads():
    source = discrete_space(2)
    t = function_triad(source)
    for target in (sierpinski_space(), discrete_space(2)):
        for values in ((0, 0), (0, 1), (1, 1)):
            if max(values) >= target.point_count:
                continue
            f = ContinuousMap(source, target, values)
            image = pushforward_triad(f, t)
            assert validate_triad(image).ok
            assert is_functional_triad(image)


def test_pushforward_triad_functoriality():
    x, y, z = discrete_space(2), discrete_space(2), sierpinski_space()
    t = function_triad(x)
    f = ContinuousMap(x, y, (1, 0))
    g = ContinuousMap(y, z, (0, 1))
    gf = ContinuousMap(x, z, tuple(g.values[f.values[p]] for p in range(2)))
    assert pushforward_triad(gf, t) == pushforward_triad(g, pushforward_triad(f, t))


def test_differential_must_annihilate_unit():
    a, omega, _ = dual_number_differentials()
    bad = Matrix.from_rows([[ONE, ONE]], cols=2)
    t = constant_triad(indiscrete_space(1), a, omega, bad)
    report = validate_triad(t)
    assert any("unit" in f.location and "annihilate" in f.message
               for f in report.errors())


@settings(max_examples=30, deadline=None)
@given(st.lists(rationals, min_size=3, max_size=3),
       st.lists(rationals, min_size=3, max_size=3))
def test_leibniz_deviation_is_bilinear(xs, ys):
    # justifies checking the rule on basis pairs only
    a = truncated_poly_algebra(3)
    m = free_module_sections(a, 1)
    d = Matrix.from_columns([vec([0, 0, 0]), vec([1, 0, 0]), vec([0, 2, 0])],
                            rows=3)

    def deviation(x, y):
        lhs = d.apply(a.multiply(x, y))
        rhs = tuple(p + q for p, q in zip(m.act(x, d.apply(y)),
                                          m.act(y, d.apply(x))))
        return tuple(p - q for p, q in zip(lhs, rhs))

    basis = [vec([1 if i == t else 0 for t in range(3)]) for i in range(3)]
    direct = deviation(vec(xs), vec(ys))
    combo = [Fraction(0)] * 3
    for i in range(3):
        for j in range(3):
            dev = deviation(basis[i], basis[j])
            for r in range(3):
                combo[r] += xs[i] * ys[j] * dev[r]
    assert list(direct) == combo


# ---------------------------------------------------------------------------
# sheaf requirement


def test_require_sheaf_flags_constant_presheaf_over_discrete():
    q = function_algebra(1)
    t = constant_triad(discrete_space(2), q, zero_module_sections(1),
                       Matrix.zeros(0, 1))
    assert validate_triad(t).ok  # a perfectly fine presheaf triad
    algebra_layer = check_sheaf_condition(t.algebras)
    assert not algebra_layer.is_sheaf
    assert [(w.open_index, w.kind) for w in algebra_layer.witnesses] == [
        (t.space.open_index(frozenset({0, 1})), "gluing_fails")]
    assert check_sheaf_condition(t.modules).is_sheaf


def test_require_sheaf_accepts_function_triads():
    for space in SPACES:
        t = function_triad(space)
        assert validate_triad(t).ok
        for layer in (t.algebras, t.modules):
            assert check_sheaf_condition(layer).is_sheaf


# ---------------------------------------------------------------------------
# functional structure


def test_as_functional_rejects_abstract_algebras():
    a, omega, d = dual_number_differentials()
    t = constant_triad(sierpinski_space(), a, omega, d)
    with pytest.raises(NotFunctional) as err:
        require_functional(t)
    assert str(err.value) == "A over open 1 is not the function algebra on 1 points"


def test_require_functional_names_a_restriction_that_is_not_coordinate_selection():
    # the function algebras on every open, but the whole Sierpinski space
    # restricts to {0} by reading the value at 1 instead of at 0
    space = sierpinski_space()
    functions = function_triad(space).algebras
    full, left = space.open_index(frozenset({0, 1})), space.open_index(frozenset({0}))
    table = dict(functions.restrictions)
    table[(full, left)] = Matrix.from_rows([[0, 1]], cols=2)
    algebras = Presheaf(space, functions.sections, table)
    t = DifferentialTriad(algebras, zero_module_presheaf(algebras),
                          function_triad(space).differentials)
    with pytest.raises(NotFunctional) as err:
        require_functional(t)
    assert f"inclusion {full}->{left}" in str(err.value)


def test_kernel_is_constants_only_per_open():
    a, omega, d = dual_number_differentials()
    t = constant_triad(sierpinski_space(), a, omega, d)
    assert kernel(t.differentials[1]) == span(2, [a.unit])
    assert kernel(t.differentials[2]) == span(2, [a.unit])
    f = function_triad(discrete_space(2))
    full = f.space.open_index(frozenset({0, 1}))
    sing = f.space.open_index(frozenset({0}))
    assert kernel(f.differentials[full]) != span(2, [f.algebras.sections[full].unit])
    assert kernel(f.differentials[sing]) == span(1, [f.algebras.sections[sing].unit])
