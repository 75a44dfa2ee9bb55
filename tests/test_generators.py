"""The checks run on algebra generators first give the full scans' verdicts.

Each multiplicative check (associativity, the module action, algebra maps,
the Leibniz rule) first runs with one factor over the generators of the
algebra's basis presentation, and over the whole basis when that finds
anything.  The full scan is the same code on every basis index, so it is
the oracle: forcing `generating_basis` to None, or passing every index,
runs it.  The inputs are every builder algebra up to dimension 8, the same
algebras in seeded random bases, a tensor product of truncated algebras
(two generators), their Kaehler modules, Leibniz operators and algebra maps,
each with seeded corruptions.  The generating basis of each valid algebra
is the greedy choice over the left closure of `algebra_oracle`, and a
non-associative algebra on which the Buchberger-Moeller span stops short
of that closure still gets the full scan's report.
"""

import random
from fractions import Fraction

import pytest

from algebra_oracle import closure, greedy_generators
from builders import poly_quotient_algebra
from kaehler_oracle import kaehler_isomorphism
from triadica.algebra import (Algebra, AlgebraMorphism, ModuleSections,
                              basis_pairs, function_algebra, generators_first,
                              morphism_findings, standard_monomials,
                              tensor_product, truncated_poly_algebra,
                              validate_algebra, validate_algebra_morphism)
from triadica.triad_axioms import action_findings, leibniz_errors
from triadica.exactla import Matrix, solve, unit_vector, vec
from triadica.kaehler import kaehler_module

NUDGES = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-1, 3)]


def full_scan(a: Algebra) -> Algebra:
    """A copy of `a` with no generating basis, so every check on it runs the
    full scan."""
    b = Algebra(a.dim, a.struct, a.unit)
    b.__dict__["generating_basis"] = None
    return b


def in_basis(a: Algebra, p: Matrix) -> Algebra:
    """`a` in the basis of p's columns (p invertible)."""
    n = a.dim
    inverse = Matrix.from_columns([solve(p, unit_vector(n, i)).solution for i in range(n)],
                                  rows=n)
    struct = [[inverse.apply(a.multiply(p.col(i), p.col(j))) for j in range(n)]
              for i in range(n)]
    return Algebra(n, tuple(tuple(row) for row in struct), inverse.apply(a.unit))


def random_basis(rng: random.Random, n: int) -> Matrix:
    """A seeded invertible matrix: unit upper triangular with small entries,
    its columns shuffled."""
    rows = [[Fraction(1) if i == j else Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
             for j in range(n)] for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    return Matrix.from_rows([[row[j] for j in order] for row in rows], cols=n)


BUILDERS = {
    **{f"F{k}": function_algebra(k) for k in range(9)},
    **{f"T{k}": truncated_poly_algebra(k) for k in range(1, 9)},
    "Q[x]/(x^3-2)": poly_quotient_algebra([-2, 0, 0, 1]),
    "Q[x]/(x^4-x)": poly_quotient_algebra([0, -1, 0, 0, 1]),
    "T2xT3": tensor_product(truncated_poly_algebra(2), truncated_poly_algebra(3)).algebra,
    "T3xT3": tensor_product(truncated_poly_algebra(3), truncated_poly_algebra(3)).algebra,
}
RANDOM_BASIS = {
    f"R{name}": in_basis(a, random_basis(random.Random(f"basis {name}"), a.dim))
    for name, a in BUILDERS.items() if name in ("F4", "T4", "T6", "T8", "T2xT3")
}
ALGEBRAS = {**BUILDERS, **RANDOM_BASIS}


def nudged_struct(a: Algebra, rng: random.Random) -> Algebra:
    """`a` with one structure constant and its mirror moved alike, so the
    product stays commutative."""
    n = a.dim
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    delta = rng.choice(NUDGES)
    struct = [[list(v) for v in row] for row in a.struct]
    struct[i][j][k] += delta
    if i != j:
        struct[j][i][k] += delta
    return Algebra(n, tuple(tuple(vec(v) for v in row) for row in struct), a.unit)


def nudged(m: Matrix, rng: random.Random) -> Matrix:
    rows = [list(row) for row in m.entries]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.choice(NUDGES)
    return Matrix.from_rows(rows, cols=m.cols)


def spanned(a: Algebra, gens) -> int:
    """The dimension of the Buchberger-Moeller span of basis vectors `gens`."""
    return len(standard_monomials(a, [unit_vector(a.dim, g) for g in gens])[0])


def generator_count(a: Algebra):
    gens = a.generating_basis
    return None if gens is None else len(gens)


def test_presentations_of_the_builder_algebras():
    counts = {name: generator_count(a) for name, a in ALGEBRAS.items()}
    # x generates Q[x]/(x^k); Q^k needs k - 1 basis vectors, too many
    assert all(counts[f"T{k}"] == (0 if k == 1 else None if k == 2 else 1)
               for k in range(1, 9))
    assert [counts[f"F{k}"] for k in range(9)] == [0, 0] + [None] * 7
    assert counts["T3xT3"] == counts["T2xT3"] == 2
    assert counts["RT4"] == counts["RT8"] == 1
    for name, a in ALGEBRAS.items():
        gens = a.generating_basis
        if gens is not None:
            assert spanned(a, gens) == a.dim
            assert all(spanned(a, gens[:i]) < a.dim for i in range(len(gens)))


def test_function_algebras_pay_for_no_closure(monkeypatch):
    # in Q^n no basis vector is in a product of basis vectors but its own
    # square, so n - 1 of them would be needed: the search gives up at once
    def refuse(a, gens):
        raise AssertionError("closure computed")

    monkeypatch.setattr("triadica.algebra.standard_monomials", refuse)
    for k in range(2, 9):
        assert Algebra(k, function_algebra(k).struct, function_algebra(k).unit) \
            .generating_basis is None


@pytest.mark.parametrize("name,gens,tried", [
    # basis x^i y^j at 3 i + j: no basis vector alone spans everything and
    # 1 (x) y is the first that spans most; x (x) 1 then completes it
    ("T3xT3", (1, 3), [0] + [1] * 8 + [2]),
    # the first vector outside 1 spans 2 dimensions, the second all 4
    ("RF4", (1,), [0, 1, 1]),
], ids=["T3xT3", "RF4"])
def test_the_search_stops_at_the_first_generator_that_spans_everything(
        monkeypatch, name, gens, tried):
    sizes = []

    def counted(a, gens):
        sizes.append(len(gens))
        return standard_monomials(a, gens)

    monkeypatch.setattr("triadica.algebra.standard_monomials", counted)
    a = ALGEBRAS[name]
    assert Algebra(a.dim, a.struct, a.unit).generating_basis == gens
    assert sizes == tried


@pytest.mark.parametrize("name,passes", [("T8", 2), ("T3xT3", 10), ("F4", 1)])
def test_the_kaehler_module_reuses_the_pass_that_found_the_generators(
        monkeypatch, name, passes):
    # the search runs [] and [x] on Q[x]/(x^8), and the ten passes of the
    # test above on T3xT3; Q^4 has no generating basis, so kaehler_module
    # runs its own pass on one generic element, which generates it.  With
    # no presentation kaehler_module picks other generators, so the two
    # modules agree by the unique isomorphism between them
    widths = []

    def counted(a, gens):
        widths.append(len(gens))
        return standard_monomials(a, gens)

    monkeypatch.setattr("triadica.algebra.standard_monomials", counted)
    monkeypatch.setattr("triadica.kaehler.standard_monomials", counted)
    a = BUILDERS[name]
    k = kaehler_module(Algebra(a.dim, a.struct, a.unit))
    assert len(widths) == passes
    unpresented = Algebra(a.dim, a.struct, a.unit)
    unpresented.__dict__["presentation"] = None
    kaehler_isomorphism(kaehler_module(unpresented), k)


def test_a_closure_that_stops_short_is_extended_by_a_generator():
    # 1 (x) y alone generates Q[y]/(y^3) inside Q[x]/(x^3) (x) Q[y]/(y^3)
    a = BUILDERS["T3xT3"]
    assert spanned(a, [1]) == closure(a, [1]).dim == 3
    assert a.generating_basis == (1, 3)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_validate_algebra_matches_the_full_scan(name):
    a = ALGEBRAS[name]
    rng = random.Random(f"algebra {name}")
    cases = [a] + [nudged_struct(a, rng) for _ in range(6 if a.dim else 0)]
    refused = 0
    for b in cases:
        report = validate_algebra(b)
        assert report == validate_algebra(full_scan(b))
        refused += not report.ok
        # on a valid algebra the Buchberger-Moeller span of any basis
        # vectors is their left closure, so the greedy choices agree
        if report.ok:
            assert b.generating_basis == greedy_generators(b)
    assert validate_algebra(a).ok
    assert refused >= min(len(cases) - 1, 3)


def test_a_non_associative_algebra_passes_on_its_generator_alone():
    # basis 1, x, y with x^2 = y, xy = 0, y^2 = 1: x generates it and
    # (xx)x = x(xx) = 0, but (xx)y = 1 while x(xy) = 0
    one, x, y = (vec(unit_vector(3, i)) for i in range(3))
    zero = vec([0, 0, 0])
    a = Algebra(3, ((one, x, y), (x, y, zero), (y, zero, one)), one)
    assert a.generating_basis == (1,) and spanned(a, [1]) == 3
    assert a.multiply(a.multiply(x, x), x) == a.multiply(x, a.multiply(x, x))
    report = validate_algebra(a)
    assert report == validate_algebra(full_scan(a)) and not report.ok
    assert "basis (1,1,2)" in [f.location for f in report.findings]
    # each witness is the failing triple its location names
    for f in report.findings:
        i, j, k = f.witness
        assert f.location == f"basis ({i},{j},{k})"
        assert a.multiply(a.struct[i][j], unit_vector(3, k)) \
            != a.multiply(unit_vector(3, i), a.struct[j][k])


def non_associative_pruned(rng: random.Random) -> Algebra:
    """The first commutative algebra of dimension 5, unit e0, other products
    of basis vectors with entries in {0, 1, -1} drawn from `rng`, in which
    the Buchberger-Moeller span of e1, e2 stops at 4 dimensions while their
    left closure is everything."""
    n = 5
    while True:
        struct = [[unit_vector(n, max(i, j)) if min(i, j) == 0 else None
                   for j in range(n)] for i in range(n)]
        for i in range(1, n):
            for j in range(i, n):
                struct[i][j] = struct[j][i] = vec(rng.choice((-1, 0, 1)) for _ in range(n))
        a = Algebra(n, tuple(map(tuple, struct)), unit_vector(n, 0))
        if spanned(a, [1, 2]) == 4 and closure(a, [1, 2]).dim == 5:
            return a


def test_a_pass_that_stops_short_of_the_closure_leaves_the_report_alone():
    # monomials divisible by a relation's are pruned, which is sound only
    # when the product is associative: here the pass misses a product that
    # the closure reaches, and validate_algebra's report is the full scan's
    a = non_associative_pruned(random.Random(7))
    report = validate_algebra(a)
    assert not report.ok
    assert report == validate_algebra(full_scan(a))


def kaehler_cases():
    return [(name, kaehler_module(a)) for name, a in sorted(ALGEBRAS.items()) if a.dim]


@pytest.mark.parametrize("name,k", kaehler_cases(), ids=[n for n, _ in kaehler_cases()])
def test_the_action_on_generators_matches_the_full_scan(name, k):
    a, m = k.algebra, k.module
    rng = random.Random(f"action {name}")
    cases = [m]
    if m.dim:
        for _ in range(4):
            action = [[list(v) for v in row] for row in m.action]
            i, j, l = rng.randrange(a.dim), rng.randrange(m.dim), rng.randrange(m.dim)
            action[i][j][l] += rng.choice(NUDGES)
            cases.append(ModuleSections(a.dim, m.dim, tuple(tuple(vec(v) for v in row)
                                                            for row in action)))
    for case in cases:
        full = action_findings(a, case, range(a.dim))
        assert generators_first(a, lambda firsts: action_findings(a, case, firsts)) == full
    assert not action_findings(a, m, range(a.dim))


@pytest.mark.parametrize("name,k", kaehler_cases(), ids=[n for n, _ in kaehler_cases()])
def test_the_leibniz_rule_on_generators_matches_the_full_scan(name, k):
    a, m, d = k.algebra, k.module, k.differential
    rng = random.Random(f"leibniz {name}")
    cases = [d] + [nudged(d, rng) for _ in range(4 if d.rows else 0)]
    failing = 0
    for case in cases:
        full = leibniz_errors(a, m, case, False)
        assert leibniz_errors(a, m, case, True) == full
        failing += bool(full)
    # a nudge may leave a derivation (a multiple of d, say), but not all do
    assert not leibniz_errors(a, m, d, True)
    assert failing >= (len(cases) > 1)


def algebra_maps():
    """Valid algebra maps: identities, coordinate selections between
    function algebras, the change of basis into each random-basis algebra,
    and the inclusion of a factor into a tensor product."""
    cases = {f"id {name}": AlgebraMorphism(a, a, Matrix.identity(a.dim))
             for name, a in BUILDERS.items()}
    f5, f3 = function_algebra(5), function_algebra(3)
    cases["F5->F3"] = AlgebraMorphism(f5, f3, Matrix.from_rows(
        [unit_vector(5, 0), unit_vector(5, 2), unit_vector(5, 3)], cols=5))
    for name, b in RANDOM_BASIS.items():
        a = BUILDERS[name[1:]]
        p = random_basis(random.Random(f"basis {name[1:]}"), a.dim)
        cases[f"{name[1:]}->{name}"] = AlgebraMorphism(a, b, Matrix.from_columns(
            [solve(p, unit_vector(a.dim, i)).solution for i in range(a.dim)], rows=a.dim))
    t3 = truncated_poly_algebra(3)
    product = tensor_product(t3, t3)
    cases["T3->T3xT3"] = AlgebraMorphism(t3, product.algebra, product.right)
    return cases


@pytest.mark.parametrize("name", sorted(algebra_maps()))
def test_algebra_maps_on_generators_match_the_full_scan(name):
    h = algebra_maps()[name]
    rng = random.Random(f"map {name}")
    n = h.source.dim
    cases = [h] + [AlgebraMorphism(h.source, h.target, nudged(h.matrix, rng))
                   for _ in range(4 if h.matrix.rows and n else 0)]
    for case in cases:
        full = validate_algebra_morphism(case).errors()
        assert generators_first(h.source, lambda among: morphism_findings(
            case, basis_pairs(n, among))) == full
    assert validate_algebra_morphism(h).ok


def test_basis_pairs_touch_the_given_indices():
    assert basis_pairs(3, range(3)) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert basis_pairs(3, [1]) == [(0, 1), (1, 1), (1, 2)]
    assert basis_pairs(3, []) == []
