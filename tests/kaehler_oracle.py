"""Reference constructions of the Kaehler module, and the isomorphisms
between them.

`ideal_square_module` is I / I^2: I is the kernel of multiplication
A (x) A -> A (`multiplication_map`); I^2 is spanned by all products of
pairs of ideal basis vectors in the tensor algebra.  The module basis is
the classes of the ideal's echelon basis vectors whose coordinates are not
pivots of I^2, the operator sends x to the class of x (x) 1 - 1 (x) x, and
A acts through multiplication by x (x) 1.  This is the slow, direct route,
and its basis does not depend on any choice of generators: the workspace
corpus is written in it.  `leibniz_kaehler_module` builds the module from
the Leibniz presentation on all basis vectors, the construction the
library used before its presentation on algebra generators.

The library's basis depends on the generators, so a module agrees with
these by the unique isomorphism that `factor_derivation` gives both ways
(`kaehler_isomorphism`).  `committed_kaehler_module` and
`committed_kaehler_triad` carry the library's modules across it onto the
I / I^2 basis.  `factor_derivation_on_every_basis_vector` is the system
that `factor_derivation` solves first on the algebra's generators, written
out on every basis vector.  `random_derivations` draws seeded sample derivations for
the tests, and `restrict_scalars` turns a module over B into one over A
along an algebra map A -> B, the target through which `factor_derivation`
solves for the maps that `kaehler_presheaf` reads off in closed form.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from triadica.algebra import Algebra, ModuleSections, tensor_product
from triadica.exactla import (ONE, ZERO, Matrix, Quotient, Subspace, kernel,
                              product_subspace, quotient_space, solve, span,
                              unit_vector)
from triadica.kaehler import (Factorization, FactorizationFailed,
                              KaehlerModule, KaehlerPresheafResult,
                              derivation_space, factor_derivation,
                              kaehler_module)
from triadica.report import DimensionMismatchError
from triadica.sheaf import make_presheaf
from triadica.triad import DifferentialTriad

from support import matrix_sum, scaled


@dataclass(frozen=True)
class IdealSquareModule:
    algebra: Algebra
    module: ModuleSections
    differential: Matrix
    ideal: Subspace
    chosen: tuple[int, ...]
    ideal_square: Subspace
    quotient: Quotient


def multiplication_map(a: Algebra) -> Matrix:
    """The linear map A tensor A -> A sending e_i tensor e_j to their product."""
    n = a.dim
    cols = [a.struct[i][j] for i in range(n) for j in range(n)]
    return Matrix.from_columns(cols, rows=n)


def _basis_vec(n: int, i: int):
    return tuple(ONE if t == i else ZERO for t in range(n))


def ideal_square_module(a: Algebra) -> IdealSquareModule:
    n = a.dim
    t = tensor_product(a, a)
    ideal = kernel(multiplication_map(a))
    square = product_subspace(ideal, ideal, t.algebra.struct)
    square_in_ideal = span(ideal.dim, [ideal.coordinates(b) for b in square.basis])
    quot = quotient_space(ideal.dim, square_in_ideal)
    omega_dim = quot.quotient_dim
    # module basis vector k is the class of the ideal basis vector chosen[k]
    chosen = tuple(j for j in range(ideal.dim) if j not in square_in_ideal.leads)

    def left_tensor(i: int):
        # e_i (x) 1 in tensor coordinates
        out = [ZERO] * (n * n)
        for j, uj in enumerate(a.unit):
            if uj != 0:
                out[i * n + j] += uj
        return tuple(out)

    cols = []
    for i in range(n):
        diff = list(left_tensor(i))
        for j, uj in enumerate(a.unit):
            if uj != 0:
                diff[j * n + i] -= uj
        coords = ideal.coordinates(diff)
        assert coords is not None, "x(x)1 - 1(x)x escaped the multiplication kernel"
        cols.append(quot.projection.apply(coords))
    d = Matrix.from_columns(cols, rows=omega_dim)

    lifts = []
    for k in range(omega_dim):
        in_ideal = quot.section.apply(_basis_vec(omega_dim, k))
        ambient = [ZERO] * (n * n)
        for c, b in zip(in_ideal, ideal.basis):
            if c != 0:
                ambient = [x + c * y for x, y in zip(ambient, b)]
        lifts.append(tuple(ambient))
    action = []
    for i in range(n):
        left = left_tensor(i)
        row = []
        for k in range(omega_dim):
            prod = t.algebra.multiply(left, lifts[k])
            coords = ideal.coordinates(prod)
            assert coords is not None, "the multiplication kernel is not an ideal"
            row.append(quot.projection.apply(coords))
        action.append(tuple(row))
    module = ModuleSections(n, omega_dim, tuple(action))
    return IdealSquareModule(a, module, d, ideal, chosen, square_in_ideal, quot)


def leibniz_kaehler_module(a: Algebra) -> KaehlerModule:
    """The Kaehler module from the Leibniz presentation: the free A-module F
    on de_0..de_{n-1}, indexed with e_l de_k at l*n + k as e_l (x) e_k in
    A (x) A, divided by the A-span R of d(e_i e_j) - e_i de_j - e_j de_i.
    That is n * n(n+1)/2 relation rows of width n^2.  The classes of the
    e_l de_k that lead no row of R's echelon basis are the module basis, so
    this is a KaehlerModule on the generators e_0..e_{n-1}."""
    n = a.dim
    nn = n * n
    relations = []
    for m in range(n):
        for i in range(n):
            for j in range(i, n):
                # e_m (d(e_i e_j) - e_i de_j - e_j de_i)
                row = [ZERO] * nn
                for k, c in enumerate(a.struct[i][j]):
                    if c:
                        row[m * n + k] += c
                for p, c in enumerate(a.struct[m][i]):
                    if c:
                        row[p * n + j] -= c
                for p, c in enumerate(a.struct[m][j]):
                    if c:
                        row[p * n + i] -= c
                relations.append(row)
    relation_span = span(nn, relations)
    reduce, free = relation_span.residue, relation_span.free

    def left_mult(i, w):
        # e_i . w in F
        out = [ZERO] * nn
        for idx, c in enumerate(w):
            if c:
                l, k = divmod(idx, n)
                for p, s in enumerate(a.struct[i][l]):
                    out[p * n + k] += c * s
        return out

    def d_lift(k):
        # de_k = 1 de_k = sum_l u_l e_l de_k
        w = [ZERO] * nn
        for l, u in enumerate(a.unit):
            w[l * n + k] = u
        return w

    d = Matrix.from_columns([reduce(d_lift(k)) for k in range(n)], rows=len(free))
    action = tuple(tuple(reduce(left_mult(i, unit_vector(nn, f))) for f in free)
                   for i in range(n))
    return KaehlerModule(a, ModuleSections(n, len(free), action), d,
                         tuple(unit_vector(n, k) for k in range(n)),
                         tuple(divmod(f, n) for f in free))


def kaehler_isomorphism(k, other) -> tuple[Matrix, Matrix]:
    """The module maps k -> other and other -> k that carry one universal
    operator to the other, as `factor_derivation` finds them.  Both must be
    unique and each the inverse of the other; `k` and `other` need only the
    fields `algebra`, `module` and `differential`."""
    assert k.module.dim == other.module.dim
    there = factor_derivation(k, other.module, other.differential)
    back = factor_derivation(other, k.module, k.differential)
    assert there.unique and back.unique
    assert there.matrix @ back.matrix == Matrix.identity(other.module.dim)
    assert back.matrix @ there.matrix == Matrix.identity(k.module.dim)
    return there.matrix, back.matrix


def factor_derivation_on_every_basis_vector(k, target: ModuleSections,
                                          derivation: Matrix) -> Factorization:
    """The module map phi with phi . d = derivation, from one system over
    every basis vector e_i of the algebra: phi . d(e_i) = derivation(e_i)
    and phi(e_i . w) = e_i . phi(w) for each basis vector w of the module.
    Raises FactorizationFailed when the system has no solution."""
    a = k.algebra
    om, tm = k.module.dim, target.dim
    unknowns = tm * om  # phi[r][c] at index r*om + c
    rows, rhs = [], []
    for i in range(a.dim):
        dcol = k.differential.col(i)
        for r in range(tm):
            row = [ZERO] * unknowns
            for c in range(om):
                row[r * om + c] = dcol[c]
            rows.append(row)
            rhs.append(derivation.entries[r][i])
    for i in range(a.dim):
        act_omega = k.module.act_matrix(unit_vector(a.dim, i))
        act_target = target.act_matrix(unit_vector(a.dim, i))
        for j in range(om):
            acted = act_omega.col(j)
            for r in range(tm):
                row = [ZERO] * unknowns
                for c in range(om):
                    row[r * om + c] += acted[c]
                for s in range(tm):
                    row[s * om + j] -= act_target.entries[r][s]
                rows.append(row)
                rhs.append(ZERO)
    system = Matrix.from_rows(rows, cols=unknowns) if rows else Matrix.zeros(0, unknowns)
    result = solve(system, tuple(rhs))
    if not result.consistent:
        raise FactorizationFailed("no module map factors the derivation")
    entries = tuple(tuple(result.solution[r * om + c] for c in range(om))
                    for r in range(tm))
    return Factorization(Matrix(tm, om, entries), result.unique)


def committed_kaehler_module(a: Algebra) -> IdealSquareModule:
    """kaehler_module(a) carried onto the I / I^2 basis.  The isomorphism is
    a module map that takes one operator to the other, so what it carries
    the module to is the oracle itself."""
    oracle = ideal_square_module(a)
    kaehler_isomorphism(kaehler_module(a), oracle)
    return oracle


def committed_kaehler_triad(res: KaehlerPresheafResult) -> DifferentialTriad:
    """`res.presheaf_triad` with each open's module carried onto its I / I^2
    basis: the restriction R from u to v becomes there_v . R . back_u."""
    t = res.presheaf_triad
    oracles = [ideal_square_module(k.algebra) for k in res.per_open]
    maps = [kaehler_isomorphism(k, o) for k, o in zip(res.per_open, oracles)]
    table = {(u, v): maps[v][0] @ t.modules.restriction(u, v) @ maps[u][1]
             for u, v in t.algebras.space.inclusion_pairs if u != v}
    modules = make_presheaf(t.algebras.space, [o.module for o in oracles],
                            table, t.algebras)
    return DifferentialTriad(t.algebras, modules,
                             tuple(o.differential for o in oracles))


def random_derivations(a: Algebra, target: ModuleSections, count: int,
                       seed: int = 0) -> list[Matrix]:
    """Seeded random rational combinations of a derivation-space basis."""
    basis = derivation_space(a, target)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        m = Matrix.zeros(target.dim, a.dim)
        for b in basis:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            m = matrix_sum(m, scaled(b, c))
        out.append(m)
    return out


def restrict_scalars(m: ModuleSections, r: Matrix) -> ModuleSections:
    """View a module over the restriction target as one over the source."""
    if r.rows != m.algebra_dim:
        raise DimensionMismatchError("restriction does not land in the module's algebra")
    action = tuple(m.act_matrix(r.col(i)).transpose().entries for i in range(r.cols))
    return ModuleSections(r.cols, m.dim, action)
