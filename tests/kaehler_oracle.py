"""Reference construction of the Kaehler module as I / I^2.

I is the kernel of multiplication A (x) A -> A; I^2 is spanned by all
products of pairs of ideal basis vectors in the tensor algebra.  The module
basis is the classes of the ideal's echelon basis vectors whose coordinates
are not pivots of I^2, the operator sends x to the class of
x (x) 1 - 1 (x) x, and A acts through multiplication by x (x) 1.  This is
the slow, direct route; the library's presentation-based construction must
agree with it exactly.  `leibniz_kaehler_module` builds the same module
from the Leibniz presentation on all basis vectors, the construction the
library used before its presentation on algebra generators.
`random_derivations` draws seeded sample derivations for the tests, and
`restrict_scalars` turns a module over B into one over A along an algebra
map A -> B, the target through which `factor_derivation` solves for the
maps that `kaehler_presheaf` reads off in closed form.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from triadica.algebra import Algebra, ModuleSections, tensor_product
from triadica.errors import DimensionMismatchError
from triadica.exactla import (ONE, ZERO, Matrix, Quotient, Subspace, kernel,
                              product_subspace, quotient_space, rref, solve, span)
from triadica.kaehler import KaehlerModule, derivation_space, multiplication_map

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
    """kaehler_module(a) from the Leibniz presentation: the free A-module F
    on de_0..de_{n-1}, indexed with e_l de_k at l*n + k as e_l (x) e_k in
    A (x) A, divided by the A-span R of d(e_i e_j) - e_i de_j - e_j de_i.
    That is n * n(n+1)/2 relation rows of width n^2."""
    n = a.dim
    nn = n * n
    ideal = kernel(multiplication_map(a))
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
                if any(row):
                    relations.append(row)
    reduced, pivots = rref(relations, nn)
    free = [f for f in range(nn) if f not in set(pivots)]
    omega = len(free)

    def normal_form(w):
        # w modulo R, read off on the non-pivot coordinates
        out = [w[f] for f in free]
        for row, p in zip(reduced, pivots):
            if w[p]:
                for k, f in enumerate(free):
                    out[k] -= w[p] * row[f]
        return out

    def left_mult(i, w):
        # e_i . w in F
        out = [ZERO] * nn
        for idx, c in enumerate(w):
            if c:
                l, k = divmod(idx, n)
                for p, s in enumerate(a.struct[i][l]):
                    out[p * n + k] += c * s
        return out

    # the module basis: the classes of the ideal basis vectors b_t whose
    # image is independent of the images of b_{t+1}, b_{t+2}, ...
    images = [normal_form(b) for b in ideal.basis]
    chosen, kept = [], []
    for t in reversed(range(ideal.dim)):
        if span(omega, kept + [images[t]]).dim > len(kept):
            kept.append(images[t])
            chosen.append(t)
    chosen.sort()
    assert len(chosen) == omega, "the ideal does not span the module"

    def d_lift(i):
        # e_i (x) 1 - 1 (x) e_i
        w = [ZERO] * nn
        for j, u in enumerate(a.unit):
            w[i * n + j] += u
            w[j * n + i] -= u
        return w

    basis = Matrix.from_columns([images[t] for t in chosen], rows=omega)

    def coords(w):
        x = solve(basis, tuple(normal_form(w))).solution
        assert x is not None, "a class outside the span of the chosen basis"
        return x

    d = Matrix.from_columns([coords(d_lift(i)) for i in range(n)], rows=omega)
    action = tuple(tuple(coords(left_mult(i, ideal.basis[t])) for t in chosen)
                   for i in range(n))
    return KaehlerModule(a, ModuleSections(n, omega, action), d, ideal,
                         tuple(chosen))


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
