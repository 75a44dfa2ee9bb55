"""Reference construction of the Kaehler module as I / I^2.

I is the kernel of multiplication A (x) A -> A; I^2 is spanned by all
products of pairs of ideal basis vectors in the tensor algebra.  The module
basis is the classes of the ideal's echelon basis vectors whose coordinates
are not pivots of I^2, the operator sends x to the class of
x (x) 1 - 1 (x) x, and A acts through multiplication by x (x) 1.  This is
the slow, direct route; the library's presentation-based construction must
agree with it exactly.  `random_derivations` draws seeded sample derivations
for the tests.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from triadica.algebra import Algebra, multiplication_map, tensor_product
from triadica.exactla import (ONE, ZERO, Matrix, Quotient, Subspace, kernel,
                              product_subspace, quotient_space, span)
from triadica.kaehler import derivation_space
from triadica.sheaf import ModuleSections

from support import matrix_sum, scaled


@dataclass(frozen=True)
class IdealSquareModule:
    algebra: Algebra
    module: ModuleSections
    differential: Matrix
    ideal: Subspace
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
    return IdealSquareModule(a, module, d, ideal, square_in_ideal, quot)


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
