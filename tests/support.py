"""Constructors and helpers that several test modules share and that no part
of the package itself needs."""

from triadica.algebra import (Algebra, ModuleSections,
                              is_standard_function_algebra)
from triadica.dtcat import enumerate_presheaf_morphisms
from triadica.exactla import ZERO, Matrix, rat
from triadica.maps import ContinuousMap
from triadica.sheaf import function_presheaf
from triadica.sheafmaps import PresheafMorphism
from triadica.triad import DifferentialTriad


def free_module_sections(a: Algebra, rank: int) -> ModuleSections:
    """A^rank with the diagonal multiplication action: e_i acts on block b
    of A^rank as on A, so action[i][b*n + j] is a.struct[i][j] in block b."""
    n = a.dim
    zeros = (ZERO,) * n
    action = tuple(tuple(zeros * b + product + zeros * (rank - 1 - b)
                         for b in range(rank) for product in row)
                   for row in a.struct)
    return ModuleSections(n, n * rank, action)


def families_over(f: ContinuousMap) -> list[PresheafMorphism]:
    """enumerate_presheaf_morphisms(f) with both function presheaves built
    here."""
    return enumerate_presheaf_morphisms(f, function_presheaf(f.domain),
                                        function_presheaf(f.codomain))


def is_functional_triad(t: DifferentialTriad) -> bool:
    """Zero module everywhere, standard function algebra on every open."""
    if any(m.dim != 0 for m in t.modules.sections):
        return False
    return all(is_standard_function_algebra(a) for a in t.algebras.sections)


def scaled(m: Matrix, c) -> Matrix:
    """c times m."""
    c = rat(c)
    return Matrix(m.rows, m.cols, tuple(tuple(c * x for x in r) for r in m.entries))


def is_zero(m: Matrix) -> bool:
    return not any(any(r) for r in m.entries)


def matrix_sum(m: Matrix, n: Matrix) -> Matrix:
    """m + n, for matrices of one shape."""
    return Matrix(m.rows, m.cols,
                  tuple(tuple(x + y for x, y in zip(a, b, strict=True))
                        for a, b in zip(m.entries, n.entries, strict=True)))


def replace(obj, **changes):
    """A copy of the record `obj` with some fields changed; `__post_init__`
    runs again on the copy."""
    values = {name: getattr(obj, name) for name in obj.__record_fields__}
    return obj.__class__(**{**values, **changes})
