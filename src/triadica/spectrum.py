"""Characters of an algebra, its nilradical, and the `spectrum` command.

Characters are the algebra maps into Q, that is the multiplicative unital
functionals with rational values.  They are computed exactly, as common
eigenvectors of the transposed multiplication operators; when the semisimple
quotient has factors that are proper field extensions of Q the search cannot
exhaust it and NotSplitError is raised rather than returning a silently
truncated list.

The eigenvalues are the rational roots of characteristic polynomials, found
by the `poly` layer, which only `characters` runs.  Every candidate is
still verified as an algebra map into Q, the function algebra on one point,
by validate_algebra_morphism.  The entry points are in `algebra`.
"""

from __future__ import annotations

from fractions import Fraction

from . import algebra, poly
from .algebra import (Algebra, AlgebraMorphism, function_algebra,
                      require_valid_algebra, validate_algebra_morphism)
from .errors import InvariantError, TriadicaError
from .exactla import (ZERO, Matrix, Subspace, Vector, dot, full_space, kernel,
                      span, unit_vector)
from .record import record
from .report import Finding, Report


class NotSplitError(TriadicaError):
    """The semisimple quotient has a factor that is not Q itself."""

    def __init__(self, found: int, semisimple_dim: int):
        self.found = found
        self.semisimple_dim = semisimple_dim
        super().__init__(
            f"only {found} rational characters found but the semisimple "
            f"quotient has dimension {semisimple_dim}; the algebra does not "
            f"split over Q")


def nilradical(a: Algebra) -> Subspace:
    """Kernel of the trace form t(x, y) = trace(mult by xy).

    Over Q this radical coincides with the set of nilpotent elements for a
    commutative associative algebra.
    """
    n = a.dim
    basis_traces = []
    for k in range(n):
        basis_traces.append(sum((a.struct[k][j][j] for j in range(n)), ZERO))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = a.struct[i][j]
            row.append(sum((prod[k] * basis_traces[k] for k in range(n)), ZERO))
        rows.append(row)
    return kernel(Matrix.from_rows(rows, cols=n))


@record
class Character:
    """A multiplicative unital functional, stored by its coefficient row."""

    algebra: Algebra
    functional: Vector

    def __call__(self, v) -> Fraction:
        return dot(self.functional, v)


def characters(a: Algebra) -> list[Character]:
    """All rational characters, sorted by functional, or NotSplitError.

    The search refines the dual space by rational eigenvalues of the
    transposed multiplication operators, the rational roots of each piece's
    characteristic polynomial found by Sturm bisection (poly.rational_roots) in
    time polynomial in the coefficients' bit size; each surviving line is a
    candidate which is then verified directly as an algebra map into Q by
    validate_algebra_morphism.
    Completeness is certified against the dimension of the semisimple
    quotient (dim A - dim nilradical).  Raises InvalidAlgebraError when the
    algebra fails validation.
    """
    require_valid_algebra(a)
    n = a.dim
    if n == 0:
        return []
    target = n - algebra.nilradical(a).dim
    # piece = echelon row basis of a subspace of the dual space
    pieces: list[tuple[Vector, ...]] = [full_space(n).basis]
    for i in range(n):
        # op_t sends a row functional to it composed with op = e_i . -
        op_t = a.left_mult(unit_vector(n, i)).transpose()
        refined: list[tuple[Vector, ...]] = []
        for basis in pieces:
            k = len(basis)
            if k == 0:
                continue
            # action on the piece: rows of (basis . op) in piece coordinates
            sub = Subspace(n, basis)
            rep_rows = []
            for b in basis:
                coords = sub.coordinates(op_t.apply(b))
                if coords is None:
                    raise InvariantError(
                        "multiplication operators must preserve the piece")
                rep_rows.append(coords)
            rep = Matrix.from_rows(rep_rows, cols=k).transpose()
            for root in poly.rational_roots(poly.char_poly(rep)):
                shifted = Matrix(k, k, tuple(
                    tuple(rep.entries[r][s] - (root if r == s else ZERO) for s in range(k))
                    for r in range(k)))
                eig = kernel(shifted)
                if eig.dim == 0:
                    continue
                rows = []
                for cvec in eig.basis:
                    combo = [ZERO] * n
                    for c, b in zip(cvec, basis):
                        if c != 0:
                            combo = [x + c * y for x, y in zip(combo, b)]
                    rows.append(combo)
                refined.append(span(n, rows).basis)
        pieces = refined
    found = []
    scalars = function_algebra(1)
    for basis in pieces:
        for row in basis:
            at_unit = dot(row, a.unit)
            if at_unit == 0:
                continue
            functional = tuple(c / at_unit for c in row)
            as_map = AlgebraMorphism(a, scalars, Matrix(1, n, (functional,)))
            if validate_algebra_morphism(as_map).ok:
                found.append(Character(a, functional))
    unique = {c.functional: c for c in found}
    ordered = [unique[f] for f in sorted(unique)]
    if len(ordered) != target:
        raise NotSplitError(len(ordered), target)
    return ordered


def spectrum_command(args, a):
    try:
        chars = algebra.characters(a)
    except NotSplitError as exc:
        return Report("spectrum",
                      (Finding("error", "characters", str(exc), None),)), {}
    functionals = [[str(x) for x in c.functional] for c in chars]
    findings = (Finding("info", "characters",
                        f"{len(chars)} rational characters", functionals),)
    return Report("spectrum", findings), {"characters": functionals}
