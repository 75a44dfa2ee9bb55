"""Finite-dimensional commutative unital algebras over the rationals.

An algebra is given by structure constants: struct[i][j] is the coordinate
vector of the product of basis elements i and j.  The zero-dimensional
algebra (unit = 0) is allowed and is used for sections over the empty set.

Characters are the algebra maps into Q, that is the multiplicative unital
functionals with rational values.  They are computed exactly, as common
eigenvectors of the transposed multiplication operators; when the semisimple
quotient has factors that are proper field extensions of Q the search cannot
exhaust it and NotSplitError is raised rather than returning a silently
truncated list.

The eigenvalues are the rational roots of characteristic polynomials, found
by the `poly` layer, which only `characters` runs.  Every candidate is
still verified as an algebra map into Q, the function algebra on one point,
by validate_algebra_morphism.

One Buchberger-Moeller pass (Moeller and Buchberger, EUROCAM 1982, LNCS
144), `standard_monomials`, presents an algebra on generators: the checks
and the Kaehler module read their generators and relations off it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import product as iter_product

from . import poly
from .errors import DimensionMismatchError, InvariantError, TriadicaError
from .exactla import (ONE, ZERO, Matrix, Subspace, Vector, contract,
                      contract_matrix, dot, full_space, kernel, rat, span,
                      unit_vector, vec)
from .record import record
from .report import Finding, Report, ValidationError


class NotSplitError(TriadicaError):
    """The semisimple quotient has a factor that is not Q itself."""

    def __init__(self, found: int, semisimple_dim: int):
        self.found = found
        self.semisimple_dim = semisimple_dim
        super().__init__(
            f"only {found} rational characters found but the semisimple "
            f"quotient has dimension {semisimple_dim}; the algebra does not "
            f"split over Q")


class InvalidAlgebraError(ValidationError):
    """The structure constants break an axiom the operation relies on."""

    prefix = "not a valid algebra"


@record
class Algebra:
    dim: int
    struct: tuple[tuple[Vector, ...], ...]
    unit: Vector

    def __post_init__(self):
        n = self.dim
        if len(self.struct) != n or len(self.unit) != n:
            raise DimensionMismatchError("structure constants do not match dim")
        for row in self.struct:
            if len(row) != n or any(len(v) != n for v in row):
                raise DimensionMismatchError("structure constants do not match dim")

    def multiply(self, a, b) -> Vector:
        return contract(self.struct, self.dim, a, b)

    def left_mult(self, a) -> Matrix:
        """Matrix of multiplication by the element with coordinates a."""
        return contract_matrix(self.struct, self.dim, a)

    @cached_property
    def generating_basis(self) -> tuple[int, ...] | None:
        """Basis vectors that generate the algebra, each the one that grows
        the span of the `standard_monomials` in those before it most, or
        None once they cannot save work: checks on r generators and their
        span cost about 2 r n^2 products, the full scans n^3.  A basis vector
        in no product of basis vectors but its own square must be a
        generator, or come from 1."""
        n, gens = self.dim, []
        made = {k for i, row in enumerate(self.struct) for j, v in enumerate(row)
                for k, x in enumerate(v) if x and not i == j == k}
        if 2 * (n - 1 - len(made)) >= n:
            return None
        order, _, coefficients = standard_monomials(self, [])
        while len(order) < n:
            if 2 * (len(gens) + 1) >= n:
                return None
            grown = []
            for j in range(n):
                if coefficients(unit_vector(n, j)) is None:
                    grown.append((standard_monomials(
                        self, [unit_vector(n, g) for g in gens + [j]]), j))
                    if len(grown[-1][0][0]) == n:
                        break
            (order, _, coefficients), j = max(grown, key=lambda c: len(c[0][0]))
            gens.append(j)
        return tuple(gens)


def standard_monomials(a: Algebra, gens):
    """Buchberger-Moeller on the values in `a` of the monomials in `gens`.

    Returns the order ideal of standard monomials, as (exponents, value)
    in degree-lexicographic order; one relation per minimal non-standard
    monomial t^b, as (b, c) for t^b - sum_j c_j o_j with o_j the standard
    monomials; and `coefficients`, which gives a vector of `a` on the
    values of the standard monomials, or None outside their span.  Each
    value is a product of generators on the left of 1, so a span of `a`
    proves that they generate it, associative or not.
    """
    order, echelon, relations = [], [], []

    def express(v):
        # invariant: v = residue + sum_j coeffs_j value(o_j)
        residue, coeffs = list(v), [ZERO] * len(order)
        for lead, row, row_coeffs in echelon:
            c = residue[lead]
            if c:
                residue = [x - c * y for x, y in zip(residue, row)]
                for j, y in enumerate(row_coeffs):
                    coeffs[j] += c * y
        return residue, coeffs

    pending = {(0,) * len(gens): a.unit}
    while pending:
        t = min(pending, key=lambda e: (sum(e), e))
        value = pending.pop(t)
        if any(all(x >= y for x, y in zip(t, b)) for b, _ in relations):
            continue
        residue, coeffs = express(value)
        lead = next((k for k, x in enumerate(residue) if x), None)
        if lead is None:
            relations.append((t, coeffs))
            continue
        inv = ONE / residue[lead]
        echelon.append((lead, [inv * x for x in residue],
                        [-inv * c for c in coeffs] + [inv]))
        order.append((t, value))
        for i, g in enumerate(gens):
            above = t[:i] + (t[i] + 1,) + t[i + 1:]
            if above not in pending:
                pending[above] = a.multiply(g, value)

    def coefficients(v):
        residue, coeffs = express(v)
        return None if any(residue) else coeffs

    return order, relations, coefficients


def generators_first(a: Algebra, scan) -> list:
    """`scan(indices)`, the findings of a check over basis indices, on the
    generating basis of `a`, whose elements that pass the check the caller
    knows to form a subalgebra with 1; on every index if that fails."""
    gens = a.generating_basis
    if gens is not None:
        found = scan(gens)
        if not found:
            return found
    return scan(range(a.dim))


def basis_pairs(n: int, among) -> list[tuple[int, int]]:
    """The basis index pairs i <= j with i or j in `among`, in order."""
    return [(i, j) for i in range(n) for j in range(i, n) if i in among or j in among]


def algebra_from_struct(struct, unit) -> Algebra:
    rows = tuple(tuple(vec(v) for v in row) for row in struct)
    return Algebra(len(rows), rows, vec(unit))


def validate_algebra(a: Algebra) -> Report:
    """Commutativity, associativity and two-sided unit, with witnesses.
    The b with (xb)y = x(by) for all x, y form a subalgebra (Light's test),
    which holds a two-sided unit once the unit and commutativity pass."""
    n = a.dim
    basis = [unit_vector(n, i) for i in range(n)]
    head = [Finding("error", f"basis ({i},{j})", "product is not commutative", [i, j])
            for i in range(n) for j in range(i + 1, n) if a.struct[i][j] != a.struct[j][i]]
    unit = [Finding("error", f"unit*e{i}", "unit is not a left unit", i)
            for i in range(n) if a.multiply(a.unit, basis[i]) != basis[i]]
    tail = [Finding("info", "algebra", "degenerate zero algebra (unit = 0)", None)] if n == 0 else []

    def associativity(middles):
        return [Finding("error", f"basis ({i},{j},{k})", "product is not associative", [i, j, k])
                for i in range(n) for j in middles for k in range(n)
                if a.multiply(a.struct[i][j], basis[k]) != a.multiply(basis[i], a.struct[j][k])]

    found = associativity(range(n)) if head or unit else generators_first(a, associativity)
    return Report("validate_algebra", tuple(head + found + unit + tail))


def require_valid_algebra(a: Algebra) -> None:
    """Raise InvalidAlgebraError carrying the first validate_algebra error."""
    InvalidAlgebraError.require(validate_algebra(a))


def function_algebra(k: int) -> Algebra:
    """Q^k with pointwise product; k = 0 gives the degenerate zero algebra."""
    if k < 0:
        raise DimensionMismatchError(f"function algebra needs k >= 0, not {k}")
    struct = tuple(tuple(tuple(ONE if i == j == l else ZERO for l in range(k))
                         for j in range(k)) for i in range(k))
    return Algebra(k, struct, (ONE,) * k)


def truncated_poly_algebra(k: int) -> Algebra:
    """Q[x]/(x^k), basis 1, x, ..., x^(k-1)."""
    if k < 1:
        raise DimensionMismatchError("truncated polynomial algebra needs k >= 1")
    struct = tuple(tuple(tuple(ONE if i + j == l else ZERO for l in range(k))
                         for j in range(k)) for i in range(k))
    return Algebra(k, struct, unit_vector(k, 0))


def is_standard_function_algebra(a: Algebra) -> bool:
    return a == function_algebra(a.dim)


def poly_quotient_algebra(coeffs) -> Algebra:
    """Q[x]/(f) for monic f given by coefficients [c0, ..., c_{k-1}, 1].

    Basis 1, x, ..., x^(k-1); products reduce modulo f.
    """
    coeffs = [rat(c) for c in coeffs]
    if len(coeffs) < 2 or coeffs[-1] != ONE:
        raise DimensionMismatchError("need a monic polynomial of degree >= 1")
    k = len(coeffs) - 1
    powers = [unit_vector(k, 0)]
    for _ in range(2 * k - 2):
        prev = powers[-1]
        top = prev[k - 1]
        nxt = [ZERO] + list(prev[:k - 1])
        if top != 0:
            nxt = [y - top * coeffs[l] for l, y in enumerate(nxt)]
        powers.append(tuple(nxt))
    struct = tuple(tuple(powers[i + j] for j in range(k)) for i in range(k))
    return Algebra(k, struct, powers[0])


@record
class AlgebraMorphism:
    source: Algebra
    target: Algebra
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.cols != self.source.dim or self.matrix.rows != self.target.dim:
            raise DimensionMismatchError(
                f"morphism matrix {self.matrix.rows}x{self.matrix.cols} does not fit "
                f"{self.source.dim} -> {self.target.dim}")

    def apply(self, v) -> Vector:
        return self.matrix.apply(v)


def validate_algebra_morphism(h: AlgebraMorphism) -> Report:
    return Report("validate_algebra_morphism",
                  tuple(morphism_findings(h, basis_pairs(h.source.dim, range(h.source.dim)))))


def morphism_findings(h: AlgebraMorphism, pairs) -> list[Finding]:
    """Unit preservation, and product preservation on the basis `pairs`."""
    findings: list[Finding] = []
    src, tgt, m = h.source, h.target, h.matrix
    if m.apply(src.unit) != tgt.unit:
        findings.append(Finding("error", "unit", "unit is not preserved",
                                [str(x) for x in m.apply(src.unit)]))
    for i, j in pairs:
        if m.apply(src.struct[i][j]) != tgt.multiply(m.col(i), m.col(j)):
            findings.append(Finding("error", f"basis ({i},{j})",
                                    "product is not preserved", [i, j]))
    return findings


@record
class TensorProduct:
    """A tensor B with basis (i,j) -> i*B.dim + j, plus the factor embeddings."""

    algebra: Algebra
    left: Matrix
    right: Matrix


def _kron(u, v) -> Vector:
    """The Kronecker product: coordinate p * len(v) + q is u_p v_q."""
    zeros = (ZERO,) * len(v)
    out = []
    for x in u:
        out += [x * y if y else ZERO for y in v] if x else zeros
    return tuple(out)


def tensor_product(a: Algebra, b: Algebra) -> TensorProduct:
    n, m = a.dim, b.dim
    struct = tuple(tuple(_kron(a.struct[i][k], b.struct[j][l])
                         for k in range(n) for l in range(m))
                   for i in range(n) for j in range(m))
    algebra = Algebra(n * m, struct, _kron(a.unit, b.unit))
    left = [_kron(unit_vector(n, i), b.unit) for i in range(n)]
    right = [_kron(a.unit, unit_vector(m, j)) for j in range(m)]
    return TensorProduct(algebra, Matrix.from_columns(left, rows=n * m),
                         Matrix.from_columns(right, rows=n * m))


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
    target = n - nilradical(a).dim
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


def enumerate_unital_morphisms(a: Algebra, b: Algebra) -> list[AlgebraMorphism]:
    """All unital algebra morphisms between standard function algebras.

    Every such morphism Q^m -> Q^k is the pullback along a point map
    {0..k-1} -> {0..m-1}, so the list has exactly m^k entries, enumerated in
    lexicographic order of the underlying point maps.
    """
    if not is_standard_function_algebra(a) or not is_standard_function_algebra(b):
        raise ValueError("enumeration is defined for standard function algebras only")
    m, k = a.dim, b.dim
    out = []
    for tau in iter_product(range(m), repeat=k):
        rows = [unit_vector(m, tau[r]) for r in range(k)]
        out.append(AlgebraMorphism(a, b, Matrix.from_rows(rows, cols=m)))
    return out
