"""Finite-dimensional commutative unital algebras over the rationals.

An algebra is given by structure constants: struct[i][j] is the coordinate
vector of the product of basis elements i and j.  The zero-dimensional
algebra (unit = 0) is allowed and is used for sections over the empty set.

One Buchberger-Moeller pass (Moeller and Buchberger, EUROCAM 1982, LNCS
144), `standard_monomials`, presents an algebra on generators: the checks
and the Kaehler module read their generators and relations off it.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product as iter_product

from . import spectrum
from .exactla import (ONE, ZERO, Matrix, Vector, contract, contract_matrix,
                      unit_vector)
from .record import record
from .report import DimensionMismatchError, Finding, Report, ValidationError


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
        """Basis vectors that generate the algebra, or None (`presentation`)."""
        return None if self.presentation is None else self.presentation[0]

    @cached_property
    def presentation(self):
        """The generating basis, each vector the one that grows the span of
        the `standard_monomials` in those before it most, with the
        `(order, relations, coefficients)` of the pass on all of them; or
        None once they cannot save work: checks on r generators and their
        span cost about 2 r n^2 products, the full scans n^3.  A basis vector
        in no product of basis vectors but its own square must be a
        generator, or come from 1."""
        n, gens = self.dim, []
        made = {k for i, row in enumerate(self.struct) for j, v in enumerate(row)
                for k, x in enumerate(v) if x and not i == j == k}
        if 2 * (n - 1 - len(made)) >= n:
            return None
        found = order, _, coefficients = standard_monomials(self, [])
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
            found, j = max(grown, key=lambda c: len(c[0][0]))
            order, _, coefficients = found
            gens.append(j)
        return tuple(gens), found


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


# ---------------------------------------------------------------------------
# modules over an algebra


@record
class ModuleSections:
    """Sections of a module over one open: a vector space with an action.

    action[i][j] is the coordinate vector of (algebra basis i) . (module
    basis j); algebra_dim is carried so empty modules keep their shape.
    """

    algebra_dim: int
    dim: int
    action: tuple[tuple[Vector, ...], ...]

    def __post_init__(self):
        if len(self.action) != self.algebra_dim:
            raise DimensionMismatchError("action tensor does not match algebra dim")
        for row in self.action:
            if len(row) != self.dim or any(len(v) != self.dim for v in row):
                raise DimensionMismatchError("action tensor does not match module dim")

    def act(self, a, w) -> Vector:
        return contract(self.action, self.dim, a, w)

    def act_matrix(self, a) -> Matrix:
        """L(a), the matrix of w -> a . w: column j is sum_i a_i action[i][j]."""
        return contract_matrix(self.action, self.dim, a)


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


def nilradical(a: Algebra):
    return spectrum.nilradical(a)


def characters(a: Algebra) -> list:
    return spectrum.characters(a)


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
