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

The eigenvalues are the rational roots of characteristic polynomials.  They
are found by isolating the real roots of a monic integer transform with a
Sturm sequence and testing the one integer left in each isolating interval,
in time polynomial in the degree and the coefficients' bit size.  Every
candidate is still verified as an algebra map into Q, the function algebra
on one point, by validate_algebra_morphism.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm

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


def algebra_from_struct(struct, unit) -> Algebra:
    rows = tuple(tuple(vec(v) for v in row) for row in struct)
    return Algebra(len(rows), rows, vec(unit))


def validate_algebra(a: Algebra) -> Report:
    """Commutativity, associativity and two-sided unit, with witnesses."""
    findings: list[Finding] = []
    n = a.dim
    basis = [unit_vector(n, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if a.struct[i][j] != a.struct[j][i]:
                findings.append(Finding("error", f"basis ({i},{j})",
                                        "product is not commutative", [i, j]))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                left = a.multiply(a.struct[i][j], basis[k])
                right = a.multiply(basis[i], a.struct[j][k])
                if left != right:
                    findings.append(Finding("error", f"basis ({i},{j},{k})",
                                            "product is not associative", [i, j, k]))
    for i in range(n):
        if a.multiply(a.unit, basis[i]) != basis[i]:
            findings.append(Finding("error", f"unit*e{i}", "unit is not a left unit", i))
    if n == 0:
        findings.append(Finding("info", "algebra", "degenerate zero algebra (unit = 0)", None))
    return Report("validate_algebra", tuple(findings))


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
    findings: list[Finding] = []
    src, tgt, m = h.source, h.target, h.matrix
    if m.apply(src.unit) != tgt.unit:
        findings.append(Finding("error", "unit", "unit is not preserved",
                                [str(x) for x in m.apply(src.unit)]))
    for i in range(src.dim):
        for j in range(i, src.dim):
            lhs = m.apply(src.struct[i][j])
            rhs = tgt.multiply(m.col(i), m.col(j))
            if lhs != rhs:
                findings.append(Finding("error", f"basis ({i},{j})",
                                        "product is not preserved", [i, j]))
    return Report("validate_algebra_morphism", tuple(findings))


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


def multiplication_map(a: Algebra) -> Matrix:
    """The linear map A tensor A -> A sending e_i tensor e_j to their product."""
    n = a.dim
    cols = [a.struct[i][j] for i in range(n) for j in range(n)]
    return Matrix.from_columns(cols, rows=n)


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


def _char_poly(m: Matrix) -> list[Fraction]:
    """Coefficients [c0, ..., c_{k-1}, 1] of det(t*I - m), by Faddeev-LeVerrier.

    N_1 = m, c_{k-1} = -tr N_1; N_{i+1} = m (N_i + c_{k-i} I),
    c_{k-i-1} = -tr N_{i+1} / (i+1).
    """
    k = m.rows
    if k == 0:
        return [ONE]
    coeffs = [ZERO] * k + [ONE]
    n_mat = m
    c = -sum((n_mat.entries[d][d] for d in range(k)), ZERO)
    coeffs[k - 1] = c
    for i in range(1, k):
        shifted = Matrix(k, k, tuple(
            tuple(n_mat.entries[r][s] + (c if r == s else ZERO) for s in range(k))
            for r in range(k)))
        n_mat = m @ shifted
        c = -sum((n_mat.entries[d][d] for d in range(k)), ZERO) / (i + 1)
        coeffs[k - 1 - i] = c
    return coeffs


def _primitive(coeffs) -> list[int]:
    """The coefficients times the positive rational that makes them coprime
    integers (signs are kept)."""
    scale = lcm(*[c.denominator for c in coeffs])
    ints = [int(c * scale) for c in coeffs]
    g = gcd(*ints)
    return [c // g for c in ints]


def _sturm_chain(g: list[int]) -> list[list[int]]:
    """Sturm sequence g, g', -rem(g, g'), ..., each later member scaled by a
    positive rational to coprime integers, so every sign is kept.

    When g has repeated roots the chain ends at a multiple of gcd(g, g') and
    still counts the distinct real roots between two points that are not
    roots of g.
    """
    chain = [g, _primitive([i * c for i, c in enumerate(g)][1:])]
    while True:
        rem = [Fraction(c) for c in chain[-2]]
        div = chain[-1]
        while len(rem) >= len(div):
            q = rem[-1] / div[-1]
            shift = len(rem) - len(div)
            for i, c in enumerate(div):
                rem[shift + i] -= q * c
            rem.pop()
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            return chain
        chain.append(_primitive([-c for c in rem]))


def _at(p: list[int], num: int, den: int) -> int:
    """den^deg(p) * p(num/den), by Horner's rule in integers."""
    acc, scale = 0, 1
    for c in reversed(p):
        acc = acc * num + c * scale
        scale *= den
    return acc


def _sign_changes(chain: list[list[int]], num: int, den: int) -> int:
    """Sign changes along the chain at num/den (den > 0), zeros skipped."""
    signs = [v > 0 for p in chain if (v := _at(p, num, den))]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
    """All rational roots, sorted and distinct, of a polynomial with
    rational coefficients [c0, ..., cd], cd != 0.

    The primitive integer form a_0..a_d becomes the monic integer
    polynomial g(y) = a_d^(d-1) p(y/a_d), whose rational roots are integers
    y, each giving the root y/a_d of p.  A Sturm chain of g counts its
    distinct real roots between half-integers, so bisecting the integers
    within the Cauchy bound isolates each integer candidate in an interval
    of width 1, where one exact evaluation tests it.  The cost is
    polynomial in the degree and the coefficients' bit size.
    """
    poly = list(coeffs)
    roots = [ZERO] if poly[0] == 0 else []
    while poly and poly[0] == 0:
        poly = poly[1:]
    if len(poly) <= 1:
        return roots
    a = _primitive(poly)
    d, lead = len(a) - 1, a[-1]
    g = [c * lead ** (d - 1 - i) for i, c in enumerate(a[:-1])] + [1]
    bound = max(abs(c) for c in g[:-1])  # |integer root| <= Cauchy bound - 1
    chain = _sturm_chain(g)

    def changes(m):  # sign changes of the chain at m + 1/2
        return _sign_changes(chain, 2 * m + 1, 2)

    # integer intervals [lo, hi] with the sign changes at lo - 1/2 and hi + 1/2
    stack = [(-bound, bound, changes(-bound - 1), changes(bound))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if lo == hi:
            if _at(g, lo, 1) == 0:
                roots.append(Fraction(lo, lead))
            continue
        mid = (lo + hi) // 2
        v_mid = changes(mid)
        stack += [(lo, mid, v_lo, v_mid), (mid + 1, hi, v_mid, v_hi)]
    return sorted(roots)


def characters(a: Algebra) -> list[Character]:
    """All rational characters, sorted by functional, or NotSplitError.

    The search refines the dual space by rational eigenvalues of the
    transposed multiplication operators, the rational roots of each piece's
    characteristic polynomial found by Sturm bisection (_rational_roots) in
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
            for root in _rational_roots(_char_poly(rep)):
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
