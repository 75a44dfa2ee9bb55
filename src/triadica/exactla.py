"""Exact linear algebra over the rationals.

Everything downstream (structure constants, restriction matrices, section
spaces, differentials) reduces to the primitives in this module: reduced row
echelon form, kernels, solving, quotients, spans of products, and the
contraction of a structure tensor.  A structure tensor `table` of a bilinear
map has table[i][j] the coordinate vector of (basis_i * basis_j); contracting
it with two coordinate vectors is an algebra product or a module action, and
`contract_matrix` is the matrix of multiplication by one fixed element.

Scalars are `fractions.Fraction` throughout; there is no floating point
anywhere in the package, so comparisons are exact and echelon bases are
canonical: two subspaces are equal iff their stored bases are equal.  Every
`Subspace` holds its basis in reduced row echelon form, so one reduction,
`Subspace.residue`, serves membership, coordinates and quotients alike.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .record import record

Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
# digits over digits: no point, exponent or underscore, so that a literal
# parses in time linear in its length
_LITERAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or exact string like '-3/7' to a Fraction.

    Floats are rejected: accepting them would smuggle binary rounding into a
    kernel whose whole contract is exactness.  Strings must match `_LITERAL`.
    """
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, float):
        raise TypeError(f"float {value!r} rejected; use an exact string instead")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _LITERAL.fullmatch(value)
        try:
            if match:
                return Fraction(int(match[1]), int(match[2] or 1))
        except (ValueError, ZeroDivisionError):
            pass  # more digits than int() reads, or a zero denominator
        raise ValueError(f"not an exact rational literal: {value!r}")
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def vec(values: Iterable) -> Vector:
    return tuple(rat(v) for v in values)


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    """The i-th standard basis vector of Q^n."""
    return tuple(ONE if t == i else ZERO for t in range(n))


def vec_sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vector:
    return tuple(x - y for x, y in zip(a, b, strict=True))


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    # most products here are by zero (0/1 restriction matrices, unit
    # vectors); skipping them is exact and strict=True still checks lengths
    return sum((x * y for x, y in zip(a, b, strict=True) if x and y), ZERO)


@record
class Matrix:
    """Immutable rows x cols matrix of Fractions, row-major."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows:
            raise DimensionMismatchError(f"expected {self.rows} rows, got {len(self.entries)}")
        for r in self.entries:
            if len(r) != self.cols:
                raise DimensionMismatchError(f"row of width {len(r)} in {self.rows}x{self.cols} matrix")

    @staticmethod
    def from_rows(rows: Iterable[Iterable], cols: int | None = None) -> "Matrix":
        data = tuple(vec(r) for r in rows)
        if cols is None:
            if not data:
                raise DimensionMismatchError("cols required for a matrix with no rows")
            cols = len(data[0])
        return Matrix(len(data), cols, data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, tuple(unit_vector(n, i) for i in range(n)))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Matrix":
        return Matrix(rows, cols, tuple(zero_vec(cols) for _ in range(rows)))

    @staticmethod
    def from_columns(columns: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        cols = [vec(c) for c in columns]
        if rows is None:
            if not cols:
                raise DimensionMismatchError("rows required for a matrix with no columns")
            rows = len(cols[0])
        for c in cols:
            if len(c) != rows:
                raise DimensionMismatchError("ragged columns")
        return Matrix(rows, len(cols), tuple(tuple(c[i] for c in cols) for i in range(rows)))

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def apply(self, v: Sequence[Fraction]) -> Vector:
        if len(v) != self.cols:
            raise DimensionMismatchError(f"vector of length {len(v)} applied to {self.rows}x{self.cols}")
        return tuple(dot(r, v) for r in self.entries)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ot = other.transpose()
        return Matrix(self.rows, other.cols,
                      tuple(tuple(dot(r, c) for c in ot.entries) for r in self.entries))

    def __sub__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix shapes differ")
        return Matrix(self.rows, self.cols,
                      tuple(vec_sub(a, b) for a, b in zip(self.entries, other.entries)))

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows,
                      tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)))


def rref(vectors: Iterable[Sequence[Fraction]], width: int) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns).

    The output is canonical: any spanning set of the same row space reduces
    to the identical list of rows.
    """
    work = [list(v) for v in vectors]
    for v in work:
        if len(v) != width:
            raise DimensionMismatchError(f"vector of length {len(v)}, expected {width}")
    pivots: list[int] = []
    row = 0
    for col in range(width):
        pivot = next((r for r in range(row, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        inv = ONE / work[row][col]
        work[row] = [inv * x for x in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col] != 0:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == len(work):
            break
    return [tuple(v) for v in work[:row]], pivots


@record
class Subspace:
    """Subspace of Q^ambient_dim, stored by its reduced row echelon basis:
    each vector is 1 at its lead column, where the others are 0, and the
    leads increase.  `rref`'s rows, `span`, `kernel` and `full_space` are such
    bases, so a member's coordinates are its entries at the leads."""

    ambient_dim: int
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def leads(self) -> tuple[int, ...]:
        """Index of the first nonzero entry of each basis vector."""
        return tuple(next(j for j, x in enumerate(b) if x != 0) for b in self.basis)

    @cached_property
    def free(self) -> tuple[int, ...]:
        """The columns that lead no basis vector, in order."""
        leads = set(self.leads)
        return tuple(j for j in range(self.ambient_dim) if j not in leads)

    def residue(self, v: Sequence[Fraction]) -> Vector:
        """v minus its part in the span, read on the free columns: entry k is
        v[free_k] - sum_i v[lead_i] b_i[free_k].  It is zero exactly when v
        lies in the span."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError("vector/ambient length mismatch")
        free = self.free
        out = [v[f] for f in free]
        for lead, b in zip(self.leads, self.basis):
            c = v[lead]
            if c:
                for k, f in enumerate(free):
                    if b[f]:
                        out[k] -= c * b[f]
        return tuple(out)

    def contains(self, v: Sequence[Fraction]) -> bool:
        return self.coordinates(v) is not None

    def coordinates(self, v: Sequence[Fraction]) -> Vector | None:
        """Coefficients of v in the stored basis, or None if v is outside."""
        if any(self.residue(v)):
            return None
        return tuple(v[lead] for lead in self.leads)


def span(ambient_dim: int, vectors: Iterable[Sequence[Fraction]]) -> Subspace:
    rows, _ = rref(vectors, ambient_dim)
    return Subspace(ambient_dim, tuple(rows))


def full_space(n: int) -> Subspace:
    return Subspace(n, Matrix.identity(n).entries)


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m v = 0} with canonical echelon basis.

    One elimination, on the columns in reverse order: the standard null
    vector of free column f has its last nonzero at f and vanishes on the
    other free columns, so reversed it leads at its own column with zeros at
    the other vectors' leads, which is the (unique) reduced echelon form.
    """
    n = m.cols
    rows, pivots = rref((r[::-1] for r in m.entries), n)
    pivot_set = set(pivots)
    basis = []
    for f in reversed(range(n)):
        if f not in pivot_set:
            v = [ZERO] * n
            v[n - 1 - f] = ONE
            for row, p in zip(rows, pivots):
                v[n - 1 - p] = -row[f]
            basis.append(tuple(v))
    return Subspace(n, tuple(basis))


@record
class SolveResult:
    solution: Vector | None
    unique: bool

    @property
    def consistent(self) -> bool:
        return self.solution is not None


def solve(m: Matrix, rhs: Sequence[Fraction]) -> SolveResult:
    """Particular solution of m x = rhs; `unique` reports whether ker m = 0."""
    if len(rhs) != m.rows:
        raise DimensionMismatchError("rhs length does not match row count")
    augmented = [list(r) + [b] for r, b in zip(m.entries, rhs)]
    rows, pivots = rref(augmented, m.cols + 1)
    if m.cols in pivots:
        return SolveResult(None, len([p for p in pivots if p < m.cols]) == m.cols)
    x = [ZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = rows[r][m.cols]
    return SolveResult(tuple(x), len(pivots) == m.cols)


@record
class Quotient:
    """Quotient of an ambient coordinate space by a subspace.

    projection . section = identity on the quotient, and the kernel of
    projection is exactly the subspace quotiented out.
    """

    ambient_dim: int
    quotient_dim: int
    projection: Matrix
    section: Matrix


def quotient_space(ambient_dim: int, sub: Subspace) -> Quotient:
    if sub.ambient_dim != ambient_dim:
        raise DimensionMismatchError("subspace lives in a different ambient space")
    free = sub.free
    projection = Matrix.from_columns(
        [sub.residue(unit_vector(ambient_dim, j)) for j in range(ambient_dim)],
        rows=len(free))
    section = Matrix.from_columns(
        [unit_vector(ambient_dim, f) for f in free],
        rows=ambient_dim)
    return Quotient(ambient_dim, len(free), projection, section)


def contract(table, dim: int, a: Sequence[Fraction],
             b: Sequence[Fraction]) -> Vector:
    """sum_ij a_i b_j table[i][j], where each table[i][j] has length dim."""
    # zero scalars are skipped by truth value, which for Fraction is cheaper
    # than a comparison with 0; strict=True checks the lengths
    out = [ZERO] * dim
    for ai, row in zip(a, table, strict=True):
        if ai:
            for bj, t in zip(b, row, strict=True):
                if bj:
                    c = ai * bj
                    for k, s in enumerate(t):
                        if s:
                            out[k] += c * s
    return tuple(out)


def contract_matrix(table, dim: int, a: Sequence[Fraction]) -> Matrix:
    """The dim x dim matrix of b -> contract(table, dim, a, b): column j is
    sum_i a_i table[i][j]."""
    cols = [[ZERO] * dim for _ in range(dim)]
    for ai, row in zip(a, table, strict=True):
        if ai:
            for col, t in zip(cols, row, strict=True):
                for k, s in enumerate(t):
                    if s:
                        col[k] += ai * s
    return Matrix(dim, dim, tuple(zip(*cols)))


def product_subspace(u: Subspace, v: Subspace, struct) -> Subspace:
    """Span of all products of u-basis by v-basis under a bilinear map.

    `struct[i][j]` is the coordinate vector of (basis_i * basis_j) in the
    common ambient space of u and v.
    """
    if u.ambient_dim != v.ambient_dim:
        raise DimensionMismatchError("ambient spaces differ")
    n = u.ambient_dim
    return span(n, [contract(struct, n, a, b) for a in u.basis for b in v.basis])
