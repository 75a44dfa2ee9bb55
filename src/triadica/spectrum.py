"""Characters of an algebra, its nilradical, and the `spectrum` command.

Characters are the algebra maps into Q, that is the multiplicative unital
functionals with rational values.  They are computed exactly, as common
eigenvectors of the transposed multiplication operators; when the semisimple
quotient has factors that are proper field extensions of Q the search cannot
exhaust it and NotSplitError is raised rather than returning a silently
truncated list.

The eigenvalues are the rational roots of characteristic polynomials, which
only `characters` computes.  Coefficient lists run from the constant term
up.  The rational roots of a polynomial are found by isolating the real
roots of a monic integer transform with a Sturm sequence and testing the
one integer left in each isolating interval, in time polynomial in the
degree and the coefficients' bit size.  Every candidate is still verified
as an algebra map into Q, the function algebra on one point, by
validate_algebra_morphism.  The entry points are in `algebra`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from . import algebra
from .algebra import (Algebra, AlgebraMorphism, function_algebra,
                      require_valid_algebra, validate_algebra_morphism)
from .exactla import (ONE, ZERO, Matrix, Subspace, Vector, dot, full_space, kernel,
                      span, unit_vector)
from .record import record
from .report import Finding, InvariantError, Report, TriadicaError


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


def char_poly(m: Matrix) -> list[Fraction]:
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


def rational_roots(coeffs: list[Fraction]) -> list[Fraction]:
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
    characteristic polynomial found by Sturm bisection (rational_roots) in
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
            for root in rational_roots(char_poly(rep)):
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
