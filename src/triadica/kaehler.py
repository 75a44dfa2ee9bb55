"""Universal differential modules for finite-dimensional rational algebras.

Omega_A is generated as an A-module by dA, so it is presented on algebra
generators (Eisenbud, Commutative Algebra, section 16.1; Matsumura,
Commutative Ring Theory, section 25).  Pick generators g_1..g_r of A, its
generating basis if it has one (`Algebra.presentation` keeps the pass that
found it), and write A = Q[t_1..t_r]/J.  The Buchberger-Moeller pass of the
algebra layer (`standard_monomials`) runs through the monomials in the g_i
in degree order: the ones whose values are independent form an order
ideal, a basis of A, and each minimal dependent monomial gives one
relation f; these generate J.  Then Omega_A = A^r / A.{((df/dt_i)(g))_i},
with dg_i as the generators, and de_k follows from e_k's expansion in the
standard monomials by the chain rule.

The module basis is the one the I / I^2 description singles out, I the
multiplication kernel of A (x) A -> A, under a (x) b -> a db: the classes of
the ideal's echelon basis vectors b_t whose image is independent of the
images of b_{t+1}, b_{t+2}, ....  The operator sends x to the class of
x (x) 1 - 1 (x) x, and A acts through multiplication by x (x) 1.  So the
result does not depend on the generators chosen.  Every derivation out of
A factors through this operator by a unique module map; `factor_derivation`
computes that map by exact linear solving and reports whether it was
pinned down uniquely.  So an algebra map phi: A -> B induces one module map
Omega(phi), and in closed form: the class of an ideal vector sum_lk b_lk
e_l (x) e_k is -sum_k b_k de_k, b_k = sum_l b_lk e_l, and goes to
-sum_k phi(b_k) d_B(phi(e_k)).  `kaehler_presheaf` builds its maps this way.

Only `kaehler_presheaf` and `factor_derivation` use the `sheaf` and `triad`
layers, read off their lazily loaded modules where they are called, so the
module of one algebra runs neither.
"""

from __future__ import annotations

from . import gluing, sheaf, triad
from .algebra import (Algebra, ModuleSections, require_valid_algebra,
                      standard_monomials)
from .errors import DimensionMismatchError, InvariantError, TriadicaError
from .exactla import (ONE, ZERO, Matrix, Subspace, full_space, kernel, rref,
                      solve, unit_vector, vec)
from .record import record
from .report import ValidationError


class NotADerivation(ValidationError):
    """The map handed to factor_derivation does not satisfy the Leibniz rule."""

    prefix = "not a derivation"


class FactorizationFailed(TriadicaError):
    """No module map factors the derivation through the given operator."""


@record
class KaehlerModule:
    """Universal differential module of an algebra, with its multiplication
    kernel.

    `ideal` is the multiplication kernel in tensor coordinates; module basis
    vector t is the class of its echelon basis vector `chosen[t]`.
    """

    algebra: Algebra
    module: ModuleSections
    differential: Matrix
    ideal: Subspace
    chosen: tuple[int, ...]


def multiplication_map(a: Algebra) -> Matrix:
    """The linear map A tensor A -> A sending e_i tensor e_j to their product."""
    n = a.dim
    cols = [a.struct[i][j] for i in range(n) for j in range(n)]
    return Matrix.from_columns(cols, rows=n)


def kaehler_module(a: Algebra) -> KaehlerModule:
    """The module of differentials of `a` and its universal operator.

    Raises InvalidAlgebraError when `a` fails validation: the presentation
    relies on a commutative, associative algebra with a two-sided unit.
    """
    require_valid_algebra(a)
    n = a.dim
    ideal = kernel(multiplication_map(a))

    # algebra generators: the algebra's generating basis, with the pass that
    # found it, keeps the presentation sparse; failing that one generic
    # element, extended by the first basis vectors outside the subalgebra
    # generated so far
    if a.presentation is None:
        gens = [vec(range(1, n + 1))]
        order, relations, coefficients = standard_monomials(a, gens)
        while len(order) < n:
            gens.append(next(unit_vector(n, j) for j in range(n)
                             if coefficients(unit_vector(n, j)) is None))
            order, relations, coefficients = standard_monomials(a, gens)
    else:
        basis, (order, relations, coefficients) = a.presentation
        gens = [unit_vector(n, j) for j in basis]
    r = len(gens)
    value_of = dict(order)

    def left_mult(i, w, width):
        # e_i . w, for w with its A coordinate l at l * width + k
        out = [ZERO] * len(w)
        for idx, c in enumerate(w):
            if c:
                l, k = divmod(idx, width)
                for p, s in enumerate(a.struct[i][l]):
                    if s:
                        out[p * width + k] += c * s
        return out

    def gradient(poly):
        # sum_i (dP/dt_i)(g) dg_i in A^r, with e_l dg_i at l * r + i, for P
        # given as (coefficient, exponents) pairs
        out = [ZERO] * (n * r)
        for c, e in poly:
            for i, power in enumerate(e):
                if power:
                    lower = value_of[e[:i] + (power - 1,) + e[i + 1:]]
                    for l, x in enumerate(lower):
                        if x:
                            out[l * r + i] += c * power * x
        return out

    # Omega = A^r modulo the A-span of the Jacobian rows (df/dt_i)(g)
    # (Eisenbud, Commutative Algebra, section 16.1)
    jacobian = []
    for b, coeffs in relations:
        row = gradient([(ONE, b)] + [(-c, t) for c, (t, _) in zip(coeffs, order)])
        jacobian += [left_mult(m, row, r) for m in range(n)]
    # reduce(w) is w modulo the Jacobian rows, read on the non-pivot
    # coordinates
    jacobian_span = Subspace(n * r, tuple(rref(jacobian, n * r)[0]))
    reduce = jacobian_span.residue
    omega = len(jacobian_span.free)

    # e_l de_k = e_l sum_j c_kj d(o_j), by the chain rule on e_k = sum_j
    # c_kj o_j(g)
    de = [gradient(zip(coefficients(unit_vector(n, k)), (t for t, _ in order)))
          for k in range(n)]
    table = [reduce(left_mult(l, de[k], r)) for l in range(n) for k in range(n)]

    def normal_form(w):
        # the class of sum_lk w_lk e_l de_k
        out = [ZERO] * omega
        for c, image in zip(w, table):
            if c:
                for k, x in enumerate(image):
                    if x:
                        out[k] += c * x
        return out

    images = [normal_form(b) for b in ideal.basis]
    # with the images as columns from the last ideal basis vector back, a
    # column is a pivot exactly when its image is independent of the images
    # of the later basis vectors
    last = ideal.dim - 1
    _, picked = rref(([images[last - s][f] for s in range(ideal.dim)]
                      for f in range(omega)), ideal.dim)
    if len(picked) != omega:
        raise InvariantError(f"the ideal spans {len(picked)} dimensions of "
                             f"the {omega}-dimensional module")
    chosen = tuple(sorted(last - s for s in picked))

    # the class of e_i (x) 1 - 1 (x) e_i is e_i d1 - 1 de_i = -de_i
    targets = [[-x for x in reduce(w)] for w in de]
    targets += [normal_form(left_mult(i, ideal.basis[t], n))
                for i in range(n) for t in chosen]
    # [M | targets] reduces to [I | M^-1 targets]; M has the chosen images
    # as its columns
    solved, _ = rref([[images[t][s] for t in chosen] + [v[s] for v in targets]
                      for s in range(omega)], omega + len(targets))
    coords = [tuple(row[omega + c] for row in solved)
              for c in range(len(targets))]
    d = Matrix.from_columns(coords[:n], rows=omega)
    action = tuple(tuple(coords[n + i * omega:n + (i + 1) * omega])
                   for i in range(n))
    return KaehlerModule(a, ModuleSections(n, omega, action), d, ideal, chosen)


@record
class Factorization:
    matrix: Matrix
    unique: bool


def factor_derivation(k: KaehlerModule, target: ModuleSections,
                      derivation: Matrix) -> Factorization:
    """Unique module map phi with phi . d = derivation, solved exactly.

    Raises NotADerivation when the input map breaks the Leibniz rule and
    FactorizationFailed when no module map fits (which can only happen for a
    doctored operator, never for the universal one).
    """
    a = k.algebra
    if target.algebra_dim != a.dim:
        raise DimensionMismatchError("target module is over a different algebra")
    if derivation.rows != target.dim or derivation.cols != a.dim:
        raise DimensionMismatchError(
            f"derivation has shape {derivation.rows}x{derivation.cols}")
    NotADerivation.require(triad.check_leibniz(a, target, derivation))
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


def derivation_space(a: Algebra, target: ModuleSections) -> list[Matrix]:
    """Basis of the space of derivations from a into the target module."""
    if target.algebra_dim != a.dim:
        raise DimensionMismatchError("target module is over a different algebra")
    n, tm = a.dim, target.dim
    unknowns = tm * n  # D[r][i] at index r*n + i
    rows = []
    act = [target.act_matrix(unit_vector(n, i)) for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = a.struct[i][j]
            for r in range(tm):
                row = [ZERO] * unknowns
                for idx, coeff in enumerate(prod):
                    row[r * n + idx] += coeff
                for s in range(tm):
                    row[s * n + j] -= act[i].entries[r][s]
                    row[s * n + i] -= act[j].entries[r][s]
                rows.append(row)
    space = kernel(Matrix.from_rows(rows, cols=unknowns)) if rows \
        else full_space(unknowns)
    out = []
    for b in space.basis:
        out.append(Matrix(tm, n, tuple(tuple(b[r * n + i] for i in range(n))
                                       for r in range(tm))))
    return out


@record
class KaehlerPresheafResult:
    presheaf_triad: triad.DifferentialTriad
    sheaf_triad: triad.DifferentialTriad
    per_open: tuple[KaehlerModule, ...]
    base_sheafification: gluing.Sheafification
    module_sheafification: gluing.Sheafification


def kaehler_presheaf(base: sheaf.Presheaf) -> KaehlerPresheafResult:
    """Universal differential module over every open, glued into a triad.

    Module restrictions are forced: the restriction u -> v is Omega(r) for
    the algebra restriction r, read off the presentation by the module
    docstring's formula, with no solve.  Each distinct section algebra's
    module is built once.  The result is returned both as a raw presheaf
    triad and with both layers sheafified and the operator carried across
    blockwise.  The base is sheafified first, so InvalidTopologyError (a
    non-topology) and InvalidPresheafError (a base that fails validation)
    come before any module is built.
    """
    space = base.space
    base_plus = sheaf.sheafify(base)
    module_of = {a: kaehler_module(a) for a in dict.fromkeys(base.sections)}
    per_open = tuple(module_of[a] for a in base.sections)
    table = {}
    for u, v in space.inclusion_pairs:
        if u != v:
            ku, kv, r = per_open[u], per_open[v], base.restriction(u, v)
            n, composite = r.cols, kv.differential @ r
            cols = []
            for t in ku.chosen:
                # -sum_k r(b_k) d_v(r e_k), with b_k = b[k::n] in tensor coordinates
                b, col = ku.ideal.basis[t], [ZERO] * kv.module.dim
                for k in range(n):
                    if any(b[k::n]):
                        acted = kv.module.act(r.apply(b[k::n]), composite.col(k))
                        col = [x - y for x, y in zip(col, acted)]
                cols.append(col)
            table[(u, v)] = Matrix.from_columns(cols, rows=kv.module.dim)
    modules = sheaf.make_presheaf(space, (k.module for k in per_open), table, base)
    diffs = tuple(k.differential for k in per_open)
    presheaf_triad = triad.DifferentialTriad(base, modules, diffs)

    module_plus = sheaf.sheafify_module(modules, base_plus)
    d_plus = []
    for alg_layout, mod_layout in zip(base.layouts, modules.layouts):
        cols = []
        for b in alg_layout.basis:
            chunks = alg_layout.chunks(b)
            image = tuple(x for s, chunk in zip(alg_layout.stalk_opens, chunks)
                          for x in diffs[s].apply(chunk))
            cols.append(mod_layout.coordinates(image))
        d_plus.append(Matrix.from_columns(cols, rows=len(mod_layout.basis)))
    sheaf_triad = triad.DifferentialTriad(base_plus.presheaf, module_plus.presheaf,
                                          tuple(d_plus))
    return KaehlerPresheafResult(presheaf_triad, sheaf_triad, per_open,
                                 base_plus, module_plus)
