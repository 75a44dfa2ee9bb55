"""Constructors of spaces, algebras, presheaves, triads and morphisms that
the tests and `make_workspaces.py` build from, and that no command runs.

They are grouped under the layer each builds for.
"""

from __future__ import annotations

from triadica.algebra import Algebra, ModuleSections, function_algebra
from triadica.dtcat import TriadMorphism, point_map_components
from triadica.exactla import ONE, ZERO, Matrix, rat, unit_vector, vec
from triadica.finspace import FiniteSpace, minimal_open
from triadica.maps import ContinuousMap
from triadica.record import record
from triadica.report import DimensionMismatchError
from triadica.sheaf import Presheaf, function_presheaf, make_presheaf
from triadica.triad import DifferentialTriad

# ---------------------------------------------------------------------------
# finspace


def space_from_opens(point_count: int, opens) -> FiniteSpace:
    return FiniteSpace(point_count, tuple(frozenset(u) for u in opens))


def discrete_space(n: int) -> FiniteSpace:
    # Opens ordered by bitmask value: stable, and the empty set comes first.
    opens = []
    for mask in range(1 << n):
        opens.append(frozenset(i for i in range(n) if mask >> i & 1))
    return FiniteSpace(n, tuple(opens))


def indiscrete_space(n: int) -> FiniteSpace:
    return FiniteSpace(n, (frozenset(), frozenset(range(n))) if n else (frozenset(),))


def sierpinski_space() -> FiniteSpace:
    """Two points where {0} is open but {1} is not."""
    return FiniteSpace(2, (frozenset(), frozenset({0}), frozenset({0, 1})))


def opens_containing(space: FiniteSpace, subset) -> list[int]:
    target = frozenset(subset)
    return [i for i, u in enumerate(space.opens) if target <= u]


# ---------------------------------------------------------------------------
# maps


def identity_map(space: FiniteSpace) -> ContinuousMap:
    return ContinuousMap(space, space, tuple(space.points))


# ---------------------------------------------------------------------------
# algebra


def algebra_from_struct(struct, unit) -> Algebra:
    rows = tuple(tuple(vec(v) for v in row) for row in struct)
    return Algebra(len(rows), rows, vec(unit))


def zero_module_sections(algebra_dim: int) -> ModuleSections:
    return ModuleSections(algebra_dim, 0, tuple(() for _ in range(algebra_dim)))


# ---------------------------------------------------------------------------
# spectrum


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


# ---------------------------------------------------------------------------
# sheaf


def constant_presheaf(space: FiniteSpace, section,
                      base: Presheaf | None = None) -> Presheaf:
    """`section` over every nonempty open with identity restrictions, and
    zero over the empty open (the zero algebra, or the zero module over
    `base`)."""
    empty = function_algebra(0) if base is None else zero_module_sections(0)
    sections = tuple(section if u else empty for u in space.opens)
    table = {(u, v): Matrix.identity(section.dim)
             for u, v in space.inclusion_pairs if u != v and space.opens[v]}
    return make_presheaf(space, sections, table, base)


def zero_module_presheaf(base: Presheaf) -> Presheaf:
    return make_presheaf(base.space, (zero_module_sections(a.dim) for a in base.sections),
                         {}, base)


@record
class Stalk:
    point: int
    open_index: int
    sections: object
    germ_maps: dict


def stalk(p: Presheaf, x: int) -> Stalk:
    """Sections over the minimal open of x, with the maps from larger opens."""
    space = p.space
    ux = minimal_open(space, x)
    germs = {v: p.restriction(v, ux) for v in opens_containing(space, {x})}
    return Stalk(x, ux, p.sections[ux], germs)


# ---------------------------------------------------------------------------
# triad


def function_triad(space: FiniteSpace) -> DifferentialTriad:
    """The functional triad: function algebras, zero module, zero operator."""
    algebras = function_presheaf(space)
    modules = zero_module_presheaf(algebras)
    diffs = tuple(Matrix.zeros(0, algebras.section_dim(u))
                  for u in range(len(space.opens)))
    return DifferentialTriad(algebras, modules, diffs)


def constant_triad(space: FiniteSpace, a: Algebra, module: ModuleSections,
                   d: Matrix) -> DifferentialTriad:
    """Same algebra, module and operator over each nonempty open, with
    identity restrictions.  Useful for one-chart examples."""
    algebras = constant_presheaf(space, a)
    modules = constant_presheaf(space, module, base=algebras)
    diffs = tuple(d if open_set else Matrix.zeros(0, 0)
                  for open_set in space.opens)
    return DifferentialTriad(algebras, modules, diffs)


# ---------------------------------------------------------------------------
# dtcat


def identity_morphism(t: DifferentialTriad) -> TriadMorphism:
    n = len(t.space.opens)
    return TriadMorphism(
        identity_map(t.space), t, t,
        tuple(Matrix.identity(t.algebras.section_dim(v)) for v in range(n)),
        tuple(Matrix.identity(t.modules.section_dim(v)) for v in range(n)))


def pullback_morphism(f: ContinuousMap) -> TriadMorphism:
    """Precomposition with f, as a morphism of the functional triads."""
    tx, ty = function_triad(f.domain), function_triad(f.codomain)
    mod = tuple(Matrix.zeros(0, 0) for _ in f.codomain.opens)
    return TriadMorphism(f, tx, ty, point_map_components(f, f.values), mod)
