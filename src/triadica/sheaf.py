"""Presheaves of algebras and modules on finite spaces, and their sheaf theory.

Both layers of a differential triad are one `Presheaf`: sections kept per
open-set index and restriction matrices stored for every inclusion pair of
opens.  An algebra layer has an `Algebra` over each open; a module layer has
`ModuleSections`, the modules over an algebra that the `algebra` layer
defines, and names as its `base` the algebra layer acting on them.

A finite space is Alexandrov: every point x has a minimal open U_x.  Over
an open U, a compatible stalk family is one section over U_x for each point
x of U such that the sections agree under restriction whenever one minimal
open contains another.  These families are
the limit lim_{x in U} F(U_x), and a presheaf F is a sheaf exactly when every
canonical map F(U) -> lim_{x in U} F(U_x) is bijective (Curry, Sheaves,
Cosheaves and Applications, arXiv:1303.3255, section 4).  The same families
are the sections of the sheafification, which the `gluing` layer builds;
it loads on first use, so only the commands that sheafify compile it.

Sections over the empty set are the degenerate zero algebra / zero module:
the empty open has no points, so its limit is the zero space.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from . import axioms, gluing, maps, sheafmaps
from .algebra import (Algebra, AlgebraMorphism, ModuleSections, basis_pairs,
                      function_algebra, generators_first, morphism_findings,
                      validate_algebra_morphism)
from .exactla import ONE, ZERO, Matrix, kernel, span, unit_vector
from .finspace import FiniteSpace, require_topology
from .record import Interner, record
from .report import DimensionMismatchError, Finding, Report, ValidationError


def semilinearity_defects(rho: Matrix, r: Matrix, source: ModuleSections,
                          target: ModuleSections):
    """Where rho: source -> target fails to be linear over the algebra map r.

    Per algebra basis element e_i the identity rho L_source(e_i) =
    L_target(r e_i) rho must hold.  Column j of the two sides is
    rho(e_i . w_j) and (r e_i) . rho(w_j); they are compared column by
    column, and (i, j, lhs column, rhs column) is yielded for every pair
    where they differ, in order of i, then j.
    """
    rho_cols = rho.transpose().entries
    for i, products in enumerate(source.action):
        l_target = target.act_matrix(r.col(i))
        for j, (w, rho_w) in enumerate(zip(products, rho_cols)):
            lhs, rhs = rho.apply(w), l_target.apply(rho_w)
            if lhs != rhs:
                yield i, j, lhs, rhs


@record
class Presheaf:
    """Sections over every open and a restriction matrix per inclusion pair.

    With `base` None the sections are algebras; otherwise they are modules
    over the sections of `base`, the algebra layer on the same space.  Nothing
    mutates `restrictions` after construction, so `layouts` is built once.
    """

    space: FiniteSpace
    sections: tuple
    restrictions: dict
    base: Presheaf | None = None

    def __post_init__(self):
        noun = "restriction" if self.base is None else "module restriction"
        if len(self.sections) != len(self.space.opens):
            raise DimensionMismatchError("one section per open required")
        if self.base is not None:
            if self.base.space != self.space:
                raise DimensionMismatchError("module layer must live on its base's space")
            for u, m in enumerate(self.sections):
                if m.algebra_dim != self.base.sections[u].dim:
                    raise DimensionMismatchError(f"module over open {u} has wrong algebra dim")
        for (u, v), m in self.restrictions.items():
            if m.cols != self.sections[u].dim or m.rows != self.sections[v].dim:
                raise DimensionMismatchError(
                    f"{noun} {u}->{v} has shape {m.rows}x{m.cols}")
        for u, v in self.space.inclusion_pairs:
            if (u, v) not in self.restrictions:
                raise DimensionMismatchError(f"missing {noun} for inclusion {u}->{v}")

    def restriction(self, u: int, v: int) -> Matrix:
        return self.restrictions[(u, v)]

    def section_dim(self, u: int) -> int:
        return self.sections[u].dim

    @cached_property
    def layouts(self) -> tuple[axioms.FamilyLayout, ...]:
        """The FamilyLayout of each open; the space must be a topology."""
        return tuple(axioms.family_layout(self, u) for u in range(len(self.space.opens)))


def fill_restrictions(space: FiniteSpace, dims, given: dict) -> dict:
    """Complete a restriction table with identities and maps to empty opens."""
    table = dict(given)
    for u, v in space.inclusion_pairs:
        if (u, v) in table:
            continue
        if u == v:
            table[(u, v)] = Matrix.identity(dims[u])
        elif dims[v] == 0:
            table[(u, v)] = Matrix.zeros(0, dims[u])
        else:
            raise DimensionMismatchError(f"missing restriction for inclusion {u}->{v}")
    return table


def make_presheaf(space: FiniteSpace, sections, restrictions,
                  base: Presheaf | None = None) -> Presheaf:
    """A presheaf whose identities and maps to empty opens may be left out."""
    sections = tuple(sections)
    table = fill_restrictions(space, [s.dim for s in sections], restrictions)
    return Presheaf(space, sections, table, base)


def function_restriction_matrix(bigger, smaller) -> Matrix:
    """Coordinate-selection map Q^{sorted bigger} -> Q^{sorted smaller}."""
    big, small = sorted(bigger), sorted(smaller)
    if not small:
        return Matrix.zeros(0, len(big))
    rows = [[ONE if q == p else ZERO for q in big] for p in small]
    return Matrix.from_rows(rows, cols=len(big))


def function_presheaf(space: FiniteSpace) -> Presheaf:
    """U -> all rational functions on U, coordinates at sorted points."""
    sections = tuple(function_algebra(len(u)) for u in space.opens)
    table = {(u, v): function_restriction_matrix(space.opens[u], space.opens[v])
             for u, v in space.inclusion_pairs}
    return Presheaf(space, sections, table)


def restriction_square_failures(components, source: Presheaf, target: Presheaf,
                                pairs, interner: Interner) -> list[tuple[int, int]]:
    """The inclusion pairs (u, v) among `pairs` where the square
    components[v] . source(u->v) = target(u->v) . components[u] fails.
    Each distinct square, by its four matrices, is multiplied out once per
    `interner`."""
    failures = []
    for u, v in pairs:
        s, t = source.restriction(u, v), target.restriction(u, v)
        if not interner.once("square", (components[v], s, t, components[u]),
                             lambda: components[v] @ s == t @ components[u]):
            failures.append((u, v))
    return failures


def algebra_map_errors(source: Algebra, target: Algebra, m: Matrix,
                        interner: Interner) -> list[Finding]:
    """validate_algebra_morphism's errors, found once per distinct
    (source, target, m) in `interner`; when both algebras passed their
    check there, the a with m(ab) = m(a)m(b) for all b form a subalgebra,
    so products with generators come first."""
    known = interner.passed("sections", (source,)) and interner.passed("sections", (target,))

    def check():
        h = AlgebraMorphism(source, target, m)
        if known:
            return generators_first(source, lambda among: morphism_findings(
                h, basis_pairs(source.dim, among)))
        return validate_algebra_morphism(h).errors()
    return interner.once("algebra map", (source, target, m), check)


def validate_algebra_presheaf(p: Presheaf, interner: Interner | None = None) -> Report:
    return Report("validate_algebra_presheaf", axioms.presheaf_findings(p, interner or Interner()))


def validate_module_presheaf(m: Presheaf, interner: Interner | None = None) -> Report:
    return Report("validate_module_presheaf", axioms.presheaf_findings(m, interner or Interner()))


class InvalidPresheafError(ValidationError):
    """The restrictions or sections break an axiom the operation relies on."""

    prefix = "not a valid presheaf"


def validate_presheaf_morphism(h, interner: Interner | None = None) -> Report:
    return sheafmaps.validate_presheaf_morphism(h, interner)


# ---------------------------------------------------------------------------
# sheaf condition


@record
class CoverWitness:
    open_index: int
    cover: tuple[int, ...]
    kind: str  # "not_injective", "gluing_fails" or "not_compatible"
    section: object


@record
class SheafCertificate:
    presheaf: Presheaf
    is_sheaf: bool
    witnesses: tuple[CoverWitness, ...]


def irredundant_covers(space: FiniteSpace, u: int) -> list[tuple[int, ...]]:
    """Covers of opens[u] by proper nonempty opens, none inside the others'
    union; for the empty open this is just the empty cover."""
    u_set = space.opens[u]
    if not u_set:
        return [()]
    members = [i for i, w in enumerate(space.opens) if w and w < u_set]
    out = []
    for r in range(1, len(members) + 1):
        for combo in combinations(members, r):
            union = frozenset().union(*[space.opens[i] for i in combo])
            if union != u_set:
                continue
            redundant = False
            for i in combo:
                others = [space.opens[j] for j in combo if j != i]
                rest = frozenset().union(*others) if others else frozenset()
                if space.opens[i] <= rest:
                    redundant = True
                    break
            if not redundant:
                out.append(combo)
    return sorted(out)


def check_sheaf_condition(p: Presheaf) -> SheafCertificate:
    """Stalk-family test: every canonical map F(U) -> lim_{x in U} F(U_x)
    must be bijective (Curry, arXiv:1303.3255, section 4).

    The canonical map N over U stacks the restrictions to the minimal opens
    of U's points in family-layout order.  An open fails with one witness,
    whose cover is the sorted distinct minimal opens of its points: a kernel
    vector of N (`not_injective`), a compatible family outside N's image
    (`gluing_fails`), or, when the restrictions do not compose, a basis
    section whose stalk family is not compatible (`not_compatible`).  The
    open passes only when N is injective and the echelon bases of its image
    and of the compatible-family space are equal.
    """
    require_topology(p.space)
    witnesses: list[CoverWitness] = []
    for u, layout in enumerate(p.layouts):
        cover = tuple(sorted(set(layout.stalk_opens)))
        columns = layout.families
        image = span(layout.total, columns)
        if image.dim < len(columns):
            natural = Matrix.from_columns(columns, rows=layout.total)
            witnesses.append(CoverWitness(u, cover, "not_injective",
                                          [str(x) for x in kernel(natural).basis[0]]))
        elif image.basis != layout.basis:
            stray = next((b for b in layout.basis if not image.contains(b)), None)
            if stray is not None:
                witnesses.append(CoverWitness(
                    u, cover, "gluing_fails",
                    [[str(x) for x in chunk] for chunk in layout.chunks(stray)]))
            else:
                i = next(i for i, c in enumerate(columns)
                         if not layout.compatible.contains(c))
                witnesses.append(CoverWitness(
                    u, cover, "not_compatible",
                    [str(x) for x in unit_vector(len(columns), i)]))
    return SheafCertificate(p, not witnesses, tuple(witnesses))


def sheaf_status(layers) -> list[Finding]:
    out = []
    for label, layer in layers:
        cert = check_sheaf_condition(layer)
        if cert.is_sheaf:
            out.append(Finding("info", label, "sheaf condition holds", None))
        else:
            out.append(Finding(
                "info", label,
                f"sheaf condition fails ({len(cert.witnesses)} witnesses)",
                None))
    return out


# ---------------------------------------------------------------------------
# sheafification


def sheafify(p: Presheaf) -> gluing.Sheafification:
    return gluing.sheafify(p)


def sheafify_module(m: Presheaf,
                    base_plus: gluing.Sheafification) -> gluing.Sheafification:
    """Sheafify a module presheaf over `base_plus`, the sheafification of
    `m.base`, whose families (`m.base.layouts`) act on those of m."""
    return gluing.sheafify_layer(
        m, lambda s, a, w: m.sections[s].act(a, w),
        lambda u, layout, action: ModuleSections(len(action), len(layout.basis), action),
        base_plus.presheaf)


# ---------------------------------------------------------------------------
# pushforward


def pushforward(f: maps.ContinuousMap, p: Presheaf) -> Presheaf:
    """Direct image: sections over V are the sections over the preimage.  A
    module layer lands over the direct image of its base."""
    return sheafmaps.direct_image(f, p, None if p.base is None else pushforward(f, p.base))


def pushforward_module(f: maps.ContinuousMap, m: Presheaf,
                       base_image: Presheaf) -> Presheaf:
    """Direct image of a module layer over `base_image`, the direct image of
    its base."""
    return sheafmaps.direct_image(f, m, base_image)
