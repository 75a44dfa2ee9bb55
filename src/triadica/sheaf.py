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

from . import gluing, maps, sheafmaps
from .algebra import (Algebra, AlgebraMorphism, ModuleSections, action_findings,
                      basis_pairs, function_algebra, generators_first,
                      morphism_findings, validate_algebra,
                      validate_algebra_morphism, validate_module_sections)
from .errors import DimensionMismatchError, InvariantError
from .exactla import (ONE, ZERO, Matrix, Subspace, Vector, full_space, kernel,
                      span, unit_vector)
from .finspace import FiniteSpace, minimal_open, require_topology
from .record import Interner, record
from .report import Finding, Report, ValidationError, relocated


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
    def layouts(self) -> tuple[FamilyLayout, ...]:
        """The FamilyLayout of each open; the space must be a topology."""
        return tuple(_family_layout(self, u) for u in range(len(self.space.opens)))


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
    pairs = list(pairs)
    component_ids = interner.ids(components)
    source_ids = interner.ids(source.restriction(u, v) for u, v in pairs)
    target_ids = interner.ids(target.restriction(u, v) for u, v in pairs)
    return [(u, v) for (u, v), s, t in zip(pairs, source_ids, target_ids)
            if not interner.once(("square", component_ids[v], s, t, component_ids[u]),
                                 lambda: components[v] @ source.restriction(u, v)
                                 == target.restriction(u, v) @ components[u])]


def _functoriality_findings(p: Presheaf, tops, restriction_ids: dict,
                            interner: Interner) -> list[Finding]:
    """One finding per chain u -> v -> w, (u, v) among `tops`, whose
    composite is not the direct restriction; each distinct (r_uw, r_vw,
    r_uv), by the ids in `restriction_ids`, is multiplied out once per
    `interner`."""
    findings = []
    opens = p.space.opens
    for u, v in tops:
        uv = restriction_ids[u, v]
        for w, smaller in enumerate(opens):
            if smaller <= opens[v] and not interner.once(
                    ("compose", restriction_ids[u, w], restriction_ids[v, w], uv),
                    lambda: p.restriction(v, w) @ p.restriction(u, v) == p.restriction(u, w)):
                findings.append(Finding("error", f"chain {u}->{v}->{w}",
                                        "restriction maps do not compose functorially",
                                        [u, v, w]))
    return findings


def _pair_findings(p: Presheaf, pairs, interner: Interner) -> list[Finding]:
    """Per inclusion pair among `pairs`, the identity on the diagonal and a
    map of p's layer."""
    noun = "restriction" if p.base is None else "module restriction"
    findings = []
    for u, v in pairs:
        if u == v and p.restriction(u, v) != Matrix.identity(p.section_dim(u)):
            findings.append(Finding("error", f"{noun} {u}->{u}",
                                    "identity inclusion must restrict by the identity", None))
        findings += relocated(f"{noun} {u}->{v}", _restriction_errors(p, u, v, interner))
    return findings


def _restriction_errors(p: Presheaf, u: int, v: int, interner: Interner) -> list[Finding]:
    """Where restriction u->v fails to be a map of p's layer: an algebra
    map, or a module map over the base's restriction, each distinct check
    once per `interner`.  Locations are relative to the pair."""
    r, source, target = p.restriction(u, v), p.sections[u], p.sections[v]
    if p.base is None:
        return relocated(": ", algebra_map_errors(source, target, r, interner))
    base_r = p.base.restriction(u, v)
    return interner.once(("module map", *interner.ids((source, target, r, base_r))), lambda: [
        Finding("error", "", "restriction does not respect the action", [i, j])
        for i, j, _, _ in semilinearity_defects(r, base_r, source, target)])


def algebra_map_errors(source: Algebra, target: Algebra, m: Matrix,
                        interner: Interner) -> list[Finding]:
    """validate_algebra_morphism's errors, found once per distinct
    (source, target, m) in `interner`; when both algebras passed their
    check there, the a with m(ab) = m(a)m(b) for all b form a subalgebra,
    so products with generators come first."""
    ids = interner.ids((source, target, m))
    known = interner.passed(("sections", ids[0])) and interner.passed(("sections", ids[1]))

    def check():
        h = AlgebraMorphism(source, target, m)
        if known:
            return generators_first(source, lambda among: morphism_findings(
                h, basis_pairs(source.dim, among)))
        return validate_algebra_morphism(h).errors()
    return interner.once(("algebra map", *ids), check)


def _presheaf_findings(p: Presheaf, interner: Interner) -> tuple[Finding, ...]:
    """The presheaf axioms, shared by both layers: per open valid sections
    and zero over the empty open; per inclusion pair the identity on the
    diagonal and a map of the layer (an algebra map, or a module map over
    the base's restriction); and functoriality.

    Every check is a function of the sections and matrices it reads, so
    within one call it runs once per distinct input, keyed on `interner`,
    and its findings are relocated to each open, pair or chain it stands
    for.

    Once the sections pass (and a module layer's base composes on them),
    the cover pairs and the chains u -> v -> w from one come first: by
    induction on chain length they give every chain, and each restriction
    is a composite of checked maps.  Any finding reruns every pair."""
    base, space = p.base, p.space
    findings: list[Finding] = []
    section_ids = interner.ids(p.sections)
    if base is not None:
        base_ids = interner.ids(base.sections)
        section_ids = list(zip(base_ids, section_ids))
    for u, s in enumerate(p.sections):
        if base is None:
            check = lambda: validate_algebra(s).errors()
        elif interner.passed(("sections", base_ids[u])):
            a = base.sections[u]
            check = lambda: generators_first(a, lambda firsts: action_findings(a, s, firsts))
        else:
            check = lambda: validate_module_sections(base.sections[u], s).errors()
        findings += relocated(f"open {u}: ", interner.once(("sections", section_ids[u]), check))
        if not space.opens[u] and s.dim != 0:
            findings.append(Finding(
                "error", f"open {u}",
                "sections over the empty set must be the zero algebra" if base is None
                else "module sections over the empty set must vanish", s.dim))
    pairs, covers = space.inclusion_pairs, space.cover_pairs
    restriction_ids = dict(zip(pairs, interner.ids(p.restriction(u, v) for u, v in pairs)))
    if not findings and (base is None or not _functoriality_findings(
            base, covers, dict(zip(pairs, interner.ids(base.restriction(u, v) for u, v in pairs))),
            interner)):
        diagonal = [(u, u) for u in range(len(space.opens))]
        if not (_pair_findings(p, diagonal + list(covers), interner)
                or _functoriality_findings(p, covers, restriction_ids, interner)):
            return ()
    proper = [(u, v) for u, v in pairs if u != v]
    return tuple(findings + _pair_findings(p, pairs, interner)
                 + _functoriality_findings(p, proper, restriction_ids, interner))


def validate_algebra_presheaf(p: Presheaf, interner: Interner | None = None) -> Report:
    return Report("validate_algebra_presheaf", _presheaf_findings(p, interner or Interner()))


def validate_module_presheaf(m: Presheaf, interner: Interner | None = None) -> Report:
    return Report("validate_module_presheaf", _presheaf_findings(m, interner or Interner()))


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


def validate_presheaf_command(args, p):
    rep = validate_algebra_presheaf(p)
    return Report(rep.operation, rep.findings + tuple(sheaf_status([("sections", p)]))), {}


# ---------------------------------------------------------------------------
# sheafification


@record
class FamilyLayout:
    """Coordinates of the compatible-stalk-family space over one open, and
    in them `families`, the stalk family of each basis section over it."""

    points: tuple[int, ...]
    stalk_opens: tuple[int, ...]
    offsets: tuple[int, ...]
    dims: tuple[int, ...]
    total: int
    compatible: Subspace
    families: tuple[Vector, ...]

    @property
    def basis(self) -> tuple[Vector, ...]:
        """Echelon basis of the compatible-family space."""
        return self.compatible.basis

    def chunks(self, vector):
        return [tuple(vector[o:o + d]) for o, d in zip(self.offsets, self.dims)]

    def coordinates(self, vector) -> Vector:
        coords = self.compatible.coordinates(vector)
        if coords is None:
            raise InvariantError("family is not compatible; sheafification is broken")
        return coords


def _family_layout(p: Presheaf, u: int) -> FamilyLayout:
    space = p.space
    pts = tuple(sorted(space.opens[u]))
    stalk_opens = tuple(minimal_open(space, x) for x in pts)
    dims = tuple(p.section_dim(s) for s in stalk_opens)
    offsets = []
    total = 0
    for d in dims:
        offsets.append(total)
        total += d
    rows = []
    for a_pos, x in enumerate(pts):
        for b_pos, y in enumerate(pts):
            if x == y:
                continue
            # y in U_x exactly when U_y is inside U_x
            if not space.opens[stalk_opens[b_pos]] <= space.opens[stalk_opens[a_pos]]:
                continue
            if space.opens[stalk_opens[b_pos]] == space.opens[stalk_opens[a_pos]]:
                # identical minimal opens at distinct points: both directions
                # would give the same constraint twice; keep one orientation
                if b_pos < a_pos:
                    continue
            r = p.restriction(stalk_opens[a_pos], stalk_opens[b_pos])
            for row_idx in range(r.rows):
                row = [ZERO] * total
                for c in range(r.cols):
                    row[offsets[a_pos] + c] += r.entries[row_idx][c]
                row[offsets[b_pos] + row_idx] -= ONE
                rows.append(row)
    compatible = kernel(Matrix.from_rows(rows, cols=total)) if rows else full_space(total)
    families = tuple(tuple(x for s in stalk_opens for x in p.restriction(u, s).col(i))
                     for i in range(p.section_dim(u)))
    return FamilyLayout(pts, stalk_opens, tuple(offsets), dims, total, compatible, families)


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
