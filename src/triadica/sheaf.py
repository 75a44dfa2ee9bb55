"""Presheaves of algebras and modules on finite spaces, and their sheaf theory.

Both layers of a differential triad are one `Presheaf`: sections kept per
open-set index and restriction matrices stored for every inclusion pair of
opens.  An algebra layer has an `Algebra` over each open; a module layer has
`ModuleSections` and names as its `base` the algebra layer acting on them.

A finite space is Alexandrov: every point x has a minimal open U_x.  Over
an open U, a compatible stalk family is one section over U_x for each point
x of U such that the sections agree under restriction whenever one minimal
open contains another.  These families are
the limit lim_{x in U} F(U_x), and a presheaf F is a sheaf exactly when every
canonical map F(U) -> lim_{x in U} F(U_x) is bijective (Curry, Sheaves,
Cosheaves and Applications, arXiv:1303.3255, section 4).  The same families
are the sections of the sheafification.

Sections over the empty set are the degenerate zero algebra / zero module:
the empty open has no points, so its limit is the zero space.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import (Algebra, AlgebraMorphism, function_algebra,
                      validate_algebra, validate_algebra_morphism)
from .errors import DimensionMismatchError, InvariantError
from .exactla import (ONE, ZERO, Matrix, Subspace, Vector, contract,
                      contract_matrix, full_space, kernel, span, unit_vector)
from .finspace import (ContinuousMap, FiniteSpace, minimal_open, preimage_open,
                       require_topology)
from .record import Interner, record
from .report import Finding, Report, ValidationError, relocated


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


def zero_module_sections(algebra_dim: int) -> ModuleSections:
    return ModuleSections(algebra_dim, 0, tuple(() for _ in range(algebra_dim)))


def validate_module_sections(a: Algebra, m: ModuleSections) -> Report:
    """Unit acts as identity; action is associative over the algebra."""
    findings: list[Finding] = []
    n = a.dim
    basis = [unit_vector(n, i) for i in range(n)]
    mod_basis = [unit_vector(m.dim, j) for j in range(m.dim)]
    for j, w in enumerate(mod_basis):
        if m.act(a.unit, w) != w:
            findings.append(Finding("error", f"unit.w{j}",
                                    "unit does not act as the identity", j))
    for i in range(n):
        for j in range(n):
            prod = a.struct[i][j]
            for k, w in enumerate(mod_basis):
                if m.act(prod, w) != m.act(basis[i], m.act(basis[j], w)):
                    findings.append(Finding("error", f"(e{i} e{j}).w{k}",
                                            "action is not associative", [i, j, k]))
    return Report("validate_module_sections", tuple(findings))


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
    over the sections of `base`, the algebra layer on the same space.
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
        for u, v in self.space.inclusion_pairs():
            if (u, v) not in self.restrictions:
                raise DimensionMismatchError(f"missing {noun} for inclusion {u}->{v}")

    def restriction(self, u: int, v: int) -> Matrix:
        return self.restrictions[(u, v)]

    def section_dim(self, u: int) -> int:
        return self.sections[u].dim


def fill_restrictions(space: FiniteSpace, dims, given: dict) -> dict:
    """Complete a restriction table with identities and maps to empty opens."""
    table = dict(given)
    for u, v in space.inclusion_pairs():
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


def constant_presheaf(space: FiniteSpace, section,
                      base: Presheaf | None = None) -> Presheaf:
    """`section` over every nonempty open with identity restrictions, and
    zero over the empty open (the zero algebra, or the zero module over
    `base`)."""
    empty = function_algebra(0) if base is None else zero_module_sections(0)
    sections = tuple(section if u else empty for u in space.opens)
    table = {(u, v): Matrix.identity(section.dim)
             for u, v in space.inclusion_pairs() if u != v and space.opens[v]}
    return make_presheaf(space, sections, table, base)


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
             for u, v in space.inclusion_pairs()}
    return Presheaf(space, sections, table)


def zero_module_presheaf(base: Presheaf) -> Presheaf:
    return make_presheaf(base.space, (zero_module_sections(a.dim) for a in base.sections),
                         {}, base)


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


def _functoriality_findings(p: Presheaf, restriction_ids: dict,
                            interner: Interner) -> list[Finding]:
    """One finding per chain u -> v -> w whose composite is not the direct
    restriction; each distinct (r_uw, r_vw, r_uv), by the ids in
    `restriction_ids`, is multiplied out once per `interner`."""
    findings = []
    opens = p.space.opens
    for (u, v), uv in restriction_ids.items():
        if u == v:
            continue
        for w, smaller in enumerate(opens):
            if smaller <= opens[v] and not interner.once(
                    ("compose", restriction_ids[u, w], restriction_ids[v, w], uv),
                    lambda: p.restriction(v, w) @ p.restriction(u, v) == p.restriction(u, w)):
                findings.append(Finding("error", f"chain {u}->{v}->{w}",
                                        "restriction maps do not compose functorially",
                                        [u, v, w]))
    return findings


def _restriction_errors(p: Presheaf, u: int, v: int, interner: Interner) -> list[Finding]:
    """Where restriction u->v fails to be a map of p's layer: an algebra
    map, or a module map over the base's restriction, each distinct check
    once per `interner`.  Locations are relative to the pair."""
    r, source, target = p.restriction(u, v), p.sections[u], p.sections[v]
    if p.base is None:
        return relocated(": ", _algebra_map_errors(source, target, r, interner))
    base_r = p.base.restriction(u, v)
    return interner.once(("module map", *interner.ids((source, target, r, base_r))), lambda: [
        Finding("error", "", "restriction does not respect the action", [i, j])
        for i, j, _, _ in semilinearity_defects(r, base_r, source, target)])


def _algebra_map_errors(source: Algebra, target: Algebra, m: Matrix,
                        interner: Interner) -> list[Finding]:
    """validate_algebra_morphism's errors, found once per distinct
    (source, target, m) in `interner`."""
    return interner.once(("algebra map", *interner.ids((source, target, m))),
                         lambda: validate_algebra_morphism(
                             AlgebraMorphism(source, target, m)).errors())


def _presheaf_findings(p: Presheaf, interner: Interner) -> tuple[Finding, ...]:
    """The presheaf axioms, shared by both layers: per open valid sections
    and zero over the empty open; per inclusion pair the identity on the
    diagonal and a map of the layer (an algebra map, or a module map over
    the base's restriction); and functoriality.

    Every check is a function of the sections and matrices it reads, so
    within one call it runs once per distinct input, keyed on `interner`,
    and its findings are relocated to each open, pair or chain it stands
    for."""
    base = p.base
    space = p.space
    noun = "restriction" if base is None else "module restriction"
    findings: list[Finding] = []
    section_ids = interner.ids(p.sections)
    structure_ids = (section_ids if base is None
                     else list(zip(interner.ids(base.sections), section_ids)))
    for u, s in enumerate(p.sections):
        findings += relocated(f"open {u}: ", interner.once(
            ("sections", structure_ids[u]),
            lambda: (validate_algebra(s) if base is None
                     else validate_module_sections(base.sections[u], s)).errors()))
        if not space.opens[u] and s.dim != 0:
            findings.append(Finding(
                "error", f"open {u}",
                "sections over the empty set must be the zero algebra" if base is None
                else "module sections over the empty set must vanish", s.dim))
    pairs = space.inclusion_pairs()
    restriction_ids = dict(zip(pairs, interner.ids(p.restriction(u, v) for u, v in pairs)))
    for u, v in pairs:
        if u == v and p.restriction(u, v) != Matrix.identity(p.section_dim(u)):
            findings.append(Finding("error", f"{noun} {u}->{u}",
                                    "identity inclusion must restrict by the identity", None))
        findings += relocated(f"{noun} {u}->{v}", _restriction_errors(p, u, v, interner))
    return tuple(findings + _functoriality_findings(p, restriction_ids, interner))


def validate_algebra_presheaf(p: Presheaf, interner: Interner | None = None) -> Report:
    return Report("validate_algebra_presheaf", _presheaf_findings(p, interner or Interner()))


def validate_module_presheaf(m: Presheaf, interner: Interner | None = None) -> Report:
    return Report("validate_module_presheaf", _presheaf_findings(m, interner or Interner()))


class InvalidPresheafError(ValidationError):
    """The restrictions or sections break an axiom the operation relies on."""

    prefix = "not a valid presheaf"


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
    germs = {v: p.restriction(v, ux) for v in space.opens_containing({x})}
    return Stalk(x, ux, p.sections[ux], germs)


@record
class PresheafMorphism:
    """Componentwise linear map between presheaves over the same space."""

    source: Presheaf
    target: Presheaf
    components: tuple[Matrix, ...]

    def __post_init__(self):
        space = self.source.space
        if len(self.components) != len(space.opens):
            raise DimensionMismatchError("one component per open required")
        for u, c in enumerate(self.components):
            if c.cols != self.source.section_dim(u) or c.rows != self.target.section_dim(u):
                raise DimensionMismatchError(f"component over open {u} has shape "
                                             f"{c.rows}x{c.cols}")


def validate_presheaf_morphism(h: PresheafMorphism,
                               interner: Interner | None = None) -> Report:
    """Restriction squares; between algebra layers also unit and product
    preservation per open, each distinct check once per `interner`."""
    interner = interner or Interner()
    findings = [Finding("error", f"square {u}->{v}",
                        "component does not commute with restriction", [u, v])
                for u, v in restriction_square_failures(
                    h.components, h.source, h.target, h.source.space.inclusion_pairs(),
                    interner)]
    if h.source.base is None and h.target.base is None:
        for u, c in enumerate(h.components):
            findings += relocated(f"open {u}: ", _algebra_map_errors(
                h.source.sections[u], h.target.sections[u], c, interner))
    return Report("validate_presheaf_morphism", tuple(findings))


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
    space = p.space
    require_topology(space)
    witnesses: list[CoverWitness] = []
    for u in range(len(space.opens)):
        layout = _family_layout(p, u)
        cover = tuple(sorted(set(layout.stalk_opens)))
        columns = _stalk_families(p, u, layout)
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


# ---------------------------------------------------------------------------
# sheafification


@record
class FamilyLayout:
    """Coordinates of the compatible-stalk-family space over one open."""

    points: tuple[int, ...]
    stalk_opens: tuple[int, ...]
    offsets: tuple[int, ...]
    dims: tuple[int, ...]
    total: int
    compatible: Subspace

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


def _stalk_families(p: Presheaf, u: int, layout: FamilyLayout) -> list[Vector]:
    """The stalk family of each basis section over u: its restrictions to
    the minimal opens of u's points, stacked in `layout` order."""
    return [tuple(x for s in layout.stalk_opens for x in p.restriction(u, s).col(i))
            for i in range(p.section_dim(u))]


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
    return FamilyLayout(pts, stalk_opens, tuple(offsets), dims, total, compatible)


@record
class Sheafification:
    presheaf: Presheaf
    canonical: PresheafMorphism
    layouts: tuple[FamilyLayout, ...]


def _restriction_between_layouts(lu: FamilyLayout, lv: FamilyLayout) -> Matrix:
    """Truncate families from a bigger open to a smaller one."""
    if lv.total == 0 or not lv.basis:
        return Matrix.zeros(len(lv.basis), len(lu.basis))
    cols = []
    for b in lu.basis:
        chunk_of = dict(zip(lu.points, lu.chunks(b)))
        truncated = tuple(x for p in lv.points for x in chunk_of[p])
        cols.append(lv.coordinates(truncated))
    return Matrix.from_columns(cols, rows=len(lv.basis))


def _sheafify(p: Presheaf, left_layouts, operate, section,
              base: Presheaf | None = None) -> Sheafification:
    """Compatible-stalk-family sheafification, shared by both layers.

    Over each open the families of p get the stalkwise bilinear table
    `operate(stalk open, left chunk, right chunk)`, its left factor running
    over `left_layouts[u]` (p's own layouts when None) and its right factor
    over p's families.  `section(u, layout, table)` builds the sheafified
    sections over open u, which live over `base`; the canonical map sends a
    section to the family of its restrictions to the stalks.
    """
    space = p.space
    layouts = tuple(_family_layout(p, u) for u in range(len(space.opens)))
    tables = []
    for layout, left in zip(layouts, left_layouts or layouts):
        right_chunks = [layout.chunks(b) for b in layout.basis]
        table = []
        for a in left.basis:
            a_chunks = left.chunks(a)
            table.append(tuple(
                layout.coordinates(tuple(
                    x for s, ac, bc in zip(layout.stalk_opens, a_chunks, b_chunks)
                    for x in operate(s, ac, bc)))
                for b_chunks in right_chunks))
        tables.append(tuple(table))
    restrictions = {(u, v): _restriction_between_layouts(layouts[u], layouts[v])
                    for u, v in space.inclusion_pairs()}
    plus = Presheaf(space, tuple(section(u, layout, table) for u, (layout, table)
                                 in enumerate(zip(layouts, tables))),
                    restrictions, base)
    components = []
    for u, layout in enumerate(layouts):
        cols = [layout.coordinates(f) for f in _stalk_families(p, u, layout)]
        components.append(Matrix.from_columns(cols, rows=len(layout.basis)))
    return Sheafification(plus, PresheafMorphism(p, plus, tuple(components)),
                          layouts)


def sheafify(p: Presheaf) -> Sheafification:
    """Compatible-stalk-family sheafification of an algebra presheaf.

    Raises InvalidTopologyError on a non-topology and InvalidPresheafError
    on a presheaf that fails validation, before any family is built.
    """
    require_topology(p.space)
    InvalidPresheafError.require(validate_algebra_presheaf(p))

    def algebra(u, layout, struct):
        unit_family = tuple(x for s in layout.stalk_opens
                            for x in p.sections[s].unit)
        unit = layout.coordinates(unit_family) if layout.basis else ()
        return Algebra(len(layout.basis), struct, unit)

    return _sheafify(p, None, lambda s, x, y: p.sections[s].multiply(x, y),
                     algebra)


def sheafify_module(m: Presheaf, base_plus: Sheafification) -> Sheafification:
    """Sheafify a module presheaf over the already-sheafified base algebra."""
    return _sheafify(
        m, base_plus.layouts, lambda s, a, w: m.sections[s].act(a, w),
        lambda u, layout, action: ModuleSections(
            len(base_plus.layouts[u].basis), len(layout.basis), action),
        base_plus.presheaf)


# ---------------------------------------------------------------------------
# pushforward


def _preimages(f: ContinuousMap) -> list[int]:
    return [preimage_open(f, v) for v in range(len(f.codomain.opens))]


def _pushforward(f: ContinuousMap, p: Presheaf, base_image: Presheaf | None) -> Presheaf:
    """Sections and restrictions of p read at the preimages of f's opens."""
    if p.space != f.domain:
        raise DimensionMismatchError("presheaf does not live on the map's domain")
    pre = _preimages(f)
    table = {(u, v): p.restriction(pre[u], pre[v])
             for u, v in f.codomain.inclusion_pairs()}
    return Presheaf(f.codomain, tuple(p.sections[w] for w in pre), table, base_image)


def pushforward(f: ContinuousMap, p: Presheaf) -> Presheaf:
    """Direct image: sections over V are the sections over the preimage.  A
    module layer lands over the direct image of its base."""
    return _pushforward(f, p, None if p.base is None else pushforward(f, p.base))


def pushforward_module(f: ContinuousMap, m: Presheaf,
                       base_image: Presheaf) -> Presheaf:
    """Direct image of a module layer over `base_image`, the direct image of
    its base."""
    return _pushforward(f, m, base_image)
