"""Presheaves of algebras and modules on finite spaces, and their sheaf theory.

Sections are kept per open-set index; restriction matrices are stored for
every inclusion pair of opens.  A finite space is Alexandrov: every point x
has a minimal open U_x.  Over an open U, a compatible stalk family is one
section over U_x for each point x of U such that the sections agree under
restriction whenever one minimal open contains another.  These families are
the limit lim_{x in U} F(U_x), and a presheaf F is a sheaf exactly when every
canonical map F(U) -> lim_{x in U} F(U_x) is bijective (Curry, Sheaves,
Cosheaves and Applications, arXiv:1303.3255, section 4).  The same families
are the sections of the sheafification.

Sections over the empty set are the degenerate zero algebra / zero module:
the empty open has no points, so its limit is the zero space.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .algebra import (Algebra, AlgebraMorphism, function_algebra,
                      validate_algebra, validate_algebra_morphism)
from .errors import DimensionMismatchError, InvariantError, TriadicaError
from .exactla import (ONE, ZERO, Matrix, Subspace, Vector, full_space, kernel,
                      span, unit_vector)
from .finspace import (ContinuousMap, FiniteSpace, minimal_open,
                       minimal_open_superset, preimage_open, require_topology)
from .report import Finding, Report


class RestrictionSquareViolation(TriadicaError):
    """A morphism component fails to commute with a restriction map."""

    def __init__(self, open_index: int, section):
        self.open_index = open_index
        self.section = tuple(section)
        super().__init__(
            f"restriction square fails over open index {open_index} "
            f"on section {[str(x) for x in section]}")


@dataclass(frozen=True)
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
        out = [ZERO] * self.dim
        for i, ai in enumerate(a):
            if ai == 0:
                continue
            row = self.action[i]
            for j, wj in enumerate(w):
                if wj == 0:
                    continue
                c = ai * wj
                for k, s in enumerate(row[j]):
                    if s != 0:
                        out[k] += c * s
        return tuple(out)

    def act_matrix(self, a) -> Matrix:
        cols = [self.act(a, unit_vector(self.dim, i)) for i in range(self.dim)]
        return Matrix.from_columns(cols, rows=self.dim)


def zero_module_sections(algebra_dim: int) -> ModuleSections:
    return ModuleSections(algebra_dim, 0, tuple(() for _ in range(algebra_dim)))


def free_module_sections(a: Algebra, rank: int) -> ModuleSections:
    """A^rank with the diagonal multiplication action."""
    n = a.dim
    dim = n * rank
    basis = [unit_vector(n, i) for i in range(n)]
    action = []
    for i in range(n):
        row = []
        for j in range(dim):
            block, pos = divmod(j, n)
            prod = a.multiply(basis[i], basis[pos])
            out = [ZERO] * dim
            for t, x in enumerate(prod):
                out[block * n + t] = x
            row.append(tuple(out))
        action.append(tuple(row))
    return ModuleSections(n, dim, tuple(action))


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


@dataclass(frozen=True)
class AlgebraPresheaf:
    space: FiniteSpace
    sections: tuple[Algebra, ...]
    restrictions: dict

    def __post_init__(self):
        if len(self.sections) != len(self.space.opens):
            raise DimensionMismatchError("one section algebra per open required")
        for (u, v), m in self.restrictions.items():
            if m.cols != self.sections[u].dim or m.rows != self.sections[v].dim:
                raise DimensionMismatchError(
                    f"restriction {u}->{v} has shape {m.rows}x{m.cols}")
        for u, v in self.space.inclusion_pairs():
            if (u, v) not in self.restrictions:
                raise DimensionMismatchError(f"missing restriction for inclusion {u}->{v}")

    def algebra(self, u: int) -> Algebra:
        return self.sections[u]

    def restriction(self, u: int, v: int) -> Matrix:
        return self.restrictions[(u, v)]

    def section_dim(self, u: int) -> int:
        return self.sections[u].dim


@dataclass(frozen=True)
class ModulePresheaf:
    base: AlgebraPresheaf
    sections: tuple[ModuleSections, ...]
    restrictions: dict

    def __post_init__(self):
        if len(self.sections) != len(self.base.space.opens):
            raise DimensionMismatchError("one module per open required")
        for u, m in enumerate(self.sections):
            if m.algebra_dim != self.base.sections[u].dim:
                raise DimensionMismatchError(f"module over open {u} has wrong algebra dim")
        for (u, v), m in self.restrictions.items():
            if m.cols != self.sections[u].dim or m.rows != self.sections[v].dim:
                raise DimensionMismatchError(
                    f"module restriction {u}->{v} has shape {m.rows}x{m.cols}")
        for u, v in self.base.space.inclusion_pairs():
            if (u, v) not in self.restrictions:
                raise DimensionMismatchError(f"missing module restriction {u}->{v}")

    @property
    def space(self) -> FiniteSpace:
        return self.base.space

    def module(self, u: int) -> ModuleSections:
        return self.sections[u]

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


def make_algebra_presheaf(space: FiniteSpace, sections, restrictions) -> AlgebraPresheaf:
    sections = tuple(sections)
    dims = [a.dim for a in sections]
    return AlgebraPresheaf(space, sections, fill_restrictions(space, dims, restrictions))


def make_module_presheaf(base: AlgebraPresheaf, sections, restrictions) -> ModulePresheaf:
    sections = tuple(sections)
    dims = [m.dim for m in sections]
    return ModulePresheaf(base, sections, fill_restrictions(base.space, dims, restrictions))


def constant_presheaf(space: FiniteSpace, a: Algebra) -> AlgebraPresheaf:
    """a over every nonempty open, identity restrictions, zero over empty."""
    empty = function_algebra(0)
    sections = tuple(a if u else empty for u in space.opens)
    table = {(u, v): Matrix.identity(a.dim)
             for u, v in space.inclusion_pairs() if u != v and space.opens[v]}
    return make_algebra_presheaf(space, sections, table)


def function_restriction_matrix(bigger, smaller) -> Matrix:
    """Coordinate-selection map Q^{sorted bigger} -> Q^{sorted smaller}."""
    big, small = sorted(bigger), sorted(smaller)
    if not small:
        return Matrix.zeros(0, len(big))
    rows = [[ONE if q == p else ZERO for q in big] for p in small]
    return Matrix.from_rows(rows, cols=len(big))


def function_presheaf(space: FiniteSpace) -> AlgebraPresheaf:
    """U -> all rational functions on U, coordinates at sorted points."""
    sections = tuple(function_algebra(len(u)) for u in space.opens)
    table = {(u, v): function_restriction_matrix(space.opens[u], space.opens[v])
             for u, v in space.inclusion_pairs()}
    return AlgebraPresheaf(space, sections, table)


def zero_module_presheaf(base: AlgebraPresheaf) -> ModulePresheaf:
    sections = tuple(zero_module_sections(a.dim) for a in base.sections)
    table = {(u, v): Matrix.zeros(0, 0) for u, v in base.space.inclusion_pairs()}
    return ModulePresheaf(base, sections, table)


def _functoriality_findings(p: AlgebraPresheaf | ModulePresheaf) -> list[Finding]:
    findings = []
    space = p.space
    for u, v in space.inclusion_pairs():
        if u == v:
            continue
        for w in range(len(space.opens)):
            if not space.opens[w] <= space.opens[v]:
                continue
            direct = p.restriction(u, w)
            composed = p.restriction(v, w) @ p.restriction(u, v)
            if direct != composed:
                findings.append(Finding("error", f"chain {u}->{v}->{w}",
                                        "restriction maps do not compose functorially",
                                        [u, v, w]))
    return findings


def validate_algebra_presheaf(p: AlgebraPresheaf) -> Report:
    findings: list[Finding] = []
    space = p.space
    for u, algebra in enumerate(p.sections):
        for f in validate_algebra(algebra).errors():
            findings.append(Finding("error", f"open {u}: {f.location}", f.message, f.witness))
        if not space.opens[u] and algebra.dim != 0:
            findings.append(Finding("error", f"open {u}",
                                    "sections over the empty set must be the zero algebra",
                                    algebra.dim))
    for u, v in space.inclusion_pairs():
        r = p.restriction(u, v)
        if u == v and r != Matrix.identity(p.sections[u].dim):
            findings.append(Finding("error", f"restriction {u}->{u}",
                                    "identity inclusion must restrict by the identity", None))
        for f in validate_algebra_morphism(AlgebraMorphism(p.sections[u], p.sections[v], r)).errors():
            findings.append(Finding("error", f"restriction {u}->{v}: {f.location}",
                                    f.message, f.witness))
    findings.extend(_functoriality_findings(p))
    return Report("validate_algebra_presheaf", tuple(findings))


def validate_module_presheaf(m: ModulePresheaf) -> Report:
    findings: list[Finding] = []
    space = m.space
    for u in range(len(space.opens)):
        for f in validate_module_sections(m.base.sections[u], m.sections[u]).errors():
            findings.append(Finding("error", f"open {u}: {f.location}", f.message, f.witness))
        if not space.opens[u] and m.sections[u].dim != 0:
            findings.append(Finding("error", f"open {u}",
                                    "module sections over the empty set must vanish",
                                    m.sections[u].dim))
    for u, v in space.inclusion_pairs():
        rho = m.restriction(u, v)
        if u == v and rho != Matrix.identity(m.sections[u].dim):
            findings.append(Finding("error", f"module restriction {u}->{u}",
                                    "identity inclusion must restrict by the identity", None))
        # restriction is a module map over the algebra restriction
        r = m.base.restriction(u, v)
        alg = m.base.sections[u]
        for i in range(alg.dim):
            a = unit_vector(alg.dim, i)
            for j in range(m.sections[u].dim):
                w = unit_vector(m.sections[u].dim, j)
                lhs = rho.apply(m.sections[u].act(a, w))
                rhs = m.sections[v].act(r.apply(a), rho.apply(w))
                if lhs != rhs:
                    findings.append(Finding("error", f"module restriction {u}->{v}",
                                            "restriction does not respect the action",
                                            [i, j]))
    findings.extend(_functoriality_findings(m))
    return Report("validate_module_presheaf", tuple(findings))


@dataclass(frozen=True)
class Stalk:
    point: int
    open_index: int
    sections: object
    germ_maps: dict


def stalk(p: AlgebraPresheaf | ModulePresheaf, x: int) -> Stalk:
    """Sections over the minimal open of x, with the maps from larger opens."""
    space = p.space
    ux = minimal_open(space, x)
    germs = {v: p.restriction(v, ux) for v in space.opens_containing({x})}
    return Stalk(x, ux, p.sections[ux], germs)


@dataclass(frozen=True)
class PresheafMorphism:
    """Componentwise linear map between presheaves over the same space."""

    source: AlgebraPresheaf | ModulePresheaf
    target: AlgebraPresheaf | ModulePresheaf
    components: tuple[Matrix, ...]

    def __post_init__(self):
        space = self.source.space
        if len(self.components) != len(space.opens):
            raise DimensionMismatchError("one component per open required")
        for u, c in enumerate(self.components):
            if c.cols != self.source.section_dim(u) or c.rows != self.target.section_dim(u):
                raise DimensionMismatchError(f"component over open {u} has shape "
                                             f"{c.rows}x{c.cols}")

    def component(self, u: int) -> Matrix:
        return self.components[u]


def validate_presheaf_morphism(h: PresheafMorphism, multiplicative: bool = False) -> Report:
    """Restriction squares; optionally unit/product preservation per open."""
    findings: list[Finding] = []
    space = h.source.space
    for u, v in space.inclusion_pairs():
        lhs = h.components[v] @ h.source.restriction(u, v)
        rhs = h.target.restriction(u, v) @ h.components[u]
        if lhs != rhs:
            findings.append(Finding("error", f"square {u}->{v}",
                                    "component does not commute with restriction",
                                    [u, v]))
    if multiplicative:
        for u in range(len(space.opens)):
            mor = AlgebraMorphism(h.source.sections[u], h.target.sections[u],
                                  h.components[u])
            for f in validate_algebra_morphism(mor).errors():
                findings.append(Finding("error", f"open {u}: {f.location}",
                                        f.message, f.witness))
    return Report("validate_presheaf_morphism", tuple(findings))


# ---------------------------------------------------------------------------
# sheaf condition


@dataclass(frozen=True)
class CoverWitness:
    open_index: int
    cover: tuple[int, ...]
    kind: str  # "not_injective", "gluing_fails" or "not_compatible"
    section: object


@dataclass(frozen=True)
class SheafCertificate:
    presheaf: AlgebraPresheaf | ModulePresheaf
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


def check_sheaf_condition(p: AlgebraPresheaf | ModulePresheaf) -> SheafCertificate:
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
        columns = [tuple(x for s in layout.stalk_opens
                         for x in p.restriction(u, s).col(i))
                   for i in range(p.section_dim(u))]
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


@dataclass(frozen=True)
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


def _family_layout(p: AlgebraPresheaf | ModulePresheaf, u: int) -> FamilyLayout:
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


@dataclass(frozen=True)
class Sheafification:
    presheaf: AlgebraPresheaf | ModulePresheaf
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


def _sheafify(p: AlgebraPresheaf | ModulePresheaf, left_layouts, operate,
              assemble) -> Sheafification:
    """Compatible-stalk-family sheafification, shared by both layers.

    Over each open the families of p get the stalkwise bilinear table
    `operate(stalk open, left chunk, right chunk)`, its left factor running
    over `left_layouts[u]` (p's own layouts when None) and its right factor
    over p's families.  `assemble(layouts, tables, restrictions)` builds the
    sheafified presheaf; the canonical map sends a section to the family of
    its restrictions to the stalks.
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
    plus = assemble(layouts, tables, restrictions)
    components = []
    for u, layout in enumerate(layouts):
        # basis section i over u goes to the family of its stalk restrictions
        cols = [layout.coordinates(tuple(x for s in layout.stalk_opens
                                         for x in p.restriction(u, s).col(i)))
                for i in range(p.section_dim(u))]
        components.append(Matrix.from_columns(cols, rows=len(layout.basis)))
    return Sheafification(plus, PresheafMorphism(p, plus, tuple(components)),
                          layouts)


def sheafify(p: AlgebraPresheaf) -> Sheafification:
    """Compatible-stalk-family sheafification of an algebra presheaf."""
    require_topology(p.space)

    def assemble(layouts, tables, restrictions):
        algebras = []
        for layout, struct in zip(layouts, tables):
            unit_family = tuple(x for s in layout.stalk_opens
                                for x in p.sections[s].unit)
            unit = layout.coordinates(unit_family) if layout.basis else ()
            algebras.append(Algebra(len(layout.basis), struct, unit))
        return AlgebraPresheaf(p.space, tuple(algebras), restrictions)

    return _sheafify(p, None, lambda s, x, y: p.sections[s].multiply(x, y),
                     assemble)


def sheafify_module(m: ModulePresheaf, base_plus: Sheafification) -> Sheafification:
    """Sheafify a module presheaf over the already-sheafified base algebra."""

    def assemble(layouts, tables, restrictions):
        modules = tuple(ModuleSections(len(base.basis), len(layout.basis), action)
                        for base, layout, action
                        in zip(base_plus.layouts, layouts, tables))
        return ModulePresheaf(base_plus.presheaf, modules, restrictions)

    return _sheafify(m, base_plus.layouts,
                     lambda s, a, w: m.sections[s].act(a, w), assemble)


# ---------------------------------------------------------------------------
# pushforward


def _preimages(f: ContinuousMap) -> list[int]:
    return [preimage_open(f, v) for v in range(len(f.codomain.opens))]


def _pushforward_parts(f: ContinuousMap, p: AlgebraPresheaf | ModulePresheaf):
    """Sections and restrictions of p read at the preimages of f's opens."""
    pre = _preimages(f)
    sections = tuple(p.sections[w] for w in pre)
    table = {(u, v): p.restriction(pre[u], pre[v])
             for u, v in f.codomain.inclusion_pairs()}
    return sections, table


def pushforward(f: ContinuousMap, p: AlgebraPresheaf) -> AlgebraPresheaf:
    """Direct image: sections over V are the sections over the preimage."""
    if p.space != f.domain:
        raise DimensionMismatchError("presheaf does not live on the map's domain")
    return AlgebraPresheaf(f.codomain, *_pushforward_parts(f, p))


def pushforward_module(f: ContinuousMap, m: ModulePresheaf,
                       base_image: AlgebraPresheaf | None = None) -> ModulePresheaf:
    if base_image is None:
        base_image = pushforward(f, m.base)
    return ModulePresheaf(base_image, *_pushforward_parts(f, m))


def pushforward_morphism(f: ContinuousMap, h: PresheafMorphism) -> PresheafMorphism:
    src = pushforward(f, h.source) if isinstance(h.source, AlgebraPresheaf) \
        else pushforward_module(f, h.source)
    tgt = pushforward(f, h.target) if isinstance(h.target, AlgebraPresheaf) \
        else pushforward_module(f, h.target)
    return PresheafMorphism(src, tgt, tuple(h.components[w] for w in _preimages(f)))


# ---------------------------------------------------------------------------
# sections and morphisms over arbitrary subsets


@dataclass(frozen=True)
class SubsetSections:
    """Finite stand-in for sections over a closed-in subset K: sections over
    the smallest open around K, with the maps from every open containing K."""

    subset: frozenset
    open_index: int
    sections: object
    maps: dict


def sections_over_subset(p: AlgebraPresheaf | ModulePresheaf, subset) -> SubsetSections:
    space = p.space
    uk = minimal_open_superset(space, subset)
    maps = {v: p.restriction(v, uk) for v in space.opens_containing(subset)}
    return SubsetSections(frozenset(subset), uk, p.sections[uk], maps)


def morphism_over_subset(h: PresheafMorphism, subset) -> Matrix:
    """Component of a presheaf morphism at a subset's minimal open.

    Raises RestrictionSquareViolation if some open above the subset
    disagrees after restriction (witnessing that h was not a morphism).
    """
    space = h.source.space
    uk = minimal_open_superset(space, subset)
    hk = h.components[uk]
    for v in space.opens_containing(subset):
        lhs = hk @ h.source.restriction(v, uk)
        rhs = h.target.restriction(v, uk) @ h.components[v]
        if lhs != rhs:
            diff = lhs - rhs
            col = next(c for c in range(diff.cols)
                       if any(diff.entries[r][c] != 0 for r in range(diff.rows)))
            section = unit_vector(h.source.section_dim(v), col)
            raise RestrictionSquareViolation(v, section)
    return hk
