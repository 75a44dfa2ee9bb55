"""Morphisms between differential triads and the category they generate.

A morphism rides on a continuous map f: X -> Y.  Its algebra part sends
sections over each open V of Y into sections over the preimage of V; the
module part does the same one level up; and per open, the two parts form a
commuting square with the Leibniz operators.  check_morphism verifies all
of that on basis elements.  The rest of the module builds the morphisms
over a constant map, composes morphisms, and runs the finite enumerations:
recovering a point map from its algebra components, and counting all
morphisms between functional triads.  The recovery,
verify_pullback_forced(f, components), takes the algebra components of a
morphism over f alone; it builds the function presheaf on the codomain and
the direct image of the one on the domain itself, so the frame cannot be
wrong.  Whether two morphisms that agree in one layer agree in the other is
the `uniqueness` layer's question.

The `exactla`, `sheaf`, `sheafmaps` and `triad` layers are read off their
modules where they are used, so `fullness` runs none of them.

The count has a closed form.  With O the function presheaf and U_y the
minimal open around y, a unit-preserving multiplicative presheaf morphism
O_Y -> f_*O_X is exactly precomposition with a point map g: X -> Y with
g(x) in U_{f(x)} for every x: the characters of Q^V are point evaluations,
and squaring with the restriction to U_{f(x)} fixes the value at x.  So f
carries prod_x |U_{f(x)}| families, listed in lexicographic order of g, and
pullback by f is the only one exactly when every f(x) is open, as over
discrete spaces: the finite form of the fullness of smooth manifolds among
differential triads.  fullness_check reads each map's count off this
formula, so its work is linear in the number of set maps and it builds no
family; the tests hold the families to a search and each pullback to
verify_pullback_forced.
"""

from __future__ import annotations

from itertools import product
from math import prod

from . import compound_dump, exactla, sheaf, sheafmaps, triad
from .errors import DimensionMismatchError, TriadicaError, UsageError
from .finspace import FiniteSpace, minimal_open, require_topology
from .maps import ContinuousMap, all_maps, compose_maps, constant_map
from .record import Interner, record
from .report import Finding, Report, merge_reports, relocated


class BoundExceeded(TriadicaError):
    """The requested enumeration is larger than the configured bound."""


@record
class TriadMorphism:
    """A map of triads: continuous f plus componentwise linear data.

    Components are indexed by opens of the codomain space.  The algebra
    component over V maps A_target(V) into A_source(preimage of V) and is
    expected to be a unit-preserving algebra morphism; the module component
    does the same for the module layer.  check_morphism is the judge; the
    constructor only enforces shapes.
    """

    map: ContinuousMap
    source: triad.DifferentialTriad
    target: triad.DifferentialTriad
    algebra_components: tuple[exactla.Matrix, ...]
    module_components: tuple[exactla.Matrix, ...]

    def __post_init__(self):
        y_opens = self.target.space.opens
        if len(self.algebra_components) != len(y_opens) or \
                len(self.module_components) != len(y_opens):
            raise DimensionMismatchError("one component pair per codomain open required")
        for v in range(len(y_opens)):
            pre = self.map.preimages[v]
            fa = self.algebra_components[v]
            fo = self.module_components[v]
            if fa.cols != self.target.algebras.section_dim(v) or \
                    fa.rows != self.source.algebras.section_dim(pre):
                raise DimensionMismatchError(
                    f"algebra component over open {v} has shape {fa.rows}x{fa.cols}")
            if fo.cols != self.target.modules.section_dim(v) or \
                    fo.rows != self.source.modules.section_dim(pre):
                raise DimensionMismatchError(
                    f"module component over open {v} has shape {fo.rows}x{fo.cols}")


def check_morphism(m: TriadMorphism) -> Report:
    """Verify that m really is a morphism of triads.

    The map must connect the triad spaces (it is continuous by type).  Then
    the algebra components (unit, products, restriction squares), the module
    components (restriction squares plus compatibility with the algebra
    action) and the operator squares are checked against the source's direct
    image, on basis elements over every open, with (open, basis) witnesses.
    """
    source, target = m.source, m.target
    if m.map.domain != source.space or m.map.codomain != target.space:
        return Report("check_morphism", (Finding(
            "error", "frame", "underlying map does not connect the triad spaces", None),))
    push = triad.pushforward_triad(m.map, source)
    interner = Interner()
    h_alg = sheafmaps.PresheafMorphism(target.algebras, push.algebras, m.algebra_components)
    parts = [Report("algebra_components",
                    sheaf.validate_presheaf_morphism(h_alg, interner).findings)]

    h_mod = sheafmaps.PresheafMorphism(target.modules, push.modules, m.module_components)
    module_findings = list(sheaf.validate_presheaf_morphism(h_mod, interner).findings)
    for v in range(len(target.space.opens)):
        inputs = (m.module_components[v], m.algebra_components[v],
                  target.modules.sections[v], push.modules.sections[v])
        defects = interner.once("semilinear", inputs,
                                lambda: list(sheaf.semilinearity_defects(*inputs)))
        for i, j, lhs, rhs in defects:
            module_findings.append(Finding(
                "error", f"open {v}, action pair ({i},{j})",
                "module component is not linear over the algebra component",
                {"open": v, "pair": [i, j],
                 "defect": [str(p - q) for p, q in zip(lhs, rhs)]}))
    parts.append(Report("module_components", tuple(module_findings)))

    square_findings = []
    for v in range(len(target.space.opens)):
        lhs = m.module_components[v] @ target.differentials[v]
        rhs = push.differentials[v] @ m.algebra_components[v]
        if lhs != rhs:
            diff = lhs - rhs
            j = next(c for c in range(diff.cols)
                     if any(diff.entries[r][c] != 0 for r in range(diff.rows)))
            square_findings.append(Finding(
                "error", f"open {v}, basis {j}",
                "operator square does not commute",
                {"open": v, "basis": j,
                 "defect": [str(x) for x in diff.col(j)]}))
    parts.append(Report("differential_squares", tuple(square_findings)))
    return merge_reports("check_morphism", parts)


def compose(g_hat: TriadMorphism, f_hat: TriadMorphism) -> TriadMorphism:
    """g_hat after f_hat.

    Over an open W of the final space, the composite component first applies
    g_hat's component at W, then f_hat's component at the g-preimage of W.
    """
    if f_hat.target != g_hat.source:
        raise DimensionMismatchError("morphisms are not composable")
    gf = compose_maps(g_hat.map, f_hat.map)
    alg, mod = [], []
    for w in range(len(g_hat.target.space.opens)):
        gw = g_hat.map.preimages[w]
        alg.append(f_hat.algebra_components[gw] @ g_hat.algebra_components[w])
        mod.append(f_hat.module_components[gw] @ g_hat.module_components[w])
    return TriadMorphism(gf, f_hat.source, g_hat.target, tuple(alg), tuple(mod))


def constant_morphism(source: triad.DifferentialTriad,
                      target: triad.DifferentialTriad, c: int) -> TriadMorphism:
    """The morphism riding on the constant map at c.

    The target's algebras must be the function presheaf on its space, so a
    section over an open V is its values at the sorted points of V.  The
    algebra component over V sends it to its value at c times the unit of
    the global source sections: its column for a point p of V is that unit
    when p == c and zero otherwise.  The module component is zero, which
    closes the operator square because the operator kills constants.  Both
    spaces must be topologies; raises NotFunctional when the target's
    algebras are not the function presheaf.
    """
    require_topology(source.space)
    require_topology(target.space)
    triad.require_functional(target)
    f = constant_map(source.space, target.space, c)
    full_x = source.space.open_index(source.space.full_set)
    unit = source.algebras.sections[full_x].unit
    alg, mod = [], []
    for v, vset in enumerate(target.space.opens):
        pre = f.preimages[v]
        rows_a = source.algebras.section_dim(pre)
        alg.append(exactla.Matrix.from_columns(
            [unit if p == c else (exactla.ZERO,) * rows_a for p in sorted(vset)],
            rows=rows_a))
        mod.append(exactla.Matrix.zeros(source.modules.section_dim(pre),
                                target.modules.section_dim(v)))
    return TriadMorphism(f, source, target, tuple(alg), tuple(mod))


def point_map_components(f: ContinuousMap, g) -> tuple[exactla.Matrix, ...]:
    """Precomposition with the point map g: over each open V of the codomain,
    row x of f^-1(V) is e_{g(x)} in V's sorted coordinates."""
    comps = []
    for v, vset in enumerate(f.codomain.opens):
        v_pts = sorted(vset)
        pre_pts = sorted(f.domain.opens[f.preimages[v]])
        comps.append(exactla.Matrix.from_rows(
            [exactla.unit_vector(len(v_pts), v_pts.index(g[x])) for x in pre_pts],
            cols=len(v_pts)))
    return tuple(comps)


# ---------------------------------------------------------------------------
# point-map recovery


def verify_pullback_forced(f: ContinuousMap, components) -> Report:
    """Check that a family of algebra components over f, one per open of
    the codomain, is precomposition with f.

    The components are checked as a presheaf morphism from the function
    presheaf on the codomain into the direct image of the one on the
    domain.  Row r of the component over V is the character "evaluate at
    the r-th preimage point x"; it must coincide with the character
    "evaluate at f(x)" on the sections over V.  For non-discrete spaces the
    report is marked exploratory: there the stalks admit several characters
    and no forcing theorem is asserted.  Both spaces must be topologies.
    """
    require_topology(f.domain)
    require_topology(f.codomain)
    h = sheafmaps.PresheafMorphism(
        sheaf.function_presheaf(f.codomain),
        sheaf.pushforward(f, sheaf.function_presheaf(f.domain)), tuple(components))
    findings = []
    if not (f.domain.is_discrete and f.codomain.is_discrete):
        findings.append(Finding("warning", "spaces",
                                "non-discrete spaces: exploratory result only", None))
    findings += relocated("morphism: ", sheaf.validate_presheaf_morphism(h).findings)
    # row x over V must be the unit vector at f(x) in V's sorted points
    for v, pullback in enumerate(point_map_components(f, f.values)):
        for r, x in enumerate(sorted(f.domain.opens[f.preimages[v]])):
            got = h.components[v].row(r)
            if got != pullback.row(r):
                findings.append(Finding(
                    "error", f"open {v}, point {x}",
                    "evaluation after the morphism is not evaluation at the image point",
                    {"open": v, "point": x, "row": [str(c) for c in got]}))
    return Report("verify_pullback_forced", tuple(findings))


def enumerate_presheaf_morphisms(f: ContinuousMap, functions_x: sheaf.Presheaf,
                                 functions_y: sheaf.Presheaf) -> list[sheafmaps.PresheafMorphism]:
    """All unit-preserving multiplicative presheaf morphisms from the full
    functional sheaf on the codomain into the sheaf.pushforward of the one on the
    domain: precomposition with each point map g with g(x) in U_{f(x)},
    prod_x |U_{f(x)}| of them, in lexicographic order of g (see the module
    docstring).  `functions_x` and `functions_y` are the function presheaves
    on the domain and the codomain, which must be a topology.  No command
    calls it; the tests keep it as the oracle of fullness_check's count."""
    y = f.codomain
    target = sheaf.pushforward(f, functions_x)
    choices = [sorted(y.opens[minimal_open(y, f.values[x])]) for x in f.domain.points]
    return [sheafmaps.PresheafMorphism(functions_y, target, point_map_components(f, g))
            for g in product(*choices)]


@record
class FullnessResult:
    """Outcome of the morphism count between functional triads."""

    total: int
    per_map: tuple[tuple[tuple[int, ...], int], ...]
    report: Report


def fullness_check(x_space: FiniteSpace, y_space: FiniteSpace,
                   bound: int = 64) -> FullnessResult:
    """Count all triad morphisms between the functional triads on two spaces.

    A morphism here is a continuous map f plus a compatible family of
    unit-preserving algebra maps (the module layer is zero, so it forces
    nothing); f carries prod_x |U_{f(x)}| families.  Counts are read off
    that formula, so the work is linear in `bound` and no family is built:
    over discrete spaces each count is 1, the pullback by the map.  Over
    non-discrete spaces the count is exploratory, with no expectation
    asserted.  Both spaces must be topologies: InvalidTopologyError comes
    before the bound check.
    """
    require_topology(x_space)
    require_topology(y_space)
    total_maps = y_space.point_count ** x_space.point_count
    if total_maps > bound:
        raise BoundExceeded(
            f"{total_maps} candidate maps exceed the bound {bound}")
    findings = []
    if not (x_space.is_discrete and y_space.is_discrete):
        findings.append(Finding("warning", "spaces",
                                "non-discrete spaces: counts are exploratory", None))
    # |U_y| per point y of the codomain
    sizes = [len(y_space.opens[minimal_open(y_space, y)]) for y in y_space.points]
    per_map = []
    for values in all_maps(x_space, y_space):
        try:
            ContinuousMap(x_space, y_space, values)
        except ValueError:  # not continuous
            continue
        per_map.append((values, prod(sizes[y] for y in values)))
    total = sum(n for _, n in per_map)
    findings.append(Finding("info", "count",
                            f"{total} morphisms over {len(per_map)} continuous maps",
                            total))
    return FullnessResult(total, tuple(per_map), Report("fullness_check", tuple(findings)))


def checked_morphism(m):
    return check_morphism(m), {"morphism": compound_dump.morphism_to_json(m)}


def recover_map_command(args, m):
    f = m.map
    if not (args.exploratory or f.domain.is_discrete and f.codomain.is_discrete):
        raise UsageError("lives over non-discrete spaces; rerun with "
                         "--exploratory to inspect it anyway")
    return (verify_pullback_forced(f, m.algebra_components),
            {"map": compound_dump.map_to_json(f)})


def fullness_command(args, x, y):
    res = fullness_check(x, y, bound=args.bound)
    per_map = {",".join(str(v) for v in values): count
               for values, count in res.per_map}
    return res.report, {"total": res.total, "per_map": per_map}
