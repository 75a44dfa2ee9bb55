"""Morphisms between differential triads and the category they generate.

A morphism rides on a continuous map f: X -> Y.  Its algebra part sends
sections over each open V of Y into sections over the preimage of V; the
module part does the same one level up; and per open, the two parts form a
commuting square with the Leibniz operators.  check_morphism verifies all
of that on basis elements.  The rest of the module builds the standard
morphisms (identity, constant-map, pullback), composes them, and runs the
finite enumerations: recovering a point map from its algebra components,
and counting all morphisms between functional triads.  The recovery,
verify_pullback_forced(f, components), takes the algebra components of a
morphism over f alone; it builds the function presheaf on the codomain and
the direct image of the one on the domain itself, so the frame cannot be
wrong.

The count has a closed form.  With O the function presheaf and U_y the
minimal open around y, a unit-preserving multiplicative presheaf morphism
O_Y -> f_*O_X is exactly precomposition with a point map g: X -> Y with
g(x) in U_{f(x)} for every x: the characters of Q^V are point evaluations,
and squaring with the restriction to U_{f(x)} fixes the value at x.  So f
carries prod_x |U_{f(x)}| families, listed in lexicographic order of g, and
pullback by f is the only one exactly when every f(x) is open, as over
discrete spaces: the finite form of the fullness of smooth manifolds among
differential triads.  fullness_check reads each map's count off this
formula, so its work is linear in the number of set maps, and builds only
the pullbacks over discrete pairs, re-checked with one memo per call.
"""

from __future__ import annotations

from itertools import product
from math import prod

from .errors import DimensionMismatchError, TriadicaError
from .exactla import ZERO, Matrix, span, unit_vector
from .finspace import (ContinuousMap, FiniteSpace, all_maps, compose_maps,
                       constant_map, identity_map, minimal_open,
                       require_topology)
from .record import Interner, record
from .report import Finding, Report, merge_reports, relocated
from .sheaf import (Presheaf, PresheafMorphism, function_presheaf, pushforward,
                    semilinearity_defects, validate_presheaf_morphism)
from .triad import (DifferentialTriad, constants_only_kernel, function_triad,
                    pushforward_triad, require_functional)


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
    source: DifferentialTriad
    target: DifferentialTriad
    algebra_components: tuple[Matrix, ...]
    module_components: tuple[Matrix, ...]

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
    push = pushforward_triad(m.map, source)
    interner = Interner()
    h_alg = PresheafMorphism(target.algebras, push.algebras, m.algebra_components)
    parts = [Report("algebra_components",
                    validate_presheaf_morphism(h_alg, interner).findings)]

    h_mod = PresheafMorphism(target.modules, push.modules, m.module_components)
    module_findings = list(validate_presheaf_morphism(h_mod, interner).findings)
    for v in range(len(target.space.opens)):
        inputs = (m.module_components[v], m.algebra_components[v],
                  target.modules.sections[v], push.modules.sections[v])
        defects = interner.once(("semilinear", *interner.ids(inputs)),
                                lambda: list(semilinearity_defects(*inputs)))
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


def identity_morphism(t: DifferentialTriad) -> TriadMorphism:
    n = len(t.space.opens)
    return TriadMorphism(
        identity_map(t.space), t, t,
        tuple(Matrix.identity(t.algebras.section_dim(v)) for v in range(n)),
        tuple(Matrix.identity(t.modules.section_dim(v)) for v in range(n)))


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


def constant_morphism(source: DifferentialTriad, target: DifferentialTriad,
                      c: int) -> TriadMorphism:
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
    require_functional(target)
    f = constant_map(source.space, target.space, c)
    full_x = source.space.open_index(source.space.full_set)
    unit = source.algebras.sections[full_x].unit
    alg, mod = [], []
    for v, vset in enumerate(target.space.opens):
        pre = f.preimages[v]
        rows_a = source.algebras.section_dim(pre)
        alg.append(Matrix.from_columns(
            [unit if p == c else (ZERO,) * rows_a for p in sorted(vset)],
            rows=rows_a))
        mod.append(Matrix.zeros(source.modules.section_dim(pre),
                                target.modules.section_dim(v)))
    return TriadMorphism(f, source, target, tuple(alg), tuple(mod))


def _point_map_components(f: ContinuousMap, g) -> tuple[Matrix, ...]:
    """Precomposition with the point map g: over each open V of the codomain,
    row x of f^-1(V) is e_{g(x)} in V's sorted coordinates."""
    comps = []
    for v, vset in enumerate(f.codomain.opens):
        v_pts = sorted(vset)
        pre_pts = sorted(f.domain.opens[f.preimages[v]])
        comps.append(Matrix.from_rows(
            [unit_vector(len(v_pts), v_pts.index(g[x])) for x in pre_pts],
            cols=len(v_pts)))
    return tuple(comps)


def pullback_morphism(f: ContinuousMap) -> TriadMorphism:
    """Precomposition with f, as a morphism of the functional triads."""
    tx, ty = function_triad(f.domain), function_triad(f.codomain)
    mod = tuple(Matrix.zeros(0, 0) for _ in f.codomain.opens)
    return TriadMorphism(f, tx, ty, _point_map_components(f, f.values), mod)


# ---------------------------------------------------------------------------
# uniqueness of components


def _image(mat: Matrix):
    return span(mat.rows, [mat.col(j) for j in range(mat.cols)])


def _frame_mismatch(m1: TriadMorphism, m2: TriadMorphism) -> list[Finding]:
    out = []
    if m1.map != m2.map:
        out.append(Finding("error", "frame", "underlying maps differ", None))
    if m1.source != m2.source or m1.target != m2.target:
        out.append(Finding("error", "frame", "morphisms connect different triads", None))
    return out


def differential_agreement_on_image(m1: TriadMorphism,
                                    m2: TriadMorphism) -> Report:
    """Equal algebra components force equal module components on the image
    of the target operator.

    Disagreement ON the image is an error (one input was not a morphism).
    Components may still differ off the image; that is legal and gets an
    informational finding: "agree on image, differ globally".
    """
    findings = _frame_mismatch(m1, m2)
    if not findings and m1.algebra_components != m2.algebra_components:
        findings.append(Finding("error", "preconditions",
                                "algebra components differ", None))
    if findings:
        return Report("differential_agreement_on_image", tuple(findings))
    differ_globally = False
    for v in range(len(m1.target.space.opens)):
        image = _image(m1.target.differentials[v])
        for b in image.basis:
            lhs = m1.module_components[v].apply(b)
            rhs = m2.module_components[v].apply(b)
            if lhs != rhs:
                findings.append(Finding(
                    "error", f"open {v}",
                    "module components disagree on the operator image",
                    {"open": v, "section": [str(c) for c in b],
                     "defect": [str(p - q) for p, q in zip(lhs, rhs)]}))
        if m1.module_components[v] != m2.module_components[v]:
            differ_globally = True
    if differ_globally and not any(f.severity == "error" for f in findings):
        findings.append(Finding("info", "global",
                                "agree on image, differ globally", None))
    return Report("differential_agreement_on_image", tuple(findings))


def algebra_component_uniqueness(m1: TriadMorphism,
                                 m2: TriadMorphism) -> Report:
    """Equal module components force equal algebra components, provided the
    source operator vanishes only on constants.

    The argument runs as an executable proof: the operator kills the
    difference of the components (because the operator squares and the
    module components agree), so the difference lands in the constants, and
    a constant difference of unit-preserving maps must be zero.  Each step
    that fails produces an error finding with a witness; when the kernel
    hypothesis fails the report is exploratory and asserts nothing.
    """
    findings = _frame_mismatch(m1, m2)
    if not findings and m1.module_components != m2.module_components:
        findings.append(Finding("error", "preconditions",
                                "module components differ", None))
    if findings:
        return Report("algebra_component_uniqueness", tuple(findings))
    source = m1.source
    if not constants_only_kernel(source):
        return Report("algebra_component_uniqueness", (
            Finding("warning", "hypothesis",
                    "hypothesis not met: the source operator kernel is larger "
                    "than the constants, no uniqueness is claimed", None),))
    for v in range(len(m1.target.space.opens)):
        pre = m1.map.preimages[v]
        d_x = source.differentials[pre]
        diff = m1.algebra_components[v] - m2.algebra_components[v]
        for j in range(diff.cols):
            col = diff.col(j)
            if all(c == 0 for c in col):
                continue
            witness = {"open": v, "basis": j, "difference": [str(c) for c in col]}
            if any(c != 0 for c in d_x.apply(col)):
                findings.append(Finding(
                    "error", f"open {v}, basis {j}",
                    "difference of algebra components is not killed by the operator "
                    "(an input was not a morphism)", witness))
            else:
                # the operator kills only constants, by the hypothesis above
                findings.append(Finding(
                    "error", f"open {v}, basis {j}",
                    "algebra components differ by a nonzero constant", witness))
    return Report("algebra_component_uniqueness", tuple(findings))


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
    h = PresheafMorphism(function_presheaf(f.codomain),
                         pushforward(f, function_presheaf(f.domain)),
                         tuple(components))
    return _pullback_report(f, h, Interner())


def _pullback_report(f: ContinuousMap, h: PresheafMorphism,
                     interner: Interner) -> Report:
    """verify_pullback_forced on a family from the function presheaf on the
    codomain into the direct image of the one on the domain, each distinct
    check once per `interner`."""
    findings = []
    if not (f.domain.is_discrete and f.codomain.is_discrete):
        findings.append(Finding("warning", "spaces",
                                "non-discrete spaces: exploratory result only", None))
    findings += relocated("morphism: ", validate_presheaf_morphism(
        h, interner).findings)
    # row x over V must be the unit vector at f(x) in V's sorted points
    for v, vset in enumerate(f.codomain.opens):
        v_pts = sorted(vset)
        for r, x in enumerate(sorted(f.domain.opens[f.preimages[v]])):
            got = h.components[v].row(r)
            if got != unit_vector(len(v_pts), v_pts.index(f.values[x])):
                findings.append(Finding(
                    "error", f"open {v}, point {x}",
                    "evaluation after the morphism is not evaluation at the image point",
                    {"open": v, "point": x, "row": [str(c) for c in got]}))
    return Report("verify_pullback_forced", tuple(findings))


def enumerate_presheaf_morphisms(f: ContinuousMap, functions_x: Presheaf,
                                 functions_y: Presheaf) -> list[PresheafMorphism]:
    """All unit-preserving multiplicative presheaf morphisms from the full
    functional sheaf on the codomain into the pushforward of the one on the
    domain: precomposition with each point map g with g(x) in U_{f(x)},
    prod_x |U_{f(x)}| of them, in lexicographic order of g (see the module
    docstring).  `functions_x` and `functions_y` are the function presheaves
    on the domain and the codomain, which must be a topology.  No command
    calls it; the tests keep it as the oracle of fullness_check's count."""
    y = f.codomain
    target = pushforward(f, functions_x)
    choices = [sorted(y.opens[minimal_open(y, f.values[x])]) for x in f.domain.points]
    return [PresheafMorphism(functions_y, target, _point_map_components(f, g))
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
    that formula, so the work is linear in `bound`; only over discrete
    spaces is a family built: one per point map, pullback by the map, which
    is checked, and any deviation is an error.  Over non-discrete spaces the
    count is exploratory, with no expectation asserted.  Both spaces must
    be topologies: InvalidTopologyError comes before the bound check.
    """
    require_topology(x_space)
    require_topology(y_space)
    total_maps = y_space.point_count ** x_space.point_count
    if total_maps > bound:
        raise BoundExceeded(
            f"{total_maps} candidate maps exceed the bound {bound}")
    discrete = x_space.is_discrete and y_space.is_discrete
    findings = []
    if discrete:
        functions_x, functions_y = function_presheaf(x_space), function_presheaf(y_space)
        interner = Interner()  # one memo for every family's checks
    else:
        findings.append(Finding("warning", "spaces",
                                "non-discrete spaces: counts are exploratory", None))
    # |U_y| per point y of the codomain
    sizes = [len(y_space.opens[minimal_open(y_space, y)]) for y in y_space.points]
    per_map = []
    for values in all_maps(x_space, y_space):
        try:
            f = ContinuousMap(x_space, y_space, values)
        except ValueError:  # not continuous
            continue
        per_map.append((values, prod(sizes[y] for y in values)))
        if discrete:
            h = PresheafMorphism(functions_y, pushforward(f, functions_x),
                                 _point_map_components(f, values))
            if not _pullback_report(f, h, interner).ok:
                findings.append(Finding(
                    "error", f"map {values}",
                    "the unique component family is not pullback by the map",
                    list(values)))
    total = sum(n for _, n in per_map)
    findings.append(Finding("info", "count",
                            f"{total} morphisms over {len(per_map)} continuous maps",
                            total))
    return FullnessResult(total, tuple(per_map), Report("fullness_check", tuple(findings)))
