"""Differential triads: an algebra presheaf, a module presheaf over it, and a
Leibniz operator per open, all commuting with restriction.

The Leibniz check is quadratic in the algebra dimension; validation stops at
the first violating basis pair per open and reports it with the defect.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (Algebra, AlgebraMorphism, function_algebra,
                      is_standard_function_algebra, validate_algebra_morphism)
from .errors import DimensionMismatchError, TriadicaError
from .exactla import Matrix, Subspace, kernel, span, unit_vector
from .finspace import ContinuousMap, FiniteSpace, preimage_open
from .report import Finding, Report, merge_reports
from .sheaf import (AlgebraPresheaf, ModulePresheaf, ModuleSections,
                    check_sheaf_condition, constant_presheaf,
                    function_presheaf, function_restriction_matrix,
                    make_module_presheaf, pushforward, pushforward_module,
                    validate_algebra_presheaf, validate_module_presheaf,
                    zero_module_presheaf, zero_module_sections)


@dataclass(frozen=True)
class DifferentialTriad:
    algebras: AlgebraPresheaf
    modules: ModulePresheaf
    differentials: tuple[Matrix, ...]

    def __post_init__(self):
        if self.modules.base != self.algebras:
            raise DimensionMismatchError("module presheaf must live over the triad's algebras")
        opens = self.algebras.space.opens
        if len(self.differentials) != len(opens):
            raise DimensionMismatchError("one differential per open required")
        for u, d in enumerate(self.differentials):
            if d.cols != self.algebras.section_dim(u) or d.rows != self.modules.section_dim(u):
                raise DimensionMismatchError(
                    f"differential over open {u} has shape {d.rows}x{d.cols}")

    @property
    def space(self) -> FiniteSpace:
        return self.algebras.space

    def differential(self, u: int) -> Matrix:
        return self.differentials[u]


def check_leibniz(a: Algebra, m: ModuleSections, d: Matrix) -> Report:
    """Check d(xy) = x.d(y) + y.d(x) on basis pairs; stop at the first failure."""
    findings = []
    basis = [unit_vector(a.dim, i) for i in range(a.dim)]
    for i in range(a.dim):
        for j in range(i, a.dim):
            left = d.apply(a.struct[i][j])
            right = tuple(p + q for p, q in zip(m.act(basis[i], d.apply(basis[j])),
                                               m.act(basis[j], d.apply(basis[i]))))
            if left != right:
                defect = [str(p - q) for p, q in zip(left, right)]
                findings.append(Finding("error", f"pair ({i},{j})",
                                        "Leibniz rule fails on basis pair",
                                        {"pair": [i, j], "defect": defect}))
                return Report("check_leibniz", tuple(findings))
    return Report("check_leibniz", ())


def validate_triad(t: DifferentialTriad, deep: bool = True,
                   require_sheaf: bool = False) -> Report:
    """Full triad validation.

    With deep=True the underlying presheaves are validated too; deep=False
    only checks the Leibniz rule and the differential restriction squares.
    require_sheaf=True additionally demands sheaf certificates for both
    presheaf layers.
    """
    parts = []
    if deep:
        parts.append(validate_algebra_presheaf(t.algebras))
        parts.append(validate_module_presheaf(t.modules))
    space = t.space
    leibniz_findings = []
    for u in range(len(space.opens)):
        rep = check_leibniz(t.algebras.sections[u], t.modules.sections[u],
                            t.differentials[u])
        for f in rep.findings:
            leibniz_findings.append(Finding(f.severity, f"open {u}: {f.location}",
                                            f.message, f.witness))
        # consequence of Leibniz at (1,1); checked separately for reporting
        unit_image = t.differentials[u].apply(t.algebras.sections[u].unit)
        if any(c != 0 for c in unit_image):
            leibniz_findings.append(Finding("error", f"open {u}: unit",
                                            "differential does not annihilate the unit",
                                            [str(c) for c in unit_image]))
    parts.append(Report("check_leibniz", tuple(leibniz_findings)))
    square_findings = []
    for u, v in space.inclusion_pairs():
        if u == v:
            continue
        lhs = t.modules.restriction(u, v) @ t.differentials[u]
        rhs = t.differentials[v] @ t.algebras.restriction(u, v)
        if lhs != rhs:
            square_findings.append(Finding("error", f"inclusion {u}->{v}",
                                           "differential does not commute with restriction",
                                           [u, v]))
    parts.append(Report("differential_squares", tuple(square_findings)))
    if require_sheaf:
        sheaf_findings = []
        for label, layer in (("algebra", t.algebras), ("module", t.modules)):
            cert = check_sheaf_condition(layer)
            for w in cert.witnesses:
                sheaf_findings.append(Finding(
                    "error", f"{label} layer, open {w.open_index}, cover {w.cover}",
                    f"sheaf condition fails ({w.kind})", w.section))
        parts.append(Report("sheaf_certificates", tuple(sheaf_findings)))
    return merge_reports("validate_triad", parts)


def function_triad(space: FiniteSpace) -> DifferentialTriad:
    """The functional triad: function algebras, zero module, zero operator."""
    algebras = function_presheaf(space)
    modules = zero_module_presheaf(algebras)
    diffs = tuple(Matrix.zeros(0, algebras.section_dim(u))
                  for u in range(len(space.opens)))
    return DifferentialTriad(algebras, modules, diffs)


def is_functional_triad(t: DifferentialTriad) -> bool:
    """Zero module everywhere, standard function algebra on every open."""
    if any(m.dim != 0 for m in t.modules.sections):
        return False
    return all(is_standard_function_algebra(a) for a in t.algebras.sections)


class NotFunctional(TriadicaError):
    """The triad carries no compatible embeddings into function algebras."""


@dataclass(frozen=True)
class FunctionalTriad:
    """A triad together with, for each open U, an injective unital embedding of
    A(U) into the pointwise-product algebra on the points of U.

    The embeddings let sections be evaluated at points, which is what point
    morphisms and pullback recovery need.  omega_zero records whether the
    module layer is zero everywhere (the fully functional case)."""
    triad: DifferentialTriad
    embeddings: tuple[Matrix, ...]
    omega_zero: bool

    def __post_init__(self):
        opens = self.triad.space.opens
        if len(self.embeddings) != len(opens):
            raise DimensionMismatchError("one embedding per open required")
        for u, e in enumerate(self.embeddings):
            if e.cols != self.triad.algebras.section_dim(u) or e.rows != len(opens[u]):
                raise DimensionMismatchError(
                    f"embedding over open {u} has shape {e.rows}x{e.cols}")

    @property
    def space(self) -> FiniteSpace:
        return self.triad.space

    def value_at(self, u: int, section, point: int):
        """Value of a section of A(U) at a point of U, via the embedding."""
        row = sorted(self.space.opens[u]).index(point)
        return self.embeddings[u].apply(section)[row]


def as_functional(t: DifferentialTriad,
                  embeddings: tuple[Matrix, ...] | None = None) -> FunctionalTriad:
    """Equip a triad with point evaluations.

    Without explicit embeddings, each A(U) must literally be the function
    algebra on the points of U; the embedding is then the identity.  Raises
    NotFunctional otherwise rather than hunting for an abstract isomorphism.
    """
    omega_zero = all(m.dim == 0 for m in t.modules.sections)
    if embeddings is None:
        for u, open_set in enumerate(t.space.opens):
            a = t.algebras.sections[u]
            if a.dim != len(open_set) or not is_standard_function_algebra(a):
                raise NotFunctional(
                    f"A over open {u} is not the function algebra on {len(open_set)} points")
        embeddings = tuple(Matrix.identity(len(open_set))
                           for open_set in t.space.opens)
    ft = FunctionalTriad(t, embeddings, omega_zero)
    report = validate_functional(ft)
    if not report.ok:
        raise NotFunctional("; ".join(
            f"{f.location}: {f.message}" for f in report.errors()))
    return ft


def validate_functional(ft: FunctionalTriad) -> Report:
    """Each embedding must be an injective unital algebra morphism into the
    function algebra on the open's points, and the square with restrictions
    (coordinate selection on the function side) must commute."""
    t = ft.triad
    space = t.space
    findings = []
    for u, open_set in enumerate(space.opens):
        e = ft.embeddings[u]
        target = function_algebra(len(open_set))
        morph = validate_algebra_morphism(
            AlgebraMorphism(t.algebras.sections[u], target, e))
        for f in morph.errors():
            findings.append(Finding("error", f"open {u}, {f.location}",
                                    f.message, f.witness))
        if kernel(e).dim != 0:
            findings.append(Finding("error", f"open {u}",
                                    "embedding is not injective", None))
    for u, v in space.inclusion_pairs():
        if u == v:
            continue
        lhs = ft.embeddings[v] @ t.algebras.restriction(u, v)
        rhs = function_restriction_matrix(space.opens[u], space.opens[v]) @ ft.embeddings[u]
        if lhs != rhs:
            findings.append(Finding("error", f"inclusion {u}->{v}",
                                    "embedding does not commute with restriction",
                                    [u, v]))
    return Report("validate_functional", tuple(findings))


def pushforward_triad(f: ContinuousMap, t: DifferentialTriad) -> DifferentialTriad:
    """Direct image triad along a continuous map."""
    algebras = pushforward(f, t.algebras)
    modules = pushforward_module(f, t.modules, base_image=algebras)
    pre = [preimage_open(f, v) for v in range(len(f.codomain.opens))]
    diffs = tuple(t.differentials[pre[v]] for v in range(len(f.codomain.opens)))
    return DifferentialTriad(algebras, modules, diffs)


def kernel_of_differential(t: DifferentialTriad, u: int) -> Subspace:
    return kernel(t.differentials[u])


def kernel_is_constants_only(t: DifferentialTriad, u: int) -> bool:
    """True when over open u the kernel of d is exactly the span of the unit."""
    a = t.algebras.sections[u]
    return kernel_of_differential(t, u) == span(a.dim, [a.unit])


def constants_only_kernel(t: DifferentialTriad) -> bool:
    """True when over every nonempty open ker(d) is exactly the span of 1."""
    return all(kernel_is_constants_only(t, u)
               for u, open_set in enumerate(t.space.opens) if open_set)


def constant_triad(space: FiniteSpace, a: Algebra, module: ModuleSections,
                   d: Matrix) -> DifferentialTriad:
    """Same algebra, module and operator over each nonempty open, with
    identity restrictions.  Useful for one-chart examples."""
    algebras = constant_presheaf(space, a)
    sections = [module if open_set else zero_module_sections(0)
                for open_set in space.opens]
    table = {(u, v): Matrix.identity(module.dim)
             for u, v in space.inclusion_pairs() if u != v and space.opens[v]}
    modules = make_module_presheaf(algebras, sections, table)
    diffs = tuple(d if open_set else Matrix.zeros(0, 0)
                  for open_set in space.opens)
    return DifferentialTriad(algebras, modules, diffs)
