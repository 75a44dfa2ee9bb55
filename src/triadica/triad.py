"""Differential triads: an algebra presheaf, a module presheaf over it, and a
Leibniz operator per open, all commuting with restriction.

The Leibniz check is quadratic in the algebra dimension; validation stops at
the first violating basis pair per open and reports it with the defect.
"""

from __future__ import annotations

from .algebra import Algebra, basis_pairs, generators_first
from .errors import DimensionMismatchError, TriadicaError
from .exactla import Matrix, kernel, span, unit_vector
from .finspace import ContinuousMap, FiniteSpace
from .record import Interner, record
from .report import Finding, Report, merge_reports, relocated
from .sheaf import (ModuleSections, Presheaf, constant_presheaf,
                    function_presheaf, pushforward, pushforward_module,
                    restriction_square_failures, validate_algebra_presheaf,
                    validate_module_presheaf, zero_module_presheaf)


@record
class DifferentialTriad:
    algebras: Presheaf
    modules: Presheaf
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


def check_leibniz(a: Algebra, m: ModuleSections, d: Matrix) -> Report:
    """Check d(xy) = x.d(y) + y.d(x) on basis pairs; stop at the first failure."""
    return Report("check_leibniz", _leibniz_failure(a, m, d, range(a.dim)))


def _leibniz_failure(a: Algebra, m: ModuleSections, d: Matrix, among) -> tuple[Finding, ...]:
    """The first basis pair i <= j with i or j in `among` where the Leibniz
    rule fails, as a finding with its defect."""
    basis = [unit_vector(a.dim, i) for i in range(a.dim)]
    for i, j in basis_pairs(a.dim, among):
        left = d.apply(a.struct[i][j])
        right = tuple(p + q for p, q in zip(m.act(basis[i], d.apply(basis[j])),
                                           m.act(basis[j], d.apply(basis[i]))))
        if left != right:
            defect = [str(p - q) for p, q in zip(left, right)]
            return (Finding("error", f"pair ({i},{j})", "Leibniz rule fails on basis pair",
                            {"pair": [i, j], "defect": defect}),)
    return ()


def _leibniz_errors(a: Algebra, m: ModuleSections, d: Matrix, known: bool) -> list[Finding]:
    """check_leibniz's findings, and one at "unit" when d(1) is not 0.  In
    a commutative algebra over an associative module, both `known` valid,
    the x with d(xy) = x.dy + y.dx for all y form a subalgebra, which holds
    the unit when d(1) = 0: then pairs with a generator are checked first."""
    # consequence of Leibniz at (1,1); checked separately for reporting
    unit_image = d.apply(a.unit)
    unit = [Finding("error", "unit", "differential does not annihilate the unit",
                    [str(c) for c in unit_image])] if any(unit_image) else []
    if known and not unit:
        return list(generators_first(a, lambda among: _leibniz_failure(a, m, d, among)))
    return list(check_leibniz(a, m, d).findings) + unit


def validate_triad(t: DifferentialTriad) -> Report:
    """Full triad validation: both presheaf layers, the Leibniz rule over
    every open and the differential restriction squares.  The Leibniz
    verdict is a function of (algebra, module, differential), so it is
    found once per distinct triple and relocated to each open.  One
    interner names the values for every check, so none is hashed twice.
    When both layers pass, they are functorial, so the squares on the cover
    pairs give every square; those are checked first."""
    interner = Interner()
    parts = [validate_algebra_presheaf(t.algebras, interner),
             validate_module_presheaf(t.modules, interner)]
    space = t.space
    triples = list(zip(interner.ids(t.algebras.sections), interner.ids(t.modules.sections),
                       interner.ids(t.differentials)))
    known = not (parts[0].findings or parts[1].findings)
    leibniz_findings = []
    for u, key in enumerate(triples):
        leibniz_findings += relocated(f"open {u}: ", interner.once(
            ("leibniz", *key), lambda: _leibniz_errors(
                t.algebras.sections[u], t.modules.sections[u], t.differentials[u], known)))
    parts.append(Report("check_leibniz", tuple(leibniz_findings)))

    def squares(pairs):
        return restriction_square_failures(t.differentials, t.algebras, t.modules,
                                           pairs, interner)

    failures = []
    if not known or squares(space.cover_pairs):
        failures = squares(_proper_pairs(space))
    parts.append(Report("differential_squares", tuple(
        Finding("error", f"inclusion {u}->{v}",
                "differential does not commute with restriction", [u, v])
        for u, v in failures)))
    return merge_reports("validate_triad", parts)


def _proper_pairs(space: FiniteSpace) -> list[tuple[int, int]]:
    return [(u, v) for u, v in space.inclusion_pairs if u != v]


def function_triad(space: FiniteSpace) -> DifferentialTriad:
    """The functional triad: function algebras, zero module, zero operator."""
    algebras = function_presheaf(space)
    modules = zero_module_presheaf(algebras)
    diffs = tuple(Matrix.zeros(0, algebras.section_dim(u))
                  for u in range(len(space.opens)))
    return DifferentialTriad(algebras, modules, diffs)


class NotFunctional(TriadicaError):
    """The triad's algebras are not the function presheaf on its space."""


def require_functional(t: DifferentialTriad) -> None:
    """Raise NotFunctional unless the algebras of t are function_presheaf of
    its space: the function algebra on the points of every open, with
    coordinate-selection restrictions."""
    functions = function_presheaf(t.space)
    for u, open_set in enumerate(t.space.opens):
        if t.algebras.sections[u] != functions.sections[u]:
            raise NotFunctional(
                f"A over open {u} is not the function algebra on {len(open_set)} points")
    for (u, v), r in functions.restrictions.items():
        if t.algebras.restriction(u, v) != r:
            raise NotFunctional(
                f"inclusion {u}->{v}: restriction is not coordinate selection")


def pushforward_triad(f: ContinuousMap, t: DifferentialTriad) -> DifferentialTriad:
    """Direct image triad along a continuous map."""
    algebras = pushforward(f, t.algebras)
    modules = pushforward_module(f, t.modules, base_image=algebras)
    diffs = tuple(t.differentials[w] for w in f.preimages)
    return DifferentialTriad(algebras, modules, diffs)


def constants_only_kernel(t: DifferentialTriad) -> bool:
    """True when over every nonempty open ker(d) is exactly the span of 1."""
    return all(kernel(d) == span(a.dim, [a.unit])
               for a, d, open_set in zip(t.algebras.sections, t.differentials,
                                         t.space.opens) if open_set)


def constant_triad(space: FiniteSpace, a: Algebra, module: ModuleSections,
                   d: Matrix) -> DifferentialTriad:
    """Same algebra, module and operator over each nonempty open, with
    identity restrictions.  Useful for one-chart examples."""
    algebras = constant_presheaf(space, a)
    modules = constant_presheaf(space, module, base=algebras)
    diffs = tuple(d if open_set else Matrix.zeros(0, 0)
                  for open_set in space.opens)
    return DifferentialTriad(algebras, modules, diffs)
