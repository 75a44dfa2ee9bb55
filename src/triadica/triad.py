"""Differential triads: an algebra presheaf, a module presheaf over it, and a
Leibniz operator per open, all commuting with restriction.

The Leibniz check is quadratic in the algebra dimension; validation stops at
the first violating basis pair per open and reports it with the defect.
"""

from __future__ import annotations

from .algebra import Algebra, ModuleSections
from .exactla import Matrix
from . import axioms, compound_dump, maps, triad_axioms
from .finspace import FiniteSpace
from .record import Interner, record
from .report import (DimensionMismatchError, Finding, Report, TriadicaError,
                     merge_reports, relocated)
from .sheaf import (Presheaf, function_presheaf, pushforward, pushforward_module,
                    restriction_square_failures, validate_algebra_presheaf,
                    validate_module_presheaf)


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
    return Report("check_leibniz", triad_axioms.leibniz_failure(a, m, d, range(a.dim)))


def validate_triad(t: DifferentialTriad) -> Report:
    """Full triad validation: both presheaf layers, the Leibniz rule over
    every open and the differential restriction squares.  The Leibniz
    verdict is a function of (algebra, module, differential), so it is
    found once per distinct triple and relocated to each open.  One
    interner holds every check's result, so each distinct check runs once.
    When both layers pass, they are functorial, so the squares on the cover
    pairs give every square; those are checked first."""
    interner = Interner()
    parts = [validate_algebra_presheaf(t.algebras, interner),
             validate_module_presheaf(t.modules, interner)]
    space = t.space
    known = not (parts[0].findings or parts[1].findings)
    leibniz_findings = []
    for u, reads in enumerate(zip(t.algebras.sections, t.modules.sections, t.differentials)):
        leibniz_findings += relocated(f"open {u}: ", interner.once(
            "leibniz", reads, lambda: triad_axioms.leibniz_errors(*reads, known)))
    parts.append(Report("check_leibniz", tuple(leibniz_findings)))

    def squares(pairs):
        return restriction_square_failures(t.differentials, t.algebras, t.modules,
                                           pairs, interner)

    failures = []
    if not known or squares(space.cover_pairs):
        failures = squares(axioms.proper_pairs(space))
    parts.append(Report("differential_squares", tuple(
        Finding("error", f"inclusion {u}->{v}",
                "differential does not commute with restriction", [u, v])
        for u, v in failures)))
    return merge_reports("validate_triad", parts)


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


def pushforward_triad(f: maps.ContinuousMap, t: DifferentialTriad) -> DifferentialTriad:
    """Direct image triad along a continuous map."""
    algebras = pushforward(f, t.algebras)
    modules = pushforward_module(f, t.modules, base_image=algebras)
    diffs = tuple(t.differentials[w] for w in f.preimages)
    return DifferentialTriad(algebras, modules, diffs)


def pushforward_command(args, f, t):
    out = pushforward_triad(f, t)
    return validate_triad(out), {"triad": compound_dump.triad_to_json(out)}
