"""The axioms a triad adds to its algebra presheaf, the module action and
the Leibniz rule; `sheafify` and `check-morphism` compile neither."""

from __future__ import annotations

from . import triad
from .algebra import Algebra, ModuleSections, basis_pairs, generators_first
from .exactla import Matrix, unit_vector
from .report import Finding, Report
from .sheaf import sheaf_status


def validate_module_sections(a: Algebra, m: ModuleSections) -> Report:
    """Unit acts as identity; action is associative over the algebra."""
    return Report("validate_module_sections", tuple(action_findings(a, m, range(a.dim))))


def action_findings(a: Algebra, m: ModuleSections, firsts) -> list[Finding]:
    """The unit acting as the identity, and (e_i e_j).w = e_i.(e_j.w) for i
    in `firsts`.  Over an associative algebra the elements x with
    (xy).w = x.(y.w) for all y, w form a subalgebra."""
    n = a.dim
    basis = [unit_vector(n, i) for i in range(n)]
    mod_basis = [unit_vector(m.dim, j) for j in range(m.dim)]
    findings = [Finding("error", f"unit.w{j}", "unit does not act as the identity", j)
                for j, w in enumerate(mod_basis) if m.act(a.unit, w) != w]
    for i in firsts:
        for j in range(n):
            prod = a.struct[i][j]
            for k, w in enumerate(mod_basis):
                if m.act(prod, w) != m.act(basis[i], m.act(basis[j], w)):
                    findings.append(Finding("error", f"(e{i} e{j}).w{k}",
                                            "action is not associative", [i, j, k]))
    return findings


def leibniz_failure(a: Algebra, m: ModuleSections, d: Matrix, among) -> tuple[Finding, ...]:
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


def leibniz_errors(a: Algebra, m: ModuleSections, d: Matrix, known: bool) -> list[Finding]:
    """check_leibniz's findings, and one at "unit" when d(1) is not 0.  In
    a commutative algebra over an associative module, both `known` valid,
    the x with d(xy) = x.dy + y.dx for all y form a subalgebra, which holds
    the unit when d(1) = 0: then pairs with a generator are checked first."""
    # consequence of Leibniz at (1,1); checked separately for reporting
    unit_image = d.apply(a.unit)
    unit = [Finding("error", "unit", "differential does not annihilate the unit",
                    [str(c) for c in unit_image])] if any(unit_image) else []
    if known and not unit:
        return list(generators_first(a, lambda among: leibniz_failure(a, m, d, among)))
    return list(triad.check_leibniz(a, m, d).findings) + unit


def validate_triad_command(args, t):
    layers = [("algebra layer", t.algebras), ("module layer", t.modules)]
    rep = triad.validate_triad(t)
    return Report(rep.operation, rep.findings + tuple(sheaf_status(layers))), {}
