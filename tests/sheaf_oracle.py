"""Reference sheaf check by cover enumeration, and the all-pairs presheaf
validators.

For every open U and every irredundant cover of U by proper nonempty opens,
the natural map F(U) -> prod F(V_i) must be injective and its image must be
the families that agree pairwise on the intersections V_i & V_j.  The empty
open has only the empty cover, so F(empty) must vanish.  This runs through
up to 2^(#opens - 2) candidate covers per open; the library's stalk-family
check must give the same verdict.

The validators check every inclusion pair, and a module restriction's
compatibility with the action one pair of basis vectors at a time: dimA *
dimM dense applies and actions per pair.  The library's validators must
return the same reports, findings in the same order.  Likewise the triad
validator by opens runs `check_leibniz` on every open and multiplies out
the differential square of every proper pair, reusing nothing.
"""

from triadica.algebra import (AlgebraMorphism, validate_algebra,
                              validate_algebra_morphism)
from triadica.triad_axioms import validate_module_sections
from triadica.exactla import ZERO, Matrix, full_space, kernel, span, unit_vector
from triadica.report import Finding, Report, merge_reports
from triadica.sheaf import CoverWitness, SheafCertificate, irredundant_covers
from triadica.triad import check_leibniz


def equalizer_data(p, u: int, cover: tuple[int, ...]):
    """Natural map into the product and the compatible-family subspace."""
    space = p.space
    dims = [p.section_dim(i) for i in cover]
    offsets = []
    total = 0
    for d in dims:
        offsets.append(total)
        total += d
    if cover:
        natural = Matrix(total, p.section_dim(u),
                         tuple(row for i in cover for row in p.restriction(u, i).entries))
    else:
        natural = Matrix.zeros(0, p.section_dim(u))
    rows = []
    for a_pos in range(len(cover)):
        for b_pos in range(a_pos + 1, len(cover)):
            i, j = cover[a_pos], cover[b_pos]
            meet = space.open_index(space.opens[i] & space.opens[j])
            ri = p.restriction(i, meet)
            rj = p.restriction(j, meet)
            for r in range(ri.rows):
                row = [ZERO] * total
                for c in range(ri.cols):
                    row[offsets[a_pos] + c] += ri.entries[r][c]
                for c in range(rj.cols):
                    row[offsets[b_pos] + c] -= rj.entries[r][c]
                rows.append(row)
    if rows:
        compatible = kernel(Matrix.from_rows(rows, cols=total))
    else:
        compatible = full_space(total)
    return natural, compatible, offsets, dims


def check_sheaf_by_covers(p) -> SheafCertificate:
    """Equalizer test against every irredundant cover of every open.

    The image of the natural map lies in the compatible-family space when
    the restrictions compose, so the test reduces to: natural map injective,
    and its rank equal to the dimension of the compatible-family space.
    """
    witnesses = []
    for u in range(len(p.space.opens)):
        for cover in irredundant_covers(p.space, u):
            natural, compatible, offsets, dims = equalizer_data(p, u, cover)
            ker = kernel(natural)
            if ker.dim > 0:
                witnesses.append(CoverWitness(u, cover, "not_injective",
                                              [str(x) for x in ker.basis[0]]))
                continue
            image = span(natural.rows, [natural.col(c) for c in range(natural.cols)])
            if image.dim != compatible.dim:
                stray = next(b for b in compatible.basis if not image.contains(b))
                family = [[str(x) for x in stray[o:o + d]]
                          for o, d in zip(offsets, dims)]
                witnesses.append(CoverWitness(u, cover, "gluing_fails", family))
    return SheafCertificate(p, not witnesses, tuple(witnesses))


def functoriality_findings(p) -> list[Finding]:
    findings = []
    space = p.space
    for u, v in space.inclusion_pairs:
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


def validate_algebra_presheaf_by_pairs(p) -> Report:
    findings: list[Finding] = []
    space = p.space
    for u, algebra in enumerate(p.sections):
        for f in validate_algebra(algebra).errors():
            findings.append(Finding("error", f"open {u}: {f.location}", f.message, f.witness))
        if not space.opens[u] and algebra.dim != 0:
            findings.append(Finding("error", f"open {u}",
                                    "sections over the empty set must be the zero algebra",
                                    algebra.dim))
    for u, v in space.inclusion_pairs:
        r = p.restriction(u, v)
        if u == v and r != Matrix.identity(p.sections[u].dim):
            findings.append(Finding("error", f"restriction {u}->{u}",
                                    "identity inclusion must restrict by the identity", None))
        for f in validate_algebra_morphism(AlgebraMorphism(p.sections[u], p.sections[v], r)).errors():
            findings.append(Finding("error", f"restriction {u}->{v}: {f.location}",
                                    f.message, f.witness))
    findings.extend(functoriality_findings(p))
    return Report("validate_algebra_presheaf", tuple(findings))


def validate_module_presheaf_by_pairs(m) -> Report:
    findings: list[Finding] = []
    space = m.space
    for u in range(len(space.opens)):
        for f in validate_module_sections(m.base.sections[u], m.sections[u]).errors():
            findings.append(Finding("error", f"open {u}: {f.location}", f.message, f.witness))
        if not space.opens[u] and m.sections[u].dim != 0:
            findings.append(Finding("error", f"open {u}",
                                    "module sections over the empty set must vanish",
                                    m.sections[u].dim))
    for u, v in space.inclusion_pairs:
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
    findings.extend(functoriality_findings(m))
    return Report("validate_module_presheaf", tuple(findings))


def validate_triad_by_opens(t) -> Report:
    findings = []
    for u, (a, m, d) in enumerate(zip(t.algebras.sections, t.modules.sections,
                                      t.differentials)):
        for f in check_leibniz(a, m, d).findings:
            findings.append(Finding(f.severity, f"open {u}: {f.location}", f.message,
                                    f.witness))
        unit_image = d.apply(a.unit)
        if any(unit_image):
            findings.append(Finding("error", f"open {u}: unit",
                                    "differential does not annihilate the unit",
                                    [str(c) for c in unit_image]))
    squares = [Finding("error", f"inclusion {u}->{v}",
                       "differential does not commute with restriction", [u, v])
               for u, v in t.space.inclusion_pairs
               if u != v and t.differentials[v] @ t.algebras.restriction(u, v)
               != t.modules.restriction(u, v) @ t.differentials[u]]
    return merge_reports("validate_triad", [
        validate_algebra_presheaf_by_pairs(t.algebras),
        validate_module_presheaf_by_pairs(t.modules),
        Report("check_leibniz", tuple(findings)),
        Report("differential_squares", tuple(squares))])
