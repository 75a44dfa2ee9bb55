"""Uniqueness of a triad morphism's components, decided on two morphisms.

Two morphisms over the same map between the same triads that agree in one
layer must agree in the other, under a hypothesis the paper's uniqueness
result needs.  `algebra_component_uniqueness`: equal module components force
equal algebra components when the source operator kills only the constants
(`constants_only_kernel`).  `differential_agreement_on_image`: equal
algebra components force equal module components on the image of the
target operator, and nowhere else.  Only the `uniqueness` command runs this
layer, which loads on first use.
"""

from __future__ import annotations

from .dtcat import TriadMorphism
from .exactla import Matrix, kernel, span
from .report import Finding, Report
from .triad import DifferentialTriad


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


def constants_only_kernel(t: DifferentialTriad) -> bool:
    """True when over every nonempty open ker(d) is exactly the span of 1."""
    return all(kernel(d) == span(a.dim, [a.unit])
               for a, d, open_set in zip(t.algebras.sections, t.differentials,
                                         t.space.opens) if open_set)


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


def uniqueness_command(args, m1, m2):
    same_algebra = m1.algebra_components == m2.algebra_components
    same_module = m1.module_components == m2.module_components
    if same_algebra and not same_module:
        return differential_agreement_on_image(m1, m2), {}
    if same_module and not same_algebra:
        return algebra_component_uniqueness(m1, m2), {}
    if same_algebra and same_module:
        findings = (Finding("info", "components",
                            "the morphisms coincide in both layers", None),)
        return Report("uniqueness", findings), {}
    findings = (Finding(
        "error", "components",
        "the morphisms differ in both layers; no uniqueness "
        "hypothesis applies", None),)
    return Report("uniqueness", findings), {}
