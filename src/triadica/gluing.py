"""Sheafification by compatible stalk families, shared by both layers.

Over each open U of a presheaf p, `Presheaf.layouts` gives the space of
compatible stalk families and the family of each section (see `sheaf`).  The
sheafification p+ has those families as its sections over U, restriction
by truncating a family to the points of a smaller open, and the bilinear
operation of the layer applied stalk by stalk; the canonical map p -> p+
sends a section to its family.  `sheafify`, whose entry point is in
`sheaf`, validates its input and runs this layer.  `sheaf.sheafify_module`
runs it without a check: its one caller, `kaehler_presheaf`, builds the
module layer from `kaehler_module`, and the `kaehler` command validates the
triad afterwards.  This layer loads on first use, so the commands that
never sheafify do not compile it.
"""

from __future__ import annotations

from . import axioms, compound_dump, sheaf
from .algebra import Algebra
from .exactla import Matrix
from .finspace import require_topology
from .record import record
from .report import Finding, Report
from .sheaf import InvalidPresheafError, Presheaf
from .sheafmaps import PresheafMorphism


@record
class Sheafification:
    presheaf: Presheaf
    canonical: PresheafMorphism


def _restriction_between_layouts(lu: axioms.FamilyLayout, lv: axioms.FamilyLayout) -> Matrix:
    """Truncate families from a bigger open to a smaller one."""
    if lv.total == 0 or not lv.basis:
        return Matrix.zeros(len(lv.basis), len(lu.basis))
    cols = []
    for b in lu.basis:
        chunk_of = dict(zip(lu.points, lu.chunks(b)))
        truncated = tuple(x for p in lv.points for x in chunk_of[p])
        cols.append(lv.coordinates(truncated))
    return Matrix.from_columns(cols, rows=len(lv.basis))


def sheafify_layer(p: Presheaf, operate, section,
                   base: Presheaf | None = None) -> Sheafification:
    """Compatible-stalk-family sheafification, shared by both layers.

    Over each open the families of p get the stalkwise bilinear table
    `operate(stalk open, left chunk, right chunk)`, its left factor running
    over the families of p's base (of p for an algebra layer) and its right
    factor over p's.  `section(u, layout, table)` builds the sheafified
    sections over open u, which live over `base`; the canonical map sends a
    section to the family of its restrictions to the stalks.
    """
    space = p.space
    layouts = p.layouts
    tables = []
    for layout, left in zip(layouts, (p.base or p).layouts):
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
                    for u, v in space.inclusion_pairs}
    plus = Presheaf(space, tuple(section(u, layout, table) for u, (layout, table)
                                 in enumerate(zip(layouts, tables))),
                    restrictions, base)
    components = []
    for layout in layouts:
        cols = [layout.coordinates(f) for f in layout.families]
        components.append(Matrix.from_columns(cols, rows=len(layout.basis)))
    return Sheafification(plus, PresheafMorphism(p, plus, tuple(components)))


def sheafify(p: Presheaf) -> Sheafification:
    """Compatible-stalk-family sheafification of an algebra presheaf.

    Raises InvalidTopologyError on a non-topology and InvalidPresheafError
    on a presheaf that fails validation, before any family is built.
    """
    require_topology(p.space)
    InvalidPresheafError.require(sheaf.validate_algebra_presheaf(p))

    def algebra(u, layout, struct):
        unit_family = tuple(x for s in layout.stalk_opens
                            for x in p.sections[s].unit)
        unit = layout.coordinates(unit_family) if layout.basis else ()
        return Algebra(len(layout.basis), struct, unit)

    return sheafify_layer(p, lambda s, x, y: p.sections[s].multiply(x, y),
                          algebra)


def sheafify_command(args, p):
    findings = sheaf.sheaf_status([("input", p)])
    res = sheaf.sheafify(p)
    after = sheaf.check_sheaf_condition(res.presheaf)
    findings.append(Finding("info" if after.is_sheaf else "error", "result",
                            "sheaf condition holds" if after.is_sheaf else
                            "sheafification did not produce a sheaf", None))
    derived = {"sheaf": compound_dump.presheaf_to_json(res.presheaf),
               "canonical_components": [compound_dump.matrix_to_json(c)
                                        for c in res.canonical.components]}
    return Report("sheafify", tuple(findings)), derived
