"""Serializers of a workspace's entries and fragments, in the shapes its
parsers read.  Every command that derives an object writes it through them,
so this layer alone owns the output format; the workspace readers write none."""

from __future__ import annotations

from . import algebra, dtcat, exactla, finspace, maps, sheaf, triad


def matrix_to_json(m: exactla.Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[str(x) for x in row] for row in m.entries]}


def space_to_json(s: finspace.FiniteSpace) -> dict:
    return {"points": s.point_count, "opens": [sorted(u) for u in s.opens]}


def algebra_to_json(a: algebra.Algebra) -> dict:
    return {"struct": [[[str(x) for x in p] for p in row] for row in a.struct],
            "unit": [str(x) for x in a.unit]}


def module_sections_to_json(m: algebra.ModuleSections) -> dict:
    return {"algebra_dim": m.algebra_dim, "dim": m.dim,
            "action": [[[str(x) for x in w] for w in row] for row in m.action]}


def _restrictions_to_json(p: sheaf.Presheaf) -> dict:
    # the parser refills identities and maps to zero sections
    return {f"{u}->{v}": matrix_to_json(p.restriction(u, v))
            for u, v in p.space.inclusion_pairs if u != v and p.section_dim(v)}


def presheaf_to_json(p: sheaf.Presheaf) -> dict:
    return {"space": space_to_json(p.space),
            "sections": [algebra_to_json(a) for a in p.sections],
            "restrictions": _restrictions_to_json(p)}


def map_to_json(f: maps.ContinuousMap) -> dict:
    return {"domain": space_to_json(f.domain),
            "codomain": space_to_json(f.codomain),
            "values": list(f.values)}


def triad_to_json(t: triad.DifferentialTriad) -> dict:
    return {"algebras": presheaf_to_json(t.algebras),
            "modules": {
                "sections": [module_sections_to_json(m)
                             for m in t.modules.sections],
                "restrictions": _restrictions_to_json(t.modules)},
            "differentials": [matrix_to_json(d) for d in t.differentials]}


def morphism_to_json(m: dtcat.TriadMorphism) -> dict:
    return {"map": map_to_json(m.map),
            "source": triad_to_json(m.source),
            "target": triad_to_json(m.target),
            "algebra_components": [matrix_to_json(x)
                                   for x in m.algebra_components],
            "module_components": [matrix_to_json(x)
                                  for x in m.module_components]}
