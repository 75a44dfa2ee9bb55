"""Parsers of a workspace's triads (see `compound`)."""

from __future__ import annotations

from . import algebra, sheaf, triad
from .compound import restrictions_from_json
from .workspace import (ParseError, WorkspaceDocument, built, entry, fields,
                        matrix_from_json, vector_from_json)


def module_sections_from_json(value, literals: dict,
                              location: str) -> algebra.ModuleSections:
    algebra_dim, dim, action_json = fields(value, ("algebra_dim", "dim", "action"),
                                           location)
    try:
        algebra_dim, dim = int(algebra_dim), int(dim)
    except (TypeError, ValueError):
        raise ParseError("algebra_dim and dim must be integers",
                         location) from None
    if dim < 0 or (algebra_dim == 0 and dim != 0):
        # over the zero algebra 1 = 0 acts as the identity, so the module is 0
        raise ParseError(f"dim must be 0 over the zero algebra and never "
                         f"negative, not {dim}", location)
    if not isinstance(action_json, list) or len(action_json) != algebra_dim:
        raise ParseError(f"action must hold {algebra_dim} rows", location)
    action = []
    for i, row in enumerate(action_json):
        if not isinstance(row, list) or len(row) != dim:
            raise ParseError(f"action[{i}] must hold {dim} vectors", location)
        action.append(tuple(vector_from_json(w, dim, literals,
                                              f"{location}.action[{i}][{j}]")
                            for j, w in enumerate(row)))
    return algebra.ModuleSections(algebra_dim, dim, tuple(action))


def triad_from_json(value, doc: WorkspaceDocument, location: str,
                    literals: dict) -> triad.DifferentialTriad:
    algebras, modules_json, diffs_json = fields(
        value, ("algebras", "modules", "differentials"), location)
    algebras = entry("presheaves", algebras, doc, f"{location}.algebras", literals)
    sections_json, restrictions = fields(
        modules_json, ("sections", "restrictions"), location,
        "modules must be {sections, restrictions}")
    if not isinstance(sections_json, list) or \
            len(sections_json) != len(algebras.space.opens):
        raise ParseError("modules.sections must list one entry per open",
                         location)
    sections = tuple(
        module_sections_from_json(s, literals, f"{location}.modules.sections[{i}]")
        for i, s in enumerate(sections_json))
    dims = [m.dim for m in sections]
    table = restrictions_from_json(restrictions, algebras.space, dims, literals,
                                   f"{location}.modules.restrictions")
    if not isinstance(diffs_json, list) or \
            len(diffs_json) != len(algebras.space.opens):
        raise ParseError("differentials must list one matrix per open", location)
    diffs = tuple(matrix_from_json(d, literals, f"{location}.differentials[{i}]")
                  for i, d in enumerate(diffs_json))
    modules = built(location, sheaf.Presheaf, algebras.space, sections, table,
                    algebras)
    return built(location, triad.DifferentialTriad, algebras, modules, diffs)
