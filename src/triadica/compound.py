"""The compound entries of a workspace: presheaves, maps, triads, morphisms.

Their parsers, in the shapes the `workspace` docstring lists, built on its
fragments (matrices, vectors, spaces, algebras).  Each reads an inline value,
and each part that may be a reference through `workspace.entry`; only
`workspace._PARSERS` calls them.  This layer reads presheaves and triads,
`compound_maps` maps and morphisms, and `compound_dump` writes all four back.
Each loads on first use: a document with spaces and algebras only, such as
`spectrum`, `fullness` and `kaehler` on an algebra read, runs none of them.
"""

from __future__ import annotations

from . import algebra, finspace, sheaf, triad
from .workspace import (ParseError, WorkspaceDocument, built, entry, fields,
                        matrix_from_json, vector_from_json)


def restrictions_from_json(value, space: finspace.FiniteSpace, dims,
                           literals: dict, location: str):
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise ParseError("restrictions must be an object", location)
    table = {}
    for key, mat in value.items():
        try:
            u, v = map(int, key.split("->"))
            # int() also reads "02", " 2" and "+2": one spelling names a pair
            canonical = key == f"{u}->{v}"
        except ValueError:
            canonical = False
        if not canonical:
            raise ParseError(f"restriction key {key!r} is not 'u->v'", location)
        if not (0 <= u < len(space.opens)) or not (0 <= v < len(space.opens)):
            raise ParseError(f"restriction key {key!r} names a missing open",
                             location)
        if not space.opens[v] <= space.opens[u]:
            raise ParseError(f"restriction key {key!r} is not an inclusion",
                             location)
        table[(u, v)] = matrix_from_json(mat, literals, f"{location}[{key!r}]")
    return built(location, sheaf.fill_restrictions, space, dims, table)


def presheaf_from_json(value, doc: WorkspaceDocument, location: str,
                       literals: dict) -> sheaf.Presheaf:
    """An inline presheaf.  `literals` is the document's scalar memo (see
    `rationals_from_json`), as in the parsers below."""
    space_json, sections_json, restrictions = fields(
        value, ("space", "sections", "restrictions"), location)
    space = entry("spaces", space_json, doc, f"{location}.space", literals)
    if not isinstance(sections_json, list) or \
            len(sections_json) != len(space.opens):
        raise ParseError(f"sections must list one algebra per open "
                         f"({len(space.opens)})", location)
    sections = tuple(entry("algebras", a, doc, f"{location}.sections[{i}]", literals)
                     for i, a in enumerate(sections_json))
    dims = [a.dim for a in sections]
    table = restrictions_from_json(restrictions, space, dims, literals,
                                   f"{location}.restrictions")
    return built(location, sheaf.Presheaf, space, sections, table)


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
