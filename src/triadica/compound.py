"""The compound entries of a workspace: presheaves, maps, triads, morphisms.

Their parsers and serializers, in the shapes the `workspace` docstring
lists, built on the `workspace` fragments (matrices, spaces, algebras,
module sections).  Each parser reads an inline value, and reads each part
that may be a reference through `workspace.entry`.  This layer parses
presheaves, `compound_triad` triads, `compound_maps` maps and morphisms,
and `compound_dump` writes all four.  Each loads on first use: a document with
spaces and algebras only, such as `spectrum`, `fullness` and `kaehler` on
an algebra read, runs none of them.
"""

from __future__ import annotations

from . import finspace, sheaf
from .workspace import (ParseError, WorkspaceDocument, built, entry, fields,
                        matrix_from_json)


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
