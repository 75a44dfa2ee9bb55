"""The compound entries of a workspace: presheaves, maps, triads, morphisms.

Their parsers and serializers, in the shapes the `workspace` docstring
lists, built on the `workspace` fragments (matrices, spaces, algebras,
module sections) and resolved through `workspace.resolve`.  This layer
parses presheaves, `compound_triad` triads, maps and morphisms, and
`compound_dump` writes all four.  Each loads on first use:
a document with spaces and algebras only, such as `spectrum`, `fullness`
and `kaehler` on an algebra read, runs none of them.
"""

from __future__ import annotations

from . import finspace, sheaf
from .errors import DimensionMismatchError, TriadicaError
from .workspace import (ParseError, WorkspaceDocument, algebra_from_json,
                        matrix_from_json, resolve, space_from_json)


def restrictions_from_json(value, space: finspace.FiniteSpace, dims,
                           literals: dict, location: str):
    value = {} if value is None else value
    if not isinstance(value, dict):
        raise ParseError("restrictions must be an object", location)
    table = {}
    for key, mat in value.items():
        parts = key.split("->")
        if len(parts) != 2:
            raise ParseError(f"restriction key {key!r} is not 'u->v'", location)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"restriction key {key!r} is not 'u->v'",
                             location) from None
        if not (0 <= u < len(space.opens)) or not (0 <= v < len(space.opens)):
            raise ParseError(f"restriction key {key!r} names a missing open",
                             location)
        if not space.opens[v] <= space.opens[u]:
            raise ParseError(f"restriction key {key!r} is not an inclusion",
                             location)
        table[(u, v)] = matrix_from_json(mat, literals, f"{location}[{key!r}]")
    try:
        return sheaf.fill_restrictions(space, dims, table)
    except DimensionMismatchError as exc:
        raise ParseError(str(exc), location) from None


def presheaf_from_json(value, doc: WorkspaceDocument, location: str,
                       literals: dict) -> sheaf.Presheaf:
    """A presheaf, or the one named by a reference.  `literals` is the
    document's scalar memo (see `rationals_from_json`), as in the parsers
    below."""
    if isinstance(value, str):
        return resolve(value, doc, "presheaves", location)
    if not isinstance(value, dict) or set(value) - {"space", "sections",
                                                    "restrictions"}:
        raise ParseError("expected {space, sections, restrictions}", location)
    space = space_ref(value.get("space"), doc, f"{location}.space")
    sections_json = value.get("sections")
    if not isinstance(sections_json, list) or \
            len(sections_json) != len(space.opens):
        raise ParseError(f"sections must list one algebra per open "
                         f"({len(space.opens)})", location)
    sections = []
    for i, entry in enumerate(sections_json):
        loc = f"{location}.sections[{i}]"
        if isinstance(entry, str) and " " not in entry:
            # a bare word is a reference; builders are "name size" pairs
            sections.append(resolve(entry, doc, "algebras", loc))
        else:
            sections.append(algebra_from_json(entry, literals, loc))
    dims = [a.dim for a in sections]
    table = restrictions_from_json(value.get("restrictions"), space, dims,
                                   literals, f"{location}.restrictions")
    try:
        return sheaf.Presheaf(space, tuple(sections), table)
    except TriadicaError as exc:
        raise ParseError(str(exc), location) from None


def space_ref(value, doc: WorkspaceDocument, location: str) -> finspace.FiniteSpace:
    if isinstance(value, str):
        return resolve(value, doc, "spaces", location)
    return space_from_json(value, location)
