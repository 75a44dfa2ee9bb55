"""The compound entries of a workspace: presheaves, maps, triads, morphisms.

Their parsers and serializers, in the shapes the `workspace` docstring
lists, built on the `workspace` fragments (matrices, spaces, algebras,
module sections) and resolved through `workspace.resolve`.  The layer
loads on first use: a document with spaces and algebras only, such as the
ones `spectrum`, `fullness` and `kaehler` on an algebra read, never runs it.
"""

from __future__ import annotations

from . import algebra, dtcat, finspace, sheaf, triad
from .errors import DimensionMismatchError, TriadicaError
from .workspace import (ParseError, WorkspaceDocument, algebra_from_json,
                        algebra_to_json, matrix_from_json, matrix_to_json,
                        module_sections_to_json, resolve, space_from_json,
                        space_to_json, vector_from_json)


def _restrictions_from_json(value, space: finspace.FiniteSpace, dims,
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


def _restrictions_to_json(p: sheaf.Presheaf) -> dict:
    # the parser refills identities and maps to zero sections
    return {f"{u}->{v}": matrix_to_json(p.restriction(u, v))
            for u, v in p.space.inclusion_pairs if u != v and p.section_dim(v)}


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
    space = _space_ref(value.get("space"), doc, f"{location}.space")
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
    table = _restrictions_from_json(value.get("restrictions"), space, dims,
                                    literals, f"{location}.restrictions")
    try:
        return sheaf.Presheaf(space, tuple(sections), table)
    except TriadicaError as exc:
        raise ParseError(str(exc), location) from None


def presheaf_to_json(p: sheaf.Presheaf) -> dict:
    return {"space": space_to_json(p.space),
            "sections": [algebra_to_json(a) for a in p.sections],
            "restrictions": _restrictions_to_json(p)}


def module_sections_from_json(value, literals: dict,
                              location: str) -> algebra.ModuleSections:
    if not isinstance(value, dict) or set(value) - {"algebra_dim", "dim",
                                                    "action"}:
        raise ParseError("expected {algebra_dim, dim, action}", location)
    try:
        algebra_dim, dim = int(value["algebra_dim"]), int(value["dim"])
    except (KeyError, TypeError, ValueError):
        raise ParseError("algebra_dim and dim must be integers",
                         location) from None
    if dim < 0 or (algebra_dim == 0 and dim != 0):
        # over the zero algebra 1 = 0 acts as the identity, so the module is 0
        raise ParseError(f"dim must be 0 over the zero algebra and never "
                         f"negative, not {dim}", location)
    action_json = value.get("action")
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


def map_from_json(value, doc: WorkspaceDocument, location: str) -> finspace.ContinuousMap:
    if isinstance(value, str):
        return resolve(value, doc, "maps", location)
    if not isinstance(value, dict) or set(value) - {"domain", "codomain",
                                                    "values"}:
        raise ParseError("expected {domain, codomain, values}", location)
    domain = _space_ref(value.get("domain"), doc, f"{location}.domain")
    codomain = _space_ref(value.get("codomain"), doc, f"{location}.codomain")
    values = value.get("values")
    if not isinstance(values, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in values):
        raise ParseError("values must be a list of point indices", location)
    try:
        return finspace.ContinuousMap(domain, codomain, tuple(values))
    except (TriadicaError, ValueError) as exc:
        raise ParseError(str(exc), location) from None


def map_to_json(f: finspace.ContinuousMap) -> dict:
    return {"domain": space_to_json(f.domain),
            "codomain": space_to_json(f.codomain),
            "values": list(f.values)}


def triad_from_json(value, doc: WorkspaceDocument, location: str,
                    literals: dict) -> triad.DifferentialTriad:
    if isinstance(value, str):
        return resolve(value, doc, "triads", location)
    if not isinstance(value, dict) or set(value) - {"algebras", "modules",
                                                    "differentials"}:
        raise ParseError("expected {algebras, modules, differentials}", location)
    algebras = presheaf_from_json(value.get("algebras"), doc,
                                  f"{location}.algebras", literals)
    modules_json = value.get("modules")
    if not isinstance(modules_json, dict) or \
            set(modules_json) - {"sections", "restrictions"}:
        raise ParseError("modules must be {sections, restrictions}", location)
    sections_json = modules_json.get("sections")
    if not isinstance(sections_json, list) or \
            len(sections_json) != len(algebras.space.opens):
        raise ParseError("modules.sections must list one entry per open",
                         location)
    sections = tuple(
        module_sections_from_json(entry, literals, f"{location}.modules.sections[{i}]")
        for i, entry in enumerate(sections_json))
    dims = [m.dim for m in sections]
    table = _restrictions_from_json(modules_json.get("restrictions"),
                                    algebras.space, dims, literals,
                                    f"{location}.modules.restrictions")
    diffs_json = value.get("differentials")
    if not isinstance(diffs_json, list) or \
            len(diffs_json) != len(algebras.space.opens):
        raise ParseError("differentials must list one matrix per open", location)
    diffs = tuple(matrix_from_json(d, literals, f"{location}.differentials[{i}]")
                  for i, d in enumerate(diffs_json))
    try:
        modules = sheaf.Presheaf(algebras.space, sections, table, algebras)
        return triad.DifferentialTriad(algebras, modules, diffs)
    except TriadicaError as exc:
        raise ParseError(str(exc), location) from None


def triad_to_json(t: triad.DifferentialTriad) -> dict:
    return {"algebras": presheaf_to_json(t.algebras),
            "modules": {
                "sections": [module_sections_to_json(m)
                             for m in t.modules.sections],
                "restrictions": _restrictions_to_json(t.modules)},
            "differentials": [matrix_to_json(d) for d in t.differentials]}


def morphism_from_json(value, doc: WorkspaceDocument, location: str,
                       literals: dict) -> dtcat.TriadMorphism:
    if isinstance(value, str):
        return resolve(value, doc, "morphisms", location)
    expected = {"map", "source", "target", "algebra_components",
                "module_components"}
    if not isinstance(value, dict) or set(value) - expected:
        raise ParseError(f"expected {{{', '.join(sorted(expected))}}}", location)
    f = map_from_json(value.get("map"), doc, f"{location}.map")
    source = triad_from_json(value.get("source"), doc, f"{location}.source", literals)
    target = triad_from_json(value.get("target"), doc, f"{location}.target", literals)
    n = len(target.space.opens)
    alg_json = value.get("algebra_components")
    mod_json = value.get("module_components")
    for label, part in (("algebra_components", alg_json),
                        ("module_components", mod_json)):
        if not isinstance(part, list) or len(part) != n:
            raise ParseError(f"{label} must list one matrix per target open "
                             f"({n})", location)
    alg = tuple(matrix_from_json(m, literals, f"{location}.algebra_components[{i}]")
                for i, m in enumerate(alg_json))
    mod = tuple(matrix_from_json(m, literals, f"{location}.module_components[{i}]")
                for i, m in enumerate(mod_json))
    try:
        return dtcat.TriadMorphism(f, source, target, alg, mod)
    except TriadicaError as exc:
        raise ParseError(str(exc), location) from None


def morphism_to_json(m: dtcat.TriadMorphism) -> dict:
    return {"map": map_to_json(m.map),
            "source": triad_to_json(m.source),
            "target": triad_to_json(m.target),
            "algebra_components": [matrix_to_json(x)
                                   for x in m.algebra_components],
            "module_components": [matrix_to_json(x)
                                  for x in m.module_components]}


def _space_ref(value, doc: WorkspaceDocument, location: str) -> finspace.FiniteSpace:
    if isinstance(value, str):
        return resolve(value, doc, "spaces", location)
    return space_from_json(value, location)
