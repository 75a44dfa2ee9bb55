"""Parsers of a workspace's triads, maps and morphisms (see `compound`)."""

from __future__ import annotations

from . import algebra, dtcat, maps, sheaf, triad
from .compound import presheaf_from_json, restrictions_from_json, space_ref
from .errors import TriadicaError
from .workspace import (ParseError, WorkspaceDocument, matrix_from_json, resolve,
                        vector_from_json)


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


def map_from_json(value, doc: WorkspaceDocument, location: str) -> maps.ContinuousMap:
    if isinstance(value, str):
        return resolve(value, doc, "maps", location)
    if not isinstance(value, dict) or set(value) - {"domain", "codomain",
                                                    "values"}:
        raise ParseError("expected {domain, codomain, values}", location)
    domain = space_ref(value.get("domain"), doc, f"{location}.domain")
    codomain = space_ref(value.get("codomain"), doc, f"{location}.codomain")
    values = value.get("values")
    if not isinstance(values, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in values):
        raise ParseError("values must be a list of point indices", location)
    try:
        return maps.ContinuousMap(domain, codomain, tuple(values))
    except (TriadicaError, ValueError) as exc:
        raise ParseError(str(exc), location) from None


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
    table = restrictions_from_json(modules_json.get("restrictions"),
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
