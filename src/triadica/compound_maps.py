"""Parsers of a workspace's maps and morphisms (see `compound`)."""

from __future__ import annotations

from . import dtcat, maps
from .workspace import ParseError, WorkspaceDocument, built, entry, fields, matrix_from_json


def map_from_json(value, doc: WorkspaceDocument, location: str,
                  literals: dict) -> maps.ContinuousMap:
    domain, codomain, values = fields(value, ("domain", "codomain", "values"),
                                      location)
    domain = entry("spaces", domain, doc, f"{location}.domain", literals)
    codomain = entry("spaces", codomain, doc, f"{location}.codomain", literals)
    if not isinstance(values, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in values):
        raise ParseError("values must be a list of point indices", location)
    return built(location, maps.ContinuousMap, domain, codomain, tuple(values))


def morphism_from_json(value, doc: WorkspaceDocument, location: str,
                       literals: dict) -> dtcat.TriadMorphism:
    alg_json, f, mod_json, source, target = fields(
        value, ("algebra_components", "map", "module_components", "source", "target"),
        location)
    f = entry("maps", f, doc, f"{location}.map", literals)
    source = entry("triads", source, doc, f"{location}.source", literals)
    target = entry("triads", target, doc, f"{location}.target", literals)
    n = len(target.space.opens)
    for label, part in (("algebra_components", alg_json),
                        ("module_components", mod_json)):
        if not isinstance(part, list) or len(part) != n:
            raise ParseError(f"{label} must list one matrix per target open "
                             f"({n})", location)
    alg = tuple(matrix_from_json(m, literals, f"{location}.algebra_components[{i}]")
                for i, m in enumerate(alg_json))
    mod = tuple(matrix_from_json(m, literals, f"{location}.module_components[{i}]")
                for i, m in enumerate(mod_json))
    return built(location, dtcat.TriadMorphism, f, source, target, alg, mod)
