"""Declarative JSON workspaces: parsing, reference resolution, serialization.

A workspace is a single JSON document (schema 1) with named spaces,
algebras, presheaves, maps, triads and morphisms.  Scalars are exact
rationals written as plain integers or as strings of digits over digits
("2/3", "-5"); floats, decimal points and exponents are rejected outright,
and builders take k <= 32.  Serializers emit the same shapes the parser
accepts, so any derived artifact can be written back into a workspace and
reloaded as an equal object.

Sections and the shapes they hold:

    spaces      {"points": n, "opens": [[0], [0, 1], ...]}
    algebras    "function_algebra k" | "truncated_poly k" |
                {"struct": [[[q, ...], ...], ...], "unit": [q, ...]}
    presheaves  {"space": ref, "sections": [algebra ref/inline per open],
                 "restrictions": {"u->v": [[q, ...], ...]}}
    maps        {"domain": ref, "codomain": ref, "values": [ints]}
    triads      {"algebras": presheaf ref/inline,
                 "modules": {"sections": [module sections ...],
                             "restrictions": {"u->v": matrix}},
                 "differentials": [matrix per open]}
    morphisms   {"map": map ref/inline, "source": triad ref/inline,
                 "target": triad ref/inline,
                 "algebra_components": [matrix per target open],
                 "module_components": [matrix per target open]}

Names are globally unique across sections, so a bare string anywhere a
structured value is expected is an unambiguous reference.
"""

from __future__ import annotations

import json
import re

from . import dtcat, sheaf, triad
from .algebra import Algebra, function_algebra, truncated_poly_algebra
from .errors import DimensionMismatchError, TriadicaError
from .exactla import Matrix, Vector, rat
from .finspace import ContinuousMap, FiniteSpace

SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")

SECTION_ORDER = ("spaces", "algebras", "presheaves", "maps", "triads",
                 "morphisms")


class ParseError(TriadicaError):
    """The document is not a valid workspace."""

    def __init__(self, message: str, location: str = "document"):
        self.location = location
        super().__init__(f"{location}: {message}")


class UnresolvedReference(TriadicaError):
    """A name is referenced but never defined."""

    def __init__(self, name: str, location: str):
        self.name = name
        self.location = location
        super().__init__(f"{location}: undefined name {name!r}")


class WorkspaceDocument:
    """A description and one dict of named, resolved objects per section."""

    def __init__(self, description: str = ""):
        self.description = description
        self.spaces = {}
        self.algebras = {}
        self.presheaves = {}
        self.maps = {}
        self.triads = {}
        self.morphisms = {}

    def section_of(self, name: str) -> str | None:
        for section in SECTION_ORDER:
            if name in getattr(self, section):
                return section
        return None


# ---------------------------------------------------------------------------
# scalar and matrix fragments


def _reject_float(text):
    raise ParseError(f"float literal {text} rejected; write an exact rational "
                     f"string instead")


def rationals_from_json(values, literals: dict, where) -> Vector:
    """The exact rationals of a list of JSON scalars.

    `literals` holds the literals already read in this document, so that
    each distinct literal is parsed once; `where(i)`, the location of entry
    i, is built only for an entry that is refused.
    """
    out = []
    for i, value in enumerate(values):
        kind = type(value)
        # a bool equals 0 or 1 as a key, so only str and int are looked up
        q = literals.get(value) if kind is str or kind is int else None
        if q is None:
            try:
                if kind is bool or kind is float:
                    raise TypeError(f"{value!r} is not an exact rational")
                q = literals[value] = rat(value)
            except (TypeError, ValueError) as exc:
                raise ParseError(str(exc), where(i)) from None
        out.append(q)
    return tuple(out)


def matrix_from_json(value, literals: dict, location: str) -> Matrix:
    if not isinstance(value, dict) or set(value) - {"rows", "cols", "entries"}:
        raise ParseError("expected {rows, cols, entries}", location)
    try:
        rows, cols = int(value["rows"]), int(value["cols"])
    except (KeyError, TypeError, ValueError):
        raise ParseError("rows and cols must be integers", location) from None
    entries = value.get("entries")
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParseError(f"expected {rows} entry rows", location)
    out = []
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"row {r} must hold {cols} entries", location)
        out.append(rationals_from_json(
            row, literals, lambda c: f"{location}.entries[{r}][{c}]"))
    return Matrix(rows, cols, tuple(out))


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[str(x) for x in row] for row in m.entries]}


def _vector_from_json(value, length: int, literals: dict, location: str):
    if not isinstance(value, list) or len(value) != length:
        raise ParseError(f"expected a vector of length {length}", location)
    return rationals_from_json(value, literals, lambda i: f"{location}[{i}]")


def _restrictions_from_json(value, space: FiniteSpace, dims, literals: dict,
                            location: str):
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
            for u, v in p.space.inclusion_pairs() if u != v and p.section_dim(v)}


# ---------------------------------------------------------------------------
# named fragments


def space_from_json(value, location: str) -> FiniteSpace:
    if not isinstance(value, dict) or set(value) - {"points", "opens"}:
        raise ParseError("expected {points, opens}", location)
    points = value.get("points")
    opens = value.get("opens")
    if not isinstance(points, int) or isinstance(points, bool) or points < 0:
        raise ParseError("points must be a non-negative integer", location)
    if not isinstance(opens, list):
        raise ParseError("opens must be a list of point lists", location)
    sets = []
    for i, u in enumerate(opens):
        if not isinstance(u, list) or not all(
                isinstance(x, int) and not isinstance(x, bool) for x in u):
            raise ParseError(f"opens[{i}] must be a list of integers", location)
        sets.append(frozenset(u))
    try:
        space = FiniteSpace(points, tuple(sets))
    except TriadicaError as exc:
        raise ParseError(str(exc), location) from None
    covered = frozenset().union(*sets)
    if len(covered) != points:
        # the whole set is open in a topology, so its opens list every point;
        # this also bounds the work on a space by the size of its description
        missing = next(x for x in space.points if x not in covered)
        raise ParseError(f"point {missing} lies in no open", location)
    return space


def space_to_json(s: FiniteSpace) -> dict:
    return {"points": s.point_count, "opens": [sorted(u) for u in s.opens]}


_BUILDERS = {"function_algebra": function_algebra,
             "truncated_poly": truncated_poly_algebra}
# a size-k builder makes k^3 structure constants from a few bytes of input
_MAX_BUILDER_SIZE = 32


def algebra_from_json(value, literals: dict, location: str) -> Algebra:
    if isinstance(value, str):
        parts = value.split()
        if len(parts) != 2 or parts[0] not in _BUILDERS:
            raise ParseError(f"unknown algebra builder {value!r}; expected "
                             f"'function_algebra k' or 'truncated_poly k'",
                             location)
        try:
            k = int(parts[1])
        except ValueError:
            raise ParseError(f"builder size {parts[1]!r} is not an integer",
                             location) from None
        if k > _MAX_BUILDER_SIZE:
            raise ParseError(f"builder size {k} exceeds {_MAX_BUILDER_SIZE}", location)
        try:
            return _BUILDERS[parts[0]](k)
        except TriadicaError as exc:
            raise ParseError(str(exc), location) from None
    if not isinstance(value, dict) or set(value) - {"struct", "unit"}:
        raise ParseError("expected a builder string or {struct, unit}", location)
    struct = value.get("struct")
    if not isinstance(struct, list):
        raise ParseError("struct must be a list of basis rows", location)
    n = len(struct)
    rows = []
    for i, row in enumerate(struct):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"struct[{i}] must hold {n} product vectors",
                             location)
        rows.append(tuple(_vector_from_json(p, n, literals, f"{location}.struct[{i}][{j}]")
                          for j, p in enumerate(row)))
    unit = _vector_from_json(value.get("unit"), n, literals, f"{location}.unit")
    return Algebra(n, tuple(rows), unit)


def algebra_to_json(a: Algebra) -> dict:
    return {"struct": [[[str(x) for x in p] for p in row] for row in a.struct],
            "unit": [str(x) for x in a.unit]}


def presheaf_from_json(value, doc: WorkspaceDocument, location: str,
                       literals: dict) -> sheaf.Presheaf:
    """A presheaf, or the one named by a reference.  `literals` is the
    document's scalar memo (see `rationals_from_json`), as in the parsers
    below."""
    if isinstance(value, str):
        return _resolve(value, doc, "presheaves", location)
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
            sections.append(_resolve(entry, doc, "algebras", loc))
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
                              location: str) -> sheaf.ModuleSections:
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
        action.append(tuple(_vector_from_json(w, dim, literals,
                                              f"{location}.action[{i}][{j}]")
                            for j, w in enumerate(row)))
    return sheaf.ModuleSections(algebra_dim, dim, tuple(action))


def module_sections_to_json(m: sheaf.ModuleSections) -> dict:
    return {"algebra_dim": m.algebra_dim, "dim": m.dim,
            "action": [[[str(x) for x in w] for w in row] for row in m.action]}


def map_from_json(value, doc: WorkspaceDocument, location: str) -> ContinuousMap:
    if isinstance(value, str):
        return _resolve(value, doc, "maps", location)
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
        return ContinuousMap(domain, codomain, tuple(values))
    except (TriadicaError, ValueError) as exc:
        raise ParseError(str(exc), location) from None


def map_to_json(f: ContinuousMap) -> dict:
    return {"domain": space_to_json(f.domain),
            "codomain": space_to_json(f.codomain),
            "values": list(f.values)}


def triad_from_json(value, doc: WorkspaceDocument, location: str,
                    literals: dict) -> triad.DifferentialTriad:
    if isinstance(value, str):
        return _resolve(value, doc, "triads", location)
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
        return _resolve(value, doc, "morphisms", location)
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


def _space_ref(value, doc: WorkspaceDocument, location: str) -> FiniteSpace:
    if isinstance(value, str):
        return _resolve(value, doc, "spaces", location)
    return space_from_json(value, location)


def _resolve(name: str, doc: WorkspaceDocument, section: str, location: str):
    table = getattr(doc, section)
    if name not in table:
        raise UnresolvedReference(name, location)
    return table[name]


# ---------------------------------------------------------------------------
# the document


# each takes (value, doc, location, literals)
_PARSERS = {
    "spaces": lambda value, doc, loc, literals: space_from_json(value, loc),
    "algebras": lambda value, doc, loc, literals: algebra_from_json(value, literals, loc),
    "presheaves": presheaf_from_json,
    "maps": lambda value, doc, loc, literals: map_from_json(value, doc, loc),
    "triads": triad_from_json,
    "morphisms": morphism_from_json,
}


def parse_workspace(text: str) -> WorkspaceDocument:
    """Parse and fully resolve a workspace document.

    Raises ParseError (bad syntax, bad scalars, bad shapes),
    UnresolvedReference (dangling name) or DimensionMismatchError;
    syntax errors carry the line and column reported by the JSON parser.
    """
    try:
        raw = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}",
                         f"line {exc.lineno}, column {exc.colno}") from None
    if not isinstance(raw, dict):
        raise ParseError("a workspace must be a JSON object")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ParseError(f"schema must be {SCHEMA_VERSION}, "
                         f"got {raw.get('schema')!r}")
    known = set(SECTION_ORDER) | {"schema", "description"}
    unknown = set(raw) - known
    if unknown:
        raise ParseError(f"unknown sections: {sorted(unknown)}")
    description = raw.get("description", "")
    if not isinstance(description, str):
        raise ParseError("description must be a string", "description")
    doc = WorkspaceDocument(description=description)
    literals: dict = {}
    seen: set[str] = set()
    for section in SECTION_ORDER:
        entries = raw.get(section, {})
        if not isinstance(entries, dict):
            raise ParseError("section must be an object of named entries",
                             section)
        for name in entries:
            if not _NAME_RE.match(name):
                raise ParseError(f"bad name {name!r}", section)
            if name in seen:
                raise ParseError(f"duplicate name {name!r}", section)
            seen.add(name)
        for name in sorted(entries):
            loc = f"{section}.{name}"
            obj = _PARSERS[section](entries[name], doc, loc, literals)
            getattr(doc, section)[name] = obj
    return doc


def load_workspace(path: str) -> WorkspaceDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_workspace(handle.read())


def dump_workspace(doc_json: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline end."""
    return json.dumps(doc_json, indent=2, sort_keys=True) + "\n"
