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
structured value is expected is an unambiguous reference (an algebra
written with a space, "truncated_poly 3", is a builder).  It names an
entry of the section that value is drawn from, in whatever order the names
come: an entry of any section may be an alias of another entry of its own
section ("maps": {"E": "F"}), whichever of the two names sorts first.  A
chain of aliases that comes back to its start is refused as a reference cycle.

This layer reads: it parses spaces, algebras and the fragments the rest
are made of.  The parsers of presheaves, maps, triads and morphisms are
the `compound` and `compound_maps` layers', which load on first use, so a
document without those sections never runs them.  Every serializer is
`compound_dump`'s; this layer writes only `dump_workspace`'s canonical text.
"""

from __future__ import annotations

import json
import re

from . import algebra, compound, compound_maps, exactla, finspace
from .report import TriadicaError

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
        # while parse_workspace runs: the raw entries of each section
        # reached so far, and the entries being parsed, outermost first
        self._raw = {}
        self._parsing = []

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


def rationals_from_json(values, literals: dict, where) -> exactla.Vector:
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
                q = literals[value] = exactla.rat(value)
            except (TypeError, ValueError) as exc:
                raise ParseError(str(exc), where(i)) from None
        out.append(q)
    return tuple(out)


def fields(value, keys, location: str, message: str | None = None) -> list:
    """The values of `keys` in `value`, an object with no other key (None
    for a key it lacks)."""
    if not isinstance(value, dict) or set(value) - set(keys):
        raise ParseError(message or f"expected {{{', '.join(keys)}}}", location)
    return [value.get(key) for key in keys]


def built(location: str, make, *args):
    """`make(*args)`, with the library's refusal of them as a ParseError."""
    try:
        return make(*args)
    except (TriadicaError, ValueError) as exc:
        raise ParseError(str(exc), location) from None


def matrix_from_json(value, literals: dict, location: str) -> exactla.Matrix:
    rows, cols, entries = fields(value, ("rows", "cols", "entries"), location)
    try:
        rows, cols = int(rows), int(cols)
    except (TypeError, ValueError):
        raise ParseError("rows and cols must be integers", location) from None
    if not isinstance(entries, list) or len(entries) != rows:
        raise ParseError(f"expected {rows} entry rows", location)
    out = []
    for r, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"row {r} must hold {cols} entries", location)
        out.append(rationals_from_json(
            row, literals, lambda c: f"{location}.entries[{r}][{c}]"))
    return exactla.Matrix(rows, cols, tuple(out))


def vector_from_json(value, length: int, literals: dict, location: str):
    if not isinstance(value, list) or len(value) != length:
        raise ParseError(f"expected a vector of length {length}", location)
    return rationals_from_json(value, literals, lambda i: f"{location}[{i}]")


# ---------------------------------------------------------------------------
# named fragments


def space_from_json(value, doc, location: str, literals) -> finspace.FiniteSpace:
    points, opens = fields(value, ("points", "opens"), location)
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
    space = built(location, finspace.FiniteSpace, points, tuple(sets))
    covered = frozenset().union(*sets)
    if len(covered) != points:
        # the whole set is open in a topology, so its opens list every point;
        # this also bounds the work on a space by the size of its description
        missing = next(x for x in space.points if x not in covered)
        raise ParseError(f"point {missing} lies in no open", location)
    return space


# builder word -> its function in `algebra`, looked up when a builder runs
_BUILDERS = {"function_algebra": "function_algebra",
             "truncated_poly": "truncated_poly_algebra"}
# a size-k builder makes k^3 structure constants from a few bytes of input
_MAX_BUILDER_SIZE = 32


def algebra_from_json(value, doc, location: str, literals: dict) -> algebra.Algebra:
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
        return built(location, getattr(algebra, _BUILDERS[parts[0]]), k)
    struct, unit = fields(value, ("struct", "unit"), location,
                          "expected a builder string or {struct, unit}")
    if not isinstance(struct, list):
        raise ParseError("struct must be a list of basis rows", location)
    n = len(struct)
    rows = []
    for i, row in enumerate(struct):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"struct[{i}] must hold {n} product vectors",
                             location)
        rows.append(tuple(vector_from_json(p, n, literals, f"{location}.struct[{i}][{j}]")
                          for j, p in enumerate(row)))
    unit = vector_from_json(unit, n, literals, f"{location}.unit")
    return algebra.Algebra(n, tuple(rows), unit)


# ---------------------------------------------------------------------------
# the document


def entry(section: str, value, doc: WorkspaceDocument, location: str,
          literals: dict):
    """The entry of `section` that `value`, read at `location`, stands for.

    A string names an entry of `section` (in `algebras`, one with a space
    is a builder); any other value is parsed inline.  While
    `parse_workspace` runs, a named entry it has not reached yet is parsed
    now, so what a reference names does not depend on the order of names.
    """
    if not isinstance(value, str) or (section == "algebras" and " " in value):
        return _PARSERS[section](value, doc, location, literals)
    table = getattr(doc, section)
    if value not in table and value in doc._raw.get(section, ()):
        loc = f"{section}.{value}"
        if loc in doc._parsing:
            cycle = " -> ".join(doc._parsing[doc._parsing.index(loc):] + [loc])
            raise ParseError(f"reference cycle: {cycle}", location)
        doc._parsing.append(loc)
        table[value] = entry(section, doc._raw[section][value], doc, loc, literals)
        doc._parsing.pop()
    if value not in table:
        raise UnresolvedReference(value, location)
    return table[value]


# each parses an inline value: (value, doc, location, literals); a compound
# section's parser runs its layer only for a document that holds the section
_PARSERS = {
    "spaces": space_from_json,
    "algebras": algebra_from_json,
    "presheaves": lambda *args: compound.presheaf_from_json(*args),
    "maps": lambda *args: compound_maps.map_from_json(*args),
    "triads": lambda *args: compound.triad_from_json(*args),
    "morphisms": lambda *args: compound_maps.morphism_from_json(*args),
}


def parse_workspace(text: str) -> WorkspaceDocument:
    """Parse and fully resolve a workspace document.

    Raises ParseError (bad syntax, bad scalars, bad shapes, a reference
    cycle), UnresolvedReference (dangling name) or DimensionMismatchError;
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
    for section in SECTION_ORDER:
        entries = raw.get(section, {})
        if not isinstance(entries, dict):
            raise ParseError("section must be an object of named entries",
                             section)
        for name in entries:
            if not _NAME_RE.match(name):
                raise ParseError(f"bad name {name!r}", section)
            if any(name in named for named in doc._raw.values()):
                raise ParseError(f"duplicate name {name!r}", section)
        doc._raw[section] = entries
        for name in sorted(entries):
            entry(section, name, doc, section, literals)
    doc._raw.clear()
    return doc


def load_workspace(path: str) -> WorkspaceDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_workspace(handle.read())


def dump_workspace(doc_json: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline end."""
    return json.dumps(doc_json, indent=2, sort_keys=True) + "\n"
