"""Finite topological spaces with explicitly listed open sets.

Points are 0..point_count-1.  The open sets are stored as an explicit tuple
of frozensets, each with a stable index that the rest of the package uses to
key section data.  On a finite space every point has a smallest open
neighbourhood, which is what replaces germ limits downstream.
"""

from __future__ import annotations

from itertools import product

from .errors import DimensionMismatchError
from .record import record
from .report import Finding, Report, ValidationError


class InvalidTopologyError(ValidationError):
    """The listed opens do not form a topology."""

    prefix = "not a topology"


@record
class FiniteSpace:
    point_count: int
    opens: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.point_count < 0:
            raise DimensionMismatchError("negative point count")
        for u in self.opens:
            if any(x < 0 or x >= self.point_count for x in u):
                raise DimensionMismatchError(f"open {sorted(u)} mentions a point outside the space")

    @property
    def points(self) -> range:
        return range(self.point_count)

    @property
    def full_set(self) -> frozenset[int]:
        return frozenset(self.points)

    def open_index(self, subset) -> int:
        target = frozenset(subset)
        for i, u in enumerate(self.opens):
            if u == target:
                return i
        raise KeyError(f"{sorted(target)} is not an open of this space")

    def is_open(self, subset) -> bool:
        return frozenset(subset) in set(self.opens)

    @property
    def is_discrete(self) -> bool:
        """Every point is open."""
        return all(self.is_open({p}) for p in self.points)

    def opens_containing(self, subset) -> list[int]:
        target = frozenset(subset)
        return [i for i, u in enumerate(self.opens) if target <= u]

    def inclusion_pairs(self) -> list[tuple[int, int]]:
        """All (u, v) index pairs with opens[v] a subset of opens[u]."""
        return [(u, v) for u in range(len(self.opens)) for v in range(len(self.opens))
                if self.opens[v] <= self.opens[u]]


def check_topology(space: FiniteSpace) -> Report:
    """Report-valued check that the listed opens form a topology."""
    findings: list[Finding] = []
    seen = {}
    for i, u in enumerate(space.opens):
        if u in seen:
            findings.append(Finding("error", f"opens[{i}]",
                                    "duplicate open set", sorted(u)))
        seen.setdefault(u, i)
    present = set(space.opens)
    if frozenset() not in present:
        findings.append(Finding("error", "opens", "empty set missing", []))
    if space.full_set not in present:
        findings.append(Finding("error", "opens", "full point set missing",
                                sorted(space.full_set)))
    for i, u in enumerate(space.opens):
        for j, v in enumerate(space.opens):
            if j < i:
                continue
            union = u | v
            if union not in present:
                findings.append(Finding("error", f"opens[{i}]|opens[{j}]",
                                        "union of opens is not open", sorted(union)))
            meet = u & v
            if meet not in present:
                findings.append(Finding("error", f"opens[{i}]&opens[{j}]",
                                        "intersection of opens is not open", sorted(meet)))
    return Report("check_topology", tuple(findings))


def require_topology(space: FiniteSpace) -> None:
    """Raise InvalidTopologyError carrying the first check_topology error."""
    InvalidTopologyError.require(check_topology(space))


def minimal_open(space: FiniteSpace, x: int) -> int:
    """Index of the smallest open containing the point x."""
    return minimal_open_superset(space, {x})


def minimal_open_superset(space: FiniteSpace, subset) -> int:
    """Index of the smallest open containing every point of `subset`.

    Exists for every subset of a finite space: intersect all opens that
    contain it (the full set always does).
    """
    target = frozenset(subset)
    acc = space.full_set
    for u in space.opens:
        if target <= u:
            acc &= u
    return space.open_index(acc)


def continuity_witness(values, domain: FiniteSpace, codomain: FiniteSpace) -> int | None:
    """Index of a codomain open whose preimage is not open, or None."""
    for j, v in enumerate(codomain.opens):
        pre = frozenset(x for x in domain.points if values[x] in v)
        if not domain.is_open(pre):
            return j
    return None


def is_continuous(values, domain: FiniteSpace, codomain: FiniteSpace) -> bool:
    return continuity_witness(values, domain, codomain) is None


@record
class ContinuousMap:
    domain: FiniteSpace
    codomain: FiniteSpace
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.domain.point_count:
            raise DimensionMismatchError("map must assign a value to every point")
        for x, y in enumerate(self.values):
            if y < 0 or y >= self.codomain.point_count:
                raise DimensionMismatchError(f"f({x}) = {y} is outside the codomain")
        witness = continuity_witness(self.values, self.domain, self.codomain)
        if witness is not None:
            raise ValueError(
                f"not continuous: preimage of open {sorted(self.codomain.opens[witness])} "
                f"(index {witness}) is not open")

    def __call__(self, x: int) -> int:
        return self.values[x]


def preimage_open(f: ContinuousMap, v_index: int) -> int:
    """Index (in the domain) of the preimage of the codomain open v_index."""
    v = f.codomain.opens[v_index]
    pre = frozenset(x for x in f.domain.points if f.values[x] in v)
    return f.domain.open_index(pre)


def identity_map(space: FiniteSpace) -> ContinuousMap:
    return ContinuousMap(space, space, tuple(space.points))


def compose_maps(g: ContinuousMap, f: ContinuousMap) -> ContinuousMap:
    """g after f."""
    if f.codomain is not g.domain and f.codomain != g.domain:
        raise DimensionMismatchError("maps are not composable")
    return ContinuousMap(f.domain, g.codomain, tuple(g.values[y] for y in f.values))


def constant_map(domain: FiniteSpace, codomain: FiniteSpace, c: int) -> ContinuousMap:
    return ContinuousMap(domain, codomain, (c,) * domain.point_count)


def space_from_opens(point_count: int, opens) -> FiniteSpace:
    return FiniteSpace(point_count, tuple(frozenset(u) for u in opens))


def discrete_space(n: int) -> FiniteSpace:
    # Opens ordered by bitmask value: stable, and the empty set comes first.
    opens = []
    for mask in range(1 << n):
        opens.append(frozenset(i for i in range(n) if mask >> i & 1))
    return FiniteSpace(n, tuple(opens))


def indiscrete_space(n: int) -> FiniteSpace:
    return FiniteSpace(n, (frozenset(), frozenset(range(n))) if n else (frozenset(),))


def sierpinski_space() -> FiniteSpace:
    """Two points where {0} is open but {1} is not."""
    return FiniteSpace(2, (frozenset(), frozenset({0}), frozenset({0, 1})))


def all_maps(domain: FiniteSpace, codomain: FiniteSpace):
    """All set maps domain -> codomain, in lexicographic order of value tuples."""
    return product(range(codomain.point_count), repeat=domain.point_count)
